"""Cycle-accurate dual-issue pipeline simulator for one CPE.

Issue rules (Section VI-A of the paper):

1. In-order: only the two instructions at the front of the queue are
   candidates each cycle, and the second may issue only together with the
   first.
2. Structural: P0 ops go to P0, P1 ops to P1, scalar-integer ops to either;
   each pipeline accepts at most one instruction per cycle.
3. RAW: an instruction issues only when every source register's producer has
   completed (producer issue cycle + latency <= issue cycle).  ``vfmad``
   reads its accumulator, so FMA chains on one register serialize at the
   7-cycle FMA latency.
4. WAW: two writes to the same register may not issue in the same cycle, and
   a later write may not complete before an earlier one (enforced by
   monotone completion times per register).
5. Control transfer instructions issue alone — they pair with neither their
   predecessor nor their successor, so a loop-closing branch costs one full
   issue cycle.  This is the rule that makes the original kernel cost
   8 vload + 16 vfmad + cmp + bnw = 26 cycles per iteration and the
   reordered kernel 17.

Both pipelines are fully pipelined: latency affects dependents, not
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction, PipelineClass
from repro.isa.program import Program


@dataclass
class IssueRecord:
    """Where and when one instruction issued."""

    index: int
    instruction: Instruction
    cycle: int
    pipeline: str  # "P0" or "P1"

    @property
    def complete(self) -> int:
        return self.cycle + self.instruction.spec.latency


@dataclass
class PipelineReport:
    """Result of simulating a program."""

    records: List[IssueRecord]
    total_cycles: int
    p0_issues: int
    p1_issues: int
    dual_issue_cycles: int
    stall_cycles: int
    fma_issues: int
    flops: int

    @property
    def fma_efficiency(self) -> float:
        """Fraction of cycles in which P0 issued a floating-point operation.

        This is the paper's *execution efficiency* (EE): the original GEMM
        loop scores 16/26 = 61.5%, the reordered one 16/17 per steady
        iteration.
        """
        if self.total_cycles == 0:
            return 0.0
        return self.fma_issues / self.total_cycles

    @property
    def ipc(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return len(self.records) / self.total_cycles

    def issue_cycle(self, index: int) -> int:
        return self.records[index].cycle

    def timeline(self) -> str:
        """Cycle-by-cycle listing (P0 | P1), for reports and debugging."""
        by_cycle: Dict[int, Dict[str, str]] = {}
        for rec in self.records:
            slot = by_cycle.setdefault(rec.cycle, {})
            slot[rec.pipeline] = rec.instruction.render()
        lines = ["cycle | P0                               | P1"]
        for cycle in range(self.total_cycles):
            slot = by_cycle.get(cycle, {})
            lines.append(
                f"{cycle:5d} | {slot.get('P0', '-'):32s} | {slot.get('P1', '-')}"
            )
        return "\n".join(lines)


class DualPipelineSimulator:
    """Simulates issue timing of a :class:`Program` on the two CPE pipelines."""

    def __init__(self) -> None:
        pass

    def simulate(self, program: Program) -> PipelineReport:
        instructions = program.instructions
        n = len(instructions)
        records: List[IssueRecord] = []
        #: Cycle at which each register's latest value becomes readable.
        ready: Dict[str, int] = {}
        #: Completion cycle of the latest write to each register (WAW order).
        last_completion: Dict[str, int] = {}

        cycle = 0
        i = 0
        dual_cycles = 0
        stall_cycles = 0
        while i < n:
            first = instructions[i]
            first_pipe = self._issuable(first, cycle, ready, last_completion, busy=())
            if first_pipe is None:
                cycle += 1
                stall_cycles += 1
                continue
            self._commit(first, cycle, ready, last_completion)
            records.append(IssueRecord(i, first, cycle, first_pipe))
            i += 1
            issued_pair = False
            if (
                i < n
                and not first.spec.is_branch
                and not instructions[i].spec.is_branch
            ):
                second = instructions[i]
                if not self._pair_conflict(first, second):
                    second_pipe = self._issuable(
                        second, cycle, ready, last_completion, busy=(first_pipe,)
                    )
                    if second_pipe is not None:
                        self._commit(second, cycle, ready, last_completion)
                        records.append(IssueRecord(i, second, cycle, second_pipe))
                        i += 1
                        issued_pair = True
            if issued_pair:
                dual_cycles += 1
            cycle += 1

        total_cycles = cycle
        p0 = sum(1 for r in records if r.pipeline == "P0")
        p1 = len(records) - p0
        fma = sum(1 for r in records if r.instruction.spec.flops > 0)
        return PipelineReport(
            records=records,
            total_cycles=total_cycles,
            p0_issues=p0,
            p1_issues=p1,
            dual_issue_cycles=dual_cycles,
            stall_cycles=stall_cycles,
            fma_issues=fma,
            flops=program.flop_count(),
        )

    # -- issue legality -----------------------------------------------------

    @staticmethod
    def _pair_conflict(first: Instruction, second: Instruction) -> bool:
        """RAW/WAW conflicts between two same-cycle candidates."""
        first_writes = set(first.writes)
        if first_writes & set(second.reads):
            return True  # RAW within the pair
        if first_writes & set(second.writes):
            return True  # WAW within the pair
        return False

    @staticmethod
    def _issuable(
        instr: Instruction,
        cycle: int,
        ready: Dict[str, int],
        last_completion: Dict[str, int],
        busy: tuple,
    ) -> Optional[str]:
        """Return the pipeline this instruction can issue to at ``cycle``."""
        spec = instr.spec
        # Structural: find a free pipeline.
        if spec.pipeline is PipelineClass.P0:
            pipe = "P0" if "P0" not in busy else None
        elif spec.pipeline is PipelineClass.P1:
            pipe = "P1" if "P1" not in busy else None
        else:  # EITHER: prefer P1 so P0 stays free for float work.
            if "P1" not in busy:
                pipe = "P1"
            elif "P0" not in busy:
                pipe = "P0"
            else:
                pipe = None
        if pipe is None:
            return None
        # RAW: all sources ready.
        for reg in instr.reads:
            if ready.get(reg, 0) > cycle:
                return None
        # WAW: this write must not complete before an in-flight earlier write.
        for reg in instr.writes:
            if last_completion.get(reg, -1) >= cycle + spec.latency:
                return None
        return pipe

    @staticmethod
    def _commit(
        instr: Instruction,
        cycle: int,
        ready: Dict[str, int],
        last_completion: Dict[str, int],
    ) -> None:
        done = cycle + instr.spec.latency
        for reg in instr.writes:
            ready[reg] = done
            last_completion[reg] = done
