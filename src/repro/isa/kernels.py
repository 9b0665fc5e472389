"""GEMM inner-kernel generator: original and reordered instruction flows.

This is Fig. 6 of the paper.  The register-blocked GEMM at the heart of every
convolution plan computes, per inner-loop iteration,

    C[i][j] += A[i] * B[j]        i in [0, 4), j in [0, 4)

where ``A[i]`` are vector loads of 4 batch elements each (``rbB = 16``),
``B[j]`` are filter elements splat-loaded with ``vldde`` (``rbNo = 4``), and
``C`` is a 4x4 block of vector accumulators that stays in registers across
the whole loop (Section V-B / Eq. 5).  The loop runs ``Ni/8`` iterations.

*Original* flow (left of Fig. 6): 8 loads, 16 ``vfmad``, ``cmp``, ``bnw`` in
source order.  Under the dual-issue rules this costs 26 cycles per iteration
(nothing pairs: loads serialize on P1, FMAs on P0, and the first FMA's
operands only become ready as the last load completes), for an execution
efficiency of 16/26 = 61.5%.

*Reordered* flow (right of Fig. 6), produced by the three steps of
Section VI-B: a 5-cycle initial section loads ``B[0]`` and ``A[0..3]`` of
iteration 0; each steady iteration pairs its remaining loads, the loads of
the *next* iteration, and the loop compare with the 16 FMAs, leaving only
the loop branch unpaired — 17 cycles; the exit section (last iteration, no
next loads, no branch) takes 16.  Total for K = Ni/8 iterations:

    5 + (K - 1) * 17 + 16   cycles,  EE = 16K / that.

:func:`kernel_cycles` gives the simulated cycle count of the reordered
kernel in closed form for any iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.isa.instructions import Instruction
from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Program


@dataclass(frozen=True)
class GemmKernelSpec:
    """Shape of the register-blocked GEMM inner loop.

    ``num_a`` vector registers of inputs x ``num_b`` splatted filter
    registers -> ``num_a * num_b`` accumulators.  The paper's configuration
    is 4 x 4 (rbB=16 batch elements in 4 vectors, rbNo=4 output channels).
    """

    iterations: int
    num_a: int = 4
    num_b: int = 4

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {self.iterations}")
        if self.num_a < 1 or self.num_b < 1:
            raise ValueError("register block must be at least 1x1")

    @property
    def fma_per_iteration(self) -> int:
        return self.num_a * self.num_b

    @property
    def loads_per_iteration(self) -> int:
        return self.num_a + self.num_b

    @classmethod
    def for_input_channels(cls, ni: int, num_a: int = 4, num_b: int = 4) -> "GemmKernelSpec":
        """The paper's inner loop runs Ni/8 iterations (Section VI-B)."""
        if ni % 8 != 0:
            raise ValueError(f"Ni must be a multiple of 8, got {ni}")
        return cls(iterations=ni // 8, num_a=num_a, num_b=num_b)


def _acc(i: int, j: int) -> str:
    return f"C{i}{j}"


def gemm_kernel_original(spec: GemmKernelSpec) -> Program:
    """The compiler-order instruction flow (left side of Fig. 6)."""
    prog = Program(name=f"gemm-original-K{spec.iterations}")
    for it in range(spec.iterations):
        tag = f"iter{it}"
        for i in range(spec.num_a):
            prog.emit("vload", dst=f"A{i}", addr=("A", (it, i)), tag=tag)
        for j in range(spec.num_b):
            prog.emit("vldde", dst=f"B{j}", addr=("B", (it, j)), tag=tag)
        for i in range(spec.num_a):
            for j in range(spec.num_b):
                prog.emit("vfmad", dst=_acc(i, j), srcs=(f"A{i}", f"B{j}"), tag=tag)
        prog.emit("cmp", dst="flag", srcs=("cnt",), imm=spec.iterations, tag=tag)
        prog.emit("bnw", srcs=("flag",), tag=tag)
    return prog


def gemm_kernel_reordered(spec: GemmKernelSpec) -> Program:
    """The software-pipelined instruction flow (right side of Fig. 6).

    Layout per steady iteration (program order; ';' marks the intended
    dual-issue partner on P1):

    ===== =====================================
    cycle P0 / P1
    ===== =====================================
    0-3   fma column 0            ; B1..B3 of this iteration, B0 of next
    4     fma (0,1)               ; cmp
    5-11  fma columns 1,2 (rest)
    12-15 fma column 3            ; A0..A3 of next iteration
    16    bnw (issues alone)
    ===== =====================================

    FMAs walk column-major (all of B0's column first) so each B[j] load has
    exactly ``num_a`` cycles to complete before its first consumer.
    """
    K = spec.iterations
    na, nb = spec.num_a, spec.num_b
    prog = Program(name=f"gemm-reordered-K{K}")

    # Initial section: B[0] then A[0..na) of iteration 0 (5 cycles for 4x4).
    prog.emit("vldde", dst="B0", addr=("B", (0, 0)), tag="prologue")
    for i in range(na):
        prog.emit("vload", dst=f"A{i}", addr=("A", (0, i)), tag="prologue")

    for it in range(K):
        last = it == K - 1
        tag = f"iter{it}"
        # P1 ops to interleave with the FMAs.  Each carries an *earliest*
        # FMA slot: a load that overwrites a live register (the next
        # iteration's A[i] and B[0]) may only be emitted after the last FMA
        # that reads the old value — A[i] is last read by FMA
        # (nb-1)*na + i, B[0] by FMA na-1 (FMAs walk column-major).
        pending: List[Tuple[int, Instruction]] = []
        for j in range(1, nb):
            pending.append(
                (0, Instruction("vldde", dst=f"B{j}", addr=("B", (it, j)), tag=tag))
            )
        if not last:
            pending.append(
                (
                    na - 1,
                    Instruction("vldde", dst="B0", addr=("B", (it + 1, 0)), tag=tag),
                )
            )
            pending.append(
                (0, Instruction("cmp", dst="flag", srcs=("cnt",), imm=K, tag=tag))
            )
            for i in range(na):
                pending.append(
                    (
                        (nb - 1) * na + i,
                        Instruction(
                            "vload", dst=f"A{i}", addr=("A", (it + 1, i)), tag=tag
                        ),
                    )
                )

        fma_index = 0
        for j in range(nb):
            for i in range(na):
                prog.emit("vfmad", dst=_acc(i, j), srcs=(f"A{i}", f"B{j}"), tag=tag)
                for slot, (earliest, instr) in enumerate(pending):
                    if earliest <= fma_index:
                        prog.append(instr)
                        pending.pop(slot)
                        break
                fma_index += 1
        # Blocks too small to hide every P1 op behind an FMA (fewer FMAs
        # than loads) spill the leftovers after the FMAs; they cost extra
        # cycles — exactly the penalty Eq. 4 predicts for tiny blocks.
        for _, leftover in pending:
            prog.append(leftover)
        if not last:
            prog.emit("bnw", srcs=("flag",), tag=tag)
    return prog


def predicted_cycles_original(spec: GemmKernelSpec) -> int:
    """Closed form for the original flow: one issue per cycle, 26/iteration."""
    per_iter = spec.loads_per_iteration + spec.fma_per_iteration + 2
    return per_iter * spec.iterations


def predicted_cycles_reordered(spec: GemmKernelSpec) -> int:
    """Closed form of Section VI-B: 5 + (K-1)*17 + 16 for the 4x4 block.

    Exact for ``4 x N`` blocks (``N >= 2``) only; other blocks stall on load
    latency or spill loads past their FMAs, so they raise ``ValueError``
    (:func:`kernel_cycles` times the others).
    """
    if spec.num_a != 4 or spec.num_b < 2:
        raise ValueError(
            f"the Section VI-B form covers 4 x N blocks (N >= 2), not "
            f"{spec.num_a} x {spec.num_b}; use kernel_cycles"
        )
    prologue = 1 + spec.num_a
    steady = spec.fma_per_iteration + 1  # FMAs + the unpaired branch
    exit_section = spec.fma_per_iteration
    return prologue + (spec.iterations - 1) * steady + exit_section


@lru_cache(maxsize=None)
def _first_iterations_cycles(num_a: int, num_b: int) -> Tuple[int, int, int]:
    """Simulated cycles of the reordered kernel at 1, 2 and 3 iterations."""
    sim = DualPipelineSimulator()
    return tuple(
        sim.simulate(gemm_kernel_reordered(GemmKernelSpec(k, num_a, num_b))).total_cycles
        for k in (1, 2, 3)
    )


def kernel_cycles(spec: GemmKernelSpec) -> int:
    """Cycles of the reordered kernel on the dual pipelines, in closed form.

    From the second iteration on, each steady iteration issues the pattern
    of the one before it shifted by a fixed period, so the count is affine:
    ``c2 + (K - 2) * (c3 - c2)``, with ``c1..c3`` simulated once per block
    (thin blocks, ``num_b == 1`` and ``num_a >= 5``, take one more cycle in
    the first iteration).  ``tests/isa/test_kernels.py`` certifies it
    against :class:`~repro.isa.pipeline.DualPipelineSimulator` on every
    block up to 8 x 8 and every block register blocking admits
    (``enumerate_gemm_blockings``, up to 12 x 1 and 1 x 12); the blocks a
    plan can use are checked up to 1,200 iterations (marker ``kernel``).
    Other blocks are not certified.
    """
    c1, c2, c3 = _first_iterations_cycles(spec.num_a, spec.num_b)
    if spec.iterations == 1:
        return c1
    return c2 + (spec.iterations - 2) * (c3 - c2)


def paper_execution_efficiency(ni: int) -> float:
    """EE formula of Section VI-B: (Ni/8*16)/(5+(Ni/8-1)*17+16)."""
    if ni % 8 != 0:
        raise ValueError(f"Ni must be a multiple of 8, got {ni}")
    k = ni // 8
    return (k * 16) / (5 + (k - 1) * 17 + 16)

