"""Instruction sequences and a sequential functional interpreter.

The pipeline simulator (:mod:`repro.isa.pipeline`) answers *when* a program's
instructions issue; the :class:`Interpreter` here answers *what* it computes,
executing instructions one at a time in program order.  Running both the
original and the reordered kernel through the interpreter and comparing final
machine state is how the test suite proves the Section VI reordering is
semantics-preserving.

All loops are emitted unrolled (the kernels the paper reorders are fixed-trip
inner loops), so branches in a program are markers of iteration boundaries:
every branch but a program's last falls through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.isa.instructions import Instruction, OPCODES


class Program:
    """An ordered sequence of instructions."""

    def __init__(self, instructions: Iterable[Instruction] = (), name: str = ""):
        self.instructions: List[Instruction] = list(instructions)
        self.name = name

    def append(self, instr: Instruction) -> None:
        self.instructions.append(instr)

    def extend(self, instrs: Iterable[Instruction]) -> None:
        self.instructions.extend(instrs)

    def emit(self, op: str, dst=None, srcs=(), addr=None, imm=None, tag="") -> Instruction:
        """Append a new instruction and return it."""
        instr = Instruction(op=op, dst=dst, srcs=tuple(srcs), addr=addr, imm=imm, tag=tag)
        self.append(instr)
        return instr

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def flop_count(self) -> int:
        """Total double-precision flops the program performs."""
        return sum(i.spec.flops for i in self.instructions)

    def count_op(self, op: str) -> int:
        return sum(1 for i in self.instructions if i.op == op)

    def registers(self) -> List[str]:
        """All register names the program touches, in first-use order."""
        seen: Dict[str, None] = {}
        for instr in self.instructions:
            for reg in instr.reads + instr.writes:
                seen.setdefault(reg)
        return list(seen)

    def render(self) -> str:
        """Assembly-like listing."""
        lines = [f"; {self.name}"] if self.name else []
        lines.extend(i.render() for i in self.instructions)
        return "\n".join(lines)


@dataclass
class MachineState:
    """Functional machine state: register values and memory arrays.

    Registers hold 4-lane double vectors (stored as NumPy arrays of shape
    ``(4,)``) or scalars for integer registers; memory arrays are dicts from
    index tuples to values, standing in for LDM contents.
    """

    registers: Dict[str, np.ndarray] = field(default_factory=dict)
    memory: Dict[str, Dict[Tuple, np.ndarray]] = field(default_factory=dict)
    lanes: int = 4

    def load(self, array: str, index: Tuple) -> np.ndarray:
        try:
            return np.asarray(self.memory[array][index], dtype=np.float64)
        except KeyError:
            raise SimulationError(
                f"functional load from undefined {array}{list(index)}"
            ) from None

    def store(self, array: str, index: Tuple, value: np.ndarray) -> None:
        self.memory.setdefault(array, {})[index] = np.array(value, dtype=np.float64)

    def read_reg(self, name: str) -> np.ndarray:
        try:
            return self.registers[name]
        except KeyError:
            raise SimulationError(f"read of undefined register {name!r}") from None

    def write_reg(self, name: str, value) -> None:
        self.registers[name] = np.asarray(value, dtype=np.float64)

    def snapshot_registers(self, names: Iterable[str]) -> Dict[str, np.ndarray]:
        return {n: np.array(self.read_reg(n)) for n in names}


class Interpreter:
    """Executes a :class:`Program` sequentially, in program order."""

    def __init__(self, state: Optional[MachineState] = None):
        self.state = state or MachineState()

    def run(self, program: Program) -> MachineState:
        for instr in program:
            self.step(instr)
        return self.state

    def step(self, instr: Instruction) -> None:
        st = self.state
        op = instr.op
        if op == "vload" or op == "ldw" or op == "getr" or op == "getc":
            array, index = self._addr(instr)
            st.write_reg(instr.dst, st.load(array, index))
        elif op == "vldde":
            array, index = self._addr(instr)
            scalar = np.asarray(st.load(array, index)).flat[0]
            st.write_reg(instr.dst, np.full(st.lanes, scalar))
        elif op in ("vstore", "stw", "putr", "putc"):
            array, index = self._addr(instr)
            st.store(array, index, st.read_reg(instr.srcs[0]))
        elif op in ("vfmad", "fmad"):
            a, b = instr.srcs
            acc = st.read_reg(instr.dst) + st.read_reg(a) * st.read_reg(b)
            st.write_reg(instr.dst, acc)
        elif op == "vmuld":
            a, b = instr.srcs
            st.write_reg(instr.dst, st.read_reg(a) * st.read_reg(b))
        elif op == "vaddd":
            a, b = instr.srcs
            st.write_reg(instr.dst, st.read_reg(a) + st.read_reg(b))
        elif op == "cmp":
            value = st.read_reg(instr.srcs[0]) if instr.srcs else 0.0
            threshold = instr.imm if instr.imm is not None else 0.0
            st.write_reg(instr.dst, np.asarray(float(np.all(value < threshold))))
        elif op == "addl":
            base = st.read_reg(instr.srcs[0]) if instr.srcs else np.asarray(0.0)
            st.write_reg(instr.dst, base + (instr.imm or 0.0))
        elif op == "ldi":
            st.write_reg(instr.dst, np.asarray(instr.imm or 0.0))
        elif op in ("bnw", "beq", "jmp", "nop"):
            # Unrolled programs: branches are iteration markers, fall through.
            pass
        else:  # pragma: no cover - OPCODES and this dispatch stay in sync
            raise SimulationError(f"interpreter has no semantics for {op!r}")

    @staticmethod
    def _addr(instr: Instruction) -> Tuple[str, Tuple]:
        if instr.addr is None:
            raise SimulationError(f"{instr.op} needs an address: {instr.render()}")
        return instr.addr
