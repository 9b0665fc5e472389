"""Instruction set and dual-pipeline timing model of the SW26010 CPE.

Section VI of the paper: each CPE has two in-order execution pipelines
sharing one instruction decoder.  ``P0`` executes floating-point and vector
operations; ``P1`` executes memory, register-communication and control
operations; both execute scalar integer operations.  Two instructions at the
front of the queue dual-issue when they have no conflicts with in-flight
instructions, no RAW/WAW conflict with each other, and can be handled by the
two pipelines separately.

This package provides:

* :mod:`repro.isa.instructions` — the opcode table (pipeline class,
  latency, flop count) and the :class:`Instruction` value type;
* :mod:`repro.isa.program` — instruction sequences plus a sequential
  functional interpreter used to prove reordered code computes the same
  values;
* :mod:`repro.isa.pipeline` — the cycle-accurate dual-issue simulator;
* :mod:`repro.isa.scheduler` — the three reordering passes of Section VI-B
  (dependence analysis, intra-loop reordering, inter-loop software
  pipelining);
* :mod:`repro.isa.kernels` — the GEMM inner-kernel generator, in both the
  original (compiler-order) and reordered forms of Fig. 6, and
  ``kernel_cycles``, the reordered kernel's simulated cycles in closed form.
"""

from repro.isa.instructions import (
    Instruction,
    OpSpec,
    OPCODES,
    PipelineClass,
)
from repro.isa.program import Program, Interpreter, MachineState
from repro.isa.pipeline import DualPipelineSimulator, IssueRecord, PipelineReport
from repro.isa.scheduler import (
    DependenceGraph,
    analyze_dependences,
    list_schedule,
    software_pipeline_gemm,
)
from repro.isa.kernels import (
    GemmKernelSpec,
    gemm_kernel_original,
    gemm_kernel_reordered,
    kernel_cycles,
    paper_execution_efficiency,
)
from repro.isa.assembler import assemble, disassemble, AssemblyError
from repro.isa.executor import KernelExecutor
from repro.isa.verifier import Diagnostic, assert_clean, verify_program

__all__ = [
    "Instruction",
    "OpSpec",
    "OPCODES",
    "PipelineClass",
    "Program",
    "Interpreter",
    "MachineState",
    "DualPipelineSimulator",
    "IssueRecord",
    "PipelineReport",
    "DependenceGraph",
    "analyze_dependences",
    "list_schedule",
    "software_pipeline_gemm",
    "GemmKernelSpec",
    "gemm_kernel_original",
    "gemm_kernel_reordered",
    "kernel_cycles",
    "paper_execution_efficiency",
    "assemble",
    "disassemble",
    "AssemblyError",
    "KernelExecutor",
    "Diagnostic",
    "assert_clean",
    "verify_program",
]
