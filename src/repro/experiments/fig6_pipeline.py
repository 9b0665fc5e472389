"""Fig. 6 / Section VI-B: instruction reordering on the dual pipelines.

Regenerates the cycle accounting of the reordering optimization: the
original compiler-order GEMM inner loop costs 26 cycles per iteration
(EE = 16/26 = 61.5%); after dependence analysis, intra-loop reordering and
inter-loop software pipelining it costs a 5-cycle initial section,
17 cycles per steady iteration and a 16-cycle exit section, for

    EE(Ni) = (Ni/8 * 16) / (5 + (Ni/8 - 1) * 17 + 16).

Both sides are *simulated*, not just computed from the formula: the kernel
generator emits the two instruction streams and the dual-issue pipeline
model executes them under the paper's issue rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.tables import TextTable
from repro.isa.kernels import (
    GemmKernelSpec,
    gemm_kernel_original,
    gemm_kernel_reordered,
    paper_execution_efficiency,
)
from repro.isa.pipeline import DualPipelineSimulator


@dataclass
class Fig6Row:
    ni: int
    iterations: int
    original_cycles: int
    original_cycles_per_iter: float
    original_ee: float
    reordered_cycles: int
    reordered_ee: float
    paper_ee: float
    speedup: float


def run(ni_values: List[int] = None) -> List[Fig6Row]:
    ni_values = ni_values or [32, 64, 128, 192, 256, 320, 384]
    sim = DualPipelineSimulator()
    rows = []
    for ni in ni_values:
        spec = GemmKernelSpec.for_input_channels(ni)
        original = sim.simulate(gemm_kernel_original(spec))
        reordered = sim.simulate(gemm_kernel_reordered(spec))
        rows.append(
            Fig6Row(
                ni=ni,
                iterations=spec.iterations,
                original_cycles=original.total_cycles,
                original_cycles_per_iter=original.total_cycles / spec.iterations,
                original_ee=original.fma_efficiency,
                reordered_cycles=reordered.total_cycles,
                reordered_ee=reordered.fma_efficiency,
                paper_ee=paper_execution_efficiency(ni),
                speedup=original.total_cycles / reordered.total_cycles,
            )
        )
    return rows


def render(rows: List[Fig6Row] = None) -> str:
    rows = rows if rows is not None else run()
    table = TextTable(
        [
            "Ni",
            "iters",
            "orig cycles",
            "cyc/iter",
            "orig EE",
            "reord cycles",
            "reord EE",
            "paper EE",
            "speedup",
        ],
        float_fmt="{:.3f}",
    )
    for r in rows:
        table.add_row(
            [
                r.ni,
                r.iterations,
                r.original_cycles,
                r.original_cycles_per_iter,
                r.original_ee,
                r.reordered_cycles,
                r.reordered_ee,
                r.paper_ee,
                r.speedup,
            ]
        )
    header = (
        "Fig. 6 / Section VI-B — dual-pipeline instruction reordering\n"
        "(paper: 26 cycles/iter original = 61.5% EE; "
        "reordered = 5 + 17*(K-1) + 16 cycles)\n"
    )
    return header + table.render()
