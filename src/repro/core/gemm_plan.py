"""swGEMM: LDM-blocked dense matrix multiply on the simulated SW26010.

The classifier part of a CNN (Section III-A) is fully-connected layers —
plain GEMMs.  They reuse the same machinery as the convolution plans: LDM
tiles streamed by DMA with double buffering, the register-communication
mesh GEMM within each tile, the (rbB, rbNo) register blocking and the
reordered inner kernel.  This module packages that as a standalone
operation the layer API (and future "other forms of DNNs") can call.

Blocking analysis (derived the same way as Eq. 1/2): a ``bM x bN`` output
tile with full-``K`` panels moves ``(bM*K + K*bN + bM*bN) * DS`` bytes for
``2*bM*bN*K`` flops, so the required MEM->LDM bandwidth is

    RBW = ((1/bN + 1/bM) + 1/K) * DS / (2 / T).

Bigger tiles amortize both panel loads; the LDM bounds the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.hw.ldm import LDMAllocator
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream, blended_mbw
from repro.perf.equations import DS, rbw_ldm_reg_gemm_simd
from repro.perf.model import PerformanceEstimate, kernel_ee
from repro.core.conv import (
    BACKENDS,
    OVERLAP_CONTENTION,
    TimingReport,
    _StepCost,
    runs_report,
)
from repro.core.register_blocking import PAPER_REGISTER_BLOCKING, RegisterBlocking
from repro.core.register_comm import MeshGemm
from repro.perf.dma_model import DMA_STRIDE_EFFICIENCY
from repro.hw.dma import DMABandwidthModel


@dataclass(frozen=True)
class GemmParams:
    """C (m x n) += A (m x k) . B (k x n)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise ValueError(f"GEMM dimensions must be positive: {self}")

    def flops(self) -> int:
        return 2 * self.m * self.n * self.k

    def bytes_unique(self, ds: int = DS) -> int:
        return (self.m * self.k + self.k * self.n + self.m * self.n) * ds


def rbw_gemm(
    b_m: int,
    b_n: int,
    k: int,
    peak_flops: float = DEFAULT_SPEC.peak_flops_per_cg,
    ds: int = DS,
) -> float:
    """Required MEM->LDM bandwidth of a (bM, bN) tiled GEMM (bytes/s)."""
    if min(b_m, b_n, k) < 1:
        raise ValueError("tile sizes and depth must be positive")
    return ((1.0 / b_n + 1.0 / b_m) + 1.0 / k) * ds / (2.0 / peak_flops)


def choose_gemm_blocking(
    params: GemmParams, spec: SW26010Spec = DEFAULT_SPEC
) -> Tuple[int, int, int]:
    """Largest (bM, bN, bK) tiling that fits the LDM.

    The output tile C (bM x bN) stays resident in LDM while A (bM x bK) and
    B (bK x bN) panels stream over the K dimension (double-buffered), so
    the MEM traffic is ``M*N*K/bN + M*N*K/bM`` elements — bigger output
    tiles amortize both panels.  Per-CPE bytes:
    ``(2*(bM*bK + bK*bN) + bM*bN) / 64 * 8``.
    """
    allocator = LDMAllocator(capacity=spec.ldm_bytes)
    per_cpe = spec.cpes_per_group

    def fits(b_m: int, b_n: int, b_k: int) -> bool:
        a_tile = -(-b_m * b_k // per_cpe) * DS
        b_tile = -(-b_k * b_n // per_cpe) * DS
        c_tile = -(-b_m * b_n // per_cpe) * DS
        return allocator.would_fit(a_tile, a_tile, b_tile, b_tile, c_tile)

    best: Optional[Tuple[int, int, int]] = None
    size = 8
    while size <= 8192:
        b_m = min(size, params.m)
        b_n = min(size, params.n)
        b_k = min(size, params.k)
        if fits(b_m, b_n, b_k):
            best = (b_m, b_n, b_k)
            if b_m == params.m and b_n == params.n and b_k == params.k:
                break
        else:
            break
        size *= 2
    if best is None:
        raise PlanError(f"no GEMM tiling fits LDM for {params}")
    return best


#: ``((m_len, n_len, k_len, last_chunk), count)``: consecutive tile-chunks.
ChunkRun = Tuple[Tuple[int, int, int, bool], int]


class GemmPlan:
    """Tiled GEMM schedule with DMA traffic and timing, like a ConvPlan."""

    name = "swgemm"

    def __init__(
        self,
        params: GemmParams,
        blocking: Optional[Tuple[int, int, int]] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        self.params = params
        self.spec = spec
        self.register_blocking = register_blocking
        register_blocking.check_feasible(spec)
        self.b_m, self.b_n, self.b_k = blocking or choose_gemm_blocking(params, spec)
        if self.b_m > params.m or self.b_n > params.n or self.b_k > params.k:
            raise PlanError(
                f"tile ({self.b_m}, {self.b_n}, {self.b_k}) exceeds problem {params}"
            )
        self._chunk_runs: Optional[Tuple[ChunkRun, ...]] = None

    def tiles(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield (m0, m_len, n0, n_len) output tiles in row-major order."""
        p = self.params
        for m0 in range(0, p.m, self.b_m):
            m_len = min(self.b_m, p.m - m0)
            for n0 in range(0, p.n, self.b_n):
                n_len = min(self.b_n, p.n - n0)
                yield m0, m_len, n0, n_len

    def k_chunks(self) -> Iterator[Tuple[int, int]]:
        """Yield (k0, k_len) reduction chunks."""
        p = self.params
        for k0 in range(0, p.k, self.b_k):
            yield k0, min(self.b_k, p.k - k0)

    def chunk_runs(self) -> Tuple[ChunkRun, ...]:
        """The tile-chunk schedule as runs, memoized.

        Each run is ``((m_len, n_len, k_len, last_chunk), count)``:
        ``count`` consecutive tile-chunks of one geometry, in the order the
        schedule executes them (row-major output tiles, each reducing over
        its ``k`` chunks; the last chunk stores the tile).
        """
        if self._chunk_runs is None:
            p = self.params
            k_full, k_edge = divmod(p.k, self.b_k)
            if k_edge:
                chunks = [(self.b_k, False, k_full), (k_edge, True, 1)]
            else:
                chunks = [(self.b_k, False, k_full - 1), (self.b_k, True, 1)]
            n_full, n_edge = divmod(p.n, self.b_n)
            runs: List[ChunkRun] = []
            for m0 in range(0, p.m, self.b_m):
                m_len = min(self.b_m, p.m - m0)
                for n_len, repeat in ((self.b_n, n_full), (n_edge, 1 if n_edge else 0)):
                    if not repeat:
                        continue
                    tile = [
                        ((m_len, n_len, k_len, last), count)
                        for k_len, last, count in chunks
                        if count
                    ]
                    # A one-chunk tile repeats as one run; a longer one
                    # starts and ends on different keys, so never merges.
                    if len(tile) == 1:
                        tile = [(tile[0][0], tile[0][1] * repeat)]
                    else:
                        tile = tile * repeat
                    if runs and runs[-1][0] == tile[0][0]:
                        runs[-1] = (tile[0][0], runs[-1][1] + tile[0][1])
                        tile = tile[1:]
                    runs.extend(tile)
            self._chunk_runs = tuple(runs)
        return self._chunk_runs

    def dma_streams(self) -> List[DMAStream]:
        """Per-operand traffic in closed form.

        Every output tile streams its full-``K`` A row panel and B column
        panel once and stores itself once, so A moves ``M x K`` once per
        column of tiles, B moves ``K x N`` once per row of tiles, and C
        moves ``M x N``.
        """
        p = self.params
        m_tiles = -(-p.m // self.b_m)
        n_tiles = -(-p.n // self.b_n)
        a_bytes = n_tiles * p.m * p.k * DS
        b_bytes = m_tiles * p.k * p.n * DS
        c_bytes = p.m * p.n * DS
        block_a = min(self.b_k, 512) * DS
        block_bc = min(self.b_n, 512) * DS
        return [
            DMAStream("A.get", float(a_bytes), block_a, "get"),
            DMAStream("B.get", float(b_bytes), block_bc, "get"),
            DMAStream("C.put", float(c_bytes), block_bc, "put"),
        ]

    def rbw_mem(self) -> float:
        return rbw_gemm(
            self.b_m, self.b_n, self.params.k, peak_flops=self.spec.peak_flops_per_cg
        )

    def estimate(self) -> PerformanceEstimate:
        return PerformanceEstimate(
            plan=self.name,
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=kernel_ee(self.params.k),
            rbw_mem=self.rbw_mem(),
            mbw_mem=blended_mbw(self.dma_streams()),
            rbw_reg=rbw_ldm_reg_gemm_simd(
                self.register_blocking.rb_b,
                self.register_blocking.rb_no,
                peak_flops=self.spec.peak_flops_per_cpe,
            ),
            mbw_reg=self.spec.ldm_bandwidth,
        )


def gemm_runs_report(
    plan: GemmPlan,
    price: Callable[[int, int, int, bool], _StepCost],
    contention: float,
    peak_flops: float,
) -> TimingReport:
    """Time ``plan``'s chunk runs, pricing each distinct chunk once.

    ``price(m_len, n_len, k_len, last_chunk)`` is the cost of one
    tile-chunk; the lowered conv engines pass their own (Winograd streams
    all 16 transform components per chunk).
    """
    priced = {}
    runs = []
    for key, count in plan.chunk_runs():
        cost = priced.get(key)
        if cost is None:
            cost = priced[key] = price(*key)
        runs.append((cost, count))
    return runs_report(runs, contention, peak_flops)


class GemmEngine:
    """Functional + timed execution of a :class:`GemmPlan`."""

    def __init__(
        self,
        plan: GemmPlan,
        backend: str = "numpy",
        stride_efficiency: float = DMA_STRIDE_EFFICIENCY,
        overlap_contention: float = OVERLAP_CONTENTION,
    ):
        if backend not in BACKENDS:
            raise PlanError(f"unknown GEMM backend {backend!r}; known: {BACKENDS}")
        self.plan = plan
        self.spec = plan.spec
        self.backend = backend
        self.stride_efficiency = stride_efficiency
        self.overlap_contention = overlap_contention
        self._dma = DMABandwidthModel(alignment=self.spec.dma_alignment)
        if backend in ("mesh", "mesh-fast"):
            mode = "session" if backend == "mesh-fast" else "full"
            self._mesh = MeshGemm(spec=self.spec, mode=mode)
        else:
            self._mesh = None

    def _cost(self, m_len: int, n_len: int, k_len: int, last_chunk: bool) -> _StepCost:
        plan = self.plan
        a_bytes = m_len * k_len * DS
        b_bytes = k_len * n_len * DS
        c_bytes = m_len * n_len * DS if last_chunk else 0
        block_a = min(plan.b_k, 512) * DS
        block_bc = min(plan.b_n, 512) * DS

        def t(nbytes, block, direction):
            if nbytes == 0:
                return 0.0
            bw = self._dma.bandwidth(block, direction, aligned=self._dma.is_aligned(block))
            return nbytes / (bw * self.stride_efficiency)

        flops = 2 * m_len * n_len * k_len
        ee = kernel_ee(k_len)
        comp = self.spec.cycles_to_seconds(
            flops / (self.spec.cpes_per_group * self.spec.flops_per_cycle) / ee
        )
        return _StepCost(
            get_seconds=t(a_bytes, block_a, "get") + t(b_bytes, block_bc, "get"),
            compute_seconds=comp,
            put_seconds=t(c_bytes, block_bc, "put"),
            flops=flops,
            bytes_get=a_bytes + b_bytes,
            bytes_put=c_bytes,
        )

    def evaluate(self) -> TimingReport:
        return gemm_runs_report(
            self.plan, self._cost, self.overlap_contention, self.spec.peak_flops_per_cg
        )

    def run(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, TimingReport]:
        """Compute ``a @ b`` tile by tile; checked against plain matmul."""
        p = self.plan.params
        if a.shape != (p.m, p.k) or b.shape != (p.k, p.n):
            raise PlanError(
                f"operand shapes {a.shape} x {b.shape} do not match {p}"
            )
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        c = np.zeros((p.m, p.n))
        if self._mesh is not None:
            # Stats are per-execution; verified fast-path signatures survive.
            self._mesh.reset_stats()
        for m0, m_len, n0, n_len in self.plan.tiles():
            a_tile = a[m0 : m0 + m_len, :]
            b_tile = b[:, n0 : n0 + n_len]
            if self._mesh is not None:
                c[m0 : m0 + m_len, n0 : n0 + n_len] = self._mesh.multiply(
                    a_tile, b_tile
                )
            else:
                c[m0 : m0 + m_len, n0 : n0 + n_len] = a_tile @ b_tile
        return c, self.evaluate()


def swgemm(
    a: np.ndarray,
    b: np.ndarray,
    backend: str = "numpy",
    spec: SW26010Spec = DEFAULT_SPEC,
) -> np.ndarray:
    """Public dense matmul through the simulated pipeline."""
    m, k = np.asarray(a).shape
    k2, n = np.asarray(b).shape
    if k != k2:
        raise PlanError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    plan = GemmPlan(GemmParams(m=m, n=n, k=k), spec=spec)
    out, _ = GemmEngine(plan, backend=backend).run(a, b)
    return out
