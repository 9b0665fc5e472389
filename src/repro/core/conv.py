"""The convolution execution engine: functional + timed runs of a plan.

Two concerns share one tile schedule (see :mod:`repro.core.plans`):

* **Functional**: each :class:`~repro.core.plans.ComputeSpec` is executed
  as a real GEMM update — through the register-communication mesh
  schedule tile by tile ("mesh" backends), or with NumPy as one stacked
  GEMM per update over whole output strips ("numpy" backend, see
  :class:`StripProgram`) — so a plan's output is compared against
  :func:`repro.core.reference.conv2d_reference`.
* **Timed**: each tile charges its DMA transfers against the Table II
  bandwidth curve (with the calibrated stride derate) and its GEMM against
  the reordered dual-pipeline kernel's measured cycles-per-FMA; the double
  buffering of Section IV-A overlaps the two on a two-deep pipeline
  timeline.

The timed path never touches tensor data, so parameter sweeps over the
100+ configurations of Figs. 7/9 run in milliseconds per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CPEFaultError, PlanError, SimulationError
from repro.hw.dma import DMABandwidthModel
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import current_telemetry
from repro.perf.dma_model import DMA_STRIDE_EFFICIENCY
from repro.perf.model import kernel_ee
from repro.core.params import ConvParams
from repro.core.plans import ConvPlan, TileStep
from repro.core.reference import conv2d_reference
from repro.core.register_comm import MeshGemm


@dataclass
class TimingReport:
    """Timing of one plan execution on one core group."""

    seconds: float
    flops: int
    dma_seconds: float
    compute_seconds: float
    bytes_get: int
    bytes_put: int
    tiles: int
    peak_flops: float

    @property
    def gflops(self) -> float:
        """Sustained double-precision Gflop/s."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9

    @property
    def efficiency(self) -> float:
        """Fraction of the core group's peak."""
        if self.seconds <= 0:
            return 0.0
        return (self.flops / self.seconds) / self.peak_flops

    @property
    def overlap_fraction(self) -> float:
        """How much of the serial DMA+compute time the overlap hid."""
        serial = self.dma_seconds + self.compute_seconds
        if serial <= 0:
            return 0.0
        return max(0.0, (serial - self.seconds) / serial)

    @property
    def effective_dma_bandwidth(self) -> float:
        """Achieved MEM<->LDM bytes/s over the busy DMA time."""
        if self.dma_seconds <= 0:
            return 0.0
        return (self.bytes_get + self.bytes_put) / self.dma_seconds


@dataclass
class _StepCost:
    get_seconds: float
    compute_seconds: float
    put_seconds: float
    flops: int
    bytes_get: int
    bytes_put: int


#: Functional compute backends, slowest-but-deepest first: "mesh" simulates
#: the Fig. 3 bus protocol for every tile GEMM; "mesh-fast" verifies the
#: protocol once per tile-GEMM signature and then runs the vectorized fast
#: path (bit-identical results, identical statistics); "numpy" computes the
#: updates directly without touching the mesh, as whole-strip stacked GEMMs
#: (see :class:`StripProgram`).
BACKENDS = ("numpy", "mesh", "mesh-fast")

#: Memoized timed plan walks of every algorithm family: plan signature +
#: timing knobs -> TimingReport.  Repeated layers (training), repeated
#: strips (chip evaluation) and sweep re-runs hit this instead of
#: re-walking their schedules.
_TIMING_CACHE: Dict[Tuple, TimingReport] = {}

#: Safety valve so pathological sweeps cannot grow the cache unboundedly.
_TIMING_CACHE_MAX = 4096


def clear_timing_cache() -> None:
    """Drop every memoized timed walk (direct and lowered engines alike)."""
    _TIMING_CACHE.clear()


def memoized_timing(key: Tuple, walk) -> Tuple[TimingReport, bool]:
    """The cached report for ``key``, or ``walk()``'s, now cached.

    Returns the cached report itself (callers hand out ``replace`` copies
    so the memo cannot be mutated) and whether it was a hit.
    """
    cached = _TIMING_CACHE.get(key)
    if cached is not None:
        return cached, True
    report = walk()
    if len(_TIMING_CACHE) >= _TIMING_CACHE_MAX:
        _TIMING_CACHE.clear()
    _TIMING_CACHE[key] = report
    return report, False


def count_evaluation(telemetry, report: TimingReport, cache_hit: bool) -> None:
    """Counter accounting for one timed walk (cached or fresh).

    Counting from the report keeps memoized and fresh evaluations
    indistinguishable to the counters — bytes and flops describe what the
    schedule *does*, not whether Python re-walked it.
    """
    counters = telemetry.counters
    if not counters.enabled:
        return
    counters.add("engine.evaluations")
    counters.add(
        "engine.timing_cache.hits" if cache_hit else "engine.timing_cache.misses"
    )
    counters.add("engine.bytes_get", report.bytes_get)
    counters.add("engine.bytes_put", report.bytes_put)
    counters.add("engine.flops", report.flops)
    counters.add("engine.tiles", report.tiles)
    counters.add("engine.simulated_seconds", report.seconds)


#: Fraction of the DMA/compute overlap that LDM-port contention gives back.
#: DMA descriptors write tiles through the same LDM ports the compute
#: kernel's vector loads use, so overlapped transfers stall the pipelines
#: part of the time.  Calibrated against the measured column of Table III
#: (the paper's own model captures the same effect with its squared
#: bandwidth derating); the double-buffering ablation bench sweeps it.
OVERLAP_CONTENTION = 0.5


@dataclass(frozen=True)
class TileInterval:
    """Scheduled (get, compute, put) intervals of one tile, in seconds.

    One tile's record of the double-buffered recurrence
    (:func:`_double_buffer`): the timed evaluation folds the same
    recurrence that the Gantt tracer (:mod:`repro.perf.trace`) and the
    telemetry span export record, so the three views of a schedule can
    never drift apart.
    """

    index: int
    get_start: float
    get_end: float
    compute_start: float
    compute_end: float
    put_start: float
    put_end: float

    @property
    def get_seconds(self) -> float:
        return self.get_end - self.get_start

    @property
    def compute_seconds(self) -> float:
        return self.compute_end - self.compute_start

    @property
    def put_seconds(self) -> float:
        return self.put_end - self.put_start


#: A run of ``count`` consecutive tiles that all cost ``cost``.
CostRun = Tuple[_StepCost, int]


def _double_buffer(
    runs: Iterable[CostRun], sink: Optional[List[TileInterval]] = None
) -> Tuple[float, float, float, float, float]:
    """The double-buffered recurrence over ``(cost, count)`` runs.

    Gets and puts run on separate descriptor queues (every CPE issues its
    own DMA requests), so a store-back never blocks the next tile's
    prefetch; a tile's load waits for the ping/pong buffer to free (the
    compute of two tiles earlier).  Zero-length puts are pinned to the
    tile's compute end (there is nothing to schedule).

    Every tile of a run takes its own pass through the recurrence, with the
    same float operations in the same order as a tile-by-tile walk, so the
    fold is exact; only the per-tile bookkeeping is gone.  ``sink``, when
    given, receives each tile's :class:`TileInterval`.  Returns ``(end_get,
    end_put, end_comp, dma_busy, comp_busy)``.
    """
    get_free = put_free = comp_free = 0.0
    two_back = one_back = 0.0  # compute ends of the previous two tiles
    end_put = dma_busy = comp_busy = 0.0
    index = 0
    for cost, count in runs:
        get_s = cost.get_seconds
        comp_s = cost.compute_seconds
        put_s = cost.put_seconds
        for _ in range(count):
            # max(a, b) spelled inline: ``b if b > a else a`` is max's result.
            get_start = two_back if two_back > get_free else get_free
            get_free = get_start + get_s
            comp_start = comp_free if comp_free > get_free else get_free
            comp_free = comp_start + comp_s
            if put_s > 0:
                put_start = comp_free if comp_free > put_free else put_free
                put_free = put_end = put_start + put_s
            else:
                put_start = put_end = comp_free
            if put_end > end_put:
                end_put = put_end
            dma_busy += (get_free - get_start) + (put_end - put_start)
            comp_busy += comp_free - comp_start
            two_back, one_back = one_back, comp_free
            if sink is not None:
                sink.append(
                    TileInterval(
                        index, get_start, get_free, comp_start, comp_free,
                        put_start, put_end,
                    )
                )
                index += 1
    return get_free, end_put, comp_free, dma_busy, comp_busy


def pipeline_intervals(
    runs: Iterable[CostRun], max_tiles: Optional[int] = None
) -> List[TileInterval]:
    """The first ``max_tiles`` tiles' intervals (all tiles when ``None``).

    The recurrence of :func:`_double_buffer`, recorded tile by tile; a
    tile's intervals depend only on the tiles before it, so cutting the
    runs at ``max_tiles`` is exact.
    """
    if max_tiles is not None:
        kept: List[CostRun] = []
        left = max_tiles
        for cost, count in runs:
            if left <= 0:
                break
            kept.append((cost, min(count, left)))
            left -= count
        runs = kept
    intervals: List[TileInterval] = []
    _double_buffer(runs, intervals)
    return intervals


def _pipeline_timeline(
    runs: Iterable[CostRun], contention: float = OVERLAP_CONTENTION
) -> Tuple[float, float, float]:
    """Double-buffered timeline: returns (total, dma_busy, compute_busy).

    Folds the :func:`_double_buffer` recurrence over ``(cost, count)`` runs
    down to totals.  The single memory interface is enforced as a
    throughput bound: the whole layer can finish no faster than the serial
    sum of all transfer times.
    """
    if not 0.0 <= contention <= 1.0:
        raise ValueError(f"contention must be in [0, 1], got {contention}")
    end_get, end_put, end_comp, dma_busy, comp_busy = _double_buffer(runs)
    # Shared memory interface: gets and puts cannot truly run concurrently
    # at full bandwidth, so the interface's serial busy time lower-bounds
    # the layer.
    total = max(end_get, end_put, end_comp, dma_busy)
    # LDM-port contention: a fraction of the overlapped time is not actually
    # hidden because DMA writes and kernel loads share the LDM ports.
    hidden = max(0.0, dma_busy + comp_busy - total)
    total += contention * hidden
    return total, dma_busy, comp_busy


def runs_report(
    runs: Sequence[CostRun], contention: float, peak_flops: float
) -> TimingReport:
    """The :class:`TimingReport` of priced ``(cost, count)`` runs.

    Times come from :func:`_pipeline_timeline`; the integer totals are
    ``count x value`` per run.
    """
    total, dma_busy, comp_busy = _pipeline_timeline(runs, contention)
    flops = bytes_get = bytes_put = tiles = 0
    for cost, count in runs:
        flops += count * cost.flops
        bytes_get += count * cost.bytes_get
        bytes_put += count * cost.bytes_put
        tiles += count
    return TimingReport(
        seconds=total,
        flops=flops,
        dma_seconds=dma_busy,
        compute_seconds=comp_busy,
        bytes_get=bytes_get,
        bytes_put=bytes_put,
        tiles=tiles,
        peak_flops=peak_flops,
    )


@dataclass(frozen=True)
class StripProgram:
    """A plan's tile schedule compiled to whole-strip GEMM updates.

    ``updates`` is the ``(kr, kc, ni0, ni_len)`` accumulation order every
    output tile of the plan shares; ``groups`` are the tile columns
    ``(bb, bb_len, co, co_len)``, each holding one tile per output row.
    The numpy backend runs each update over each group as one stacked
    matmul whose stack items are exactly the per-tile ``(No x ni_len) .
    (ni_len x co_len)`` products the tile loop makes, in the same order —
    so every output element is bit-identical to the tile-by-tile run.
    """

    updates: Tuple[Tuple[int, int, int, int], ...]
    groups: Tuple[Tuple[int, int, int, int], ...]


def compile_strip_program(plan: ConvPlan) -> StripProgram:
    """Compile ``plan``'s full tile schedule into a :class:`StripProgram`.

    Raises :class:`SimulationError` when the tiles do not share one
    accumulation order, or when the tile columns do not cover every output
    element exactly once (one tile per row): a strip program could not
    then reproduce the tile loop's sums bit for bit.
    """
    p = plan.params
    orders: Dict[Tuple[int, int, int, int, int], list] = {}
    for step in plan.compiled_schedule():
        for c in step.computes:
            ni_len = c.ni_len if c.ni_len >= 0 else p.ni
            orders.setdefault((c.bb, c.bb_len, c.ro, c.co, c.co_len), []).append(
                (c.kr, c.kc, c.ni0, ni_len)
            )
    distinct = {tuple(order) for order in orders.values()}
    if len(distinct) != 1:
        raise SimulationError(
            f"{plan.describe()}: tiles accumulate in {len(distinct)} different "
            f"orders; a strip program needs exactly one"
        )
    rows: Dict[Tuple[int, int, int, int], List[int]] = {}
    for bb, bb_len, ro, co, co_len in orders:
        rows.setdefault((bb, bb_len, co, co_len), []).append(ro)
    coverage = np.zeros((p.b, p.co), dtype=np.int64)
    for (bb, bb_len, co, co_len), group_rows in rows.items():
        if sorted(group_rows) != list(range(p.ro)):
            raise SimulationError(
                f"{plan.describe()}: tile column (bb={bb}, co={co}) does not "
                f"cover output rows 0..{p.ro - 1} exactly once"
            )
        coverage[bb : bb + bb_len, co : co + co_len] += 1
    if not (coverage == 1).all():
        raise SimulationError(
            f"{plan.describe()}: tile columns do not cover the "
            f"{p.b}x{p.co} (batch x column) output exactly once"
        )
    return StripProgram(updates=distinct.pop(), groups=tuple(rows))


def effective_mesh_size(mesh_size: int, fenced) -> int:
    """Largest usable square submesh when some CPEs are fenced off.

    Dropping every mesh row (or column — whichever set is smaller) that
    contains a fenced CPE leaves a fully healthy rectangular region at least
    ``mesh_size - dropped`` on a side.  Of the sizes that fit, the largest
    *divisor* of the original mesh size is chosen: any operand that divided
    into the full mesh's blocks also divides into the submesh's, so the same
    tile schedule replays on the smaller mesh without re-planning shapes.
    Returns 0 when no healthy submesh exists.
    """
    if not fenced:
        return mesh_size
    rows = {r for r, _ in fenced}
    cols = {c for _, c in fenced}
    bound = mesh_size - min(len(rows), len(cols))
    for size in range(mesh_size, 0, -1):
        if size <= bound and mesh_size % size == 0:
            return size
    return 0


class ConvolutionEngine:
    """Executes a convolution plan on one simulated core group.

    With a :class:`repro.faults.FaultPlan` attached the engine runs the
    degraded machine: DMA time is charged at the derated bandwidth, and if
    the plan fences CPEs the mesh backends *replan around them* — the
    register-communication GEMM executes on the largest healthy square
    submesh (see :func:`effective_mesh_size`) with compute time charged for
    the surviving CPEs only, instead of aborting the layer.
    """

    def __init__(
        self,
        plan: ConvPlan,
        spec: Optional[SW26010Spec] = None,
        backend: str = "numpy",
        stride_efficiency: float = DMA_STRIDE_EFFICIENCY,
        overlap_contention: float = OVERLAP_CONTENTION,
        fault_plan=None,
        fused_pool: int = 1,
        telemetry=None,
    ):
        if backend not in BACKENDS:
            raise PlanError(f"unknown compute backend {backend!r}")
        self.plan = plan
        self.spec = spec or plan.spec
        self.backend = backend
        self.stride_efficiency = stride_efficiency
        self.overlap_contention = overlap_contention
        self.fault_plan = fault_plan
        #: Observability session (captured ambient when not passed); the
        #: disabled default dispatches to shared no-op singletons.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        if fused_pool < 1:
            raise PlanError(f"fused_pool must be >= 1, got {fused_pool}")
        if fused_pool > 1:
            p = plan.params
            if p.ro % fused_pool != 0 or p.co % fused_pool != 0:
                raise PlanError(
                    f"fused {fused_pool}x{fused_pool} pooling does not divide "
                    f"the {p.ro}x{p.co} output"
                )
            # The fused epilogue holds a pooled-row accumulator in LDM (the
            # output tile averaged down by s^2) on top of the plan's own
            # regions; the combined footprint must still fit.
            from repro.core.ldm_blocking import assert_fits_in_ldm

            regions = plan.ldm_regions()
            out_bytes = sum(n for name, n in regions if name.startswith("output"))
            pool_bytes = -(-out_bytes // (fused_pool * fused_pool))
            assert_fits_in_ldm(
                regions + [("pool.accumulator", pool_bytes)], self.spec
            )
        self.fused_pool = fused_pool
        self._dma_model = DMABandwidthModel(alignment=self.spec.dma_alignment)
        self._step_cost_cache: Dict[Tuple, _StepCost] = {}
        # Memoized weight-layout packing (see run(filter_version=...)): one
        # contiguous (No, bNi) slice per distinct (kr, kc, ni-block) the
        # schedule touches, valid for one (filter tensor, version) pair.
        self._filter_pack: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._filter_pack_token: Optional[Tuple[int, int]] = None
        self._filter_pack_w: Optional[np.ndarray] = None
        self._program: Optional[StripProgram] = None
        self._mesh_gemm: Optional[MeshGemm] = None
        self.mesh_size = self.spec.mesh_size
        self._effective_cpes = self.spec.cpes_per_group
        if fault_plan is not None:
            fenced = fault_plan.fenced(self.spec.mesh_size)
            if fenced:
                self.mesh_size = effective_mesh_size(self.spec.mesh_size, fenced)
                if self.mesh_size < 1:
                    raise CPEFaultError(
                        f"no healthy submesh remains: {len(fenced)} of "
                        f"{self.spec.cpes_per_group} CPEs fenced"
                    )
                self._effective_cpes = self.mesh_size * self.mesh_size
                if self.mesh_size != self.spec.mesh_size:
                    fault_plan.ledger.record(
                        "engine",
                        "replan",
                        f"replanned around {len(fenced)} fenced CPE(s): "
                        f"{self.spec.mesh_size}x{self.spec.mesh_size} mesh -> "
                        f"{self.mesh_size}x{self.mesh_size}",
                    )
        if backend in ("mesh", "mesh-fast"):
            mode = "session" if backend == "mesh-fast" else "full"
            mesh_spec = (
                self.spec
                if self.mesh_size == self.spec.mesh_size
                else self.spec.shrunk(self.mesh_size)
            )
            # The replanned submesh is built fence-free: the fenced CPEs
            # were excluded by shrinking, the survivors are healthy.
            gemm_faults = None if mesh_spec is not self.spec else fault_plan
            self._mesh_gemm = MeshGemm(
                spec=mesh_spec,
                mode=mode,
                fault_plan=gemm_faults,
                telemetry=self.telemetry,
            )
        if self.telemetry.enabled:
            # The plan's declared LDM footprint is the high-water mark every
            # tile reaches (regions are allocated up front on real hardware).
            self.telemetry.counters.record_max(
                "ldm.plan_regions_bytes", sum(n for _, n in plan.ldm_regions())
            )

    # -- timing -----------------------------------------------------------------

    def _transfer_seconds(self, nbytes: int, block: int, direction: str) -> float:
        bw = self._dma_model.bandwidth(
            block, direction, aligned=self._dma_model.is_aligned(block)
        )
        if self.fault_plan is not None:
            bw *= self.fault_plan.dma_bandwidth_factor
        return nbytes / (bw * self.stride_efficiency)

    def _compute_seconds(self, flops: int) -> float:
        """Time for the CPE cluster to execute ``flops`` through the kernel.

        Per-CPE vector FMAs divided by the reordered kernel's FMA-per-cycle
        rate — :func:`~repro.perf.model.kernel_ee` over a ``bNi``-deep
        reduction on the plan's *register blocking* shape (``rbB/4`` input
        vectors x ``rbNo`` splat vectors), the same EE
        :meth:`ConvPlan.estimate` models.  The paper's (16, 4) blocking
        reproduces the Section VI-B numbers; the autotuner may select other
        shapes, whose cycles come from the same closed form.
        """
        if flops == 0:
            return 0.0
        ni = self.plan.params.ni
        blocking = getattr(self.plan, "blocking", None)
        if blocking is not None and hasattr(blocking, "ni_block"):
            ni = blocking.ni_block(ni)
        rb = self.plan.register_blocking
        ee = kernel_ee(ni, rb.rb_b // 4, rb.rb_no)
        # Fenced CPEs shrink the cluster: the surviving submesh carries the
        # whole layer's flops.
        vfmas_per_cpe = flops / (
            self._effective_cpes * self.spec.flops_per_cycle
        )
        cycles = vfmas_per_cpe / ee
        return self.spec.cycles_to_seconds(cycles)

    def _step_cost(self, step: TileStep) -> _StepCost:
        """Cost of one tile step, memoized on its transfer/flop signature.

        The full schedule repeats the same transfers thousands of times per
        layer; pricing each distinct (gets, puts, flops) combination once
        keeps its walk cheap.  The timed runs share their steps, and
        :meth:`_cost_runs` asks for each shared step once per walk.
        """
        key = (tuple(step.gets), tuple(step.puts), step.flops)
        cached = self._step_cost_cache.get(key)
        if cached is not None:
            return cached
        get_s = sum(
            self._transfer_seconds(t.nbytes, t.block_bytes, "get") for t in step.gets
        )
        # A fused s x s pooling epilogue averages each output tile down in
        # LDM before its DMA put: 1/s^2 of the bytes move, in runs 1/s as
        # long (pooled rows are co/s elements).
        s = self.fused_pool
        if s > 1:
            puts = [
                (-(-t.nbytes // (s * s)), max(1, t.block_bytes // s))
                for t in step.puts
            ]
        else:
            puts = [(t.nbytes, t.block_bytes) for t in step.puts]
        put_s = sum(
            self._transfer_seconds(nbytes, block, "put") for nbytes, block in puts
        )
        cost = _StepCost(
            get_seconds=get_s,
            compute_seconds=self._compute_seconds(step.flops),
            put_seconds=put_s,
            flops=step.flops,
            bytes_get=sum(t.nbytes for t in step.gets),
            bytes_put=sum(nbytes for nbytes, _ in puts),
        )
        self._step_cost_cache[key] = cost
        return cost

    def _timing_key(self) -> Tuple:
        """Memoization key for a timed walk of this engine's schedule.

        Beyond the plan signature and the timing knobs, the key carries the
        fault plan's *standing degradations* — the DMA bandwidth derate and
        the effective mesh size left after fencing — so a timing cached on a
        healthy chip is never reused for a degraded one (or vice versa).
        """
        degraded_bw = (
            self.fault_plan.dma_bandwidth_factor if self.fault_plan is not None else 1.0
        )
        return (
            self.plan.signature(),
            self.spec,
            self.stride_efficiency,
            self.overlap_contention,
            degraded_bw,
            self.mesh_size,
            self._effective_cpes,
            self.fused_pool,
        )

    def _timed_walk(self, run_length: bool) -> Tuple[TimingReport, bool]:
        """The memoized timed walk of the run-length or the full schedule.

        ``run_length=True`` folds the plan's :meth:`~ConvPlan.timed_runs`
        (one aggregate transfer per tensor per step, each distinct step
        priced once); ``False`` walks every step of the full schedule as a
        count-1 run.  Returns the cached report and whether it was a hit.
        """
        return memoized_timing(
            (self._timing_key(), run_length), lambda: self._walk(run_length)
        )

    def _cost_runs(self) -> List[CostRun]:
        """The plan's timed runs priced, each distinct (shared) step once."""
        priced: Dict[int, _StepCost] = {}
        runs = []
        for step, count in self.plan.timed_runs():
            cost = priced.get(id(step))
            if cost is None:
                cost = priced[id(step)] = self._step_cost(step)
            runs.append((cost, count))
        return runs

    def _walk(self, run_length: bool) -> TimingReport:
        if run_length:
            runs = self._cost_runs()
        else:
            runs = [(self._step_cost(step), 1) for step in self.plan.compiled_schedule()]
        report = runs_report(runs, self.overlap_contention, self.spec.peak_flops_per_cg)
        expected = self.plan.params.flops()
        if report.flops != expected:
            raise SimulationError(
                f"schedule flop count {report.flops} does not cover the layer "
                f"({expected}); the plan's tiling is incomplete"
            )
        return report

    def evaluate(self) -> TimingReport:
        """Timed walk of the schedule (no tensor data is touched).

        Results are memoized process-wide on the plan signature and the
        engine's timing knobs, so re-timing the same plan (chip strips,
        sweeps, repeated training layers) costs a dictionary lookup.
        """
        report, cache_hit = self._timed_walk(run_length=True)
        count_evaluation(self.telemetry, report, cache_hit)
        return replace(report)

    def record_tile_spans(self, max_tiles: int = 64) -> int:
        """Record the first ``max_tiles`` tiles' intervals as sim spans.

        Replays the plan's timed runs through :func:`pipeline_intervals`
        (the same recurrence the timed evaluation folds down) and emits one
        span per non-empty get/compute/put window on the simulated-timeline
        tracks.  Returns the number of tiles recorded.
        """
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return 0
        intervals = pipeline_intervals(self._cost_runs(), max_tiles)
        for interval in intervals:
            i = interval.index
            if interval.get_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].get", interval.get_start, interval.get_end,
                    track="dma-get", cat="tile",
                )
            if interval.compute_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].compute",
                    interval.compute_start, interval.compute_end,
                    track="compute", cat="tile",
                )
            if interval.put_seconds > 0:
                tracer.record_sim(
                    f"tile[{i}].put", interval.put_start, interval.put_end,
                    track="dma-put", cat="tile",
                )
        return len(intervals)

    # -- functional -----------------------------------------------------------

    def _filter_pack_for(
        self, w: np.ndarray, version: int
    ) -> Dict[Tuple[int, int, int], np.ndarray]:
        """The memoized packed-slice table for ``(w, version)``.

        A stale token (different tensor object, or the same tensor after a
        parameter update bumped its version) drops every packed slice; a
        matching token reuses them as-is.  The engine keeps a strong
        reference to ``w`` so the identity half of the token cannot be
        recycled while packs are alive.
        """
        token = (id(w), version)
        if token != self._filter_pack_token:
            if self._filter_pack_token is not None:
                self.telemetry.counters.add("engine.filter_pack.invalidations")
            self._filter_pack = {}
            self._filter_pack_token = token
            self._filter_pack_w = w
        return self._filter_pack

    def _packed_slice(
        self,
        pack: Optional[Dict[Tuple[int, int, int], np.ndarray]],
        w: np.ndarray,
        kr: int,
        kc: int,
        ni0: int,
        ni_len: int,
    ) -> np.ndarray:
        """The contiguous ``(No, ni_len)`` filter slice, packed on first use.

        With ``pack=None`` the slice is made fresh and not memoized.
        """
        key = (kr, kc, ni0)
        w_slice = pack.get(key) if pack is not None else None
        if w_slice is None:
            w_slice = np.ascontiguousarray(w[:, ni0 : ni0 + ni_len, kr, kc])
            if pack is not None:
                pack[key] = w_slice
                self.telemetry.counters.add("engine.filter_pack.packs")
        return w_slice

    def _strip_program(self) -> StripProgram:
        """The plan's :class:`StripProgram`, compiled on first use."""
        if self._program is None:
            self._program = compile_strip_program(self.plan)
        return self._program

    def prepack_filters(self, w: np.ndarray, version: int = 0) -> int:
        """Eagerly pack every filter slice the schedule will request.

        Walks the plan's compute specs and materializes the contiguous
        ``(No, bNi)`` slice for each distinct ``(kr, kc, ni-block)``; the
        numpy backend also compiles its strip program here.  The first
        ``run(..., filter_version=version)`` then pays no packing or compile
        cost — the serve warm-up path.  Returns the number of packed slices.
        """
        w = np.asarray(w, dtype=np.float64)
        p = self.plan.params
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        if self.backend == "numpy":
            self._strip_program()
        pack = self._filter_pack_for(w, version)
        for step in self.plan.compiled_schedule():
            for c in step.computes:
                ni_len = c.ni_len if c.ni_len >= 0 else p.ni
                self._packed_slice(pack, w, c.kr, c.kc, c.ni0, ni_len)
        return len(pack)

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        filter_version: Optional[int] = None,
    ) -> Tuple[np.ndarray, TimingReport]:
        """Execute the plan on real data; returns (output, timing).

        ``x`` is (B, Ni, Ri, Ci) canonical order, ``w`` is (No, Ni, Kr, Kc);
        the plan's packing/unpacking between canonical and vector layouts is
        modeled in the DMA block sizes, so the functional path works on the
        canonical arrays directly.

        The mesh backends walk the full tile schedule, one register-
        communication GEMM per compute spec.  The numpy backend runs the
        plan's :class:`StripProgram`: one stacked matmul per ``(kr, kc,
        ni-block)`` update and tile column, over all output rows at once.
        Its contracts, pinned by ``tests/core/test_strip_program.py``:

        * the output is bit-identical to the tile-order loop (each output
          element receives the same BLAS products in the same order);
        * packed (``filter_version`` an int) and unpacked (``None``) runs
          are bit-identical;
        * on image plans, a batched output equals its per-image outputs.

        The returned timing is the memoized timed walk of the full
        schedule; it does not depend on the data.

        ``bias`` (per output channel) and ``activation`` ("relu") are
        applied *fused*: each output tile gets the epilogue while still in
        LDM, before its DMA put, so the fusion costs no extra memory
        traffic — the standard library trick (cuDNN's activation-fused
        convolutions) that keeps the streaming ops off the critical path.

        With ``fused_pool=s`` the epilogue also average-pools each output
        tile ``s x s`` in LDM, so the returned tensor is the *pooled*
        output (B, No, Ro/s, Co/s) and the DMA puts move only the pooled
        bytes (see :class:`repro.core.fusion.FusedConvBlock`).

        ``filter_version`` opts into memoized weight-layout packing: the
        contiguous per-``(kr, kc, ni-block)`` filter slices the schedule
        reads are packed once per ``(w, version)`` pair and reused across
        forward calls — the repeated-inference fast path.  Callers that
        mutate ``w`` in place must bump the version (see
        :meth:`~repro.core.layers.Layer.notify_parameter_update`); passing
        ``None`` (the default) skips the memo: the numpy backend then
        slices contiguous operands per call.
        """
        p = self.plan.params
        if x.shape != p.input_shape:
            raise PlanError(f"input shape {x.shape} != {p.input_shape}")
        if w.shape != p.filter_shape:
            raise PlanError(f"filter shape {w.shape} != {p.filter_shape}")
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (p.no,):
                raise PlanError(
                    f"bias must have shape ({p.no},), got {bias.shape}"
                )
        if activation not in (None, "relu"):
            raise PlanError(f"unknown fused activation {activation!r}")
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        with self.telemetry.tracer.span(
            "engine.run", cat="engine", backend=self.backend, params=repr(p)
        ):
            pack = (
                self._filter_pack_for(w, filter_version)
                if filter_version is not None
                else None
            )
            if self.backend == "numpy":
                out = self._run_strips(x, w, pack)
            else:
                out = self._run_tiles(x, w, pack)
            out = self._epilogue(out, bias, activation)
            report = replace(self._timed_walk(run_length=False)[0])
        self.telemetry.counters.add("engine.runs")
        return out, report

    def _run_strips(
        self,
        x: np.ndarray,
        w: np.ndarray,
        pack: Optional[Dict[Tuple[int, int, int], np.ndarray]],
    ) -> np.ndarray:
        """The numpy backend: the strip program's stacked GEMMs."""
        p = self.plan.params
        program = self._strip_program()
        out = np.zeros(p.output_shape, dtype=np.float64)
        for kr, kc, ni0, ni_len in program.updates:
            w_slice = self._packed_slice(pack, w, kr, kc, ni0, ni_len)
            # (B, Ro, ni_len, Ci): every stack item is one tile's window.
            strip = x[:, ni0 : ni0 + ni_len, kr : kr + p.ro].transpose(0, 2, 1, 3)
            for bb, bb_len, co, co_len in program.groups:
                window = strip[bb : bb + bb_len, :, :, co + kc : co + kc + co_len]
                out[bb : bb + bb_len, :, :, co : co + co_len] += (
                    w_slice @ window
                ).transpose(0, 2, 1, 3)
        return out

    def _run_tiles(
        self,
        x: np.ndarray,
        w: np.ndarray,
        pack: Optional[Dict[Tuple[int, int, int], np.ndarray]],
    ) -> np.ndarray:
        """The mesh backends: one mesh GEMM per compute spec, tile by tile."""
        p = self.plan.params
        out = np.zeros(p.output_shape, dtype=np.float64)
        # Bus/LDM statistics describe one plan execution, not the
        # engine's lifetime.
        self._mesh_gemm.reset_stats()
        for step in self.plan.compiled_schedule():
            for c in step.computes:
                ni_len = c.ni_len if c.ni_len >= 0 else p.ni
                window = x[
                    c.bb : c.bb + c.bb_len,
                    c.ni0 : c.ni0 + ni_len,
                    c.ro + c.kr,
                    c.co + c.kc : c.co + c.kc + c.co_len,
                ]
                target = out[c.bb : c.bb + c.bb_len, :, c.ro, c.co : c.co + c.co_len]
                if pack is not None:
                    w_slice = self._packed_slice(pack, w, c.kr, c.kc, c.ni0, ni_len)
                else:
                    w_slice = w[:, c.ni0 : c.ni0 + ni_len, c.kr, c.kc]
                self._mesh_compute(w_slice, window, target)
        return out

    def _epilogue(
        self,
        out: np.ndarray,
        bias: Optional[np.ndarray],
        activation: Optional[str],
    ) -> np.ndarray:
        """Fused bias / ReLU / average-pool epilogue.

        On hardware this runs per output tile while it is still in LDM
        (before the DMA put), so it adds no memory traffic and hides under
        P1; functionally it is elementwise, so applying it once after the
        GEMM updates is identical.
        """
        if bias is None and activation != "relu" and self.fused_pool == 1:
            return out
        with self.telemetry.tracer.span(
            "engine.fused_epilogue",
            cat="engine",
            bias=bias is not None,
            activation=activation or "",
            pool=self.fused_pool,
        ):
            if bias is not None:
                out += bias[None, :, None, None]
            if activation == "relu":
                np.maximum(out, 0.0, out=out)
            if self.fused_pool > 1:
                # Tiles are averaged down in LDM before their (already
                # pool-scaled) DMA puts; functionally elementwise over
                # disjoint windows, so pooling once at the end is identical.
                s = self.fused_pool
                b, no, ro, co = out.shape
                out = out.reshape(b, no, ro // s, s, co // s, s).mean(axis=(3, 5))
        return out

    def _mesh_compute(
        self, w_slice: np.ndarray, window: np.ndarray, target: np.ndarray
    ) -> None:
        """One GEMM update through the register-communication mesh."""
        assert self._mesh_gemm is not None
        bb_len, ni, co_len = window.shape
        d = window.transpose(1, 0, 2).reshape(ni, bb_len * co_len)
        product = self._mesh_gemm.multiply(w_slice, d)  # (No, bb_len*co_len)
        no = product.shape[0]
        target += product.reshape(no, bb_len, co_len).transpose(1, 0, 2)


def conv_forward(
    x: np.ndarray,
    w: np.ndarray,
    plan: Optional[ConvPlan] = None,
    backend: str = "numpy",
    spec: SW26010Spec = DEFAULT_SPEC,
) -> np.ndarray:
    """Convolve through the simulated SW26010 pipeline (public API).

    Plans the layer with the performance model when ``plan`` is omitted.
    """
    from repro.core.planner import plan_convolution

    b, ni, ri, ci = np.asarray(x).shape
    no, _, kr, kc = np.asarray(w).shape
    params = ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b)
    if plan is None:
        plan = plan_convolution(params, spec=spec).plan
    engine = ConvolutionEngine(plan, spec=spec, backend=backend)
    out, _ = engine.run(x, w)
    return out


def evaluate_chip(
    params: ConvParams,
    plan_kind: Optional[str] = None,
    num_groups: Optional[int] = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    plan_cache: Optional[str] = None,
    telemetry=None,
) -> Tuple[float, List[TimingReport]]:
    """Timed multi-CG execution (Section III-D row partitioning).

    Output rows are split across ``num_groups`` core groups, each running
    its strip with the same plan family; the slowest strip gates the layer.
    Returns (chip Gflop/s, per-CG reports).

    ``plan_cache`` names an on-disk plan-cache directory: each strip's plan
    then comes from the autotuner (see :mod:`repro.tune`) — tuned once,
    persisted, and shared across every sweep configuration and resumed run
    that passes the same path.
    """
    from repro.hw.chip import SW26010Chip
    from repro.core.planner import plan_convolution
    from repro.core.plans import make_plan

    chip = SW26010Chip(spec)
    telemetry = telemetry if telemetry is not None else current_telemetry()
    n = num_groups if num_groups is not None else spec.num_core_groups
    strips = chip.partition_rows(params.ro, n)
    reports = []
    for cg, (start, stop) in enumerate(strips):
        rows = stop - start
        if rows == 0:
            continue
        strip_params = params.with_rows(rows)
        with telemetry.tracer.span(
            "chip.strip", cat="chip", cg=cg, rows=rows
        ):
            if plan_cache is not None:
                from repro.tune import autotune

                plan = autotune(strip_params, spec=spec, cache=plan_cache).plan
            elif plan_kind is None:
                plan = plan_convolution(strip_params, spec=spec).plan
            else:
                plan = make_plan(plan_kind, strip_params, spec=spec)
            reports.append(
                ConvolutionEngine(plan, spec=spec, telemetry=telemetry).evaluate()
            )
    if not reports:
        raise PlanError("no core group received any rows")
    seconds = max(r.seconds for r in reports)
    total_flops = sum(r.flops for r in reports)
    return total_flops / seconds / 1e9, reports
