"""Convolution plans: the loop schedules of Algorithms 1 and 2.

A :class:`ConvPlan` turns layer parameters + blocking choices into a *tile
schedule*: the exact sequence of DMA transfers and LDM-resident GEMM updates
the CPE cluster performs.  It renders that schedule two ways for the two
execution modes of :class:`repro.core.conv.ConvolutionEngine`:

* the full schedule (:meth:`ConvPlan.tile_schedule`) drives the functional
  mode, which moves real tensor data tile by tile (so the result is checked
  against the NumPy reference), and
* the run-length timed rendering (:meth:`ConvPlan.timed_runs`) drives the
  timed mode, which charges each transfer against the Table II DMA model
  and each GEMM against the reordered-kernel pipeline timing, with double
  buffering overlapping the two.

``dma_streams()`` aggregates the timed rendering's traffic into the
per-stream volumes/block-sizes the performance model blends into its
``MBW``, so the analytic model and the simulated execution see the same
bytes by construction (a property the test suite checks).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.perf.dma_model import DMAStream
from repro.perf.equations import (
    rbw_mem_ldm_batch_plan,
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan,
    rbw_mem_ldm_image_plan_promoted,
)
from repro.perf.model import PerformanceEstimate, PerformanceModel
from repro.core.layout import (
    DS,
    LANES,
    batch_plan_block_bytes,
    filter_block_bytes,
    image_plan_block_bytes,
)
from repro.core.ldm_blocking import (
    BatchBlocking,
    ImageBlocking,
    assert_fits_in_ldm,
    batch_plan_ldm_bytes,
    choose_batch_blocking,
    choose_image_blocking,
    image_plan_ldm_bytes,
)
from repro.core.params import ConvParams
from repro.core.register_blocking import (
    PAPER_REGISTER_BLOCKING,
    RegisterBlocking,
)


@dataclass(frozen=True)
class TileTransfer:
    """One DMA transfer of a tile step."""

    tensor: str  # "input" | "filter" | "output"
    nbytes: int
    block_bytes: int
    direction: str  # "get" | "put"


@dataclass(frozen=True)
class ComputeSpec:
    """One LDM-GEMM update: out rows x cols += W(kr,kc) . input window.

    ``bb``/``bb_len`` select the batch block; ``co``/``co_len`` the output
    columns; ``ni0``/``ni_len`` the input-channel block (``ni_len = -1``
    means the full reduction); the update is
    ``out[bb:, :, ro, co:co+co_len] += W[:, ni:, kr, kc] @ x[bb:, ni:, ro+kr, co+kc : co+kc+co_len]``.
    """

    bb: int
    bb_len: int
    ro: int
    co: int
    co_len: int
    kr: int
    kc: int
    ni0: int = 0
    ni_len: int = -1


@dataclass
class TileStep:
    """One step of a plan's schedule: loads, computes, stores."""

    gets: List[TileTransfer] = field(default_factory=list)
    computes: List[ComputeSpec] = field(default_factory=list)
    puts: List[TileTransfer] = field(default_factory=list)
    flops: int = 0


#: ``count`` consecutive tiles that all execute ``step``.
TileRun = Tuple[TileStep, int]


def _append_run(runs: List[TileRun], step: TileStep, count: int) -> None:
    """Append ``count`` tiles of ``step``, extending the last run if it matches."""
    if runs and runs[-1][0] is step:
        runs[-1] = (step, runs[-1][1] + count)
    else:
        runs.append((step, count))


class ConvPlan(abc.ABC):
    """Base class of the two loop-schedule families."""

    name: str = "abstract"
    #: Algorithm family of the zoo (see :mod:`repro.core.algorithms`); both
    #: loop-schedule families here execute the paper's direct summation.
    algorithm: str = "direct"

    def __init__(
        self,
        params: ConvParams,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        self.params = params
        self.register_blocking = register_blocking
        self.spec = spec
        register_blocking.check_feasible(spec)
        self._streams_cache: Optional[List[DMAStream]] = None
        self._schedule_cache: Optional[Tuple[TileStep, ...]] = None
        self._runs_cache: Optional[Tuple[TileRun, ...]] = None

    # -- schedule -------------------------------------------------------------

    @abc.abstractmethod
    def tile_schedule(self) -> Iterator[TileStep]:
        """Yield the plan's full tile steps in execution order.

        Every step lists its per-(kr, kc, ni-block) transfers and
        :class:`ComputeSpec` updates.  The functional engine reads it: the
        mesh backends walk it tile by tile, and the numpy backend compiles
        it once into a strip program (see
        :class:`repro.core.conv.StripProgram`).
        """

    def compiled_schedule(self) -> Tuple[TileStep, ...]:
        """The full tile schedule, materialized once and cached.

        Generating a schedule walks the full blocked loop nest in Python;
        for repeated executions of the same plan (training, the handle's
        plan cache) that regeneration dominates, so the first call compiles
        the schedule to a tuple and later calls reuse it.  Callers must
        treat the cached steps as immutable.
        """
        if self._schedule_cache is None:
            self._schedule_cache = tuple(self.tile_schedule())
        return self._schedule_cache

    def timed_runs(self) -> Tuple[TileRun, ...]:
        """The run-length timed rendering: ``(step, count)`` runs, memoized.

        Each timed step merges the per-(kr, kc, ni-block) transfers of its
        full-schedule step (on Algorithm 2, of the input-column steps of
        one (row, kr) pass) into one aggregate transfer per tensor
        (identical bytes, identical block sizes, so identical DMA time)
        and carries no :class:`ComputeSpec` list.  Steps with the same
        geometry are one shared object, and consecutive repeats collapse
        into one run of ``count`` tiles, in exact execution order — so the
        timed evaluation prices each distinct step once and the traffic
        aggregation is ``count x bytes``.  Callers must treat the shared
        steps as immutable.
        """
        if self._runs_cache is None:
            self._runs_cache = tuple(self._timed_runs())
        return self._runs_cache

    @abc.abstractmethod
    def _timed_runs(self) -> List[TileRun]:
        """Build the :meth:`timed_runs` of this family."""

    def signature(self) -> Tuple:
        """Hashable identity of the schedule this plan generates.

        Two plans with equal signatures produce identical tile schedules
        and model inputs — the key the timing memoization layers use.
        """
        return (
            self.name,
            self.params,
            getattr(self, "blocking", None),
            self.register_blocking,
            self.spec,
        )

    @abc.abstractmethod
    def ldm_regions(self) -> List[Tuple[str, int]]:
        """Per-CPE LDM regions the plan allocates."""

    @abc.abstractmethod
    def rbw_mem(self) -> float:
        """Required MEM->LDM bandwidth (Eq. 1 or Eq. 2), bytes/s."""

    def validate(self) -> None:
        """Check LDM feasibility (raises on overflow)."""
        assert_fits_in_ldm(self.ldm_regions(), self.spec)

    # -- traffic and modeling ---------------------------------------------------

    def dma_streams(self) -> List[DMAStream]:
        """Aggregate the schedule's DMA traffic per (tensor, direction).

        The block size reported per stream is the byte-weighted dominant
        block of that stream (steady-state tiles dominate edge tiles).
        Both sums are exact integers, ``count x value`` per run.
        """
        if self._streams_cache is not None:
            return self._streams_cache
        totals: dict = {}
        for step, count in self.timed_runs():
            for tr in step.gets + step.puts:
                key = (tr.tensor, tr.direction)
                bytes_so_far, weighted_block = totals.get(key, (0, 0))
                totals[key] = (
                    bytes_so_far + count * tr.nbytes,
                    weighted_block + count * tr.nbytes * tr.block_bytes,
                )
        streams = []
        for (tensor, direction), (nbytes, weighted) in sorted(totals.items()):
            if nbytes == 0:
                continue
            block = max(1, int(round(weighted / nbytes)))
            streams.append(
                DMAStream(
                    name=f"{tensor}.{direction}",
                    bytes_moved=float(nbytes),
                    block_bytes=block,
                    direction=direction,
                )
            )
        if not streams:
            raise PlanError("plan schedule produced no DMA traffic")
        self._streams_cache = streams
        return streams

    def total_dma_bytes(self) -> int:
        return int(sum(s.bytes_moved for s in self.dma_streams()))

    def estimate(self, model: Optional[PerformanceModel] = None) -> PerformanceEstimate:
        """Model this plan with the three-level estimator of Fig. 2.

        EE is the kernel the engine charges: the plan's register block over
        one ``bNi``-deep reduction.
        """
        from repro.perf.dma_model import blended_mbw
        from repro.perf.equations import rbw_ldm_reg_gemm_simd

        model = model or PerformanceModel(self.spec)
        rb = self.register_blocking
        return PerformanceEstimate(
            plan=self.name,
            peak_flops=self.spec.peak_flops_per_cg,
            execution_efficiency=model._ee(
                self.blocking.ni_block(self.params.ni), rb.rb_b, rb.rb_no
            ),
            rbw_mem=self.rbw_mem(),
            mbw_mem=blended_mbw(self.dma_streams()),
            rbw_reg=rbw_ldm_reg_gemm_simd(
                rb.rb_b, rb.rb_no, peak_flops=self.spec.peak_flops_per_cpe
            ),
            mbw_reg=self.spec.ldm_bandwidth,
        )

    def describe(self) -> str:
        return f"{self.name} for {self.params.describe()}"


class ImageSizeAwarePlan(ConvPlan):
    """Algorithm 1: block on batch (bB) and output columns (bCo).

    Loop order: batch blocks -> output rows -> column blocks -> (kr, kc).
    Input and filter tiles stream per (kr, kc) unless promoted; the output
    tile accumulates in LDM and is stored once per column block.
    """

    name = "image-size-aware"

    def __init__(
        self,
        params: ConvParams,
        blocking: Optional[ImageBlocking] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        super().__init__(params, register_blocking, spec)
        self.blocking = blocking or choose_image_blocking(params, spec)
        self.validate()

    def ldm_regions(self) -> List[Tuple[str, int]]:
        return image_plan_ldm_bytes(self.params, self.blocking, self.spec)

    def rbw_mem(self) -> float:
        if self.blocking.promote_input:
            return rbw_mem_ldm_image_plan_promoted(
                self.blocking.b_co,
                self.blocking.b_b,
                self.params.no,
                self.params.kc,
                peak_flops=self.spec.peak_flops_per_cg,
            )
        return rbw_mem_ldm_image_plan(
            self.blocking.b_co,
            self.blocking.b_b,
            self.params.no,
            peak_flops=self.spec.peak_flops_per_cg,
        )

    def _input_tile(self, co_len: int) -> Tuple[int, int, int]:
        """``(columns, block bytes, loads per ni-block)`` of a tile's input.

        Promoted, one halo-widened input row per kr covers all kc;
        otherwise the input streams per (kr, kc).
        """
        p = self.params
        if self.blocking.promote_input:
            in_cols = co_len + p.kc - 1
            return in_cols, image_plan_block_bytes(in_cols), p.kr
        return co_len, image_plan_block_bytes(co_len), p.kr * p.kc

    def _filter_tile(self) -> Tuple[int, int]:
        """``(kc columns per load, loads per ni-block)`` of a tile's filter."""
        p = self.params
        if self.blocking.promote_filter:
            return p.kc, p.kr
        return 1, p.kr * p.kc

    def _tile_flops(self, bb_len: int, co_len: int) -> int:
        p = self.params
        return 2 * bb_len * co_len * p.no * p.ni * p.kr * p.kc

    def _output_put(self, bb_len: int, co_len: int) -> TileTransfer:
        p = self.params
        return TileTransfer(
            "output", bb_len * p.no * co_len * DS, image_plan_block_bytes(co_len), "put"
        )

    def tile_schedule(self) -> Iterator[TileStep]:
        p, blk = self.params, self.blocking
        flt_block = filter_block_bytes(p.no)
        flt_kc, flt_count = self._filter_tile()
        b_ni = blk.ni_block(p.ni)
        ni_blocks = [(ni0, min(b_ni, p.ni - ni0)) for ni0 in range(0, p.ni, b_ni)]
        for bb in range(0, p.b, blk.b_b):
            bb_len = min(blk.b_b, p.b - bb)
            for ro in range(p.ro):
                for co in range(0, p.co, blk.b_co):
                    co_len = min(blk.b_co, p.co - co)
                    in_cols, in_halo_block, in_count = self._input_tile(co_len)
                    step = TileStep()
                    for ni0, ni_len in ni_blocks:
                        for _ in range(in_count):
                            step.gets.append(
                                TileTransfer(
                                    "input",
                                    ni_len * bb_len * in_cols * DS,
                                    in_halo_block,
                                    "get",
                                )
                            )
                        for _ in range(flt_count):
                            step.gets.append(
                                TileTransfer(
                                    "filter",
                                    ni_len * p.no * flt_kc * DS,
                                    flt_block,
                                    "get",
                                )
                            )
                        for kr in range(p.kr):
                            for kc in range(p.kc):
                                step.computes.append(
                                    ComputeSpec(
                                        bb=bb,
                                        bb_len=bb_len,
                                        ro=ro,
                                        co=co,
                                        co_len=co_len,
                                        kr=kr,
                                        kc=kc,
                                        ni0=ni0,
                                        ni_len=ni_len,
                                    )
                                )
                    step.flops = self._tile_flops(bb_len, co_len)
                    step.puts.append(self._output_put(bb_len, co_len))
                    yield step

    def _timed_runs(self) -> List[TileRun]:
        """One shared step per distinct ``(bb_len, co_len)``.

        Each output row is ``co // bCo`` full column tiles plus one edge
        tile when ``bCo`` does not divide ``Co``; rows repeat ``Ro`` times
        per batch block.
        """
        p, blk = self.params, self.blocking
        n_full, edge = divmod(p.co, blk.b_co)
        steps: dict = {}

        def step_for(bb_len: int, co_len: int) -> TileStep:
            step = steps.get((bb_len, co_len))
            if step is None:
                in_cols, in_halo_block, in_count = self._input_tile(co_len)
                flt_kc, flt_count = self._filter_tile()
                step = TileStep(
                    gets=[
                        TileTransfer(
                            "input",
                            p.ni * bb_len * in_cols * DS * in_count,
                            in_halo_block,
                            "get",
                        ),
                        TileTransfer(
                            "filter",
                            p.ni * p.no * flt_kc * DS * flt_count,
                            filter_block_bytes(p.no),
                            "get",
                        ),
                    ],
                    puts=[self._output_put(bb_len, co_len)],
                    flops=self._tile_flops(bb_len, co_len),
                )
                steps[(bb_len, co_len)] = step
            return step

        runs: List[TileRun] = []
        for bb in range(0, p.b, blk.b_b):
            bb_len = min(blk.b_b, p.b - bb)
            row = []
            if n_full:
                row.append((step_for(bb_len, blk.b_co), n_full))
            if edge:
                row.append((step_for(bb_len, edge), 1))
            for _ in range(p.ro):
                for step, count in row:
                    _append_run(runs, step, count)
        return runs


class BatchSizeAwarePlan(ConvPlan):
    """Algorithm 2: keep the whole batch, block output columns.

    Loop order: column blocks -> output rows -> kr -> input columns.  Each
    input column slab (Ni x B) is loaded once and contributes to every
    output column ``cCo = cCi - kc`` inside the block; filters stream per
    (kr) when promoted, per (kr, kc) otherwise.
    """

    name = "batch-size-aware"

    def __init__(
        self,
        params: ConvParams,
        blocking: Optional[BatchBlocking] = None,
        register_blocking: RegisterBlocking = PAPER_REGISTER_BLOCKING,
        spec: SW26010Spec = DEFAULT_SPEC,
    ):
        super().__init__(params, register_blocking, spec)
        self.blocking = blocking or choose_batch_blocking(params, spec)
        self.validate()

    def ldm_regions(self) -> List[Tuple[str, int]]:
        return batch_plan_ldm_bytes(self.params, self.blocking, self.spec)

    def rbw_mem(self) -> float:
        if self.blocking.promote_filter:
            return rbw_mem_ldm_batch_plan_promoted(
                self.params.kc,
                self.params.no,
                self.params.b,
                self.blocking.b_co,
                peak_flops=self.spec.peak_flops_per_cg,
            )
        return rbw_mem_ldm_batch_plan(
            self.params.kc,
            self.params.no,
            self.params.b,
            peak_flops=self.spec.peak_flops_per_cg,
        )

    def _filter_head(self) -> TileStep:
        """The promoted filter load that opens every (row, kr) pass."""
        p = self.params
        return TileStep(
            gets=[
                TileTransfer(
                    "filter", p.ni * p.no * p.kc * DS, filter_block_bytes(p.no), "get"
                )
            ]
        )

    def _output_tail(self, co_len: int) -> TileStep:
        """The store of one (column block, row) output tile."""
        p = self.params
        return TileStep(
            puts=[
                TileTransfer(
                    "output",
                    co_len * p.b * p.no * DS,
                    batch_plan_block_bytes(p.b),
                    "put",
                )
            ]
        )

    def tile_schedule(self) -> Iterator[TileStep]:
        p, blk = self.params, self.blocking
        in_block = batch_plan_block_bytes(p.b)
        flt_block = filter_block_bytes(p.no)
        b_ni = blk.ni_block(p.ni)
        ni_blocks = [(ni0, min(b_ni, p.ni - ni0)) for ni0 in range(0, p.ni, b_ni)]
        for co_start in range(0, p.co, blk.b_co):
            co_len = min(blk.b_co, p.co - co_start)
            # Every block sees co_len + Kc - 1 input columns (Ci = Co+Kc-1
            # guarantees no clipping) and exactly co_len * Kc (ci, kc)
            # update pairs.
            n_columns = co_len + p.kc - 1
            for ro in range(p.ro):
                for kr in range(p.kr):
                    if blk.promote_filter:
                        yield self._filter_head()
                    for ci in range(co_start, co_start + n_columns):
                        step = TileStep()
                        for ni0, ni_len in ni_blocks:
                            step.gets.append(
                                TileTransfer(
                                    "input", ni_len * p.b * DS, in_block, "get"
                                )
                            )
                            for kc in range(p.kc):
                                co = ci - kc
                                if co_start <= co < co_start + co_len:
                                    if not blk.promote_filter:
                                        step.gets.append(
                                            TileTransfer(
                                                "filter",
                                                ni_len * p.no * DS,
                                                flt_block,
                                                "get",
                                            )
                                        )
                                    step.computes.append(
                                        ComputeSpec(
                                            bb=0,
                                            bb_len=p.b,
                                            ro=ro,
                                            co=co,
                                            co_len=1,
                                            kr=kr,
                                            kc=kc,
                                            ni0=ni0,
                                            ni_len=ni_len,
                                        )
                                    )
                                    step.flops += 2 * p.b * p.no * ni_len
                        yield step
                # Output stored once per (column block, row).
                yield self._output_tail(co_len)

    def _timed_runs(self) -> List[TileRun]:
        """One shared input step per ``co_len``, plus the head and the tail.

        Each (row, kr) pass of a column block is one step carrying all its
        input columns (and, unpromoted, all its per-update filter loads);
        promoted, the shared filter head opens every pass.
        """
        p, blk = self.params, self.blocking
        head = self._filter_head() if blk.promote_filter else None
        steps: dict = {}

        def steps_for(co_len: int) -> Tuple[TileStep, TileStep]:
            """The shared (input step, output tail) of a column block."""
            if co_len not in steps:
                n_columns = co_len + p.kc - 1
                n_updates = co_len * p.kc
                step = TileStep(
                    gets=[
                        TileTransfer(
                            "input",
                            p.ni * p.b * n_columns * DS,
                            batch_plan_block_bytes(p.b),
                            "get",
                        )
                    ],
                    flops=2 * p.b * p.no * p.ni * n_updates,
                )
                if head is None:
                    step.gets.append(
                        TileTransfer(
                            "filter",
                            p.ni * p.no * n_updates * DS,
                            filter_block_bytes(p.no),
                            "get",
                        )
                    )
                steps[co_len] = (step, self._output_tail(co_len))
            return steps[co_len]

        runs: List[TileRun] = []
        for co_start in range(0, p.co, blk.b_co):
            step, tail = steps_for(min(blk.b_co, p.co - co_start))
            for _ in range(p.ro):
                for _ in range(p.kr):
                    if head is not None:
                        _append_run(runs, head, 1)
                    _append_run(runs, step, 1)
                _append_run(runs, tail, 1)
        return runs


def make_plan(
    kind: str,
    params: ConvParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    **kwargs,
) -> ConvPlan:
    """Construct a plan by family name ("image" or "batch")."""
    if kind in ("image", "image-size-aware"):
        return ImageSizeAwarePlan(params, spec=spec, **kwargs)
    if kind in ("batch", "batch-size-aware"):
        return BatchSizeAwarePlan(params, spec=spec, **kwargs)
    raise PlanError(f"unknown plan kind {kind!r}")
