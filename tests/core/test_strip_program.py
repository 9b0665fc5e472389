"""The numpy backend's strip program, certified against the tile loop.

The spec is the naive tile-order loop below: walk the plan's full
schedule and apply each compute spec as one packed-operand matmul into its
output tile.  The engine's numpy backend instead runs one stacked matmul
per ``(kr, kc, ni-block)`` update over whole output strips; these tests
pin that the rewrite is *bitwise* equal to the spec on drawn shapes, that
batched serving equals per-image runs, that a plan the rewrite cannot
reproduce is refused, and that the memoized run timing is exact and
tamper-proof.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.core.conv import (
    _TIMING_CACHE,
    ConvolutionEngine,
    TimingReport,
    _pipeline_timeline,
    compile_strip_program,
)
from repro.core.guarded import GuardedConvolutionEngine
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan, TileStep
from repro.faults import FaultPlan, FaultSpec
from repro.telemetry import Telemetry


def tile_order_oracle(plan, x, w, bias=None, activation=None, pool=1):
    """The spec: every compute spec, tile by tile, in schedule order."""
    p = plan.params
    out = np.zeros(p.output_shape)
    for step in plan.compiled_schedule():
        for c in step.computes:
            n = c.ni_len if c.ni_len >= 0 else p.ni
            w_slice = np.ascontiguousarray(w[:, c.ni0 : c.ni0 + n, c.kr, c.kc])
            window = x[c.bb : c.bb + c.bb_len, c.ni0 : c.ni0 + n, c.ro + c.kr,
                       c.co + c.kc : c.co + c.kc + c.co_len]
            out[c.bb : c.bb + c.bb_len, :, c.ro, c.co : c.co + c.co_len] += w_slice @ window
    if bias is not None:
        out += bias[None, :, None, None]
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    if pool > 1:
        b, no, ro, co = out.shape
        out = out.reshape(b, no, ro // pool, pool, co // pool, pool).mean(axis=(3, 5))
    return out


@st.composite
def plans(draw, pool=1):
    """A plan of either family (or the planner's), optionally ni-blocked."""
    k = draw(st.sampled_from((1, 3, 5)))
    b = draw(st.integers(1, 9))
    ni = draw(st.integers(1, 20))
    no = draw(st.integers(1, 12))
    ro = pool * draw(st.integers(1, 6))
    co = pool * draw(st.integers(1, 6))
    params = ConvParams.from_output(ni=ni, no=no, ro=ro, co=co, kr=k, kc=k, b=b)
    family = draw(st.sampled_from(("image", "batch", "planner")))
    b_ni = draw(st.none() | st.integers(1, ni))
    if family == "image":
        blocking = ImageBlocking(
            b_b=draw(st.integers(1, b)),
            b_co=draw(st.integers(1, co)),
            promote_input=draw(st.booleans()),
            b_ni=b_ni,
        )
        return ImageSizeAwarePlan(params, blocking=blocking)
    if family == "batch":
        blocking = BatchBlocking(b_co=draw(st.integers(1, co)), b_ni=b_ni)
        return BatchSizeAwarePlan(params, blocking=blocking)
    return plan_convolution(params).plan


def _data(params, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(params.input_shape), rng.standard_normal(params.filter_shape)


class TestBitIdenticalToTileOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        plan=plans(),
        fused=st.booleans(),
        version=st.none() | st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_run_equals_oracle(self, plan, fused, version, seed):
        x, w = _data(plan.params, seed)
        bias = np.linspace(-1.0, 1.0, plan.params.no) if fused else None
        activation = "relu" if fused else None
        out, _ = ConvolutionEngine(plan).run(
            x, w, bias=bias, activation=activation, filter_version=version
        )
        expected = tile_order_oracle(plan, x, w, bias, activation)
        np.testing.assert_array_equal(out, expected)

    @settings(max_examples=25, deadline=None)
    @given(plan=plans(pool=2), version=st.none() | st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_fused_pool_equals_oracle(self, plan, version, seed):
        x, w = _data(plan.params, seed)
        bias = np.linspace(-1.0, 1.0, plan.params.no)
        out, _ = ConvolutionEngine(plan, fused_pool=2).run(
            x, w, bias=bias, activation="relu", filter_version=version
        )
        np.testing.assert_array_equal(
            out, tile_order_oracle(plan, x, w, bias, "relu", pool=2)
        )


class TestServeCoalescing:
    @pytest.mark.parametrize("b", range(1, 9))
    @pytest.mark.parametrize(
        "ni, no, size, k", [(16, 16, 16, 3), (3, 8, 11, 5), (13, 7, 9, 1)]
    )
    def test_batched_equals_per_image(self, b, ni, no, size, k):
        params = ConvParams(ni=ni, no=no, ri=size, ci=size, kr=k, kc=k, b=b)
        x, w = _data(params, b)
        batched, _ = ConvolutionEngine(ImageSizeAwarePlan(params)).run(
            x, w, filter_version=0
        )
        single = ConvolutionEngine(ImageSizeAwarePlan(params.with_batch(1)))
        for i in range(b):
            alone, _ = single.run(x[i : i + 1], w, filter_version=0)
            np.testing.assert_array_equal(batched[i : i + 1], alone)


class _ReorderedPlan(ImageSizeAwarePlan):
    """Every other tile accumulates its updates in reverse order."""

    def tile_schedule(self):
        for i, step in enumerate(super().tile_schedule()):
            if i % 2:
                step.computes.reverse()
            yield step


class _DroppedTilePlan(ImageSizeAwarePlan):
    """The last tile never runs: its tile column misses an output row."""

    def tile_schedule(self):
        return iter(list(super().tile_schedule())[:-1])


class _OverlappingColumnsPlan(ImageSizeAwarePlan):
    """Whole-batch tiles on top of the per-image tiles of image 0."""

    def __init__(self, params):
        super().__init__(params, blocking=ImageBlocking(b_b=1, b_co=params.co))

    def tile_schedule(self):
        for step in super().tile_schedule():
            yield step
            if step.computes and step.computes[0].bb == 0:
                yield TileStep(
                    computes=[replace(c, bb_len=self.params.b) for c in step.computes]
                )


class TestRefusal:
    PARAMS = ConvParams(ni=4, no=4, ri=6, ci=6, kr=3, kc=3, b=2)

    @pytest.mark.parametrize(
        "plan_cls, reason",
        [
            (_ReorderedPlan, "different orders"),
            (_DroppedTilePlan, "output rows"),
            (_OverlappingColumnsPlan, "batch x column"),
        ],
    )
    def test_strip_program_refuses(self, plan_cls, reason):
        plan = plan_cls(self.PARAMS)
        with pytest.raises(SimulationError, match=reason):
            compile_strip_program(plan)
        x, w = _data(self.PARAMS, 0)
        with pytest.raises(SimulationError):
            ConvolutionEngine(plan).run(x, w)

    def test_guarded_engine_demotes_to_reference(self):
        x, w = _data(self.PARAMS, 1)
        engine = GuardedConvolutionEngine(_ReorderedPlan(self.PARAMS), backend="numpy")
        out, _ = engine.run(x, w)
        assert engine.last_outcome.backend_used == "reference"
        np.testing.assert_allclose(
            out, tile_order_oracle(ImageSizeAwarePlan(self.PARAMS), x, w),
            rtol=1e-12, atol=1e-12,
        )


class TestRunTimingMemo:
    PARAMS = ConvParams(ni=8, no=8, ri=10, ci=10, kr=3, kc=3, b=4)

    @pytest.mark.parametrize("family", [ImageSizeAwarePlan, BatchSizeAwarePlan])
    def test_report_equals_fresh_full_walk(self, family):
        engine = ConvolutionEngine(family(self.PARAMS))
        x, w = _data(self.PARAMS, 2)
        _, report = engine.run(x, w)
        costs = [engine._step_cost(step) for step in engine.plan.compiled_schedule()]
        total, dma, comp = _pipeline_timeline(
            [(c, 1) for c in costs], engine.overlap_contention
        )
        assert report == TimingReport(
            seconds=total,
            flops=sum(c.flops for c in costs),
            dma_seconds=dma,
            compute_seconds=comp,
            bytes_get=sum(c.bytes_get for c in costs),
            bytes_put=sum(c.bytes_put for c in costs),
            tiles=len(costs),
            peak_flops=engine.spec.peak_flops_per_cg,
        )

    def test_mutating_a_report_does_not_poison_the_cache(self):
        engine = ConvolutionEngine(ImageSizeAwarePlan(self.PARAMS))
        x, w = _data(self.PARAMS, 3)
        _, first = engine.run(x, w)
        seconds = first.seconds
        first.seconds = -1.0
        first.tiles = 0
        _, second = engine.run(x, w)
        assert second.seconds == seconds
        assert second.tiles > 0

    def test_run_does_not_count_evaluations(self):
        telem = Telemetry()
        engine = ConvolutionEngine(ImageSizeAwarePlan(self.PARAMS), telemetry=telem)
        x, w = _data(self.PARAMS, 4)
        engine.run(x, w)
        engine.run(x, w)
        assert telem.counters.get("engine.runs") == 2
        assert telem.counters.get("engine.evaluations") == 0

    def test_dma_derate_gets_its_own_entry(self):
        plan = ImageSizeAwarePlan(self.PARAMS)
        healthy = ConvolutionEngine(plan)
        derated = ConvolutionEngine(
            plan, fault_plan=FaultPlan(FaultSpec(dma_bandwidth_factor=0.5))
        )
        x, w = _data(self.PARAMS, 5)
        out_h, t_healthy = healthy.run(x, w)
        out_d, t_derated = derated.run(x, w)
        np.testing.assert_array_equal(out_h, out_d)
        assert t_derated.seconds > t_healthy.seconds
        assert (healthy._timing_key(), False) in _TIMING_CACHE
        assert (derated._timing_key(), False) in _TIMING_CACHE
