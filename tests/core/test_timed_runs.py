"""Run-length timed walks, certified against per-tile oracles.

The timed engines fold the double-buffer recurrence over ``(cost, count)``
runs of shared steps instead of walking one object per tile.  The specs
here are the per-tile forms that rendering replaces:

* the tile-by-tile ``pipeline_intervals`` recurrence (kept verbatim below
  as a naive oracle) — the run fold must equal it *bitwise*;
* the full tile schedule — the expanded timed runs of a direct plan must
  carry, step by step, the same per-tensor bytes, block sizes and flops;
* the per-tile traffic sum of a GEMM plan — its closed-form
  ``dma_streams`` must equal it.
"""

import struct
from typing import List

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.algorithms import (
    GemmBlocking,
    engine_for_plan,
    enumerate_gemm_blockings,
    make_lowered_plan,
)
from repro.core.conv import (
    ConvolutionEngine,
    TileInterval,
    _pipeline_timeline,
    _StepCost,
    clear_timing_cache,
    pipeline_intervals,
)
from repro.core.gemm_plan import GemmParams, GemmPlan
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.perf.equations import DS
from repro.telemetry import Telemetry


# -- the naive oracle: the per-tile recurrence the run fold replaces --------


def oracle_intervals(costs):
    get_free = 0.0
    put_free = 0.0
    comp_free = 0.0
    comp_done_history = []
    for i, cost in enumerate(costs):
        buffer_ready = comp_done_history[i - 2] if i >= 2 else 0.0
        get_start = max(get_free, buffer_ready)
        get_done = get_start + cost.get_seconds
        comp_start = max(get_done, comp_free)
        comp_done = comp_start + cost.compute_seconds
        if cost.put_seconds > 0:
            put_start = max(put_free, comp_done)
            put_end = put_start + cost.put_seconds
            put_free = put_end
        else:
            put_start = put_end = comp_done
        get_free = get_done
        comp_free = comp_done
        comp_done_history.append(comp_done)
        yield TileInterval(
            index=i,
            get_start=get_start,
            get_end=get_done,
            compute_start=comp_start,
            compute_end=comp_done,
            put_start=put_start,
            put_end=put_end,
        )


def oracle_timeline(costs, contention):
    end_get = end_put = end_comp = 0.0
    dma_busy = 0.0
    comp_busy = 0.0
    for interval in oracle_intervals(costs):
        end_get = interval.get_end
        end_comp = interval.compute_end
        end_put = max(end_put, interval.put_end)
        dma_busy += interval.get_seconds + interval.put_seconds
        comp_busy += interval.compute_seconds
    total = max(end_get, end_put, end_comp, dma_busy)
    hidden = max(0.0, dma_busy + comp_busy - total)
    total += contention * hidden
    return total, dma_busy, comp_busy


def bits(values) -> List[bytes]:
    """Exact float identity (``==`` would equate 0.0 and -0.0)."""
    return [struct.pack("<d", v) for v in values]


def interval_bits(interval: TileInterval):
    return (interval.index,) + tuple(
        bits(
            (
                interval.get_start, interval.get_end,
                interval.compute_start, interval.compute_end,
                interval.put_start, interval.put_end,
            )
        )
    )


def expand(runs):
    return [item for item, count in runs for _ in range(count)]


# -- the run fold ------------------------------------------------------------

seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False, allow_infinity=False),
)
costs = st.builds(
    _StepCost,
    get_seconds=seconds,
    compute_seconds=seconds,
    put_seconds=seconds,  # 0.0 draws are the zero-put steps
    flops=st.just(0),
    bytes_get=st.just(0),
    bytes_put=st.just(0),
)
cost_runs = st.lists(
    st.tuples(costs, st.integers(min_value=1, max_value=6)), max_size=10
)


class TestRunFold:
    @given(cost_runs, st.sampled_from((0.0, 0.5, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_timeline_equals_per_tile_oracle(self, runs, contention):
        got = _pipeline_timeline(runs, contention)
        want = oracle_timeline(expand(runs), contention)
        assert bits(got) == bits(want)

    @given(cost_runs, st.one_of(st.none(), st.integers(min_value=0, max_value=30)))
    @settings(max_examples=200, deadline=None)
    def test_intervals_equal_per_tile_oracle(self, runs, max_tiles):
        got = pipeline_intervals(runs, max_tiles)
        want = list(oracle_intervals(expand(runs)))
        if max_tiles is not None:
            want = want[:max_tiles]
        assert [interval_bits(t) for t in got] == [interval_bits(t) for t in want]

    def test_empty_stream(self):
        assert _pipeline_timeline([]) == (0.0, 0.0, 0.0)
        assert pipeline_intervals([]) == []

    def test_counts_equal_repeated_singletons(self):
        cost = _StepCost(1e-6, 3e-6, 0.0, 0, 0, 0)
        assert bits(_pipeline_timeline([(cost, 7)])) == bits(
            _pipeline_timeline([(cost, 1)] * 7)
        )


# -- direct plans: the timed runs vs the full schedule ----------------------


@st.composite
def direct_plans(draw):
    """A small plan of either family: promote flags, b_ni, edge tiles."""
    k = draw(st.sampled_from((1, 3)))
    ni = draw(st.integers(min_value=1, max_value=12))
    params = ConvParams(
        ni=ni,
        no=draw(st.integers(min_value=1, max_value=8)),
        ri=draw(st.integers(min_value=k, max_value=k + 5)),
        ci=draw(st.integers(min_value=k, max_value=k + 7)),
        kr=k,
        kc=k,
        b=draw(st.integers(min_value=1, max_value=6)),
    )
    b_ni = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=ni)))
    b_co = draw(st.integers(min_value=1, max_value=params.co + 1))
    if draw(st.booleans()):
        blocking = ImageBlocking(
            b_b=draw(st.integers(min_value=1, max_value=params.b + 1)),
            b_co=b_co,
            promote_input=draw(st.booleans()),
            promote_filter=draw(st.booleans()),
            b_ni=b_ni,
        )
        family = ImageSizeAwarePlan
    else:
        blocking = BatchBlocking(
            b_co=b_co, promote_filter=draw(st.booleans()), b_ni=b_ni
        )
        family = BatchSizeAwarePlan
    try:
        return family(params, blocking=blocking)
    except PlanError:
        assume(False)


def full_groups(plan):
    """The full schedule's steps grouped one group per timed step.

    A step joins the previous group when both carry compute updates of the
    same (row, kr) and the previous one stores nothing: the batch family's
    per-input-column steps of one (row, kr) pass.  Image tiles (each
    stores its output) and the batch family's filter heads and output
    tails stand alone.
    """
    groups = []
    for step in plan.tile_schedule():
        prev = groups[-1][-1] if groups else None
        if (
            prev is not None
            and prev.computes
            and step.computes
            and not prev.puts
            and (prev.computes[0].ro, prev.computes[0].kr)
            == (step.computes[0].ro, step.computes[0].kr)
        ):
            groups[-1].append(step)
        else:
            groups.append([step])
    return groups


def per_tensor(transfers):
    """(tensor, direction) -> (total bytes, set of block sizes)."""
    out = {}
    for t in transfers:
        nbytes, blocks = out.get((t.tensor, t.direction), (0, set()))
        out[(t.tensor, t.direction)] = (nbytes + t.nbytes, blocks | {t.block_bytes})
    return out


class TestDirectRuns:
    @given(direct_plans())
    @settings(max_examples=120, deadline=None)
    def test_expanded_runs_match_full_schedule(self, plan):
        timed = expand(plan.timed_runs())
        groups = full_groups(plan)
        assert len(timed) == len(groups)
        for step, group in zip(timed, groups):
            assert step.computes == []
            assert step.flops == sum(s.flops for s in group)
            full = per_tensor(t for s in group for t in s.gets + s.puts)
            mine = per_tensor(step.gets + step.puts)
            assert mine == full
            # One aggregate transfer per tensor and direction.
            assert len(step.gets) + len(step.puts) == len(mine)
        assert sum(s.flops * n for s, n in plan.timed_runs()) == plan.params.flops()

    @given(direct_plans())
    @settings(max_examples=60, deadline=None)
    def test_runs_are_maximal_and_shared(self, plan):
        runs = plan.timed_runs()
        assert plan.timed_runs() is runs
        assert all(count >= 1 for _, count in runs)
        assert all(a[0] is not b[0] for a, b in zip(runs, runs[1:]))
        distinct = {id(step) for step, _ in runs}
        # Image: one step per (bb_len, co_len) -- full and edge tiles of
        # each; batch: one input step and one tail per co_len, plus the head.
        assert len(distinct) <= (4 if isinstance(plan, ImageSizeAwarePlan) else 5)

    @given(direct_plans())
    @settings(max_examples=60, deadline=None)
    def test_dma_streams_equal_full_schedule_sums(self, plan):
        full = per_tensor(t for s in plan.tile_schedule() for t in s.gets + s.puts)
        streams = {s.name: s for s in plan.dma_streams()}
        assert streams.keys() == {f"{t}.{d}" for t, d in full}
        for (tensor, direction), (nbytes, _) in full.items():
            assert streams[f"{tensor}.{direction}"].bytes_moved == float(nbytes)


# -- GEMM plans ---------------------------------------------------------------


@st.composite
def gemm_plans(draw):
    params = GemmParams(
        m=draw(st.integers(min_value=1, max_value=300)),
        n=draw(st.integers(min_value=1, max_value=300)),
        k=draw(st.integers(min_value=1, max_value=300)),
    )
    blocking = (
        draw(st.integers(min_value=1, max_value=params.m)),
        draw(st.integers(min_value=1, max_value=params.n)),
        draw(st.integers(min_value=1, max_value=params.k)),
    )
    return GemmPlan(params, blocking=blocking)


def per_tile_streams(plan):
    """The pre-closed-form traffic sum: one term per output tile."""
    p = plan.params
    a = b = c = 0
    for _, m_len, _, n_len in plan.tiles():
        a += m_len * p.k * DS
        b += p.k * n_len * DS
        c += m_len * n_len * DS
    return [float(a), float(b), float(c)]


class TestGemmRuns:
    @given(gemm_plans())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_streams_equal_per_tile_sum(self, plan):
        assert [s.bytes_moved for s in plan.dma_streams()] == per_tile_streams(plan)

    @given(gemm_plans())
    @settings(max_examples=100, deadline=None)
    def test_chunk_runs_expand_to_tile_chunks(self, plan):
        chunks = list(plan.k_chunks())
        want = [
            (m_len, n_len, k_len, i == len(chunks) - 1)
            for _, m_len, _, n_len in plan.tiles()
            for i, (_, k_len) in enumerate(chunks)
        ]
        runs = plan.chunk_runs()
        assert expand(runs) == want
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    @pytest.mark.parametrize("algorithm", ["im2col", "winograd"])
    def test_lowered_streams_equal_per_tile_sum(self, algorithm):
        params = ConvParams(ni=24, no=16, ri=14, ci=14, kr=3, kc=3, b=4)
        for blocking in enumerate_gemm_blockings(algorithm, params):
            gemm = make_lowered_plan(algorithm, params, blocking=blocking).gemm_plan()
            assert [s.bytes_moved for s in gemm.dma_streams()] == per_tile_streams(gemm)


# -- one timing memo ----------------------------------------------------------


class TestOneTimingMemo:
    PARAMS = ConvParams(ni=16, no=16, ri=10, ci=10, kr=3, kc=3, b=4)

    @pytest.mark.parametrize("algorithm", ["im2col", "winograd"])
    def test_clear_forces_lowered_rewalk(self, algorithm):
        plan = make_lowered_plan(
            algorithm, self.PARAMS, blocking=GemmBlocking(16, 32, 16)
        )
        telemetry = Telemetry()
        engine = engine_for_plan(plan, telemetry=telemetry)
        first = engine.evaluate()
        engine.evaluate()
        assert telemetry.counters.get("engine.timing_cache.hits") >= 1
        clear_timing_cache()
        misses = telemetry.counters.get("engine.timing_cache.misses")
        assert engine.evaluate() == first
        assert telemetry.counters.get("engine.timing_cache.misses") == misses + 1

    def test_direct_and_lowered_share_the_clear(self):
        telemetry = Telemetry()
        direct = ConvolutionEngine(ImageSizeAwarePlan(self.PARAMS), telemetry=telemetry)
        lowered = engine_for_plan(
            make_lowered_plan("im2col", self.PARAMS), telemetry=telemetry
        )
        direct.evaluate()
        lowered.evaluate()
        clear_timing_cache()
        before = telemetry.counters.get("engine.timing_cache.misses")
        direct.evaluate()
        lowered.evaluate()
        assert telemetry.counters.get("engine.timing_cache.misses") == before + 2
