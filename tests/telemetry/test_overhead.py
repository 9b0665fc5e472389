"""Disabled telemetry must cost (almost) nothing.

The acceptance bar for the observability layer: with no session installed,
a Table III row-1 pass records zero counters, allocates nothing inside the
telemetry modules, and times within noise of the uninstrumented baseline
(the precise <2% figure is tracked by ``benchmarks/test_bench_telemetry.py``;
here we assert the loose, flake-proof direction: disabled is not slower).
"""

import time
import tracemalloc

import numpy as np

from repro.core.conv import ConvolutionEngine, clear_timing_cache
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.telemetry import (
    NULL_COUNTERS,
    NULL_FLIGHT,
    NULL_METRICS,
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
)

#: Table III row 1: Ni=128, No=128, 64x64 output, 3x3 filters, B=128.
ROW1 = ConvParams.from_output(ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128)


def _evaluate_seconds(telemetry, repeats=15):
    # A run-length walk of row 1 takes about 1 ms on a 2-core host; the
    # best of 15 keeps one scheduler hiccup from deciding the comparison.
    plan = plan_convolution(ROW1).plan
    engine = ConvolutionEngine(plan, telemetry=telemetry)
    best = float("inf")
    for _ in range(repeats):
        clear_timing_cache()
        start = time.perf_counter()
        engine.evaluate()
        best = min(best, time.perf_counter() - start)
    return best


class TestZeroCostDisabled:
    def test_engine_defaults_to_null_session(self):
        engine = ConvolutionEngine(plan_convolution(ROW1).plan)
        assert engine.telemetry is NULL_TELEMETRY
        assert current_telemetry() is NULL_TELEMETRY

    def test_row1_pass_records_no_counters(self):
        engine = ConvolutionEngine(plan_convolution(ROW1).plan)
        clear_timing_cache()
        engine.evaluate()
        assert len(NULL_COUNTERS) == 0
        assert NULL_COUNTERS.as_dict() == {}
        assert len(NULL_TELEMETRY.tracer) == 0

    def test_forward_pass_allocates_nothing_in_telemetry(self):
        """A functional forward pass must not allocate in telemetry code."""
        small = ConvParams.from_output(ni=16, no=16, ro=8, co=8, kr=3, kc=3, b=8)
        plan = plan_convolution(small).plan
        engine = ConvolutionEngine(plan, backend="numpy")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(small.input_shape)
        w = rng.standard_normal(small.filter_shape)
        engine.run(x, w)  # warm up caches / lazy imports

        telemetry_files = tracemalloc.Filter(
            True, "*/repro/telemetry/*"
        )
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces([telemetry_files])
            engine.run(x, w)
            after = tracemalloc.take_snapshot().filter_traces([telemetry_files])
        finally:
            tracemalloc.stop()
        growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert growth <= 0, f"telemetry modules allocated {growth} bytes while disabled"

    def test_disabled_not_slower_than_enabled(self):
        """The loose direction of the <2% overhead bar: disabled does
        strictly less work than enabled, so (modulo timer noise) a disabled
        schedule walk must not come out slower."""
        enabled = _evaluate_seconds(Telemetry())
        disabled = _evaluate_seconds(None)
        assert disabled <= enabled * 1.25, (
            f"disabled telemetry walk took {disabled:.4f}s vs "
            f"{enabled:.4f}s enabled"
        )

    def test_enabled_session_does_count(self):
        telemetry = Telemetry()
        _evaluate_seconds(telemetry, repeats=1)
        assert telemetry.counters.get("engine.evaluations") == 1
        assert telemetry.counters.get("engine.flops") == ROW1.flops()


class TestZeroCostMetricsAndFlight:
    """The new sinks inherit the counters' zero-cost-disabled contract."""

    def test_null_session_exposes_the_shared_singletons(self):
        assert NULL_TELEMETRY.metrics is NULL_METRICS
        assert NULL_TELEMETRY.flight is NULL_FLIGHT
        assert not NULL_METRICS.enabled
        assert not NULL_FLIGHT.enabled

    def test_enabled_session_gets_live_sinks(self):
        telemetry = Telemetry()
        assert telemetry.metrics.enabled
        assert telemetry.flight.enabled
        assert telemetry.metrics is not NULL_METRICS

    def test_null_sinks_retain_no_state(self):
        NULL_METRICS.observe("x.hist", 1.0)
        NULL_METRICS.set_gauge("x.gauge", 2.0)
        NULL_METRICS.sample("x.series", 0.0, 3.0)
        NULL_FLIGHT.record("request.submit", request=0)
        assert len(NULL_METRICS) == 0
        assert len(NULL_FLIGHT) == 0
        assert NULL_METRICS.histogram("x.hist") is None
        assert NULL_FLIGHT.events() == []

    def test_disabled_metrics_and_flight_allocate_zero_bytes(self):
        """A hot loop against the null sinks must not allocate in the
        telemetry modules — the disabled serve/cluster paths hit these
        exact call sites on every request and step."""
        # Warm up: first calls may intern strings / build method caches.
        NULL_METRICS.observe("serve.latency_ms", 1.0)
        NULL_FLIGHT.record("request.submit", request=0)

        telemetry_files = tracemalloc.Filter(True, "*/repro/telemetry/*")
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces([telemetry_files])
            for i in range(1000):
                NULL_METRICS.observe("serve.latency_ms", float(i))
                NULL_METRICS.set_gauge("serve.queue_depth", i)
                NULL_METRICS.sample("serve.queue_depth", i * 1e-3, i)
                NULL_FLIGHT.record("request.submit", request=i)
                NULL_FLIGHT.record("batch.form", batch=i, requests=[i])
            after = tracemalloc.take_snapshot().filter_traces([telemetry_files])
        finally:
            tracemalloc.stop()
        growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert growth <= 0, (
            f"disabled metrics/flight allocated {growth} bytes"
        )
