"""``sweep``: an offline, cold parameter sweep on the simulated chip.

Per shape: plan it heuristically (``plan_convolution``), model the plan
(``plan.estimate()``), time it on one core group and on the 4-CG chip
(``ConvolutionEngine.evaluate``, ``evaluate_chip``), and autotune it across
the algorithm zoo with a fresh on-disk ``PlanCache``.

The shapes are the 4 Table III rows, the 13 VGG-16 conv layers and design
blocks over the space of the paper's Figs. 7-9.  A block holds every
(output size, K) cell once, and every channel count once as Ni and once
as No, paired so that large Ni meets small No.  The number of blocks
follows from the run's seconds (``SECONDS_PER_BLOCK``), never from how
fast the shapes go.

The shape list does not depend on the seed.  Host cost per shape is
jagged in the channel counts: moving each channel count of the design by
one grid step (16) at random changed a whole run's shapes/s by 20% from
seed to seed, and pairing channels at random by 30%, while repeats of
one list agreed within 10%.  A seeded sample would make the host clock
measure the draw, so the seed only labels the run here.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.core.algorithms import engine_for_plan
from repro.core.conv import ConvolutionEngine, clear_timing_cache, evaluate_chip
from repro.core.ldm_blocking import ImageBlocking
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.zoo import vgg16
from repro.experiments import table3
from repro.experiments.table3 import PAPER_ROWS
from repro.tune import autotune
from repro.tune.cache import PlanCache

from harness import Run, conv_sim_layers, geomean, peak_rss_mb, percentile

FIG_CHANNELS = tuple(range(64, 385, 16))
FIG_OUTPUTS = tuple(range(16, 65, 8))
FIG_KERNELS = (1, 3, 5)
FIG_BATCH = 128
SECONDS_PER_BLOCK = 20.0  # a block plus the fixed shapes takes about 18 s on a 2-core host
WINDOWS = 4


@dataclass
class ShapeResult:
    params: object
    host_s: float
    report: object  # 1-CG TimingReport of the heuristic plan
    estimate_gflops: float
    chip_gflops: float
    tuned: object  # TunedPlan


def design_shapes(blocks: int) -> List[object]:
    """Design blocks over the Figs. 7-9 space (see the module docstring)."""
    cells = [(out, k) for out in FIG_OUTPUTS for k in FIG_KERNELS]
    n = len(FIG_CHANNELS)
    assert len(cells) == n
    block = [
        ConvParams.from_output(
            ni=FIG_CHANNELS[i], no=FIG_CHANNELS[n - 1 - i], ro=out, co=out, kr=k, kc=k, b=FIG_BATCH
        )
        for i, (out, k) in enumerate(cells)
    ]
    return block * blocks


def fixed_shapes() -> List[object]:
    table3 = [
        ConvParams.from_output(ni=ni, no=no, ro=64, co=64, kr=3, kc=3, b=128)
        for _, _, _, ni, no, *_ in PAPER_ROWS
    ]
    return table3 + [layer.conv for layer in vgg16() if layer.kind == "conv"]


class Sweep:
    """Set up: imports and inputs only; the plan cache starts empty."""

    #: Program counters read around the timed-walk calls (traced run only).
    COUNTED = ("engine.timing_cache.hits", "engine.timing_cache.misses", "engine.tiles")

    def __init__(self, seconds: float, root: Path, telemetry=None):
        blocks = max(1, math.ceil(seconds / SECONDS_PER_BLOCK))
        self.shapes = fixed_shapes() + design_shapes(blocks)
        root.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(prefix="plan-cache-", dir=root))
        self.cache = PlanCache(self._tmp)
        self.telemetry = telemetry
        self.counts = dict.fromkeys(self.COUNTED, 0)

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)
        try:
            self._tmp.parent.rmdir()
        except OSError:
            pass  # another run's cache is still there

    def shape(self, params, tracer) -> ShapeResult:
        t0 = time.perf_counter()
        with tracer.span("core.planner"):
            plan = plan_convolution(params).plan
        with tracer.span("perf.model"):
            estimate = plan.estimate()
        counters = self.telemetry.counters if self.telemetry is not None else None
        before = [counters.get(k) for k in self.COUNTED] if counters else None
        with tracer.span("core.conv.timed"):
            report = ConvolutionEngine(plan).evaluate()
            chip_gflops, _ = evaluate_chip(params, num_groups=4)
        if counters:
            for key, old in zip(self.COUNTED, before):
                self.counts[key] += counters.get(key) - old
        with tracer.span("tune"):
            tuned = autotune(params, cache=self.cache, algorithms="all")
        return ShapeResult(
            params, time.perf_counter() - t0, report, estimate.gflops, chip_gflops, tuned
        )


def measure(sweep: Sweep, tracer, run: Run) -> None:
    t_start = time.perf_counter()
    results = [sweep.shape(params, tracer) for params in sweep.shapes]
    t_end = time.perf_counter()
    run.host("peak_rss_mb", [peak_rss_mb()], "MB", "lower")
    run.attempted += len(results)

    # Strided windows: each holds every WINDOWS-th shape, so all see the same mix.
    windows = [results[k::WINDOWS] for k in range(min(WINDOWS, len(results)))]
    run.host("ops_per_s", [len(w) / sum(r.host_s for r in w) for w in windows], "1/s", "higher")
    # Over all shapes: the windows' medians fall on different shapes and differ by 3x.
    run.host("p50_ms", [1e3 * r.host_s for r in results], "ms", "lower")
    run.host("p99_ms", [1e3 * percentile([r.host_s for r in w], 99) for w in windows], "ms", "lower")
    run.metrics["shapes_per_s"] = run.metrics["ops_per_s"]

    sim = sim_summary(results)
    for name, value, unit, better in sim:
        run.sim(name, value, unit, better)
    _checks(sweep, results, sim, run)

    if tracer.enabled:
        _layers(results, tracer, t_start, t_end, run, sweep.counts)


def sim_summary(results: List[ShapeResult]):
    rows = table3_rows()
    err = [abs(g - paper[8]) / paper[8] for g, paper in zip(rows, PAPER_ROWS)]
    return [
        ("sim_gflops", geomean(r.chip_gflops for r in results), "Gflops", "higher"),
        ("tuned_gflops", geomean(r.tuned.gflops for r in results), "Gflops", "higher"),
        (
            "sim_ms",
            1e3 * sum(r.params.flops() / (r.chip_gflops * 1e9) for r in results) / len(results),
            "ms",
            "lower",
        ),
        ("table3_err_pct", 100.0 * sum(err) / len(err), "%", "lower"),
    ]


def table3_rows() -> List[float]:
    """Simulated 1-CG Gflops of the four Table III plan/shape pairs."""
    out = []
    for kind, b_b, b_co, ni, no, *_ in PAPER_ROWS:
        params = ConvParams.from_output(ni=ni, no=no, ro=64, co=64, kr=3, kc=3, b=128)
        if kind == "img":
            plan = ImageSizeAwarePlan(params, blocking=ImageBlocking(b_b=b_b, b_co=b_co))
        else:
            plan = BatchSizeAwarePlan(params)
        out.append(ConvolutionEngine(plan).evaluate().gflops)
    return out


def _checks(sweep: Sweep, results: List[ShapeResult], sim, run: Run) -> None:
    """Outside the timed window: every simulated number repeats exactly."""
    clear_timing_cache()
    for r in results:
        plan = plan_convolution(r.params).plan
        again = ConvolutionEngine(plan).evaluate()
        chip, _ = evaluate_chip(r.params, num_groups=4)
        tuned = engine_for_plan(r.tuned.plan).evaluate()
        ok = (
            again.seconds == r.report.seconds
            and again.dma_seconds == r.report.dma_seconds
            and chip == r.chip_gflops
            and tuned.seconds == r.tuned.seconds
        )
        run.check("sweep.sim_repeats_exactly", ok)
    expected = [row.measured_gflops for row in table3.run()]
    rows = table3_rows()
    run.attempted += len(rows)
    for got, want in zip(rows, expected):
        run.check("sweep.table3_matches_experiment", got == want)
    again = {name: value for name, value, _, _ in sim_summary(results)}
    for name, value, _, _ in sim:
        run.check("sweep.sim_metrics_repeat", again[name] == value)


def _layers(results, tracer, t_start, t_end, run: Run, counts) -> None:
    """Per-layer numbers of the traced run (spans and program counters)."""
    n = len(results)
    rows, other = tracer.self_times(t_start, t_end)
    run.closure(rows, other, t_end - t_start, "the timed window's wall time")
    planner = tracer.durations("core.planner")
    timed = tracer.durations("core.conv.timed")
    tune = tracer.durations("tune")
    hits, misses = counts["engine.timing_cache.hits"], counts["engine.timing_cache.misses"]
    run.layer("planner.ms_per_call", 1e3 * sum(planner) / len(planner), "ms")
    run.layer("evaluate.ms_per_shape", 1e3 * sum(timed) / n, "ms")
    run.layer("evaluate.tiles_per_host_s", counts["engine.tiles"] / sum(timed), "1/s")
    run.layer("evaluate.cache_hit_ratio", hits / max(1, hits + misses), "ratio")
    run.layer("tune.s_per_shape", sum(tune) / n, "s")
    run.layer("tune.candidates_per_shape", sum(r.tuned.candidates for r in results) / n, "count")
    run.layer(
        "tune.win_ratio", geomean(r.tuned.gflops / r.report.gflops for r in results), "ratio"
    )
    conv_sim_layers(run, [r.report for r in results], [r.estimate_gflops for r in results])
