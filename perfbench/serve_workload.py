"""``serve``: live serving through ``FleetServer`` with one chip per host core.

Traffic is a seeded 4-shape conv catalog with Zipf skew 1 and 25%
latency-class requests.  Phase 1 is an open loop: Poisson arrivals at
``OPEN_RATE`` from one generator thread, each request timed from the
moment it was *due*, so a stalled generator shows up as latency instead of
hiding as a later send.  Phase 2 is a closed loop that keeps ``CLOSED_K``
requests in flight; its completion rate stands in for capacity.  The
phases alternate in ``SEGMENTS`` rounds spread over the run, and each
metric is the median of its rounds, so both sample the whole run instead
of one stretch of a host whose speed drifts by 20% within half a minute.

Every answer is compared bit for bit with the per-image output of its
shape (``run_sequential`` on a fresh warm pool).  Per-request queue,
execute and resolve times come from the public ``InferenceRequest``
stamps.
"""

from __future__ import annotations

import math
import os
import re
import time
from collections import deque
from typing import Dict, List

import numpy as np

from repro.common.errors import QueueFullError, ReproError, ServerClosedError, ShedError
from repro.core.conv import ConvolutionEngine, clear_timing_cache
from repro.core.params import ConvParams
from repro.core.plans import ImageSizeAwarePlan
from repro.serve import (
    FleetConfig,
    FleetServer,
    ServedModel,
    WarmEnginePool,
    fleet_workload,
    run_sequential,
    synthetic_images,
)

from harness import Run, chunks, conv_sim_layers, peak_rss_mb, percentile

CATALOG_CHANNELS = (16, 18, 20, 22)  # output channels, in Zipf rank order
INPUT_CHANNELS = 16
IMAGE = 16
KERNEL = 3
IMAGES_PER_SHAPE = 4
ZIPF_SKEW = 1.0
LATENCY_FRACTION = 0.25
OPEN_RATE = 300.0  # req/s: about 25% of closed-loop capacity on a 2-core host
OPEN_SHARE = 0.3  # share of the run's seconds spent in the open loop
CLOSED_K = 64
LATENCY_LIMIT_S = 0.050  # goodput: completed within 50 ms of its due time
RESULT_TIMEOUT_S = 60.0
SEGMENTS = 6  # open/closed rounds per run
CLOSED_RAMP = 0.15  # share of each closed round that fills the queues; not counted


class Serve:
    """Set up: catalog, fleet started and prewarmed (planning happens here)."""

    def __init__(self, seed: int, seconds: float, telemetry=None):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.seconds = seconds
        self.models: Dict[str, object] = {}
        self.images: Dict[str, np.ndarray] = {}
        for i, no in enumerate(CATALOG_CHANNELS):
            scale = np.sqrt(2.0 / (INPUT_CHANNELS * KERNEL * KERNEL))
            w = rng.standard_normal((int(no), INPUT_CHANNELS, KERNEL, KERNEL)) * scale
            bias = rng.standard_normal(int(no)) * 0.1
            model = ServedModel.conv(
                w, (IMAGE, IMAGE), bias=bias, activation="relu", name=f"shape{i}"
            )
            self.models[model.name] = model
            self.images[model.name] = synthetic_images(
                IMAGES_PER_SHAPE, model.input_shape, seed=seed * 100 + i
            )
        self.names = sorted(self.models)
        self.telemetry = telemetry
        self.config = FleetConfig(chips=os.cpu_count() or 1, seed=seed)
        self.fleet = FleetServer(self.models, self.config, telemetry=telemetry)
        self.fleet.start()
        self.fleet.prewarm()

    def close(self) -> None:
        self.fleet.close()

    def references(self) -> Dict[str, List[np.ndarray]]:
        """Per-image outputs of every catalog image, one request at a time."""
        refs = {}
        for name in self.names:
            pool = WarmEnginePool(
                model=self.models[name],
                max_batch=self.config.max_batch,
                guarded=self.config.guarded,
                autotune=self.config.autotune,
            )
            refs[name] = run_sequential(pool, self.images[name])[1]
        return refs

    def trace(self, n: int, rate: float, seed: int):
        return fleet_workload(
            self.names,
            n,
            rate,
            seed=seed,
            latency_fraction=LATENCY_FRACTION,
            skew=ZIPF_SKEW,
            images_per_model=IMAGES_PER_SHAPE,
        )


#: The public ``InferenceRequest`` lifecycle stamps a settled outcome keeps.
STAMPS = ("t_enqueue", "t_batched", "t_exec_start", "t_exec_end", "t_done", "batch_size")


class _Outcome:
    """One request's due and send times, then (once settled) its stamps."""

    __slots__ = ("due", "sent", "req", "spec", "ok", *STAMPS)

    def __init__(self, due, sent, req, spec):
        self.due = due
        self.sent = sent
        self.req = req
        self.spec = spec
        self.ok = False


def _settle(outcome: _Outcome, refs) -> None:
    """Wait for one request; it is ok only if answered bit-identically.

    The stamps are copied and the request dropped, so the run holds no
    output tensors.
    """
    req = outcome.req
    if req is None:
        return
    outcome.req = None
    try:
        out = req.result(timeout=RESULT_TIMEOUT_S)
    except ReproError:
        return
    outcome.ok = bool(np.array_equal(out, refs[outcome.spec.model][outcome.spec.image_index]))
    for name in STAMPS:
        setattr(outcome, name, getattr(req, name))


def _submit(serve: Serve, spec, tracer):
    x = serve.images[spec.model][spec.image_index]
    try:
        with tracer.span("serve.fleet"):
            return serve.fleet.submit(x, model=spec.model, slo=spec.slo)
    except (ShedError, QueueFullError, ServerClosedError):
        return None


def open_loop(serve: Serve, trace, refs, tracer) -> List[_Outcome]:
    """Send each request at its due time; settle finished ones while idle."""
    outcomes: List[_Outcome] = []
    pending: deque = deque()
    t0 = time.perf_counter() + 0.005 - trace[0].offset_s
    for spec in trace:
        due = t0 + spec.offset_s
        while pending and pending[0].req.done and due - time.perf_counter() > 2e-4:
            _settle(pending.popleft(), refs)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        outcome = _Outcome(due, sent, _submit(serve, spec, tracer), spec)
        outcomes.append(outcome)
        if outcome.req is not None:
            pending.append(outcome)
    for outcome in pending:
        _settle(outcome, refs)
    return outcomes


def closed_loop(serve: Serve, seconds: float, refs, tracer, trace, i: int):
    """``CLOSED_K`` requests in flight from one thread, sent from ``trace[i]`` on.

    Returns the completion rate after the ramp, the next trace index and
    the number of failed requests.
    """
    inflight: deque = deque()
    done: List[float] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    failures = 0
    while time.perf_counter() < deadline:
        while len(inflight) < CLOSED_K:
            spec = trace[i % len(trace)]
            i += 1
            now = time.perf_counter()
            inflight.append(_Outcome(now, now, _submit(serve, spec, tracer), spec))
        outcome = inflight.popleft()
        _settle(outcome, refs)
        if outcome.ok:
            done.append(outcome.t_done)
        else:
            failures += 1
    t_end = time.perf_counter()
    for outcome in inflight:
        _settle(outcome, refs)
        failures += not outcome.ok
    t_start += CLOSED_RAMP * (t_end - t_start)
    return sum(1 for t in done if t_start <= t < t_end) / (t_end - t_start), i, failures


def measure(serve: Serve, tracer, run: Run) -> None:
    seconds = serve.seconds
    telemetry = serve.telemetry
    refs = serve.references()
    counters0 = _program_counters(serve, telemetry)
    spans0 = len(telemetry.tracer.spans) if telemetry is not None else 0
    trace = serve.trace(max(SEGMENTS, int(OPEN_RATE * OPEN_SHARE * seconds)), OPEN_RATE, serve.seed)
    closed_trace = serve.trace(100_000, 1.0, serve.seed + 1)
    windows: List[List[_Outcome]] = []
    rates: List[float] = []
    closed_sent = closed_failed = 0
    for segment in chunks(trace, SEGMENTS):
        windows.append(open_loop(serve, segment, refs, tracer))
        rate, closed_sent, failed = closed_loop(
            serve, (1.0 - OPEN_SHARE) * seconds / SEGMENTS, refs, tracer, closed_trace, closed_sent
        )
        rates.append(rate)
        closed_failed += failed
    run.host("peak_rss_mb", [peak_rss_mb()], "MB", "lower")

    outcomes = [o for w in windows for o in w]
    run.attempted += len(outcomes) + closed_sent
    open_failed = sum(1 for o in outcomes if not o.ok)
    run.check("serve.answers_bit_identical", open_failed + closed_failed == 0, open_failed + closed_failed)

    ok = [o for o in outcomes if o.ok]
    run.host(
        "p50_ms",
        [1e3 * percentile([o.t_done - o.due for o in w if o.ok], 50) for w in windows],
        "ms",
        "lower",
    )
    run.host(
        "p99_ms",
        [1e3 * percentile([o.t_done - o.due for o in w if o.ok], 99) for w in windows],
        "ms",
        "lower",
    )
    run.host(
        "goodput",
        [sum(o.ok and o.t_done - o.due <= LATENCY_LIMIT_S for o in w) / len(w) for w in windows],
        "ratio",
        "higher",
    )
    run.host("ops_per_s", rates, "1/s", "higher")
    run.metrics["closed_rps"] = run.metrics["ops_per_s"]
    _sim(serve, trace, run)

    if tracer.enabled:
        _layers(serve, ok, tracer, run, counters0, spans0)


def _sim(serve: Serve, trace, run: Run) -> None:
    """Simulated per-request cost of the open-loop trace's shape mix.

    Each shape's full batch runs the pool's image-size-aware plan on one
    core group; a request's share is the batch time over the batch size,
    and each shape counts as often as the seeded trace asks for it.
    """
    reports, estimates = _catalog_walks(serve)
    weights = [sum(1 for spec in trace if spec.model == name) for name in serve.names]
    total = sum(weights)
    run.sim(
        "sim_gflops",
        math.exp(sum(w * math.log(r.gflops) for w, r in zip(weights, reports)) / total),
        "Gflops",
        "higher",
    )
    run.sim(
        "sim_ms",
        1e3 * sum(w * r.seconds / serve.config.max_batch for w, r in zip(weights, reports)) / total,
        "ms",
        "lower",
    )
    again, _ = _catalog_walks(serve, fresh=True)
    run.check(
        "serve.sim_repeats_exactly", all(a.seconds == r.seconds for a, r in zip(again, reports))
    )
    if run.trace:
        conv_sim_layers(run, reports, estimates)


def _catalog_walks(serve: Serve, fresh: bool = False):
    if fresh:
        clear_timing_cache()
    reports, estimates = [], []
    for name in serve.names:
        no, ni, kr, kc = serve.models[name].w.shape
        params = ConvParams(ni=ni, no=no, ri=IMAGE, ci=IMAGE, kr=kr, kc=kc, b=serve.config.max_batch)
        plan = ImageSizeAwarePlan(params)
        reports.append(ConvolutionEngine(plan).evaluate())
        estimates.append(plan.estimate().gflops)
    return reports, estimates


def _program_counters(serve: Serve, telemetry) -> Dict[str, float]:
    if telemetry is None:
        return {}
    counters = telemetry.counters
    chips = range(serve.config.chips)
    return {
        "retries": sum(counters.get(f"serve.chip.{i}.retries") for i in chips),
        "shed": counters.get("serve.fleet.shed")
        + sum(counters.get(f"serve.chip.{i}.shed") for i in chips),
        "engine.runs": counters.get("engine.runs"),
        "engine.packs": counters.get("engine.filter_pack.packs"),
    }


def _layers(serve: Serve, ok: List[_Outcome], tracer, run: Run, counters0, spans0: int) -> None:
    """Per-request stage times from the lifecycle stamps, plus program counters.

    The stages telescope: due -> sent (generator lag) -> enqueued (fleet
    routing) -> batched (batcher queue) -> execution start and end (pool)
    -> done (server resolve), so their sum over requests must equal the
    summed open-loop latency measured from the due times.
    """
    stages = {
        "generator": [o.sent - o.due for o in ok],
        "serve.fleet": [o.t_enqueue - o.sent for o in ok],
        "serve.batcher": [o.t_batched - o.t_enqueue for o in ok],
        "serve.pool": [o.t_exec_end - o.t_exec_start for o in ok],
        "serve.server": [
            (o.t_exec_start - o.t_batched) + (o.t_done - o.t_exec_end)
            for o in ok
        ],
    }
    total = math.fsum(o.t_done - o.due for o in ok)
    rows = {name: math.fsum(values) for name, values in stages.items()}
    run.closure(rows, total - math.fsum(rows.values()), total, "summed open-loop request latency")

    queue = stages["serve.batcher"]
    execute = stages["serve.pool"]
    resolve = [o.t_done - o.t_exec_end for o in ok]
    run.layer("gen.lag_ms_p99", 1e3 * percentile(stages["generator"], 99), "ms")
    run.layer("fleet.submit_us_p50", 1e6 * percentile(tracer.durations("serve.fleet"), 50), "us")
    run.layer("batcher.queue_ms_p50", 1e3 * percentile(queue, 50), "ms")
    run.layer("batcher.queue_ms_p99", 1e3 * percentile(queue, 99), "ms")
    run.layer("batcher.mean_batch", sum(o.batch_size for o in ok) / len(ok), "count")
    run.layer("pool.execute_ms_p50", 1e3 * percentile(execute, 50), "ms")
    run.layer(
        "pool.execute_ms_per_image",
        1e3 * sum(e / o.batch_size for e, o in zip(execute, ok)) / len(ok),
        "ms",
    )
    run.layer("server.resolve_ms_p50", 1e3 * percentile(resolve, 50), "ms")

    telemetry = serve.telemetry
    counters = _program_counters(serve, telemetry)
    delta = {k: counters[k] - counters0[k] for k in counters}
    run.layer("server.retries", delta["retries"], "count")
    run.layer("server.shed", delta["shed"], "count")
    affinity = serve.fleet.affinity_stats()
    run.layer("fleet.affinity_hit_ratio", affinity["hit_rate"], "ratio")
    run.layer("fleet.spills", affinity["spill"], "count")
    runs = [s for s in telemetry.tracer.spans[spans0:] if s.name == "engine.run"]
    images = sum(int(re.search(r"\bb=(\d+)", s.args["params"]).group(1)) for s in runs)
    run.layer("engine.run_ms_per_image", 1e-3 * sum(s.dur_us for s in runs) / max(1, images), "ms")
    run.layer("engine.filter_packs_per_call", delta["engine.packs"] / max(1, delta["engine.runs"]), "count")
    run.check("serve.counters_balanced", serve.fleet.counters_balanced())
