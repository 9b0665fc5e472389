"""``train``: executed data-parallel SGD on two simulated nodes.

A small CNN with seeded weights and data, whose ``Conv2D`` layers run on
the simulated engine (``engine="simulated"``), trains with
``ClusterTrainer(nodes=2, jobs=2)``.
Weights change every step, so the engines' filter packs are rebuilt each
step, where the serve workload reuses frozen packs.  The simulated step
time comes from the trainer's ``StepTimeline``.

After the timed window the replicas must be in bitwise lockstep, and a
1-node trainer replaying the same batches must end with bitwise-equal
weights (exact gradient reduction makes the node count invisible).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.core.conv import ConvolutionEngine
from repro.core.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU
from repro.core.network import Sequential, synthetic_image_dataset
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.scale import cluster
from repro.scale.cluster import ClusterTrainer, weights_bitwise_equal

from harness import Run, at_most, chunks, conv_sim_layers, geomean, peak_rss_mb, percentile

INPUT = (3, 18, 18)
CLASSES = 10
# Fixed widths: at 15 instead of 16 first-layer channels a step ran 15-20%
# faster, so a seeded width made the host clock measure the draw.
CONV1_CHANNELS = 16
CONV2_CHANNELS = 32
NODES = 2
GLOBAL_BATCH = 64
DATASET_BATCHES = 16
WINDOWS = 5


def network_factory(seed: int):
    """A deterministic builder of the CNN with seeded weights (identical replicas)."""
    c1, c2 = CONV1_CHANNELS, CONV2_CHANNELS
    side = ((INPUT[1] - 2) // 2 - 2) // 2

    def build():
        rng = np.random.default_rng(seed + 1)
        return Sequential(
            [
                Conv2D(INPUT[0], c1, 3, 3, rng=rng, engine="simulated"),
                ReLU(),
                AvgPool2D(2),
                Conv2D(c1, c2, 3, 3, rng=rng, engine="simulated"),
                ReLU(),
                AvgPool2D(2),
                Flatten(),
                Dense(c2 * side * side, CLASSES, rng=rng),
            ]
        )

    return build


def trainer(seed: int, nodes: int, jobs: int, telemetry=None):
    return ClusterTrainer(
        network_factory(seed),
        nodes=nodes,
        input_shape=INPUT,
        grain=GLOBAL_BATCH // NODES,
        jobs=jobs,
        telemetry=telemetry,
    )


class Train:
    """Set up: data, trainer, and one warm-up step (plans and step profile)."""

    def __init__(self, seed: int, seconds: float, telemetry=None):
        self.seed = seed
        self.seconds = seconds
        self.telemetry = telemetry
        self.x, self.y = synthetic_image_dataset(
            GLOBAL_BATCH * DATASET_BATCHES, *INPUT, CLASSES, rng=np.random.default_rng(seed)
        )
        self.trainer = trainer(seed, NODES, NODES, telemetry)
        self.steps = 0
        self.step()

    def batch(self, i: int):
        lo = (i % DATASET_BATCHES) * GLOBAL_BATCH
        return self.x[lo : lo + GLOBAL_BATCH], self.y[lo : lo + GLOBAL_BATCH]

    def step(self):
        report = self.trainer.step(*self.batch(self.steps))
        self.steps += 1
        return report

    def close(self) -> None:
        pass


def measure(train: Train, tracer, run: Run) -> None:
    restore = _instrument(train, tracer) if tracer.enabled else None
    try:
        _measure(train, train.seconds, tracer, run)
    finally:
        if restore is not None:
            restore()


def _measure(train: Train, seconds: float, tracer, run: Run) -> None:
    counters = train.telemetry.counters if train.telemetry is not None else None
    packs0 = (counters.get("engine.filter_pack.packs"), counters.get("engine.runs")) if counters else None
    step_s: List[float] = []
    reports = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        reports.append(train.step())
        step_s.append(time.perf_counter() - t0)
    t_end = time.perf_counter()
    run.host("peak_rss_mb", [peak_rss_mb()], "MB", "lower")
    run.attempted += len(step_s)

    windows = chunks(step_s, WINDOWS)
    run.host("ops_per_s", [GLOBAL_BATCH * len(w) / sum(w) for w in windows], "1/s", "higher")
    run.host("p50_ms", [1e3 * percentile(w, 50) for w in windows], "ms", "lower")
    run.host("p99_ms", [1e3 * percentile(w, 99) for w in windows], "ms", "lower")
    run.metrics["samples_per_s"] = run.metrics["ops_per_s"]

    timeline = reports[0].timeline
    run.sim("sim_ms", 1e3 * timeline.step_seconds, "ms", "lower")
    run.metrics["sim_step_ms"] = run.metrics["sim_ms"]
    run.check("train.sim_step_repeats", all(r.timeline == timeline for r in reports))
    conv_reports, estimates = _conv_walks(train)
    run.sim("sim_gflops", geomean(r.gflops for r in conv_reports), "Gflops", "higher")
    if tracer.enabled:
        rows, other = tracer.self_times(t_start, t_end, containers=("scale.cluster",))
        run.closure(rows, other, t_end - t_start, "the timed window's wall time")
        n = len(step_s)
        run.layer("net.forward_ms", 1e3 * sum(tracer.durations("net.forward")) / n, "ms")
        run.layer("net.backward_ms", 1e3 * sum(tracer.durations("net.backward")) / n, "ms")
        run.layer("sgd.step_ms", 1e3 * sum(tracer.durations("sgd.step")) / n, "ms")
        run.layer("exchange.reduce_ms", 1e3 * sum(tracer.durations("scale.exchange")) / n, "ms")
        conv = tracer.durations("core.conv.functional")
        run.layer("engine.run_ms_per_image", 1e3 * sum(conv) / (n * GLOBAL_BATCH * 2), "ms")
        packs = counters.get("engine.filter_pack.packs") - packs0[0]
        runs = counters.get("engine.runs") - packs0[1]
        run.layer("engine.filter_packs_per_call", packs / max(1, runs), "count")
        run.sim_rows(
            timeline.compute_seconds,
            timeline.comm_seconds,
            timeline.exposed_comm_seconds,
            timeline.step_seconds,
            all(
                at_most(r.timeline.exposed_comm_seconds, r.timeline.comm_seconds, r.timeline.step_seconds)
                for r in reports
            ),
        )
        conv_sim_layers(run, conv_reports, estimates, rows=False)

    # After the trace is read: the replay's own calls must not count.
    run.check("train.replicas_in_lockstep", train.trainer.replicas_in_lockstep())
    run.check("train.matches_one_node", _one_node_replay(train))


def _conv_walks(train: Train):
    """1-CG timed walks of the planned forward convolutions at the micro-batch."""
    c1, c2 = CONV1_CHANNELS, CONV2_CHANNELS
    b = GLOBAL_BATCH // NODES
    side = (INPUT[1] - 2) // 2
    shapes = [
        ConvParams(ni=INPUT[0], no=c1, ri=INPUT[1], ci=INPUT[2], kr=3, kc=3, b=b),
        ConvParams(ni=c1, no=c2, ri=side, ci=side, kr=3, kc=3, b=b),
    ]
    reports, estimates = [], []
    for params in shapes:
        plan = plan_convolution(params).plan
        reports.append(ConvolutionEngine(plan).evaluate())
        estimates.append(plan.estimate().gflops)
    return reports, estimates


def _one_node_replay(train: Train) -> bool:
    """Outside the timed window: one node, same batches, same final weights."""
    single = trainer(train.seed, 1, 1)
    for i in range(train.steps):
        single.step(*train.batch(i))
    return weights_bitwise_equal(single.weights(), train.trainer.weights())


def _instrument(train: Train, tracer):
    """Traced run only: record spans around each layer's public calls.

    Returns the function that puts back the module-level
    ``reduce_micro_gradients`` the trainer looks up on every step.
    """
    t = train.trainer
    t.step = tracer.wrap("scale.cluster", t.step)
    for replica in t.replicas:
        replica.forward = tracer.wrap("core.network", replica.forward, "net.forward")
        replica.backward = tracer.wrap("core.network", replica.backward, "net.backward")
        for layer in replica.layers:
            if isinstance(layer, Conv2D):
                layer.forward = tracer.wrap("core.conv.functional", layer.forward)
    for optimizer in t.optimizers:
        optimizer.step = tracer.wrap("core.network", optimizer.step, "sgd.step")
    original = cluster.reduce_micro_gradients
    cluster.reduce_micro_gradients = tracer.wrap("scale.exchange", original)

    def restore() -> None:
        cluster.reduce_micro_gradients = original

    return restore
