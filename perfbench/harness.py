"""Shared machinery of the benchmark: statistics, host fingerprint, tracer, report.

Every workload module builds a :class:`Run` and fills it with metrics and
check outcomes; :func:`emit` prints the human table, the clock-tagged
record line and, last, the one-line JSON result.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SIM = "sim"
HOST = "host"


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of a sample, as ``statistics.quantiles(n=4)`` gives them."""
    data = list(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def geomean(values: Iterable[float]) -> float:
    data = list(values)
    return math.exp(math.fsum(math.log(v) for v in data) / len(data))


def at_most(a: float, b: float, scale: float) -> bool:
    """``a <= b`` up to float rounding: 1e-12 of ``scale``, the closure's tolerance.

    Simulated times that are equal or ordered in exact arithmetic come out
    of different chains of float additions, so they can cross by a few ulps.
    """
    return a <= b + 1e-12 * scale


def chunks(items: Sequence, k: int) -> List[Sequence]:
    """Split ``items`` into ``k`` contiguous, near-equal, non-empty windows."""
    k = max(1, min(k, len(items)))
    bounds = [round(i * len(items) / k) for i in range(k + 1)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(k)]


# -- the host --------------------------------------------------------------


def _blas_threads(np) -> str:
    """The live thread count of the OpenBLAS numpy ships, else the environment's request."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return "unknown"


def host_fingerprint() -> Dict[str, str]:
    """What a host-clock number depends on beyond the code."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- span tracing ------------------------------------------------------------


class _Span:
    __slots__ = ("_tracer", "_layer", "_name", "_start")

    def __init__(self, tracer: "Tracer", layer: str, name: Optional[str]):
        self._tracer = tracer
        self._layer = layer
        self._name = name or layer

    def __enter__(self) -> None:
        self._tracer._stack().append(self._layer)
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = self._tracer._stack()
        stack.pop()
        self._tracer.spans.append(
            (threading.get_ident(), self._layer, self._name, self._start, end, len(stack))
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans recorded by the benchmark around its calls into each layer.

    A span is (thread, layer, call name, start, end, depth).  Spans nest per thread;
    :meth:`self_times` turns them into per-layer self time that, together
    with the uncovered ``other`` time, adds up to the wall interval.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, str, float, float, int]] = []
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, name: Optional[str] = None) -> _Span:
        return _Span(self, layer, name)

    def wrap(self, layer: str, fn: Callable, name: Optional[str] = None) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span called ``name``."""

        def traced(*args, **kwargs):
            with _Span(self, layer, name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name`` (default: its layer)."""
        return [end - start for _, _, call, start, end, _ in self.spans if call == name]

    def self_times(
        self, t0: float, t1: float, containers: Sequence[str] = ()
    ) -> Tuple[Dict[str, float], float]:
        """Per-layer self seconds in ``[t0, t1]`` and the uncovered seconds.

        Within a thread the innermost open span owns each instant.  Where
        several threads are inside spans at once, the instant is split
        evenly between them, so the rows share wall time instead of
        double-counting it.  A ``containers`` layer (one that hands work to
        other threads and waits for it) owns an instant only while no other
        layer is running.
        """
        per_thread: Dict[int, list] = defaultdict(list)
        for tid, layer, _, start, end, depth in self.spans:
            # Starts sort outer-first, ends inner-first at equal times.
            per_thread[tid].append((start, 1, depth, layer))
            per_thread[tid].append((end, 0, -depth, layer))
        segments = []
        for events in per_thread.values():
            events.sort()
            stack: List[str] = []
            last = None
            for t, is_start, _, layer in events:
                if stack and last is not None and t > last:
                    segments.append((last, t, stack[-1]))
                if is_start:
                    stack.append(layer)
                else:
                    stack.pop()
                last = t
        cuts = sorted({t0, t1, *(s for s, _, _ in segments), *(e for _, e, _ in segments)})
        cuts = [c for c in cuts if t0 <= c <= t1]
        starts = defaultdict(list)
        for seg in segments:
            starts[seg[0]].append(seg)
        rows: Dict[str, float] = defaultdict(float)
        uncovered = 0.0
        active: List[Tuple[float, float, str]] = [
            seg for seg in segments if seg[0] < t0 < seg[1]
        ]
        for a, b in zip(cuts, cuts[1:]):
            active = [seg for seg in active if seg[1] > a] + [
                seg for seg in starts.get(a, ()) if seg[1] > a
            ]
            width = b - a
            owners = [seg[2] for seg in active if seg[2] not in containers] or [
                seg[2] for seg in active
            ]
            if not owners:
                uncovered += width
                continue
            for layer in owners:
                rows[layer] += width / len(owners)
        return dict(rows), uncovered


class NullTracer:
    """Untraced runs: spans cost one attribute lookup."""

    enabled = False

    def span(self, layer: str, name: Optional[str] = None) -> _NullSpan:
        return _NULL_SPAN

    def wrap(self, layer: str, fn: Callable, name: Optional[str] = None) -> Callable:
        return fn


# -- the run record ----------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    clock: str
    better: str
    q1: Optional[float] = None
    q3: Optional[float] = None
    n: int = 1

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "value": self.value,
            "unit": self.unit,
            "clock": self.clock,
            "better": self.better,
        }
        if self.q1 is not None:
            out.update(q1=self.q1, q3=self.q3, n=self.n)
        return out


@dataclass
class Run:
    """Everything one benchmark invocation measured and checked."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    metrics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def host(self, name: str, samples: Sequence[float], unit: str, better: str) -> None:
        """A host-clock metric: the median of per-window samples, with quartiles."""
        q1, med, q3 = quartiles(samples)
        self.metrics[name] = Metric(med, unit, HOST, better, q1, q3, len(samples))

    def sim(self, name: str, value: float, unit: str, better: str) -> None:
        self.metrics[name] = Metric(value, unit, SIM, better)

    def layer(self, name: str, value: float, unit: str, clock: str = HOST) -> None:
        self.layers[name] = Metric(value, unit, clock, "-")

    def check(self, name: str, ok: bool, weight: int = 1) -> None:
        """Record a correctness check; a failure counts ``weight`` failed ops."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if not ok:
            self.failed += weight

    def note(self, text: str) -> None:
        self.notes.append(text)

    def closure(self, rows: Dict[str, float], other: float, total: float, what: str) -> None:
        """Per-layer self-time shares of ``total``; rows plus other must add up."""
        error = abs(math.fsum(rows.values()) + other - total) / total
        self.check("trace.host_rows_close", error < 1e-9)
        self.layer("trace.closure_error", error, "ratio")
        for name, seconds in rows.items():
            self.layer(f"self_share.{name}", seconds / total, "ratio")
        self.layer("self_share.other", other / total, "ratio")
        self.note(
            f"closure over {what}: {total:.6g} s = "
            + " + ".join(f"{k} {v:.4g}" for k, v in sorted(rows.items()))
            + f" + other {other:.4g}"
        )

    def sim_rows(self, compute: float, comm: float, exposed: float, total: float, ok: bool) -> None:
        """Simulated rows of one operation: compute plus exposed communication is the total.

        ``ok`` says the rows closed on every simulated operation they summarize.
        """
        self.check("trace.sim_rows_close", ok and math.isclose(compute + exposed, total, rel_tol=1e-12))
        self.layer("sim.compute_ms", 1e3 * compute, "ms", SIM)
        self.layer("sim.comm_ms", 1e3 * comm, "ms", SIM)
        self.layer("sim.exposed_comm_ms", 1e3 * exposed, "ms", SIM)
        self.note(
            f"sim closure per timed walk: {1e3 * total:.6g} ms = compute {1e3 * compute:.6g} "
            f"+ exposed comm {1e3 * exposed:.6g} (comm busy {1e3 * comm:.6g})"
        )


def conv_sim_layers(
    run: Run, reports: Sequence, estimates: Sequence[float], rows: bool = True
) -> None:
    """Simulated-clock per-layer numbers of a set of 1-CG timed walks.

    With ``rows``, each walk's time is split into compute busy time plus
    the time compute waited on DMA ("exposed comm"): the wait must be
    non-negative and no longer than the DMA busy time, so the pipeline
    never claims more overlap than it had.
    """
    n = len(reports)
    total = math.fsum(r.seconds for r in reports)
    if rows:
        ok = all(
            at_most(r.compute_seconds, r.seconds, r.seconds)
            and at_most(r.seconds, r.compute_seconds + r.dma_seconds, r.seconds)
            for r in reports
        )
        run.sim_rows(
            math.fsum(r.compute_seconds for r in reports) / n,
            math.fsum(r.dma_seconds for r in reports) / n,
            math.fsum(r.seconds - r.compute_seconds for r in reports) / n,
            total / n,
            ok,
        )
    run.layer("sim.dma_busy_ratio", math.fsum(r.dma_seconds for r in reports) / total, "ratio", SIM)
    run.layer("sim.overlap_fraction", math.fsum(r.overlap_fraction for r in reports) / n, "ratio", SIM)
    run.layer(
        "sim.bytes_per_flop",
        sum(r.bytes_get + r.bytes_put for r in reports) / sum(r.flops for r in reports),
        "B/flop",
        SIM,
    )
    run.layer(
        "model.drift_pct",
        100.0 * math.fsum(abs(e - r.gflops) / r.gflops for e, r in zip(estimates, reports)) / n,
        "%",
        SIM,
    )


def emit(run: Run, values: Dict[str, Metric], units: Dict[str, str]) -> None:
    """Print the table, the record line and the one-line JSON result."""
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}")
    fp = host_fingerprint()
    print("host " + "  ".join(f"{k}={v}" for k, v in fp.items()))
    table = {**run.metrics, **run.layers}
    width = max(len(n) for n in table)
    for name in sorted(table):
        m = table[name]
        spread = (
            f"  [q1 {m.q1:.6g}, q3 {m.q3:.6g}, n={m.n}]" if m.q1 is not None else ""
        )
        print(f"  {name:<{width}}  {m.value:>14.6g} {m.unit:<7} {m.clock:<4} {m.better}{spread}")
    for text in run.notes:
        print(f"  note: {text}")
    for name, ok in sorted(run.checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    record = {
        "record": "perfbench/v1",
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "host": fp,
        "metrics": {k: m.as_dict() for k, m in sorted(run.metrics.items())},
        "layers": {k: m.as_dict() for k, m in sorted(run.layers.items())},
        "checks": run.checks,
    }
    print(json.dumps(record, sort_keys=True))
    correct = run.failed == 0 and all(run.checks.values())
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            name: {"value": metric.value, "unit": units[name]} for name, metric in values.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
