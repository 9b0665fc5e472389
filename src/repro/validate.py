"""One declarative spec per machine-readable record, and the one validator.

Every JSON record this package writes and then holds to account is
described here by a :class:`Spec`:

* the eight ``benchmarks/BENCH_*.json`` records (kind = the file name
  between ``BENCH_`` and ``.json``);
* ``trace`` — the Chrome ``trace_event`` JSON the tracer writes;
* ``profile`` — the ``repro.profile/v1`` document of ``repro profile
  --json-out``;
* ``metrics`` — the ``repro.metrics/v1`` snapshot of ``repro metrics
  --json-out``;
* ``oracle`` — the communication-oracle report
  (:meth:`repro.telemetry.oracle.OracleReport.as_dict`).

A spec lists every key as a :class:`Key` — its path, its type and, where
the record promises one, its range or allowed values — then the record's
cross-field invariants as small named functions, and, for a BENCH record,
the ledger metrics ``python -m repro.telemetry.regress`` gates, as
``(name, derivation, direction, rel_tol, abs_tol)``.

Paths are dotted keys; ``name[]`` means every element of the array
``name`` and ``*`` every value of an object.  One type rule holds for
every record: ``bool`` is only ``true``/``false``; ``int`` is an integer
that is not a bool; ``float`` is a *finite* integer or float that is not
a bool (``json.load`` accepts ``NaN``, and a NaN passes every ``x < bar``
comparison).  Invariants run once every key is present and well typed.

:func:`validate` returns the violations of one record (empty = valid);
``python -m repro.validate KIND FILE`` is the command-line gate, and
reports an unreadable or malformed file as a violation too.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.telemetry.metrics import SNAPSHOT_SCHEMA

#: Schema tags of the records that carry one (``repro.metrics/v1`` lives
#: with the snapshot builder in :mod:`repro.telemetry.metrics`).
FLEET_SCHEMA = "repro.fleet/v1"
PROFILE_SCHEMA = "repro.profile/v1"

#: Directions a ledger metric can prefer.
HIGHER = "higher"
LOWER = "lower"

#: Acceptance bars of the fleet record.
MIN_SCALING_4CHIP = 3.0
MAX_P99_RATIO = 1.25
MIN_AFFINITY_HIT_RATE = 0.90
#: Overlapped-vs-serialized speedup every ablation row at >=16 nodes must clear.
MIN_OVERLAP_SPEEDUP = 1.2
#: Mild superlinear scaling (cache/batch effects) is fine; more is a bug.
MAX_EFFICIENCY = 1.25

_MISSING = object()
_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", list: "an array", dict: "an object",
}
_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le))


def _describe(value: Any) -> str:
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    return type(value).__name__


def _type_problem(value: Any, kind: type) -> Optional[str]:
    if kind is float:
        ok = (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value))
        )
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        return f"must be {_TYPE_NAMES[kind]}, got {_describe(value)}"
    if kind is dict:
        odd = [name for name in value if not isinstance(name, str)]
        if odd:
            return f"key {odd[0]!r} must be a string"
    return None


@dataclass(frozen=True)
class Key:
    """One key of a record: where it is, its type, and what it may hold.

    ``ge``/``gt``/``le`` bound a number, or the length of a string or an
    array; ``allowed`` lists the only values the key may take; ``why``
    says what a value outside them means.
    """

    path: str
    kind: type
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    allowed: Tuple[Any, ...] = ()
    optional: bool = False
    why: str = ""

    def check(self, value: Any) -> Optional[str]:
        """What is wrong with ``value`` at this key (``None`` = nothing)."""
        if value is _MISSING:
            return None if self.optional else "missing"
        problem = _type_problem(value, self.kind)
        if problem is not None:
            return problem
        if self.allowed and value not in self.allowed:
            expected = " or ".join(repr(v) for v in self.allowed)
            problem = f"must be {expected}, got {value!r}"
        else:
            sized = isinstance(value, (str, list))
            measure = len(value) if sized else value
            broken = [
                f"{symbol} {getattr(self, name):g}" for name, symbol, holds in _BOUNDS
                if getattr(self, name) is not None
                and not holds(measure, getattr(self, name))
            ]
            if not broken:
                return None
            problem = (
                f"{'length ' if sized else ''}must be {' and '.join(broken)}, "
                f"got {measure!r}"
            )
        return f"{problem} ({self.why})" if self.why else problem

    def locate(self, payload: Any) -> Iterator[Tuple[str, Any]]:
        """``(where, value)`` for every place this key's path reaches."""
        steps: List[str] = []
        for part in self.path.split("."):
            steps.append(part.replace("[]", ""))
            steps.extend(["[]"] * part.count("[]"))
        return _locate(payload, steps, "")


def _locate(node: Any, steps: List[str], where: str) -> Iterator[Tuple[str, Any]]:
    # A missing final key yields _MISSING; a missing or mistyped parent
    # yields nothing, because the parent's own Key reports it.
    if not steps:
        yield where, node
        return
    step, rest = steps[0], steps[1:]
    if step == "[]":
        for i, item in enumerate(node if isinstance(node, list) else ()):
            yield from _locate(item, rest, f"{where}[{i}]")
    elif not isinstance(node, dict):
        return
    elif step == "*":
        for name, item in node.items():
            yield from _locate(item, rest, f"{where}[{name!r}]")
    else:
        here = f"{where}.{step}" if where else step
        if step in node:
            yield from _locate(node[step], rest, here)
        elif not rest:
            yield here, _MISSING


def _keys(kind: type, *paths: str, **options: Any) -> Tuple[Key, ...]:
    """One :class:`Key` of the same type and options per path."""
    return tuple(Key(path, kind, **options) for path in paths)


Invariant = Callable[[Dict[str, Any]], Iterable[str]]
#: ``(name, derivation, direction, rel_tol, abs_tol)``; a derivation is a
#: dotted key path or a function of the record.
LedgerMetric = Tuple[str, Any, str, float, float]


@dataclass(frozen=True)
class Spec:
    """Everything one record kind promises."""

    title: str
    keys: Tuple[Key, ...]
    invariants: Tuple[Invariant, ...] = ()
    ledger: Tuple[LedgerMetric, ...] = ()


# ---------------------------------------------------------------------------
# Cross-field invariants
# ---------------------------------------------------------------------------


def _answered_within_offered(p):
    answered = p["completed"] + p["shed"] + p["rejected"] + p["deadline_misses"]
    if answered > p["offered"]:
        yield f"answered {answered} exceeds offered {p['offered']}"


def _transitions_labelled(p):
    for i, label in enumerate(p["breaker_transitions"]):
        if "->" not in label:
            yield f"breaker_transitions[{i}]: malformed breaker transition {label!r}"


def _first_descent(values: List[Any], strict: bool = False) -> Optional[int]:
    """Index of the first value below (``strict``: not above) the one before."""
    return next(
        (i for i in range(1, len(values))
         if values[i] < values[i - 1] or (strict and values[i] == values[i - 1])),
        None,
    )


def _ascending(rows: str, key: str, strict: bool = False) -> Invariant:
    def ascending(p):
        i = _first_descent([row[key] for row in p[rows]], strict)
        if i is not None:
            order = "strictly ascending" if strict else "ascending"
            yield f"{rows} not sorted by {order} {key} (at [{i}])"
    return ascending


def _mean_active_within_bounds(p):
    d = p["diurnal"]
    if not d["min_chips"] <= d["mean_active_chips"] <= d["chips"]:
        yield (
            f"diurnal.mean_active_chips {d['mean_active_chips']:.2f} outside "
            f"[{d['min_chips']}, {d['chips']}]"
        )


def _losses_per_step(p):
    if len(p["losses"]) != p["steps"]:
        yield f"{len(p['losses'])} losses recorded for {p['steps']} steps"


def _overlap_clears_bar(p):
    for i, row in enumerate(p["overlap_ablation"]):
        if row["nodes"] >= 16 and row["speedup"] < MIN_OVERLAP_SPEEDUP:
            yield (
                f"overlap_ablation[{i}].speedup {row['speedup']:.3f} at "
                f"{row['nodes']} nodes is below the {MIN_OVERLAP_SPEEDUP}x bar"
            )


def _multi_node_traffic(p):
    if p["nodes_executed"] > 1 and p["comm_counters"].get("comm.link_bytes", 0) <= 0:
        yield "multi-node run recorded no comm.link_bytes — traffic accounting broken"


def _phase_fields(p):
    for i, event in enumerate(p["traceEvents"]):
        for key in ("ts", "dur") if event["ph"] == "X" else ("args",):
            if key not in event:
                yield f"traceEvents[{i}].{key}: missing on a {event['ph']!r} event"


def _metadata_consistent(p):
    # The same (kind, pid, tid) declared with *different* labels: a viewer
    # silently keeps one.  Identical redeclarations are fine — merging a
    # serve trace and a cluster trace repeats the shared tracks.
    declared: Dict[Tuple[Any, ...], Tuple[int, Any]] = {}
    for i, event in enumerate(p["traceEvents"]):
        if event["ph"] != "M":
            continue
        name, pid, tid = event["name"], event["pid"], event["tid"]
        label = event.get("args", {}).get("name")
        first, first_label = declared.setdefault((name, pid, tid), (i, label))
        if first_label != label:
            yield (
                f"traceEvents[{i}]: metadata {name!r} for pid={pid} tid={tid} "
                f"conflicts with traceEvents[{first}] "
                f"({first_label!r} != {label!r})"
            )


def _flagged_tally(section: Optional[str]) -> Invariant:
    def flagged_tally(p):
        report = p[section] if section else p
        actual = sum(
            1 for row in report["rows"] if isinstance(row, dict) and row.get("flagged")
        )
        if "flagged" in report and report["flagged"] != actual:
            where = f"{section}.flagged" if section else "flagged"
            yield f"{where} is {report['flagged']!r} but {actual} row(s) are flagged"
    return flagged_tally


def _buckets_sum_to_count(p):
    for name, h in p["histograms"].items():
        total = sum(h["buckets"].values())
        expected = h["count"] - h.get("zero_count", 0)
        if total != expected:
            yield (
                f"histograms[{name!r}]: bucket counts sum to {total}, "
                f"expected {expected}"
            )


def _quantiles_ordered(p):
    for name, h in p["histograms"].items():
        if h["p99"] < h["p50"]:
            yield f"histograms[{name!r}]: p99 {h['p99']} below p50 {h['p50']}"


def _series_within_capacity(p):
    for name, s in p["series"].items():
        if len(s["points"]) > s["capacity"]:
            yield (
                f"series[{name!r}]: {len(s['points'])} points exceed "
                f"capacity {s['capacity']}"
            )


def _series_forward_in_time(p):
    for name, s in p["series"].items():
        times = [t for t, _ in s["points"]]
        i = _first_descent(times)
        if i is not None:
            yield (
                f"series[{name!r}].points[{i}] goes back in time "
                f"({times[i]} < {times[i - 1]})"
            )


def _attainment_is_bound_over_measured(p):
    for i, row in enumerate(p["rows"]):
        expect = row["bound_bytes"] / row["measured_bytes"]
        if abs(row["attainment"] - expect) > 1e-9 * max(1.0, expect):
            yield f"rows[{i}].attainment {row['attainment']} != bound/measured {expect}"


def _direct_baseline_per_shape(p):
    # Attainment of the lowered families only means something relative to
    # the direct row of the same layer.
    shapes: Dict[Tuple[int, ...], set] = {}
    for row in p["rows"]:
        shapes.setdefault(tuple(row["params"]), set()).add(row["algorithm"])
    for shape, algorithms in shapes.items():
        if "direct" not in algorithms:
            yield f"shape {list(shape)} has no direct baseline row"


# ---------------------------------------------------------------------------
# The specs
# ---------------------------------------------------------------------------


def _scaling_curve(curve: str, **length: Any) -> Tuple[Key, ...]:
    return (
        Key(curve, list, **length),
        Key(f"{curve}[]", dict),
        Key(f"{curve}[].nodes", int),
        Key(f"{curve}[].step_seconds", float),
        Key(f"{curve}[].efficiency", float, gt=0, le=MAX_EFFICIENCY),
    )


def _flag_report(section: str) -> Tuple[Key, ...]:
    return (
        Key(section, dict),
        Key(f"{section}.rows", list),
        Key(f"{section}.flagged", int),
        Key(f"{section}.threshold", float),
    )


_WRONG_ANSWERS = "wrong answers recorded; the zero-wrong-answer contract"

SPECS: Dict[str, Spec] = {
    "fastpath": Spec(
        "mesh-fast path bench record (BENCH_fastpath.json)",
        keys=(
            Key("conv_forward", dict),
            Key("conv_forward.speedup", float),
            Key("conv_forward.bit_identical", bool),
        ),
        ledger=(
            ("conv_speedup", "conv_forward.speedup", HIGHER, 0.25, 0.0),
            ("bit_identical", "conv_forward.bit_identical", HIGHER, 0.0, 0.0),
        ),
    ),
    "autotune": Spec(
        "autotuner bench record (BENCH_autotune.json)",
        keys=(
            *_keys(dict, "heuristic_vs_tuned", "fused_vs_unfused",
                   "batch_sharding", "plan_cache", "parity"),
            *_keys(float, "heuristic_vs_tuned.speedup", "fused_vs_unfused.speedup",
                   "batch_sharding.scaling"),
            Key("plan_cache.warm_measured", int),
            Key("parity.matches_reference", bool),
        ),
        ledger=(
            ("tuned_speedup", "heuristic_vs_tuned.speedup", HIGHER, 0.15, 0.0),
            ("fused_speedup", "fused_vs_unfused.speedup", HIGHER, 0.15, 0.0),
            ("sharding_scaling", "batch_sharding.scaling", HIGHER, 0.15, 0.0),
            ("warm_measured", "plan_cache.warm_measured", LOWER, 0.0, 0.0),
            ("parity", "parity.matches_reference", HIGHER, 0.0, 0.0),
        ),
    ),
    "telemetry": Spec(
        "telemetry overhead and drift bench record (BENCH_telemetry.json)",
        keys=(
            Key("fast_path_forward", dict),
            Key("fast_path_forward.enabled_overhead_pct", float),
            Key("table3_drift", dict),
            Key("table3_drift.flagged", int),
        ),
        ledger=(
            # The fast-path bar is 2 percentage *points* of overhead slack —
            # absolute, because the committed baseline can be near (or
            # below) zero where relative slack degenerates.
            ("fastpath_overhead_pct", "fast_path_forward.enabled_overhead_pct",
             LOWER, 0.0, 2.0),
            ("drift_flagged", "table3_drift.flagged", LOWER, 0.0, 0.0),
        ),
    ),
    "serve": Spec(
        "inference-server bench record (BENCH_serve.json)",
        keys=(
            *_keys(dict, "summary", "throughput", "throughput.batched",
                   "throughput.batched.latency", "warm_cache", "filter_pack"),
            *_keys(float, "summary.batched_vs_sequential_speedup",
                   "throughput.batched.latency.p99_ms", "filter_pack.speedup"),
            Key("throughput.bit_identical_outputs", bool),
            Key("warm_cache.steady_state_tuner_measurements", int),
        ),
        ledger=(
            ("batched_speedup", "summary.batched_vs_sequential_speedup",
             HIGHER, 0.30, 0.0),
            ("p99_ms", "throughput.batched.latency.p99_ms", LOWER, 0.50, 0.0),
            ("bit_identical", "throughput.bit_identical_outputs", HIGHER, 0.0, 0.0),
            ("steady_state_tuner_measurements",
             "warm_cache.steady_state_tuner_measurements", LOWER, 0.0, 0.0),
            ("filter_pack_speedup", "filter_pack.speedup", HIGHER, 0.30, 0.0),
        ),
    ),
    "chaos_serve": Spec(
        "chaos-serve report (BENCH_chaos_serve.json, serve --chaos --json-out)",
        keys=(
            Key("seed", int),
            *_keys(int, "offered", "completed", "shed", "rejected",
                   "deadline_misses", "errors", "breaker_opened",
                   "breaker_half_opened", "breaker_closed", "retries", "hedges",
                   ge=0),
            Key("wrong_answers", int, allowed=(0,), why=_WRONG_ANSWERS),
            Key("availability", float, ge=0, le=1),
            Key("breaker_transitions", list),
            Key("breaker_transitions[]", str),
            *_keys(dict, "demotions", "fault_events"),
            *_keys(float, "p50_ms_fault", "p99_ms_fault", "p50_ms_clean",
                   "p99_ms_clean"),
            Key("counters_balanced", bool, allowed=(True,),
                why="serve counters did not balance"),
        ),
        invariants=(_answered_within_offered, _transitions_labelled),
        ledger=(
            ("availability", "availability", HIGHER, 0.0, 0.01),
            ("wrong_answers", "wrong_answers", LOWER, 0.0, 0.0),
            ("counters_balanced", "counters_balanced", HIGHER, 0.0, 0.0),
            ("breaker_cycles",
             lambda p: min(p["breaker_opened"], p["breaker_half_opened"],
                           p["breaker_closed"]),
             HIGHER, 0.0, 0.0),
        ),
    ),
    "fleet": Spec(
        f"{FLEET_SCHEMA} bench record (BENCH_fleet.json)",
        keys=(
            Key("schema", str, allowed=(FLEET_SCHEMA,)),
            Key("rows", list, ge=1),
            Key("rows[]", dict),
            Key("rows[].chips", int),
            *_keys(float, "rows[].offered_rps", "rows[].p50_ms", "rows[].p99_ms",
                   "rows[].affinity_hit_rate", "rows[].mean_batch"),
            Key("rows[].throughput_rps", float, gt=0),
            Key("scaling_4chip", float, ge=MIN_SCALING_4CHIP,
                why="fleet throughput not >=3x at 4 chips"),
            Key("p99_ratio_4v1", float, le=MAX_P99_RATIO,
                why="p99 not matched across chip counts"),
            Key("affinity_hit_rate", float, ge=MIN_AFFINITY_HIT_RATE),
            Key("real_fleet", dict),
            *_keys(int, "real_fleet.chips", "real_fleet.requests"),
            Key("real_fleet.completed", int, ge=1,
                why="the real fleet completed no requests"),
            Key("real_fleet.wrong_answers", int, allowed=(0,), why=_WRONG_ANSWERS),
            Key("real_fleet.bit_identical", bool, allowed=(True,),
                why="outputs not bit-identical to the single-chip server"),
            Key("real_fleet.counters_balanced", bool, allowed=(True,),
                why="real fleet counters do not balance"),
            Key("real_fleet.affinity_hit_rate", float, ge=MIN_AFFINITY_HIT_RATE),
            Key("diurnal", dict),
            *_keys(int, "diurnal.requests", "diurnal.chips", "diurnal.min_chips"),
            Key("diurnal.scale_ups", int, ge=1, why="autoscaler never scaled up"),
            Key("diurnal.scale_parks", int, ge=1,
                why="autoscaler never parked a chip"),
            *_keys(float, "diurnal.mean_active_chips", "diurnal.p99_ms",
                   "diurnal.static_p99_ms"),
        ),
        invariants=(
            _ascending("rows", "chips", strict=True),
            _mean_active_within_bounds,
        ),
        ledger=(
            ("scaling_4chip", "scaling_4chip", HIGHER, 0.10, 0.0),
            ("p99_ratio_4v1", "p99_ratio_4v1", LOWER, 0.25, 0.0),
            ("affinity_hit_rate", "affinity_hit_rate", HIGHER, 0.0, 0.02),
            ("wrong_answers", "real_fleet.wrong_answers", LOWER, 0.0, 0.0),
            ("bit_identical", "real_fleet.bit_identical", HIGHER, 0.0, 0.0),
            ("counters_balanced", "real_fleet.counters_balanced", HIGHER, 0.0, 0.0),
        ),
    ),
    "algos": Spec(
        "conv algorithm zoo bench record (BENCH_algos.json)",
        keys=(
            Key("rows", list, ge=1),
            Key("rows[]", dict),
            Key("rows[].speedup_vs_direct", float),
            Key("non_direct_winners", int),
            Key("oracle", dict),
            Key("oracle.flagged", int),
        ),
        ledger=(
            ("non_direct_winners", "non_direct_winners", HIGHER, 0.0, 0.0),
            ("best_speedup_vs_direct",
             lambda p: max(row["speedup_vs_direct"] for row in p["rows"]),
             HIGHER, 0.15, 0.0),
            ("oracle_flagged", "oracle.flagged", LOWER, 0.0, 0.0),
        ),
    ),
    "dataparallel": Spec(
        "data-parallel training report (BENCH_dataparallel.json, "
        "train --json-out)",
        keys=(
            Key("seed", int),
            Key("topology", str),
            *_keys(int, "bucket_bytes", "global_batch", "steps", "jobs"),
            Key("nodes_executed", int, ge=1),
            Key("overlap", bool),
            *_keys(list, "losses", "step_seconds", "fault_events"),
            *_keys(float, "final_loss", "final_accuracy", "comm_compute_ratio"),
            Key("replicas_in_lockstep", bool, allowed=(True,),
                why="replicas are not in bitwise lockstep after the run"),
            Key("throughput_samples_per_second", float, gt=0),
            Key("comm_counters", dict),
            Key("comm_counters.*", float, ge=0),
            Key("parity", dict),
            Key("parity.node_counts", list),
            *_keys(int, "parity.global_batch", "parity.grain", "parity.steps"),
            Key("parity.bitwise_identical", bool, allowed=(True,),
                why="N-node training does not reproduce single-node weights"),
            Key("parity.pairwise_vs_first", dict),
            *_keys(bool, "parity.matches_plain_sgd", "parity.replicas_in_lockstep"),
            *_scaling_curve("weak_scaling", ge=1),
            *_scaling_curve("strong_scaling"),
            Key("overlap_ablation", list, ge=1),
            Key("overlap_ablation[]", dict),
            Key("overlap_ablation[].nodes", int),
            *_keys(float, "overlap_ablation[].overlapped_seconds",
                   "overlap_ablation[].serialized_seconds",
                   "overlap_ablation[].speedup"),
        ),
        invariants=(
            _losses_per_step,
            _ascending("weak_scaling", "nodes"),
            _ascending("strong_scaling", "nodes"),
            _ascending("overlap_ablation", "nodes"),
            _overlap_clears_bar,
            _multi_node_traffic,
        ),
        ledger=(
            ("parity", "parity.bitwise_identical", HIGHER, 0.0, 0.0),
            ("weak_efficiency_at_scale", lambda p: p["weak_scaling"][-1]["efficiency"],
             HIGHER, 0.0, 0.02),
            ("overlap_speedup",
             lambda p: max(row["speedup"] for row in p["overlap_ablation"]),
             HIGHER, 0.15, 0.0),
        ),
    ),
    "trace": Spec(
        "Chrome trace_event JSON (profile --trace-out, SpanTracer.write)",
        keys=(
            Key("traceEvents", list),
            Key("traceEvents[]", dict),
            Key("traceEvents[].ph", str, allowed=("X", "M")),
            Key("traceEvents[].name", str, ge=1),
            *_keys(int, "traceEvents[].pid", "traceEvents[].tid"),
            *_keys(float, "traceEvents[].ts", "traceEvents[].dur", ge=0,
                   optional=True),
            Key("traceEvents[].cat", str, optional=True),
            Key("traceEvents[].args", dict, optional=True),
        ),
        invariants=(_phase_fields, _metadata_consistent),
    ),
    "profile": Spec(
        f"{PROFILE_SCHEMA} document (profile --json-out)",
        keys=(
            Key("schema", str, allowed=(PROFILE_SCHEMA,)),
            Key("params", str, ge=1),
            Key("chip_gflops", float, ge=0),
            Key("counters", dict),
            Key("counters.*", float),
            *_flag_report("drift"),
            *_flag_report("oracle"),
        ),
        invariants=(_flagged_tally("drift"), _flagged_tally("oracle")),
    ),
    "metrics": Spec(
        f"{SNAPSHOT_SCHEMA} snapshot (metrics --json-out)",
        keys=(
            Key("schema", str, allowed=(SNAPSHOT_SCHEMA,)),
            *_keys(dict, "counters", "histograms", "gauges", "series"),
            Key("counters.*", float),
            Key("histograms.*", dict),
            Key("histograms.*.count", int, ge=0),
            *_keys(float, *(f"histograms.*.{k}" for k in (
                "sum", "min", "max", "mean", "p50", "p90", "p99"))),
            Key("histograms.*.zero_count", int, optional=True),
            Key("histograms.*.buckets", dict),
            Key("histograms.*.buckets.*", int),
            Key("gauges.*", dict),
            *_keys(float, *(f"gauges.*.{k}" for k in ("value", "min", "max", "updates"))),
            Key("series.*", dict),
            Key("series.*.capacity", int, ge=1),
            Key("series.*.points", list),
            Key("series.*.points[]", list, ge=2, le=2),
            Key("series.*.points[][]", float),
        ),
        invariants=(
            _buckets_sum_to_count,
            _quantiles_ordered,
            _series_within_capacity,
            _series_forward_in_time,
        ),
    ),
    "oracle": Spec(
        "communication-oracle report (OracleReport.as_dict)",
        keys=(
            Key("threshold", float, gt=0),
            Key("flagged", int, optional=True),
            Key("rows", list, ge=1),
            Key("rows[]", dict),
            Key("rows[].params", list, ge=5, le=5),
            Key("rows[].params[]", int),
            Key("rows[].algorithm", str, allowed=("direct", "im2col", "winograd")),
            *_keys(int, "rows[].measured_bytes", "rows[].bound_bytes", gt=0),
            Key("rows[].attainment", float, gt=0),
            Key("rows[].flagged", bool),
        ),
        invariants=(
            _attainment_is_bound_over_measured,
            _flagged_tally(None),
            _direct_baseline_per_shape,
        ),
    ),
}


# ---------------------------------------------------------------------------
# The validator, the ledger derivation and the CLI
# ---------------------------------------------------------------------------


def validate(kind: str, payload: Any) -> List[str]:
    """Every violation of ``kind``'s spec in ``payload`` (empty = valid)."""
    try:
        spec = SPECS[kind]
    except KeyError:
        raise ValueError(
            f"unknown record kind {kind!r} (known: {', '.join(sorted(SPECS))})"
        ) from None
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {_describe(payload)}"]
    violations = [
        f"{where}: {problem}"
        for key in spec.keys
        for where, value in key.locate(payload)
        for problem in [key.check(value)]
        if problem is not None
    ]
    if violations:
        return violations
    return [message for invariant in spec.invariants for message in invariant(payload)]


def read_record(kind: str, path: str) -> Tuple[Any, List[str]]:
    """Load ``path`` and validate it; an unreadable file is a violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        return None, [f"cannot read {path}: {exc.strerror or exc}"]
    except (ValueError, RecursionError) as exc:  # also too deeply nested
        return None, [f"{path} is not valid JSON: {exc}"]
    return payload, validate(kind, payload)


def derive(payload: Dict[str, Any], derivation: Any) -> Any:
    """One ledger value: a key path's value, or a function of the record.

    A contract boolean becomes a zero-tolerance ``1.0`` (holds) / ``0.0``.
    """
    if callable(derivation):
        value = derivation(payload)
    else:
        value = payload
        for step in derivation.split("."):
            value = value[step]
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return value


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in SPECS:
        if len(argv) == 2:
            print(f"validate: unknown KIND {argv[0]!r}")
        print("usage: python -m repro.validate KIND FILE")
        for kind, spec in sorted(SPECS.items()):
            print(f"  {kind:<13} {spec.title}")
        return 2
    kind, path = argv
    _, violations = read_record(kind, path)
    if violations:
        print(f"{path}: INVALID {kind} record ({len(violations)} violation(s))")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"{path}: valid {SPECS[kind].title}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
