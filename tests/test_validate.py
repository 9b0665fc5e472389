"""The one record validator: parity with every check it replaced, the
non-finite rule, the committed records, the ledger and the CLI."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.validate import SPECS, main, read_record, validate

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _bench(kind):
    return json.loads((BENCH_DIR / f"BENCH_{kind}.json").read_text())


def _metadata(pid, tid, label):
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label}}


_TRACE = {
    "traceEvents": [
        {"name": "conv", "cat": "cli", "ph": "X", "ts": 0.0, "dur": 1.5,
         "pid": 1, "tid": 1, "args": {"tile": 0}},
        _metadata(1, 1, "host"),
    ]
}

_PROFILE = {
    "schema": "repro.profile/v1",
    "params": "Ni=32 No=32 16x16 K=3 B=16",
    "chip_gflops": 12.5,
    "counters": {"conv.forward.calls": 1, "dma.bytes": 4096.0},
    "drift": {
        "threshold": 0.25,
        "flagged": 1,
        "rows": [{"flagged": True}, {"flagged": False}],
    },
    "oracle": {"threshold": 0.5, "flagged": 0, "rows": []},
}

_METRICS = {
    "schema": "repro.metrics/v1",
    "counters": {"serve.requests": 3},
    "histograms": {
        "serve.latency_ms": {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 2.0, "p90": 3.0, "p99": 3.0, "zero_count": 0,
            "buckets": {"0": 1, "1": 2},
        }
    },
    "gauges": {"serve.inflight": {"value": 1.0, "min": 0.0, "max": 2.0, "updates": 3}},
    "series": {
        "serve.queue_depth": {
            "capacity": 4, "recorded": 2, "dropped": 0,
            "points": [[0.0, 1.0], [1.0, 2.0]],
        }
    },
}


def _oracle_row(algorithm, measured):
    return {"params": [8, 8, 8, 3, 8], "algorithm": algorithm, "plan": "p",
            "measured_bytes": measured, "bound_bytes": 100,
            "attainment": 100 / measured, "gflops": 1.0, "flagged": False}


_ORACLE = {
    "threshold": 0.02,
    "flagged": 0,
    "rows": [_oracle_row("direct", 400), _oracle_row("winograd", 500)],
}

VALID = {
    "chaos_serve": lambda: _bench("chaos_serve"),
    "fleet": lambda: _bench("fleet"),
    "dataparallel": lambda: _bench("dataparallel"),
    "trace": lambda: copy.deepcopy(_TRACE),
    "profile": lambda: copy.deepcopy(_PROFILE),
    "metrics": lambda: copy.deepcopy(_METRICS),
    "oracle": lambda: copy.deepcopy(_ORACLE),
}


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value

    return mutate


def _drop(*path):
    def mutate(payload):
        node = payload
        for step in path[:-1]:
            node = node[step]
        del node[path[-1]]

    return mutate


def _replace(value):
    return lambda payload: value


_CHAOS_TALLIES = (
    "offered", "completed", "shed", "rejected", "deadline_misses", "errors",
    "wrong_answers", "breaker_opened", "breaker_half_opened", "breaker_closed",
    "retries", "hedges",
)
_HIST = ("histograms", "serve.latency_ms")
_SERIES = ("series", "serve.queue_depth")

#: (kind, mutation of a valid record, text a violation must contain) for
#: every check the per-record validators made before the specs replaced
#: them.  ``None`` = any violation.
PARITY = [
    # chaos-serve report
    ("chaos_serve", _drop("availability"), "availability"),
    ("chaos_serve", _set("completed", "many"), "completed"),
    ("chaos_serve", _set("offered", True), "offered"),
    ("chaos_serve", _set("demotions", []), "demotions"),
    ("chaos_serve", _set("availability", 1.5), "availability"),
    *[("chaos_serve", _set(key, -1), key) for key in _CHAOS_TALLIES],
    ("chaos_serve", _set("offered", 1), "offered"),
    ("chaos_serve", _set("wrong_answers", 1), "wrong answer"),
    ("chaos_serve", _set("counters_balanced", False), "balance"),
    ("chaos_serve", _set("breaker_transitions", ["opened!"]), "transition"),
    # fleet record
    ("fleet", _set("schema", "repro.fleet/v0"), "schema"),
    ("fleet", _set("rows", []), "rows"),
    ("fleet", _set("rows", {}), "rows"),
    ("fleet", _set("rows", 0, "x"), "rows[0]"),
    ("fleet", _drop("rows", 0, "p99_ms"), "p99_ms"),
    ("fleet", _set("rows", 0, "chips", 1.5), "chips"),
    ("fleet", _set("rows", 1, "chips", 1), "chips"),
    ("fleet", _set("rows", 0, "throughput_rps", 0.0), "throughput"),
    ("fleet", _set("scaling_4chip", "fast"), "scaling_4chip"),
    ("fleet", _set("scaling_4chip", 2.0), "scaling_4chip"),
    ("fleet", _set("p99_ratio_4v1", 2.0), "p99_ratio"),
    ("fleet", _set("affinity_hit_rate", 0.5), "affinity_hit_rate"),
    ("fleet", _drop("real_fleet"), "real_fleet"),
    ("fleet", _drop("real_fleet", "requests"), "requests"),
    ("fleet", _set("real_fleet", "wrong_answers", 1), "wrong answer"),
    ("fleet", _set("real_fleet", "bit_identical", False), "bit-identical"),
    ("fleet", _set("real_fleet", "counters_balanced", False), "balance"),
    ("fleet", _set("real_fleet", "completed", 0), "completed"),
    ("fleet", _set("real_fleet", "affinity_hit_rate", 0.5), "affinity_hit_rate"),
    ("fleet", _drop("diurnal"), "diurnal"),
    ("fleet", _drop("diurnal", "static_p99_ms"), "static_p99_ms"),
    ("fleet", _set("diurnal", "scale_ups", 0), "scaled up"),
    ("fleet", _set("diurnal", "scale_parks", 0), "parked"),
    ("fleet", _set("diurnal", "mean_active_chips", 9.0), "mean_active_chips"),
    # data-parallel report
    ("dataparallel", _replace([]), "JSON object"),
    ("dataparallel", _drop("parity"), "parity"),
    ("dataparallel", _set("topology", 7), "topology"),
    ("dataparallel", _set("nodes_executed", 0), "nodes_executed"),
    ("dataparallel", _set("steps", 3), "losses"),
    ("dataparallel", _set("replicas_in_lockstep", False), "lockstep"),
    ("dataparallel", _set("throughput_samples_per_second", 0.0),
     "throughput_samples_per_second"),
    ("dataparallel", _drop("parity", "grain"), "grain"),
    ("dataparallel", _set("parity", "bitwise_identical", False), "bitwise_identical"),
    ("dataparallel", _set("weak_scaling", 0, "x"), "weak_scaling[0]"),
    ("dataparallel", _drop("strong_scaling", 0, "efficiency"), "efficiency"),
    ("dataparallel", lambda p: p["weak_scaling"].reverse(), "sorted"),
    ("dataparallel", lambda p: p["strong_scaling"].reverse(), "sorted"),
    ("dataparallel", lambda p: p["overlap_ablation"].reverse(), "sorted"),
    ("dataparallel", _set("weak_scaling", 0, "efficiency", 2.0), "efficiency"),
    ("dataparallel", _set("strong_scaling", 0, "efficiency", 0.0), "efficiency"),
    ("dataparallel", _set("overlap_ablation", 0, "speedup", 1.05), "1.2x bar"),
    ("dataparallel", _drop("overlap_ablation", 0, "serialized_seconds"),
     "serialized_seconds"),
    ("dataparallel", _set("comm_counters", "comm.seconds", -1.0), "comm.seconds"),
    ("dataparallel", _set("comm_counters", "comm.link_bytes", 0), "link_bytes"),
    # Chrome trace
    ("trace", _replace([]), "JSON object"),
    ("trace", _set("traceEvents", {}), "traceEvents"),
    ("trace", _set("traceEvents", 0, "not-an-event"), "must be an object"),
    ("trace", _set("traceEvents", 0, "ph", "B"), "ph"),
    ("trace", _set("traceEvents", 0, "name", ""), "name"),
    ("trace", _set("traceEvents", 0, "pid", "host"), "pid"),
    ("trace", _set("traceEvents", 0, "tid", 1.5), "tid"),
    ("trace", _set("traceEvents", 0, "dur", True), "dur"),
    ("trace", _drop("traceEvents", 0, "ts"), "ts"),
    ("trace", _set("traceEvents", 0, "ts", -1.0), "ts"),
    ("trace", _set("traceEvents", 0, "dur", -2.0), "dur"),
    ("trace", _set("traceEvents", 0, "cat", 3), "cat"),
    ("trace", _drop("traceEvents", 1, "args"), "args"),
    ("trace", _set("traceEvents", 0, "args", []), "args"),
    ("trace", lambda p: p["traceEvents"].append(_metadata(1, 1, "worker")),
     "conflicts"),
    # profile document
    ("profile", _replace([]), "JSON object"),
    ("profile", _set("schema", "repro.profile/v0"), "schema"),
    ("profile", _set("params", ""), "params"),
    ("profile", _set("chip_gflops", -1.0), "chip_gflops"),
    ("profile", _set("chip_gflops", True), "chip_gflops"),
    ("profile", _set("counters", []), "counters"),
    ("profile", _set("counters", "dma.bytes", "lots"), "dma.bytes"),
    ("profile", _set("counters", 7, 1), "must be a string"),
    ("profile", _drop("oracle"), "oracle"),
    ("profile", _set("drift", "rows", {}), "drift.rows"),
    ("profile", _set("drift", "flagged", 2), "drift.flagged"),
    ("profile", _set("oracle", "threshold", "high"), "oracle.threshold"),
    # metrics snapshot
    ("metrics", _replace([]), "object"),
    ("metrics", _set("schema", "bogus"), "schema"),
    ("metrics", _set("gauges", []), "gauges"),
    ("metrics", _set("counters", "serve.requests", "3"), "serve.requests"),
    ("metrics", _set(*_HIST, 5), "serve.latency_ms"),
    ("metrics", _set(*_HIST, "p90", "x"), "p90"),
    ("metrics", _set(*_HIST, "count", -1), "count"),
    ("metrics", _set(*_HIST, "buckets", []), "buckets"),
    ("metrics", _set(*_HIST, "buckets", "1", 3), "bucket"),
    ("metrics", _set(*_HIST, "p99", 1.0), "p99"),
    ("metrics", _set("gauges", "serve.inflight", 5), "serve.inflight"),
    ("metrics", _set("gauges", "serve.inflight", "updates", None), "updates"),
    ("metrics", _set(*_SERIES, 5), "serve.queue_depth"),
    ("metrics", _set(*_SERIES, "points", {}), "points"),
    ("metrics", _set(*_SERIES, "capacity", 0), "capacity"),
    ("metrics", _set(*_SERIES, "capacity", 1), "capacity"),
    ("metrics", _set(*_SERIES, "points", 0, [0.0]), "points[0]"),
    ("metrics", _set(*_SERIES, "points", 1, 0, -1.0), "back in time"),
    # oracle report
    ("oracle", _replace([]), None),
    ("oracle", _set("threshold", 0.0), "threshold"),
    ("oracle", _set("rows", []), "rows"),
    ("oracle", _set("rows", 0, "x"), "rows[0]"),
    ("oracle", _set("rows", 0, "params", [8, 8]), "params"),
    ("oracle", _set("rows", 0, "algorithm", "fft"), "fft"),
    ("oracle", _set("rows", 0, "measured_bytes", 0), "measured_bytes"),
    ("oracle", _set("rows", 0, "bound_bytes", 1.5), "bound_bytes"),
    ("oracle", _set("rows", 0, "attainment", -0.5), "attainment"),
    ("oracle", _set("rows", 0, "attainment", 0.123456), "attainment"),
    ("oracle", _set("rows", 0, "flagged", "no"), "flagged"),
    ("oracle", _set("flagged", 99), "flagged"),
    ("oracle", _drop("rows", 0), "direct baseline"),
]


class TestParity:
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_valid_record_passes(self, kind):
        assert validate(kind, VALID[kind]()) == []

    @pytest.mark.parametrize(
        "kind, mutate, needle", PARITY,
        ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(PARITY)],
    )
    def test_check_fires(self, kind, mutate, needle):
        payload = VALID[kind]()
        replaced = mutate(payload)
        violations = validate(kind, payload if replaced is None else replaced)
        assert violations
        if needle is not None:
            assert any(needle in v for v in violations), violations


class TestNonFinite:
    """A NaN passes every ``x < bar`` comparison; the type rule stops it."""

    @pytest.mark.parametrize(
        "kind, path",
        [
            ("fleet", ("scaling_4chip",)),
            ("fleet", ("p99_ratio_4v1",)),
            ("fleet", ("affinity_hit_rate",)),
            ("fleet", ("real_fleet", "affinity_hit_rate")),
            ("dataparallel", ("throughput_samples_per_second",)),
            ("dataparallel", ("overlap_ablation", 0, "speedup")),
            ("chaos_serve", ("availability",)),
        ],
    )
    def test_nan_bar_is_a_violation(self, kind, path):
        payload = VALID[kind]()
        _set(*path, float("nan"))(payload)
        assert any(path[-1] in v for v in validate(kind, payload))

    def test_all_nan_fleet_bars_fail(self):
        payload = VALID["fleet"]()
        for key in ("scaling_4chip", "p99_ratio_4v1", "affinity_hit_rate"):
            payload[key] = float("nan")
        payload["real_fleet"]["affinity_hit_rate"] = float("nan")
        assert len(validate("fleet", payload)) == 4

    def test_all_nan_dataparallel_bars_fail(self):
        payload = VALID["dataparallel"]()
        for row in payload["overlap_ablation"]:
            row["speedup"] = float("nan")
        payload["throughput_samples_per_second"] = float("nan")
        assert len(validate("dataparallel", payload)) == 4

    def test_infinity_literal_in_a_file_fails(self, tmp_path):
        payload = VALID["fleet"]()
        payload["scaling_4chip"] = float("inf")
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(payload))  # json.dumps writes the Infinity literal
        _, violations = read_record("fleet", str(path))
        assert violations == ["scaling_4chip: must be a number, got inf"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _leaf_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, item in items:
        yield from _leaf_paths(item, path + (key,))


class TestHostileInput:
    """Any JSON value, anywhere in a record, yields violations, never a crash."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(SPECS)), payload=_JSON)
    def test_arbitrary_json(self, kind, payload):
        violations = validate(kind, payload)
        assert all(isinstance(v, str) for v in violations)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(VALID)))
    def test_one_key_replaced(self, data, kind):
        payload = VALID[kind]()
        path = data.draw(st.sampled_from(list(_leaf_paths(payload))[1:]))
        _set(*path, data.draw(_JSON))(payload)
        violations = validate(kind, payload)
        assert all(isinstance(v, str) for v in violations)


class TestSpecs:
    @pytest.mark.parametrize(
        "kind", sorted(kind for kind, spec in SPECS.items() if spec.ledger)
    )
    def test_committed_bench_record_validates(self, kind):
        path = BENCH_DIR / f"BENCH_{kind}.json"
        assert read_record(kind, str(path))[1] == []

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_every_parent_is_declared(self, kind):
        # A key under an undeclared parent would be skipped silently when
        # the parent is missing.
        paths = {key.path for key in SPECS[kind].keys}
        for path in paths:
            cut = max(path.rfind("."), path.rfind("[]"))
            assert cut <= 0 or path[:cut] in paths, (kind, path)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown record kind"):
            validate("nope", {})


class TestLedger:
    def test_ledger_equals_the_committed_table(self):
        from repro.telemetry.regress import load_ledger

        ledger = load_ledger(str(BENCH_DIR))
        table = sorted(
            (m.name, m.value, m.direction, m.rel_tol, m.abs_tol)
            for m in ledger.values()
        )
        assert all(name == m.name for name, m in ledger.items())
        assert table == [
            ("algos.best_speedup_vs_direct", 1.385, "higher", 0.15, 0.0),
            ("algos.non_direct_winners", 3, "higher", 0.0, 0.0),
            ("algos.oracle_flagged", 0, "lower", 0.0, 0.0),
            ("autotune.fused_speedup", 1.411, "higher", 0.15, 0.0),
            ("autotune.parity", 1.0, "higher", 0.0, 0.0),
            ("autotune.sharding_scaling", 3.75, "higher", 0.15, 0.0),
            ("autotune.tuned_speedup", 1.107, "higher", 0.15, 0.0),
            ("autotune.warm_measured", 0, "lower", 0.0, 0.0),
            ("chaos_serve.availability", 1.0, "higher", 0.0, 0.01),
            ("chaos_serve.breaker_cycles", 1, "higher", 0.0, 0.0),
            ("chaos_serve.counters_balanced", 1.0, "higher", 0.0, 0.0),
            ("chaos_serve.wrong_answers", 0, "lower", 0.0, 0.0),
            ("dataparallel.overlap_speedup", 1.6256890517707607, "higher", 0.15, 0.0),
            ("dataparallel.parity", 1.0, "higher", 0.0, 0.0),
            ("dataparallel.weak_efficiency_at_scale", 0.9898603682690362,
             "higher", 0.0, 0.02),
            ("fastpath.bit_identical", 1.0, "higher", 0.0, 0.0),
            ("fastpath.conv_speedup", 11.4, "higher", 0.25, 0.0),
            ("fleet.affinity_hit_rate", 0.988226, "higher", 0.0, 0.02),
            ("fleet.bit_identical", 1.0, "higher", 0.0, 0.0),
            ("fleet.counters_balanced", 1.0, "higher", 0.0, 0.0),
            ("fleet.p99_ratio_4v1", 0.2862545566210886, "lower", 0.25, 0.0),
            ("fleet.scaling_4chip", 3.9984073669314584, "higher", 0.1, 0.0),
            ("fleet.wrong_answers", 0, "lower", 0.0, 0.0),
            ("serve.batched_speedup", 4.31, "higher", 0.3, 0.0),
            ("serve.bit_identical", 1.0, "higher", 0.0, 0.0),
            ("serve.filter_pack_speedup", 3.32, "higher", 0.3, 0.0),
            ("serve.p99_ms", 24.061085939847544, "lower", 0.5, 0.0),
            ("serve.steady_state_tuner_measurements", 0, "lower", 0.0, 0.0),
            ("telemetry.drift_flagged", 4, "lower", 0.0, 0.0),
            ("telemetry.fastpath_overhead_pct", 9.04, "lower", 0.0, 2.0),
        ]
        # Integer metrics stay integers: the delta table prints them so.
        assert type(ledger["algos.non_direct_winners"].value) is int


class TestCli:
    def test_valid_file_exits_zero(self, capsys):
        path = str(BENCH_DIR / "BENCH_fleet.json")
        assert main(["fleet", path]) == 0
        assert "valid repro.fleet/v1" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        payload = VALID["chaos_serve"]()
        payload["wrong_answers"] = 2
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(payload))
        assert main(["chaos_serve", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID chaos_serve record (1 violation(s))" in out
        assert "wrong_answers: must be 0, got 2" in out

    def test_json_array_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main(["serve", str(path)]) == 1
        assert "top level must be a JSON object, got list" in capsys.readouterr().out

    def test_malformed_json_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"availability": ')
        assert main(["chaos_serve", str(path)]) == 1
        out = capsys.readouterr().out
        assert "is not valid JSON" in out
        assert "Traceback" not in out

    def test_too_deeply_nested_json_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["trace", str(path)]) == 1
        assert "is not valid JSON" in capsys.readouterr().out

    def test_missing_file_is_a_violation(self, tmp_path, capsys):
        assert main(["dataparallel", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_unknown_kind_is_bad_usage(self, tmp_path, capsys):
        assert main(["bogus", str(tmp_path / "x.json")]) == 2
        out = capsys.readouterr().out
        assert "unknown KIND 'bogus'" in out
        assert "usage" in out

    def test_bad_arity_is_bad_usage(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage: python -m repro.validate KIND FILE" in out
        for kind in SPECS:
            assert kind in out
