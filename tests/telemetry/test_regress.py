"""Bench-regression sentinel: ledger extraction, comparison, CLI gate."""

import json
import shutil
from pathlib import Path

import pytest

from repro.telemetry.regress import (
    HIGHER,
    LOWER,
    BenchMetric,
    compare_directories,
    compare_ledgers,
    compare_metric,
    load_ledger,
    main,
)

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture()
def bench_copy(tmp_path):
    """A mutable copy of the committed benchmark records."""
    current = tmp_path / "current"
    current.mkdir()
    for src in BENCH_DIR.glob("BENCH_*.json"):
        shutil.copy(src, current / src.name)
    return current


def _edit(directory, filename, mutate):
    path = Path(directory) / filename
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


class TestBenchMetric:
    def test_slack_is_max_of_rel_and_abs(self):
        m = BenchMetric("x", 10.0, HIGHER, rel_tol=0.10, abs_tol=0.5)
        assert m.slack() == pytest.approx(1.0)
        assert BenchMetric("y", 1.0, LOWER, abs_tol=0.5).slack() == 0.5

    def test_tolerance_described(self):
        assert BenchMetric("x", 1.0, rel_tol=0.25).describe_tolerance() == "25%"
        assert "abs 2" in BenchMetric("x", 1.0, abs_tol=2.0).describe_tolerance()
        assert BenchMetric("x", 1.0).describe_tolerance() == "exact"

    def test_rejects_bad_direction_and_tolerance(self):
        with pytest.raises(ValueError):
            BenchMetric("x", 1.0, "sideways")
        with pytest.raises(ValueError):
            BenchMetric("x", 1.0, HIGHER, rel_tol=-0.1)


class TestCompareMetric:
    def test_higher_is_better(self):
        base = BenchMetric("s", 2.0, HIGHER, rel_tol=0.10)
        assert compare_metric(base, BenchMetric("s", 1.5, HIGHER)) == "REGRESSED"
        assert compare_metric(base, BenchMetric("s", 1.9, HIGHER)) == "ok"
        assert compare_metric(base, BenchMetric("s", 3.0, HIGHER)) == "improved"

    def test_lower_is_better(self):
        base = BenchMetric("p99", 10.0, LOWER, rel_tol=0.10)
        assert compare_metric(base, BenchMetric("p99", 12.0, LOWER)) == "REGRESSED"
        assert compare_metric(base, BenchMetric("p99", 10.5, LOWER)) == "ok"
        assert compare_metric(base, BenchMetric("p99", 5.0, LOWER)) == "improved"

    def test_zero_tolerance_contract(self):
        base = BenchMetric("bit_identical", 1.0, HIGHER)
        assert compare_metric(base, BenchMetric("b", 0.0, HIGHER)) == "REGRESSED"
        assert compare_metric(base, BenchMetric("b", 1.0, HIGHER)) == "ok"


class TestLedger:
    def test_committed_benchmarks_yield_nonempty_ledger(self):
        ledger = load_ledger(str(BENCH_DIR))
        # Every committed BENCH_*.json with a ledger spec must contribute.
        assert len(ledger) >= 10
        assert "chaos_serve.availability" in ledger
        assert "telemetry.fastpath_overhead_pct" in ledger

    def test_missing_directory_is_an_empty_ledger(self, tmp_path):
        assert load_ledger(str(tmp_path / "nope")) == {}

    def test_malformed_record_fails_loudly(self, bench_copy):
        # One ledger key per record: the error names the file and the key.
        cases = [
            ("BENCH_chaos_serve.json", ("availability",)),
            ("BENCH_fastpath.json", ("conv_forward", "speedup")),
            ("BENCH_autotune.json", ("plan_cache", "warm_measured")),
            ("BENCH_telemetry.json", ("table3_drift", "flagged")),
            ("BENCH_serve.json", ("filter_pack", "speedup")),
            ("BENCH_fleet.json", ("real_fleet", "wrong_answers")),
            ("BENCH_algos.json", ("non_direct_winners",)),
            ("BENCH_dataparallel.json", ("parity", "bitwise_identical")),
        ]
        for filename, path in cases:
            def drop(payload):
                for step in path[:-1]:
                    payload = payload[step]
                del payload[path[-1]]

            _edit(bench_copy, filename, drop)
            with pytest.raises(ValueError, match=filename) as info:
                load_ledger(str(bench_copy))
            assert path[-1] in str(info.value)
            shutil.copy(BENCH_DIR / filename, bench_copy / filename)

    def test_spec_violation_fails_with_named_violation(self, bench_copy):
        # A NaN bar is a spec violation, not a ledger value.
        _edit(bench_copy, "BENCH_fleet.json",
              lambda p: p.__setitem__("scaling_4chip", float("nan")))
        with pytest.raises(ValueError, match="scaling_4chip: must be a number"):
            load_ledger(str(bench_copy))


class TestSelfComparison:
    def test_committed_baselines_pass_their_own_gate(self):
        report = compare_directories(str(BENCH_DIR))
        assert report.ok
        assert report.rows
        assert all(row.status == "ok" for row in report.rows)

    def test_render_is_a_full_delta_table(self):
        text = compare_directories(str(BENCH_DIR)).render()
        assert "no regressions" in text
        for column in ("metric", "baseline", "current", "delta", "tol", "status"):
            assert column in text


class TestInjectedRegression:
    def test_degraded_value_fails_with_named_delta_row(self, bench_copy):
        # Halve the availability the chaos bench published (abs_tol 0.01).
        def degrade(payload):
            payload["availability"] = payload["availability"] / 2.0

        _edit(bench_copy, "BENCH_chaos_serve.json", degrade)
        report = compare_directories(str(BENCH_DIR), str(bench_copy))
        assert not report.ok
        bad = {row.name: row for row in report.regressions}
        assert set(bad) == {"chaos_serve.availability"}
        row = bad["chaos_serve.availability"]
        assert row.baseline is not None and row.current is not None
        assert row.current == pytest.approx(row.baseline / 2.0)
        assert row.delta < 0
        text = report.render()
        assert "1 regression(s)" in text
        assert "chaos_serve.availability" in text
        assert "REGRESSED" in text
        assert "abs 0.01" in text  # the tolerance the metric is held to

    def test_improvement_is_not_a_failure(self, bench_copy):
        def improve(payload):
            payload["conv_forward"]["speedup"] *= 2.0

        _edit(bench_copy, "BENCH_fastpath.json", improve)
        report = compare_directories(str(BENCH_DIR), str(bench_copy))
        assert report.ok
        statuses = {row.name: row.status for row in report.rows}
        assert statuses["fastpath.conv_speedup"] == "improved"

    def test_dropped_benchmark_is_missing(self, bench_copy):
        (bench_copy / "BENCH_telemetry.json").unlink()
        report = compare_directories(str(BENCH_DIR), str(bench_copy))
        assert not report.ok
        missing = {row.name for row in report.missing}
        assert "telemetry.fastpath_overhead_pct" in missing

    def test_new_benchmark_is_never_a_regression(self):
        baseline = {"a": BenchMetric("a", 1.0, HIGHER)}
        current = {
            "a": BenchMetric("a", 1.0, HIGHER),
            "b": BenchMetric("b", 5.0, HIGHER),
        }
        report = compare_ledgers(baseline, current)
        assert report.ok
        assert {row.status for row in report.rows} == {"ok"}


class TestCli:
    def test_self_comparison_exits_zero(self, capsys):
        assert main([str(BENCH_DIR)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_exits_nonzero_with_table(self, bench_copy, capsys):
        _edit(
            bench_copy,
            "BENCH_serve.json",
            lambda p: p["summary"].__setitem__(
                "batched_vs_sequential_speedup", 0.01
            ),
        )
        assert main([str(BENCH_DIR), str(bench_copy)]) == 1
        out = capsys.readouterr().out
        assert "serve.batched_speedup" in out
        assert "REGRESSED" in out

    def test_empty_directory_exits_nonzero(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        assert "nothing to gate" in capsys.readouterr().out

    def test_usage_on_bad_arity(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out
