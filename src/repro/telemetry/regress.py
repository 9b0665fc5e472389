"""Bench-regression sentinel: a unified ledger over ``BENCH_*.json``.

Every PR commits benchmark records (``benchmarks/BENCH_*.json``) — conv
speedups, serve throughput, chaos availability, overlap ratios, telemetry
overhead.  Each file has its own shape, so "did this PR regress a number
we already published?" had no single answer.  This module gives it one:

* a **ledger**: each record's headline scalars (:class:`BenchMetric` —
  value, better-direction, and the relative/absolute tolerance the metric
  is held to), derived from the ``ledger`` of the record's spec in
  :mod:`repro.validate`, after the record passes that spec;
* a **comparator**: :func:`compare_ledgers` joins a baseline ledger
  against a current one and emits a :class:`RegressionReport` whose delta
  table names, for every row, the metric, baseline, current value,
  delta, and tolerance — failing when any current value is *worse* than
  its baseline beyond tolerance (better is never a failure);
* a **CLI gate**: ``python -m repro.telemetry.regress BASELINE [CURRENT]``
  exits non-zero on any regression — the ``regress`` stage of
  ``scripts/verify.sh`` runs it with the committed baselines on both
  sides (a self-comparison, which must pass by construction) and a
  re-benchmarked tree runs it with the fresh results as CURRENT.

Tolerances are per-metric: wall-clock-derived numbers (speedups, p99)
get generous relative slack; contract numbers (bit-identicality, zero
wrong answers, availability) get none.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.tables import TextTable
from repro.validate import HIGHER, LOWER, SPECS, derive, read_record


@dataclass(frozen=True)
class BenchMetric:
    """One headline scalar re-derived from a benchmark record.

    ``direction`` says which way is better; a *current* value is a
    regression when it is worse than *baseline* by more than
    ``max(rel_tol * |baseline|, abs_tol)``.  Moving in the better
    direction is never flagged.
    """

    name: str
    value: float
    direction: str = HIGHER
    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in (HIGHER, LOWER):
            raise ValueError(f"direction must be higher/lower, got {self.direction}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError(f"tolerances must be >= 0 for {self.name}")

    def slack(self) -> float:
        return max(self.rel_tol * abs(self.value), self.abs_tol)

    def describe_tolerance(self) -> str:
        parts = []
        if self.rel_tol:
            parts.append(f"{self.rel_tol * 100:.0f}%")
        if self.abs_tol:
            parts.append(f"abs {self.abs_tol:g}")
        return "+".join(parts) if parts else "exact"


def load_ledger(directory: str) -> Dict[str, BenchMetric]:
    """Derive every ledger metric of the ``BENCH_*.json`` files present.

    Each record's metrics are the ``ledger`` of its :mod:`repro.validate`
    spec.  Raises :class:`ValueError` naming the violations when a present
    file is unreadable or breaks its spec — a malformed committed
    benchmark should fail the gate, not silently shrink the ledger.
    """
    ledger: Dict[str, BenchMetric] = {}
    for kind, spec in sorted(SPECS.items()):
        path = os.path.join(directory, f"BENCH_{kind}.json")
        if not spec.ledger or not os.path.exists(path):
            continue
        payload, violations = read_record(kind, path)
        if violations:
            raise ValueError(f"{path}: " + "; ".join(violations))
        for name, derivation, direction, rel_tol, abs_tol in spec.ledger:
            metric = BenchMetric(
                f"{kind}.{name}", derive(payload, derivation), direction,
                rel_tol, abs_tol,
            )
            ledger[metric.name] = metric
    return ledger


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionRow:
    """One metric's baseline-vs-current join."""

    name: str
    direction: str
    baseline: Optional[float]
    current: Optional[float]
    tolerance: str
    status: str  # "ok" | "improved" | "REGRESSED" | "missing"

    @property
    def delta(self) -> float:
        if self.baseline is None or self.current is None:
            return 0.0
        return self.current - self.baseline


@dataclass
class RegressionReport:
    """All rows of one baseline-vs-current comparison."""

    baseline_dir: str
    current_dir: str
    rows: List[RegressionRow]

    @property
    def regressions(self) -> List[RegressionRow]:
        return [row for row in self.rows if row.status == "REGRESSED"]

    @property
    def missing(self) -> List[RegressionRow]:
        return [row for row in self.rows if row.status == "missing"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        table = TextTable(
            ["metric", "dir", "baseline", "current", "delta", "tol", "status"],
            float_fmt="{:.4g}",
        )
        for row in self.rows:
            table.add_row(
                [
                    row.name,
                    row.direction,
                    "-" if row.baseline is None else row.baseline,
                    "-" if row.current is None else row.current,
                    row.delta,
                    row.tolerance,
                    row.status,
                ]
            )
        verdict = (
            "no regressions"
            if self.ok
            else f"{len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing"
        )
        header = (
            f"bench regression gate — baseline {self.baseline_dir} vs "
            f"current {self.current_dir}: {verdict}"
        )
        return header + "\n" + table.render()


def compare_metric(baseline: BenchMetric, current: BenchMetric) -> str:
    """Classify one metric's movement: ok / improved / REGRESSED."""
    delta = current.value - baseline.value
    slack = baseline.slack()
    if baseline.direction == HIGHER:
        if delta < -slack:
            return "REGRESSED"
        return "improved" if delta > slack else "ok"
    if delta > slack:
        return "REGRESSED"
    return "improved" if delta < -slack else "ok"


def compare_ledgers(
    baseline: Dict[str, BenchMetric],
    current: Dict[str, BenchMetric],
    baseline_dir: str = "<baseline>",
    current_dir: str = "<current>",
) -> RegressionReport:
    """Join two ledgers; a baseline metric absent from current is a failure.

    Metrics only present in *current* (a new benchmark this revision
    introduces) are reported as ``ok`` — new coverage is never a
    regression.
    """
    rows: List[RegressionRow] = []
    for name in sorted(set(baseline) | set(current)):
        b = baseline.get(name)
        c = current.get(name)
        if b is None:
            rows.append(
                RegressionRow(name, c.direction, None, c.value,
                              c.describe_tolerance(), "ok")
            )
        elif c is None:
            rows.append(
                RegressionRow(name, b.direction, b.value, None,
                              b.describe_tolerance(), "missing")
            )
        else:
            rows.append(
                RegressionRow(
                    name, b.direction, b.value, c.value,
                    b.describe_tolerance(), compare_metric(b, c),
                )
            )
    return RegressionReport(baseline_dir, current_dir, rows)


def compare_directories(
    baseline_dir: str, current_dir: Optional[str] = None
) -> RegressionReport:
    """Load both ledgers and compare (current defaults to the baseline).

    The default self-comparison is the CI invariant: the committed
    baselines must pass their own gate (every record passes its spec,
    every contract metric holds its zero-tolerance value).
    """
    current_dir = current_dir if current_dir is not None else baseline_dir
    return compare_ledgers(
        load_ledger(baseline_dir),
        load_ledger(current_dir),
        baseline_dir=baseline_dir,
        current_dir=current_dir,
    )


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not 1 <= len(argv) <= 2:
        print(
            "usage: python -m repro.telemetry.regress BASELINE_DIR "
            "[CURRENT_DIR]"
        )
        return 2
    try:
        report = compare_directories(*argv)
    except ValueError as exc:
        print(f"regress: {exc}")
        return 1
    print(report.render())
    if not report.rows:
        print("regress: no BENCH_*.json files found — nothing to gate")
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
