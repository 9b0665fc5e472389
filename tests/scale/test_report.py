"""Data-parallel benchmark report: builder + schema gate."""

import copy
import json
import os

import pytest

from repro.common.errors import PlanError
from repro.core import zoo
from repro.core.zoo import time_network, vgg_like_stack
from repro.scale import cluster
from repro.scale.network import InterconnectModel
from repro.scale.report import (
    build_dataparallel_report,
    overlap_rows,
    run_parity_check,
    stack_costs,
    strong_scaling_rows,
    weak_scaling_rows,
)
from repro.validate import MIN_OVERLAP_SPEEDUP, validate

pytestmark = pytest.mark.scale


@pytest.fixture(scope="module")
def report():
    return build_dataparallel_report(nodes=2, steps=2, parity_steps=1)


class TestReport:
    def test_validates_clean(self, report):
        assert validate("dataparallel", report) == []

    def test_json_serializable(self, report):
        json.dumps(report)

    def test_parity_proof_holds(self, report):
        assert report["parity"]["bitwise_identical"] is True
        assert report["parity"]["matches_plain_sgd"] is True
        assert report["replicas_in_lockstep"] is True

    def test_executed_run_recorded(self, report):
        assert report["nodes_executed"] == 2
        assert len(report["losses"]) == 2
        assert report["throughput_samples_per_second"] > 0
        assert report["comm_counters"]["comm.link_bytes"] > 0

    def test_overlap_clears_the_bar_at_scale(self, report):
        for row in report["overlap_ablation"]:
            if row["nodes"] >= 16:
                assert row["speedup"] >= MIN_OVERLAP_SPEEDUP


class TestScalingCurves:
    def test_weak_scaling_efficiency_decays_gently(self):
        rows = weak_scaling_rows(InterconnectModel(), "ring", 1 << 20)
        assert rows[0]["efficiency"] == pytest.approx(1.0)
        effs = [row["efficiency"] for row in rows]
        assert effs == sorted(effs, reverse=True)
        assert effs[-1] > 0.9  # overlap keeps weak scaling near-ideal
        # A slower interconnect exposes more communication.
        slow = weak_scaling_rows(InterconnectModel(bandwidth=1e9), "ring", 1 << 20)
        assert slow[-1]["step_seconds"] > rows[-1]["step_seconds"]
        assert slow[-1]["efficiency"] < effs[-1]

    def test_strong_scaling_efficiency_collapses(self):
        rows = strong_scaling_rows(InterconnectModel(), "ring", 1 << 20)
        # Fixed global batch: per-node work shrinks until comm dominates.
        assert rows[-1]["efficiency"] < rows[1]["efficiency"]
        # ...but the first doublings still add throughput.
        by_nodes = {row["nodes"]: row for row in rows}
        assert by_nodes[4]["samples_per_second"] > by_nodes[1]["samples_per_second"]

    def test_overlap_beats_serialized(self):
        for row in overlap_rows(InterconnectModel(), "ring", 1 << 20):
            assert row["overlapped_seconds"] <= row["serialized_seconds"]

    def test_bad_nodes_and_batch_rejected(self):
        with pytest.raises(PlanError):
            weak_scaling_rows(InterconnectModel(), "ring", 1 << 20, node_counts=(0,))
        with pytest.raises(ValueError):
            weak_scaling_rows(InterconnectModel(), "ring", 1 << 20, per_node_batch=0)

    def test_stack_costs_shapes(self):
        layers = vgg_like_stack(batch=32)
        costs = stack_costs(layers)
        assert len(costs) == 5
        assert all(c.forward_seconds > 0 for c in costs)
        assert [c.gradient_bytes for c in costs] == [l.gradient_bytes() for l in layers]

    def test_refused_shape_falls_back_to_roofline_only_in_the_cluster(
        self, monkeypatch
    ):
        def refuse(params, spec=None):
            raise PlanError("refused")

        monkeypatch.setattr(cluster, "training_cost", refuse)
        monkeypatch.setattr(zoo, "training_cost", refuse)
        conv, fc = vgg_like_stack(batch=8)[0], vgg_like_stack(batch=8)[-1]
        (cost,) = stack_costs([conv])
        assert cost.backward_seconds == 2.0 * cost.forward_seconds > 0
        with pytest.raises(PlanError):
            stack_costs([fc])  # only conv layers have a roofline fallback
        with pytest.raises(PlanError):
            time_network("cifar_quick")  # the zoo never guesses


class TestCommittedLedger:
    """The simulated-clock curves are deterministic: recomputing them must
    reproduce the committed benchmark record exactly."""

    PATH = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "BENCH_dataparallel.json"
    )

    def test_scaling_rows_match_committed_record(self):
        with open(self.PATH) as fh:
            record = json.load(fh)
        args = (InterconnectModel(), record["topology"], record["bucket_bytes"])
        assert weak_scaling_rows(*args) == record["weak_scaling"]
        assert strong_scaling_rows(*args) == record["strong_scaling"]
        assert overlap_rows(*args) == record["overlap_ablation"]


class TestValidator:
    def _broken(self, report, **changes):
        broken = copy.deepcopy(report)
        broken.update(changes)
        return broken

    def test_missing_key_flagged(self, report):
        broken = copy.deepcopy(report)
        del broken["parity"]
        assert any("parity" in v for v in validate("dataparallel", broken))

    def test_wrong_type_flagged(self, report):
        broken = self._broken(report, topology=7)
        assert any("topology" in v for v in validate("dataparallel", broken))

    def test_broken_parity_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["parity"]["bitwise_identical"] = False
        assert any(
            "bitwise_identical" in v for v in validate("dataparallel", broken)
        )

    def test_slow_overlap_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["overlap_ablation"][0]["speedup"] = 1.05
        assert any("1.2x bar" in v for v in validate("dataparallel", broken))

    def test_unsorted_curve_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["weak_scaling"].reverse()
        assert any("sorted" in v for v in validate("dataparallel", broken))

    def test_missing_traffic_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["comm_counters"]["comm.link_bytes"] = 0
        assert any("link_bytes" in v for v in validate("dataparallel", broken))

    def test_non_object_rejected(self):
        assert validate("dataparallel", []) == [
            "top level must be a JSON object, got list"
        ]


class TestParityCheck:
    def test_default_check_passes(self):
        parity = run_parity_check(steps=1)
        assert parity["bitwise_identical"] is True
        assert parity["pairwise_vs_first"] == {"1": True, "2": True, "4": True}
