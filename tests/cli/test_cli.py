"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestInfo:
    def test_prints_architecture(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "742.4 Gflops" in out
        assert "64 KiB" in out
        assert "8x8" in out


class TestPlan:
    def test_plans_and_times(self, capsys):
        assert main(["plan", "--ni", "64", "--no", "64", "--out", "16",
                     "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out
        assert "timed (4 CG):" in out

    def test_defaults(self, capsys):
        assert main(["plan"]) == 0
        assert "Ni=256" in capsys.readouterr().out


class TestKernel:
    def test_dumps_reordered_kernel(self, capsys):
        assert main(["kernel", "--ni", "16"]) == 0
        out = capsys.readouterr().out
        assert "vfmad" in out
        assert "EE=" in out

    def test_original_flag(self, capsys):
        assert main(["kernel", "--ni", "16", "--original"]) == 0
        out = capsys.readouterr().out
        assert "52 cycles" in out  # 2 iterations x 26

    def test_timeline_flag(self, capsys):
        assert main(["kernel", "--ni", "8", "--timeline"]) == 0
        assert "cycle | P0" in capsys.readouterr().out


class TestExperiments:
    def test_subset(self, capsys):
        assert main(["experiments", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "Table II" not in out


class TestZoo:
    def test_times_network(self, capsys):
        assert main(["zoo", "cifar_quick", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out
        assert "images/s" in out

    def test_unknown_network(self, capsys):
        assert main(["zoo", "resnet"]) == 1
        assert "unknown network" in capsys.readouterr().out


class TestTrace:
    def test_renders_gantt(self, capsys):
        assert main(["trace", "--ni", "64", "--no", "64", "--out", "8",
                     "--batch", "32", "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "tile" in out
        assert "overlap" in out


class TestProfile:
    ARGS = ["profile", "--ni", "32", "--no", "32", "--out", "16",
            "--batch", "16", "--tiles", "4"]

    def test_prints_drift_and_counters(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "model-vs-measured drift" in out
        assert "counters:" in out
        assert "engine.flops" in out
        assert "4 tile interval(s) traced" in out

    def test_trace_out_is_valid_chrome_json(self, capsys, tmp_path):
        from repro.validate import read_record

        trace = str(tmp_path / "profile.json")
        assert main(self.ARGS + ["--trace-out", trace]) == 0
        assert "valid chrome://tracing JSON" in capsys.readouterr().out
        assert read_record("trace", trace)[1] == []

    def test_table3_row_selects_paper_config(self, capsys):
        assert main(["profile", "--row", "1", "--tiles", "2"]) == 0
        assert "Ni=128" in capsys.readouterr().out

    def test_bad_row_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "--row", "99"])

    def test_guarded_probe_counts_faults_and_fallbacks(self, capsys):
        assert main(self.ARGS + ["--guarded", "--fenced", "2",
                                 "--dma-derate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "guarded probe: ran on" in out
        assert "faults." in out


class TestCalibrate:
    def test_reports_constants(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "0.70" in out
        assert "0.50" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])
