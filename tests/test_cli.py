"""Command-line surface checks via main(argv)."""

import json
from dataclasses import fields

import pytest

from gibbsratio.cli import _experiment_config, build_parser, main
from gibbsratio.harness import ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_single_record_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--model", "twolevel", "--q", "3",
            "--eps", "1.0", "--d", "4", "--r", "6", "--m", "2", "--seed", "1",
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["seed"] == 0
        assert record["q_true"] == pytest.approx(3.0, abs=1e-9)
        assert "success" in record
        summary = json.loads(err[: err.rindex("}") + 1])
        assert summary["trials"] == 1

    def test_record_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rec.ndjson"
        code, out, _ = run_cli(
            capsys, "estimate", "--model", "singleton", "--out", str(out_path),
        )
        assert code == 0 and out == ""
        record = json.loads(out_path.read_text())
        assert record["q_hat"] == pytest.approx(5.0, abs=1e-9)


class TestTrials:
    def test_batch_ndjson(self, capsys):
        code, out, err = run_cli(
            capsys, "trials", "--model", "twolevel", "--q", "3", "--eps", "1.0",
            "--d", "4", "--r", "6", "--m", "2", "--trials", "5", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all("q_hat" in json.loads(line) for line in lines)

    def test_batch_csv_with_timing(self, tmp_path, capsys):
        out_path = tmp_path / "rec.csv"
        code, _, _ = run_cli(
            capsys, "trials", "--model", "twolevel", "--q", "2", "--eps", "1.0",
            "--d", "2", "--r", "4", "--m", "1.5", "--trials", "3", "--seed", "3",
            "--format", "csv", "--timing", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].endswith(",wall_time")
        assert len(lines) == 4

    def test_determinism_across_invocations(self, tmp_path, capsys):
        args = (
            "trials", "--model", "twolevel", "--q", "2", "--eps", "1.0",
            "--d", "2", "--r", "4", "--m", "1.5", "--trials", "4", "--seed", "9",
        )
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_corruption_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "trials", "--model", "twolevel", "--q", "2", "--eps", "1.0",
            "--d", "2", "--r", "4", "--m", "1.5", "--trials", "2", "--seed", "4",
            "--tv-budget", "0.01", "--corruption-mode", "adversarial_max_h",
        )
        assert code == 0
        summary = json.loads(err[: err.rindex("}") + 1])
        assert summary["corruption_mode"] == "adversarial_max_h"


class TestConfigFlags:
    def test_every_flag_lands_on_its_field(self):
        args = build_parser().parse_args([
            "trials", "--model", "colorings", "--q", "3.5", "--instance", "inst.json",
            "--graph", "graph.txt", "--colors", "4", "--n-factors", "8", "--m-grid", "3",
            "--beta-min", "0.1", "--beta-max", "2.5", "--eps", "0.25", "--case", "II",
            "--d", "8", "--gamma", "0.3", "--r", "11", "--m", "2.5", "--lam", "0.7",
            "--trials", "7", "--seed", "9", "--tv-budget", "0.05",
            "--corruption-mode", "adversarial_min_h", "--boost", "3", "--workers", "2",
        ])
        expected = ExperimentConfig(
            model="colorings", target_q=3.5, instance_path="inst.json", graph_path="graph.txt",
            kcolors=4, n_factors=8, m_grid=3, beta_min=0.1, beta_max=2.5, epsilon=0.25,
            case="II", d=8, gamma=0.3, r=11, m=2.5, lam=0.7, trials=7, master_seed=9,
            tv_budget=0.05, corruption_mode="adversarial_min_h", boost_t=3, workers=2,
        )
        # every field is off its default, so a flag that misses its field shows
        assert all(getattr(expected, f.name) != f.default for f in fields(ExperimentConfig))
        assert _experiment_config(args) == expected


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("estimate", "--trials", "3"),
        ("estimate", "--workers", "2"),
        ("schedule", "--trials", "3"),
        ("schedule", "--boost", "3"),
        ("schedule", "--workers", "2"),
        ("schedule", "--format", "csv"),
        ("schedule", "--timing"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_the_subcommand_ignores_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--tv-budget", "-0.1", "tv_budget must lie in [0, 1)"),
        ("--boost", "2", "boost_t must be a positive odd integer"),
    ], ids=["tv-budget", "boost"])
    def test_rejected_run_setting_exits_2_with_one_line(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["trials", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gibbsratio trials: error: {message}\n"

    def test_model_over_the_enumeration_budget_exits_2_with_one_line(self, grid4_graph, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--model", "colorings", "--graph", str(grid4_graph)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gibbsratio estimate: error: 3-colorings on 16 vertices has 43046721 states, "
            "above the enumeration budget 16777216\n"
        )

    def test_error_past_the_config_keeps_its_traceback(self):
        with pytest.raises(ValueError, match="instance_path"):
            main(["trials", "--model", "synthetic"])

    @pytest.mark.parametrize("flag,value,message", [
        ("--m", "-1", "m must be positive and finite"),
        ("--m", "0", "m must be positive and finite"),
        ("--m", "nan", "m must be positive and finite"),
        ("--m", "inf", "m must be positive and finite"),
        ("--eps", "nan", "epsilon must be positive"),
        ("--q", "nan", "target_q must be positive"),
    ], ids=["m=-1", "m=0", "m=nan", "m=inf", "eps=nan", "q=nan"])
    def test_knob_out_of_range_stops_before_any_trial(self, capsys, flag, value, message):
        with pytest.raises(ValueError, match=message):
            main(["trials", "--trials", "1", flag, value])
        assert capsys.readouterr().out == ""


class TestSchedule:
    def test_diagnostics_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--model", "twolevel", "--q", "3", "--eps", "1.0",
            "--d", "4", "--r", "6", "--m", "2", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["betas"][0] == 0.0
        assert payload["ell"] == len(payload["betas"]) - 1
        assert payload["delta"] == pytest.approx(sum(payload["per_interval_delta"]), abs=1e-12)
        assert payload["good"] == (payload["delta"] <= payload["delta_threshold"])
        assert payload["oracle_calls"] >= payload["k"]


class TestTau:
    def test_table_lines(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--d", "1", "64")
        assert code == 0
        lines = out.strip().split("\n")
        assert "9.90" in lines[1]
        assert "1.53" in lines[2]


class TestLowerbound:
    def test_grid_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--n-factors", "16", "--m-grid", "2")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_target_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--q-bar", "85", "--n", "12")
        assert code == 0
        assert "N=16 m=2" in out

    def test_prints_the_lemma10_report(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--n-factors", "16", "--m-grid", "2")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5
        assert lines[0] == "suite lemma10 N=16 m=2: PASS"
        assert lines[1].startswith("  [PASS] N=16 m=2 log-ratio sandwich: observed 103.972")

    @pytest.mark.parametrize("argv,message", [
        (("--q-bar", "500", "--n", "2"), "grid capacity exceeded: N=38 > m(n-1)=21; increase n"),
        (("--n-factors", "1"), "n_factors must be at least 2 for a positive window"),
    ], ids=["grid-capacity", "one-factor"])
    def test_instance_it_cannot_build_exits_2_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["lowerbound", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gibbsratio lowerbound: error: {message}\n"

    def test_failing_inequality_exits_2(self, capsys):
        # two factors: sensitivity^2/curvature 1/18 stays below (N/4-1)^2 = 1/4
        code, out, _ = run_cli(capsys, "lowerbound", "--n-factors", "2", "--m-grid", "1")
        assert code == 2
        assert out.startswith("suite lemma10 N=2 m=1: FAIL")
        assert "[FAIL] N=2 m=1 sensitivity^2/curvature floor" in out


class TestSuite:
    def test_tau_table(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "tau_table")
        assert code == 0
        assert out.startswith("suite tau_table: PASS")

    def test_accounting(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "accounting")
        assert code == 0

    def test_graph_model_end_to_end(self, tmp_path, capsys):
        graph = tmp_path / "square.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--model", "ising", "--graph", str(graph),
            "--eps", "1.0", "--d", "2", "--r", "4", "--m", "1.0", "--seed", "6",
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["success"] in (True, False)
