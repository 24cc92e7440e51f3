"""Command-line surface checks via main(argv)."""

import contextlib
import io
import json
import re
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsratio import cli, harness
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
            "--beta-min", "0.1", "--beta-max", "2.5", "--eps", "0.25",
            "--d", "8", "--gamma", "0.3", "--r", "11", "--m", "2.5", "--lam", "0.7",
            "--trials", "7", "--seed", "9", "--tv-budget", "0.05",
            "--corruption-mode", "adversarial_min_h", "--boost", "3", "--workers", "2",
        ])
        expected = ExperimentConfig(
            model="colorings", target_q=3.5, instance_path="inst.json", graph_path="graph.txt",
            kcolors=4, n_factors=8, m_grid=3, beta_min=0.1, beta_max=2.5, epsilon=0.25,
            d=8, gamma=0.3, r=11, m=2.5, lam=0.7, trials=7, master_seed=9,
            tv_budget=0.05, corruption_mode="adversarial_min_h", boost_t=3, workers=2,
        )
        # every field is off its default, so a flag that misses its field shows
        assert all(getattr(expected, f.name) != f.default for f in fields(ExperimentConfig))
        assert _experiment_config(args) == expected

    @pytest.mark.parametrize("command", ["estimate", "trials", "schedule"])
    def test_left_out_flags_take_the_config_defaults(self, command):
        # no flag states a default of its own: estimate sets trials=1, nothing else
        args = build_parser().parse_args([command])
        names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
        given = {name: getattr(args, name) for name in names}
        runs_one = {"trials": 1} if command == "estimate" else {}
        assert given == runs_one
        assert _experiment_config(args) == ExperimentConfig(**runs_one)


TRIAL = ("trials", "--trials", "1")


def _rows(*rows):
    return [pytest.param(argv, message, id=test_id) for test_id, argv, message in rows]


# Usage errors that exit 2 with an empty stdout and the one stderr line
# "gibbsratio <command>: error: <message>", in sections, each run by the test
# named for it.  A "*" in a message stands for any text on that line, and
# "{name}" in argv for the path of the file ``usage_files`` writes for it.
ONE_LINE_ERRORS = {
    "run-setting": _rows(
        ("tv-budget", ("trials", "--tv-budget", "-0.1"), "tv_budget must lie in [0, 1)"),
        ("boost", ("trials", "--boost", "2"), "boost_t must be an odd integer of at least 1"),
        ("seed-negative", ("trials", "--seed", "-1"), "master_seed must be an integer of at least 0"),
    ),
    "energy": _rows(
        ("0.5-2", ("trials", "--model", "synthetic", "--instance", "{energy_half}", "--trials", "2"),
         "support has energies inside (0, 1)*"),
        ("0-0.5-2",
         ("trials", "--model", "synthetic", "--instance", "{energy_zero_half}", "--trials", "2"),
         "support has energies inside (0, 1)*"),
    ),
    "too-large": _rows(
        ("eps-1e-9", (*TRIAL, "--eps", "1e-9"), "*over the work budget*"),
        ("r-1e8", (*TRIAL, "--r", "100000000"), "*over the work budget*"),
        ("d-1e9", (*TRIAL, "--d", "1000000000"), "*over the work budget*"),
        ("eps-1e-17", (*TRIAL, "--eps", "1e-17"), "*epsilon 1e-17 is below float resolution*"),
        ("eps-1e-300", (*TRIAL, "--eps", "1e-300"), "*epsilon 1e-300 is below float resolution*"),
        ("d-2^63", (*TRIAL, "--d", str(2 ** 63)), "*d must be an integer in [1, 2^63)*"),
        ("m-1e308", (*TRIAL, "--m", "1e308"), "*the TPA run count m d must be finite*"),
        ("k-over-a-tiny-window",
         (*TRIAL, "--model", "singleton", "--beta-max", "1e-12", "--m", "1e10"),
         "*over the work budget*"),
        ("trials-1e9", (*TRIAL, "--trials", "1000000000"), "*over the work budget*"),
        ("boost-1e8", (*TRIAL, "--boost", "100000001"), "*over the work budget*"),
        ("workers-1000", (*TRIAL, "--trials", "1000", "--workers", "1000"), "*over the work budget*"),
    ),
    "model": _rows(
        ("ising-window", (*TRIAL, "--model", "ising", "--graph", "{c4}", "--beta-max", "-1"),
         "*beta_max must exceed beta_min*"),
        ("colorings-window", (*TRIAL, "--model", "colorings", "--graph", "{c4}", "--beta-min", "50"),
         "*beta_max must exceed beta_min*"),
        ("missing-graph", (*TRIAL, "--model", "ising", "--graph", "{missing}"),
         "*No such file or directory*"),
        ("missing-instance", (*TRIAL, "--model", "synthetic", "--instance", "{missing}"),
         "*No such file or directory*"),
        ("no-instance", (*TRIAL, "--model", "synthetic"), "*synthetic model needs instance_path*"),
        ("colors-1", (*TRIAL, "--model", "colorings", "--graph", "{c4}", "--colors", "1"),
         "*kcolors must be an integer of at least 2*"),
        ("n-factors-1", (*TRIAL, "--model", "lowerbound", "--n-factors", "1"),
         "*n_factors must be at least 2 for a positive window*"),
        ("m-grid-0", (*TRIAL, "--model", "lowerbound", "--m-grid", "0"),
         "*m_grid must be an integer of at least 1*"),
        ("n-factors-1e9", (*TRIAL, "--model", "lowerbound", "--n-factors", "1000000000"),
         "*n_factors must be at most 1023 and m_grid at most 2^52*"),
        ("window-reversed",
         (*TRIAL, "--model", "ising", "--graph", "{c4}", "--beta-min", "2", "--beta-max", "1"),
         "*beta_max must exceed beta_min*"),
        ("window-nan", (*TRIAL, "--model", "ising", "--graph", "{c4}", "--beta-max", "nan"),
         "*temperature bounds must be finite*"),
        ("instance-no-support", (*TRIAL, "--model", "synthetic", "--instance", "{no_support}"),
         "*instance has no 'support' key*"),
        ("instance-list", (*TRIAL, "--model", "synthetic", "--instance", "{list}"),
         "*an instance must be a JSON object*"),
        ("instance-int-support", (*TRIAL, "--model", "synthetic", "--instance", "{int_support}"),
         "*instance 'support' must be a list of [energy, log-count] pairs*"),
        ("instance-null-beta-min", (*TRIAL, "--model", "synthetic", "--instance", "{null_beta}"),
         "*instance 'beta_min' must be a number, got null*"),
        ("graph-three-values", (*TRIAL, "--model", "ising", "--graph", "{three}"),
         "*three.txt line 2: expected 'u v'*"),
        ("graph-not-a-number", (*TRIAL, "--model", "ising", "--graph", "{letter}"),
         "*letter.txt line 2: expected 'u v'*"),
        ("enumeration-budget", ("estimate", "--model", "colorings", "--graph", "{grid4}"),
         "3-colorings on 16 vertices has 43046721 states, above the enumeration budget 16777216"),
    ),
    "knob-range": _rows(
        ("m=-1", (*TRIAL, "--m", "-1"), "m must be positive and finite"),
        ("m=0", (*TRIAL, "--m", "0"), "m must be positive and finite"),
        ("m=nan", (*TRIAL, "--m", "nan"), "m must be positive and finite"),
        ("m=inf", (*TRIAL, "--m", "inf"), "m must be positive and finite"),
        ("eps=nan", (*TRIAL, "--eps", "nan"), "epsilon must be positive and finite"),
        ("eps=inf", (*TRIAL, "--eps", "inf"), "epsilon must be positive and finite"),
        ("q=nan", (*TRIAL, "--q", "nan"), "target_q must be positive"),
        # checked with the config, before the model is built
        ("fixed-window", (*TRIAL, "--model", "twolevel", "--beta-min", "0.1"),
         "twolevel model fixes its own beta window; drop beta_min/beta_max"),
        ("schedule-m=-1", ("schedule", "--m", "-1"), "m must be positive and finite"),
    ),
    # the tau row for d = 1 is computed, but nothing is printed before the error
    "tau": _rows(
        ("d-0", ("tau", "--d", "1", "0"), "d must be an integer in [1, 2^63)"),
        ("rho-1.5", ("tau", "--rho", "1.5"), "rho must lie in (0, 1)"),
        ("rho-nan", ("tau", "--rho", "nan"), "rho must lie in (0, 1)"),
    ),
    "lowerbound": _rows(
        ("grid-capacity", ("lowerbound", "--q-bar", "500", "--n", "2"),
         "grid capacity exceeded: N=38 > m(n-1)=21; increase n"),
        ("one-factor", ("lowerbound", "--n-factors", "1"),
         "n_factors must be at least 2 for a positive window"),
    ),
}


@pytest.fixture
def usage_files(tmp_path, grid4_graph):
    """Paths by name for the ``{name}`` fields of ``ONE_LINE_ERRORS``; "missing" is not written."""
    texts = {
        "c4": "0 1\n1 2\n2 3\n3 0\n", "no_support": "{}", "list": "[]",
        "three": "0 1\n0 1 2\n", "letter": "0 1\n0 x\n",
        "int_support": '{"support": 5, "beta_min": 0, "beta_max": 1}',
        "null_beta": '{"support": [[0, 0], [1, 0]], "beta_min": null, "beta_max": 1}',
        "energy_half": '{"support": [[0.5, 0], [2, 0]], "beta_min": 0, "beta_max": 1}',
        "energy_zero_half": '{"support": [[0, 0], [0.5, 0], [2, 0]], "beta_min": 0, "beta_max": 1}',
    }
    paths = {"missing": tmp_path / "missing", "grid4": grid4_graph}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    return paths


def exits_2_with_one_line(capsys, paths, argv, message, at_once=False):
    """Run the CLI on ``argv``: it must exit 2, within 1 s if ``at_once``, with one error line."""
    argv = [arg.format(**paths) for arg in argv]
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert not at_once or time.perf_counter() - started < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = re.escape(f"gibbsratio {argv[0]}: error: {message}").replace(r"\*", ".*")
    assert re.fullmatch(line + "\n", captured.err), captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["run-setting"])
    def test_rejected_run_setting_exits_2_with_one_line(self, capsys, usage_files, argv, message):
        exits_2_with_one_line(capsys, usage_files, argv, message)

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["energy"])
    def test_energy_inside_the_unit_interval_exits_2_under_any_case(
        self, capsys, usage_files, argv, message
    ):
        exits_2_with_one_line(capsys, usage_files, argv, message)

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["too-large"])
    def test_knob_too_large_for_a_trial_exits_2_with_one_line_at_once(
        self, capsys, usage_files, argv, message
    ):
        exits_2_with_one_line(capsys, usage_files, argv, message, at_once=True)

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["model"])
    def test_model_it_cannot_build_exits_2_with_one_line(self, capsys, usage_files, argv, message):
        exits_2_with_one_line(capsys, usage_files, argv, message)

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["knob-range"])
    def test_knob_out_of_range_stops_before_any_trial(self, capsys, usage_files, argv, message):
        exits_2_with_one_line(capsys, usage_files, argv, message)

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

    @pytest.mark.parametrize("argv,out", [
        (("trials", "--trials", "3"), "missing/x.ndjson"),
        (("schedule",), "."),
    ], ids=["trials-missing-dir", "schedule-directory"])
    def test_out_it_cannot_open_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, argv, out):
        def no_work(*args):
            raise AssertionError("work ran before --out was opened")

        monkeypatch.setattr(cli, "run_trials", no_work)
        monkeypatch.setattr(cli, "generate_schedule", no_work)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gibbsratio {argv[0]}: error: [Errno ")
        assert captured.err.count("\n") == 1

    def test_trial_over_the_work_budget_exits_2_with_one_line(self, capsys, monkeypatch):
        # k q = 8 x 3 = 24 expected TPA points, 48 floats, against a budget of 20
        monkeypatch.setattr(harness, "WORK_BUDGET", 20)
        with pytest.raises(SystemExit) as exc:
            main(["trials", "--q", "3", "--eps", "1.0", "--d", "4", "--r", "6", "--m", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gibbsratio trials: error: ")
        assert captured.err.count("\n") == 1

    def test_knob_the_model_does_not_read_is_ignored(self, capsys):
        # --colors is read by the colorings model only
        code, out, _ = run_cli(capsys, "trials", "--model", "twolevel", "--colors", "1", "--trials", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 1

    def test_error_past_the_config_keeps_its_traceback(self, monkeypatch):
        # a ValueError raised inside a trial is a fault, not a usage error
        def fail(*args, **kwargs):
            raise ValueError("inside a trial")

        monkeypatch.setattr(harness, "estimate", fail)
        with pytest.raises(ValueError, match="inside a trial"):
            main(["trials", "--trials", "1"])


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

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["tau"])
    def test_bad_argument_exits_2_with_one_line(self, capsys, usage_files, argv, message):
        exits_2_with_one_line(capsys, usage_files, argv, message)


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

    @pytest.mark.parametrize("argv,message", ONE_LINE_ERRORS["lowerbound"])
    def test_instance_it_cannot_build_exits_2_with_one_line(self, capsys, usage_files, argv, message):
        exits_2_with_one_line(capsys, usage_files, argv, message)

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
        assert out.count("[PASS]") == 2 * 10  # tau_rho and its argmin at each TAU_TABLE d

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


FLOAT_TEXTS = st.one_of(
    st.floats(-1.0, 10.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["5e-324", "1e-300", "1e-17", "2.3e-16", "1e-9", "0.2499", "0.9999", "1e308"]),
)
INT_TEXTS = st.one_of(
    st.integers(-4, 80), st.integers(), st.sampled_from([1023, 1024, 10 ** 9, 2 ** 63, 10 ** 400])
).map(str)
KNOBS = {
    "--eps": FLOAT_TEXTS, "--q": FLOAT_TEXTS, "--d": INT_TEXTS, "--r": INT_TEXTS,
    "--m": FLOAT_TEXTS, "--gamma": FLOAT_TEXTS, "--lam": FLOAT_TEXTS,
    "--beta-min": FLOAT_TEXTS, "--beta-max": FLOAT_TEXTS, "--tv-budget": FLOAT_TEXTS,
    "--n-factors": INT_TEXTS, "--m-grid": INT_TEXTS, "--seed": INT_TEXTS,
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(["twolevel", "singleton", "lowerbound"]),
    knobs=st.fixed_dictionaries({}, optional={flag: texts for flag, texts in KNOBS.items()}),
)
def test_numeric_knobs_run_or_exit_2_with_one_line(model, knobs):
    # --flag=value, so argparse reads "-inf" as a value; a small budget keeps every run short
    argv = ["trials", "--trials", "1", "--model", model]
    argv += [f"{flag}={text}" for flag, text in knobs.items()]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "WORK_BUDGET", 4096)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 0
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().count("\n") == 1, err.getvalue()
