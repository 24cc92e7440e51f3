"""Trial harness: reproducibility, accounting, summaries, suites."""

import concurrent.futures
import io
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbsratio
from gibbsratio.claims import call_accounting_checks, run_suite
from gibbsratio.harness import (
    ExperimentConfig,
    TrialRecord,
    build_model_instance,
    resolve_estimator_config,
    run_trials,
    trial_rng,
    wilson_interval,
    write_records,
)
from gibbsratio.models import BudgetExceededError
from gibbsratio.instance import log_ratio_true, save_instance, two_level_instance

SMALL = dict(model="twolevel", target_q=3.0, epsilon=1.0, d=4, r=6, m=2.0, trials=25)


class TestModelDispatch:
    def test_singleton(self):
        inst = build_model_instance(ExperimentConfig(model="singleton", trials=1))
        assert inst.support() == [(1.0, 0.0)]
        assert (inst.beta_min, inst.beta_max) == (0.0, 5.0)

    def test_twolevel_hits_target(self):
        inst = build_model_instance(ExperimentConfig(model="twolevel", target_q=6.0, trials=1))
        assert log_ratio_true(inst) == pytest.approx(6.0, abs=1e-9)

    def test_synthetic_round_trip(self, tmp_path):
        inst = two_level_instance(2.5)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = build_model_instance(
            ExperimentConfig(model="synthetic", instance_path=str(path), trials=1)
        )
        assert loaded == inst

    def test_synthetic_needs_path(self):
        with pytest.raises(ValueError):
            build_model_instance(ExperimentConfig(model="synthetic", trials=1))

    def test_graph_models(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        for model in ("ising", "colorings", "matchings"):
            inst = build_model_instance(
                ExperimentConfig(model=model, graph_path=str(path), trials=1)
            )
            assert inst.support_size >= 2

    def test_graph_beta_override(self, tmp_path):
        # each overridable model, one end at a time: that end moves, the other
        # end, the support and n stay as the model builds them
        graph = tmp_path / "square.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 0\n")
        synthetic = tmp_path / "inst.json"
        save_instance(two_level_instance(2.5), synthetic)
        paths = dict(graph_path=str(graph), instance_path=str(synthetic))
        for model in ("singleton", "synthetic", "ising", "colorings", "matchings"):
            base = build_model_instance(ExperimentConfig(model=model, trials=1, **paths))
            for end, value in (("beta_min", 0.1), ("beta_max", 0.9)):
                inst = build_model_instance(
                    ExperimentConfig(model=model, trials=1, **paths, **{end: value})
                )
                want = {"beta_min": base.beta_min, "beta_max": base.beta_max, end: value}
                assert (inst.beta_min, inst.beta_max) == (want["beta_min"], want["beta_max"])
                assert inst.support() == base.support()
                assert inst.n == base.n

    def test_fixed_window_models_reject_override(self):
        # twolevel and lowerbound derive their window from the target ratio
        for model in ("twolevel", "lowerbound"):
            for window in (dict(beta_min=0.1), dict(beta_max=1.0)):
                with pytest.raises(ValueError, match="fixes its own beta window"):
                    build_model_instance(ExperimentConfig(model=model, trials=1, **window))

    def test_lowerbound_model(self):
        inst = build_model_instance(
            ExperimentConfig(model="lowerbound", n_factors=8, m_grid=1, trials=1)
        )
        assert inst.energies[0] == 1.0
        assert inst.support_size == 9

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="curveball")

    @pytest.mark.parametrize("bad,message", [
        (dict(trials=0), "trials must be an integer of at least 1"),
        (dict(workers=0), "workers must be an integer of at least 1"),
        (dict(master_seed=-1), "master_seed must be an integer of at least 0"),
        (dict(trials=2.5), "trials must be an integer of at least 1"),
        (dict(workers=1.5), "workers must be an integer of at least 1"),
        (dict(master_seed=1.5), "master_seed must be an integer of at least 0"),
        (dict(boost_t=3.0), "boost_t must be an odd integer of at least 1"),
        (dict(trials=8.0), "trials must be an integer of at least 1"),
        (dict(workers=2.5), "workers must be an integer of at least 1"),
        (dict(workers=8.0), "workers must be an integer of at least 1"),
        (dict(master_seed=2.5), "master_seed must be an integer of at least 0"),
        (dict(master_seed=8.0), "master_seed must be an integer of at least 0"),
        (dict(boost_t=2.5), "boost_t must be an odd integer of at least 1"),
        (dict(boost_t=8.0), "boost_t must be an odd integer of at least 1"),
        (dict(trials=True), "trials must be an integer of at least 1"),
        (dict(workers=True), "workers must be an integer of at least 1"),
        (dict(master_seed=True), "master_seed must be an integer of at least 0"),
        (dict(boost_t=True), "boost_t must be an odd integer of at least 1"),
    ], ids=["trials-zero", "workers-zero", "seed-negative", "trials-2.5", "workers-1.5",
            "seed-1.5", "boost-3.0", "trials-8.0", "workers-2.5", "workers-8.0", "seed-2.5",
            "seed-8.0", "boost-2.5", "boost-8.0", "trials-True", "workers-True", "seed-True",
            "boost-True"])
    def test_bad_run_knobs_rejected_at_build(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**bad)

    def test_numpy_integers_pass_the_run_knob_rules(self):
        knobs = dict(trials=np.int64(2), workers=np.int64(1), master_seed=np.int64(5), boost_t=np.int64(3))
        cfg = ExperimentConfig(**knobs)
        assert cfg == ExperimentConfig(trials=2, workers=1, master_seed=5, boost_t=3)
        assert all(type(getattr(cfg, name)) is int for name in knobs)
        json.dumps(run_trials(ExperimentConfig(master_seed=np.int64(3), trials=2)).summary)

    @pytest.mark.parametrize("model", ["ising", "colorings", "matchings"])
    def test_graph_model_needs_graph_path(self, model):
        with pytest.raises(ValueError, match=f"{model} model needs graph_path"):
            build_model_instance(ExperimentConfig(model=model, trials=1))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(tv_budget=-0.1),
            dict(tv_budget=1.0),
            dict(tv_budget=float("nan")),
            dict(corruption_mode="bogus"),
            dict(boost_t=0),
            dict(boost_t=2),
            dict(boost_t=-3),
        ],
        ids=["tv-negative", "tv-one", "tv-nan", "mode-unknown", "boost-zero", "boost-even",
             "boost-negative"],
    )
    def test_bad_corruption_and_boost_rejected_at_build(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_case_resolution(self):
        # the instance picks the case: II with a zero-energy level, I without
        for model, case in (("twolevel", "II"), ("singleton", "I")):
            cfg = ExperimentConfig(model=model, trials=1)
            assert resolve_estimator_config(cfg, build_model_instance(cfg)).case == case

    def test_work_budget_takes_q_3e4_and_refuses_q_1e6(self):
        # default k = 816 at eps 0.5: about 2.4e7 expected TPA points against 8.2e8
        ok = ExperimentConfig(model="twolevel", target_q=3e4, trials=1)
        assert resolve_estimator_config(ok, build_model_instance(ok)).k == 816
        big = ExperimentConfig(model="twolevel", target_q=1e6, trials=1)
        with pytest.raises(BudgetExceededError, match="work budget"):
            resolve_estimator_config(big, build_model_instance(big))

    @pytest.mark.parametrize("knobs", [
        dict(model="singleton", r=10 ** 8),
        dict(model="twolevel", epsilon=1e-9),
        dict(model="singleton", beta_max=1e-12, m=1e10),
    ], ids=["r-1e8", "eps-1e-9", "k-over-a-tiny-window"])
    def test_work_budget_counts_the_runs_of_tpa_and_the_ppe(self, knobs):
        # 4e8 floats for the PPE's runs; r about 8e18; k = 6.4e11 TPA runs for 0.64 points
        cfg = ExperimentConfig(trials=1, **knobs)
        with pytest.raises(BudgetExceededError, match="work budget"):
            resolve_estimator_config(cfg, build_model_instance(cfg))

    @pytest.mark.parametrize("trials", [3 * 10 ** 17, np.int64(3 * 10 ** 17)], ids=["int", "numpy"])
    def test_work_budget_counts_trial_records(self, trials):
        # 46 floats a record, 1.38e19 in all, where int64 arithmetic would wrap
        cfg = ExperimentConfig(trials=trials)
        with pytest.raises(BudgetExceededError, match=r"= 1\.38e\+19 floats"):
            resolve_estimator_config(cfg, build_model_instance(cfg))

    def test_work_budget_takes_r_5e7(self):
        cfg = ExperimentConfig(model="singleton", r=5 * 10 ** 7, trials=1)
        assert resolve_estimator_config(cfg, build_model_instance(cfg)).r == 5 * 10 ** 7

    def test_work_budget_counts_each_pool_process(self):
        # 2^20 floats a process: 1,000 of them are over the budget, while two
        # trials start two processes however many workers are asked for
        inst = build_model_instance(ExperimentConfig())
        with pytest.raises(BudgetExceededError, match="p = 1000: over the work budget"):
            resolve_estimator_config(ExperimentConfig(trials=1000, workers=1000), inst)
        resolve_estimator_config(ExperimentConfig(trials=2, workers=10 ** 9), inst)


class TestTrialRng:
    def test_documented_splitting_rule(self):
        direct = np.random.default_rng(
            np.random.SeedSequence(entropy=123, spawn_key=(7,))
        ).random(4)
        np.testing.assert_array_equal(trial_rng(123, 7).random(4), direct)

    def test_streams_differ_across_trials(self):
        assert trial_rng(1, 0).random() != trial_rng(1, 1).random()


class TestRunTrials:
    @pytest.mark.parametrize("bad,message", [
        (dict(model="colorings", kcolors=1), "kcolors must be an integer of at least 2"),
        (dict(model="lowerbound", n_factors=1), "at least 2 for a positive window"),
        (dict(model="lowerbound", m_grid=0), "m_grid must be an integer of at least 1"),
        (dict(model="ising", beta_min=2.0, beta_max=1.0), "beta_max must exceed beta_min"),
        (dict(model="ising", beta_max=math.nan), "temperature bounds must be finite"),
        (dict(target_q=-1.0), "target_q must be positive"),
        *(({"model": "colorings", "kcolors": v}, "kcolors must be an integer of at least 2")
          for v in (2.5, 8.0)),
        *(({"model": "lowerbound", knob: v}, f"{knob} must be an integer of at least 1")
          for knob in ("n_factors", "m_grid") for v in (2.5, 8.0)),
        (dict(model="lowerbound", n_factors=6.5), "n_factors must be an integer of at least 1"),
    ], ids=["colors-1", "n-factors-1", "m-grid-0", "window-reversed", "window-nan",
            "q-negative", "colors-2.5", "colors-8.0", "n-factors-2.5", "n-factors-8.0",
            "m-grid-2.5", "m-grid-8.0", "n-factors-6.5"])
    def test_setting_a_builder_rejects_raises_before_the_first_trial(
        self, tmp_path, monkeypatch, bad, message
    ):
        def no_trial(payload):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(gibbsratio.harness, "_run_one_trial", no_trial)
        graph = tmp_path / "square.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 0\n")
        with pytest.raises(ValueError, match=message):
            run_trials(ExperimentConfig(graph_path=str(graph), trials=1, **bad))

    def test_deterministic_replay(self):
        cfg = ExperimentConfig(master_seed=5, **SMALL)
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert [rec.to_dict() for rec in a.records] == [rec.to_dict() for rec in b.records]
        assert a.summary == b.summary

    def test_worker_pool_matches_serial(self):
        serial = run_trials(ExperimentConfig(master_seed=9, workers=1, **SMALL))
        pooled = run_trials(ExperimentConfig(master_seed=9, workers=2, **SMALL))
        assert [rec.to_dict() for rec in serial.records] == [
            rec.to_dict() for rec in pooled.records
        ]

    @pytest.mark.parametrize("trials,workers,pools", [
        (2, 100000, [2]), (3, 2, [2]), (1, 2, []),
    ], ids=["trials-2-workers-1e5", "trials-3-workers-2", "trials-1-workers-2"])
    def test_pool_starts_no_more_processes_than_trials(
        self, monkeypatch, trials, workers, pools
    ):
        # a stand-in pool records max_workers and runs the trials in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(master_seed=9, **(SMALL | dict(trials=trials, workers=workers)))
        assert len(run_trials(cfg).records) == trials
        assert started == pools

    def test_structural_call_identity(self):
        checks = call_accounting_checks(run_trials(ExperimentConfig(master_seed=11, **SMALL)))
        assert all(check.passed for check in checks), checks

    def test_success_flag_consistent(self):
        batch = run_trials(ExperimentConfig(master_seed=13, **SMALL))
        margin = batch.estimator_config.success_margin
        for rec in batch.records:
            assert rec.success == (abs(rec.q_hat - rec.q_true) <= margin)

    def test_singleton_always_succeeds(self):
        batch = run_trials(
            ExperimentConfig(model="singleton", epsilon=0.5, trials=10, master_seed=17)
        )
        assert batch.summary["success_rate"] == 1.0
        for rec in batch.records:
            assert rec.q_hat == pytest.approx(5.0, abs=1e-9)

    def test_summary_fields(self):
        batch = run_trials(ExperimentConfig(master_seed=19, **SMALL))
        s = batch.summary
        assert s["trials"] == 25
        assert 0.0 <= s["success_rate"] <= 1.0
        assert s["wilson_95"][0] <= s["success_rate"] <= s["wilson_95"][1]
        assert s["q_true"] == pytest.approx(3.0, abs=1e-9)
        assert s["predicted_calls"] > s["predicted_calls_single_terminal"]
        assert 0.0 <= s["good_schedule_fraction"] <= 1.0

    def test_corrupted_run(self):
        cfg = ExperimentConfig(
            master_seed=23, tv_budget=0.001, corruption_mode="uniform", **SMALL
        )
        batch = run_trials(cfg)
        assert batch.summary["tv_budget"] == 0.001
        assert batch.summary["corruption_mode"] == "uniform"

    def test_boosted_run_multiplies_calls(self):
        plain = run_trials(ExperimentConfig(master_seed=29, **SMALL))
        boosted = run_trials(ExperimentConfig(master_seed=29, boost_t=3, **SMALL))
        ratio = (
            boosted.summary["oracle_calls_mean"] / plain.summary["oracle_calls_mean"]
        )
        assert 2.5 < ratio < 3.5
        assert boosted.summary["predicted_calls"] == pytest.approx(
            3 * plain.summary["predicted_calls"]
        )


    def test_call_accounting_refuses_a_boosted_batch(self):
        # a boosted record counts all t runs' calls next to one run's points and levels
        batch = run_trials(ExperimentConfig(master_seed=29, boost_t=3, **{**SMALL, "trials": 5}))
        with pytest.raises(ValueError, match="boost_t"):
            call_accounting_checks(batch)


def fresh_interpreter(script: str, *args: str) -> list[str]:
    """The words ``script`` prints, run by ``python -c`` on this checkout's package."""
    src = str(Path(gibbsratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.split()


SERIAL_BATCH_SCRIPT = """
import sys
import gibbsratio
from gibbsratio.harness import ExperimentConfig, run_trials
batch = run_trials(ExperimentConfig(model="twolevel", trials=2))
print(len(batch.records), "concurrent.futures.process" in sys.modules,
      "gibbsratio.claims" in sys.modules)
"""


def test_serial_batches_never_import_the_process_pool():
    # a fresh interpreter: concurrent.futures.process costs about 20 ms to
    # import, so only run_trials with workers > 1 loads it; the claims are
    # never on a batch's import path
    assert fresh_interpreter(SERIAL_BATCH_SCRIPT) == ["2", "False", "False"]


LAZY_NUMPY_SCRIPT = """
import sys
import gibbsratio
from gibbsratio.harness import ExperimentConfig, run_trials
on_import = "numpy.random" in sys.modules
batch = run_trials(ExperimentConfig(model="twolevel", trials=2))
print(len(batch.records), on_import, "numpy.ma" in sys.modules)
"""


def test_trials_never_import_numpy_ma():
    # numpy loads numpy.random and numpy.ma on first use; importing the
    # package loads neither, and np.unique, which loads numpy.ma, is off the
    # trial path
    assert fresh_interpreter(LAZY_NUMPY_SCRIPT) == ["2", "False", "False"]


POOLED_BATCH_SCRIPT = """
import os
import sys
from pathlib import Path
from gibbsratio import harness

run_one = harness._run_one_trial
seen = set()


def first_trial_imports(payload):
    # each forked worker writes the modules its first trial added
    if os.getpid() in seen:
        return run_one(payload)
    seen.add(os.getpid())
    before = set(sys.modules)
    rec = run_one(payload)
    Path(sys.argv[1], str(os.getpid())).write_text(" ".join(sorted(set(sys.modules) - before)))
    return rec


harness._run_one_trial = first_trial_imports
batch = harness.run_trials(harness.ExperimentConfig(model="twolevel", trials=16, workers=2))
print(len(batch.records))
"""


def test_pooled_workers_import_nothing_in_their_first_trial(tmp_path):
    # forked workers inherit the parent's modules, so what numpy loads on
    # first use is loaded once in the parent, not in every worker of every batch
    assert fresh_interpreter(POOLED_BATCH_SCRIPT, str(tmp_path)) == ["16"]
    firsts = {path.name: path.read_text().split() for path in tmp_path.iterdir()}
    assert firsts and firsts == dict.fromkeys(firsts, [])


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(75, 100)
        assert lo == pytest.approx(0.6573, abs=2e-3)
        assert hi == pytest.approx(0.8241, abs=2e-3)

    def test_degenerate(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi < 0.35
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestTrialRecord:
    def test_slotted_record_pickles_and_keeps_its_fields(self):
        fields = dict(
            seed=3, q_true=8.0, q_hat=7.9, success=True, oracle_calls=120,
            schedule_len=4, tpa_points=20, schedule_delta=0.01,
        )
        rec = TrialRecord(**fields, wall_time=0.5)
        assert not hasattr(rec, "__dict__")
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert rec.to_dict() == fields and list(rec.to_dict()) == list(fields)
        assert rec.to_dict(include_timing=True) == {**fields, "wall_time": 0.5}


class TestWriteRecords:
    def test_ndjson_round_trip(self):
        batch = run_trials(ExperimentConfig(master_seed=31, trials=3, **{
            k: v for k, v in SMALL.items() if k != "trials"
        }))
        buf = io.StringIO()
        write_records(batch.records, buf, fmt="ndjson")
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 3
        parsed = json.loads(lines[0])
        assert set(parsed) == {
            "seed", "q_true", "q_hat", "success", "oracle_calls",
            "schedule_len", "tpa_points", "schedule_delta",
        }

    def test_timing_opt_in(self):
        batch = run_trials(ExperimentConfig(master_seed=31, trials=2, **{
            k: v for k, v in SMALL.items() if k != "trials"
        }))
        buf = io.StringIO()
        write_records(batch.records, buf, fmt="ndjson", include_timing=True)
        assert "wall_time" in json.loads(buf.getvalue().splitlines()[0])

    def test_csv_shape(self):
        batch = run_trials(ExperimentConfig(master_seed=37, trials=2, **{
            k: v for k, v in SMALL.items() if k != "trials"
        }))
        buf = io.StringIO()
        write_records(batch.records, buf, fmt="csv")
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("seed,q_true,q_hat,success,")
        assert len(lines) == 3

    def test_csv_header_is_the_record_fields(self):
        names = "seed,q_true,q_hat,success,oracle_calls,schedule_len,tpa_points,schedule_delta"
        for include_timing, header in ((False, names), (True, names + ",wall_time")):
            buf = io.StringIO()
            write_records([], buf, fmt="csv", include_timing=include_timing)
            assert buf.getvalue() == header + "\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_records([], io.StringIO(), fmt="parquet")


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")
