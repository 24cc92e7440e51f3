"""Trial harness: reproducibility, accounting, summaries, suites."""

import io
import json
import math
import pickle

import numpy as np
import pytest

from gibbsratio.harness import (
    ExperimentConfig,
    TrialRecord,
    build_model_instance,
    call_accounting_checks,
    pooled_count_checks,
    reference_process_checks,
    resolve_estimator_config,
    run_suite,
    run_trials,
    step_survival_checks,
    trial_rng,
    verify_lemma10,
    wilson_interval,
    write_records,
)
from gibbsratio.lowerbound import build_from_grid
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
        cfg = ExperimentConfig(model="twolevel", target_q=2.0, trials=1)
        inst = build_model_instance(cfg)
        assert resolve_estimator_config(cfg, inst).case == "II"
        forced = ExperimentConfig(model="singleton", case="I", trials=1)
        assert resolve_estimator_config(forced, build_model_instance(forced)).case == "I"


class TestTrialRng:
    def test_documented_splitting_rule(self):
        direct = np.random.default_rng(
            np.random.SeedSequence(entropy=123, spawn_key=(7,))
        ).random(4)
        np.testing.assert_array_equal(trial_rng(123, 7).random(4), direct)

    def test_streams_differ_across_trials(self):
        assert trial_rng(1, 0).random() != trial_rng(1, 1).random()


class TestRunTrials:
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
    def test_tau_table_suite(self):
        report = run_suite("tau_table")
        assert report.passed
        assert len(report.checks) == 20

    @pytest.mark.statistical
    def test_distribution_suite(self):
        report = run_suite("distribution")
        assert report.passed, "\n".join(report.lines())

    @pytest.mark.statistical
    def test_distribution_suite_runs_the_claims_on_its_streams(self):
        claims = (
            pooled_count_checks(trial_rng(2024, 0))
            + step_survival_checks(trial_rng(2024, 1))
            + reference_process_checks(trial_rng(2024, 2), 25, 60)
        )
        assert run_suite("distribution").checks == claims

    def test_accounting_suite(self):
        report = run_suite("accounting")
        assert report.passed, "\n".join(report.lines())

    def test_accounting_suite_runs_the_claim_on_its_batch(self):
        batch = run_trials(ExperimentConfig(master_seed=77, **{**SMALL, "trials": 50}))
        checks = run_suite("accounting").checks
        assert checks[:1] == call_accounting_checks(batch)
        assert checks[1].observed == batch.summary["oracle_calls_mean"]

    def test_lemma10_suite(self):
        report = run_suite("lemma10")
        assert report.passed

    def test_lemma10_suite_joins_the_instance_reports(self):
        parts = [verify_lemma10(build_from_grid(16, 2)), verify_lemma10(build_from_grid(32, 3))]
        assert [part.suite for part in parts] == ["lemma10 N=16 m=2", "lemma10 N=32 m=3"]
        assert run_suite("lemma10").checks == parts[0].checks + parts[1].checks

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")
