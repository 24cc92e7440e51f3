"""Tests of the benchmark's own code: gate, repeat checks and a smoke run per workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from dataclasses import replace

import pytest

from workloads import WORKLOADS, use_checkout_source

use_checkout_source()

import run  # noqa: E402
from gibbsratio.harness import run_trials  # noqa: E402
from workloads import experiment_config  # noqa: E402


@pytest.fixture(scope="module")
def small_batch(tmp_path_factory):
    cfg = experiment_config(WORKLOADS["q8-pool"], 3, tmp_path_factory.mktemp("out"), trials=6)
    return run_trials(replace(cfg, workers=1))


def test_gate_flags_oracle_calls_off_by_one(small_batch):
    est = small_batch.estimator_config
    good = small_batch.records
    assert all(run.trial_ok(rec, est) for rec in good)
    for delta in (-1, 1):
        bad = replace(good[2], oracle_calls=good[2].oracle_calls + delta)
        assert not run.trial_ok(bad, est)
        gate = run.Gate(est, 0.75)
        gate.check(good[:2] + [bad] + good[3:], "batch")
        assert (gate.attempted, gate.failed) == (len(good), 1)
        assert not gate.correct


def test_gate_flags_non_finite_estimate_and_record_mismatch(small_batch):
    est = small_batch.estimator_config
    good = small_batch.records
    assert not run.trial_ok(replace(good[0], q_hat=float("nan")), est)
    gate = run.Gate(est, 0.75)
    gate.same_records(good, [replace(good[0], wall_time=1.0)] + good[1:], "timing only")
    assert gate.correct
    gate.same_records(good, [replace(good[0], q_hat=good[0].q_hat + 1e-12)] + good[1:], "q_hat")
    assert gate.problems == ["q_hat"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (10, 50, 100, 200, 1000)] == [50, 80, 90, 95, 99]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, trace, tmp_path):
    report, result = run.measure(
        WORKLOADS[name], seed=1, seconds=0, trace=trace, out_dir=tmp_path,
        trials=12, setup_samples=1,
    )
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 24
    declared = [spec["name"] for spec in run.declared_metrics(trace)]
    assert list(result["metrics"]) == declared
    if trace:
        assert report["metrics"]["tpa.waves"] == report["metrics"]["oracle.sample_at.calls"]
        assert (tmp_path / report["spans"]).is_file()
    else:
        assert all(result["metrics"][n]["value"] > 0 for n in declared)
