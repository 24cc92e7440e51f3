"""Acceptance criteria, one test per criterion, one printed verdict line each.

Every runtime budget is pinned here, and every seed; the checks the suites
share (`tau_checks`, `pooled_count_checks`, `step_survival_checks`,
`call_accounting_checks`, `verify_lemma10`) fix their own sample sizes and
tolerances in `gibbsratio.harness`.  Run with `pytest -s` to see the
per-criterion PASS lines.  Criterion 11 and the complexity sweep are marked
slow (`-m "not slow"`); every seeded statistical criterion is marked
statistical, so `-m "not statistical"` runs the deterministic ones.
"""

import math
import time

import numpy as np
import pytest

from gibbsratio.estimator import build_config, estimate
from gibbsratio.harness import (
    TAU_TABLE,
    ExperimentConfig,
    call_accounting_checks,
    pooled_count_checks,
    run_trials,
    step_survival_checks,
    tau_checks,
    verify_lemma10,
)
from gibbsratio.instance import (
    CountInstance,
    log_partition,
    log_ratio_true,
    paired_moments,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from gibbsratio.lowerbound import build_from_grid, perturb
from gibbsratio.oracle import CORRUPTION_MODES, SamplingOracle
from gibbsratio.tpa import generate_schedule


def verdict(number: int, message: str) -> None:
    print(f"criterion {number:2d} PASS - {message}")


@pytest.fixture(scope="module")
def q8_instance():
    return two_level_instance(8.0)


@pytest.fixture(scope="module")
def q8_batch(q8_instance):
    """300-trial exact-oracle batch shared by criteria 7 and 8."""
    cfg = ExperimentConfig(
        model="twolevel", target_q=8.0, epsilon=0.5, trials=300, master_seed=2027
    )
    started = time.perf_counter()
    batch = run_trials(cfg)
    return batch, time.perf_counter() - started


def test_criterion_01_deterministic_exactness():
    started = time.perf_counter()
    inst = singleton_instance(h=1.0, beta_min=0.0, beta_max=5.0)
    cfg = build_config(0.5, inst.n, "I")
    worst = 0.0
    for seed in range(100):
        res = estimate(inst, cfg, np.random.default_rng(seed))
        worst = max(worst, abs(res.q_hat - 5.0))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 1.0
    verdict(1, f"zero-variance fixture exact: max |q_hat - 5| = {worst:.2e} over 100 seeds "
               f"({elapsed:.2f}s)")


def test_criterion_02_tau_table_reproduction():
    started = time.perf_counter()
    checks = [check for d in TAU_TABLE for check in tau_checks(d)]
    assert all(check.passed for check in checks), checks
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(2, f"schedule-quality constants match at all {len(TAU_TABLE)} strides ({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_03_closed_form_moment_equivalence():
    started = time.perf_counter()
    inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
    pm = paired_moments(inst, 0.0, math.log(3.0))
    assert abs((pm.log_ev - pm.log_ew) - math.log(1.5)) <= 1e-12
    oracle = SamplingOracle(inst)
    rng = np.random.default_rng(300)
    n = 100_000
    half = 0.5 * math.log(3.0)
    w = np.exp(-half * oracle.sample_many(0.0, n, rng))
    v = np.exp(half * oracle.sample_many(math.log(3.0), n, rng))
    for name, sample, log_target in (("W", w, pm.log_ew), ("V", v, pm.log_ev)):
        se = sample.std(ddof=1) / math.sqrt(n)
        gap = abs(sample.mean() - math.exp(log_target))
        assert gap < 4 * se, f"{name}: gap {gap} vs 4se {4 * se}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(3, f"Monte Carlo W, V means match closed forms within 4 SE at n={n} "
               f"({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_04_poisson_count_law():
    started = time.perf_counter()
    checks = pooled_count_checks(np.random.default_rng(400))
    assert all(check.passed for check in checks), checks
    mean, ratio = (check.observed for check in checks)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    verdict(4, f"pooled count mean {mean:.3f} within 3 SE of 50, "
               f"variance/mean {ratio:.3f} ({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_05_step_survival_identity():
    started = time.perf_counter()
    checks = step_survival_checks(np.random.default_rng(500))
    assert all(check.passed for check in checks), checks
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    verdict(5, f"step survival matches Z(alpha)/Z(0) at {len(checks)} grid points, "
               f"4 SE at n=100000 ({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_06_schedule_quality_frequency(q8_instance):
    started = time.perf_counter()
    cfg = build_config(0.5, q8_instance.n, "II")
    oracle = SamplingOracle(q8_instance)
    rng = np.random.default_rng(600)
    good = 0
    n_schedules = 500
    for _ in range(n_schedules):
        sched, _ = generate_schedule(oracle, cfg.k, cfg.d, rng)
        delta, _ = schedule_delta(q8_instance, sched)
        good += delta <= cfg.delta_threshold
    fraction = good / n_schedules
    elapsed = time.perf_counter() - started
    assert fraction >= 0.957
    assert elapsed < 120.0
    verdict(6, f"good-schedule fraction {fraction:.3f} >= 0.957 "
               f"(threshold delta <= {cfg.delta_threshold:.4f}) ({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_07_end_to_end_success(q8_batch):
    batch, elapsed = q8_batch
    rate = batch.summary["success_rate"]
    lo, hi = batch.summary["wilson_95"]
    assert rate >= 0.70
    assert elapsed < 300.0
    verdict(7, f"success rate {rate:.3f} >= 0.70 over 300 trials, "
               f"Wilson 95% [{lo:.3f}, {hi:.3f}] ({elapsed:.2f}s)")


@pytest.mark.statistical
def test_criterion_08_oracle_call_accounting(q8_batch):
    batch, _ = q8_batch
    checks = call_accounting_checks(batch)
    assert all(check.passed for check in checks), checks
    observed = batch.summary["oracle_calls_mean"]
    predicted = batch.summary["predicted_calls"]
    reference = batch.summary["predicted_calls_single_terminal"]
    assert abs(observed - predicted) <= 0.05 * predicted
    verdict(8, f"per-trial accounting exact; mean calls {observed:.0f} within 5% of "
               f"{predicted:.0f} (single-terminal-draw convention: {reference:.0f})")


@pytest.mark.statistical
@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_criterion_09_approximate_oracle_robustness(q8_instance, mode):
    started = time.perf_counter()
    cfg = build_config(0.5, q8_instance.n, "II")
    q = log_ratio_true(q8_instance)
    tv = 0.1 / (cfg.m * q * (cfg.r + cfg.d) + 3 * cfg.r + 1)
    batch = run_trials(
        ExperimentConfig(
            model="twolevel", target_q=8.0, epsilon=0.5, trials=300,
            master_seed=2028, tv_budget=tv, corruption_mode=mode,
        )
    )
    rate = batch.summary["success_rate"]
    elapsed = time.perf_counter() - started
    assert rate >= 0.70 - 0.10 - 0.05
    assert elapsed < 300.0
    verdict(9, f"success rate {rate:.3f} >= 0.55 with {mode} corruption at "
               f"tv = {tv:.3e} ({elapsed:.2f}s)")


def test_criterion_10_lower_bound_instance_properties():
    started = time.perf_counter()
    for n_factors, m_grid in ((16, 2), (32, 3)):
        report = verify_lemma10(build_from_grid(n_factors, m_grid))
        assert report.passed, report.lines()
    lb = build_from_grid(16, 2)
    betas = np.linspace(-1.0, lb.beta_max + 1.0, 10)
    for nu in (0.01, 0.1, 1.0):
        for sign in (+1, -1):
            tilted = perturb(lb, nu, sign)
            gap = np.abs(
                log_partition(tilted, betas) - log_partition(lb.expanded, betas - sign * nu)
            ).max()
            assert gap <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(10, f"sandwich, sensitivity, curvature, ratio inequalities strict for "
                f"(16,2) and (32,3); tilt identity within 1e-9 ({elapsed:.2f}s)")


def sensitive_batch(model, graph_path, **knobs):
    """200 seeded trials on the 4x4 Ising grid or on build_from_grid(16, 2).

    Unlike the two-level instance, both fail often once m drops below the
    admissible rate, so a success check here can tell a broken estimator.
    """
    model_fields = {
        "ising": {"graph_path": str(graph_path)},
        "lowerbound": {"n_factors": 16, "m_grid": 2},
    }[model]
    return run_trials(ExperimentConfig(
        model=model, epsilon=0.5, trials=200, master_seed=11, **model_fields, **knobs
    ))


@pytest.mark.statistical
@pytest.mark.parametrize("model", ["ising", "lowerbound"])
def test_criterion_12_success_on_sensitive_instances(model, grid4_graph):
    started = time.perf_counter()
    batch = sensitive_batch(model, grid4_graph)
    est = batch.estimator_config
    rate = batch.summary["success_rate"]
    assert rate >= 0.75
    # the proof split: a good schedule is likely, and PPE then succeeds often
    good = [rec for rec in batch.records if rec.schedule_delta <= est.delta_threshold]
    good_share = len(good) / len(batch.records)
    rho = 0.75 / (1.0 - est.gamma)
    assert good_share >= rho
    good_success = sum(rec.success for rec in good) / len(good)
    assert good_success >= 1.0 - est.gamma
    elapsed = time.perf_counter() - started
    verdict(12, f"{model}: success rate {rate:.3f} >= 0.75 (k={est.k}); good schedules "
                f"{good_share:.3f} >= rho={rho:.3f}, success given good {good_success:.3f} "
                f">= {1.0 - est.gamma:.2f} ({elapsed:.2f}s)")


@pytest.mark.statistical
@pytest.mark.parametrize("model", ["ising", "lowerbound"])
def test_criterion_12_negative_control_below_the_rate(model, grid4_graph):
    batch = sensitive_batch(model, grid4_graph, m=0.1)
    rate = batch.summary["success_rate"]
    assert rate < 0.75
    verdict(12, f"{model}: at m=0.1 (k={batch.estimator_config.k}) success rate "
                f"{rate:.3f} < 0.75, so the success check has power")


@pytest.mark.slow
@pytest.mark.statistical
def test_criterion_11_median_boosting():
    started = time.perf_counter()
    batch = run_trials(
        ExperimentConfig(
            model="twolevel", target_q=8.0, epsilon=0.5, trials=300,
            master_seed=2029, boost_t=5,
        )
    )
    rate = batch.summary["success_rate"]
    elapsed = time.perf_counter() - started
    assert rate >= 0.85
    assert elapsed < 1500.0
    verdict(11, f"median-of-5 success rate {rate:.3f} >= 0.85 over 300 trials "
                f"({elapsed:.2f}s)")


@pytest.mark.slow
@pytest.mark.statistical
def test_complexity_sweep_report():
    """Mean oracle calls track the predicted linear growth in the log ratio."""
    rows = []
    for target_q in (4.0, 8.0, 16.0):
        batch = run_trials(
            ExperimentConfig(
                model="twolevel", target_q=target_q, epsilon=0.5,
                trials=40, master_seed=2030,
            )
        )
        rows.append(
            (target_q, batch.summary["oracle_calls_mean"], batch.summary["predicted_calls"])
        )
    print("complexity sweep (two-level, eps=0.5):")
    for target_q, observed, predicted in rows:
        print(f"  q={target_q:5.1f}  mean calls {observed:10.1f}  predicted {predicted:10.1f}")
        assert abs(observed - predicted) <= 0.10 * predicted
