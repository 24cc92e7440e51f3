"""Estimator parameter selection and paired product pipeline checks."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammaln

import gibbsratio
from gibbsratio.instance import (
    CountInstance,
    Schedule,
    log_ratio_true,
    paired_moments,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from gibbsratio.oracle import SamplingOracle
from gibbsratio.estimator import (
    EstimatorConfig,
    build_config,
    detect_case,
    epsilon_tilde,
    estimate,
    good_schedule_threshold,
    log_upper_incomplete_gamma,
    median_boost,
    min_m,
    paired_product,
    predicted_calls,
    tau_rho,
)
from gibbsratio.harness import tau_checks


class TestEpsilonTilde:
    def test_known_values(self):
        assert epsilon_tilde(1.0) == pytest.approx(1 - 2 ** -0.5, abs=1e-12)
        assert epsilon_tilde(3.0) == pytest.approx(0.5, abs=1e-12)

    def test_small_epsilon_series(self):
        eps = 0.01
        # expansion eps/2 - 3 eps^2/8 + O(eps^3)
        assert epsilon_tilde(eps) == pytest.approx(eps / 2 - 3 * eps ** 2 / 8, abs=eps ** 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            epsilon_tilde(0.0)

    @given(eps=st.floats(1e-6, 100.0))
    def test_range(self, eps):
        assert 0.0 < epsilon_tilde(eps) < 1.0


class TestLogUpperIncompleteGamma:
    def test_at_zero_is_factorial(self):
        assert log_upper_incomplete_gamma(5, 0.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_shape_one_is_exponential_tail(self):
        for b in (0.1, 1.0, 50.0):
            assert log_upper_incomplete_gamma(1, b) == pytest.approx(-b, abs=1e-12)

    def test_shape_two_at_one(self):
        assert log_upper_incomplete_gamma(2, 1.0) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_upper_incomplete_gamma(0, 1.0)
        with pytest.raises(ValueError):
            log_upper_incomplete_gamma(2, -1.0)

    def test_array_input_matches_scalar(self):
        b = np.array([[0.0, 0.1, 1.0], [50.0, 95.0, 600.0]])
        for a in (1, 5, 66):
            out = log_upper_incomplete_gamma(a, b)
            assert out.shape == b.shape
            expected = [[log_upper_incomplete_gamma(a, float(x)) for x in row] for row in b]
            np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0)
            assert out[0, 0] == pytest.approx(math.lgamma(a), abs=1e-12)
        with pytest.raises(ValueError):
            log_upper_incomplete_gamma(3, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("a,b", [(3, 2.0), (10, 1.5), (66, 95.0), (130, 600.0), (514, 600.0), (1030, 900.0)])
    def test_matches_regularized_library_form(self, a, b):
        expected = math.log(gammaincc(a, b)) + float(gammaln(a))
        assert log_upper_incomplete_gamma(a, b) == pytest.approx(expected, rel=1e-12)

    def test_deep_tail_against_asymptotic_series(self):
        # b far beyond a, where the regularized library form underflows:
        # Gamma(a,b) = b^(a-1) e^(-b) sum_k prod_{i<k} (a-1-i)/b, summed to
        # convergence as an independent oracle
        a, b = 1030, 1e4
        term = 1.0
        total = 1.0
        for i in range(a - 1):
            term *= (a - 1 - i) / b
            total += term
            if term < 1e-20 * total:
                break
        expected = (a - 1) * math.log(b) - b + math.log(total)
        assert log_upper_incomplete_gamma(a, b) == pytest.approx(expected, rel=1e-12)


class TestTauRho:
    @pytest.mark.parametrize("d", [1, 64, 512])
    def test_matches_published_constants(self, d):
        checks = tau_checks(d)
        assert all(check.passed for check in checks), checks

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_rho(0, 0.5)
        with pytest.raises(ValueError):
            tau_rho(4, 1.0)

    def test_decreasing_in_d(self):
        rho = 75.0 / 76.0
        values = [tau_rho(d, rho).value for d in (1, 4, 16, 64)]
        assert values == sorted(values, reverse=True)


HEADLINE_PATH_SCRIPT = """
import json, sys
import numpy as np
import gibbsratio
from gibbsratio import cli
from gibbsratio.estimator import build_config, detect_case, estimate
from gibbsratio.harness import ExperimentConfig, run_trials, tau_checks
from gibbsratio.instance import schedule_delta
from gibbsratio.models import GraphSpec, enumerate_ising

edges = [(v, v + step) for v in range(16) for step, inside in ((1, v % 4 < 3), (4, v < 12)) if inside]
inst = enumerate_ising(GraphSpec(16, tuple(edges)))
res = estimate(inst, build_config(0.5, inst.n, detect_case(inst)), np.random.default_rng(3))
delta, _ = schedule_delta(inst, res.schedule)
batch = run_trials(ExperimentConfig(model="twolevel", trials=2))
code = cli.main(["trials", "--trials", "2", "--out", sys.argv[1]])
headline = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
tau_passed = all(check.passed for check in tau_checks(64))
print(json.dumps({
    "finite": bool(np.isfinite([res.q_hat, delta]).all()) and len(batch.records) == 2,
    "cli_exit": code,
    "headline_scipy": headline,
    "tau_passed": tau_passed,
    "after_tau": "scipy.special" in sys.modules,
}))
"""


def test_headline_path_never_loads_scipy(tmp_path):
    # a fresh interpreter: scipy.special costs about 350 ms to import, so only
    # the non-headline knobs (tau_rho and what calls it) may load it
    src = str(Path(gibbsratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", HEADLINE_PATH_SCRIPT, str(tmp_path / "records.ndjson")],
        capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["finite"] and got["cli_exit"] == 0
    assert (tmp_path / "records.ndjson").read_text().count("\n") == 2
    assert got["headline_scipy"] == []
    assert got["tau_passed"]
    assert got["after_tau"]


class TestMinM:
    def test_case_one_headline_coefficient(self):
        # with r = ceil(2/eps~^2) the required rate stays below 3.6 ln n
        for eps in (0.5, 1.0, 2.0):
            r = math.ceil(2.0 / epsilon_tilde(eps) ** 2)
            for n in (math.e, 10.0, 1000.0):
                assert min_m(64, 0.24, r, eps, n, "I") <= 3.6 * math.log(n) + 1e-9

    def test_case_two_headline_coefficient(self):
        for eps in (0.5, 1.0):
            r = math.ceil(2.0 / epsilon_tilde(eps) ** 2)
            for n in (1.0, 10.0, 1000.0):
                bound = 3.6 * (9.0 + math.log(n))
                assert min_m(64, 0.24, r, eps, n, "II", math.exp(-7)) <= bound + 1e-9

    def test_numeric_anchor(self):
        # tau_rho(64) / (2 ln 1.24) is just under 3.6 per unit ln n
        ratio = tau_rho(64, 75.0 / 76.0).value / (2.0 * math.log(1.24))
        assert ratio == pytest.approx(3.577, abs=2e-3)
        assert ratio <= 3.6

    def test_monotone_in_r_and_n(self):
        base = dict(d=8, gamma=0.2, epsilon=1.0, case="I")
        m_small_r = min_m(r=4, n=50.0, **base)
        m_big_r = min_m(r=16, n=50.0, **base)
        assert m_big_r < m_small_r
        m_small_n = min_m(r=8, n=10.0, **base)
        m_big_n = min_m(r=8, n=1000.0, **base)
        assert m_big_n > m_small_n

    def test_infeasible_case_two(self):
        with pytest.raises(ValueError):
            min_m(64, 0.24, 1, 0.001, 10.0, "II", math.exp(-7))

    def test_validation(self):
        with pytest.raises(ValueError):
            min_m(64, 0.3, 8, 1.0, 10.0, "I")
        with pytest.raises(ValueError):
            min_m(64, 0.24, 8, 1.0, 10.0, "III")


class TestConfig:
    def test_default_case_one_example(self):
        cfg = build_config(1.0, math.e ** 2, "I")
        assert cfg.r == 24
        assert cfg.k == 461
        assert cfg.m == pytest.approx(461 / 64)
        assert cfg.rho == pytest.approx(0.75 / 0.76)
        assert cfg.d == 64 and cfg.gamma == 0.24
        assert cfg.lam is None

    def test_default_r_for_eps_three(self):
        assert build_config(3.0, 10.0, "I").r == 8

    def test_default_satisfies_min_m(self):
        # the headline rates clear min_m by as little as 0.24% (case II, eps = 3)
        for case in ("I", "II"):
            for eps in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
                for n in np.logspace(0.0, 6.0, 13):
                    cfg = build_config(eps, n, case)
                    m_required = min_m(cfg.d, cfg.gamma, cfg.r, eps, n, case, cfg.lam)
                    assert cfg.m >= m_required - 1e-12

    def test_custom_lambda_gets_admissible_rate(self):
        # the headline case II rate assumes lambda = e^-7; lambda = 0.1 needs more
        cfg = build_config(0.5, 24.0, "II", lam=0.1)
        required = min_m(cfg.d, cfg.gamma, cfg.r, 0.5, 24.0, "II", 0.1)
        assert cfg.lam == 0.1
        assert required - 1e-12 <= cfg.m <= required + 1.0 / cfg.d
        assert build_config(0.5, 24.0, "II", lam=math.exp(-7)) == build_config(0.5, 24.0, "II")

    def test_degenerate_n_clamps_k(self):
        cfg = build_config(0.5, 1.0, "I")
        assert cfg.k == 1 and cfg.m == 1 / 64

    def test_validation(self):
        valid = dict(epsilon=1.0, gamma=0.24, d=64, k=64, r=8, case="I")
        bads = (dict(epsilon=0.0), dict(epsilon=math.nan), dict(gamma=0.3), dict(k=0), dict(case="III"))
        for bad in bads:
            with pytest.raises(ValueError):
                EstimatorConfig(**{**valid, **bad})

    def test_build_config_validates_n_and_case(self):
        for n in (0.5, 0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="n must be at least 1"):
                build_config(0.5, n, "I")
        with pytest.raises(ValueError, match="unknown case"):
            build_config(0.5, 10.0, "III")

    def test_build_config_custom_d_uses_min_rate(self):
        cfg = build_config(1.0, 40.0, "I", d=8, gamma=0.2, r=16)
        required = min_m(8, 0.2, 16, 1.0, 40.0, "I")
        assert cfg.m >= required - 1e-12
        assert cfg.m - required <= 1.0 / cfg.d + 1e-12  # only the integer-k nudge

    def test_threshold_and_margin(self):
        cfg = build_config(0.5, 1.0, "II")
        et = cfg.eps_tilde
        assert cfg.delta_threshold == pytest.approx(math.log1p(0.5 * 0.24 * cfg.r * et ** 2))
        assert cfg.success_margin == pytest.approx(math.log(1.5))

    def test_detect_case(self):
        assert detect_case(two_level_instance(3.0)) == "II"
        assert detect_case(singleton_instance()) == "I"
        with pytest.raises(ValueError, match=r"every energy is 0 or in \[1, n\]"):
            detect_case(CountInstance([(0.5, 0.0)], 0.0, 1.0))


class TestPairedProduct:
    def test_singleton_exact_any_schedule(self):
        inst = singleton_instance(beta_max=5.0)
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(0)
        for sched in (Schedule([0.0, 5.0]), Schedule([0.0, 0.3, 1.7, 4.4, 5.0])):
            for r in (1, 7):
                res = paired_product(oracle, sched, r, rng)
                assert res.q_hat == pytest.approx(5.0, abs=1e-12)

    def test_call_accounting(self):
        oracle = SamplingOracle(two_level_instance(2.0))
        rng = np.random.default_rng(1)
        sched = Schedule(np.linspace(0.0, oracle.instance.beta_max, 6))
        before = oracle.call_count
        res = paired_product(oracle, sched, 9, rng)
        assert res.oracle_calls == 6 * 9
        assert oracle.call_count - before == 6 * 9
        assert res.schedule_len == 5

    @pytest.mark.statistical
    def test_single_interval_moments_match_closed_form(self):
        inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(2)
        n = 100_000
        sched = Schedule([0.0, math.log(3.0)])
        half = 0.5 * math.log(3.0)
        w = np.exp(-half * oracle.sample_many(0.0, n, rng))
        v = np.exp(half * oracle.sample_many(math.log(3.0), n, rng))
        pm = paired_moments(inst, 0.0, math.log(3.0))
        for sample, log_target in ((w, pm.log_ew), (v, pm.log_ev)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - math.exp(log_target)) < 4 * se

    @pytest.mark.statistical
    def test_ratio_of_means_is_partition_ratio(self):
        # mean(V) / mean(W) over independent single-run estimates -> 3/2
        inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(3)
        sched = Schedule([0.0, math.log(3.0)])
        n = 10_000
        w_vals = np.empty(n)
        v_vals = np.empty(n)
        for j in range(n):
            res = paired_product(oracle, sched, 1, rng)
            w_vals[j] = math.exp(res.log_w_bar)
            v_vals[j] = math.exp(res.log_v_bar)
        ratio = v_vals.mean() / w_vals.mean()
        # delta-method standard error for the ratio of independent means
        se = ratio * math.sqrt(
            w_vals.var(ddof=1) / (n * w_vals.mean() ** 2)
            + v_vals.var(ddof=1) / (n * v_vals.mean() ** 2)
        )
        assert abs(ratio - 1.5) < 4 * se

    @pytest.mark.statistical
    def test_relative_second_moment_matches_schedule_delta(self):
        inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(4)
        n = 100_000
        half = 0.5 * math.log(3.0)
        w = np.exp(-half * oracle.sample_many(0.0, n, rng))
        delta, _ = schedule_delta(inst, Schedule([0.0, math.log(3.0)]))
        vrel_emp = (w ** 2).mean() / w.mean() ** 2
        # 4-sigma tolerance via the delta method on E[W^2]/E[W]^2
        assert abs(vrel_emp - math.exp(delta)) < 0.02


class TestEstimatePipeline:
    def test_singleton_exact_every_seed(self):
        inst = singleton_instance(beta_max=5.0)
        cfg = build_config(0.5, inst.n, "I")
        for seed in range(20):
            res = estimate(inst, cfg, np.random.default_rng(seed))
            assert res.q_hat == pytest.approx(5.0, abs=1e-9)

    def test_case_mismatch_rejected(self):
        inst = two_level_instance(2.0)
        cfg = build_config(0.5, inst.n, "I")
        with pytest.raises(ValueError):
            estimate(inst, cfg, np.random.default_rng(0))

    def test_structural_call_accounting(self):
        inst = two_level_instance(3.0)
        cfg = build_config(1.0, inst.n, "II", d=4, r=6, m=2.0)
        oracle = SamplingOracle(inst)
        res = estimate(oracle, cfg, np.random.default_rng(5))
        expected = cfg.exact_calls(res.tpa_points, res.schedule_len)
        assert res.oracle_calls == expected
        assert oracle.call_count == expected

    def test_schedule_attached_and_valid(self):
        inst = two_level_instance(3.0)
        cfg = build_config(1.0, inst.n, "II", d=4, r=6, m=2.0)
        res = estimate(inst, cfg, np.random.default_rng(6))
        assert res.schedule is not None
        assert res.schedule.betas[0] == inst.beta_min
        assert res.schedule.betas[-1] == inst.beta_max

    def test_tied_tpa_points_below_float_resolution(self):
        # steps of about 1e-16 from beta = 1 round to ties; thinning must merge them
        inst = CountInstance([(1e16, 0.0)], 1.0, 1.0 + 4e-16)
        cfg = build_config(0.5, 1e16, "I")
        oracle = SamplingOracle(inst)
        res = estimate(oracle, cfg, np.random.default_rng(0))
        assert math.isfinite(res.q_hat)
        expected = cfg.exact_calls(res.tpa_points, res.schedule_len)
        assert res.oracle_calls == expected == oracle.call_count

    @settings(max_examples=60, deadline=None)
    @given(
        levels=st.lists(
            st.tuples(st.floats(1.0, 60.0), st.floats(-5.0, 20.0)), max_size=39
        ),
        zero=st.booleans(),
        beta_min=st.floats(-2.0, 2.0),
        width=st.floats(1e-3, 5.0),
        k=st.integers(1, 8),
        d=st.integers(1, 4),
        r=st.integers(1, 8),
    )
    def test_random_instances_run_clean(self, levels, zero, beta_min, width, k, d, r):
        # support 1 (a lone zero level) leaves the oracle's comparison empty
        if zero or not levels:
            levels = [(0.0, 0.0)] + levels
        inst = CountInstance(levels, beta_min, beta_min + width)
        cfg = EstimatorConfig(epsilon=0.5, gamma=0.24, d=d, k=k, r=r, case=detect_case(inst))
        oracle = SamplingOracle(inst)
        res = estimate(oracle, cfg, np.random.default_rng(0))
        assert math.isfinite(res.q_hat)
        assert res.schedule.betas[0] == inst.beta_min
        assert res.schedule.betas[-1] == inst.beta_max
        expected = cfg.exact_calls(res.tpa_points, res.schedule_len)
        assert res.oracle_calls == expected == oracle.call_count

    @pytest.mark.statistical
    def test_success_rate_on_small_instance(self):
        inst = two_level_instance(3.0)
        cfg = build_config(1.0, inst.n, "II")
        q = log_ratio_true(inst)
        hits = 0
        trials = 60
        for seed in range(trials):
            res = estimate(inst, cfg, np.random.default_rng(seed))
            hits += abs(res.q_hat - q) <= cfg.success_margin
        assert hits / trials >= 0.70

    @pytest.mark.statistical
    def test_success_rate_on_unit_two_level(self):
        # unit counts at {0, 1} on [0, ln 3], case II defaults at eps = 0.5
        inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
        cfg = build_config(0.5, inst.n, "II")
        q = log_ratio_true(inst)
        hits = 0
        trials = 100
        for seed in range(trials):
            res = estimate(inst, cfg, np.random.default_rng(seed))
            hits += abs(res.q_hat - q) <= cfg.success_margin
        assert hits / trials >= 0.70

    def test_predicted_calls_formula(self):
        cfg = build_config(0.5, 1.0, "II")
        pred = predicted_calls(cfg, 8.0)
        base = cfg.m * 8.0 * (cfg.r + cfg.d) + 2 * cfg.r
        assert pred["implemented"] == pytest.approx(base + cfg.k)
        assert pred["single_terminal"] == pytest.approx(base + 1)


class TestMedianBoost:
    def test_rejects_even_or_nonpositive(self):
        inst = singleton_instance()
        cfg = build_config(0.5, 1.0, "I")
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            median_boost(inst, cfg, 2, rng)
        with pytest.raises(ValueError):
            median_boost(inst, cfg, 0, rng)

    def test_singleton_exact(self):
        inst = singleton_instance(beta_max=5.0)
        cfg = build_config(0.5, 1.0, "I")
        for t in (1, 3, 5):
            res = median_boost(inst, cfg, t, np.random.default_rng(8))
            assert res.q_hat == pytest.approx(5.0, abs=1e-9)

    def test_median_selection(self):
        # with three runs the returned q_hat is the middle order statistic
        inst = two_level_instance(2.0)
        cfg = build_config(1.0, inst.n, "II", d=2, r=4, m=1.5)
        rng = np.random.default_rng(9)
        boosted = median_boost(inst, cfg, 3, rng)
        rng_replay = np.random.default_rng(9)
        singles = [estimate(inst, cfg, child) for child in rng_replay.spawn(3)]
        q_values = sorted(res.q_hat for res in singles)
        assert boosted.q_hat == pytest.approx(q_values[1], abs=0.0)
