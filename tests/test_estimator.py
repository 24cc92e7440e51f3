"""Estimator parameter selection and paired product pipeline checks."""

import copy
import inspect
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsratio
from gibbsratio.instance import (
    CountInstance,
    Schedule,
    log_ratio_true,
    logsumexp,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from gibbsratio.oracle import CHUNK_ELEMENTS, SamplingOracle
from gibbsratio.estimator import (
    EstimatorConfig,
    build_config,
    detect_case,
    epsilon_tilde,
    estimate,
    good_schedule_threshold,
    median_boost,
    min_m,
    minimize_on_grid,
    paired_product,
    predicted_calls,
    tau_rho,
)
from gibbsratio.claims import TAU_TABLE, moment_checks, tau_checks


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

    def test_rejects_non_finite(self):
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                epsilon_tilde(eps)

    @given(eps=st.floats(1e-6, 100.0))
    def test_range(self, eps):
        assert 0.0 < epsilon_tilde(eps) < 1.0

    @pytest.mark.parametrize("eps", [1.1e-16, 1e-17, 1e-300, 5e-324])
    def test_rejects_an_epsilon_that_one_plus_epsilon_rounds_away(self, eps):
        # epsilon_tilde would be exactly 0 and ceil(2 / eps~^2) a division by zero
        with pytest.raises(ValueError, match="below float resolution"):
            epsilon_tilde(eps)

    def test_smallest_epsilons_it_takes(self):
        assert 0.0 < epsilon_tilde(2.3e-16) < 2.3e-16


class TestTauRho:
    @pytest.mark.parametrize("d", [1, 64, 512])
    def test_matches_published_constants(self, d):
        checks = tau_checks(d)
        assert all(check.passed for check in checks), checks

    def test_decreasing_in_d(self):
        rho = 75.0 / 76.0
        values = [tau_rho(d, rho).value for d in (1, 4, 16, 64)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("rho,values", [
        (0.5, [4.0, 3.0, 2.47555679733476, 1.9918134287009401,
               1.684892069826055, 1.4820139206464833, 1.3436556314911938, 1.2471315272267247,
               1.178707193165066, 1.1296681561973243]),
        (0.8, [6.222986009244658, 4.088401847979912, 2.9185232270909567, 2.243305444118367,
               1.832916221216577, 1.5719043421366572, 1.3996902101631248, 1.2828175959689618,
               1.2018301835379894, 1.1448591627560276]),
        (75.0 / 76.0, [9.902725458549765, 6.0511253824733675, 3.999193608710352, 2.859625668155674,
                       2.1968633430695834, 1.7937369545480895, 1.5386265987731638,
                       1.371807950497158, 1.2598655237634713, 1.183249322485263]),
    ], ids=["rho-0.5", "rho-0.8", "rho-75/76"])
    def test_values_on_the_table_rows(self, rho, values):
        # the log-domain series tau_rho summed before it took scipy's regularized gamma; at
        # rho 0.5, d = 1 and 2 take the closed form (d + 1)/(d (1 - rho)) of their tau = 0 minimum
        got = [tau_rho(d, rho).value for d in TAU_TABLE]
        np.testing.assert_allclose(got, values, rtol=1e-12, atol=0)

    def test_memory_and_time_do_not_grow_with_d(self):
        tau_rho(1, 75.0 / 76.0)  # scipy.special loads on the first call
        started = time.perf_counter()
        res = tau_rho(10 ** 9, 75.0 / 76.0)
        assert time.perf_counter() - started < 1.0
        assert res.value == pytest.approx(1.0, abs=1e-3)


class TestMinimizeOnGrid:
    def test_grid_point_below_the_refinement_is_returned(self):
        # bounded Brent stays inside its cell, so it never reaches the minimum at grid[0]
        assert minimize_on_grid(lambda t: t, np.linspace(0.0, 1.0, 11), 1e-9) == (0.0, 0.0)
        # tau_rho's grid starts at tau = 0, where tau + 4 Q(3, tau) has its infimum 4
        assert tau_rho(1, 0.5) == (4.0, 0.0)


HEADLINE_PATH_SCRIPT = """
import json, sys
import numpy as np
import gibbsratio
from gibbsratio import cli
from gibbsratio.estimator import build_config, detect_case, estimate
from gibbsratio.claims import GRID4, tau_checks
from gibbsratio.harness import ExperimentConfig, run_trials
from gibbsratio.instance import schedule_delta
from gibbsratio.models import enumerate_ising

inst = enumerate_ising(GRID4)
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

    def test_case_one_threshold_that_underflows_is_infeasible(self):
        # gamma r eps~^2 / 2 rounds to 0: the rate would divide by zero
        with pytest.raises(ValueError, match="infeasible parameters"):
            min_m(64, 5e-324, 1, 1e-15, 10.0, "I")

    def test_case_two_defaults_lambda_to_e_minus_7(self):
        knobs = (64, 0.24, 8, 1.0, 10.0, "II")
        assert min_m(*knobs) == min_m(*knobs, math.exp(-7))
        assert EstimatorConfig(1.0, 0.24, 64, 64, 8, "II").lam == math.exp(-7)


# knobs every entry point below accepts, and what each entry point is called with
KNOBS = dict(epsilon=1.0, gamma=0.24, d=64, k=64, r=8, n=10.0, case="II", lam=0.01, rho=0.5, t=3)
ENTRY_POINTS = {
    "tau_rho": tau_rho,
    "min_m": min_m,
    "build_config": build_config,
    "EstimatorConfig": EstimatorConfig,
    "paired_product": lambda r: paired_product(
        SamplingOracle(two_level_instance(2.0)), Schedule([0.0, 1.0]), r, np.random.default_rng(0)
    ),
    "median_boost": lambda t: median_boost(
        singleton_instance(), EstimatorConfig(1.0, 0.24, 2, 2, 2, "I"), t, np.random.default_rng(0)
    ),
}


def _call(name: str, knobs: dict):
    f = ENTRY_POINTS[name]
    return f(**{k: v for k, v in knobs.items() if k in inspect.signature(f).parameters})


def _refusal(name: str, knobs: dict) -> str | None:
    try:
        _call(name, knobs)
    except ValueError as err:
        return str(err)
    return None


INT64 = "{} must be an integer in [1, 2^63)".format
BIG = {2 ** 63: "2^63", 10 ** 400: "10^400"}


def _rule(knob, value, message):
    return pytest.param(knob, value, message, id=f"{knob}-{BIG.get(value, value)}")


# one row per refused knob value, with the one message every entry point taking it raises
RULE_ROWS = [
    *(_rule("gamma", gamma, "gamma must lie in (0, 0.25)") for gamma in (0.0, 0.25, math.nan)),
    *(_rule(knob, v, INT64(knob)) for knob in ("d", "r") for v in (0, 2 ** 63, 10 ** 400, 2.5, 2.9, 8.0)),
    *(_rule("n", n, "n must be at least 1") for n in (0.5, 0.0, math.nan)),
    _rule("case", "III", "case must be 'I' or 'II'"),
    *(_rule("lam", lam, "lambda must lie in (0, 1)") for lam in (0.0, 1.0, -0.5, math.nan)),
    *(_rule("epsilon", eps, "epsilon must be positive and finite") for eps in (0.0, math.nan)),
    *(_rule("k", k, "k must be an integer of at least 1") for k in (0, 2.5, 8.0, 10.5)),
    *(_rule("t", t, "t must be an odd integer of at least 1") for t in (0, 2, 2.5, 3.0, 8.0)),
    _rule("rho", 1.0, "rho must lie in (0, 1)"),
]


class TestKnobRules:
    @pytest.mark.parametrize("knob,value,message", RULE_ROWS)
    def test_one_message_at_every_entry_point(self, knob, value, message):
        # the knobs are case II, so lambda is read; every other knob keeps its KNOBS value
        takers = [name for name, f in ENTRY_POINTS.items() if knob in inspect.signature(f).parameters]
        assert takers
        assert {name: _refusal(name, KNOBS | {knob: value}) for name in takers} == dict.fromkeys(
            takers, message
        )

    def test_every_entry_point_accepts_the_base_knobs(self):
        assert all(_refusal(name, KNOBS) is None for name in ENTRY_POINTS)

    def test_numpy_integers_pass_the_integer_rules(self):
        knobs = KNOBS | dict(d=np.int64(64), k=np.int64(64), r=np.int64(8), t=np.int64(3))
        assert all(_refusal(name, knobs) is None for name in ENTRY_POINTS)
        assert _call("build_config", knobs) == _call("build_config", KNOBS)

    @pytest.mark.parametrize("lam", [5.0, 0.0, math.nan, 0.01])
    def test_case_one_reads_no_lambda(self, lam):
        knobs = KNOBS | dict(case="I", lam=lam)
        built = _call("build_config", knobs)
        assert built == _call("build_config", knobs | dict(lam=None)) and built.lam is None
        assert _call("EstimatorConfig", knobs).lam is None
        assert _call("min_m", knobs) == _call("min_m", knobs | dict(lam=None))


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

    def test_infinite_epsilon_is_rejected(self):
        valid = dict(epsilon=1.0, gamma=0.24, d=64, k=64, r=8, case="I")
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            EstimatorConfig(**{**valid, "epsilon": math.inf})
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            build_config(math.inf, 10.0, "I", r=2, m=1.0)

    @pytest.mark.parametrize("knobs", [{}, {"d": 4}], ids=["headline", "min-rate"])
    def test_unknown_case_is_refused_before_tau_rho_runs(self, monkeypatch, knobs):
        # a custom d takes the rate from min_m, which runs tau_rho: one rule, one message
        def no_tau(*args):
            raise AssertionError("tau_rho ran")

        monkeypatch.setattr(gibbsratio.estimator, "tau_rho", no_tau)
        with pytest.raises(ValueError, match="^case must be 'I' or 'II'$"):
            build_config(0.5, 10.0, "III", **knobs)

    @pytest.mark.parametrize("knobs", [
        dict(d=2 ** 63, m=1e-30), dict(d=10 ** 400), dict(r=10 ** 400), dict(r=2 ** 63, d=4),
        dict(epsilon=1e-10), dict(d=0, m=1.0),
    ], ids=["d-2^63", "d-huge", "r-huge", "r-2^63", "derived-r", "d-0"])
    def test_d_and_r_must_fit_an_int64(self, knobs):
        knobs = dict(epsilon=0.5, n=10.0, case="I") | knobs
        with pytest.raises(ValueError, match=r"^[dr] must be an integer in \[1, 2\^63\)$"):
            build_config(**knobs)

    def test_largest_stride_it_takes(self):
        assert build_config(0.5, 10.0, "I", d=2 ** 63 - 1, m=1e-30).k == 1

    @pytest.mark.parametrize("knobs", [dict(m=1e308, d=64), dict(d=2 ** 62, gamma=1e-300, r=1)],
                             ids=["given-m", "min-rate"])
    def test_run_count_m_d_must_be_finite(self, knobs):
        with pytest.raises(ValueError, match="the TPA run count m d must be finite"):
            build_config(2.0, 10.0, "I", **knobs)

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

    INSIDE = r"inside \(0, 1\)"
    ZERO = "case I does not apply: zero-energy level present"

    @pytest.mark.parametrize("energies,outcomes", [
        ((0.5, 2.0), (INSIDE, INSIDE, INSIDE)),
        ((0.0, 0.5, 2.0), (INSIDE, INSIDE, INSIDE)),
        ((0.0, 1.0), ("II", ZERO, "II")),
        ((0.0,), ("II", ZERO, "II")),
        ((1.0,), ("I", "I", "II")),
    ], ids=["inside-unit", "zero-and-inside-unit", "zero-and-one", "zero-alone", "one-alone"])
    def test_detect_case_states_the_whole_rule(self, energies, outcomes):
        # outcomes under auto, I and II: the case returned, or the error raised
        inst = CountInstance([(h, 0.0) for h in energies], 0.0, 1.0)
        for case, outcome in zip(("auto", "I", "II"), outcomes):
            if outcome in ("I", "II"):
                assert detect_case(inst, case) == outcome
            else:
                with pytest.raises(ValueError, match=outcome):
                    detect_case(inst, case)

    def test_detect_case_rejects_an_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            detect_case(singleton_instance(), "III")


class TestPairedProduct:
    def test_singleton_exact_any_schedule(self):
        inst = singleton_instance(beta_max=5.0)
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(0)
        for sched in (Schedule([0.0, 5.0]), Schedule([0.0, 0.3, 1.7, 4.4, 5.0])):
            for r in (1, 7):
                res = paired_product(oracle, sched, r, rng)
                assert res.q_hat == pytest.approx(5.0, abs=1e-12)

    def test_rejects_r_below_one(self):
        oracle = SamplingOracle(two_level_instance(2.0))
        with pytest.raises(ValueError, match=r"^r must be an integer in \[1, 2\^63\)$"):
            paired_product(oracle, Schedule([0.0, 1.0]), 0, np.random.default_rng(0))
        assert oracle.call_count == 0

    def test_call_accounting(self):
        oracle = SamplingOracle(two_level_instance(2.0))
        rng = np.random.default_rng(1)
        sched = Schedule(np.linspace(0.0, oracle.instance.beta_max, 6))
        before = oracle.call_count
        res = paired_product(oracle, sched, 9, rng)
        assert oracle.call_count - before == 6 * 9
        assert res.schedule_len == 5

    @pytest.mark.statistical
    def test_single_interval_moments_match_closed_form(self):
        checks = moment_checks(np.random.default_rng(2))
        assert all(check.passed for check in checks), checks

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

    @pytest.mark.parametrize("r,levels", [
        (924, 262),  # q8-tight's shape: four blocks of 70 levels
        (60, CHUNK_ELEMENTS // 60),  # exactly one block
        (60, CHUNK_ELEMENTS // 60 + 1),  # one block plus one level
        (924, 2),  # ell = 1
        (CHUNK_ELEMENTS + 1, 2),  # ell = 1, one level per block
    ], ids=["four-blocks", "one-block", "block-plus-one", "ell-1", "ell-1-split"])
    def test_blocks_match_one_call_on_an_exact_oracle(self, r, levels):
        # an exact oracle uses its uniforms beta by beta, r at a time, however
        # the betas are split into calls; only the summation order differs
        inst = two_level_instance(8.0)
        sched = Schedule(np.linspace(inst.beta_min, inst.beta_max, levels))
        rng = np.random.default_rng(16)
        ref_rng = copy.deepcopy(rng)
        oracle = SamplingOracle(inst)
        res = paired_product(oracle, sched, r, rng)
        draws = SamplingOracle(inst).sample_many(sched.betas, r, ref_rng)
        half_gaps = 0.5 * np.diff(sched.betas)
        ref = logsumexp(half_gaps @ draws[1:]) - logsumexp(-(half_gaps @ draws[:-1]))
        assert abs(res.q_hat - ref) <= 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert oracle.call_count == levels * r

    @pytest.mark.parametrize("levels,r,bound", [
        # 20,000 levels at r = 60 are 9.6 MB of draws in one array
        (20_000, 60, 4 * 2 ** 20),
        # q8-tight's four blocks of 70 x 924 draws: a block still bound while
        # the next one is drawn puts the peak near three blocks
        (262, 924, 2 * CHUNK_ELEMENTS * 8),
    ], ids=["20000-levels", "one-block-live"])
    def test_draws_held_stay_within_a_block(self, levels, r, bound):
        inst = two_level_instance(8.0)
        oracle = SamplingOracle(inst)
        sched = Schedule(np.linspace(inst.beta_min, inst.beta_max, levels))
        rng = np.random.default_rng(17)
        tracemalloc.start()
        try:
            paired_product(oracle, sched, r, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


RSS_SCRIPT = """
import resource
from gibbsratio.estimator import build_config, estimate
from gibbsratio.harness import trial_rng
from gibbsratio.instance import two_level_instance
inst = two_level_instance(1000.0)
estimate(inst, build_config(0.1, inst.n, "II"), trial_rng(11, 0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# Linux folds the spawning process's peak RSS into a child's ru_maxrss at
# exec, so a fresh interpreter spawns the measured one and keeps pytest's out
RELAY = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


@pytest.mark.slow
def test_tight_estimate_at_q_1000_peaks_below_150_mb():
    # one two-level estimate at eps = 0.1 (r = 924, about 32,400 schedule
    # levels) in a fresh interpreter; one array of all its PPE draws put the
    # peak near 280 MB, blocks of levels leave the TPA pool's near 70 MB
    src = str(Path(gibbsratio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", RELAY, sys.executable, "-c", RSS_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    peak_kb = int(done.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kb < 150 * 1024


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

    def test_energy_inside_the_unit_interval_rejected_under_case_two(self):
        inst = CountInstance([(0.5, 0.0), (2.0, 0.0)], 0.0, 1.0)
        cfg = build_config(0.5, inst.n, "II")
        with pytest.raises(ValueError, match=r"inside \(0, 1\)"):
            estimate(inst, cfg, np.random.default_rng(0))

    def test_structural_call_accounting(self):
        inst = two_level_instance(3.0)
        cfg = build_config(1.0, inst.n, "II", d=4, r=6, m=2.0)
        oracle = SamplingOracle(inst)
        res = estimate(oracle, cfg, np.random.default_rng(5))
        expected = cfg.exact_calls(res.tpa_points, res.schedule_len)
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
        assert oracle.call_count == expected

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
        assert oracle.call_count == expected

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
        # refused before the first repetition: no draw, and no child stream spawned
        oracle = SamplingOracle(singleton_instance())
        cfg = build_config(0.5, 1.0, "I")
        rng = np.random.default_rng(7)
        for t in (2, 0, 2.5, 3.0, 8.0):
            with pytest.raises(ValueError, match="^t must be an odd integer of at least 1$"):
                median_boost(oracle, cfg, t, rng)
        assert oracle.call_count == 0
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

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
