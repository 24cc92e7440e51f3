"""The paper's claims as checks, and the pinned suites built from them.

Each claim is one function that returns its checks, with its sample size and
tolerance fixed inside.  ``SUITES`` is the one registry: the four composite
suites (``distribution``, ``accounting``, ``lemma10``, ``tau_table``) and one
suite per acceptance criterion, each on its pinned seed, so ``gibbsratio
suite <name>`` and ``tests/test_acceptance.py`` run the same checks on the same
streams.  The unit tests run the same functions on their own seeds.

Neither ``gibbsratio`` nor ``gibbsratio.harness`` imports this module, so a
library ``run_trials`` batch never loads it; ``gibbsratio.cli`` does, so
``gibbsratio trials`` loads it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimator import build_config, estimate, tau_rho
from .harness import ExperimentConfig, TrialBatch, resolve_estimator_config, run_trials, trial_rng
from .instance import (
    CountInstance,
    log_partition,
    log_ratio_true,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from .lowerbound import LowerBoundInstance, build_from_grid, curvature_sup, perturb, sensitivity
from .models import GraphSpec, enumerate_ising
from .oracle import CORRUPTION_MODES, SamplingOracle
from .tpa import generate_schedule, ppp_reference, tpa_multi, tpa_step

# the rho of the tabulated schedule-quality bound, and d -> (tau_rho(d, TAU_RHO), argmin tau)
TAU_RHO = 75.0 / 76.0
TAU_TABLE = {
    1: (9.903, 8.645),
    2: (6.052, 5.384),
    4: (4.000, 3.634),
    8: (2.860, 2.653),
    16: (2.197, 2.075),
    32: (1.794, 1.720),
    64: (1.539, 1.492),
    128: (1.372, 1.342),
    256: (1.260, 1.241),
    512: (1.184, 1.170),
}

# the batch of the accounting suite, and of call accounting's k + 1 control
ACCOUNTING_CONFIG = ExperimentConfig(
    model="twolevel", target_q=3.0, epsilon=1.0, d=4, r=6, m=2.0, trials=50, master_seed=77
)

# the 4x4 square grid, vertices numbered row by row
GRID4 = GraphSpec(16, tuple(
    (v, v + step) for v in range(16) for step, inside in ((1, v % 4 < 3), (4, v < 12)) if inside
))


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    observed: float
    expected: float
    tolerance: str
    passed: bool


def _check(name, observed, expected, tolerance, passed) -> SuiteCheck:
    return SuiteCheck(name, float(observed), float(expected), tolerance, bool(passed))


@dataclass
class SuiteReport:
    suite: str
    checks: list[SuiteCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        rows = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            rows.append(
                f"  [{mark}] {check.name}: observed {check.observed:.6g}, "
                f"expected {check.expected:.6g} ({check.tolerance})"
            )
        return rows


def exactness_checks() -> list[SuiteCheck]:
    """On the zero-variance singleton fixture (q = 5) every estimate is exact.

    100 estimates at eps 0.5 on ``default_rng(0)`` to ``default_rng(99)``; the
    largest |q_hat - 5| within 1e-9.
    """
    inst = singleton_instance(h=1.0, beta_min=0.0, beta_max=5.0)
    cfg = build_config(0.5, inst.n, "I")
    worst = max(
        abs(estimate(inst, cfg, np.random.default_rng(seed)).q_hat - 5.0) for seed in range(100)
    )
    return [_check("max |q_hat - 5| over 100 seeds", worst, 0.0, "within 1e-9", worst <= 1e-9)]


def tau_checks(d: int) -> list[SuiteCheck]:
    """``tau_rho(d, TAU_RHO)`` and its argmin against the ``TAU_TABLE`` row for d."""
    bound, argmin = TAU_TABLE[d]
    res = tau_rho(d, TAU_RHO)
    return [
        _check(
            f"tau_rho({d})", res.value, bound, "within [-5e-3, +1e-3]",
            bound - 5e-3 <= res.value <= bound + 1e-3,
        ),
        _check(
            f"argmin tau({d})", res.argmin_tau, argmin, "within 0.01",
            abs(res.argmin_tau - argmin) <= 0.01,
        ),
    ]


def moment_checks(rng) -> list[SuiteCheck]:
    """The paired estimator's moments on the symmetric two-level instance over [0, ln 3].

    The closed forms E W = Z(mid)/Z(0) and E V = Z(mid)/Z(ln 3), with mid the
    interval's midpoint, give ln(E V / E W) = ln(3/2) within 1e-12.  The
    means of W at beta 0 and then V at ln 3, each over 100,000 draws, lie
    within 4 standard errors of those E W and E V.
    """
    inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
    half = 0.5 * math.log(3.0)
    z_lo, z_mid, z_hi = log_partition(inst, np.array([0.0, half, math.log(3.0)]))
    log_ew, log_ev = float(z_mid - z_lo), float(z_mid - z_hi)
    oracle = SamplingOracle(inst)
    n = 100_000
    w = np.exp(-half * oracle.sample_many(0.0, n, rng))
    v = np.exp(half * oracle.sample_many(math.log(3.0), n, rng))
    ratio = log_ev - log_ew
    checks = [_check(
        "closed-form ln(E V / E W)", ratio, math.log(1.5), "within 1e-12",
        abs(ratio - math.log(1.5)) <= 1e-12,
    )]
    for name, sample, log_target in (("W", w, log_ew), ("V", v, log_ev)):
        mean, se = sample.mean(), sample.std(ddof=1) / math.sqrt(n)
        checks.append(_check(
            f"mean {name} over {n} draws", mean, math.exp(log_target), "within 4 standard errors",
            abs(mean - math.exp(log_target)) < 4 * se,
        ))
    return checks


def pooled_count_checks(rng) -> list[SuiteCheck]:
    """TPA's pooled count law: 10 runs over a window of width 5 count Poisson(50).

    2,000 pools; the mean within 3 standard errors, variance/mean in [0.9, 1.1].
    """
    oracle = SamplingOracle(singleton_instance(beta_max=5.0))
    counts = np.array([tpa_multi(oracle, 10, rng).points.size for _ in range(2000)])
    mean = counts.mean()
    ratio = counts.var(ddof=1) / mean
    return [
        _check(
            "pooled count mean (k=10, q=5)", mean, 50.0, "within 3 standard errors",
            abs(mean - 50.0) <= 3 * math.sqrt(50.0 / 2000),
        ),
        _check("count variance/mean", ratio, 1.0, "within [0.9, 1.1]", 0.9 <= ratio <= 1.1),
    ]


def step_survival_checks(rng) -> list[SuiteCheck]:
    """TPA's step survival identity P(step from 0 >= alpha) = Z(alpha)/Z(0).

    100,000 steps on the symmetric two-level instance over [0, ln 3]; each of
    five alphas within 4 standard errors.
    """
    inst = CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))
    steps = tpa_step(SamplingOracle(inst), np.zeros(100_000), rng)
    checks = []
    for alpha in (0.2, 0.5, math.log(2.0), 1.0, 1.5):
        target = math.exp(log_partition(inst, alpha) - log_partition(inst, 0.0))
        emp = float((steps >= alpha).mean())
        tol = 4 * math.sqrt(target * (1 - target) / steps.size)
        checks.append(_check(
            f"step survival at alpha={alpha:.4g}", emp, target, "within 4 standard errors",
            abs(emp - target) <= tol,
        ))
    return checks


def reference_process_checks(rng, k: int, pools: int) -> list[SuiteCheck]:
    """Log-partition images of ``pools`` TPA(k) pools against the reference process.

    On the two-level q=4 instance z(beta_min) - z(point) is a rate-k Poisson
    process on [0, q] (k = 1 checks a single run); the two-sample KS p-value
    against ``ppp_reference`` must stay above 1e-3.
    """
    from scipy import stats  # local, as in minimize_on_grid

    inst = two_level_instance(4.0)
    oracle = SamplingOracle(inst)
    z0 = log_partition(inst, inst.beta_min)
    q = log_ratio_true(inst)
    mapped = np.concatenate(
        [z0 - log_partition(inst, tpa_multi(oracle, k, rng).points) for _ in range(pools)]
    )
    reference = np.concatenate([ppp_reference(q, k, rng) for _ in range(pools)])
    _, p_value = stats.ks_2samp(mapped, reference)
    return [_check(
        "KS p-value: mapped points vs reference process", p_value, 1e-3,
        "p above significance 1e-3", p_value > 1e-3,
    )]


def schedule_quality_checks(rng) -> list[SuiteCheck]:
    """Most TPA schedules are good: 500 schedules on the two-level q=8 instance.

    Each is thinned with eps 0.5's built config; the share whose ``delta`` is
    at most the good-schedule threshold is at least 0.957.
    """
    inst = two_level_instance(8.0)
    cfg = build_config(0.5, inst.n, "II")
    oracle = SamplingOracle(inst)
    good = 0
    for _ in range(500):
        sched, _ = generate_schedule(oracle, cfg.k, cfg.d, rng)
        good += schedule_delta(inst, sched)[0] <= cfg.delta_threshold
    fraction = good / 500
    return [_check(
        f"good-schedule fraction (delta <= {cfg.delta_threshold:.4f})", fraction, 0.957,
        "at least", fraction >= 0.957,
    )]


def success_checks(batch: TrialBatch, floor: float) -> list[SuiteCheck]:
    """The batch's success rate is at least ``floor``; its Wilson interval is reported."""
    rate, (lo, hi) = batch.summary["success_rate"], batch.summary["wilson_95"]
    return [_check(
        f"success rate over {batch.config.trials} trials", rate, floor,
        f"at least; Wilson 95% [{lo:.3f}, {hi:.3f}]", rate >= floor,
    )]


def call_accounting_checks(batch: TrialBatch) -> list[SuiteCheck]:
    """Exact accounting: every trial's calls equal ``EstimatorConfig.exact_calls``.

    The identity holds per pipeline run.  A boosted record counts the calls of
    all ``boost_t`` runs next to one run's points and levels, so a batch whose
    config sets ``boost_t`` is a ValueError.
    """
    if batch.config.boost_t is not None:
        raise ValueError("call accounting needs an unboosted batch; its config sets boost_t")
    est = batch.estimator_config
    exact = all(
        rec.oracle_calls == est.exact_calls(rec.tpa_points, rec.schedule_len)
        for rec in batch.records
    )
    return [_check(
        "structural identity calls == (points + k) + (ell+1) r", exact, 1.0,
        "exact on every trial", exact,
    )]


def mean_calls_checks(batch: TrialBatch, within: float, label: str = "") -> list[SuiteCheck]:
    """The batch's mean calls lie within the fraction ``within`` of the predicted calls.

    ``label`` prefixes the check's name.
    """
    observed, predicted = batch.summary["oracle_calls_mean"], batch.summary["predicted_calls"]
    return [_check(
        f"{label}mean calls vs prediction", observed, predicted,
        f"within {within:.0%} ({batch.config.trials} trials)",
        abs(observed - predicted) <= within * predicted,
    )]


def _q8_batch(**knobs) -> TrialBatch:
    """300 trials on the two-level q=8 instance at eps 0.5."""
    return run_trials(
        ExperimentConfig(model="twolevel", target_q=8.0, epsilon=0.5, trials=300, **knobs)
    )


def robustness_checks(mode: str) -> list[SuiteCheck]:
    """Success within the TV budget: 300 q=8 trials at seed 2028 under ``mode`` corruption.

    The budget is 0.1 / (m q (r + d) + 3 r + 1) for eps 0.5's built config;
    the success rate is at least 0.55, criterion 7's 0.70 less 0.10 for the
    corruption and 0.05 of slack.
    """
    inst = two_level_instance(8.0)
    cfg = build_config(0.5, inst.n, "II")
    tv = 0.1 / (cfg.m * log_ratio_true(inst) * (cfg.r + cfg.d) + 3 * cfg.r + 1)
    batch = _q8_batch(master_seed=2028, tv_budget=tv, corruption_mode=mode)
    return success_checks(batch, 0.70 - 0.10 - 0.05)


def verify_lemma10(lb: LowerBoundInstance) -> SuiteReport:
    """Check the four strict inequalities of the geometric lower-bound family."""
    n, m = lb.n_factors, lb.m_grid
    label = f"N={n} m={m}"
    q_true = log_ratio_true(lb.expanded)
    mid = (m + n / 2.0) * (n - 1) * math.log(2.0)
    q_lower, q_upper = mid - n * math.log(2.0), mid + 2.0
    rho, rho_floor = sensitivity(lb), (n / 2.0 - 2.0) / m
    kappa, kappa_cap = curvature_sup(lb).kappa_ell_bound, 4.0 / m ** 2
    ratio, ratio_floor = rho ** 2 / kappa, (n / 4.0 - 1.0) ** 2
    return SuiteReport(f"lemma10 {label}", [
        _check(
            f"{label} log-ratio sandwich", q_true, q_lower,
            f"inside ({q_lower:.4f}, {q_upper:.4f})", q_lower < q_true < q_upper,
        ),
        _check(f"{label} sensitivity floor", rho, rho_floor, "strictly above", rho > rho_floor),
        _check(f"{label} curvature cap", kappa, kappa_cap, "strictly below", kappa < kappa_cap),
        _check(
            f"{label} sensitivity^2/curvature floor", ratio, ratio_floor, "strictly above",
            ratio > ratio_floor,
        ),
    ])


def tilt_checks(lb: LowerBoundInstance) -> list[SuiteCheck]:
    """The tilted twins shift ln Z: ``perturb(lb, nu, sign)`` at beta is lb at beta - sign nu.

    At 10 betas over [-1, beta_max + 1], for nu in (0.01, 0.1, 1) and both
    signs, the largest gap within 1e-9.
    """
    betas = np.linspace(-1.0, lb.beta_max + 1.0, 10)
    checks = []
    for nu in (0.01, 0.1, 1.0):
        for sign in (+1, -1):
            tilted = log_partition(perturb(lb, nu, sign), betas)
            gap = np.abs(tilted - log_partition(lb.expanded, betas - sign * nu)).max()
            checks.append(_check(
                f"tilt nu={nu:g} sign={sign:+d}: max ln Z gap", gap, 0.0, "within 1e-9", gap <= 1e-9
            ))
    return checks


def sensitive_checks(model: str, m: float | None = None) -> list[SuiteCheck]:
    """Success where a low rate fails: 200 trials at seed 11, eps 0.5 and rate ``m``.

    ``model`` is "ising" (the 4x4 grid ``GRID4``) or "lowerbound"
    (``build_from_grid(16, 2)``); ``m`` None takes the admissible rate.  The
    success rate is at least 0.75, and so is the paper's proof split: the
    share of good schedules is at least rho = 0.75/(1 - gamma), and the
    success rate given a good schedule at least 1 - gamma.  With no good
    schedule that rate is nan, a failed check.
    """
    cfg = ExperimentConfig(model=model, epsilon=0.5, trials=200, master_seed=11, m=m)
    resolved = None
    if model == "ising":  # the same records as from GRID4 written to an edge-list file
        inst = enumerate_ising(GRID4)
        resolved = inst, resolve_estimator_config(cfg, inst)
    batch = run_trials(cfg, resolved)
    est = batch.estimator_config
    good = [rec.success for rec in batch.records if rec.schedule_delta <= est.delta_threshold]
    share, rho = len(good) / cfg.trials, est.rho
    good_success = sum(good) / len(good) if good else math.nan
    return success_checks(batch, 0.75) + [
        _check(f"good-schedule share (k={est.k})", share, rho, "at least rho", share >= rho),
        _check(
            "success given a good schedule", good_success, 1.0 - est.gamma, "at least 1 - gamma",
            good_success >= 1.0 - est.gamma,
        ),
    ]


def complexity_sweep_checks() -> list[SuiteCheck]:
    """Mean calls track the predicted linear growth in the log ratio.

    40 two-level trials at eps 0.5 and seed 2030 for each of q = 4, 8 and 16;
    each mean within 10% of the prediction.
    """
    checks = []
    for q in (4.0, 8.0, 16.0):
        batch = run_trials(
            ExperimentConfig(model="twolevel", target_q=q, epsilon=0.5, trials=40, master_seed=2030)
        )
        checks += mean_calls_checks(batch, 0.10, label=f"q={q:g} ")
    return checks


def _accounting() -> list[SuiteCheck]:
    batch, replay = run_trials(ACCOUNTING_CONFIG), run_trials(ACCOUNTING_CONFIG)
    identical = all(a.to_dict() == b.to_dict() for a, b in zip(batch.records, replay.records))
    return call_accounting_checks(batch) + mean_calls_checks(batch, 0.10) + [
        _check("replay determinism", identical, 1.0, "byte-identical records", identical),
    ]


def _lemma10() -> list[SuiteCheck]:
    reports = [verify_lemma10(build_from_grid(n, m)) for n, m in ((16, 2), (32, 3))]
    return [check for report in reports for check in report.checks]


def _success_and_accounting() -> list[SuiteCheck]:
    batch = _q8_batch(master_seed=2027)
    return (
        success_checks(batch, 0.70) + call_accounting_checks(batch)
        + mean_calls_checks(batch, 0.05)
    )


# suite name -> its checks on pinned seeds; the criterion_* suites are the acceptance criteria
SUITES = {
    "distribution": lambda: (
        pooled_count_checks(trial_rng(2024, 0))
        + step_survival_checks(trial_rng(2024, 1))
        + reference_process_checks(trial_rng(2024, 2), k=25, pools=60)
    ),
    "accounting": _accounting,
    "lemma10": _lemma10,
    "tau_table": lambda: [check for d in TAU_TABLE for check in tau_checks(d)],
    "criterion_01": exactness_checks,
    "criterion_03": lambda: moment_checks(np.random.default_rng(300)),
    "criterion_04": lambda: pooled_count_checks(np.random.default_rng(400)),
    "criterion_05": lambda: step_survival_checks(np.random.default_rng(500)),
    "criterion_06": lambda: schedule_quality_checks(np.random.default_rng(600)),
    "criterion_07_08": _success_and_accounting,
    **{f"criterion_09_{mode}": partial(robustness_checks, mode) for mode in CORRUPTION_MODES},
    "criterion_10": lambda: _lemma10() + tilt_checks(build_from_grid(16, 2)),
    "criterion_11": lambda: success_checks(_q8_batch(master_seed=2029, boost_t=5), 0.85),
    **{
        f"criterion_12_{model}": partial(sensitive_checks, model)
        for model in ("ising", "lowerbound")
    },
    "complexity_sweep": complexity_sweep_checks,
}


def run_suite(name: str) -> SuiteReport:
    """Run one named suite on its pinned seeds."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SuiteReport(name, SUITES[name]())
