"""Seeded trial batches, summaries, the paper's claims as checks, and the suites.

Each claim is one function that returns its checks, with its sample size and
tolerance fixed inside; the suites run them on pinned streams, the tests on
their own seeds.

Reproducibility contract: trial i runs on a generator seeded with
SeedSequence(entropy=master_seed, spawn_key=(i,)), so records are identical
for a given ExperimentConfig no matter how many workers execute the batch or
in which order trials finish.  Wall-clock timings are kept on the in-memory
records but left out of serialized output by default for the same reason.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .estimator import (
    EstimatorConfig,
    build_config,
    detect_case,
    estimate,
    median_boost,
    predicted_calls,
    tau_rho,
)
from .instance import (
    CountInstance,
    load_instance,
    log_partition,
    log_ratio_true,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from .lowerbound import LowerBoundInstance, build_from_grid, curvature_sup, sensitivity
from .models import (
    enumerate_colorings,
    enumerate_ising,
    enumerate_matchings,
    load_graph,
)
from .oracle import Corruption, SamplingOracle
from .tpa import ppp_reference, tpa_multi, tpa_step

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialBatch",
    "SuiteCheck",
    "SuiteReport",
    "MODELS",
    "SUITES",
    "TAU_TABLE",
    "build_model_instance",
    "run_trials",
    "run_suite",
    "tau_checks",
    "pooled_count_checks",
    "step_survival_checks",
    "reference_process_checks",
    "call_accounting_checks",
    "verify_lemma10",
    "wilson_interval",
    "write_records",
]

MODELS = ("singleton", "twolevel", "synthetic", "ising", "colorings", "matchings", "lowerbound")

# d -> (tau_rho(d, 75/76), argmin tau) as tabulated for the schedule-quality bound
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

@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible batch: model choice, estimator knobs, seeding."""

    model: str = "twolevel"
    target_q: float = 8.0            # twolevel
    instance_path: str | None = None  # synthetic
    graph_path: str | None = None     # ising / colorings / matchings
    kcolors: int = 3
    n_factors: int = 16               # lowerbound
    m_grid: int = 2
    beta_min: float | None = None     # optional window override
    beta_max: float | None = None
    epsilon: float = 0.5
    case: str = "auto"
    d: int | None = None
    gamma: float | None = None
    r: int | None = None
    m: float | None = None
    lam: float | None = None
    trials: int = 100
    master_seed: int = 0
    tv_budget: float = 0.0
    corruption_mode: str = "uniform"
    boost_t: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.case not in ("auto", "I", "II"):
            raise ValueError("case must be 'auto', 'I' or 'II'")
        Corruption(self.tv_budget, self.corruption_mode)  # rejects a bad budget or mode
        if self.boost_t is not None and (self.boost_t < 1 or self.boost_t % 2 == 0):
            raise ValueError("boost_t must be a positive odd integer")


@dataclass(slots=True)
class TrialRecord:
    seed: int
    q_true: float
    q_hat: float
    success: bool
    oracle_calls: int
    schedule_len: int
    tpa_points: int
    schedule_delta: float
    wall_time: float = 0.0  # opt-in: serialized only with include_timing

    def to_dict(self, include_timing: bool = False) -> dict:
        return {name: getattr(self, name) for name in _record_names(include_timing)}


def _record_names(include_timing: bool) -> list[str]:
    return [f.name for f in fields(TrialRecord) if include_timing or f.name != "wall_time"]


@dataclass
class TrialBatch:
    config: ExperimentConfig
    estimator_config: EstimatorConfig
    records: list[TrialRecord]
    summary: dict


def build_model_instance(cfg: ExperimentConfig) -> CountInstance:
    """Materialize the configured model as an exact count instance.

    A ``beta_min``/``beta_max`` override replaces that end of the model's own
    window; twolevel and lowerbound derive their window and take none.
    """
    window = {
        name: value
        for name, value in (("beta_min", cfg.beta_min), ("beta_max", cfg.beta_max))
        if value is not None
    }
    if window and cfg.model in ("twolevel", "lowerbound"):
        raise ValueError(f"{cfg.model} model fixes its own beta window; drop beta_min/beta_max")
    if cfg.model == "singleton":
        return singleton_instance(**window)
    if cfg.model == "twolevel":
        return two_level_instance(cfg.target_q)
    if cfg.model == "lowerbound":
        return build_from_grid(cfg.n_factors, cfg.m_grid).expanded
    if cfg.model == "synthetic":
        if cfg.instance_path is None:
            raise ValueError("synthetic model needs instance_path")
        inst = load_instance(cfg.instance_path)
        window = {"beta_min": inst.beta_min, "beta_max": inst.beta_max} | window
        return CountInstance(inst.support(), n=inst.n, **window)
    if cfg.graph_path is None:
        raise ValueError(f"{cfg.model} model needs graph_path")
    graph = load_graph(cfg.graph_path)
    if cfg.model == "ising":
        return enumerate_ising(graph, **window)
    if cfg.model == "colorings":
        return enumerate_colorings(graph, cfg.kcolors, **window)
    return enumerate_matchings(graph, **window)


def resolve_estimator_config(cfg: ExperimentConfig, inst: CountInstance) -> EstimatorConfig:
    case = detect_case(inst) if cfg.case == "auto" else cfg.case
    return build_config(
        cfg.epsilon, inst.n, case, d=cfg.d, gamma=cfg.gamma, r=cfg.r, m=cfg.m, lam=cfg.lam
    )


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """The documented splitting rule: SeedSequence(master_seed, spawn_key=(index,))."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _run_one_trial(payload) -> TrialRecord:
    inst, est_cfg, cfg, index, q_true = payload
    rng = trial_rng(cfg.master_seed, index)
    oracle = SamplingOracle(inst, Corruption(cfg.tv_budget, cfg.corruption_mode))
    started = time.perf_counter()
    if cfg.boost_t is not None:
        result = median_boost(oracle, est_cfg, cfg.boost_t, rng)
    else:
        result = estimate(oracle, est_cfg, rng)
    elapsed = time.perf_counter() - started
    delta, _ = schedule_delta(inst, result.schedule)
    return TrialRecord(
        seed=index,
        q_true=q_true,
        q_hat=result.q_hat,
        success=bool(abs(result.q_hat - q_true) <= est_cfg.success_margin),
        oracle_calls=oracle.call_count,  # a fresh oracle: every boost repetition counts
        schedule_len=result.schedule_len,
        tpa_points=result.tpa_points,
        schedule_delta=delta,
        wall_time=elapsed,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_trials(cfg: ExperimentConfig) -> TrialBatch:
    """Run the batch and aggregate; records are ordered by trial index."""
    inst = build_model_instance(cfg)
    est_cfg = resolve_estimator_config(cfg, inst)
    q_true = log_ratio_true(inst)
    payloads = [(inst, est_cfg, cfg, index, q_true) for index in range(cfg.trials)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_one_trial, payloads, chunksize=8))
    else:
        records = [_run_one_trial(p) for p in payloads]

    successes = sum(rec.success for rec in records)
    calls = np.array([rec.oracle_calls for rec in records], dtype=float)
    deltas = np.array([rec.schedule_delta for rec in records])
    lo, hi = wilson_interval(successes, cfg.trials)
    predicted = predicted_calls(est_cfg, q_true)
    boost_factor = cfg.boost_t if cfg.boost_t is not None else 1
    summary = {
        "model": cfg.model,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "q_true": q_true,
        "epsilon": est_cfg.epsilon,
        "success_margin": est_cfg.success_margin,
        "successes": successes,
        "success_rate": successes / cfg.trials,
        "wilson_95": [lo, hi],
        "oracle_calls_mean": float(calls.mean()),
        "oracle_calls_std": float(calls.std(ddof=1)) if cfg.trials > 1 else 0.0,
        "predicted_calls": predicted["implemented"] * boost_factor,
        "predicted_calls_single_terminal": predicted["single_terminal"] * boost_factor,
        "schedule_delta_mean": float(deltas.mean()),
        "good_schedule_fraction": float((deltas <= est_cfg.delta_threshold).mean()),
        "delta_threshold": est_cfg.delta_threshold,
        "schedule_len_mean": float(np.mean([rec.schedule_len for rec in records])),
        "tv_budget": cfg.tv_budget,
        "corruption_mode": cfg.corruption_mode if cfg.tv_budget > 0 else None,
        "boost_t": cfg.boost_t,
        "estimator_config": {
            "case": est_cfg.case,
            "d": est_cfg.d,
            "gamma": est_cfg.gamma,
            "r": est_cfg.r,
            "m": est_cfg.m,
            "k": est_cfg.k,
            "lambda": est_cfg.lam,
        },
    }
    return TrialBatch(config=cfg, estimator_config=est_cfg, records=records, summary=summary)


def write_records(records, stream, fmt: str = "ndjson", include_timing: bool = False) -> None:
    """Serialize records, one per line (ndjson) or as a csv table."""
    if fmt == "ndjson":
        for rec in records:
            stream.write(json.dumps(rec.to_dict(include_timing)) + "\n")
    elif fmt == "csv":
        names = _record_names(include_timing)
        stream.write(",".join(names) + "\n")
        for rec in records:
            data = rec.to_dict(include_timing)
            stream.write(",".join(_csv_cell(data[name]) for name in names) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# -- paper claims and the suites built from them ---------------------------


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


def tau_checks(d: int) -> list[SuiteCheck]:
    """``tau_rho(d, 75/76)`` and its argmin against the ``TAU_TABLE`` row for d."""
    bound, argmin = TAU_TABLE[d]
    res = tau_rho(d, 75.0 / 76.0)
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


def call_accounting_checks(batch: TrialBatch) -> list[SuiteCheck]:
    """Exact accounting: every trial's calls equal ``EstimatorConfig.exact_calls``."""
    est = batch.estimator_config
    exact = all(
        rec.oracle_calls == est.exact_calls(rec.tpa_points, rec.schedule_len)
        for rec in batch.records
    )
    return [_check(
        "structural identity calls == (points + k) + (ell+1) r", exact, 1.0,
        "exact on every trial", exact,
    )]


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


def _suite_tau_table() -> SuiteReport:
    return SuiteReport("tau_table", [check for d in TAU_TABLE for check in tau_checks(d)])


def _suite_distribution() -> SuiteReport:
    return SuiteReport(
        "distribution",
        pooled_count_checks(trial_rng(2024, 0))
        + step_survival_checks(trial_rng(2024, 1))
        + reference_process_checks(trial_rng(2024, 2), k=25, pools=60),
    )


def _suite_accounting() -> SuiteReport:
    cfg = ExperimentConfig(
        model="twolevel", target_q=3.0, epsilon=1.0, d=4, r=6, m=2.0,
        trials=50, master_seed=77,
    )
    batch, replay = run_trials(cfg), run_trials(cfg)
    observed, predicted = batch.summary["oracle_calls_mean"], batch.summary["predicted_calls"]
    identical = all(a.to_dict() == b.to_dict() for a, b in zip(batch.records, replay.records))
    return SuiteReport("accounting", call_accounting_checks(batch) + [
        _check(
            "mean calls vs prediction", observed, predicted, "within 10% (50 trials)",
            abs(observed - predicted) <= 0.10 * predicted,
        ),
        _check("replay determinism", identical, 1.0, "byte-identical records", identical),
    ])


def _suite_lemma10() -> SuiteReport:
    reports = [verify_lemma10(build_from_grid(n, m)) for n, m in ((16, 2), (32, 3))]
    return SuiteReport("lemma10", [check for report in reports for check in report.checks])


SUITES = {
    "distribution": _suite_distribution,
    "accounting": _suite_accounting,
    "lemma10": _suite_lemma10,
    "tau_table": _suite_tau_table,
}


def run_suite(name: str) -> SuiteReport:
    """Run one named acceptance suite with pinned seeds."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SUITES[name]()
