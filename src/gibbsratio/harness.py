"""Seeded trial batches, their summaries and their serialized records.

The paper's claims, and the suites that check them on batches from here, are
in ``gibbsratio.claims``, which this module does not import.

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
from dataclasses import dataclass, fields

import numpy as np

from .estimator import (
    EstimatorConfig,
    build_config,
    detect_case,
    estimate,
    median_boost,
    predicted_calls,
)
from .instance import (
    CountInstance,
    check_count,
    load_instance,
    log_ratio_true,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from .lowerbound import build_from_grid
from .models import (
    BudgetExceededError,
    enumerate_colorings,
    enumerate_ising,
    enumerate_matchings,
    load_graph,
)
from .oracle import Corruption, SamplingOracle

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialBatch",
    "MODELS",
    "build_model_instance",
    "resolve_estimator_config",
    "trial_rng",
    "run_trials",
    "wilson_interval",
    "write_records",
]

MODELS = ("singleton", "twolevel", "synthetic", "ising", "colorings", "matchings", "lowerbound")

# Most floats a batch may hold: 2 per expected TPA point, 4 per TPA run and per
# PPE run, 46 per trial, in a boosted trial 170 + m q per repetition, and 2^20
# per pool process, so 2 k q + 4 (k + r) + 46 trials + t (170 + m q) + 2^20 p
# for q = ln Z(beta_min)/Z(beta_max), boost t and p = min(workers, trials) pool
# processes (none when that is 1); 2^28 floats is about 2.1 GB.  Measured peaks
# of RSS over the start, or tracemalloc's count where noted, in floats:
# - A TPA point is a float64 in its wave's array and again in the array the
#   waves are concatenated into: a two-level estimate at q = 3,000 and eps = 0.1
#   (6.22M points) peaked at 133 MB from 31 MB, 2.05 floats a point.
# - TPA's first wave holds a beta, a draw, a uniform and a survivor for each of
#   its k runs, whatever q is: k = 2e6 runs on a singleton window of width 1e-9
#   peaked 60.9 MB above the start, 3.99 floats a run.
# - The PPE holds ln W and ln V, and a block's share of each, for every one of
#   its r runs, whatever its call count: r = 2e7 (singleton, m = 0.01) peaked at
#   646 MB from 29 MB, 4.05 floats a run.
# - Each trial keeps its record (250 B over 1,000 two-level q = 2 trials, by
#   tracemalloc) and its payload (116 B): 46 floats.
# - A boosted trial spawns t child generators (833 B, 105 floats, each by
#   tracemalloc) and keeps t results, each at most 63 floats next to its
#   m q + 2 schedule levels (201 two-level repetitions at q = 2 and q = 8).
# - A forked pool worker held 5.3-6.8 MB of Private_Dirty after 20 trials on
#   q8-pool, q64-long, ising-tv and q8-tight, 0.68-0.87M floats, by
#   /proc/self/smaps_rollup.
# With the headline k = 2,074 and r = 60, q = 3e4 (62M points) is accepted and
# q = 1e6 (2.1e9 points) is refused, and so are 1e9 trials, a boost of 1e8 and
# 1,000 trials on 1,000 workers.
WORK_BUDGET = 2 ** 28


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible batch: model choice, estimator knobs, seeding.

    Its defaults are the run defaults of the CLI too.  Construction rejects an
    unknown model, a run setting out of range and a window override on a model
    that fixes its window.  Each model knob is checked by the code that builds
    the model (``build_model_instance``); a knob the chosen model does not read
    is ignored.  The energy-range case is no knob: the instance decides it.
    """

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
        for name, least in (("trials", 1), ("workers", 1), ("master_seed", 0)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        Corruption(self.tv_budget, self.corruption_mode)  # rejects a bad budget or mode
        if self.boost_t is not None:
            object.__setattr__(self, "boost_t", check_count("boost_t", self.boost_t, odd=True))
        if self.model in ("twolevel", "lowerbound") and (self.beta_min, self.beta_max) != (None, None):
            raise ValueError(f"{self.model} model fixes its own beta window; drop beta_min/beta_max")


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
    """The estimator config of ``cfg`` on ``inst``, in the case ``inst`` fits.

    ``detect_case`` picks the case, and raises a ValueError for an energy
    inside (0, 1).  A batch that would hold more than ``WORK_BUDGET`` floats
    raises ``BudgetExceededError``: 2 k q for a trial's expected TPA points
    (q = ln Z(beta_min)/Z(beta_max)), 4 (k + r) for its TPA and PPE runs, 46
    for each trial's record, with boost t, t (170 + m q) for the kept
    repetitions, and 2^20 for each process ``run_trials`` starts.
    """
    case = detect_case(inst)
    est = build_config(
        cfg.epsilon, inst.n, case, d=cfg.d, gamma=cfg.gamma, r=cfg.r, m=cfg.m, lam=cfg.lam
    )
    q = log_ratio_true(inst)
    boost = (cfg.boost_t or 0) * (170 + est.m * q)
    processes = _pool_processes(cfg)
    floats = 2 * est.k * q + 4 * (est.k + est.r) + 46 * cfg.trials + boost + 2 ** 20 * processes
    if floats > WORK_BUDGET:
        raise BudgetExceededError(
            f"a batch would hold 2 k q + 4 (k + r) + 46 trials + t (170 + m q) + 2^20 p = {floats:.3g}"
            f" floats at k = {est.k}, q = {q:.3g}, r = {est.r}, m = {est.m:.3g}, trials = {cfg.trials},"
            f" t = {cfg.boost_t or 0} and p = {processes}: over the work budget of {WORK_BUDGET}"
        )
    return est


def _pool_processes(cfg: ExperimentConfig) -> int:
    """Processes ``run_trials`` starts: min(workers, trials), or none when that is 1."""
    return 0 if 1 in (cfg.workers, cfg.trials) else min(cfg.workers, cfg.trials)


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of ``successes`` in ``trials``."""
    z = 1.96
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_trials(cfg: ExperimentConfig, resolved: tuple | None = None) -> TrialBatch:
    """Run the batch and aggregate; records are ordered by trial index.

    ``resolved`` is the pair ``(inst, est_cfg)`` of ``inst =
    build_model_instance(cfg)`` and ``est_cfg = resolve_estimator_config(cfg,
    inst)`` when a caller has built it already; otherwise it is built here.
    """
    if resolved is None:
        inst = build_model_instance(cfg)
        resolved = inst, resolve_estimator_config(cfg, inst)
    inst, est_cfg = resolved
    q_true = log_ratio_true(inst)
    payloads = [(inst, est_cfg, cfg, index, q_true) for index in range(cfg.trials)]
    if processes := _pool_processes(cfg):
        from concurrent.futures import ProcessPoolExecutor  # about 20 ms to import; serial runs skip it

        # forked workers inherit the parent's modules: numpy loads numpy.random
        # on first use, which a worker would otherwise pay for in every batch
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=processes) as pool:
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
