"""Paired product estimation of the log partition-function ratio.

One estimator run samples an energy at every schedule level and forms
ln W = -sum_i (db_i/2) H(X_i) over left endpoints and ln V = +sum_i (db_i/2)
H(X_{i+1}) over right endpoints; the ratio of the sample means of V and W over
r runs estimates Q = Z(beta_min)/Z(beta_max).  Averages are taken as
log-mean-exp of the per-run log values -- W spans hundreds of e-folds on
large-ratio instances and must never be materialized in linear space.

``paired_product`` draws the levels in consecutive blocks of
max(1, CHUNK_ELEMENTS // r), the oracle kernel's own bound of 65,536 entries,
and adds each block's share into ln W and ln V.  Its memory is one block of
draws, whatever ell is: one estimate at q = 1,000 and eps = 0.1 (32,401
levels at r = 924) peaked at 69 MB of RSS, against 282 MB with all
(ell + 1) r draws in one array.  An exact oracle uses its uniforms beta by
beta, r at a time, however the betas are split into calls, so the draws are
the same as from one call; only q_hat may move in its last bits, because the
blocked products add in another order.  A corrupted oracle draws its mask
once per call, so a PPE longer than one block uses another random stream,
with the same law.  Each block is released before the next is drawn.  With
two blocks live, their joint free (about 1.3 MB at r = 924) crossed glibc's
heap trim threshold, and every two-level q = 8, eps = 0.1 trial took about
312 minor page faults to fault that memory back in, against 0.4 with one
block live; the trials ran about 20% slower.

Parameter selection follows the schedule-quality analysis: the rate m per unit
of log-ratio has to clear a threshold built from tau_rho(d), the minimized
trade-off between the always-incurred small-interval variance and the tail
contribution of oversized intervals, Gamma(d+2, tau d)/((1-rho) d d!).  As
Gamma(d+2) = (d+1)!, that tail is scipy's regularized Q(d+2, tau d) times
(d+1)/((1-rho) d), whose cost and memory do not grow with d: on a 2-vCPU
host the ten ``TAU_TABLE`` rows take about 3 ms, and d = 10^9 about 0.3 ms.
Two regimes are exposed: case "I" for instances whose energies stay in
[1, n] and case "II" when a zero-energy level exists, which needs the
lambda-corrected threshold.

The trial path needs no scipy: ``paired_product`` averages with
``instance.logsumexp``, a plain max-shifted reduction without scipy's fixed
cost of about 0.1 ms per call.  scipy is imported only inside the functions
that need it -- the regularized gamma behind ``tau_rho`` and the Brent
refinement -- which the headline config never calls, so importing this module
does not pay for ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Union

import numpy as np

from .instance import CountInstance, Schedule, check_count, logsumexp
from .oracle import CHUNK_ELEMENTS, SamplingOracle
from .tpa import generate_schedule

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "TauResult",
    "epsilon_tilde",
    "tau_rho",
    "minimize_on_grid",
    "min_m",
    "build_config",
    "detect_case",
    "good_schedule_threshold",
    "predicted_calls",
    "paired_product",
    "estimate",
    "median_boost",
]

Case = Literal["I", "II"]

DEFAULT_GAMMA = 0.24
DEFAULT_D = 64
DEFAULT_LAMBDA = math.exp(-7.0)
# headline rate coefficient achieved by (gamma, d, lambda) above, in both cases
HEADLINE_RATE = 3.6


# each knob's one rule: (test, message), or for a count the keywords of
# ``check_count``; d and r size int64 offsets and arrays
_RULES = {
    "case": (lambda c: c in ("I", "II"), "case must be 'I' or 'II'"),
    "gamma": (lambda g: 0.0 < g < 0.25, "gamma must lie in (0, 0.25)"),
    "d": {"sized": True}, "r": {"sized": True}, "k": {},
    "n": (lambda n: n >= 1, "n must be at least 1"),
    "lam": (lambda lam: 0.0 < lam < 1.0, "lambda must lie in (0, 1)"),
}


def _check_knobs(**knobs) -> None:
    """Check each given knob against its rule in ``_RULES``, in order."""
    for name, value in knobs.items():
        rule = _RULES[name]
        if isinstance(rule, dict):
            check_count(name, value, **rule)
        elif not rule[0](value):
            raise ValueError(rule[1])


def _case_lambda(case: Case, lam: float | None) -> float | None:
    """lambda as ``case`` reads it: None in case I, and e^-7 when unset in case II."""
    if case == "I":
        return None
    lam = DEFAULT_LAMBDA if lam is None else lam
    _check_knobs(lam=lam)
    return lam


def _rho(gamma: float) -> float:
    return 0.75 / (1.0 - gamma)


def epsilon_tilde(epsilon: float) -> float:
    """Per-side relative tolerance 1 - (1+eps)^(-1/2); about eps/2 when small.

    An epsilon so small that 1 + epsilon rounds to 1 (at most about 1.1e-16)
    has no tolerance in floats, and is refused.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if 1.0 + epsilon == 1.0:
        raise ValueError(f"epsilon {epsilon:g} is below float resolution: 1 + epsilon rounds to 1")
    return 1.0 - (1.0 + epsilon) ** -0.5


class TauResult(NamedTuple):
    value: float
    argmin_tau: float


def minimize_on_grid(f, grid: np.ndarray, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at the lower of f's best grid point and its refinement.

    The scan finds the basin without assuming ``f`` unimodal (``f`` takes the
    grid array and a scalar alike); bounded Brent refines that cell to ``xatol``.
    """
    from scipy.optimize import minimize_scalar  # local: keeps this module's import light

    values = f(grid)
    i = int(values.argmin())
    best = minimize_scalar(
        f,
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": xatol},
    )
    if values[i] < best.fun:
        return float(grid[i]), float(values[i])
    return float(best.x), float(best.fun)


def _tau_objective(taus, d: int, rho: float):
    from scipy import special

    # Gamma(d+2, x) / ((1-rho) d d!) = Q(d+2, x) (d+1) / ((1-rho) d), as Gamma(d+2) = (d+1)!
    return taus + special.gammaincc(d + 2, taus * d) * ((d + 1) / (d * (1.0 - rho)))


def tau_rho(d: int, rho: float) -> TauResult:
    """Minimize tau + Gamma(d+2, tau*d) / ((1-rho) d d!) over tau >= 0.

    ``minimize_on_grid`` scans tau = 0 and 2048 log-spaced points over
    [1e-3, 64] and refines the best cell to 1e-9; at small d and rho the
    minimum lies at tau = 0, where tau_rho(1, 0.5) = 4.
    """
    _check_knobs(d=d)
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    grid = np.concatenate(([0.0], np.exp(np.linspace(math.log(1e-3), math.log(64.0), 2048))))
    tau, value = minimize_on_grid(lambda t: _tau_objective(t, d, rho), grid, xatol=1e-9)
    return TauResult(value=value, argmin_tau=tau)


def good_schedule_threshold(gamma: float, r: int, eps_tilde: float) -> float:
    """Log relative variance a schedule must not exceed: ln(1 + gamma r eps~^2 / 2)."""
    return math.log1p(0.5 * gamma * r * eps_tilde ** 2)


def min_m(
    d: int,
    gamma: float,
    r: int,
    epsilon: float,
    n: float,
    case: Case,
    lam: float | None = None,
) -> float:
    """Smallest admissible TPA rate per unit log-ratio for the given knobs."""
    _check_knobs(case=case, gamma=gamma, d=d, r=r, n=n)
    lam = _case_lambda(case, lam)
    tau = tau_rho(d, _rho(gamma)).value
    denom = good_schedule_threshold(gamma, r, epsilon_tilde(epsilon))
    scale = math.log(n)
    if lam is not None:
        denom += math.log1p(-lam)
        scale = 2.0 + math.log(n / lam)
    if denom <= 0.0:  # in case I, only when gamma r eps~^2 / 2 underflows
        raise ValueError(
            "infeasible parameters: (1 + gamma r eps~^2 / 2)(1 - lambda) must exceed 1"
        )
    return tau * scale / (2.0 * denom)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for one schedule generation plus paired product run.

    k is the integer TPA run count; the effective rate m = k/d and
    rho = 0.75/(1 - gamma) are derived from the stored knobs.  lam is stored
    as the case reads it: None in case I, and e^-7 when unset in case II.
    """

    epsilon: float
    gamma: float
    d: int
    k: int
    r: int
    case: str
    lam: float | None = None

    def __post_init__(self):
        epsilon_tilde(self.epsilon)  # rejects an epsilon that is not positive and finite
        _check_knobs(case=self.case, gamma=self.gamma, d=self.d, r=self.r, k=self.k)
        object.__setattr__(self, "lam", _case_lambda(self.case, self.lam))

    @property
    def rho(self) -> float:
        return _rho(self.gamma)

    @property
    def m(self) -> float:
        """Effective TPA rate per unit log-ratio."""
        return self.k / self.d

    @property
    def eps_tilde(self) -> float:
        return epsilon_tilde(self.epsilon)

    @property
    def delta_threshold(self) -> float:
        """Schedules with log relative variance at or below this are good."""
        return good_schedule_threshold(self.gamma, self.r, self.eps_tilde)

    @property
    def success_margin(self) -> float:
        """|q_hat - q| within this margin counts as a success: ln(1 + eps)."""
        return math.log1p(self.epsilon)

    def exact_calls(self, tpa_points: float, schedule_len: float) -> float:
        """Oracle calls of one trial: TPA's points + k, then (ell + 1) r for the PPE.

        This is the package's one statement of the call identity.  The calls
        themselves are counted only by the oracle's ``call_count``; the
        accounting check holds that counter to this identity trial by trial,
        and ``predicted_calls`` evaluates it at its expectations.
        """
        return (tpa_points + self.k) + (schedule_len + 1) * self.r


def default_r(epsilon: float) -> int:
    return math.ceil(2.0 / epsilon_tilde(epsilon) ** 2)


def build_config(
    epsilon: float,
    n: float,
    case: Case,
    d: int | None = None,
    gamma: float | None = None,
    r: int | None = None,
    m: float | None = None,
    lam: float | None = None,
) -> EstimatorConfig:
    """Estimator config for energies in [1, n] (case I) or with a zero level (case II).

    Unset knobs fall back to the headline parameterization: d=64, gamma=0.24,
    r=ceil(2/eps~^2) and, in case II, lambda=e^-7.  When m is not given and
    the knobs are headline (r may be larger), the rate is 3.6 ln n in case I
    and 3.6 (9 + ln n) in case II; otherwise it is the minimal admissible rate
    ``min_m`` for the chosen knobs.  k = ceil(m d) is clamped to at least one
    run so degenerate fixtures with n = 1 stay runnable; the effective rate
    m = k/d never drops below the target.  A given m must be positive and
    finite, and so must m d.  d and r, set or derived, must be integers in
    [1, 2^63).
    """
    if m is not None and not 0 < m < math.inf:
        raise ValueError("m must be positive and finite")
    d = DEFAULT_D if d is None else d
    gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
    r = default_r(epsilon) if r is None else r
    _check_knobs(case=case, n=n, gamma=gamma, d=d, r=r)
    lam = _case_lambda(case, lam)
    if m is None:
        headline = d == DEFAULT_D and gamma == DEFAULT_GAMMA and lam in (None, DEFAULT_LAMBDA)
        if headline and r >= default_r(epsilon):
            m = HEADLINE_RATE * (math.log(n) if case == "I" else 9.0 + math.log(n))
        else:
            m = min_m(d, gamma, r, epsilon, n, case, lam)
    runs = float(m) * d
    if not runs < math.inf:
        raise ValueError(f"the TPA run count m d must be finite, got m = {m:g} and d = {d}")
    return EstimatorConfig(
        epsilon=float(epsilon),
        gamma=gamma,
        d=d,
        k=max(1, math.ceil(runs)),
        r=r,
        case=case,
        lam=lam,
    )


def detect_case(inst: CountInstance, case: str = "auto") -> Case:
    """The energy-range case of ``inst``: ``case`` checked against it, or picked for it.

    The estimator's rate assumes every energy is 0 or in [1, n], whatever the
    case, so an energy inside (0, 1) is a ValueError.  Case I (all energies in
    [1, n]) does not apply to an instance with a zero-energy level, so asking
    for it there is a ValueError too.  ``"auto"`` picks case II when a zero
    level exists and case I otherwise; a requested case that fits is returned
    as given.
    """
    zero = inst.has_zero_level
    if int(zero) < inst.energies.size and inst.energies[int(zero)] < 1.0:
        raise ValueError(
            "support has energies inside (0, 1); the estimator assumes every energy is 0 or in [1, n]"
        )
    if case == "I" and zero:
        raise ValueError("case I does not apply: zero-energy level present; use case II or auto")
    if case not in ("auto", "I", "II"):
        raise ValueError(f"unknown case {case!r}")
    return ("II" if zero else "I") if case == "auto" else case


def predicted_calls(config: EstimatorConfig, q: float) -> dict[str, float]:
    """Expected oracle calls per trial, as implemented and in the one-terminal-draw convention.

    ``exact_calls`` at the expectations E[points] = k q and E[ell] = m q + 1,
    so the prediction and the per-trial check share one formula.  The
    one-terminal-draw convention counts one terminal draw where TPA's k runs
    take k, so it is ``implemented - k + 1``.
    """
    implemented = config.exact_calls(config.k * q, config.m * q + 1)
    return {"implemented": implemented, "single_terminal": implemented - config.k + 1}


@dataclass
class EstimateResult:
    """Outcome of one schedule generation plus paired product run.

    It holds no call count: the oracle's ``call_count`` is the count, and
    ``EstimatorConfig.exact_calls(tpa_points, schedule_len)`` is what it must
    equal for one ``estimate``.
    """

    log_w_bar: float
    log_v_bar: float
    q_hat: float
    schedule_len: int
    tpa_points: int = 0
    schedule: Schedule | None = None


def paired_product(oracle: SamplingOracle, sched: Schedule, r: int, rng) -> EstimateResult:
    """Run the paired product estimator with r independent runs on a schedule.

    Draws r energies at every level, (ell + 1) r oracle calls, which the
    oracle's ``call_count`` records.  The levels go in consecutive blocks of
    max(1, CHUNK_ELEMENTS // r), one ``sample_many`` call each (level-major,
    so row i of a block holds the r draws at its i-th beta).  Each block's
    share of ln W and ln V is added in by two matrix-vector products, so the
    draws held at once never exceed one block, whatever ell is.
    """
    _check_knobs(r=r)
    betas = sched.betas
    ell = sched.ell
    half_gaps = 0.5 * np.diff(betas)
    log_w = np.zeros(r)
    log_v = np.zeros(r)
    step = max(1, CHUNK_ELEMENTS // r)
    for lo in range(0, ell + 1, step):
        hi = min(lo + step, ell + 1)
        draws = oracle.sample_many(betas[lo:hi], r, rng)
        left = half_gaps[lo:hi]  # intervals whose left end lies in the block
        log_w -= left @ draws[:left.size]
        first = max(lo, 1)  # first level of the block that is a right end
        log_v += half_gaps[first - 1:hi - 1] @ draws[first - lo:]
        del draws  # else two blocks live while the next one is drawn: see the module docstring
    log_w_bar = float(logsumexp(log_w) - math.log(r))
    log_v_bar = float(logsumexp(log_v) - math.log(r))
    return EstimateResult(
        log_w_bar=log_w_bar,
        log_v_bar=log_v_bar,
        q_hat=log_v_bar - log_w_bar,
        schedule_len=ell,
        schedule=sched,
    )


def _as_oracle(target: Union[CountInstance, SamplingOracle]) -> SamplingOracle:
    return target if isinstance(target, SamplingOracle) else SamplingOracle(target)


def estimate(
    target: Union[CountInstance, SamplingOracle], config: EstimatorConfig, rng
) -> EstimateResult:
    """Full pipeline: generate one schedule with (k, d), then paired product.

    Succeeds with probability at least 3/4 in the sense that
    |q_hat - ln(Z(beta_min)/Z(beta_max))| <= ln(1 + epsilon) when the config
    satisfies the admissible-rate condition for the instance's case.  An
    instance outside that case, or outside the energy range {0} u [1, n], is a
    ValueError from ``detect_case``.

    One estimate makes ``config.exact_calls(result.tpa_points,
    result.schedule_len)`` oracle calls, and the oracle counts them.  To read
    the count, pass a ``SamplingOracle`` and read its ``call_count``; an
    instance gets a fresh oracle whose count is not returned.
    """
    oracle = _as_oracle(target)
    detect_case(oracle.instance, config.case)
    sched, tpa_points = generate_schedule(oracle, config.k, config.d, rng)
    result = paired_product(oracle, sched, config.r, rng)
    result.tpa_points = tpa_points
    return result


def median_boost(
    target: Union[CountInstance, SamplingOracle], config: EstimatorConfig, t: int, rng
) -> EstimateResult:
    """Repeat the pipeline t times (t odd) and keep the run with median q_hat.

    Each repetition runs on its own child stream spawned from rng, so the
    failure probability drops to the binomial tail P(Bin(t, 1/4) >= ceil(t/2)).
    """
    check_count("t", t, odd=True)
    results = [estimate(target, config, child) for child in rng.spawn(t)]
    results.sort(key=lambda res: res.q_hat)
    return results[t // 2]
