"""Paired product estimation of the log partition-function ratio.

One estimator run samples an energy at every schedule level and forms
ln W = -sum_i (db_i/2) H(X_i) over left endpoints and ln V = +sum_i (db_i/2)
H(X_{i+1}) over right endpoints; the ratio of the sample means of V and W over
r runs estimates Q = Z(beta_min)/Z(beta_max).  Averages are taken as
log-mean-exp of the per-run log values -- W spans hundreds of e-folds on
large-ratio instances and must never be materialized in linear space.

Parameter selection follows the schedule-quality analysis: the rate m per unit
of log-ratio has to clear a threshold built from tau_rho(d), the minimized
trade-off between the always-incurred small-interval variance and the tail
contribution of oversized intervals (an upper incomplete gamma term).  Two
regimes are exposed: case "I" for instances whose energies stay in [1, n] and
case "II" when a zero-energy level exists, which needs the lambda-corrected
threshold.

The trial path needs no scipy: ``paired_product`` averages with
``instance.logsumexp``, which repeats ``scipy.special.logsumexp``'s arithmetic
bit for bit without its fixed cost of about 0.1 ms per call.  scipy is
imported only inside the functions that need it -- the incomplete-gamma tail
behind ``tau_rho`` and the Brent refinement -- which the headline config never
calls, so ``import gibbsratio`` does not pay for ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Union

import numpy as np

from .instance import CountInstance, Schedule, logsumexp
from .oracle import SamplingOracle
from .tpa import generate_schedule

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "TauResult",
    "epsilon_tilde",
    "log_upper_incomplete_gamma",
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


def epsilon_tilde(epsilon: float) -> float:
    """Per-side relative tolerance 1 - (1+eps)^(-1/2); about eps/2 when small."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return 1.0 - (1.0 + epsilon) ** -0.5


def log_upper_incomplete_gamma(a: int, b: float | np.ndarray) -> float | np.ndarray:
    """ln of Gamma(a, b) = integral_b^inf t^(a-1) e^(-t) dt for integer a >= 1.

    Uses the closed form Gamma(a, b) = (a-1)! e^(-b) sum_{j<a} b^j / j!,
    evaluated as a log-sum-exp of xlogy(j, b) - ln j!; all terms are positive
    so there is no cancellation, and at b = 0 only the j = 0 term survives,
    giving (a-1)!.  ``b`` may be a scalar (returns a float) or an array of
    any shape (returns an array of that shape).
    """
    if a < 1 or a != int(a):
        raise ValueError("a must be a positive integer")
    b = np.asarray(b, dtype=float)
    if not np.all((b >= 0) & np.isfinite(b)):
        raise ValueError("b must be finite and non-negative")
    from scipy import special  # local, as in minimize_on_grid

    a = int(a)
    j = np.arange(a)
    series = special.logsumexp(special.xlogy(j, b[..., None]) - special.gammaln(j + 1), axis=-1)
    out = special.gammaln(a) - b + series
    return float(out) if out.ndim == 0 else out


class TauResult(NamedTuple):
    value: float
    argmin_tau: float


def minimize_on_grid(f, grid: np.ndarray, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at the lower of f's best grid point and its refinement.

    The scan finds the basin without assuming ``f`` unimodal (``f`` takes the
    grid array and a scalar alike); bounded Brent refines that cell to ``xatol``.
    """
    from scipy.optimize import minimize_scalar  # local: keeps `import gibbsratio` light

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

    # vectorized over tau: one incomplete-gamma tail per grid point
    log_tail = (
        log_upper_incomplete_gamma(d + 2, taus * d)
        - math.log1p(-rho) - math.log(d) - special.gammaln(d + 1)
    )
    return taus + np.exp(log_tail)


def tau_rho(d: int, rho: float) -> TauResult:
    """Minimize tau + Gamma(d+2, tau*d) / ((1-rho) d d!) over tau >= 0.

    ``minimize_on_grid`` scans 2048 log-spaced points over [1e-3, 64] and
    refines the best cell to 1e-9.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    grid = np.exp(np.linspace(math.log(1e-3), math.log(64.0), 2048))
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
    if not 0.0 < gamma < 0.25:
        raise ValueError("gamma must lie in (0, 0.25)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if r < 1:
        raise ValueError("r must be at least 1")
    rho = 0.75 / (1.0 - gamma)
    tau = tau_rho(d, rho).value
    et = epsilon_tilde(epsilon)
    if case == "I":
        return tau * math.log(n) / (2.0 * good_schedule_threshold(gamma, r, et))
    if case == "II":
        if lam is None:
            lam = DEFAULT_LAMBDA
        if not 0.0 < lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        denom = good_schedule_threshold(gamma, r, et) + math.log1p(-lam)
        if denom <= 0.0:
            raise ValueError(
                "infeasible parameters: (1 + gamma r eps~^2 / 2)(1 - lambda) must exceed 1"
            )
        return tau * (2.0 + math.log(n / lam)) / (2.0 * denom)
    raise ValueError(f"unknown case {case!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for one schedule generation plus paired product run.

    k is the integer TPA run count; the effective rate m = k/d and
    rho = 0.75/(1 - gamma) are derived from the stored knobs.
    """

    epsilon: float
    gamma: float
    d: int
    k: int
    r: int
    case: str
    lam: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.gamma < 0.25:
            raise ValueError("gamma must lie in (0, 0.25)")
        if self.d < 1 or self.k < 1 or self.r < 1:
            raise ValueError("d, k, r must be positive integers")
        if self.case not in ("I", "II"):
            raise ValueError("case must be 'I' or 'II'")
        if self.case == "II" and not (self.lam is None or 0.0 < self.lam < 1.0):
            raise ValueError("lambda must lie in (0, 1)")

    @property
    def rho(self) -> float:
        return 0.75 / (1.0 - self.gamma)

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

    def exact_calls(self, tpa_points: int, schedule_len: int) -> int:
        """Oracle calls of one trial: TPA's points + k, then (ell + 1) r for the PPE."""
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
    m = k/d never drops below the target.  A given m must be positive and finite.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if case not in ("I", "II"):
        raise ValueError(f"unknown case {case!r}")
    if m is not None and not 0 < m < math.inf:
        raise ValueError("m must be positive and finite")
    d = DEFAULT_D if d is None else int(d)
    gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
    r = default_r(epsilon) if r is None else int(r)
    if case == "I":
        lam = None
    elif lam is None:
        lam = DEFAULT_LAMBDA
    if m is None:
        headline = (
            d == DEFAULT_D
            and gamma == DEFAULT_GAMMA
            and r >= default_r(epsilon)
            and lam in (None, DEFAULT_LAMBDA)
        )
        if headline:
            m = HEADLINE_RATE * (math.log(n) if case == "I" else 9.0 + math.log(n))
        else:
            m = min_m(d, gamma, r, epsilon, n, case, lam)
    return EstimatorConfig(
        epsilon=float(epsilon),
        gamma=gamma,
        d=d,
        k=max(1, math.ceil(float(m) * d)),
        r=r,
        case=case,
        lam=lam,
    )


def detect_case(inst: CountInstance) -> Case:
    """Case II when a zero-energy level exists, case I when all h >= 1."""
    if inst.has_zero_level:
        return "II"
    if inst.energies[0] >= 1.0:
        return "I"
    raise ValueError(
        "support has energies inside (0, 1); the estimator assumes every energy is 0 or in [1, n]"
    )


def predicted_calls(config: EstimatorConfig, q: float) -> dict[str, float]:
    """Expected oracle calls per trial, as implemented and in the one-terminal-draw convention."""
    base = config.m * q * (config.r + config.d) + 2 * config.r
    return {
        "implemented": base + config.k,
        "single_terminal": base + 1,
    }


@dataclass
class EstimateResult:
    """Outcome of one schedule generation plus paired product run."""

    log_w_bar: float
    log_v_bar: float
    q_hat: float
    schedule_len: int
    oracle_calls: int
    tpa_points: int = 0
    schedule: Schedule | None = None


def paired_product(oracle: SamplingOracle, sched: Schedule, r: int, rng) -> EstimateResult:
    """Run the paired product estimator with r independent runs on a schedule.

    Draws r energies at every level in one vector ``sample_many`` call
    (level-major, so row i holds the r draws at beta_i), consuming exactly
    (ell + 1) r oracle calls.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    betas = sched.betas
    ell = sched.ell
    draws = oracle.sample_many(betas, r, rng)
    half_gaps = 0.5 * np.diff(betas)
    log_w = -(half_gaps @ draws[:-1])
    log_v = half_gaps @ draws[1:]
    log_w_bar = float(logsumexp(log_w) - math.log(r))
    log_v_bar = float(logsumexp(log_v) - math.log(r))
    return EstimateResult(
        log_w_bar=log_w_bar,
        log_v_bar=log_v_bar,
        q_hat=log_v_bar - log_w_bar,
        schedule_len=ell,
        oracle_calls=(ell + 1) * r,
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
    satisfies the admissible-rate condition for the instance's case.
    """
    oracle = _as_oracle(target)
    if config.case == "I" and oracle.instance.has_zero_level:
        raise ValueError("zero-energy level present: use a case II config")
    before = oracle.call_count
    sched, tpa_points = generate_schedule(oracle, config.k, config.d, rng)
    result = paired_product(oracle, sched, config.r, rng)
    result.tpa_points = tpa_points
    result.oracle_calls = oracle.call_count - before
    return result


def median_boost(
    target: Union[CountInstance, SamplingOracle], config: EstimatorConfig, t: int, rng
) -> EstimateResult:
    """Repeat the pipeline t times (t odd) and keep the run with median q_hat.

    Each repetition runs on its own child stream spawned from rng, so the
    failure probability drops to the binomial tail P(Bin(t, 1/4) >= ceil(t/2)).
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be a positive odd integer")
    results = [estimate(target, config, child) for child in rng.spawn(t)]
    results.sort(key=lambda res: res.q_hat)
    return results[t // 2]
