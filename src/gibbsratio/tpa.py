"""Cooling-schedule generation by the TPA (Tootsie Pop) method.

A TPA step advances an inverse temperature by -ln(U)/h where h is an oracle
draw at the current temperature and U is uniform on (0, 1]; steps from a state
with h = 0 jump to +infinity.  The survival law P(step(beta) >= alpha) equals
Z(alpha)/Z(beta), so the log-partition images of the collected points form a
rate-k Poisson point process running down from z(beta_min) -- which is what
makes the thinned point set a usable cooling schedule.

``tpa_multi`` advances all k runs in lock-stepped waves over vectorized oracle
draws.  Each run still consumes one oracle draw and one uniform per step, so
call accounting is unchanged; only the interleaving of draws across runs
differs from running the k loops one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Schedule
from .oracle import SamplingOracle

__all__ = [
    "TpaOutput",
    "tpa_step",
    "tpa_run",
    "tpa_multi",
    "thin_to_schedule",
    "generate_schedule",
    "ppp_reference",
]


@dataclass(frozen=True)
class TpaOutput:
    """Pooled points of k independent runs, all inside [beta_min, beta_max]."""

    points: np.ndarray
    runs: int

    @property
    def terminal_calls(self) -> int:
        """Each run spends exactly one draw on the step that leaves the window."""
        return self.runs

    @property
    def total_calls(self) -> int:
        return self.points.size + self.runs


def tpa_step(oracle: SamplingOracle, beta: float, rng) -> float:
    """One temperature advance; returns +inf when the drawn energy is zero."""
    h = oracle.sample(beta, rng)
    u = 1.0 - rng.random()  # uniform on (0, 1]; never feeds log a zero
    if h == 0.0:
        return np.inf
    return beta - np.log(u) / h


def tpa_run(oracle: SamplingOracle, rng) -> np.ndarray:
    """One full run: step upward from beta_min, collect until past beta_max.

    Consumes exactly len(points) + 1 oracle draws.
    """
    inst = oracle.instance
    beta = inst.beta_min
    points = []
    while True:
        beta = tpa_step(oracle, beta, rng)
        if beta > inst.beta_max:
            return np.array(points)
        points.append(beta)


def tpa_multi(oracle: SamplingOracle, k: int, rng) -> TpaOutput:
    """Pool k independent runs, advanced together in vectorized waves."""
    if k < 1:
        raise ValueError("k must be at least 1")
    inst = oracle.instance
    active = np.full(k, inst.beta_min)
    collected = []
    while active.size:
        h = oracle.sample_at(active, rng)
        u = 1.0 - rng.random(active.size)
        step = np.divide(-np.log(u), h, out=np.full(active.size, np.inf), where=h > 0)
        advanced = active + step
        active = advanced[advanced <= inst.beta_max]
        if active.size:
            collected.append(active.copy())
    points = np.concatenate(collected) if collected else np.empty(0)
    return TpaOutput(points=points, runs=k)


def thin_to_schedule(
    points: np.ndarray, d: int, offset: int, beta_min: float, beta_max: float
) -> Schedule:
    """Keep every d-th sorted point starting at 1-based index ``offset``.

    Kept points that tie (a TPA step below the float resolution of beta) are
    merged into one level; point sets without ties are thinned unchanged.
    """
    if not 1 <= offset <= d:
        raise ValueError("offset must lie in {1, ..., d}")
    kept = np.unique(np.sort(points)[offset - 1 :: d])
    kept = kept[(kept > beta_min) & (kept < beta_max)]
    return Schedule(np.concatenate([[beta_min], kept, [beta_max]]))


def generate_schedule(oracle: SamplingOracle, k: int, d: int, rng) -> tuple[Schedule, int]:
    """Run TPA(k) and thin with a random start offset drawn once per schedule.

    Returns ``(schedule, tpa_point_count)``: the count is the number of TPA
    points before thinning, so the schedule's draws were points + k.  The
    offset is drawn from {1, ..., d} even when the point set is empty, so
    replays consume an identical random stream.  An empty point set yields the
    two-level schedule (beta_min, beta_max).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    out = tpa_multi(oracle, k, rng)
    offset = int(rng.integers(1, d + 1))
    inst = oracle.instance
    sched = thin_to_schedule(out.points, d, offset, inst.beta_min, inst.beta_max)
    return sched, out.points.size


def ppp_reference(q: float, k: int, rng) -> np.ndarray:
    """Reference Poisson point process used as a distributional test oracle.

    Returns the points of a rate-k Poisson process on [0, q], measured as
    distances below the upper endpoint -- the law of z(beta_min) - z(point)
    over the points of one TPA(k) pool.  Test-only; draws are not accounted.
    """
    if q <= 0 or k < 1:
        raise ValueError("need q > 0 and k >= 1")
    positions = []
    total = 0.0
    chunk = max(16, int(k * q) + 1)
    while True:
        gaps = rng.exponential(scale=1.0 / k, size=chunk)
        arrivals = total + np.cumsum(gaps)
        inside = arrivals <= q
        positions.append(arrivals[inside])
        if not inside.all():
            return np.concatenate(positions)
        total = arrivals[-1]
