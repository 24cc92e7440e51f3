"""Cooling-schedule generation by the TPA (Tootsie Pop) method.

A TPA step advances an inverse temperature by -ln(U)/h where h is an oracle
draw at the current temperature and U is uniform on (0, 1]; steps from a state
with h = 0 jump to +infinity.  The survival law P(step(beta) >= alpha) equals
Z(alpha)/Z(beta), so the log-partition images of the collected points form a
rate-k Poisson point process running down from z(beta_min) -- which is what
makes the thinned point set a usable cooling schedule.

``_advance`` is the one place the step rule lives: it advances a whole vector
of betas with one vectorized oracle draw and one uniform per entry.
``tpa_step`` runs it inside its own ``np.errstate``, which ignores divide and
invalid only.  ``tpa_multi`` pools k independent runs by calling it once per
wave on the runs still inside the window, all waves inside one such error
state, which spans each wave's ``sample_at`` too: entering it costs about
2.6 us, against about 38 us of fixed cost a wave.  Each run still consumes
one oracle draw and one uniform per step, so call accounting is that of k
runs made one after another; only the interleaving of draws across runs
differs.

``tpa_multi`` sorts the pool once, in place, so ``TpaOutput.points`` is
ascending and ``thin_to_schedule`` thins it without a sorted copy of its own.
Its strided selection is ascending too, so tied points are neighbours and a
comparison with the point before merges them; ``np.unique`` did the same,
and loads ``numpy.ma`` on first use, which cost each fresh pool worker
about 33 ms of imports together with ``numpy.random``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Schedule, check_count
from .oracle import SamplingOracle

__all__ = [
    "TpaOutput",
    "tpa_step",
    "tpa_multi",
    "thin_to_schedule",
    "generate_schedule",
    "ppp_reference",
]


@dataclass(frozen=True)
class TpaOutput:
    """Pooled points of k independent runs, all inside [beta_min, beta_max].

    ``points`` is ascending: ``tpa_multi`` sorts the pool in place.
    """

    points: np.ndarray


def tpa_step(oracle: SamplingOracle, betas: np.ndarray, rng) -> np.ndarray:
    """Advance every entry of the 1-D ``betas`` by one step; +inf where h = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _advance(oracle, betas, rng)


def _advance(oracle: SamplingOracle, betas: np.ndarray, rng) -> np.ndarray:
    """``tpa_step``'s rule, for a caller inside its divide and invalid error state."""
    h = oracle.sample_at(betas, rng)
    u = 1.0 - rng.random(betas.size)  # uniform on (0, 1]; never feeds log a zero
    step = np.log(u, out=u)
    step /= h  # -inf where h = 0, nan where also u = 1
    np.fmax(step, -np.inf, out=step)  # the nan becomes -inf too
    return np.subtract(betas, step, out=step)


def tpa_multi(oracle: SamplingOracle, k: int, rng) -> TpaOutput:
    """Pool k independent runs, advanced together in vectorized waves.

    The waves run inside one ``np.errstate`` that ignores divide and invalid
    only, as ``tpa_step``'s does; it spans each wave's ``sample_at`` too.
    """
    k = check_count("k", k)
    inst = oracle.instance
    active = np.full(k, inst.beta_min)
    collected = []
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.size:
            advanced = _advance(oracle, active, rng)
            active = advanced[advanced <= inst.beta_max]
            collected.append(active)  # the last wave is empty and adds nothing
    points = np.concatenate(collected)
    points.sort()
    return TpaOutput(points=points)


def thin_to_schedule(
    points: np.ndarray, d: int, offset: int, beta_min: float, beta_max: float
) -> Schedule:
    """Keep every d-th point starting at 1-based index ``offset``.

    ``points`` must be ascending, as ``tpa_multi`` returns them; points out
    of order raise ``ValueError`` rather than thin to a wrong schedule.
    Kept points that tie (a TPA step below the float resolution of beta) are
    merged into one level; point sets without ties are thinned unchanged.
    """
    d = check_count("d", d, sized=True)
    offset = check_count("offset", offset)
    if offset > d:
        raise ValueError("offset must lie in {1, ..., d}")
    points = np.asarray(points)
    if np.any(points[1:] < points[:-1]):
        raise ValueError("points must be in ascending order")
    kept = points[offset - 1 :: d]
    keep = (kept > beta_min) & (kept < beta_max)
    keep[1:] &= kept[1:] != kept[:-1]  # ascending, so ties are neighbours: keep the first
    return Schedule(np.concatenate([[beta_min], kept[keep], [beta_max]]))


def generate_schedule(oracle: SamplingOracle, k: int, d: int, rng) -> tuple[Schedule, int]:
    """Run TPA(k) and thin with a random start offset drawn once per schedule.

    Returns ``(schedule, tpa_point_count)``: the count is the number of TPA
    points before thinning, so the schedule's draws were points + k.  The
    offset is drawn from {1, ..., d} even when the point set is empty, so
    replays consume an identical random stream.  An empty point set yields the
    two-level schedule (beta_min, beta_max).
    """
    d = check_count("d", d, sized=True)
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
