"""Exact analytics for count-weighted Gibbs energy spectra.

An instance is a finite list of (energy, log-count) pairs together with an
inverse-temperature window [beta_min, beta_max].  Everything downstream of the
stochastic pipeline (sampling oracles, schedule generation, the paired product
estimator) is verified against the closed forms computed here, so all sums are
performed in the log domain with max-shifted log-sum-exp: enumerated counts
(2^|V| states) and product-form expansions overflow linear-domain doubles.

``logsumexp`` is a plain max-shifted reduction over one axis, and each
reduction needs a finite maximum; -inf entries under it are allowed.  It
stays off scipy: ``scipy.special.logsumexp`` spends about 0.1 ms per call on
array-API dispatch, and importing ``scipy.special`` took about 350 of the
500 ms of ``import gibbsratio``.  Logits are laid out levels first, shape
(levels,) + beta.shape, as the oracle's tables are, so a reduction over the
levels is one whole-row operation per level; reducing a short last axis
instead runs one numpy inner loop per beta.

``check_count`` is the package's one rule for an integer count (TPA runs k,
the stride d and its offset, PPE runs r, a boost factor, a color count, the
lower-bound family's N and m): a Python or numpy integer, not a ``bool``, of
at least ``least``, below 2^63 where it sizes int64 offsets and arrays, and
odd where it is a boost factor.  Every public entry point that takes a count
applies it before any work and goes on with the Python int it returns, and the
refusal names the knob.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CountInstance",
    "Schedule",
    "check_count",
    "logsumexp",
    "log_partition",
    "log_ratio_true",
    "mean_energy",
    "energy_variance",
    "schedule_delta",
    "singleton_instance",
    "two_level_instance",
    "save_instance",
    "load_instance",
]


class CountInstance:
    """A Gibbs problem given by energy counts and a finite temperature window.

    The weight of energy ``h`` at inverse temperature ``beta`` is
    ``c_h * exp(-beta * h)``; counts are stored as natural logs.  Duplicate
    energies merge additively (in log space) and the support is kept sorted,
    giving a canonical form.  Instances are immutable after construction and
    safe to share across concurrent workers.
    """

    __slots__ = ("energies", "log_counts", "beta_min", "beta_max", "n")

    def __init__(
        self,
        support: Iterable[tuple[float, float]],
        beta_min: float,
        beta_max: float,
        n: float | None = None,
    ):
        pairs = [(float(h), float(lc)) for h, lc in support]
        if not pairs:
            raise ValueError("support must be non-empty")
        h = np.array([p[0] for p in pairs], dtype=float)
        lc = np.array([p[1] for p in pairs], dtype=float)
        if not (np.isfinite(h).all() and np.isfinite(lc).all()):
            raise ValueError("energies and log-counts must be finite")
        if (h < 0).any():
            raise ValueError("energies must be non-negative")

        order = np.argsort(h, kind="stable")
        h, lc = h[order], lc[order]
        uniq, start = np.unique(h, return_index=True)
        if uniq.size < h.size:
            lc = np.logaddexp.reduceat(lc, start)
            h = uniq

        beta_min = float(beta_min)
        beta_max = float(beta_max)
        if not (math.isfinite(beta_min) and math.isfinite(beta_max)):
            raise ValueError("temperature bounds must be finite")
        if not beta_max > beta_min:
            raise ValueError("beta_max must exceed beta_min")

        if n is None:
            n = max(1.0, float(h[-1]))
        n = float(n)
        if n < h[-1] - 1e-12:
            raise ValueError(f"declared n={n} below maximal energy {h[-1]}")

        h.flags.writeable = False
        lc.flags.writeable = False
        object.__setattr__(self, "energies", h)
        object.__setattr__(self, "log_counts", lc)
        object.__setattr__(self, "beta_min", beta_min)
        object.__setattr__(self, "beta_max", beta_max)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("CountInstance is immutable")

    def __reduce__(self):
        return (CountInstance, (self.support(), self.beta_min, self.beta_max, self.n))

    def __repr__(self):
        return (
            f"CountInstance({self.support_size} levels, "
            f"h in [{self.energies[0]:g}, {self.energies[-1]:g}], "
            f"betas [{self.beta_min:g}, {self.beta_max:g}], n={self.n:g})"
        )

    def __eq__(self, other):
        if not isinstance(other, CountInstance):
            return NotImplemented
        return (
            np.array_equal(self.energies, other.energies)
            and np.array_equal(self.log_counts, other.log_counts)
            and self.beta_min == other.beta_min
            and self.beta_max == other.beta_max
            and self.n == other.n
        )

    @property
    def support_size(self) -> int:
        return self.energies.size

    @property
    def has_zero_level(self) -> bool:
        return self.energies[0] == 0.0

    def support(self) -> list[tuple[float, float]]:
        """(energy, log_count) pairs in canonical (sorted) order."""
        return list(zip(self.energies.tolist(), self.log_counts.tolist()))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "beta_min": self.beta_min,
            "beta_max": self.beta_max,
            "support": [[h, lc] for h, lc in self.support()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CountInstance":
        """The instance of a ``to_dict`` mapping; ``n`` may be left out or null.

        A missing key, or a value of the wrong JSON type, is a ValueError
        that names the key.
        """
        if not isinstance(data, dict):
            raise ValueError("an instance must be a JSON object")
        for key in ("support", "beta_min", "beta_max"):
            if key not in data:
                raise ValueError(f"instance has no {key!r} key")
        bounds = {key: data.get(key) for key in ("beta_min", "beta_max", "n")}
        for key, value in bounds.items():
            if not (isinstance(value, (int, float)) or (key == "n" and value is None)):
                raise ValueError(f"instance {key!r} must be a number, got {json.dumps(value)}")
        try:
            support = [(float(h), float(lc)) for h, lc in data["support"]]
        except (TypeError, ValueError):
            raise ValueError("instance 'support' must be a list of [energy, log-count] pairs") from None
        return cls(support, **bounds)

    @classmethod
    def from_counts(
        cls,
        counts: Iterable[tuple[float, float]],
        beta_min: float,
        beta_max: float,
        n: float | None = None,
    ) -> "CountInstance":
        """Build from linear-domain counts (must be strictly positive)."""
        support = []
        for h, c in counts:
            if c <= 0:
                raise ValueError(f"count for energy {h} must be positive, got {c}")
            support.append((h, math.log(c)))
        return cls(support, beta_min, beta_max, n=n)


class Schedule:
    """A strictly increasing sequence of inverse temperatures.

    The first and last entries are the endpoints of the estimation window;
    ``ell`` counts the intervals between consecutive levels.
    """

    __slots__ = ("betas",)

    def __init__(self, betas: Sequence[float]):
        b = np.asarray(betas, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("schedule needs at least two levels")
        if not np.isfinite(b).all():
            raise ValueError("schedule levels must be finite")
        if not (np.diff(b) > 0).all():
            raise ValueError("schedule must be strictly increasing")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "betas", b)

    def __setattr__(self, name, value):
        raise AttributeError("Schedule is immutable")

    def __reduce__(self):
        return (Schedule, (self.to_list(),))

    def __repr__(self):
        return f"Schedule(ell={self.ell}, [{self.betas[0]:g} .. {self.betas[-1]:g}])"

    @property
    def ell(self) -> int:
        return self.betas.size - 1

    def to_list(self) -> list[float]:
        return self.betas.tolist()


def check_count(name: str, value, least: int = 1, *, sized: bool = False, odd: bool = False) -> int:
    """``value`` as a Python int, if it is an integer count: else a ValueError naming ``name``.

    A count is a Python or numpy integer, not a ``bool``, of at least
    ``least``; ``sized`` also needs it below 2^63, and ``odd`` needs it odd.
    The int it returns does not wrap in later arithmetic, as a numpy integer
    of a narrow width would.
    """
    if not (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and least <= value < (2 ** 63 if sized else math.inf)
        and (value % 2 == 1 or not odd)
    ):
        span = f"in [{least}, 2^63)" if sized else f"of at least {least}"
        raise ValueError(f"{name} must be an {'odd ' if odd else ''}integer {span}")
    return int(value)


def logsumexp(a, axis=-1):
    """ln sum exp(a) over ``axis``: max, subtract, exp, sum, log, add.

    Each reduction needs a finite maximum; -inf entries under it add nothing.
    A 1-D ``a`` gives a numpy scalar.
    """
    top = np.max(a, axis=axis)
    terms = a - np.expand_dims(top, axis)
    np.exp(terms, out=terms)
    return np.log(terms.sum(axis=axis)) + top


def _logits(inst: CountInstance, beta) -> np.ndarray:
    """log_c - beta h, levels first: shape (levels,) + shape of ``beta``."""
    beta = np.asarray(beta, dtype=float)
    log_counts = inst.log_counts.reshape((-1,) + (1,) * beta.ndim)
    return log_counts - np.multiply.outer(inst.energies, beta)


def log_partition(inst: CountInstance, beta):
    """ln Z(beta) = log-sum-exp over the support of log_c - beta*h.

    Accepts a scalar or an array of beta values.
    """
    scalar = np.isscalar(beta) or np.ndim(beta) == 0
    z = logsumexp(_logits(inst, beta), axis=0)
    return float(z) if scalar else z


def log_ratio_true(inst: CountInstance) -> float:
    """The target quantity ln(Z(beta_min) / Z(beta_max))."""
    return log_partition(inst, inst.beta_min) - log_partition(inst, inst.beta_max)


def _weights(inst: CountInstance, beta) -> np.ndarray:
    """Normalized Gibbs weights, levels first like ``_logits``."""
    w = _logits(inst, beta)
    w -= w.max(axis=0)
    np.exp(w, out=w)
    return w / w.sum(axis=0)


def mean_energy(inst: CountInstance, beta):
    """Expected energy under the Gibbs weights at ``beta`` (equals -z'(beta))."""
    scalar = np.isscalar(beta) or np.ndim(beta) == 0
    m = np.tensordot(inst.energies, _weights(inst, beta), axes=1)
    return float(m) if scalar else m


def energy_variance(inst: CountInstance, beta):
    """Energy variance under the Gibbs weights at ``beta`` (equals z''(beta))."""
    scalar = np.isscalar(beta) or np.ndim(beta) == 0
    w = _weights(inst, beta)
    m = np.tensordot(inst.energies, w, axes=1)
    v = np.tensordot(np.square(inst.energies), w, axes=1) - np.square(m)
    v = np.maximum(v, 0.0)  # guard tiny negative rounding on near-degenerate weights
    return float(v) if scalar else v


def schedule_delta(inst: CountInstance, sched: Schedule) -> tuple[float, np.ndarray]:
    """Log relative variance of the paired product estimator on a schedule.

    Returns (delta, per_interval) where per_interval[i] is
    z(b_i) - 2 z((b_i + b_{i+1})/2) + z(b_{i+1}): the interval's ln Vrel(W) =
    ln Vrel(V), as E W = Z(mid)/Z(b_i) and E V = Z(mid)/Z(b_{i+1}) with mid
    its midpoint.  Each term is non-negative because ln Z is convex; their
    sum is ln Vrel of a single estimator run.
    """
    b = sched.betas
    scale = max(1.0, abs(inst.beta_min), abs(inst.beta_max))
    if abs(b[0] - inst.beta_min) > 1e-9 * scale or abs(b[-1] - inst.beta_max) > 1e-9 * scale:
        raise ValueError("schedule endpoints do not match instance bounds")
    # one call over ends and midpoints: each row's log-sum-exp is its own
    z = log_partition(inst, np.concatenate((b, 0.5 * (b[:-1] + b[1:]))))
    z_ends, z_mids = z[:b.size], z[b.size:]
    per_interval = z_ends[:-1] - 2.0 * z_mids + z_ends[1:]
    return float(per_interval.sum()), per_interval


def singleton_instance(h: float = 1.0, beta_min: float = 0.0, beta_max: float = 5.0) -> CountInstance:
    """Single-level fixture: ln Z is linear, every estimator run is exact.

    Its one level has log-count 0: a lone level's count cancels out of every
    Gibbs weight and of q.
    """
    return CountInstance([(h, 0.0)], beta_min, beta_max)


def two_level_instance(target_q: float, log_count_high: float | None = None) -> CountInstance:
    """Two-level {0, 1} instance whose log ratio equals ``target_q`` exactly.

    The count at energy 1 is inflated (default log-count target_q + 1) and
    beta_max solves z(0) - z(beta_max) == target_q in closed form: with
    z(beta) = ln(1 + e^(lc - beta)), beta_max = lc - ln(expm1(z(0) - target_q)).
    """
    if not target_q > 0:
        raise ValueError("target_q must be positive")
    lc = float(log_count_high) if log_count_high is not None else target_q + 1.0
    z0 = np.logaddexp(0.0, lc)
    if not z0 > target_q:
        raise ValueError("log_count_high too small to reach target_q")
    beta_max = lc - math.log(math.expm1(z0 - target_q))
    return CountInstance([(0.0, 0.0), (1.0, lc)], 0.0, beta_max)


def save_instance(inst: CountInstance, path) -> None:
    """Write an instance as JSON; floats round-trip exactly via repr."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_dict(), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> CountInstance:
    with open(path, encoding="utf-8") as fh:
        return CountInstance.from_dict(json.load(fh))
