"""Sampling oracles over count instances.

An oracle draws energy values with probability c_h e^{-beta h} / Z(beta) and
counts every draw it serves.  All exact draws go through one kernel,
``SamplingOracle._draw``: per requested beta it builds a max-shifted
cumulative weight table and draws by inverse CDF, the index being the number
of entries before the last that are <= u * total (``searchsorted`` with
side="right").  A vector of betas is served in one call, level-major with one
uniform per draw, in row chunks of about ``_CHUNK_ELEMENTS`` temporaries.
The index costs one comparison per level, cheap at desk-scale supports; at
hundreds of levels binary search or alias tables would win inside ``_draw``.
An optional corruption wrapper mixes in a fixed alternative distribution with
probability tv_budget, which bounds the total-variation distance from the
exact oracle by tv_budget.

Handles are cheap and single-threaded by design: give each trial worker its
own handle over the shared read-only instance, and aggregate call counts after
the workers finish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import CountInstance

__all__ = ["Corruption", "SamplingOracle", "CORRUPTION_MODES"]

CORRUPTION_MODES = ("uniform", "adversarial_max_h", "adversarial_min_h")

# bound on the elements of each temporary block in SamplingOracle._draw
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Corruption:
    """Mixture corruption: emit from the alternative with probability tv_budget.

    The alternative is either uniform over the support or a point mass on the
    extreme energy.  Mixing (1-t)*exact + t*alternative keeps the TV distance
    from the exact oracle at most t for every beta.
    """

    tv_budget: float
    mode: str = "uniform"

    def __post_init__(self):
        if not 0.0 <= self.tv_budget < 1.0:
            raise ValueError("tv_budget must lie in [0, 1)")
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {self.mode!r}")


class SamplingOracle:
    """Draws energies from the Gibbs weights of a count instance."""

    __slots__ = ("instance", "corruption", "_calls")

    def __init__(self, instance: CountInstance, corruption: Corruption | None = None):
        if corruption is not None and corruption.tv_budget == 0.0:
            corruption = None  # behaviorally identical to the exact oracle
        self.instance = instance
        self.corruption = corruption
        self._calls = 0

    def __repr__(self):
        tag = "exact" if self.corruption is None else (
            f"tv={self.corruption.tv_budget:g},{self.corruption.mode}"
        )
        return f"SamplingOracle({tag}, calls={self._calls})"

    @property
    def call_count(self) -> int:
        """Number of draws served since construction or the last reset."""
        return self._calls

    def reset_count(self) -> None:
        self._calls = 0

    def with_corruption(self, tv_budget: float, mode: str = "uniform") -> "SamplingOracle":
        """A fresh handle over the same instance with mixture corruption."""
        return SamplingOracle(self.instance, Corruption(tv_budget, mode))

    # -- exact draws ------------------------------------------------------

    def _draw(self, betas: np.ndarray, size: int, rng) -> np.ndarray:
        """``size`` exact draws per entry of the 1-D ``betas``, shape (len, size)."""
        energies = self.instance.energies
        n = energies.size
        out = np.empty((betas.size, size))
        rows = max(1, _CHUNK_ELEMENTS // max(1, size * n))
        cols = max(1, _CHUNK_ELEMENTS // n)  # only < size when rows == 1
        for lo in range(0, betas.size, rows):
            logits = self.instance.log_counts - np.multiply.outer(betas[lo:lo + rows], energies)
            logits -= logits.max(axis=1, keepdims=True)
            cum = np.cumsum(np.exp(logits), axis=1)
            for c in range(0, size, cols):
                x = rng.random((cum.shape[0], min(cols, size - c))) * cum[:, -1:]
                idx = (cum[:, None, :-1] <= x[:, :, None]).sum(axis=2)
                out[lo:lo + rows, c:c + cols] = energies[idx]
        return out

    # -- public sampling surface ------------------------------------------

    def sample(self, beta: float, rng) -> float:
        """One draw at inverse temperature beta."""
        return float(self.sample_many(beta, 1, rng)[0])

    def sample_many(self, beta, size: int, rng) -> np.ndarray:
        """``size`` independent draws at each beta: shape (size,) for a scalar
        beta, (len(beta), size) for a 1-D vector of betas."""
        betas = np.asarray(beta, dtype=float)
        h = self._corrupt(self._draw(betas.reshape(-1), size, rng), rng)
        self._calls += h.size
        return h.reshape(betas.shape + (size,))

    def sample_at(self, betas, rng) -> np.ndarray:
        """One draw per entry of betas, each at its own inverse temperature."""
        h = self._corrupt(self._draw(np.asarray(betas, dtype=float), 1, rng)[:, 0], rng)
        self._calls += h.size
        return h

    def _corrupt(self, h: np.ndarray, rng) -> np.ndarray:
        if self.corruption is None:
            return h
        mask = rng.random(h.shape) < self.corruption.tv_budget
        hit = int(mask.sum())
        if hit:
            energies = self.instance.energies
            if self.corruption.mode == "uniform":
                h[mask] = energies[rng.integers(0, energies.size, hit)]
            elif self.corruption.mode == "adversarial_max_h":
                h[mask] = energies[-1]
            else:
                h[mask] = energies[0]
        return h
