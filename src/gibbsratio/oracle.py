"""Sampling oracles over count instances.

An oracle draws energy values with probability c_h e^{-beta h} / Z(beta) and
counts every draw it serves.  All exact draws go through one kernel,
``SamplingOracle._draw``: per requested beta it builds a max-shifted
cumulative weight table and draws by inverse CDF, the index being the number
of entries before the last that are <= u * total (``searchsorted`` with
side="right").  A vector of betas is served in one call, level-major with one
uniform per draw.

The tables are energy-major, one row per level and one column per beta, so
the max shift, the running sum and the index count are whole-row elementwise
operations across the betas.  Reducing a beta-major table along its short
last axis runs one numpy inner loop per beta: about 120 ns per two-level
``sample_at`` draw against about 31 ns.  The running sum is a loop over
levels, not ``np.cumsum``, which is slower at hundreds of betas or more
(2 levels x 2,074 betas: 43 vs 4 us) and faster only on narrow tables with
many levels; both add in the same order, so the draws are bit-identical.

A call allocates its output, one table per block of betas (built and
exponentiated in place) and one set of slice buffers that every draw slice
reuses.  Fresh table-sized temporaries per operation cost about 980 minor page
faults per trial on the two-level q=64 workload; this layout takes none.

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

# bound on the table entries of a block, and on the draws of a slice, in SamplingOracle._draw
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

    # -- exact draws ------------------------------------------------------

    def _draw(self, betas: np.ndarray, size: int, rng) -> np.ndarray:
        """``size`` exact draws per entry of the 1-D ``betas``, shape (len, size).

        ``cum`` has shape (levels, betas in the block); row j sums the
        max-shifted weights of levels 0..j.  A block holds about
        ``_CHUNK_ELEMENTS`` table entries whatever ``size`` is, so the level
        loop runs once per block; the draws go in slices of whole output rows,
        or of part of one row, under the same bound.

        Besides the output, a call allocates one table per block, filled in
        place, and one comparison and one index-count buffer that every slice
        reuses; the energies go straight into the output rows, and only each
        slice's uniforms are fresh, released before the next slice draws.
        """
        energies = self.instance.energies
        log_counts = self.instance.log_counts[:, None]
        n = energies.size
        out = np.empty((betas.size, size))
        block = max(1, _CHUNK_ELEMENTS // n)  # betas per table; draws per slice if rows == 1
        rows = max(1, min(betas.size, block // max(1, size)))  # betas per draw slice
        cols = min(block, size)  # draws per slice
        below = np.empty((n - 1, rows, cols), dtype=bool)
        count = np.empty((rows, cols), dtype=np.intp)
        for lo in range(0, betas.size, block):
            cum = np.multiply.outer(energies, betas[lo:lo + block])
            np.subtract(log_counts, cum, out=cum)
            cum -= cum.max(axis=0)
            np.exp(cum, out=cum)
            for j in range(1, n):
                cum[j] += cum[j - 1]
            dst = out[lo:lo + block]
            for r in range(0, cum.shape[1], rows):
                part = cum[:, r:r + rows]
                for c in range(0, size, block):
                    x = rng.random((part.shape[1], min(block, size - c)))
                    x *= part[-1][:, None]
                    p, w = x.shape
                    hit = np.less_equal(part[:-1, :, None], x, out=below[:, :p, :w])
                    idx = hit.sum(axis=0, out=count[:p, :w])
                    # indices lie in [0, n); "clip" writes into dst unbuffered
                    energies.take(idx, out=dst[r:r + p, c:c + w], mode="clip")
                    del x  # else it lives on while rng.random allocates the next slice's
        return out

    # -- public sampling surface ------------------------------------------

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
