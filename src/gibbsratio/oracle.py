"""Sampling oracles over count instances.

An oracle draws energy values with probability c_h e^{-beta h} / Z(beta) and
counts every draw it serves.  All exact draws go through one kernel,
``SamplingOracle._draw``: per requested beta it builds a cumulative weight
table and draws by inverse CDF, the index being the number of entries before
the last that are <= u * total (``searchsorted`` with side="right").  A
vector of betas is served in one call, level-major with one uniform per draw.

The tables are energy-major, one row per level and one column per beta, so
the running sum and the index count are whole-row elementwise operations
across the betas.  Reducing a beta-major table along its short last axis
runs one numpy inner loop per beta: about 120 ns per two-level ``sample_at``
draw against about 31 ns.

The logits log c_j - beta h_j of a table are one matrix product, taken
relative to level 0's: the handle's (levels, 2) matrix
[log c_j - log c_0, -(h_j - h_0)], built once in ``__init__`` with row 0
[0, 0], times the (2, betas) matrix [1; betas].  The product replaced
``np.multiply.outer`` followed by a broadcast subtract, two passes over the
table where the product makes one.  With the max shift, 23 levels took 55 us
against 132 us at 1,200 betas and 122 against 173 us at 2,806, 300 levels x
200 betas 109 against 256 us, and two levels were level (23 against 25 us at
2,074 betas; min of 7 timeit repeats).  The product's fused multiply-add may
round a logit once where the subtract rounded twice, so an entry can move by
an ulp or two of |log c_j| + |beta h_j|; a draw moves only where u * total
lands that close to a table entry.  The same holds between CPUs whose BLAS
kernels do and do not fuse.  Up to 65,536 levels a table holds at most
``CHUNK_ELEMENTS`` entries, so a product is at most 2 x 65,536 multiply-adds,
below OpenBLAS's threshold for threading it: it runs on the calling thread
(CPU over wall time 1.00 at 2, 23, 64 and 300 levels, against 1.97 for a
500 x 200 x 500 product).

The floor is beta* = max_{j >= 1} (log c_j - log c_0 - 600) / (h_j - h_0),
or -inf on one level.  Energies are sorted and distinct, so each relative
logit falls as beta rises and none exceeds 600 from beta* up.  A table whose
smallest beta is at least beta* exponentiates the product as it is: level
0's weight is exactly 1.0, so no column underflows, and a column sums to at
most levels x e^600, so none overflows.  Below the floor a table takes the
max shift of the same product, each column's largest entry subtracted from
it; level 0's line log c_0 - beta h_0 is one constant per column, so it
cancels in the shift.  An unshifted weight is e^g times its max-shifted
value, g >= 0 being the column's largest relative logit, so no weight that
was a normal float becomes subnormal and no more of the ``exp``'s inputs take
its slow path.  The inverse CDF does not depend on a column's scale, so only
rounding moves, as with the product; the record hashes of
``tools/records.py`` did not change, and draws on both sides of the floor
match a replay of max-shifted absolute logits draw for draw.  Every table of
the benchmark workloads lies above its floor (-591 at two-level q=8, -535 at
q=64, -25 on the 4x4 Ising grid, all below beta_min = 0); two-level q=1000
(floor 401) and lb64 (30.4) take both paths.  Skipping the column max and
the subtract took the 23 x 2,806 Ising weights from 132-163 to 80-88 us
and the 2 x 2,074 q=64 weights from 15-17 to 11 us (min of 7 timeit
repeats, three alternating runs, 2-vCPU Xeon VM).

The running sum is picked by the table's width.  One in-place add per level
costs about 0.5 us a row at any width; ``np.cumsum`` down the rows costs
about 3 us plus 4.5 ns an entry.  So ``np.cumsum`` takes a table only when
width x (levels + 4) < 110 x (levels - 6): never at 6 levels or fewer, and
never above 110 betas.  At 23 levels the row adds took 12-13 us, and
``np.cumsum`` 3.4, 7.7 and 25.6 us at 2, 50 and 200 betas (timeit, min of
repeats, 2-vCPU Xeon VM).  Both add in the same order, so the sums are
bit-identical.  The index count adds the comparisons up in the narrowest
unsigned type that holds levels - 1: uint8 up to 256 levels, uint16 up to
65,536, intp above.  On a 22 x 2,806 comparison that took 6 us, against 54 us
for a bool-to-intp sum.  A two-level table has one comparison row, and that
row is the index: ``take`` reads it viewed as uint8 and no sum runs, which
saved the 2.8 us ``np.add.reduce`` took on a 10-beta TPA wave.  Whether a
table needs the max shift is read from its smallest beta, found by
``argmin`` (0.8 us at 10 betas, against 2.6 us for ``min``).

A call allocates its output and one table per block of betas, built and
exponentiated in place, with the table's two-row [1; betas] multiplier.  A
call of several draw slices also allocates one set of slice buffers that
every slice reuses; a call of one table and one slice, as every TPA wave of
the benchmark workloads is, allocates no more.  Fresh table-sized
temporaries per operation cost about 980 minor page faults per trial on the
two-level q=64 workload; this layout takes none.

``CHUNK_ELEMENTS`` (65,536) bounds a table block and a draw slice.  It is
public because ``estimator.paired_product`` reads it too: it asks for at most
that many draws per ``sample_many`` call (one level's r draws when r is
larger), so the PPE holds no more draws than one block, whatever its length.

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

__all__ = ["Corruption", "SamplingOracle", "CORRUPTION_MODES", "CHUNK_ELEMENTS"]

CORRUPTION_MODES = ("uniform", "adversarial_max_h", "adversarial_min_h")

# bound on the table entries of a block, and on the draws of a slice, in SamplingOracle._draw,
# and on the draws of one paired_product block
CHUNK_ELEMENTS = 1 << 16

# largest logit, relative to level 0's, that SamplingOracle._weights exponentiates
# unshifted.  Level 0's weight is then 1.0 and every other weight at most e^600,
# about 3.8e260, so a column sums to at most levels x e^600: below the float
# maximum (about e^709.78) up to e^109 levels, far beyond any table.
_RELATIVE_LOGIT_CAP = 600.0


def _count_dtype(levels: int):
    """The narrowest unsigned type that holds an index, at most levels - 1."""
    return np.uint8 if levels <= 1 << 8 else np.uint16 if levels <= 1 << 16 else np.intp


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

    __slots__ = ("instance", "corruption", "_calls", "_relative_matrix", "_floor")

    def __init__(self, instance: CountInstance, corruption: Corruption | None = None):
        if corruption is not None and corruption.tv_budget == 0.0:
            corruption = None  # behaviorally identical to the exact oracle
        self.instance = instance
        self.corruption = corruption
        self._calls = 0
        # row j is [log c_j - log c_0, -(h_j - h_0)]: this @ [1; betas] is the
        # logits log c_j - beta h_j relative to level 0's
        logit_matrix = np.column_stack((instance.log_counts, -instance.energies))
        self._relative_matrix = logit_matrix - logit_matrix[0]
        # from this beta up no relative logit exceeds _RELATIVE_LOGIT_CAP (h_j > h_0)
        log_c, h = instance.log_counts, instance.energies
        floors = (log_c[1:] - log_c[0] - _RELATIVE_LOGIT_CAP) / (h[1:] - h[0])
        self._floor = float(floors.max(initial=-np.inf))

    def __repr__(self):
        tag = "exact" if self.corruption is None else (
            f"tv={self.corruption.tv_budget:g},{self.corruption.mode}"
        )
        return f"SamplingOracle({tag}, calls={self._calls})"

    @property
    def call_count(self) -> int:
        """Number of draws served since construction."""
        return self._calls

    # -- exact draws ------------------------------------------------------

    def _draw(self, betas: np.ndarray, size: int, rng) -> np.ndarray:
        """``size`` exact draws per entry of the 1-D ``betas``, shape (len, size).

        A block of about ``CHUNK_ELEMENTS`` table entries, whatever ``size``
        is, gets one table; the draws go in slices of whole output rows, or of
        part of one row, under the same bound.  A call whose draws times
        levels fit the bound is one table and one slice, drawn straight into
        its output.  Several slices share one comparison and one index-count
        buffer; only each slice's uniforms are fresh.
        """
        n = self.instance.energies.size
        out = np.empty((betas.size, size))
        block = max(1, CHUNK_ELEMENTS // n)  # betas per table; draws per slice if rows == 1
        if betas.size * max(1, size) <= block:  # one table, one slice
            self._invert(self._table(betas), rng, out)
            return out
        rows = max(1, min(betas.size, block // max(1, size)))  # betas per draw slice
        cols = min(block, size)  # draws per slice
        below = np.empty((n - 1, rows, cols), dtype=bool)
        count = np.empty((rows, cols), dtype=_count_dtype(n))
        for lo in range(0, betas.size, block):
            cum = self._table(betas[lo:lo + block])
            dst = out[lo:lo + block]
            for r in range(0, cum.shape[1], rows):
                part = cum[:, r:r + rows]
                p = part.shape[1]
                for c in range(0, size, block):
                    w = min(block, size - c)
                    self._invert(part, rng, dst[r:r + p, c:c + w], below[:, :p, :w], count[:p, :w])
        return out

    def _table(self, betas: np.ndarray) -> np.ndarray:
        """Cumulative weights, shape (levels, betas): row j sums levels 0..j.

        The weights come from ``_weights``: one product for the logits, the
        max shift below the floor only, and the ``exp``.
        """
        cum = self._weights(betas)
        n, width = cum.shape
        if width * (n + 4) < 110 * (n - 6):  # narrow: see the module docstring
            np.cumsum(cum, axis=0, out=cum)
        else:
            levels = iter(cum)
            below = next(levels)
            for row in levels:
                row += below
                below = row
        return cum

    def _weights(self, betas: np.ndarray) -> np.ndarray:
        """Each column's Gibbs weights up to a factor, shape (levels, betas).

        The logits relative to level 0's are one (levels, 2) @ (2, betas)
        product, which may round once where log c - beta h rounds twice; at
        this size it runs on the calling thread.  From the floor up the
        weights are their exp, whose row 0 is 1.0 and whose entries are at
        most e^600; a table with a beta below it takes the column max shift
        first, so its column maxima are 1.0.  See the module docstring for
        the floor, the cost and the rounding.
        """
        ones_betas = np.empty((2, betas.size))
        ones_betas[0] = 1.0
        ones_betas[1] = betas
        w = self._relative_matrix @ ones_betas
        if betas.size and betas[betas.argmin()] < self._floor:  # a column could overflow
            w -= w.max(axis=0)
        return np.exp(w, out=w)

    def _invert(self, cum, rng, dst, below=None, count=None) -> None:
        """Inverse-CDF draws into ``dst`` (betas, draws) from the table ``cum``;
        ``below`` and ``count`` are the comparison and index buffers, or None."""
        x = rng.random(dst.shape)
        x *= cum[-1][:, None]
        hit = np.less_equal(cum[:-1, :, None], x, out=below)
        del x  # else it lives on while take converts idx to intp
        if hit.shape[0] == 1:  # two levels: the one comparison row is the index
            idx = hit[0].view(np.uint8)
        else:
            idx = np.add.reduce(hit.view(np.uint8), axis=0, dtype=_count_dtype(cum.shape[0]), out=count)
        # indices lie in [0, n); "clip" writes into dst unbuffered
        self.instance.energies.take(idx, out=dst, mode="clip")

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
        hit = np.count_nonzero(mask)
        if hit:
            energies = self.instance.energies
            if self.corruption.mode == "uniform":
                h[mask] = energies[rng.integers(0, energies.size, hit)]
            elif self.corruption.mode == "adversarial_max_h":
                h[mask] = energies[-1]
            else:
                h[mask] = energies[0]
        return h
