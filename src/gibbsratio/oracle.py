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
[0, 0], times the (2, betas) matrix [1; betas].  The product makes one pass
over the table where ``np.multiply.outer`` and a broadcast subtract make two.
With the max shift, 23 levels took 55 us against 132 us at 1,200 betas and
122 against 173 us at 2,806, 300 levels x 200 betas 109 against 256 us, and
two levels were level (23 against 25 us at 2,074 betas; min of 7 timeit
repeats).  The product's fused multiply-add may round a logit once where the
subtract rounds twice, so an entry can move by an ulp or two of
|log c_j| + |beta h_j|; a draw moves only where u * total lands that close to
a table entry.  The same holds between CPUs whose BLAS kernels do and do not
fuse.  Up to 65,536 levels a table holds at most ``CHUNK_ELEMENTS`` entries,
so a product is at most 2 x 65,536 multiply-adds, below OpenBLAS's threshold
for threading it: it runs on the calling thread (CPU over wall time 1.00 at
2, 23, 64 and 300 levels, against 1.97 for a 500 x 200 x 500 product).

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
rounding moves, as with the product; draws on both sides of the floor match
a replay of max-shifted absolute logits draw for draw.  Every table of the
benchmark workloads lies above its floor (-591 at two-level q=8, -535 at
q=64, -25 on the 4x4 Ising grid, all below beta_min = 0); two-level q=1000
(floor 401) and lb64 (30.4) take both paths.  Without the column max and the
subtract the 23 x 2,806 Ising weights took 80-88 us against 132-163 us, and
the 2 x 2,074 q=64 weights 11 against 15-17 us (min of 7 timeit repeats,
three alternating runs, 2-vCPU Xeon VM).  Whether a table needs the max
shift is read from its smallest beta, found by ``argmin`` (0.8 us at 10
betas, against 2.6 us for ``min``).

The running sum is one in-place add per level, down the rows.  The index
count adds the comparisons up in the narrowest unsigned type that holds
levels - 1: uint8 up to 256 levels, uint16 up to 65,536, intp above.  On a
22 x 2,806 comparison that took 6 us, against 54 us for a bool-to-intp sum.
A two-level table has one comparison row, and that row is the index:
``take`` reads it viewed as uint8 and no sum runs, which saves the 2.8 us
``np.add.reduce`` takes on a 10-beta TPA wave.

A call draws in pieces of at most ``CHUNK_ELEMENTS // levels`` draws, so a
piece's comparisons hold at most ``CHUNK_ELEMENTS`` bytes.  A piece is whole
output rows, or part of one row when a row is longer than a piece; uniforms
go out in row-major order either way.  Each piece allocates its own
uniforms, comparisons and index count.  One table serves as many whole
pieces as fit in ``CHUNK_ELEMENTS`` entries: on the 23-level Ising grid a
table per piece of 47 betas x 60 draws took a 451-beta PPE call from about
790 to 900-950 us.  A call that fits in one piece, as every TPA wave of the
benchmark workloads does, builds one table and draws straight into its
output.

``CHUNK_ELEMENTS`` (65,536) is public because ``estimator.paired_product``
reads it too: it asks for at most that many draws per ``sample_many`` call
(one level's r draws when r is larger), so the PPE holds no more draws than
that at once, whatever its length.

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

# bound on the table entries and comparisons of a piece in SamplingOracle._draw,
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

        The draws go in pieces of at most ``CHUNK_ELEMENTS // levels``: whole
        output rows, or part of one row when a row is longer than a piece.
        A table serves a block of whole pieces; a call that fits in one piece
        is drawn straight into its output.
        """
        piece = max(1, CHUNK_ELEMENTS // self.instance.energies.size)
        out = np.empty((betas.size, size))
        if betas.size * max(1, size) <= piece:
            self._invert(self._table(betas), rng, out)
            return out
        rows = max(1, piece // max(1, size))  # betas per piece
        block = piece // rows * rows  # betas per table: whole pieces, at most CHUNK_ELEMENTS entries
        for r in range(0, betas.size, rows):
            if not r % block:
                cum = self._table(betas[r:r + block])
            for c in range(0, size, piece):  # more than one piece only when rows == 1
                self._invert(cum[:, r % block:r % block + rows], rng, out[r:r + rows, c:c + piece])
        return out

    def _table(self, betas: np.ndarray) -> np.ndarray:
        """Cumulative weights, shape (levels, betas): row j sums levels 0..j.

        The weights come from ``_weights``: one product for the logits, the
        max shift below the floor only, and the ``exp``.
        """
        cum = self._weights(betas)
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

    def _invert(self, cum, rng, dst) -> None:
        """Inverse-CDF draws into ``dst`` (betas, draws) from the table ``cum``."""
        x = rng.random(dst.shape)
        x *= cum[-1][:, None]
        hit = cum[:-1, :, None] <= x
        del x  # else it lives on while take converts idx to intp
        if hit.shape[0] == 1:  # two levels: the one comparison row is the index
            idx = hit[0].view(np.uint8)
        else:
            idx = np.add.reduce(hit.view(np.uint8), axis=0, dtype=_count_dtype(cum.shape[0]))
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
