"""Sampling oracle distribution, corruption, and accounting checks.

Statistical assertions use pinned seeds and conservative tolerances so the
suite stays deterministic.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from gibbsratio.instance import CountInstance, singleton_instance, two_level_instance
from gibbsratio.lowerbound import build_from_grid
from gibbsratio.models import GraphSpec, enumerate_ising, load_graph
from gibbsratio.oracle import CHUNK_ELEMENTS, CORRUPTION_MODES, Corruption, SamplingOracle

ALPHA = 1e-3


def exact_probs(inst, beta):
    w = np.exp(inst.log_counts - beta * inst.energies)
    return w / w.sum()


class HalfRng:
    """Generator stub whose uniforms are all exactly 0.5."""

    def random(self, shape):
        return np.full(shape, 0.5)


@pytest.fixture
def two_level():
    return CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))


class TestExactSampling:
    def test_singleton_always_returns_its_energy(self):
        oracle = SamplingOracle(singleton_instance())
        rng = np.random.default_rng(0)
        draws = oracle.sample_many(0.7, 1000, rng)
        assert (draws == 1.0).all()

    def test_symmetric_weights_at_zero(self, two_level):
        oracle = SamplingOracle(two_level)
        rng = np.random.default_rng(1)
        draws = oracle.sample_many(0.0, 100_000, rng)
        freq0 = (draws == 0.0).mean()
        assert abs(freq0 - 0.5) < 0.01

    def test_skewed_weights_within_four_se(self, two_level):
        # P(h=1) at beta = ln 3 is (1/3)/(4/3) = 1/4
        oracle = SamplingOracle(two_level)
        rng = np.random.default_rng(2)
        n = 100_000
        draws = oracle.sample_many(math.log(3.0), n, rng)
        p = 0.25
        se = math.sqrt(p * (1 - p) / n)
        assert abs((draws == 1.0).mean() - p) < 4 * se

    @pytest.mark.statistical
    def test_chi_square_against_gibbs_weights(self):
        inst = enumerate_ising(GraphSpec(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(3)
        n = 100_000
        beta = 0.7
        draws = oracle.sample_many(beta, n, rng)
        observed = np.array([(draws == h).sum() for h in inst.energies])
        expected = n * exact_probs(inst, beta)
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > ALPHA

    def test_sample_at_heterogeneous_betas(self, two_level):
        oracle = SamplingOracle(two_level)
        rng = np.random.default_rng(4)
        betas = np.full(50_000, math.log(3.0))
        betas[::2] = 0.0
        draws = oracle.sample_at(betas, rng)
        freq_even = (draws[::2] == 1.0).mean()  # beta 0 -> 1/2
        freq_odd = (draws[1::2] == 1.0).mean()  # beta ln3 -> 1/4
        assert abs(freq_even - 0.5) < 0.015
        assert abs(freq_odd - 0.25) < 0.015

    def test_scalar_sample_matches_support(self, two_level):
        oracle = SamplingOracle(two_level)
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert oracle.sample_many(0.3, 1, rng)[0] in (0.0, 1.0)

    def test_one_uniform_consumed_per_exact_draw(self, two_level):
        # same stream position after n draws as after n raw uniforms
        oracle = SamplingOracle(two_level)
        for beta, uniforms in ((0.4, 137), (np.array([0.0, 0.4, 1.0]), 3 * 137)):
            rng_a = np.random.default_rng(6)
            rng_b = np.random.default_rng(6)
            oracle.sample_many(beta, 137, rng_a)
            rng_b.random(uniforms)
            assert rng_a.random() == rng_b.random()

    def test_tie_resolves_upward_on_every_path(self):
        # beta 0 on two equal weights: cum = [1, 2] and u * total = 1 lands
        # exactly on the first entry, which counts as passed
        oracle = SamplingOracle(CountInstance([(0, 0), (1, 0)], 0, 1))
        rng = HalfRng()
        assert oracle.sample_many(0.0, 3, rng).tolist() == [1.0] * 3
        assert oracle.sample_at(np.zeros(4), rng).tolist() == [1.0] * 4
        assert oracle.sample_many(np.zeros(2), 3, rng).tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("levels,varied,rows,size", [
        pytest.param(20, True, 60, 300, id="60-300"),
        pytest.param(20, True, 3, 5000, id="3-5000"),
        pytest.param(20, True, 400, 40, id="wide-table"),
        pytest.param(256, False, 40, 30, id="256-levels"),
        pytest.param(257, False, 40, 30, id="257-levels"),
        pytest.param(300, False, 16, 300, id="narrow-300-levels"),
        pytest.param(300, False, 500, 2, id="two-tables"),
        pytest.param(2, True, 60, 300, id="two-levels-one-slice"),
        pytest.param(2, True, 260, 924, id="two-levels-q8-tight-ppe"),
    ])
    def test_vector_matches_row_by_row_searchsorted(self, levels, varied, rows, size):
        # 60-300 splits the rows over pieces and 3-5000 splits each row;
        # wide-table draws 400 betas over 20 levels.  256 and 257 levels sit
        # on either side of the uint8/uint16 index count, and narrow-300-levels
        # cuts each row of 16 betas over 300 levels in two pieces, and two-tables
        # draws 500 betas in pieces of 109 from tables of 218.  Two levels
        # index by their one comparison row: in one piece, and over the pieces
        # of q8-tight's PPE shape, 260 betas x 924.
        # Unit counts make the top level, the largest count, likely at beta < 0.
        inst = CountInstance(
            [(h, 0.1 * h * (7 - h % 5) if varied else 0.0) for h in range(levels)], 0.0, 2.0
        )
        entries = rows * size * inst.support_size
        assert entries <= CHUNK_ELEMENTS or entries > 4 * CHUNK_ELEMENTS  # one piece, or several
        betas = np.linspace(-0.5, 2.5, rows)
        oracle = SamplingOracle(inst)
        draws = oracle.sample_many(betas, size, np.random.default_rng(21))
        assert draws.shape == (rows, size)
        assert oracle.call_count == rows * size
        ref_rng = np.random.default_rng(21)
        for beta, row in zip(betas, draws):
            logits = inst.log_counts - beta * inst.energies
            cum = np.cumsum(np.exp(logits - logits.max()))
            idx = np.searchsorted(cum, ref_rng.random(size) * cum[-1], side="right")
            np.testing.assert_array_equal(row, inst.energies[np.minimum(idx, cum.size - 1)])
        assert draws.max() == inst.energies[-1]  # the largest index count is drawn

    @pytest.mark.parametrize("support", [1, 2, 23])
    def test_sample_at_matches_row_by_row_searchsorted(self, support):
        # the TPA-shaped call: one draw at each of 2,074 betas; support 1
        # compares against no level, support 2 accumulates one level
        inst = CountInstance([(h, 0.1 * h * (7 - h % 5)) for h in range(support)], 0.0, 2.0)
        betas = np.linspace(-0.5, 2.5, 2074)
        oracle = SamplingOracle(inst)
        draws = oracle.sample_at(betas, np.random.default_rng(22))
        assert oracle.call_count == 2074
        ref_rng = np.random.default_rng(22)
        ref = np.empty(betas.size)
        for i, beta in enumerate(betas):
            logits = inst.log_counts - beta * inst.energies
            cum = np.cumsum(np.exp(logits - logits.max()))
            idx = np.searchsorted(cum, ref_rng.random() * cum[-1], side="right")
            ref[i] = inst.energies[min(idx, cum.size - 1)]
        np.testing.assert_array_equal(draws, ref)


def fuzzed_supports(levels, seed):
    """20 instances at the ranges of the wide-instance fuzz (energies up to 1e6,
    log-counts up to +-1,500, windows 1e-6 to 1e3 wide), each with 50 betas
    across and beyond its window."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        energies = rng.uniform(1.0, 10 ** rng.uniform(0, 6), levels)
        if rng.random() < 0.5:
            energies[0] = 0.0
        width = 10 ** rng.uniform(-6, 3)
        lo = rng.uniform(-1, 1) * width
        inst = CountInstance(zip(energies, rng.uniform(-1500, 1500, levels)), lo, lo + width)
        betas = np.concatenate([np.linspace(lo - width, lo + 2 * width, 40), rng.uniform(-3, 3, 10)])
        yield inst, betas


class TestProductTable:
    @pytest.mark.parametrize("levels", [1, 2, 3, 23, 300])
    def test_table_matches_the_subtracted_logits(self, levels):
        # the product may round a logit once where log_counts - beta * energies
        # rounds twice; either is within an ulp or two of its largest term,
        # |log c_j| + |beta h_j|, and a weight moves by as much, relatively.
        # A table at or above the floor is scaled by e^g, g >= 0, against the
        # max-shifted one, so each column is compared after dividing it by its
        # total.  So: a relative 1e-12 while the terms stay within 1,000, in
        # proportion beyond, and 1e-300 absolute for subnormal weights
        for inst, betas in fuzzed_supports(levels, seed=levels):
            logits = inst.log_counts[:, None] - betas * inst.energies[:, None]
            ref = np.cumsum(np.exp(logits - logits.max(axis=0)), axis=0)
            ref /= ref[-1]
            terms = np.abs(inst.log_counts)[:, None] + np.abs(betas * inst.energies[:, None])
            rtol = 1e-12 * np.maximum(1.0, terms.max(axis=0) / 1e3)
            oracle = SamplingOracle(inst)
            for part in (betas >= oracle._floor, np.ones(betas.size, dtype=bool)):
                cum = oracle._table(betas[part])
                assert cum.shape == (levels, part.sum())
                assert np.isfinite(cum).all()
                cum /= cum[-1]
                assert (np.abs(cum - ref[:, part]) <= rtol[part] * ref[:, part] + 1e-300).all()

    @pytest.mark.parametrize("levels", [1, 2, 3, 23, 300])
    def test_largest_weight_is_exactly_one(self, levels):
        # below the floor the max shift subtracts each column's largest logit
        # from itself; at or above it level 0's relative logit is 0 - 0 * beta,
        # so level 0's weight is exactly one and the largest at least one
        for inst, betas in fuzzed_supports(levels, seed=levels):
            oracle = SamplingOracle(inst)
            above = oracle._weights(betas[betas >= oracle._floor])
            assert (above[0] == 1.0).all() and np.isfinite(above).all()
            if betas.min() < oracle._floor:
                assert (oracle._weights(betas).max(axis=0) == 1.0).all()


class TestReferenceLine:
    def test_floor_matches_its_closed_form(self):
        # beta* = max_j (log c_j - log c_0 - 600) / (h_j - h_0), or -inf on one level
        assert SamplingOracle(two_level_instance(1000.0))._floor == 1001.0 - 600.0
        inst = CountInstance([(2.0, 1.0), (5.0, 700.0), (6.0, 0.0)], 0.0, 1.0)
        assert SamplingOracle(inst)._floor == max(99.0 / 3.0, -601.0 / 4.0) == 33.0
        assert SamplingOracle(singleton_instance())._floor == -math.inf

    def test_wave_across_the_floor_draws_without_warnings(self):
        # floor 401 inside the window [0, 1000.46]: a wave's table takes the
        # max shift, and a wave above the floor the relative logits, up to 600
        inst = two_level_instance(1000.0)
        oracle = SamplingOracle(inst)
        assert inst.beta_min < oracle._floor < inst.beta_max
        rng = np.random.default_rng(27)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            across = oracle.sample_at(np.linspace(inst.beta_min, inst.beta_max, 2806), rng)
            above = oracle.sample_many(np.linspace(oracle._floor, inst.beta_max, 40), 50, rng)
        assert np.isin(across, inst.energies).all() and np.isin(above, inst.energies).all()
        # P(h = 0) is below e^-600 up to the floor, and about 0.37 at beta_max
        assert (across[:1000] == 1.0).all() and (above[0] == 1.0).all()
        assert 0.2 < (above[-1] == 0.0).mean() < 0.6

    @pytest.mark.parametrize("model,below", [
        ("q8", 0), ("q64", 0), ("ising", 0), ("q1000", 1132), ("lb64", 987),
    ], ids=["q8", "q64", "ising", "q1000", "lb64"])
    def test_draws_match_a_column_max_replay(self, model, below, grid4_graph):
        # the benchmark instances lie above the floor, q1000 and lb64 straddle
        # it; the replay builds each table from the absolute logits, then the
        # max shift, so the relative product must draw the same on both sides
        inst = {
            "q8": lambda: two_level_instance(8.0),
            "q64": lambda: two_level_instance(64.0),
            "ising": lambda: enumerate_ising(load_graph(grid4_graph)),
            "q1000": lambda: two_level_instance(1000.0),
            "lb64": lambda: build_from_grid(64, 2).expanded,
        }[model]()
        oracle = SamplingOracle(inst)
        betas = np.random.default_rng(28).uniform(inst.beta_min, inst.beta_max, 2806)
        assert (betas < oracle._floor).sum() == below
        at = oracle.sample_at(betas, np.random.default_rng(29))
        many = oracle.sample_many(betas[:260], 924, np.random.default_rng(30))

        def replay(b, size, rng):
            ones_b = np.vstack((np.ones_like(b), b))
            logits = np.column_stack((inst.log_counts, -inst.energies)) @ ones_b
            cum = np.cumsum(np.exp(logits - logits.max(axis=0)), axis=0)
            x = rng.random((b.size, size)) * cum[-1][:, None]
            return inst.energies[(cum[:-1, :, None] <= x).sum(axis=0)]

        np.testing.assert_array_equal(at, replay(betas, 1, np.random.default_rng(29))[:, 0])
        np.testing.assert_array_equal(many, replay(betas[:260], 924, np.random.default_rng(30)))


class TestKernelScratch:
    @pytest.mark.parametrize("support,rows,size", [
        (2, 2075, 60),  # a PPE call on the q=64 schedule
        (2, 260, 924),  # a PPE call at q=8, eps=0.1
        (23, 2806, None),  # a TPA wave (sample_at) on the 23-level Ising grid
    ], ids=["q64-ppe", "q8-tight-ppe", "23-level-wave"])
    def test_peak_above_the_output_stays_near_one_table(self, support, rows, size):
        # one table of CHUNK_ELEMENTS float64 entries plus a piece's temporaries;
        # a second table-sized temporary would push the peak past 2x
        if support == 2:
            inst = two_level_instance(64.0)
        else:
            inst = CountInstance([(h, 0.1 * h * (7 - h % 5)) for h in range(support)], 0.0, 2.0)
        oracle = SamplingOracle(inst)
        betas = np.linspace(inst.beta_min, inst.beta_max, rows)
        rng = np.random.default_rng(24)

        def draw():
            if size is None:
                return oracle.sample_at(betas, rng)
            return oracle.sample_many(betas, size, rng)

        draw()
        tracemalloc.start()
        try:
            out = draw()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.75 * CHUNK_ELEMENTS * 8

    @pytest.mark.parametrize("rows,size", [(2075, 60), (260, 924)], ids=["q64-ppe", "q8-tight-ppe"])
    def test_multi_slice_calls_hold_one_slice_of_uniforms(self, rows, size):
        # a piece's uniforms are released before the next piece's are drawn;
        # holding them on puts two piece-sized arrays at the peak (about 1.6 tables)
        oracle = SamplingOracle(two_level_instance(64.0))
        betas = np.linspace(oracle.instance.beta_min, oracle.instance.beta_max, rows)
        rng = np.random.default_rng(24)
        oracle.sample_many(betas, size, rng)
        tracemalloc.start()
        try:
            out = oracle.sample_many(betas, size, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.4 * CHUNK_ELEMENTS * 8

    @pytest.mark.parametrize("support", [1, 2, 23])
    def test_empty_requests_draw_nothing(self, support):
        inst = CountInstance([(h, 0.1 * h) for h in range(support)], 0.0, 2.0)
        oracle = SamplingOracle(inst)
        rng = np.random.default_rng(25)
        assert oracle.sample_many(np.empty(0), 5, rng).shape == (0, 5)
        assert oracle.sample_at(np.empty(0), rng).shape == (0,)
        assert oracle.sample_many(np.zeros(3), 0, rng).shape == (3, 0)
        assert oracle.sample_many(0.5, 0, rng).shape == (0,)
        assert oracle.call_count == 0
        assert rng.random() == np.random.default_rng(25).random()

    def test_one_level_vector_calls(self):
        oracle = SamplingOracle(singleton_instance(h=2.0))
        rng = np.random.default_rng(26)
        many = oracle.sample_many(np.linspace(0.0, 5.0, 4), 7, rng)
        at = oracle.sample_at(np.linspace(0.0, 5.0, 9), rng)
        assert many.shape == (4, 7) and (many == 2.0).all()
        assert at.shape == (9,) and (at == 2.0).all()
        assert oracle.call_count == 4 * 7 + 9


class TestCallCounting:
    def test_fresh_oracle_is_zero(self, two_level):
        assert SamplingOracle(two_level).call_count == 0

    def test_counts_every_draw(self, two_level):
        oracle = SamplingOracle(two_level)
        rng = np.random.default_rng(7)
        for _ in range(7):
            oracle.sample_many(0.1, 1, rng)
        assert oracle.call_count == 7
        oracle.sample_many(0.1, 10, rng)
        oracle.sample_at(np.array([0.0, 0.5, 1.0]), rng)
        assert oracle.call_count == 20

    def test_corrupted_draws_counted_once_each(self, two_level):
        oracle = SamplingOracle(two_level, Corruption(0.5, "uniform"))
        rng = np.random.default_rng(9)
        oracle.sample_many(0.0, 25, rng)
        assert oracle.call_count == 25

    def test_repr_shows_the_mode_and_the_count(self, two_level):
        assert repr(SamplingOracle(two_level)) == "SamplingOracle(exact, calls=0)"
        oracle = SamplingOracle(two_level, Corruption(0.25, "adversarial_max_h"))
        oracle.sample_many(0.0, 3, np.random.default_rng(9))
        assert repr(oracle) == "SamplingOracle(tv=0.25,adversarial_max_h, calls=3)"


class TestCorruption:
    def test_zero_budget_identical_stream(self, two_level):
        exact = SamplingOracle(two_level)
        wrapped = SamplingOracle(two_level, Corruption(0.0, "uniform"))
        a = exact.sample_many(0.9, 500, np.random.default_rng(10))
        b = wrapped.sample_many(0.9, 500, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)
        assert wrapped.corruption is None

    def test_budget_validation(self, two_level):
        with pytest.raises(ValueError):
            SamplingOracle(two_level, Corruption(1.0))
        with pytest.raises(ValueError):
            SamplingOracle(two_level, Corruption(-0.1))
        with pytest.raises(ValueError):
            Corruption(0.1, "bogus")

    @pytest.mark.statistical
    def test_uniform_corruption_tv_within_budget(self, two_level):
        # at a strongly skewed beta the exact oracle is nearly a point mass,
        # so a 0.5 uniform mixture moves TV by about 0.25; it must stay <= 0.5
        beta = 10.0
        budget = 0.5
        oracle = SamplingOracle(two_level, Corruption(budget, "uniform"))
        rng = np.random.default_rng(11)
        n = 200_000
        draws = oracle.sample_many(beta, n, rng)
        emp = np.array([(draws == h).mean() for h in two_level.energies])
        tv = 0.5 * np.abs(emp - exact_probs(two_level, beta)).sum()
        assert tv <= budget + 0.01

    @pytest.mark.statistical
    def test_uniform_corruption_matches_mixture_law(self, two_level):
        beta = math.log(3.0)
        budget = 0.3
        oracle = SamplingOracle(two_level, Corruption(budget, "uniform"))
        rng = np.random.default_rng(12)
        n = 200_000
        draws = oracle.sample_many(beta, n, rng)
        mix = (1 - budget) * exact_probs(two_level, beta) + budget * 0.5
        se = np.sqrt(mix * (1 - mix) / n)
        emp = np.array([(draws == h).mean() for h in two_level.energies])
        assert (np.abs(emp - mix) < 4 * se).all()

    @pytest.mark.parametrize("mode,target", [("adversarial_max_h", 1.0), ("adversarial_min_h", 0.0)])
    def test_degenerate_modes_push_mass_to_extreme(self, two_level, mode, target):
        budget = 0.4
        oracle = SamplingOracle(two_level, Corruption(budget, mode))
        rng = np.random.default_rng(13)
        n = 100_000
        draws = oracle.sample_many(0.0, n, rng)
        expected = (1 - budget) * 0.5 + budget
        assert abs((draws == target).mean() - expected) < 0.01

    def test_corrupted_vector_draw(self, two_level):
        # at these betas the exact oracle almost never emits h = 1, so about
        # half of every row is the adversarial point mass
        oracle = SamplingOracle(two_level, Corruption(0.5, "adversarial_max_h"))
        betas = np.array([20.0, 30.0, 40.0])
        draws = oracle.sample_many(betas, 4000, np.random.default_rng(14))
        assert draws.shape == (3, 4000)
        assert oracle.call_count == 3 * 4000
        share = (draws == two_level.energies[-1]).mean(axis=1)
        assert np.abs(share - 0.5).max() < 0.04

    @pytest.mark.statistical
    @pytest.mark.parametrize("mode,share", [("adversarial_max_h", 0.5), ("uniform", 0.25)])
    def test_sample_at_draws_the_corruption_law(self, two_level, mode, share):
        # at beta = 40 the exact oracle almost never emits h = 1, so the top
        # share is the budget times the mode's mass on the top energy
        oracle = SamplingOracle(two_level, Corruption(0.5, mode))
        n = 20_000
        draws = oracle.sample_at(np.full(n, 40.0), np.random.default_rng(15))
        emp = (draws == two_level.energies[-1]).mean()
        assert abs(emp - share) < 4 * math.sqrt(share * (1 - share) / n)

    def test_modes_registry(self):
        assert set(CORRUPTION_MODES) == {"uniform", "adversarial_max_h", "adversarial_min_h"}
