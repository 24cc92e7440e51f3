"""TPA step/run/schedule distribution and accounting checks (pinned seeds)."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from gibbsratio.claims import pooled_count_checks, reference_process_checks, step_survival_checks
from gibbsratio.instance import CountInstance, singleton_instance
from gibbsratio.oracle import SamplingOracle
from gibbsratio.tpa import (
    generate_schedule,
    ppp_reference,
    thin_to_schedule,
    tpa_multi,
    tpa_step,
)

ALPHA = 1e-3


@pytest.fixture
def unit_oracle():
    # singleton energy 1 on [0, 5]: step increments are Exponential(1)
    return SamplingOracle(singleton_instance(beta_max=5.0))


@pytest.fixture
def two_level_oracle():
    return SamplingOracle(CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0)))


class ZeroRng:
    """Generator stub whose uniforms are all exactly 0.0."""

    def random(self, shape):
        return np.zeros(shape)


class TestTpaStep:
    def test_monotone(self, two_level_oracle):
        rng = np.random.default_rng(0)
        for beta in (-1.0, 0.0, 2.5):
            assert (tpa_step(two_level_oracle, np.full(200, beta), rng) >= beta).all()

    def test_zero_energy_jumps_to_infinity(self):
        oracle = SamplingOracle(CountInstance([(0.0, 0.0)], 0.0, 1.0))
        rng = np.random.default_rng(1)
        assert (tpa_step(oracle, np.full(3, 0.3), rng) == np.inf).all()

    def test_unit_uniform_steps_nowhere_but_to_infinity_at_zero_energy(self):
        # uniforms of 0.0 give u = 1 and ln u = 0: the 0/0 of a zero energy
        # must still jump to +inf, and a positive energy must not move
        betas = np.array([0.0, 0.3, 1.0])
        zero = SamplingOracle(CountInstance([(0.0, 0.0)], 0.0, 1.0))
        assert (tpa_step(zero, betas, ZeroRng()) == np.inf).all()
        unit = SamplingOracle(CountInstance([(1.0, 0.0)], 0.0, 1.0))
        np.testing.assert_array_equal(tpa_step(unit, betas, ZeroRng()), betas)

    @pytest.mark.statistical
    def test_unit_energy_increment_is_exponential(self, unit_oracle):
        rng = np.random.default_rng(2)
        n = 100_000
        steps = tpa_step(unit_oracle, np.zeros(n), rng)
        assert abs(steps.mean() - 1.0) < 0.02
        _, p_value = stats.kstest(steps, "expon")
        assert p_value > ALPHA

    @pytest.mark.statistical
    def test_scale_identity_on_singleton(self):
        # (step - beta) * h is Exponential(1) for any fixed positive energy
        oracle = SamplingOracle(singleton_instance(h=3.0))
        rng = np.random.default_rng(3)
        scaled = 3.0 * (tpa_step(oracle, np.ones(50_000), rng) - 1.0)
        _, p_value = stats.kstest(scaled, "expon")
        assert p_value > ALPHA

    @pytest.mark.statistical
    def test_survival_law_matches_partition_ratio(self):
        checks = step_survival_checks(np.random.default_rng(4))
        assert all(check.passed for check in checks), checks


class TestTpaRun:
    # a single run is a one-run pool
    def test_call_accounting(self, unit_oracle):
        rng = np.random.default_rng(5)
        for _ in range(50):
            before = unit_oracle.call_count
            points = tpa_multi(unit_oracle, 1, rng).points
            assert unit_oracle.call_count - before == points.size + 1

    def test_points_inside_window(self, unit_oracle):
        rng = np.random.default_rng(6)
        points = np.concatenate([tpa_multi(unit_oracle, 1, rng).points for _ in range(200)])
        assert (points >= 0.0).all() and (points <= 5.0).all()

    @pytest.mark.statistical
    def test_poisson_count_mean(self, unit_oracle):
        rng = np.random.default_rng(7)
        counts = np.array([tpa_multi(unit_oracle, 1, rng).points.size for _ in range(2000)])
        assert abs(counts.mean() - 5.0) < 0.1

    def test_vanishing_window_is_almost_always_empty(self):
        oracle = SamplingOracle(singleton_instance(beta_max=1e-9))
        rng = np.random.default_rng(8)
        counts = [tpa_multi(oracle, 1, rng).points.size for _ in range(500)]
        assert sum(counts) == 0


class TestTpaMulti:
    def test_rejects_bad_k(self, unit_oracle):
        with pytest.raises(ValueError):
            tpa_multi(unit_oracle, 0, np.random.default_rng(9))

    def test_call_accounting_pooled(self, unit_oracle):
        rng = np.random.default_rng(10)
        for k in (1, 3, 10):
            before = unit_oracle.call_count
            out = tpa_multi(unit_oracle, k, rng)
            assert unit_oracle.call_count - before == out.points.size + k

    def test_pool_is_ascending(self, two_level_oracle):
        # runs interleave across waves, so the concatenated pool is out of order
        rng = np.random.default_rng(12)
        for k in (1, 7, 200):
            points = tpa_multi(two_level_oracle, k, rng).points
            assert (np.diff(points) >= 0).all()

    @pytest.mark.statistical
    def test_pooled_count_mean(self):
        checks = pooled_count_checks(np.random.default_rng(11))
        assert all(check.passed for check in checks), checks

    @pytest.mark.statistical
    @pytest.mark.parametrize("k,pools", [(25, 60), (1, 1500)])
    def test_log_partition_images_match_reference_process(self, k, pools):
        # Algorithm equivalence: z(beta_min) - z(points) is a rate-k PPP on [0, q];
        # k = 1 checks a single run against the same exact law
        checks = reference_process_checks(np.random.default_rng(13), k, pools)
        assert all(check.passed for check in checks), checks


def _tpa_call(entry, oracle, k=3, d=2, offset=1):
    """``entry`` called with the given counts and a fresh seeded generator; its points."""
    rng = np.random.default_rng(0)
    if entry == "tpa_multi":
        return tpa_multi(oracle, k, rng).points.tolist()
    if entry == "generate_schedule":
        return generate_schedule(oracle, k, d, rng)[0].to_list()
    return thin_to_schedule(np.linspace(0.5, 4.5, 5), d, offset, 0.0, 5.0).to_list()


K = "k must be an integer of at least 1"
D = "d must be an integer in [1, 2^63)"
OFFSET = "offset must be an integer of at least 1"
# one row per refused count: the entry point, the count it is given, and its message
COUNT_ROWS = [
    *(pytest.param(entry, {"k": k}, K, id=f"{entry}-k-{k}")
      for entry in ("tpa_multi", "generate_schedule") for k in (0, 2.5, 8.0, True)),
    *(pytest.param(entry, {"d": d}, D, id=f"{entry}-d-{'2^63' if d == 2 ** 63 else d}")
      for entry in ("generate_schedule", "thin_to_schedule") for d in (0, 2.5, 8.0, 2 ** 63, True)),
    *(pytest.param("thin_to_schedule", {"offset": offset}, OFFSET, id=f"offset-{offset}")
      for offset in (0, 2.5, 8.0, True)),
]


class TestCountRules:
    @pytest.mark.parametrize("entry,counts,message", COUNT_ROWS)
    def test_refused_before_any_draw(self, unit_oracle, entry, counts, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _tpa_call(entry, unit_oracle, **counts)
        assert unit_oracle.call_count == 0

    @pytest.mark.parametrize("entry", ["tpa_multi", "generate_schedule", "thin_to_schedule"])
    def test_numpy_integers_pass(self, unit_oracle, entry):
        counts = dict(k=np.int64(3), d=np.int64(2), offset=np.int64(1))
        assert _tpa_call(entry, unit_oracle, **counts) == _tpa_call(entry, unit_oracle)

    def test_numpy_stride_below_2_63_runs_as_the_python_int(self, unit_oracle):
        # d + 1 = 2^63 would wrap in int64 and leave no offset to draw
        top = _tpa_call("generate_schedule", unit_oracle, d=2 ** 63 - 1)
        assert _tpa_call("generate_schedule", unit_oracle, d=np.int64(2 ** 63 - 1)) == top


class TestPppReference:
    def test_validation(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            ppp_reference(0.0, 1, rng)
        with pytest.raises(ValueError):
            ppp_reference(1.0, 0, rng)

    @pytest.mark.statistical
    @pytest.mark.parametrize("k,q", [(1, 5.0), (10, 5.0)])
    def test_count_mean(self, k, q):
        rng = np.random.default_rng(15)
        counts = np.array([ppp_reference(q, k, rng).size for _ in range(2000)])
        se = math.sqrt(k * q / 2000)
        assert abs(counts.mean() - k * q) < 3 * se

    def test_points_inside_interval(self):
        rng = np.random.default_rng(16)
        pts = ppp_reference(3.0, 4, rng)
        assert (pts >= 0).all() and (pts <= 3.0).all()


class TestScheduleGeneration:
    def test_empty_points_give_two_level_schedule(self):
        oracle = SamplingOracle(singleton_instance(beta_max=1e-9))
        sched, count = generate_schedule(oracle, 1, 4, np.random.default_rng(17))
        assert sched.to_list() == [0.0, 1e-9]
        assert count == 0

    def test_rejects_d_below_one(self, unit_oracle):
        with pytest.raises(ValueError, match=r"^d must be an integer in \[1, 2\^63\)$"):
            generate_schedule(unit_oracle, 1, 0, np.random.default_rng(0))
        assert unit_oracle.call_count == 0

    def test_endpoints_always_pinned(self, unit_oracle):
        rng = np.random.default_rng(18)
        for _ in range(100):
            sched, _ = generate_schedule(unit_oracle, 4, 4, rng)
            assert sched.betas[0] == 0.0 and sched.betas[-1] == 5.0
            assert (np.diff(sched.betas) > 0).all()

    def test_d_one_keeps_every_point(self, unit_oracle):
        rng_a = np.random.default_rng(19)
        rng_b = np.random.default_rng(19)
        sched, count = generate_schedule(unit_oracle, 6, 1, rng_a)
        out = tpa_multi(unit_oracle, 6, rng_b)
        assert count == out.points.size
        assert sched.ell == out.points.size + 1
        np.testing.assert_allclose(np.sort(out.points), sched.betas[1:-1])

    def test_thinning_offset_and_stride(self):
        points = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5])
        sched = thin_to_schedule(points, d=3, offset=2, beta_min=0.0, beta_max=7.0)
        # sorted points indexed 1..7; offset 2 stride 3 keeps indices 2 and 5
        assert sched.to_list() == [0.0, 1.5, 4.5, 7.0]
        with pytest.raises(ValueError):
            thin_to_schedule(points, d=3, offset=0, beta_min=0.0, beta_max=7.0)
        with pytest.raises(ValueError):
            thin_to_schedule(points, d=3, offset=4, beta_min=0.0, beta_max=7.0)

    @pytest.mark.parametrize("points", [
        pytest.param([0.5, 0.5, 1.0], id="one-tie"),
        pytest.param([0, 0, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 1.5, 1.5, 1.5, 1.5, 2, 2], id="runs-above-d"),
        pytest.param([0.25, 0.75], id="strides-keeping-none"),
        pytest.param([], id="no-points"),
    ])
    def test_ties_merge_as_np_unique_merges_them(self, points):
        # tied points (a TPA step below the float resolution of beta) merge
        # into one level.  Over d = 1..5 the runs of five ties outlast d, and
        # d or offset above the point count selects no point at all.
        points = np.array(points, dtype=float)
        for d in range(1, 6):
            for offset in range(1, d + 1):
                kept = np.unique(points[offset - 1 :: d])
                ref = [0.0, *kept[(kept > 0.0) & (kept < 2.0)], 2.0]
                assert thin_to_schedule(points, d, offset, 0.0, 2.0).to_list() == ref
        assert thin_to_schedule(np.array([0.5, 0.5, 1.0]), 1, 1, 0.0, 2.0).to_list() == [0.0, 0.5, 1.0, 2.0]

    def test_points_out_of_order_raise(self):
        with pytest.raises(ValueError, match="ascending"):
            thin_to_schedule(np.array([2.5, 1.5, 0.5]), d=3, offset=1, beta_min=0.0, beta_max=3.0)

    @pytest.mark.statistical
    def test_expected_schedule_length(self):
        # k = m d with m = 2, d = 4 on q = 8: E[ell] = m q + 1 = 17
        oracle = SamplingOracle(singleton_instance(beta_max=8.0))
        rng = np.random.default_rng(20)
        lengths = np.array([generate_schedule(oracle, 8, 4, rng)[0].ell for _ in range(2000)])
        se = lengths.std(ddof=1) / math.sqrt(lengths.size)
        assert abs(lengths.mean() - 17.0) < 3 * se

    def test_offset_drawn_once_even_when_empty(self):
        # stream position after generation == position after TPA draws + one integer
        oracle_a = SamplingOracle(singleton_instance(beta_max=1e-9))
        oracle_b = SamplingOracle(singleton_instance(beta_max=1e-9))
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        generate_schedule(oracle_a, 3, 4, rng_a)
        tpa_multi(oracle_b, 3, rng_b)
        rng_b.integers(1, 5)
        assert rng_a.random() == rng_b.random()
