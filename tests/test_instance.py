"""Closed-form analytics checked against brute force and hand arithmetic."""

import json
import math
import pickle

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsratio.instance import (
    CountInstance,
    Schedule,
    energy_variance,
    load_instance,
    log_partition,
    log_ratio_true,
    logsumexp,
    mean_energy,
    save_instance,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)


def brute_force_ising_counts(n_vertices, edges):
    """Independent enumeration over all 2^n spin states, pure python."""
    counts = {}
    for state in range(2 ** n_vertices):
        h = sum(1 for u, v in edges if ((state >> u) ^ (state >> v)) & 1)
        counts[h] = counts.get(h, 0) + 1
    return counts


FOUR_CYCLE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
FOUR_CYCLE_COUNTS = brute_force_ising_counts(4, FOUR_CYCLE_EDGES)


@pytest.fixture
def four_cycle():
    return CountInstance.from_counts(FOUR_CYCLE_COUNTS.items(), 0.0, 2.0)


@pytest.fixture
def two_level():
    # unit counts at energies 0 and 1, window [0, ln 3]
    return CountInstance([(0.0, 0.0), (1.0, 0.0)], 0.0, math.log(3.0))


class TestConstruction:
    def test_four_cycle_brute_force_counts(self):
        assert FOUR_CYCLE_COUNTS == {0: 2, 2: 12, 4: 2}

    def test_support_sorted_and_merged(self):
        inst = CountInstance([(2.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 0.0, 1.0)
        assert inst.energies.tolist() == [1.0, 2.0]
        # duplicate level at h=2 merges to count 2
        assert inst.log_counts[1] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            CountInstance([], 0.0, 1.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            CountInstance([(1.0, 0.0)], 1.0, 1.0)
        with pytest.raises(ValueError):
            CountInstance([(1.0, 0.0)], 0.0, math.inf)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            CountInstance.from_counts([(1.0, 0.0)], 0.0, 1.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            CountInstance([(-1.0, 0.0)], 0.0, 1.0)

    @pytest.mark.parametrize("level", [
        (math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
    ], ids=["h-inf", "h-nan", "lc-inf", "lc-minus-inf", "lc-nan"])
    def test_rejects_non_finite_level(self, level):
        with pytest.raises(ValueError, match="must be finite"):
            CountInstance([(0.0, 0.0), level], 0.0, 1.0)

    def test_rejects_declared_n_below_top_energy(self):
        with pytest.raises(ValueError, match="below maximal energy"):
            CountInstance([(1.0, 0.0), (3.0, 0.0)], 0.0, 1.0, n=2.5)

    def test_default_n_is_max_energy(self, four_cycle):
        assert four_cycle.n == 4.0
        assert singleton_instance().n == 1.0

    def test_immutability(self, four_cycle):
        with pytest.raises(AttributeError):
            four_cycle.beta_min = -1.0
        with pytest.raises(ValueError):
            four_cycle.energies[0] = 7.0

    def test_repr(self, four_cycle):
        assert repr(four_cycle) == "CountInstance(3 levels, h in [0, 4], betas [0, 2], n=4)"

    def test_equality_with_another_type_is_not_implemented(self, four_cycle):
        assert four_cycle.__eq__(four_cycle.support()) is NotImplemented
        assert four_cycle != four_cycle.support()


class TestLogPartition:
    def test_singleton(self):
        inst = singleton_instance()
        assert log_partition(inst, 5.0) == pytest.approx(-5.0, abs=1e-12)

    def test_two_unit_counts_at_zero(self, two_level):
        assert log_partition(two_level, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_four_cycle_at_zero(self, four_cycle):
        assert log_partition(four_cycle, 0.0) == pytest.approx(math.log(16.0), abs=1e-12)

    def test_no_overflow_in_log_domain(self):
        inst = CountInstance([(1.0, 500.0), (2.0, 0.0)], 0.0, 1.0, n=2.0)
        assert np.isfinite(log_partition(inst, -600.0))
        assert np.isfinite(log_partition(inst, 600.0))

    def test_vectorized_matches_scalar(self, four_cycle):
        betas = np.linspace(-1.0, 3.0, 7)
        vec = log_partition(four_cycle, betas)
        scal = [log_partition(four_cycle, b) for b in betas]
        np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-15)


def assert_close_to_scipy(got, want):
    """Same type and shape, and within 1e-14 of max(1, |value|) everywhere."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()


class TestLogSumExp:
    """The plain log-sum-exp agrees with scipy's wherever each maximum is finite."""

    @pytest.mark.parametrize("log10_spread", [-3, -1, 0, 1, 3])
    def test_random_arrays_match_scipy(self, log10_spread):
        rng = np.random.default_rng(40 + log10_spread)
        for size in (1, 2, 7, 8, 9, 60, 129, 924):
            a = rng.normal(scale=10.0 ** log10_spread, size=size)
            assert_close_to_scipy(logsumexp(a), scipy.special.logsumexp(a))
        for shape in ((1, 1), (3, 2), (91, 2), (17, 23), (5, 64), (2, 300)):
            a = rng.normal(scale=10.0 ** log10_spread, size=shape)
            want = scipy.special.logsumexp(a, axis=-1)
            assert_close_to_scipy(logsumexp(a), want)
            assert_close_to_scipy(logsumexp(a.T.copy(), axis=0), want)

    def test_ties_at_the_maximum(self):
        rng = np.random.default_rng(41)
        a = np.round(rng.normal(scale=2.0, size=(40, 9)))
        a[:, :3] = 5.0
        a[7] = 2.5
        for arr in (a, a[0], a[7], np.full(12, -3.25)):
            assert_close_to_scipy(logsumexp(arr), scipy.special.logsumexp(arr, axis=-1))

    @pytest.mark.parametrize("a", [
        [4.5],
        [-np.inf, 3.0],
        [1e308, 1e308],
    ], ids=["single", "one-minus-inf", "overflow"])
    def test_edge_cases_match_scipy(self, a):
        a = np.array(a)
        assert_close_to_scipy(logsumexp(a), scipy.special.logsumexp(a))

    def test_minus_inf_entries_under_a_finite_maximum(self):
        # finite row maxima with -inf entries beside them: only the finite terms count
        a = np.array([[0.0, -np.inf, -np.inf], [-np.inf, 3.0, -np.inf], [0.5, -np.inf, -1.0]])
        assert logsumexp(a).tolist()[:2] == [0.0, 3.0]
        assert_close_to_scipy(logsumexp(a), scipy.special.logsumexp(a, axis=-1))
        assert_close_to_scipy(logsumexp(a.T.copy(), axis=0), scipy.special.logsumexp(a, axis=-1))

    def test_log_partition_matches_scipy_on_a_grid(self, four_cycle):
        betas = np.linspace(-2.0, 4.0, 33)
        logits = four_cycle.log_counts - np.multiply.outer(betas, four_cycle.energies)
        want = scipy.special.logsumexp(logits, axis=-1)
        assert_close_to_scipy(log_partition(four_cycle, betas), want)

    @pytest.mark.parametrize("levels", [1, 2, 3, 23, 300])
    def test_log_partition_matches_scipy_by_levels(self, levels):
        # log counts 0.5 h put every level in a tie at beta = 0.5
        rng = np.random.default_rng(44)
        h = np.arange(levels, dtype=float)
        for lc in (0.5 * h, rng.normal(scale=3.0, size=levels)):
            inst = CountInstance(zip(h, lc), 0.0, 2.0)
            betas = np.concatenate([np.linspace(-1.0, 3.0, 201), [0.5, 0.5]])
            logits = inst.log_counts - np.multiply.outer(betas, inst.energies)
            want = scipy.special.logsumexp(logits, axis=-1)
            assert_close_to_scipy(log_partition(inst, betas), want)
            assert log_partition(inst, 0.5) == pytest.approx(want[-1], rel=1e-14, abs=1e-14)
            assert log_partition(inst, np.empty(0)).shape == (0,)


class TestLogRatio:
    def test_singleton_exact(self):
        assert log_ratio_true(singleton_instance()) == pytest.approx(5.0, abs=1e-12)

    def test_two_level_closed_form(self, two_level):
        # Z(0) = 2, Z(ln 3) = 4/3
        assert log_ratio_true(two_level) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_four_cycle_brute_force(self, four_cycle):
        z_hi = math.log(2 + 12 * math.exp(-4.0) + 2 * math.exp(-8.0))
        assert log_ratio_true(four_cycle) == pytest.approx(math.log(16.0) - z_hi, abs=1e-12)

    @given(
        h=st.floats(0.0, 50.0),
        span=st.floats(1e-3, 20.0),
        b0=st.floats(-5.0, 5.0),
    )
    def test_singleton_support_is_span_times_energy(self, h, span, b0):
        inst = CountInstance([(h, 0.3)], b0, b0 + span)
        assert log_ratio_true(inst) == pytest.approx(span * h, rel=1e-12, abs=1e-12)


class TestMeanAndVariance:
    def test_singleton_mean_and_variance(self):
        inst = singleton_instance()
        for beta in (-3.0, 0.0, 7.0):
            assert mean_energy(inst, beta) == pytest.approx(1.0, abs=1e-14)
            assert energy_variance(inst, beta) == pytest.approx(0.0, abs=1e-14)

    def test_two_level_at_zero(self, two_level):
        assert mean_energy(two_level, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert energy_variance(two_level, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_four_cycle_uniform_mean(self, four_cycle):
        # each of 4 edges disagrees with probability 1/2 under uniform spins
        assert mean_energy(four_cycle, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_mean_in_energy_hull(self, four_cycle):
        for beta in np.linspace(-5, 5, 11):
            m = mean_energy(four_cycle, beta)
            assert 0.0 <= m <= 4.0

    def test_derivative_identities_finite_differences(self, four_cycle):
        # -z'(beta) = mean, z''(beta) = variance, checked at step 1e-4
        step = 1e-4
        for beta in (0.0, 0.7, 1.9):
            z = lambda b: log_partition(four_cycle, b)
            m_fd = -(z(beta + step) - z(beta - step)) / (2 * step)
            v_fd = (mean_energy(four_cycle, beta + step) - mean_energy(four_cycle, beta - step)) / (2 * step)
            assert mean_energy(four_cycle, beta) == pytest.approx(m_fd, rel=1e-6)
            assert energy_variance(four_cycle, beta) == pytest.approx(-v_fd, rel=1e-6)

    def test_strictly_decreasing_z(self, four_cycle):
        betas = np.linspace(-2, 4, 13)
        assert (mean_energy(four_cycle, betas) > 0).all()

    def test_any_shape_of_beta_matches_scalar_calls(self, four_cycle):
        betas = np.linspace(-2.0, 4.0, 24).reshape(2, 3, 4)
        for f in (log_partition, mean_energy, energy_variance):
            got = f(four_cycle, betas)
            assert got.shape == betas.shape
            want = [f(four_cycle, float(b)) for b in betas.flat]
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=1e-15)


@given(
    log_counts=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
    beta=st.floats(-20.0, 20.0),
    s=st.floats(1e-6, 10.0),
)
@settings(max_examples=200)
def test_convexity_of_log_partition(log_counts, beta, s):
    support = [(float(i), lc) for i, lc in enumerate(log_counts)]
    inst = CountInstance(support, 0.0, 1.0)
    bracket = log_partition(inst, beta - s) - 2 * log_partition(inst, beta) + log_partition(inst, beta + s)
    assert bracket >= -1e-12


class TestScheduleDelta:
    def test_singleton_linear_z_gives_zero(self):
        inst = singleton_instance()
        sched = Schedule([0.0, 1.2, 3.3, 5.0])
        delta, per = schedule_delta(inst, sched)
        assert delta == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(per, 0.0, atol=1e-12)

    def test_two_level_single_interval_closed_form(self, two_level):
        sched = Schedule([0.0, math.log(3.0)])
        delta, per = schedule_delta(two_level, sched)
        expected = math.log(2.0) - 2 * math.log(1 + 3 ** -0.5) + math.log(4.0 / 3.0)
        assert delta == pytest.approx(expected, abs=1e-12)
        assert per.size == 1

    def test_midpoint_refinement_never_increases_delta(self, four_cycle):
        rng = np.random.default_rng(7)
        betas = np.sort(rng.uniform(0.0, 2.0, size=4))
        betas = np.concatenate([[0.0], betas, [2.0]])
        sched = Schedule(np.unique(betas))
        delta, _ = schedule_delta(four_cycle, sched)
        mids = 0.5 * (sched.betas[:-1] + sched.betas[1:])
        refined = Schedule(np.sort(np.concatenate([sched.betas, mids])))
        delta_ref, _ = schedule_delta(four_cycle, refined)
        assert delta_ref <= delta + 1e-12

    def test_delta_terms_nonnegative(self, four_cycle):
        sched = Schedule(np.linspace(0.0, 2.0, 9))
        _, per = schedule_delta(four_cycle, sched)
        assert (per >= -1e-12).all()

    def test_endpoint_mismatch_rejected(self, four_cycle):
        with pytest.raises(ValueError):
            schedule_delta(four_cycle, Schedule([0.0, 1.0]))

    @pytest.mark.parametrize("support", [1, 2, 3, 23, 300])
    @pytest.mark.parametrize("levels", [2, 3, 23, 300])
    def test_one_call_matches_the_two_call_form_bit_for_bit(self, support, levels):
        # schedule_delta evaluates ends and midpoints in one log_partition call;
        # each row's log-sum-exp is its own, so the split halves are the same bits
        inst = CountInstance([(h, 0.1 * h * (7 - h % 5)) for h in range(support)], 0.0, 2.0)
        betas = np.linspace(0.0, 2.0, levels)
        z_ends = log_partition(inst, betas)
        z_mids = log_partition(inst, 0.5 * (betas[:-1] + betas[1:]))
        expected = z_ends[:-1] - 2.0 * z_mids + z_ends[1:]
        delta, per = schedule_delta(inst, Schedule(betas))
        assert [x.hex() for x in per.tolist()] == [x.hex() for x in expected.tolist()]
        assert delta.hex() == float(expected.sum()).hex()


class TestPairedMoments:
    """E W = Z(mid)/Z(lo) and E V = Z(mid)/Z(hi) by ``log_partition``, ln Vrel by ``schedule_delta``."""

    def test_singleton_interval(self):
        inst = singleton_instance(beta_max=2.0)
        z_lo, z_mid, z_hi = log_partition(inst, np.array([0.0, 1.0, 2.0]))
        assert z_mid - z_lo == pytest.approx(-1.0, abs=1e-12)
        assert z_mid - z_hi == pytest.approx(1.0, abs=1e-12)
        delta, _ = schedule_delta(inst, Schedule([0.0, 2.0]))
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_schedule_delta(self, two_level):
        # Vrel(W) = E[W^2] / E[W]^2 by hand: W = 3^(-h/2), with h = 0 or 1 equally likely at beta 0
        e_w, e_w2 = (1 + 3 ** -0.5) / 2, (1 + 1 / 3) / 2
        delta, _ = schedule_delta(two_level, Schedule([0.0, math.log(3.0)]))
        assert delta == pytest.approx(math.log(e_w2 / e_w ** 2), abs=1e-12)

    def test_telescoping_ratio(self, four_cycle):
        # E W and E V summed over the Gibbs weights match the closed forms, whose ratio telescopes
        lo, hi = 0.3, 1.1
        h, lc = four_cycle.energies, four_cycle.log_counts
        z_lo, z_mid, z_hi = log_partition(four_cycle, np.array([lo, 0.5 * (lo + hi), hi]))
        e_w = np.sum(np.exp(lc - lo * h - z_lo - 0.5 * (hi - lo) * h))
        e_v = np.sum(np.exp(lc - hi * h - z_hi + 0.5 * (hi - lo) * h))
        assert math.log(e_w) == pytest.approx(z_mid - z_lo, abs=1e-12)
        assert math.log(e_v) == pytest.approx(z_mid - z_hi, abs=1e-12)
        assert math.log(e_v / e_w) == pytest.approx(z_lo - z_hi, abs=1e-12)


class TestSchedule:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Schedule([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            Schedule([0.5])

    def test_ell(self):
        assert Schedule([0.0, 1.0, 2.0]).ell == 2

    def test_repr(self):
        assert repr(Schedule([0.0, 0.5, 2.5])) == "Schedule(ell=2, [0 .. 2.5])"

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_level(self, bad):
        with pytest.raises(ValueError, match="levels must be finite"):
            Schedule([0.0, 1.0, bad])

    def test_immutability(self):
        sched = Schedule([0.0, 1.0])
        with pytest.raises(AttributeError, match="immutable"):
            sched.betas = np.array([0.0, 2.0])
        with pytest.raises(ValueError):
            sched.betas[0] = 0.5

    def test_pickle_round_trip_stays_read_only(self):
        # a pickled read-only array comes back writeable; __reduce__ rebuilds instead
        sched = Schedule([0.0, 0.25, 1.0 / 3.0, 2.0])
        back = pickle.loads(pickle.dumps(sched))
        assert np.array_equal(back.betas, sched.betas)
        assert not back.betas.flags.writeable


class TestFixtureBuilders:
    @pytest.mark.parametrize("log_count_high", [None, 300.0])
    @pytest.mark.parametrize("q", [1e-6, 0.5, 8.0, 64.0, 256.0])
    def test_two_level_hits_target_exactly(self, q, log_count_high):
        inst = two_level_instance(q, log_count_high=log_count_high)
        assert inst.has_zero_level
        assert log_ratio_true(inst) == pytest.approx(q, abs=1e-9)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
    def test_two_level_rejects_non_positive_target(self, q):
        with pytest.raises(ValueError, match="target_q must be positive"):
            two_level_instance(q)

    def test_two_level_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            two_level_instance(8.0, log_count_high=2.0)

    def test_singleton_defaults(self):
        inst = singleton_instance()
        assert inst.support() == [(1.0, 0.0)]


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, four_cycle):
        path = tmp_path / "inst.json"
        save_instance(four_cycle, path)
        loaded = load_instance(path)
        assert loaded == four_cycle

    def test_json_fields(self, tmp_path, two_level):
        path = tmp_path / "inst.json"
        save_instance(two_level, path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "beta_min", "beta_max", "support"}
        assert data["support"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_round_trip_awkward_floats(self, tmp_path):
        inst = CountInstance(
            [(1.0 + 1.0 / 3.0, math.log(7.0) * 3.1), (3.0, -0.1 + 1e-17)],
            0.1 / 3.0,
            2.0 / 0.7,
        )
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst
