"""Product-form adversarial family: expansions, tilts, and closed-form caps."""

import dataclasses
import math

import numpy as np
import pytest

import gibbsratio
from gibbsratio.claims import verify_lemma10
from gibbsratio.instance import energy_variance, log_partition, log_ratio_true, mean_energy
from gibbsratio.lowerbound import (
    MIN_C2,
    build,
    build_from_grid,
    curvature_sup,
    perturb,
    sensitivity,
    _expand_log_coefficients,
)


class TestExpansion:
    def test_single_factor(self):
        # (1 + u) has coefficients (1, 1)
        log_coef = _expand_log_coefficients(np.array([1.0]))
        np.testing.assert_allclose(np.exp(log_coef), [1.0, 1.0], atol=1e-15)

    def test_two_factors_hand_expansion(self):
        # (1 + u)(1/2 + u) = 1/2 + (3/2) u + u^2
        log_coef = _expand_log_coefficients(np.array([1.0, 0.5]))
        np.testing.assert_allclose(np.exp(log_coef), [0.5, 1.5, 1.0], rtol=1e-14)

    def test_grid_energies(self):
        lb = build_from_grid(2, 2)
        assert lb.expanded.energies.tolist() == [1.0, 1.5, 2.0]
        np.testing.assert_allclose(np.exp(lb.expanded.log_counts), [0.5, 1.5, 1.0], rtol=1e-14)

    @pytest.mark.parametrize("n_factors,m_grid", [(2, 1), (8, 1), (16, 2), (33, 3)])
    def test_product_form_identity(self, n_factors, m_grid):
        lb = build_from_grid(n_factors, m_grid)
        betas = np.linspace(-3.0, lb.beta_max + 3.0, 20)
        expanded = log_partition(lb.expanded, betas)
        product = lb.log_partition_product_form(betas)
        np.testing.assert_allclose(expanded, product, rtol=0, atol=1e-9)

    def test_window(self):
        lb = build_from_grid(16, 2)
        assert lb.eta == 2.0 ** -15
        assert lb.beta_max == pytest.approx(2 * 15 * math.log(2.0))
        assert lb.expanded.beta_min == 0.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_from_grid(1, 2)  # eta = 1 collapses the window
        with pytest.raises(ValueError):
            build_from_grid(4, 0)

    @pytest.mark.parametrize("n_factors,m_grid,knob", [
        (0, 2, "n_factors"), (2.5, 2, "n_factors"), (8.0, 2, "n_factors"), (8.5, 2, "n_factors"),
        (4, 0, "m_grid"), (4, 2.5, "m_grid"), (4, 8.0, "m_grid"),
    ])
    def test_refuses_a_size_that_is_not_a_count(self, monkeypatch, n_factors, m_grid, knob):
        monkeypatch.setattr(gibbsratio.lowerbound, "np", None)  # an array built would raise
        with pytest.raises(ValueError, match=f"^{knob} must be an integer of at least 1$"):
            build_from_grid(n_factors, m_grid)

    def test_numpy_sizes_pass(self):
        lb = build_from_grid(np.int64(8), np.int64(2))
        assert lb.expanded == build_from_grid(8, 2).expanded

    @pytest.mark.parametrize("n_factors,m_grid", [(1024, 2), (10 ** 9, 2), (16, 2 ** 52 + 1)],
                             ids=["N-1024", "N-1e9", "m-2^52+1"])
    def test_refuses_sizes_over_its_caps_before_any_array(self, n_factors, m_grid):
        # a_N = 2^(1-N) is 0.0 from N = 1,076, and N = 1e9 would ask for 7.45 GiB
        with pytest.raises(ValueError, match="at most 1023 and m_grid at most 2"):
            build_from_grid(n_factors, m_grid)

    def test_largest_sizes_it_takes(self):
        lb = build_from_grid(1023, 1)
        assert lb.a_coeffs[-1] == np.finfo(float).tiny  # the least normal float
        assert np.isfinite(lb.expanded.log_counts).all()
        energies = build_from_grid(16, 2 ** 52).expanded.energies
        assert energies.size == 17  # no two grid energies merged


class TestBuildFromTarget:
    def test_sizing_formulas(self):
        q_bar, n = 85.0, 12
        lb = build(q_bar, n, c2=1.8)
        assert lb.n_factors == math.ceil(math.sqrt(2.0 * q_bar / math.log(2.0)))
        assert lb.m_grid == math.ceil(1.8 * math.sqrt(q_bar) / n)
        assert lb.n_factors == 16 and lb.m_grid == 2

    def test_log_ratio_near_target(self):
        # q* = (ln 2 / 2) N^2 up to O(mN)
        lb = build(85.0, 12)
        n, m = lb.n_factors, lb.m_grid
        q = log_ratio_true(lb.expanded)
        assert abs(q - math.log(2.0) / 2.0 * n ** 2) <= 3.0 * m * n

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build(85.0, 12, c2=MIN_C2)
        with pytest.raises(ValueError):
            build(-1.0, 12)
        with pytest.raises(ValueError):
            build(400.0, 2, c2=1.8)  # N = 35 > m(n-1)

    def test_rejects_an_energy_range_below_two(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            build(85.0, 1)

    @pytest.mark.parametrize("q_bar,n,c2", [
        (1e308, 12, 1.8), (math.inf, 12, 1.8), (85.0, 12, math.inf), (85.0, 12, 1e307),
        (4e5, 2 ** 62, 1.8),
    ], ids=["q-1e308", "q-inf", "c2-inf", "c2-1e307", "N-over-the-cap"])
    def test_sizes_over_the_caps_are_refused_before_rounding(self, q_bar, n, c2):
        with pytest.raises(ValueError, match="over the caps 1023 and 2"):
            build(q_bar, n, c2)

    @pytest.mark.parametrize("q_bar,n,c2", [
        (math.nan, 12, 1.8), (85.0, 12, math.nan), (85.0, 10 ** 400, 1.8),
    ], ids=["q-nan", "c2-nan", "n-huge"])
    def test_rejects_nan_and_huge_knobs(self, q_bar, n, c2):
        with pytest.raises(ValueError, match="q_bar must be positive|c2 must exceed|below 2"):
            build(q_bar, n, c2)


class TestPerturbation:
    def test_zero_tilt_is_identity(self):
        lb = build_from_grid(8, 1)
        assert perturb(lb, 0.0, +1) == lb.expanded

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("nu", [0.01, 0.1, 1.0])
    def test_shifted_partition_identity(self, sign, nu):
        lb = build_from_grid(8, 1)
        tilted = perturb(lb, nu, sign)
        betas = np.linspace(-1.0, lb.beta_max + 1.0, 10)
        want = log_partition(lb.expanded, betas - sign * nu)
        got = log_partition(tilted, betas)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_validation(self):
        lb = build_from_grid(4, 1)
        with pytest.raises(ValueError):
            perturb(lb, -0.5, +1)
        with pytest.raises(ValueError):
            perturb(lb, 0.5, 2)

    def test_tilt_moves_ratio_into_detection_window(self):
        # with nu = 3 eps / rho and eps < rho^2/(10 kappa), the tilted
        # log ratios land between 2 eps and 4 eps away from the original
        lb = build_from_grid(16, 2)
        rho = sensitivity(lb)
        kappa = curvature_sup(lb).kappa_ell_bound
        eps = 1.0
        assert eps < rho ** 2 / (10.0 * kappa)
        nu = 3.0 * eps / rho
        q0 = log_ratio_true(lb.expanded)
        for sign in (+1, -1):
            q_tilted = log_ratio_true(perturb(lb, nu, sign))
            assert 2.0 * eps < abs(q_tilted - q0) < 4.0 * eps


class TestSensitivity:
    def test_matches_mean_energy_difference(self):
        for n_factors, m_grid in [(4, 1), (16, 2), (24, 3)]:
            lb = build_from_grid(n_factors, m_grid)
            inst = lb.expanded
            diff = abs(mean_energy(inst, inst.beta_max) - mean_energy(inst, 0.0))
            assert sensitivity(lb) == pytest.approx(diff, abs=1e-9)

    def test_floor(self):
        lb = build_from_grid(16, 2)
        assert sensitivity(lb) > (16 / 2 - 2) / 2


class TestCurvature:
    def test_two_factor_hand_value(self):
        # at ell = 1: a_1/a_1 + a_2/a_2 = 2, so the cap is 2/m^2
        lb = build_from_grid(2, 1)
        assert curvature_sup(lb).kappa_ell_bound == pytest.approx(2.0)

    def test_one_factor_rejected(self):
        # build_from_grid refuses one factor, so narrow a built instance
        lb = dataclasses.replace(build_from_grid(2, 1), n_factors=1)
        with pytest.raises(ValueError, match="at least two factors"):
            curvature_sup(lb)

    def test_cap_hierarchy(self):
        lb = build_from_grid(16, 2)
        report = curvature_sup(lb)
        assert report.numeric_sup <= report.kappa_ell_bound
        assert report.kappa_ell_bound < 4.0 / lb.m_grid ** 2

    def test_numeric_sup_dominates_window_samples(self):
        lb = build_from_grid(12, 2)
        report = curvature_sup(lb)
        betas = np.linspace(0.0, lb.beta_max, 301)
        assert (energy_variance(lb.expanded, betas) <= report.numeric_sup + 1e-12).all()

    def test_property_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_factors = int(rng.integers(2, 40))
            m_grid = int(rng.integers(1, 5))
            report = curvature_sup(build_from_grid(n_factors, m_grid))
            assert report.numeric_sup <= report.kappa_ell_bound <= 4.0 / m_grid ** 2 + 1e-12


LEMMA10_CHECKS = (
    "log-ratio sandwich",
    "sensitivity floor",
    "curvature cap",
    "sensitivity^2/curvature floor",
)


def lemma10_checks(n_factors, m_grid):
    """The four Lemma 10 checks of one instance, keyed by inequality."""
    report = verify_lemma10(build_from_grid(n_factors, m_grid))
    prefix = f"N={n_factors} m={m_grid} "
    checks = {check.name.removeprefix(prefix): check for check in report.checks}
    assert tuple(checks) == LEMMA10_CHECKS
    return report, checks


class TestLemma10Report:
    @pytest.mark.parametrize("n_factors,m_grid", [(16, 2), (32, 3)])
    def test_all_inequalities_pass(self, n_factors, m_grid):
        report, checks = lemma10_checks(n_factors, m_grid)
        assert checks["log-ratio sandwich"].passed
        assert checks["sensitivity floor"].passed
        assert checks["curvature cap"].passed
        assert checks["sensitivity^2/curvature floor"].passed
        assert report.passed
        ratio = checks["sensitivity^2/curvature floor"].observed
        assert ratio > (n_factors / 4 - 1) ** 2

    def test_sandwich_sweep(self):
        # strict inequalities across the whole small-instance range
        for n_factors in range(8, 65):
            for m_grid in (1, 2, 4):
                _, checks = lemma10_checks(n_factors, m_grid)
                assert checks["log-ratio sandwich"].passed, (n_factors, m_grid)
                assert checks["sensitivity^2/curvature floor"].passed, (n_factors, m_grid)

    def test_report_lines_render(self):
        report = verify_lemma10(build_from_grid(16, 2))
        text = "\n".join(report.lines())
        assert text.startswith("suite lemma10 N=16 m=2: PASS")
        assert "PASS" in text and "FAIL" not in text
