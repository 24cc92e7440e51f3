"""Adversarial product-form instances with high sensitivity-to-curvature ratio.

The partition function is Z(beta) = e^{-beta} prod_k (a_k + e^{-beta/m}); the
product expands into positive counts on the energy grid {1 + j/m}, so these
are ordinary count instances whose exact analytics everything else can check.
The interesting quantities are the sensitivity rho = |d/dnu of the log ratio
under a +/- nu energy tilt at nu = 0| and the curvature cap kappa = sup z'';
with the geometric choice a_k = 2^{1-k} the ratio rho^2/kappa grows
quadratically in the number of factors while the log ratio stays near
(ln 2 / 2) N^2, which is what makes the family adversarial for any estimator
reading only oracle draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import minimize_on_grid
from .instance import CountInstance, check_count, energy_variance

__all__ = [
    "LowerBoundInstance",
    "CurvatureReport",
    "MIN_C2",
    "build",
    "build_from_grid",
    "perturb",
    "sensitivity",
    "curvature_sup",
]

MIN_C2 = math.sqrt(2.0 / math.log(2.0))  # smallest admissible grid coefficient


@dataclass(frozen=True)
class LowerBoundInstance:
    """Product-form instance together with its expanded count form."""

    n_factors: int          # number of product terms (N)
    m_grid: int             # energy grid resolution: support lives on 1 + j/m
    a_coeffs: np.ndarray    # descending positive factor offsets a_1 >= ... >= a_N
    eta: float              # e^{-beta_max/m}; the u-value at the cold end
    beta_max: float
    expanded: CountInstance

    def log_partition_product_form(self, beta) -> np.ndarray | float:
        """-beta + sum_k ln(a_k + e^{-beta/m}), bypassing the expansion."""
        beta_arr = np.asarray(beta, dtype=float)
        u = np.exp(-beta_arr / self.m_grid)
        val = -beta_arr + np.log(self.a_coeffs + u[..., None]).sum(axis=-1)
        return float(val) if np.ndim(beta) == 0 else val


def _expand_log_coefficients(a_coeffs: np.ndarray) -> np.ndarray:
    """Log-domain coefficients of prod_k (a_k + u) as a polynomial in u.

    Iterated products with pairwise logaddexp; all terms are positive so the
    expansion is cancellation-free and stable for thousands of factors.
    """
    log_coef = np.array([0.0])
    for a_k in a_coeffs:
        shifted_const = log_coef + math.log(a_k)
        log_coef = np.concatenate(
            [
                [shifted_const[0]],
                np.logaddexp(shifted_const[1:], log_coef[:-1]),
                [log_coef[-1]],
            ]
        )
    return log_coef


def build_from_grid(n_factors: int, m_grid: int) -> LowerBoundInstance:
    """Geometric family a_k = 2^{1-k}, eta = 2^{1-N} on the grid 1 + j/m.

    N and m are integer counts.  N is at most 1,023, so every a_k is a normal
    float (a_1023 = 2^-1022 is the least), and m at most 2^52, so the grid
    energies 1 + j/m are distinct floats; all four conditions are checked
    before any array is built.
    """
    n_factors = check_count("n_factors", n_factors)
    m_grid = check_count("m_grid", m_grid)
    if n_factors > 1023 or m_grid > 2 ** 52:
        raise ValueError("n_factors must be at most 1023 and m_grid at most 2^52")
    a = 2.0 ** (1.0 - np.arange(1, n_factors + 1, dtype=float))
    eta = 2.0 ** (1.0 - n_factors)
    beta_max = m_grid * (n_factors - 1) * math.log(2.0)
    if beta_max <= 0:
        raise ValueError("n_factors must be at least 2 for a positive window")
    log_coef = _expand_log_coefficients(a)
    energies = 1.0 + np.arange(n_factors + 1) / m_grid
    expanded = CountInstance(
        list(zip(energies.tolist(), log_coef.tolist())),
        beta_min=0.0,
        beta_max=beta_max,
    )
    a.flags.writeable = False
    return LowerBoundInstance(
        n_factors=n_factors,
        m_grid=m_grid,
        a_coeffs=a,
        eta=eta,
        beta_max=beta_max,
        expanded=expanded,
    )


def build(q_bar: float, n: int, c2: float = 1.8) -> LowerBoundInstance:
    """Size the family for a target log ratio near q_bar on an [1, n] range.

    N = ceil(sqrt(2 q_bar / ln 2)) factors and grid m = ceil(c2 sqrt(q_bar)/n);
    c2 must exceed sqrt(2/ln 2) so the grid has room for all N energies.
    Sizes over ``build_from_grid``'s caps, infinite ones included, are
    refused before they are rounded.
    """
    if not q_bar > 0:
        raise ValueError("q_bar must be positive")
    if not c2 > MIN_C2:
        raise ValueError(f"c2 must exceed {MIN_C2:.6f}")
    if not 2 <= n < 2 ** 63:
        raise ValueError("n must be at least 2 and below 2^63")
    n_factors = math.sqrt(2.0 * q_bar / math.log(2.0))
    m_grid = c2 * math.sqrt(q_bar) / n
    if not (n_factors <= 1023 and m_grid <= 2 ** 52):
        raise ValueError(f"N = {n_factors:.4g}, m = {m_grid:.4g}: over the caps 1023 and 2^52")
    n_factors, m_grid = math.ceil(n_factors), math.ceil(m_grid)
    if n_factors > m_grid * (n - 1):
        raise ValueError(
            f"grid capacity exceeded: N={n_factors} > m(n-1)={m_grid * (n - 1)}; increase n"
        )
    return build_from_grid(n_factors, m_grid)


def perturb(lb: LowerBoundInstance, nu: float, sign: int = +1) -> CountInstance:
    """Energy-tilted twin with counts c_h e^{+/- h nu}.

    Tilting by +nu shifts the whole partition function: Z_+(beta) = Z(beta-nu),
    and symmetrically Z_-(beta) = Z(beta+nu), so the twins' log ratios probe
    the window derivative of the original instance.
    """
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    inst = lb.expanded
    support = [
        (h, lc + sign * nu * h) for h, lc in zip(inst.energies, inst.log_counts)
    ]
    return CountInstance(support, inst.beta_min, inst.beta_max, n=inst.n)


def sensitivity(lb: LowerBoundInstance) -> float:
    """|d/dbeta of [z(beta) - z(beta_max + beta)] at 0|, in closed form.

    Equals (1/m) sum_k [1/(a_k+1) - eta/(a_k+eta)], and coincides with the
    difference of mean energies at the window ends.
    """
    a = lb.a_coeffs
    return float(np.sum(1.0 / (a + 1.0) - lb.eta / (a + lb.eta)) / lb.m_grid)


@dataclass(frozen=True)
class CurvatureReport:
    numeric_sup: float      # grid + bounded-Brent maximum of z'' over the window
    kappa_ell_bound: float  # analytic cap max_ell (1/m^2)[sum a_ell/a_k + sum a_k/a_{ell+1}]


def _kappa_ell_values(lb: LowerBoundInstance) -> np.ndarray:
    a = lb.a_coeffs
    n = a.size
    values = np.empty(n - 1)
    for ell in range(1, n):
        head = np.sum(a[ell - 1] / a[:ell])
        tail = np.sum(a[ell:] / a[ell])
        values[ell - 1] = (head + tail) / lb.m_grid ** 2
    return values


def curvature_sup(lb: LowerBoundInstance) -> CurvatureReport:
    """Numeric supremum of z'' on the window plus the analytic per-level cap.

    z'' is a sum of single-bump terms peaking at u = a_k, so the supremum over
    all beta is attained for u in [a_N, a_1]; ``minimize_on_grid`` scans a
    512-point grid of that window for -z'' and refines the best cell.
    """
    if lb.n_factors < 2:
        raise ValueError("curvature cap needs at least two factors")
    a = lb.a_coeffs
    beta_lo = -lb.m_grid * math.log(a[0])
    beta_hi = -lb.m_grid * math.log(a[-1])
    _, neg_sup = minimize_on_grid(
        lambda b: -energy_variance(lb.expanded, b),
        np.linspace(beta_lo, beta_hi, 512),
        xatol=1e-10 * max(1.0, beta_hi),
    )
    return CurvatureReport(
        numeric_sup=-neg_sup, kappa_ell_bound=float(_kappa_ell_values(lb).max())
    )
