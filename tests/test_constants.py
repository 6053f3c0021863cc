"""Scalar constants against independent oracles.

The eta constants are redone here as plain midpoint Riemann sums after the
substitution v = r^{N - gamma} (which removes the origin singularity from the
radial measure), so any systematic error in the closed forms or the
Gauss-Legendre rule would show up as a mismatch at the 1e-6 level.  The
tighter cross-checks against adaptive QUADPACK quadrature (scipy) are at the
end of the file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from singheat import (
    ConstantsReport,
    ParameterError,
    Params,
    SeriesRangeError,
    beta_gamma,
    ck_fixed_point,
    ck_lower_bound,
    ck_sequence,
    constants_report,
    eta0,
    eta1,
    eta2,
    eta_k,
    eta_k_limit,
    gamma_star,
    lambda_gamma,
    mittag_leffler,
)
from singheat.constants import eta1_by_quadrature, sphere_area

TRIPLES = [(0.5, 0.3, 1), (0.3, 0.5, 2), (0.7, 0.8, 3), (0.5, 0.0, 1)]


def riemann_radial(f, n_dim, gamma, r_min=0.0, r_max=20.0, n=1_000_000):
    """Midpoint sum of f(r) r^{N-1-gamma} dr over (r_min, r_max).

    For gamma > 0 the substitution v = r^{N-gamma} flattens the power measure
    (dv = (N-gamma) r^{N-1-gamma} dr), removing the origin singularity; for
    gamma = 0 the integrand is already smooth and a plain midpoint rule in r
    is both simpler and more accurate.
    """
    if gamma == 0.0:
        dr = (r_max - r_min) / n
        r = r_min + (np.arange(n) + 0.5) * dr
        return float(np.sum(f(r) * r ** (n_dim - 1)) * dr)
    p = n_dim - gamma
    v_lo = r_min**p
    dv = (r_max**p - v_lo) / n
    v = v_lo + (np.arange(n) + 0.5) * dv
    r = v ** (1.0 / p)
    return float(np.sum(f(r)) * dv / p)


# ---------------------------------------------------------------------------
# Basic special functions
# ---------------------------------------------------------------------------

def test_sphere_area_low_dimensions():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


# ---------------------------------------------------------------------------
# eta0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,g,n", TRIPLES)
def test_eta0_against_riemann_oracle(q, g, n):
    s = g / (1 - q)
    val = riemann_radial(lambda r: np.exp(-0.25 * r * r) * (1 + r) ** (-s), n, 0.0)
    oracle = (4 * math.pi) ** (-0.5 * n) * sphere_area(n) * val
    assert eta0(q, g, n) == pytest.approx(oracle, abs=1e-6)


def test_eta0_is_one_at_gamma_zero():
    for q, n in [(0.5, 1), (0.2, 2), (0.9, 3)]:
        assert eta0(q, 0.0, n) == 1.0


def test_eta0_strictly_decreasing_in_gamma():
    vals = [eta0(0.5, g, 2) for g in (0.0, 0.3, 0.8, 1.3, 1.9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 1 for v in vals)


# ---------------------------------------------------------------------------
# eta1
# ---------------------------------------------------------------------------

def test_eta1_closed_form_matches_quadrature():
    for g, n in [(0.0, 1), (0.5, 1), (0.3, 2), (1.5, 2), (2.5, 3)]:
        assert eta1(g, n) == pytest.approx(eta1_by_quadrature(g, n), rel=1e-10)


def test_eta1_half_in_1d_reference_value():
    # Gamma(1/4) / sqrt(2 pi), an easy hand computation from the closed form
    ref = math.gamma(0.25) / math.sqrt(2 * math.pi)
    assert eta1(0.5, 1) == pytest.approx(ref, rel=1e-14)
    assert ref == pytest.approx(1.4464090846320774, rel=1e-15)


def test_eta1_gamma_zero_is_kernel_mass():
    for n in (1, 2, 3):
        assert eta1(0.0, n) == pytest.approx(1.0, rel=1e-13)


def test_eta1_riemann_oracle():
    val = riemann_radial(lambda r: np.exp(-0.25 * r * r), 1, 0.5)
    # the substitution absorbs r^{-gamma}, so integrate against n_dim - gamma
    oracle = (4 * math.pi) ** (-0.5) * sphere_area(1) * val
    assert eta1(0.5, 1) == pytest.approx(oracle, abs=1e-6)


def test_eta1_domain():
    with pytest.raises(ParameterError):
        eta1(1.0, 1)
    with pytest.raises(ParameterError):
        eta1(2.0, 2)
    eta1(1.5, 2)  # 2d admits gamma up to (but excluding) 2


# ---------------------------------------------------------------------------
# eta2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,n", [(0.3, 1), (0.5, 2), (1.2, 3)])
def test_eta2_against_riemann_oracle(g, n):
    gauss = lambda r: np.exp(-0.25 * r * r)
    inner = riemann_radial(gauss, n, g, r_max=1.0)
    outer = riemann_radial(gauss, n, 0.0, r_min=1.0)
    oracle = (4 * math.pi) ** (-0.5 * n) * 2 ** (0.5 * g) * sphere_area(n) * (inner + outer)
    assert eta2(g, n) == pytest.approx(oracle, abs=2e-6)


def test_eta2_dominates_eta1_scaled():
    # the two bounds agree in structure: eta2 >= (4 pi)^{-N/2} 2^{g/2}-weighted
    # pieces, and both blow up as gamma -> N
    for n in (1, 2, 3):
        assert eta2(0.9 * min(2, n), n) > eta2(0.1, n) > 0


# ---------------------------------------------------------------------------
# beta_gamma
# ---------------------------------------------------------------------------

@given(
    q=st.floats(0.05, 0.95),
    g=st.floats(0.0, 1.9),
)
@settings(max_examples=60, deadline=None)
def test_beta_matches_gamma_function_form(q, g):
    a = (2 - g) / (2 * (1 - q))
    b = 1 - g / 2
    closed = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    assert beta_gamma(q, g) == pytest.approx(closed, rel=1e-9)


def test_beta_gamma_zero_reference():
    # B(1/(1-q), 1) = (1-q); a one-line check of the normalization
    for q in (0.25, 0.5, 0.75):
        assert beta_gamma(q, 0.0) == pytest.approx(1 - q, rel=1e-12)


# ---------------------------------------------------------------------------
# eta_k ladder
# ---------------------------------------------------------------------------

def test_eta_k_decreasing_and_limits():
    q, g, n = 0.5, 0.3, 1
    vals = [eta_k(q, g, n, k) for k in (1, 2, 3, 5, 10, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    lim = eta_k_limit(q, g, n)
    assert vals[-1] > lim
    assert vals[-1] == pytest.approx(lim, abs=1e-8)


def test_eta_k_riemann_oracle():
    q, g, n, k = 0.3, 0.5, 2, 3
    s = g * q * (1 - q**k) / (1 - q)
    val = riemann_radial(
        lambda r: np.exp(-0.25 * r * r) * (1 + r) ** (-g) * (2 + r) ** (-s), n, 0.0
    )
    oracle = (4 * math.pi) ** (-0.5 * n) * sphere_area(n) * val
    assert eta_k(q, g, n, k) == pytest.approx(oracle, abs=1e-6)


def test_eta_k_rejects_bad_k():
    with pytest.raises(ParameterError):
        eta_k(0.5, 0.3, 1, 0)


# ---------------------------------------------------------------------------
# lambda and the threshold
# ---------------------------------------------------------------------------

def test_lambda_structure():
    q, g, n = 0.5, 0.3, 1
    expect = q * beta_gamma(q, g) * eta2(g, n) / ((1 - q) * eta0(q, g, n))
    assert lambda_gamma(q, g, n) == pytest.approx(expect, rel=1e-14)


def test_lambda_is_continuous_in_gamma():
    for g in (0.05, 0.19, 0.5):
        a = lambda_gamma(0.5, g, 1)
        b = lambda_gamma(0.5, g + 1e-6, 1)
        assert abs(a - b) < 1e-3


def test_gamma_star_reference_point():
    res = gamma_star(0.5, 1)
    assert res.crossed
    assert res.value == pytest.approx(0.19463641541477306, abs=1e-6)
    assert abs(res.lambda_value - 1.0) <= 1e-8
    # below the threshold the factor is a strict contraction
    assert lambda_gamma(0.5, res.value * 0.5, 1) < 1.0
    assert lambda_gamma(0.5, res.value * 1.5, 1) > 1.0


def test_gamma_star_monotone_in_q_near_half():
    # larger q strengthens the source term, so the crossing comes earlier
    a = gamma_star(0.4, 1)
    b = gamma_star(0.6, 1)
    assert a.crossed and b.crossed
    assert b.value < a.value


def test_gamma_star_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        gamma_star(0.0, 1)
    with pytest.raises(ParameterError):
        gamma_star(0.5, 5)


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

def test_mittag_leffler_classical_values():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert mittag_leffler(2.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
    assert mittag_leffler(2.0, 4.0) == pytest.approx(math.cosh(2.0), rel=1e-13)
    assert mittag_leffler(0.7, 0.0) == 1.0


def test_mittag_leffler_half_order_identity():
    # E_{1/2}(z) = exp(z^2) (1 + erf(z)) for z >= 0
    for z in (0.5, 1.0, math.sqrt(math.pi)):
        ref = math.exp(z * z) * (1 + math.erf(z))
        assert mittag_leffler(0.5, z) == pytest.approx(ref, rel=1e-12)


def test_mittag_leffler_alternating_argument():
    # E_1(-1) = 1/e through a sign-alternating series
    assert mittag_leffler(1.0, -1.0) == pytest.approx(1 / math.e, rel=1e-12)


def test_mittag_leffler_range_guards():
    with pytest.raises(SeriesRangeError):
        mittag_leffler(1.0, 51.0)
    with pytest.raises(SeriesRangeError):
        mittag_leffler(0.1, 40.0)  # term peak overflows doubles
    with pytest.raises(ParameterError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ParameterError):
        mittag_leffler(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Coefficient recursion
# ---------------------------------------------------------------------------

def test_ck_sequence_converges_to_fixed_point():
    out = ck_sequence(0.5, 0.3, 1, c1=2.0, k_max=60)
    fp = ck_fixed_point(0.5, 0.3, 1)
    assert out["fixed_point"] == pytest.approx(fp, rel=1e-15)
    assert out["final_gap"] < 1e-12
    assert out["sequence"][-1] == pytest.approx(fp, abs=1e-12)


def test_ck_fixed_point_value_at_gamma_zero():
    # eta0 = 1 there, so the fixed point is (1-q)^{1/(1-q)}
    assert ck_fixed_point(0.5, 0.0, 1) == pytest.approx(0.25, rel=1e-12)


@given(c1=st.floats(1.0, 50.0), k=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_ck_lower_bound_holds_for_unit_or_larger_seeds(c1, k):
    q, g, n = 0.5, 0.3, 1
    seq = ck_sequence(q, g, n, c1=c1, k_max=max(k + 1, 2))["sequence"]
    bound = ck_lower_bound(q, g, n, c1=c1, k=k)
    assert seq[k - 1] >= bound * (1 - 1e-12)


def test_ck_gamma_zero_transient():
    # closed-loop anchor: at gamma = 0, q = 1/2 the recursion from c1 = 1/4
    # reads C_{k+1} = C_k^{1/2} / (2 (1 - 2^{-(k+1)})), explicitly computable
    seq = ck_sequence(0.5, 0.0, 1, c1=0.25, k_max=6)["sequence"]
    manual = [0.25]
    for k in range(1, 6):
        manual.append(math.sqrt(manual[-1]) * 0.5 / (1 - 0.5 ** (k + 1)))
    np.testing.assert_allclose(seq, manual, rtol=1e-9)


def test_ck_sequence_rejects_bad_seeds():
    with pytest.raises(ParameterError):
        ck_sequence(0.5, 0.3, 1, c1=0.0, k_max=5)
    with pytest.raises(ParameterError):
        ck_sequence(0.5, 0.3, 1, c1=float("inf"), k_max=5)
    with pytest.raises(ParameterError):
        ck_sequence(0.5, 0.3, 1, c1=1.0, k_max=1)


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------

def test_constants_report_round_trip():
    rep = constants_report(Params(q=0.5, gamma=0.3, n_dim=1))
    d = rep.as_json_dict()
    assert set(d) == {"q", "gamma", "n_dim", "eta0", "eta1", "eta2", "beta", "lambda", "tolerance"}
    assert d["lambda"] == pytest.approx(lambda_gamma(0.5, 0.3, 1), rel=1e-15)
    assert d["tolerance"] == 1e-10


def test_constants_report_validates_ranges():
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    with pytest.raises(ParameterError):
        ConstantsReport(params=p, eta0=0.9, eta1=1.0, eta2=1.0, beta=0.5, lam=0.5)
    with pytest.raises(ParameterError):
        ConstantsReport(params=p, eta0=1.0, eta1=-1.0, eta2=1.0, beta=0.5, lam=0.5)


# ---------------------------------------------------------------------------
# Cross-checks against adaptive quadrature
# ---------------------------------------------------------------------------
#
# The references rebuild the QUADPACK construction the constants once used:
# the radial integral split at r = 1, the Gaussian tail cut at r = 44, and
# the algebraic weight for a singular power on [0, 1].  They ask for relative
# accuracy only (epsabs = 0).  An absolute tolerance of 1e-12 stops QUADPACK
# early once the integral itself is that small (eta_k_limit at q = 0.99,
# gamma = 1.999, N = 3 is about 5e-66 and came out 7e-8 off) and left 1.8e-13
# in eta2 at gamma = 1e-6, N = 2.

_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=400)

# q near 1 drives the decay exponent gamma/(1-q) of eta0 up to 2000
QUAD_QS = (0.01, 0.3, 0.5, 0.9, 0.99, 0.999)
QUAD_PAIRS = [(g, n) for n in (1, 2, 3) for g in (1e-6, 0.3, 1.0, 1.999) if g < min(2, n)]


def quad_pieces(smooth, n_dim, power=0.0):
    """Integrals of smooth(r) r^{N-1-power} dr over (0, 1) and (1, 44)."""
    expo = n_dim - 1.0 - power
    if expo < 0.0:
        head, _ = integrate.quad(smooth, 0.0, 1.0, weight="alg", wvar=(expo, 0.0), **_QUAD)
    else:
        head, _ = integrate.quad(lambda r: smooth(r) * r**expo, 0.0, 1.0, **_QUAD)
    tail, _ = integrate.quad(lambda r: smooth(r) * r**expo, 1.0, 44.0, **_QUAD)
    return head, tail


def quad_radial(smooth, n_dim):
    """(4 pi)^{-N/2} omega_{N-1} * integral over (0, 44) of smooth(r) r^{N-1} dr."""
    return (4 * math.pi) ** (-0.5 * n_dim) * sphere_area(n_dim) * sum(quad_pieces(smooth, n_dim))


def quad_eta_k(gamma, second_exp, n_dim):
    return quad_radial(
        lambda r: math.exp(-0.25 * r * r) * (1 + r) ** (-gamma) * (2 + r) ** (-second_exp), n_dim
    )


@pytest.mark.parametrize("q", QUAD_QS)
def test_eta0_matches_adaptive_quadrature(q):
    for g, n in QUAD_PAIRS:
        s = g / (1 - q)
        ref = quad_radial(lambda r: math.exp(-0.25 * r * r) * (1 + r) ** (-s), n)
        assert eta0(q, g, n) == pytest.approx(ref, rel=1e-12, abs=0), (g, n)


@pytest.mark.parametrize("q", QUAD_QS)
def test_eta_k_matches_adaptive_quadrature(q):
    for g, n in QUAD_PAIRS:
        for k in (1, 3):
            ref = quad_eta_k(g, g * q * (1 - q**k) / (1 - q), n)
            assert eta_k(q, g, n, k) == pytest.approx(ref, rel=1e-12, abs=0), (g, n, k)
        # 2^{-gamma q/(1-q)} makes it subnormal or 0.0 at q = 0.999, gamma >= 1
        ref = quad_eta_k(g, g * q / (1 - q), n)
        assert eta_k_limit(q, g, n) == pytest.approx(ref, rel=1e-12, abs=0), (g, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eta2_matches_adaptive_quadrature(n):
    for g in (0.0, 1e-6, 0.3, 0.999999, 1.5, 1.999, 2.5, 2.999):
        if g >= n:
            continue
        gauss = lambda r: math.exp(-0.25 * r * r)
        inner, _ = quad_pieces(gauss, n, g)
        _, outer = quad_pieces(gauss, n)
        ref = (4 * math.pi) ** (-0.5 * n) * 2 ** (0.5 * g) * sphere_area(n) * (inner + outer)
        assert eta2(g, n) == pytest.approx(ref, rel=1e-13, abs=0), (g, n)


def test_beta_matches_algebraic_weight_quadrature():
    for q in (0.05, 0.3, 0.5, 0.9, 0.99, 0.999):
        for g in (0.0, 1e-6, 0.5, 1.0, 1.999):
            a = (2 - g) / (2 * (1 - q))
            b = 1 - g / 2
            ref, _ = integrate.quad(
                lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1, b - 1),
                epsabs=1e-12, epsrel=1e-12, limit=400,
            )
            assert beta_gamma(q, g) == pytest.approx(ref, rel=1e-10, abs=0), (q, g)


def test_eta2_lower_incomplete_gamma_series():
    # gamma(1/2, 1/4) = sqrt(pi) erf(1/2) and gamma(1, 1/4) = 1 - e^{-1/4}
    from singheat.constants import _lower_gamma_quarter

    assert _lower_gamma_quarter(0.5) == pytest.approx(math.sqrt(math.pi) * math.erf(0.5), rel=1e-15)
    assert _lower_gamma_quarter(1.0) == pytest.approx(-math.expm1(-0.25), rel=1e-15)


def test_constants_raise_parameter_errors():
    for args in [(0.0, 0.3), (1.0, 0.3), (0.5, -0.1), (0.5, 2.0)]:
        with pytest.raises(ParameterError):
            beta_gamma(*args)
    for args in [(-0.1, 1), (1.0, 1), (3.0, 3), (0.3, 4), (0.3, 0)]:
        with pytest.raises(ParameterError):
            eta2(*args)
    for args in [(0.0, 0.3, 1), (1.0, 0.3, 1), (0.5, 1.0, 1), (0.5, 2.0, 3), (0.5, -0.1, 2), (0.5, 0.3, 4)]:
        with pytest.raises(ParameterError):
            eta0(*args)
        with pytest.raises(ParameterError):
            eta_k(*args, 2)
        with pytest.raises(ParameterError):
            eta_k_limit(*args)
