"""Scalar constants of the problem, special functions, and the threshold.

Everything here is a radial integral against the Gaussian exp(-r^2/4) or a
Beta-type integral on (0, 1).  Those with a singular radial power have
closed forms: beta_gamma is a Beta function, eta1 a Gamma function, and eta2
splits at r = 1 into lower incomplete Gamma functions at 1/4 (a short series
in pure ``math``).  The smooth moments eta0 and eta_k use one fixed
composite 32-point Gauss-Legendre rule on [0, 44], where exp(-r^2/4) is
below 1e-210 at the right end; its panels near 0 shrink like 1/(1+s) for an
integrand decaying like (1+r)^{-s}.  Adaptive QUADPACK quadrature (scipy)
is used only by eta1_by_quadrature, the cross-check of eta1, and is imported
there.

Naming: eta0 drives the sub-solution coefficient, eta1 the smoothing rate of
the weighted semigroup, eta2 the crude weighted-kernel bound, beta_gamma the
time integral of the Duhamel singularity, and lambda_gamma the contraction
factor q * beta * eta2 / ((1-q) * eta0) whose first crossing of 1 in gamma is
gamma_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SeriesRangeError
from .fields import Params, gauss_legendre

__all__ = [
    "ConstantsReport",
    "GammaStarResult",
    "beta_gamma",
    "ck_fixed_point",
    "ck_lower_bound",
    "ck_sequence",
    "constants_report",
    "eta0",
    "eta1",
    "eta1_by_quadrature",
    "eta2",
    "eta_k",
    "eta_k_limit",
    "gamma_star",
    "lambda_gamma",
    "mittag_leffler",
    "sphere_area",
]

_TAIL_RADIUS = 44.0  # exp(-44^2/4) ~ 1e-210, far below every tolerance used
_GL_NODES, _GL_WEIGHTS = gauss_legendre(32)
# panel edges past r = 1; the panels below 1 depend on the integrand's decay
_OUTER_EDGES = np.array([1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, _TAIL_RADIUS])


def sphere_area(n_dim: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n_dim < 1:
        raise ParameterError(f"dimension must be >= 1 (got {n_dim})")
    return 2.0 * math.pi ** (0.5 * n_dim) / math.gamma(0.5 * n_dim)


def _radial_integral(smooth, n_dim: int, decay: float) -> float:
    """Integral over (0, 44) of smooth(r) * r^{n_dim - 1} dr.

    ``smooth`` takes an array of radii, is analytic on [0, 44] and decays
    like (1 + r)^{-decay} near 0 before the Gaussian takes over.  The rule is
    composite 32-point Gauss-Legendre: panels [0, c], [c, 2c], [2c, 4c], ...
    up to 1 with c = 1/(1 + decay), then the fixed _OUTER_EDGES.
    """
    c = 1.0 / (1.0 + decay)
    head = c * 2.0 ** np.arange(math.ceil(-math.log2(c)))
    edges = np.concatenate(([0.0], head[head < 1.0], _OUTER_EDGES))
    half = 0.5 * np.diff(edges)
    r = (edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    return float(np.sum((half[:, None] * _GL_WEIGHTS) * smooth(r) * r ** (n_dim - 1)))


def _lower_gamma_quarter(a: float) -> float:
    """Lower incomplete Gamma function: integral over (0, 1/4) of e^{-u} u^{a-1} du.

    Series x^a e^{-x} sum_k x^k / (a (a+1) ... (a+k)) at x = 1/4; its terms
    are positive and shrink at least fourfold, so about 20 of them settle it.
    """
    term = total = 1.0 / a
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= 0.25 / (a + k)
        total += term
    return 0.25**a * math.exp(-0.25) * total


@lru_cache(maxsize=4096)
def eta0(q: float, gamma: float, n_dim: int) -> float:
    """Normalized Gaussian moment of (1 + |z|)^{-gamma/(1-q)}.

    (4 pi)^{-N/2} * integral over R^N of exp(-|z|^2/4) (1+|z|)^{-gamma/(1-q)} dz.
    Lies in (0, 1], equals 1 exactly at gamma = 0, and is strictly decreasing
    in gamma.
    """
    Params(q=q, gamma=gamma, n_dim=n_dim)  # validates the full triple
    if gamma == 0.0:
        return 1.0  # the integrand reduces to the unit-mass Gaussian
    s = gamma / (1.0 - q)
    val = _radial_integral(lambda r: np.exp(-0.25 * r * r) * (1.0 + r) ** (-s), n_dim, s)
    out = (4.0 * math.pi) ** (-0.5 * n_dim) * sphere_area(n_dim) * val
    if not (0.0 < out <= 1.0 + 1e-10):
        raise ParameterError(f"eta0 left its admissible range (0, 1]: {out}")
    return min(out, 1.0)


@lru_cache(maxsize=4096)
def eta1(gamma: float, n_dim: int) -> float:
    """Weighted-kernel smoothing constant, in closed form.

    (4 pi)^{-N/2} * integral of exp(-|y|^2/4) |y|^{-gamma} dy over R^N.  The
    substitution u = r^2/4 turns the radial integral into a Gamma integral,
    giving (4 pi)^{-N/2} * omega_{N-1} * 2^{N-1-gamma} * Gamma((N-gamma)/2)
    with omega_{N-1} the unit-sphere area.  Diverges as gamma -> N, hence the
    domain restriction gamma < N.
    """
    if n_dim not in (1, 2, 3):
        raise ParameterError(f"n_dim must be one of 1, 2, 3 (got {n_dim})")
    if not (0.0 <= gamma < n_dim):
        raise ParameterError(
            f"eta1 requires 0 <= gamma < n_dim: the defining integral diverges "
            f"at gamma = {gamma}, n_dim = {n_dim}"
        )
    return (
        (4.0 * math.pi) ** (-0.5 * n_dim)
        * sphere_area(n_dim)
        * 2.0 ** (n_dim - 1.0 - gamma)
        * math.gamma(0.5 * (n_dim - gamma))
    )


def eta1_by_quadrature(gamma: float, n_dim: int) -> float:
    """Same constant through adaptive QUADPACK quadrature; cross-check of eta1.

    The radial power r^{N-1-gamma} goes into the algebraic weight on [0, 1]
    when it is negative.
    """
    from scipy import integrate

    if n_dim not in (1, 2, 3):
        raise ParameterError(f"n_dim must be one of 1, 2, 3 (got {n_dim})")
    if not (0.0 <= gamma < n_dim):
        raise ParameterError(f"requires 0 <= gamma < n_dim (got {gamma}, {n_dim})")
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
    expo = n_dim - 1.0 - gamma
    gauss = lambda r: math.exp(-0.25 * r * r)
    if expo < 0.0:
        head, _ = integrate.quad(gauss, 0.0, 1.0, weight="alg", wvar=(expo, 0.0), **opts)
    else:
        head, _ = integrate.quad(lambda r: gauss(r) * r**expo, 0.0, 1.0, **opts)
    tail, _ = integrate.quad(lambda r: gauss(r) * r**expo, 1.0, _TAIL_RADIUS, **opts)
    return (4.0 * math.pi) ** (-0.5 * n_dim) * sphere_area(n_dim) * (head + tail)


@lru_cache(maxsize=4096)
def eta2(gamma: float, n_dim: int) -> float:
    """Crude bound constant for the weighted kernel.

    (4 pi)^{-N/2} * 2^{gamma/2} * [ integral_{|y|>=1} exp(-|y|^2/4) dy
    + integral_{|y|<=1} exp(-|y|^2/4) |y|^{-gamma} dy ].  Finite for
    gamma < N and divergent as gamma -> N through the inner piece.  With
    u = r^2/4 the radial pieces are 2^{N-gamma-1} g((N-gamma)/2) inside and
    2^{N-1} (Gamma(N/2) - g(N/2)) outside, g(a) being the lower incomplete
    Gamma function at 1/4.
    """
    if n_dim not in (1, 2, 3):
        raise ParameterError(f"n_dim must be one of 1, 2, 3 (got {n_dim})")
    if not (0.0 <= gamma < n_dim):
        raise ParameterError(
            f"eta2 requires 0 <= gamma < n_dim: the inner integral diverges "
            f"at gamma = {gamma}, n_dim = {n_dim}"
        )
    inner = 2.0 ** (n_dim - gamma - 1.0) * _lower_gamma_quarter(0.5 * (n_dim - gamma))
    outer = 2.0 ** (n_dim - 1.0) * (math.gamma(0.5 * n_dim) - _lower_gamma_quarter(0.5 * n_dim))
    return (
        (4.0 * math.pi) ** (-0.5 * n_dim)
        * 2.0 ** (0.5 * gamma)
        * sphere_area(n_dim)
        * (inner + outer)
    )


@lru_cache(maxsize=4096)
def beta_gamma(q: float, gamma: float) -> float:
    """Time-singularity integral of one Duhamel sweep.

    Integral over (0, 1) of sigma^{(2-gamma)/(2(1-q)) - 1} (1-sigma)^{-gamma/2}
    d sigma, which is the Beta function B((2-gamma)/(2(1-q)), 1 - gamma/2).
    Evaluated by its Gamma closed form, B(a, b) = Gamma(a) Gamma(b) /
    Gamma(a + b), through log-Gamma once Gamma(a + b) would overflow.
    """
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1) (got {q})")
    if not (0.0 <= gamma < 2.0):
        raise ParameterError(f"gamma must lie in [0, 2) (got {gamma})")
    a = (2.0 - gamma) / (2.0 * (1.0 - q))
    b = 1.0 - 0.5 * gamma
    if a + b < 171.0:  # math.gamma overflows past 171.6
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@lru_cache(maxsize=4096)
def eta_k(q: float, gamma: float, n_dim: int, k: int) -> float:
    """k-th iterated-bound moment.

    (4 pi)^{-N/2} * integral of exp(-|w|^2/4) (1+|w|)^{-gamma}
    (2+|w|)^{-gamma q (1 - q^k)/(1 - q)} dw.  Decreasing in k; the k -> inf
    limit replaces the second exponent by gamma q/(1-q) (see eta_k_limit).
    """
    Params(q=q, gamma=gamma, n_dim=n_dim)
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be an integer >= 1 (got {k})")
    s = gamma * q * (1.0 - q**k) / (1.0 - q)
    return _eta_k_integral(gamma, s, n_dim)


def eta_k_limit(q: float, gamma: float, n_dim: int) -> float:
    """Limit of eta_k as k -> inf (second exponent gamma q / (1-q))."""
    Params(q=q, gamma=gamma, n_dim=n_dim)
    return _eta_k_integral(gamma, gamma * q / (1.0 - q), n_dim)


def _eta_k_integral(gamma: float, second_exp: float, n_dim: int) -> float:
    val = _radial_integral(
        lambda r: np.exp(-0.25 * r * r)
        * (1.0 + r) ** (-gamma)
        * (2.0 + r) ** (-second_exp),
        n_dim,
        gamma + second_exp,
    )
    return (4.0 * math.pi) ** (-0.5 * n_dim) * sphere_area(n_dim) * val


def lambda_gamma(q: float, gamma: float, n_dim: int) -> float:
    """Contraction factor q * beta_gamma * eta2 / ((1 - q) * eta0)."""
    Params(q=q, gamma=gamma, n_dim=n_dim)
    return (
        q
        * beta_gamma(q, gamma)
        * eta2(gamma, n_dim)
        / ((1.0 - q) * eta0(q, gamma, n_dim))
    )


class GammaStarResult(NamedTuple):
    """First crossing of lambda_gamma through 1 on (0, min(2, N))."""

    value: float
    crossed: bool
    lambda_value: float


_GAMMA_STAR_SCAN = 256  # interior points of gamma_star's uniform scan
_GAMMA_STAR_TOL = 1e-8  # |lambda - 1| at which gamma_star's bisection stops


def gamma_star(q: float, n_dim: int) -> GammaStarResult:
    """Smallest gamma with lambda_gamma(q, gamma, n_dim) = 1.

    A uniform scan of _GAMMA_STAR_SCAN points over (0, gamma_sup) locates
    the first sign change of lambda - 1 without assuming monotonicity, and
    bisection refines it until |lambda - 1| <= _GAMMA_STAR_TOL.  If the scan
    sees no crossing the result carries the right endpoint and crossed=False.
    """
    g_sup = Params(q=q, gamma=0.0, n_dim=n_dim).gamma_sup
    grid = g_sup * (np.arange(1, _GAMMA_STAR_SCAN + 1)) / (_GAMMA_STAR_SCAN + 1)
    lo = grid[0] * 1e-3  # lambda -> q < 1 as gamma -> 0, so the left end is below 1
    f_lo = lambda_gamma(q, float(lo), n_dim) - 1.0
    if f_lo >= 0.0:
        # already above 1 immediately: the crossing sits in (0, lo]
        return GammaStarResult(value=float(lo), crossed=True, lambda_value=f_lo + 1.0)
    hi = None
    for g in grid:
        f_g = lambda_gamma(q, float(g), n_dim) - 1.0
        if f_g >= 0.0:
            hi = float(g)
            break
        lo = float(g)
    if hi is None:
        lam_end = lambda_gamma(q, float(grid[-1]), n_dim)
        return GammaStarResult(value=g_sup, crossed=False, lambda_value=lam_end)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = lambda_gamma(q, mid, n_dim) - 1.0
        if abs(f_mid) <= _GAMMA_STAR_TOL:
            return GammaStarResult(value=mid, crossed=True, lambda_value=f_mid + 1.0)
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return GammaStarResult(value=mid, crossed=True, lambda_value=lambda_gamma(q, mid, n_dim))


def mittag_leffler(sigma: float, z: "float | np.ndarray") -> "float | np.ndarray":
    """One-parameter Mittag-Leffler function E_sigma(z) = sum z^n / Gamma(n sigma + 1).

    Series evaluation in log space, for a float z or elementwise over an
    array (all points summed together); each point's terms stop once below
    1e-14 * (1 + |partial sum|) past its term peak.  Restricted to
    |z| <= 50, and aborts if any term would overflow double precision (both
    raise SeriesRangeError).  E_1 = exp and E_2(z) = cosh(sqrt z) for z >= 0.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ParameterError(f"sigma must be positive (got {sigma})")
    zs = np.asarray(z, dtype=float)
    bad = ~(np.abs(zs) <= 50.0)  # also catches nan and inf
    if np.any(bad):
        raise SeriesRangeError(
            f"series evaluation restricted to |z| <= 50 (got {zs[bad].flat[0]})"
        )
    flat = zs.ravel()
    total = np.ones(flat.size)  # n = 0 term; E(0) = 1 exactly
    live = np.flatnonzero(flat != 0.0)  # points still summing
    az = np.abs(flat[live])
    ln_az = np.log(az)
    neg = flat[live] < 0.0
    # terms can grow before they decay; do not stop before the peak index
    with np.errstate(over="ignore"):  # an infinite peak overflows a term first
        n_peak = np.floor(az ** (1.0 / sigma)) + 2.0
    n = 1
    while live.size:
        ln_term = n * ln_az - math.lgamma(n * sigma + 1.0)
        if np.any(ln_term > 700.0):
            raise SeriesRangeError(
                f"term {n} of E_{sigma}(z) exceeds the double-precision range "
                f"(|z| up to {float(np.max(np.exp(ln_az))):.6g})"
            )
        term = np.exp(ln_term)
        if n % 2 == 1:
            np.negative(term, out=term, where=neg)
        part = total[live] + term
        total[live] = part
        going = (np.abs(term) >= 1e-14 * (1.0 + np.abs(part))) | (n < n_peak)
        if not going.all():
            live, ln_az, neg, n_peak = live[going], ln_az[going], neg[going], n_peak[going]
        n += 1
        if n > 200_000:
            raise SeriesRangeError(f"series for E_{sigma}(z) failed to settle")
    out = total.reshape(zs.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Constructive lower-bound recursion
# ---------------------------------------------------------------------------

def ck_fixed_point(q: float, gamma: float, n_dim: int) -> float:
    """Fixed point [(1-q) eta0]^{1/(1-q)} of the coefficient recursion (equal
    to the sub-solution coefficient)."""
    return ((1.0 - q) * eta0(q, gamma, n_dim)) ** (1.0 / (1.0 - q))


def ck_lower_bound(q: float, gamma: float, n_dim: int, c1: float, k: int) -> float:
    """Closed-form floor c1^{q^k} * [eta0 (1-q)]^{(1 - q^{k-1})/(1 - q)}.

    Provable against the recursion for seeds c1 >= 1 (induction from
    C_1 = c1 >= c1^q); for c1 < 1 the k = 1 base inequality c1 >= c1^q fails,
    so the floor is only meaningful for unit-or-larger seeds.
    """
    if c1 <= 0.0:
        raise ParameterError(f"c1 must be positive (got {c1})")
    if k < 1:
        raise ParameterError(f"k must be >= 1 (got {k})")
    e0 = eta0(q, gamma, n_dim)
    expo = (1.0 - q ** (k - 1)) / (1.0 - q)
    return c1 ** (q**k) * (e0 * (1.0 - q)) ** expo


def ck_sequence(q: float, gamma: float, n_dim: int, c1: float, k_max: int) -> dict:
    """Coefficient recursion C_{k+1} = eta0 * C_k^q * (1-q)/(1 - q^{k+1}).

    Starts from C_1 = c1 > 0 and iterates to C_{k_max}.  Returns the sequence
    together with the fixed point and the terminal distance to it.  The
    recursion contracts (exponent q < 1), so any positive seed converges; a
    non-finite intermediate aborts with a diagnostic.
    """
    Params(q=q, gamma=gamma, n_dim=n_dim)
    if not (math.isfinite(c1) and c1 > 0.0):
        raise ParameterError(f"c1 must be positive and finite (got {c1})")
    if not isinstance(k_max, int) or k_max < 2:
        raise ParameterError(f"k_max must be an integer >= 2 (got {k_max})")
    e0 = eta0(q, gamma, n_dim)
    seq = [float(c1)]
    for k in range(1, k_max):
        nxt = e0 * seq[-1] ** q * (1.0 - q) / (1.0 - q ** (k + 1))
        if not math.isfinite(nxt) or nxt <= 0.0:
            raise ParameterError(
                f"coefficient recursion left the positive reals at step {k + 1} "
                f"(value {nxt}) from seed c1 = {c1}"
            )
        seq.append(nxt)
    fp = ck_fixed_point(q, gamma, n_dim)
    return {
        "sequence": seq,
        "fixed_point": fp,
        "final_gap": abs(seq[-1] - fp),
    }


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsReport:
    """All scalar constants for one parameter triple, plus the quadrature
    tolerance they were computed at."""

    params: Params
    eta0: float
    eta1: float
    eta2: float
    beta: float
    lam: float
    quadrature_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.eta0 <= 1.0 + self.quadrature_tolerance):
            raise ParameterError(f"eta0 outside (0, 1]: {self.eta0}")
        for name in ("eta1", "eta2", "beta", "lam"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be positive: {getattr(self, name)}")
        if self.params.gamma == 0.0 and abs(self.eta0 - 1.0) > self.quadrature_tolerance:
            raise ParameterError(f"eta0 must equal 1 at gamma = 0 (got {self.eta0})")

    def as_json_dict(self) -> dict:
        return {
            "q": self.params.q,
            "gamma": self.params.gamma,
            "n_dim": self.params.n_dim,
            "eta0": self.eta0,
            "eta1": self.eta1,
            "eta2": self.eta2,
            "beta": self.beta,
            "lambda": self.lam,
            "tolerance": self.quadrature_tolerance,
        }


def constants_report(params: Params) -> ConstantsReport:
    """Compute every scalar constant for one parameter triple."""
    q, g, n = params.q, params.gamma, params.n_dim
    return ConstantsReport(
        params=params,
        eta0=eta0(q, g, n),
        eta1=eta1(g, n),
        eta2=eta2(g, n),
        beta=beta_gamma(q, g),
        lam=lambda_gamma(q, g, n),
    )
