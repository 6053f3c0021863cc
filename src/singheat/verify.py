"""Runnable checks: every structural inequality of the solver, as a report.

Each check_* function builds its own discrete setting, measures a signed
margin (negative means the asserted inequality failed by that much), and
returns a CheckReport; ``passed`` is margin >= -tolerance.  Checks never
raise on a failed inequality, only on invalid arguments, so a suite run
always produces one report per check.

Truncation masks: the discrete operators extend fields by zero outside the
box, which drags values down in a layer of width a few sqrt(t) along the
boundary.  Inequalities with an exact continuum proof therefore hold on the
discrete level only away from that layer, and the pointwise checks restrict
to nodes with max_i |x_i| <= L - 5 sqrt(t) (the complementary Gaussian mass
at distance 5 sqrt(t) is below 1e-3 of the local scale, decaying like
erfc(5/2)/2 ~ 2e-4 toward the interior).  Comparing two trajectories of one
ladder level needs no mask: the same discrete operator and the same g_n drive
both, so ordering is preserved at every node including the sagging ones.
That does not extend to two ladder levels: they use different g_n and
windows of different lengths, so the ladder's decrease can fail.  The
zero-data gamma = 0 solve with L = 12, M = 64, t = 1 and n = 1, 2, ..., 256
stops at n = 99 on an increase of 3.07e-5.  The walls are not the likely
cause: the ladder passes with a kernel whose discrete variance is 2 tau on
steps tau shorter than h^2 (ROADMAP item 1).  The likely cause is that the
sampled kernel's variance falls short of 2 tau on such steps, so short
steps do not compose to a long one and two levels, whose windows differ,
run different discrete operators.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import constants
from .errors import ParameterError, SeriesRangeError
from .fields import (
    DEFAULT_POINTS,
    Grid,
    GridFunction,
    Params,
    make_grid,
    standard_data,
)
from .scheme import (
    SolveConfig,
    duhamel_rule,
    monotone_solve,
    subsolution_coefficient,
    subsolution_values,
    subsolution_w,
)
from .semigroup import HeatPropagator, apply_heat

__all__ = [
    "CheckReport",
    "GronwallInstance",
    "check_comparison",
    "check_gronwall",
    "check_heaviside_gap",
    "check_lambda_limit",
    "check_lower_bound",
    "check_max_at_origin",
    "check_smoothing_exponent",
    "check_subsolution",
    "check_uniqueness_contraction",
    "default_suite",
    "gronwall_envelope",
    "run_suite",
    "volterra_extremal",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: signed margin against its tolerance."""

    name: str
    passed: bool
    margin: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.name} margin={self.margin:.6g} tol={self.tolerance:.6g}"

    def as_json_dict(self) -> dict:
        return asdict(self)


def _finish(name: str, margin: float, tolerance: float, details: dict) -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
        details=details,
    )


# Width of the boundary layer the pointwise checks leave out, in units of
# sqrt(t) (see the module docstring).
_TRUST_PAD = 5.0


def _trusted_mask(grid: Grid, t: float, cheb: "np.ndarray | None" = None) -> np.ndarray:
    """Nodes with max_i |x_i| <= L - _TRUST_PAD * sqrt(t): of the whole grid,
    or of the nodes whose max_i |x_i| cheb holds."""
    r_safe = grid.half_width - _TRUST_PAD * math.sqrt(t)
    if r_safe <= grid.h:
        raise ParameterError(
            f"no trusted nodes left: half_width {grid.half_width} too small for t = {t}"
        )
    if cheb is None:
        cheb = np.max(np.abs(np.stack(grid.node_mesh())), axis=0)
    return cheb <= r_safe


def _orthant_nodes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """|x| (bit for bit grid.radius_values()'s) and max_i |x_i| at the nodes
    of the positive orthant, built from its axes alone: no full-grid field,
    whose transients set the peak memory of the radial checks."""
    axis = grid.axis_nodes()[grid.points_per_axis // 2 :]
    mesh = np.meshgrid(*(axis,) * grid.n_dim, indexing="ij", sparse=True)
    r2 = np.zeros((axis.size,) * grid.n_dim)
    for m in mesh:
        r2 += m * m
    return np.sqrt(r2), functools.reduce(np.maximum, mesh)


def _default_grid(n_dim: int) -> tuple[float, int]:
    return {1: 16.0, 2: 10.0, 3: 8.0}[n_dim], DEFAULT_POINTS[n_dim]


# ---------------------------------------------------------------------------
# Sub-solution and lower bound
# ---------------------------------------------------------------------------

def check_subsolution(
    q: float = 0.5,
    gamma: float = 0.3,
    n_dim: int = 1,
    times: Sequence[float] = (0.25, 1.0),
    half_width: "float | None" = None,
    points: "int | None" = None,
    nodes: int = 32,
    tol: float = 1e-3,
) -> CheckReport:
    """The explicit barrier satisfies w(t) <= integral of S_gamma(t - sigma)
    w(sigma)^q d sigma on trusted nodes.

    At gamma = 0, q = 1/2 the two sides agree identically (the barrier is the
    exact extremal), so the margin there measures pure quadrature error.
    Every field here is radial, so the check computes on the positive
    orthant.  Each time's quadrature sum is one operator, prepared for the
    rule's lags and weights and applied once to a producer that writes each
    batch's rows of w(sigma_j)^q straight into the operator's workspace, so
    the check holds no stack.  A row is
    lambda^q sigma^{q/(1-q)} (r + sqrt sigma)^{-gamma q/(1-q)}: one power
    per distinct radius (3498 of the orthant's 9216 in 2D at
    M = 192), gathered onto the orthant, then multiplied by the weight; the
    barrier w(t) is gathered the same way.
    """
    params = Params(q=q, gamma=gamma, n_dim=n_dim)
    if half_width is None or points is None:
        dflt = _default_grid(n_dim)
        half_width = half_width if half_width is not None else dflt[0]
        points = points if points is not None else dflt[1]
    grid = make_grid(n_dim, half_width, points)
    prop = HeatPropagator(grid)
    radius, cheb = _orthant_nodes(grid)
    radii, where = np.unique(radius, return_inverse=True)
    where = where.reshape(prop.shape)  # numpy 2.x releases disagree on its shape
    weight = prop.weight_values(gamma)
    lam_q = subsolution_coefficient(params) ** q
    expo = gamma * q / (1.0 - q)
    per_time = {}
    worst = math.inf
    for t in times:
        # the continuum's grading p = 2/(2 - gamma); the solver grades its
        # windows in sqrt(t - sigma) instead (scheme._window_plan)
        sigs, wts = duhamel_rule(0.0, float(t), 2.0 / (2.0 - gamma), nodes)

        def fill(lo, hi, out, sig_list=sigs.tolist()):
            for row, s in zip(out, sig_list[lo:hi]):
                vals = np.power(radii + math.sqrt(s), -expo)
                vals *= lam_q * s ** (q / (1.0 - q))
                np.take(vals, where, out=row)
            out *= weight

        acc = prop.apply_heat_values(fill, prop.prepare(float(t) - sigs, wts[None]))[0]
        target = np.take(subsolution_values(params, float(t), radii), where)
        mask = _trusted_mask(grid, float(t), cheb)
        m = float(np.min((acc - target)[mask]))
        per_time[repr(float(t))] = m
        worst = min(worst, m)
    details = {
        "per_time_margin": per_time,
        "grid": [n_dim, float(half_width), int(points)],
        "quadrature_nodes": nodes,
    }
    return _finish("subsolution", worst, tol, details)


def check_lower_bound(
    data_spec: str = "zero",
    q: float = 0.5,
    gamma: float = 0.3,
    n_dim: int = 1,
    times: Sequence[float] = (0.5, 1.0, 2.0),
    half_width: float = 12.0,
    points: int = 1024,
    config: "SolveConfig | None" = None,
    tol: float = 5e-3,
) -> CheckReport:
    """Computed solutions dominate the explicit barrier w on trusted nodes.

    The regularized ladder decreases toward the distinguished solution, so
    every level already sits above it, and the barrier sits below; the margin
    is min over recorded times and trusted nodes of (u - w).
    """
    params = Params(q=q, gamma=gamma, n_dim=n_dim)
    grid = make_grid(n_dim, half_width, points)
    u0 = standard_data(grid, data_spec)
    cfg = config if config is not None else SolveConfig()
    t_end = max(float(t) for t in times)
    traj = monotone_solve(u0, params, t_end, cfg, record_times=tuple(float(t) for t in times))
    per_time = {}
    worst = math.inf
    for t in times:
        u = traj.snapshot_at(float(t)).values
        w = subsolution_w(grid, params, float(t)).values
        mask = _trusted_mask(grid, float(t))
        m = float(np.min((u - w)[mask]))
        per_time[repr(float(t))] = m
        worst = min(worst, m)
    details = {
        "per_time_margin": per_time,
        "data": data_spec,
        "n_used": traj.diagnostics.get("n_used"),
        "inter_level_gaps": traj.diagnostics.get("inter_level_gaps"),
    }
    return _finish("lower_bound", worst, tol, details)


def check_comparison(
    upper_spec: str = "const:1",
    lower_spec: str = "bump",
    q: float = 0.5,
    gamma: float = 0.3,
    n_dim: int = 1,
    times: Sequence[float] = (0.5, 1.0),
    half_width: float = 12.0,
    points: int = 512,
    config: "SolveConfig | None" = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Ordered data stay ordered: u0 >= v0 implies u(t) >= v(t) at every node.

    Both runs use identical meshes and schedules, so the discrete operator
    preserves the order exactly; the only slack needed is the fixed-point
    stopping tolerance, which is tightened here below the check tolerance.
    """
    params = Params(q=q, gamma=gamma, n_dim=n_dim)
    grid = make_grid(n_dim, half_width, points)
    upper = standard_data(grid, upper_spec)
    lower = standard_data(grid, lower_spec)
    if float(np.min(upper.values - lower.values)) < 0.0:
        raise ParameterError(
            f"data are not ordered: {upper_spec!r} must dominate {lower_spec!r} nodewise"
        )
    cfg = config if config is not None else SolveConfig(eps_fp=1e-10)
    t_end = max(float(t) for t in times)
    rec = tuple(float(t) for t in times)
    tr_u = monotone_solve(upper, params, t_end, cfg, record_times=rec)
    tr_v = monotone_solve(lower, params, t_end, cfg, record_times=rec)
    per_time = {}
    worst = math.inf
    for t in times:
        diff = tr_u.snapshot_at(float(t)).values - tr_v.snapshot_at(float(t)).values
        m = float(np.min(diff))
        per_time[repr(float(t))] = m
        worst = min(worst, m)
    details = {"per_time_margin": per_time, "upper": upper_spec, "lower": lower_spec}
    return _finish("comparison", worst, tol, details)


# ---------------------------------------------------------------------------
# Singular Gronwall machinery
# ---------------------------------------------------------------------------

_VOLTERRA_BLOCK = 128  # nodes per block of volterra_extremal's forward substitution

@dataclass(frozen=True)
class GronwallInstance:
    """One inequality psi(t) <= a_const + m_const * integral_0^t
    psi(tau) (t - tau)^{-alpha} d tau on [0, t_end]."""

    a_const: float
    m_const: float
    alpha: float
    t_end: float
    steps: int = 2048

    def __post_init__(self) -> None:
        if self.a_const < 0.0 or self.m_const < 0.0:
            raise ParameterError("a_const and m_const must be >= 0")
        if not (0.0 <= self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in [0, 1) (got {self.alpha})")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ParameterError(f"t_end must be positive (got {self.t_end})")
        if self.steps < 8:
            raise ParameterError("steps must be >= 8")


def volterra_extremal(inst: GronwallInstance) -> tuple[np.ndarray, np.ndarray]:
    """Solve psi(t) = A + M integral_0^t psi(tau)(t - tau)^{-alpha} d tau.

    Product integration (Linz, Analytical and Numerical Methods for Volterra
    Equations, 1985): psi is piecewise linear on a uniform grid and the
    singular kernel is integrated exactly against that interpolant on each
    subinterval.  Node i then satisfies
    (1 - d) psi_i - M sum_{0<k<i} c[i-k] psi_k = A + M w_j[i-1] psi_0,
    a lower-triangular Toeplitz system in psi_1..psi_n with d = M w_j1[0]
    and c[l] = w_j[l-1] + w_j1[l].  It is solved by blocked forward
    substitution, _VOLTERRA_BLOCK nodes at a time: a block's right-hand side
    takes the history of the earlier nodes as one Toeplitz product (a
    convolution with c), and the block is then the diagonal block's inverse
    times it.  Every diagonal block of a Toeplitz matrix is the same matrix,
    and the leading part of a lower-triangular inverse is the inverse of the
    leading part, so one inverse, built once, serves every block including a
    short last one.  That inverse is lower-triangular Toeplitz as well, so it
    is held as its first column and applied as a convolution.  Nothing here
    calls np.linalg or a matrix product, so the solve calls no LAPACK or
    threaded BLAS routine, whose first call faults in over a megabyte of
    the library's code.  This extremal equality solution is the largest
    function satisfying the inequality of the instance.
    """
    a_c, m_c, al = inst.a_const, inst.m_const, inst.alpha
    n = inst.steps
    dt = inst.t_end / n
    t = np.arange(n + 1) * dt
    # Exact kernel moments over s in [s0, s1] = [(m-1) dt, m dt], m = i - j.
    # With s = t_i - tau the hat of node j is (s - s0)/dt and of node j+1 is
    # (s1 - s)/dt, so against s^{-alpha}:
    #   coeff of psi_j     = (P2 - s0 P1)/dt,
    #   coeff of psi_{j+1} = (s1 P1 - P2)/dt,
    # where P1, P2 are the plain moments of s^{-alpha} and s^{1-alpha}.
    e1, e2 = 1.0 - al, 2.0 - al
    m_idx = np.arange(1, n + 1, dtype=float)
    s0 = (m_idx - 1.0) * dt
    s1 = m_idx * dt
    p1 = (s1**e1 - s0**e1) / e1
    p2 = (s1**e2 - s0**e2) / e2
    w_at_j = (p2 - s0 * p1) / dt
    w_at_j1 = (s1 * p1 - p2) / dt
    diag = m_c * w_at_j1[0]
    if diag >= 1.0:
        raise ParameterError(
            f"product-integration step too coarse: m_const * dt^(1-alpha) scale "
            f"{diag:.3g} >= 1; increase steps"
        )
    # c[l], the coefficient of psi_{i-l} in row i, for l = 1 .. n-1 (c[0] = 0)
    c = np.zeros(n)
    c[1:] = w_at_j[:-1] + w_at_j1[1:]
    size = min(_VOLTERRA_BLOCK, n)
    rhs = a_c + (m_c * a_c) * w_at_j  # rows 1..n, without their history
    psi = np.empty(n + 1)
    psi[0] = a_c
    with np.errstate(over="ignore", invalid="ignore"):
        # the inverse of the diagonal block, by its first column: the block's
        # own recursion on the unit vector
        inv = np.empty(size)
        inv[0] = 1.0 / (1.0 - diag)
        for k in range(1, size):
            inv[k] = m_c * float(np.dot(c[1 : k + 1], inv[k - 1 :: -1])) * inv[0]
        for lo in range(1, n + 1, size):
            hi = min(lo + size, n + 1)
            b = rhs[lo - 1 : hi - 1]
            if lo > 1:
                # sum_{0<k<lo} c[i-k] psi_k for i = lo .. hi-1
                b = b + m_c * np.convolve(c[1 : hi - 1], psi[1:lo], "valid")
            psi[lo:hi] = np.convolve(inv[: hi - lo], b)[: hi - lo]
            bad = np.flatnonzero(~np.isfinite(psi[lo:hi]))
            if bad.size:
                raise SeriesRangeError(
                    f"extremal solution left the double-precision range near t = "
                    f"{(lo + bad[0]) * dt:.3g} (alpha = {al}, m_const = {m_c}); "
                    f"shrink t_end or m_const"
                )
    return t, psi


def gronwall_envelope(inst: GronwallInstance, t: np.ndarray) -> np.ndarray:
    """Closed-form majorant A * E_{1-alpha}(M Gamma(1-alpha) t^{1-alpha}).

    Iterating the inequality produces exactly the series of this one-parameter
    Mittag-Leffler function (each Duhamel power integrates to a Beta factor),
    so the envelope equals the extremal solution and the bound is sharp.
    """
    sig = 1.0 - inst.alpha
    z = inst.m_const * math.gamma(sig) * np.asarray(t, dtype=float) ** sig
    return inst.a_const * constants.mittag_leffler(sig, z)


def check_gronwall(inst: "GronwallInstance | None" = None, tol: "float | None" = None) -> CheckReport:
    """The product-integration extremal stays below the Mittag-Leffler envelope.

    alpha = 0 instances are compared two-sidedly against A exp(M t) (default
    tolerance 1e-6 relative); A = 0 instances must stay at zero (1e-12); the
    genuinely singular case is one-sided with default relative slack 1e-4.
    """
    if inst is None:
        inst = GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.5, t_end=1.0)
    t, psi = volterra_extremal(inst)
    name = f"gronwall_a{inst.alpha:g}"
    if inst.a_const == 0.0:
        tolerance = 1e-12 if tol is None else tol
        margin = -float(np.max(np.abs(psi)))
        details = {"instance": inst, "sup_psi": float(np.max(np.abs(psi)))}
        return _finish(name, margin, tolerance, details)
    env = gronwall_envelope(inst, t)
    if inst.alpha == 0.0:
        tolerance = 1e-6 if tol is None else tol
        rel = np.abs(psi - env) / np.maximum(env, 1e-300)
        margin = -float(np.max(rel))
        details = {"instance": inst, "max_rel_dev": float(np.max(rel))}
        return _finish(name, margin, tolerance, details)
    tolerance = 1e-4 if tol is None else tol
    rel = (env - psi) / np.maximum(env, 1e-300)
    margin = float(np.min(rel[1:]))  # t = 0 is exact by construction
    details = {
        "instance": inst,
        "max_overshoot": float(max(0.0, -np.min(rel[1:]))),
        "envelope_end": float(env[-1]),
    }
    return _finish(name, margin, tolerance, details)


# ---------------------------------------------------------------------------
# Kernel-shape checks
# ---------------------------------------------------------------------------

def _random_radial_profile(rng: random.Random):
    """Random non-increasing radial profile: a positive mixture of Gaussians,
    Lorentzians, linear ramps, and plateaus, its parameters drawn from the
    stdlib generator ``rng`` (a ``random.Random(seed)``)."""
    coefs = [rng.uniform(0.1, 2.0) for _ in range(4)]
    a = rng.uniform(0.05, 3.0)
    b = rng.uniform(0.05, 3.0)
    ramp_r = rng.uniform(0.5, 6.0)
    plat_r = rng.uniform(0.3, 4.0)

    def f(r):
        r = np.asarray(r, dtype=float)
        return (
            coefs[0] * np.exp(-a * r * r)
            + coefs[1] / (1.0 + b * r * r)
            + coefs[2] * np.clip(1.0 - r / ramp_r, 0.0, 1.0)
            + coefs[3] * (r <= plat_r)
        )

    return f


def _require_nonincreasing(profile, r_max: float) -> None:
    rr = np.linspace(0.0, r_max, 4097)
    vals = np.asarray(profile(rr), dtype=float)
    if np.any(np.diff(vals) > 1e-12 * max(1.0, float(np.max(np.abs(vals))))):
        raise ParameterError("profile is not non-increasing in the radius")


def check_max_at_origin(
    n_profiles: int = 20,
    n_dim: int = 1,
    t: float = 0.5,
    half_width: float = 10.0,
    points: int = 512,
    seed: int = 20250815,
    profiles: "Iterable[Callable] | None" = None,
    tol: float = 1e-10,
) -> CheckReport:
    """Heat evolution of radially non-increasing data peaks next to the origin.

    The grid has no node at the origin; the maximum must be attained at one of
    the 2^N innermost nodes (|x_i| = h/2 on every axis).  The margin is the
    worst value of (max over innermost nodes) - (global max), scaled by the
    field size.  The data are radial, so the check computes on the positive
    orthant, where the innermost node is the first.  Unless ``profiles``
    are given, the check draws ``n_profiles`` random profiles from the
    stdlib ``random.Random(seed)``.
    """
    grid = make_grid(n_dim, half_width, points)
    r = _orthant_nodes(grid)[0]
    r_max = float(np.max(r)) + 1.0
    rng = random.Random(seed)
    fns = list(profiles) if profiles is not None else [
        _random_radial_profile(rng) for _ in range(n_profiles)
    ]
    prop = HeatPropagator(grid)
    op = prop.prepare([t])  # one kernel for every profile
    worst = math.inf
    for fn in fns:
        _require_nonincreasing(fn, r_max)
        f = np.asarray(fn(r), dtype=float)
        evolved = prop.apply_heat_values(f[None], op)[0]
        scale = max(1.0, float(np.max(np.abs(evolved))))
        m = (float(evolved[(0,) * n_dim]) - float(np.max(evolved))) / scale
        worst = min(worst, m)
    details = {
        "profiles": len(fns),
        "t": float(t),
        "n_dim": n_dim,
        "grid": [n_dim, float(half_width), int(points)],
    }
    return _finish("max_at_origin", worst, tol, details)


def check_heaviside_gap(
    times: Sequence[float] = (0.01, 1.0),
    half_width: float = 6.0,
    points: int = 32768,
    tol: float = 1e-3,
) -> CheckReport:
    """At a jump of height 1 the one-step gap |S(t) u0 - u0| has supremum
    1/2.

    The datum u0 is the indicator of |x| < L/2 on a 1D grid of half width
    L: two jumps L apart, each at a midpoint between nodes.  Next to a jump
    the discrete gap approaches 1/2 from below with deficit ~ h/(4 sqrt(pi
    t)), half the kernel weight at zero displacement, which is withheld
    from the jump.  The far jump raises the gap next to the near one by
    (1/2) erfc(L / (2 sqrt t)): 1.1e-5 at t = 1 on L = 6 (a step datum
    that meets the zero extension at the wall x = L has the same term, from
    the wall).  The gap stays below 1/2 while that term is below the
    deficit h/(4 sqrt(pi t)) (5.2e-5 at t = 1 on this grid), which is why
    the pointwise ceiling 1/2 + 1e-12 holds.  Margin: min over times of
    tol - |sup_gap - 1/2|, with that ceiling also enforced.
    """
    grid = make_grid(1, half_width, points)
    u0 = GridFunction(grid, (grid.radius_values() < 0.5 * half_width).astype(float))
    worst = math.inf
    gaps = {}
    for t in times:
        # the evolved field is freed once the gap is formed, and the gap
        # before the next time's apply (with its propagator's scratch)
        gap = apply_heat(u0, float(t)).values - u0.values
        sup_gap = float(np.max(np.abs(gap, out=gap)))
        del gap
        gaps[repr(float(t))] = sup_gap
        ceiling = 0.5 + 1e-12 - sup_gap  # pointwise bound, never exceeded discretely
        closeness = tol - abs(sup_gap - 0.5)
        worst = min(worst, ceiling, closeness)
    details = {
        "sup_gap": gaps,
        "grid_h": grid.h,
        "coarse_slack_scale": {repr(float(t)): grid.h / (2.0 * math.sqrt(math.pi * t)) for t in times},
    }
    return _finish("heaviside_gap", worst, tol, details)


def check_smoothing_exponent(
    gamma: float = 0.3,
    n_dim: int = 1,
    times: "Sequence[float] | None" = None,
    half_width: "float | None" = None,
    points: "int | None" = None,
    slope_tol: float = 0.02,
    intercept_tol: float = 0.05,
) -> CheckReport:
    """Weighted semigroup on the constant 1: value next to the origin decays
    like eta1 * t^{-gamma/2}.

    Log-log least squares over a geometric time grid, in closed form; the
    slope must match -gamma/2 and the intercept ln(eta1) within the stated
    bands.  The margin is the worse of the two band residuals; tolerance 0
    (bands are absolute).  The weighted constant is radial, so the check
    computes on the positive orthant, where the innermost node is the
    first.
    """
    if times is None:
        times = np.geomspace(0.25, 4.0, 9)
    if half_width is None:
        half_width = 24.0 if n_dim == 1 else 16.0
    if points is None:
        points = 2048 if n_dim == 1 else 256
    grid = make_grid(n_dim, half_width, points)
    prop = HeatPropagator(grid)
    weighted = prop.weight_values(gamma)[None]  # the weighted constant 1
    vals = []
    for t in times:
        out = prop.apply_heat_values(weighted, prop.prepare([float(t)]))
        vals.append(float(out[(0,) * (n_dim + 1)]))
    lt = np.log(np.asarray(times, dtype=float))
    lv = np.log(np.asarray(vals))
    # the least-squares line in closed form (np.polyfit would call LAPACK)
    dt = lt - lt.mean()
    slope = float(np.dot(dt, lv - lv.mean()) / np.dot(dt, dt))
    intercept = float(lv.mean() - slope * lt.mean())
    e1 = constants.eta1(gamma, n_dim)
    m_slope = slope_tol - abs(slope + 0.5 * gamma)
    m_icept = intercept_tol - abs(intercept - math.log(e1))
    details = {
        "slope": float(slope),
        "intercept": float(intercept),
        "expected_slope": -0.5 * gamma,
        "expected_intercept": math.log(e1),
        "times": [float(t) for t in times],
    }
    return _finish("smoothing_exponent", float(min(m_slope, m_icept)), 0.0, details)


# ---------------------------------------------------------------------------
# Threshold behavior
# ---------------------------------------------------------------------------

def check_lambda_limit(
    q: float = 0.5,
    n_dim: int = 1,
    gammas: Sequence[float] = (0.1, 0.01, 0.001),
    tol: float = 1e-3,
) -> CheckReport:
    """lambda_gamma approaches q as gamma -> 0: deviations must decrease along
    the given gamma sequence and the final one must fall within tol.

    The approach is linear in gamma with slope q * d/dgamma log(beta * eta2 /
    eta0) at 0, roughly 3.5 q for q near 1/2; at gamma = 1e-3 the deviation is
    therefore a few 1e-3 for mid-range q, and a 1e-3 band on it cannot be met
    for every q.  The check reports that honestly rather than enlarging the
    band.
    """
    if len(gammas) < 2:
        raise ParameterError("need at least two gamma values")
    if any(b >= a for a, b in zip(gammas, gammas[1:])):
        raise ParameterError("gamma values must be strictly decreasing")
    devs = [abs(constants.lambda_gamma(q, float(g), n_dim) - q) for g in gammas]
    dec_margin = min(a - b for a, b in zip(devs, devs[1:]))
    final_margin = tol - devs[-1]
    details = {
        "gammas": [float(g) for g in gammas],
        "deviations": devs,
        "q": q,
        "n_dim": n_dim,
    }
    return _finish("lambda_limit", float(min(dec_margin, final_margin)), 0.0, details)


def check_uniqueness_contraction(
    q: float = 0.5,
    gamma: float = 0.1,
    n_dim: int = 1,
    data_spec: str = "bump",
    t_end: float = 1.0,
    half_width: float = 12.0,
    points: int = 512,
    tol: float = 1e-3,
    config: "SolveConfig | None" = None,
) -> CheckReport:
    """Below the threshold (lambda < 1), independent discretizations of the
    same data agree within the contraction envelope.

    Two runs from identical data with perturbed numerical meshes (different
    window caps, node counts, contraction targets) are compared at t_end.
    For gamma > 0 the sup gap must fall below lambda^3 times the cubed-sweep
    envelope (2 eta1 t^{(2-gamma)/2}/(2-gamma))^{1/(1-q)}; for gamma = 0
    classical uniqueness applies and the gap must fall below tol directly.
    Requires lambda_gamma < 1 (error otherwise).
    """
    params = Params(q=q, gamma=gamma, n_dim=n_dim)
    lam = constants.lambda_gamma(q, gamma, n_dim)
    if lam >= 1.0:
        raise ParameterError(
            f"contraction check requires lambda < 1 (got {lam:.6g} at gamma = {gamma})"
        )
    grid = make_grid(n_dim, half_width, points)
    u0 = standard_data(grid, data_spec)
    cfg_a = config if config is not None else SolveConfig()
    cfg_b = replace(
        cfg_a,
        nodes_per_window=cfg_a.nodes_per_window + 2,
        window_cap=0.7 * cfg_a.window_cap,
        contraction_theta=0.9 * cfg_a.contraction_theta,
    )
    tr_a = monotone_solve(u0, params, t_end, cfg_a, record_times=(t_end,))
    tr_b = monotone_solve(u0, params, t_end, cfg_b, record_times=(t_end,))
    gap = float(
        np.max(np.abs(tr_a.snapshot_at(t_end).values - tr_b.snapshot_at(t_end).values))
    )
    e1 = constants.eta1(gamma, n_dim)
    envelope = (2.0 * e1 * t_end ** (0.5 * (2.0 - gamma)) / (2.0 - gamma)) ** (
        1.0 / (1.0 - q)
    )
    if gamma == 0.0:
        threshold = tol
    else:
        threshold = lam**3 * envelope
    details = {
        "sup_gap": gap,
        "threshold": threshold,
        "lambda": lam,
        "envelope": envelope,
        "data": data_spec,
    }
    return _finish("uniqueness_contraction", threshold - gap, 0.0, details)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def default_suite(names: "Sequence[str] | None" = None) -> "dict[str, Callable[[], CheckReport]]":
    """Named zero-argument check runners, sized for interactive use: all of
    them, or those of the given names (ParameterError names any unknown)."""
    light = SolveConfig(n_schedule=(1, 2, 4, 8, 16))
    suite = {
        "subsolution": lambda: check_subsolution(0.5, 0.3, 1),
        "subsolution-2d": lambda: check_subsolution(0.3, 0.5, 2),
        "lower-bound": lambda: check_lower_bound(
            "zero", 0.5, 0.3, 1, times=(0.5, 1.0), half_width=12.0, points=512, config=light
        ),
        "comparison": lambda: check_comparison(
            "const:1", "bump", 0.5, 0.3, 1, times=(0.5, 1.0), points=256,
            config=SolveConfig(eps_fp=1e-10, n_schedule=(1, 2, 4, 8, 16)),
        ),
        "gronwall-exp": lambda: check_gronwall(
            GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.0, t_end=1.0)
        ),
        "gronwall-singular": lambda: check_gronwall(
            GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.5, t_end=1.0)
        ),
        "gronwall-zero": lambda: check_gronwall(
            GronwallInstance(a_const=0.0, m_const=1.0, alpha=0.5, t_end=1.0)
        ),
        "max-at-origin": lambda: check_max_at_origin(n_profiles=20, n_dim=1),
        "heaviside": lambda: check_heaviside_gap(),
        "smoothing": lambda: check_smoothing_exponent(0.3, 1),
        "lambda-limit": lambda: check_lambda_limit(
            0.5, 1, gammas=(0.1, 0.01, 0.001, 0.0001)
        ),
        "uniqueness": lambda: check_uniqueness_contraction(
            0.5, 0.1, 1, points=256, config=light
        ),
    }
    if not names:
        return suite
    unknown = [n for n in names if n not in suite]
    if unknown:
        raise ParameterError(f"unknown check name(s) {unknown}; available: {sorted(suite)}")
    return {n: suite[n] for n in names}


def run_suite(names: "Sequence[str] | None" = None) -> list[CheckReport]:
    """Run named checks (default: all) one after another on the calling
    thread, in name order, and return their reports, each named by its
    suite key, sorted by that key.

    An Exception inside a check (as opposed to a failed inequality) becomes
    a failing report with margin -inf and the error text, and the remaining
    checks still run, so one broken check cannot take down the suite.  Any
    other BaseException propagates.
    """
    reports = []
    for name, fn in sorted(default_suite(names).items()):
        try:
            reports.append(replace(fn(), name=name))
        except Exception as exc:  # surface as a failing report, don't crash the suite
            reports.append(
                CheckReport(
                    name=name,
                    passed=False,
                    margin=-math.inf,
                    tolerance=0.0,
                    details={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return reports
