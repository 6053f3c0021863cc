"""Release gate for the package: fourteen end-to-end checks.

Every guarantee the package ships -- analytic anchors, operator exactness,
scheme structure, verification margins -- appears here once, at its stated
tolerance.  Each test prints one ``C<k> <name>: PASS/FAIL (...)`` line before
asserting, so a bare log scan shows the state of the whole gate even when the
runner swallows tracebacks.  Nothing in this file is tuned to the current
build: the tolerances are the contract, and a check that cannot meet its band
is left to fail visibly rather than widened.
"""

import math

import numpy as np

from singheat import (
    GronwallInstance,
    HeatPropagator,
    Nonlinearity,
    Params,
    SolveConfig,
    TimeMesh,
    apply_heat,
    beta_gamma,
    check_comparison,
    check_gronwall,
    check_heaviside_gap,
    check_lower_bound,
    check_max_at_origin,
    check_smoothing_exponent,
    check_subsolution,
    ck_lower_bound,
    ck_sequence,
    contraction_window,
    eta0,
    eta1,
    eta2,
    eta_k,
    g_n,
    gamma_star,
    gaussian_exact,
    lambda_gamma,
    make_grid,
    monotone_solve,
    picard_solve,
    positive_part,
    standard_data,
)
from singheat import scheme
from singheat.constants import eta1_by_quadrature, sphere_area


def _gate(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _riemann_radial(f, n_dim, gamma, r_min=0.0, r_max=20.0, n=1_000_000):
    """Brute-force midpoint sum of f(r) r^{N-1-gamma} dr over (r_min, r_max).

    Same oracle as in the constants tests: plain midpoint in r when the
    measure is smooth (gamma = 0), substitution v = r^{N-gamma} otherwise.
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
# C1 -- constants collapse to their closed forms at gamma = 0
# ---------------------------------------------------------------------------

def test_c01_constants_sanity():
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        for n in (1, 2, 3):
            worst = max(
                worst,
                abs(eta0(q, 0.0, n) - 1.0),
                abs(eta1(0.0, n) - 1.0),
                abs(eta2(0.0, n) - 1.0),
                abs(beta_gamma(q, 0.0) - (1.0 - q)),
            )
    _gate("C1 constants-sanity", worst <= 1e-8, f"worst dev {worst:.2e} over 9 (q, N) pairs")


# ---------------------------------------------------------------------------
# C2 -- closed-form anchors and brute-force oracles
# ---------------------------------------------------------------------------

def test_c02_closed_form_cross_checks():
    parts = []
    dev_a = abs(eta1(0.5, 1) - math.gamma(0.25) / math.sqrt(2.0 * math.pi))
    parts.append(("eta1 anchor", dev_a, 1e-8))
    dev_b = abs(beta_gamma(0.5, 1.0) - 2.0)
    parts.append(("beta anchor", dev_b, 1e-10))
    # every quadrature-backed constant against a 10^6-node midpoint oracle
    worst_q = 0.0
    for (q, g, n) in [(0.5, 0.3, 1), (0.3, 0.5, 2), (0.7, 0.8, 3)]:
        pref = (4.0 * math.pi) ** (-0.5 * n) * sphere_area(n)
        s = g / (1.0 - q)
        o0 = pref * _riemann_radial(lambda r: np.exp(-0.25 * r * r) * (1 + r) ** (-s), n, 0.0)
        o1 = pref * _riemann_radial(lambda r: np.exp(-0.25 * r * r), n, g)
        gauss = lambda r: np.exp(-0.25 * r * r)
        o2 = (4.0 * math.pi) ** (-0.5 * n) * 2.0 ** (0.5 * g) * sphere_area(n) * (
            _riemann_radial(gauss, n, g, r_max=1.0) + _riemann_radial(gauss, n, 0.0, r_min=1.0)
        )
        k = 3
        sk = g * q * (1.0 - q**k) / (1.0 - q)
        ok_ = pref * _riemann_radial(
            lambda r: np.exp(-0.25 * r * r) * (1 + r) ** (-g) * (2 + r) ** (-sk), n, 0.0
        )
        worst_q = max(
            worst_q,
            abs(o0 - eta0(q, g, n)),
            abs(o1 - eta1(g, n)),
            abs(o1 - eta1_by_quadrature(g, n)),
            abs(o2 - eta2(g, n)),
            abs(ok_ - eta_k(q, g, n, k)),
        )
    parts.append(("oracles", worst_q, 1e-6))
    ok = all(d <= tol for _, d, tol in parts)
    detail = "; ".join(f"{name} {d:.2e}" for name, d, _ in parts)
    _gate("C2 closed-form-cross-checks", ok, detail)


# ---------------------------------------------------------------------------
# C3 -- lambda approaches q as gamma -> 0
# ---------------------------------------------------------------------------

def test_c03_lambda_limit():
    """|lambda(q, 1e-3, N) - q| <= 1e-3 for q in {0.2, 0.5, 0.8}, N in {1, 2, 3}.

    The approach is first order in gamma: lambda(gamma) = q * (1 + gamma *
    d/dgamma log(beta eta2 / eta0)|_0 + O(gamma^2)), and the logarithmic
    slope is about 3.5, so the deviation at gamma = 1e-3 lands near
    3.5 q * 1e-3.  A 1e-3 band on it therefore holds for small q but not for
    mid-range and large q.  The band is asserted as stated rather than
    widened, and the printed line records the measured deviations.
    """
    devs = {}
    for q in (0.2, 0.5, 0.8):
        devs[q] = max(abs(lambda_gamma(q, 1e-3, n) - q) for n in (1, 2, 3))
    ok = all(d <= 1e-3 for d in devs.values())
    detail = "max dev by q: " + ", ".join(f"{q} -> {d:.2e}" for q, d in devs.items()) + "; band 1e-3"
    _gate("C3 lambda-limit", ok, detail)


# ---------------------------------------------------------------------------
# C4 -- the uniqueness threshold exists for q = 1/2, N = 1
# ---------------------------------------------------------------------------

def test_c04_gamma_star_existence():
    res = gamma_star(0.5, 1)
    below = lambda_gamma(0.5, res.value / 2.0, 1)
    ok = (
        res.crossed
        and 0.0 < res.value < 1.0
        and abs(res.lambda_value - 1.0) <= 1e-8
        and below < 1.0
    )
    detail = (
        f"gamma* = {res.value:.12f}, lambda(gamma*) - 1 = {res.lambda_value - 1.0:.2e}, "
        f"lambda(gamma*/2) = {below:.6f}"
    )
    _gate("C4 gamma-star-existence", ok, detail)


# ---------------------------------------------------------------------------
# C5 -- discrete heat operator against the closed-form Gaussian
# ---------------------------------------------------------------------------

def test_c05_semigroup_exactness():
    grid = make_grid(1, 16.0, 1024)
    u0 = gaussian_exact(grid, 0.25, 0.0)
    prop = HeatPropagator(grid)
    sup_dev = 0.0
    mass_dev = 0.0
    for t in (0.5, 1.0, 2.0):
        evolved = apply_heat(u0, t)
        exact = gaussian_exact(grid, 0.25, t)
        sup_dev = max(sup_dev, float(np.max(np.abs(evolved.values - exact.values))))
        mass_dev = max(mass_dev, abs(prop.raw_kernel_mass(t) - 1.0))
    ok = sup_dev <= 1e-6 and mass_dev <= 1e-10
    _gate("C5 semigroup-exactness", ok, f"sup dev {sup_dev:.2e}; kernel mass dev {mass_dev:.2e}")


# ---------------------------------------------------------------------------
# C6 -- weighted semigroup smoothing exponent
# ---------------------------------------------------------------------------

def test_c06_smoothing_exponent():
    reports = {g: check_smoothing_exponent(gamma=g, n_dim=1) for g in (0.2, 0.5)}
    ok = all(r.passed for r in reports.values())
    detail = "; ".join(
        f"gamma {g}: slope {r.details['slope']:.4f} (want {r.details['expected_slope']:.2f})"
        for g, r in reports.items()
    )
    _gate("C6 smoothing-exponent", ok, detail)


# ---------------------------------------------------------------------------
# C7 -- gamma = 0 reduces to a scalar ODE with known solutions
# ---------------------------------------------------------------------------

def test_c07_exact_ode_recovery():
    # constant data 1: u' = sqrt(u) gives u(t) = (1 + t/2)^2, u(1) = 2.25;
    # the data sits beyond the n = 1 knee, so g_1 acts as the raw power
    grid = make_grid(1, 12.0, 64)
    params = Params(q=0.5, gamma=0.0, n_dim=1)
    mid = np.abs(grid.axis_nodes()) < 2.0
    nl = Nonlinearity.regularized(0.5, 1)
    w = min(0.25, contraction_window(0.0, nl.lipschitz, eta1(0.0, 1)))
    mesh = TimeMesh.build(1.0, w, must_include=(1.0,))
    traj = picard_solve(standard_data(grid, "const:1"), nl, params, mesh)
    dev_const = float(np.max(np.abs(traj.snapshot_at(1.0).values[mid] - 2.25)))

    # zero data: the vanishing-regularization limit is ((1-q) t)^{1/(1-q)},
    # here (t/2)^2 = 0.25 at t = 1; a deep n-schedule closes the 1/n shift
    cfg = SolveConfig(n_schedule=(65536, 262144))
    traj0 = monotone_solve(standard_data(grid, "zero"), params, 1.0, cfg, record_times=(1.0,))
    dev_zero = float(np.max(np.abs(traj0.snapshot_at(1.0).values[mid] - 0.25)))

    ok = dev_const <= 1e-3 and dev_zero <= 5e-3
    _gate(
        "C7 exact-ode-recovery",
        ok,
        f"const-data dev {dev_const:.2e} (band 1e-3); zero-data dev {dev_zero:.2e} (band 5e-3)",
    )


# ---------------------------------------------------------------------------
# C8 -- the explicit barrier is a sub-solution of the integral equation
# ---------------------------------------------------------------------------

def test_c08_subsolution_inequality():
    margins = {}
    for (q, g, n) in [(0.5, 0.3, 1), (0.5, 0.6, 1), (0.3, 0.5, 2)]:
        rep = check_subsolution(q=q, gamma=g, n_dim=n, times=(0.25, 1.0), tol=1e-3)
        margins[(q, g, n)] = (rep.passed, rep.margin)
    ok = all(p for p, _ in margins.values())
    detail = "; ".join(f"{k}: margin {m:+.2e}" for k, (_, m) in margins.items())
    _gate("C8 subsolution-inequality", ok, detail)


# ---------------------------------------------------------------------------
# C9 -- computed solutions dominate the barrier
# ---------------------------------------------------------------------------

def test_c09_lower_bound():
    margins = {}
    for spec in ("zero", "bump"):
        for g in (0.0, 0.3):
            rep = check_lower_bound(
                data_spec=spec, q=0.5, gamma=g, n_dim=1, times=(0.5, 1.0, 2.0), tol=5e-3
            )
            margins[(spec, g)] = (rep.passed, rep.margin)
    ok = all(p for p, _ in margins.values())
    detail = "; ".join(f"{k}: margin {m:+.2e}" for k, (_, m) in margins.items())
    _gate("C9 lower-bound", ok, detail)


# ---------------------------------------------------------------------------
# C10 -- ladder monotonicity and the comparison principle
# ---------------------------------------------------------------------------

def test_c10_monotone_structure(monkeypatch):
    grid = make_grid(1, 12.0, 256)
    params = Params(q=0.5, gamma=0.3, n_dim=1)
    levels = []
    solve = scheme.picard_solve

    def captured(*args, **kwargs):
        levels.append(solve(*args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(scheme, "picard_solve", captured)
    traj = monotone_solve(
        standard_data(grid, "bump"),
        params,
        1.0,
        SolveConfig(n_schedule=(1, 2, 4, 8, 16, 32, 64)),
        record_times=(0.5, 1.0),
    )
    # recompute the worst inter-level increase from the level trajectories,
    # as each level's march returned them, rather than trusting the solver's
    # own bookkeeping
    worst_up = 0.0
    for run_a, run_b in zip(levels, levels[1:]):
        for a, b in zip(run_a.snapshots, run_b.snapshots, strict=True):
            worst_up = max(worst_up, float(np.max(b.values - a.values)))
    worst_up = max(worst_up, traj.diagnostics["monotone_violation"])

    rep = check_comparison(config=SolveConfig(eps_fp=1e-10), tol=1e-6)
    ok = worst_up <= 1e-8 and rep.passed
    _gate(
        "C10 monotone-structure",
        ok,
        f"worst inter-level increase {worst_up:.2e} (band 1e-8); "
        f"comparison margin {rep.margin:+.2e} (band 1e-6)",
    )


# ---------------------------------------------------------------------------
# C11 -- singular Gronwall lemma
# ---------------------------------------------------------------------------

def test_c11_gronwall_mittag_leffler():
    rep_exp = check_gronwall(GronwallInstance(a_const=2.0, m_const=1.5, alpha=0.0, t_end=1.0))
    rep_ml = check_gronwall(GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.5, t_end=1.0))
    rep_zero = check_gronwall(GronwallInstance(a_const=0.0, m_const=1.0, alpha=0.5, t_end=1.0))
    ok = rep_exp.passed and rep_ml.passed and rep_zero.passed
    detail = (
        f"alpha=0 rel dev {rep_exp.details['max_rel_dev']:.2e} (band 1e-6); "
        f"alpha=1/2 envelope margin {rep_ml.margin:+.2e} (band 1e-4); "
        f"A=0 sup {rep_zero.details['sup_psi']:.2e} (band 1e-12)"
    )
    _gate("C11 gronwall-mittag-leffler", ok, detail)


# ---------------------------------------------------------------------------
# C12 -- radial maxima sit at the origin; the Heaviside gap is exactly 1/2
# ---------------------------------------------------------------------------

def test_c12_argmax_and_heaviside():
    rep_max = check_max_at_origin(n_profiles=20)
    rep_step = check_heaviside_gap(times=(0.01, 1.0), tol=1e-3)
    ok = rep_max.passed and rep_step.passed
    gaps = rep_step.details["sup_gap"]
    detail = (
        f"argmax margin {rep_max.margin:+.2e} over 20 profiles; "
        + "; ".join(f"gap(t={t}) = {v:.6f}" for t, v in gaps.items())
    )
    _gate("C12 argmax-and-heaviside", ok, detail)


# ---------------------------------------------------------------------------
# C13 -- regularization and positive-part inequalities, exactly
# ---------------------------------------------------------------------------

def test_c13_gn_positive_part_suite():
    """Structural inequalities of g_n and the positive part on 10^4 samples.

    All pointwise claims are asserted with zero tolerance: each inequality
    carries a genuine analytic gap (the declared Lipschitz constant exceeds
    the true slope by the factor 1 + q, the knee contact is first order), so
    honest double arithmetic cannot flip them on generic samples.
    """
    rng = np.random.default_rng(20250815)
    r = np.concatenate([rng.uniform(0.0, 3.0, 5000), 10.0 ** rng.uniform(-8.0, 1.0, 5000)])
    s = np.concatenate([rng.uniform(0.0, 3.0, 5000), 10.0 ** rng.uniform(-8.0, 1.0, 5000)])
    failures = []
    for q in (0.3, 0.5, 0.8):
        for n in (1, 2, 7, 64):
            gr, gs = g_n(r, n, q), g_n(s, n, q)
            lip = Nonlinearity.regularized(q, n).lipschitz
            if not np.all(gr <= g_n(r, n + 1, q)):
                failures.append(f"g_n <= g_(n+1) at q={q}, n={n}")
            if not np.all(gr <= r**q):
                failures.append(f"g_n <= r^q at q={q}, n={n}")
            if not np.all(np.abs(gr - gs) <= lip * np.abs(r - s)):
                failures.append(f"lipschitz at q={q}, n={n}")
            if not np.all(positive_part(gr - gs) <= lip * positive_part(r - s)):
                failures.append(f"positive-part lipschitz at q={q}, n={n}")
        sup_gaps = [float(np.max(r**q - g_n(r, n, q))) for n in (1, 2, 4, 8, 16, 32, 64)]
        if not all(b < a for a, b in zip(sup_gaps, sup_gaps[1:])):
            failures.append(f"sup gap not decreasing at q={q}")
        if not np.all(positive_part(r**q - s**q) <= positive_part(r - s) ** q):
            failures.append(f"concave positive-part at q={q}")
    ok = not failures
    detail = "all inequalities exact on 10^4 samples" if ok else "; ".join(failures)
    _gate("C13 gn-positive-part-suite", ok, detail)


# ---------------------------------------------------------------------------
# C14 -- the coefficient recursion and its closed-form floor
# ---------------------------------------------------------------------------

def test_c14_ck_fixed_point():
    worst_gap = 0.0
    floor_ok = True
    for (q, g, n) in [(0.5, 0.0, 1), (0.5, 0.3, 1), (0.3, 0.5, 2)]:
        out = ck_sequence(q, g, n, c1=1.0, k_max=200)
        worst_gap = max(worst_gap, out["final_gap"])
        seq = out["sequence"]
        for k, ck in enumerate(seq, start=1):
            if ck < ck_lower_bound(q, g, n, 1.0, k):
                floor_ok = False
    ok = worst_gap <= 1e-6 and floor_ok
    _gate(
        "C14 ck-fixed-point",
        ok,
        f"worst gap to fixed point at k=200: {worst_gap:.2e}; floor respected: {floor_ok}",
    )
