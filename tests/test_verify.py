"""The check library: each inequality check on light instances, plus failure
and error paths."""

import threading
import tracemalloc

import numpy as np
import pytest

from singheat import scheme, semigroup, verify
from singheat import (
    CheckReport,
    GronwallInstance,
    Params,
    ParameterError,
    SolveConfig,
    check_comparison,
    check_gronwall,
    check_heaviside_gap,
    check_lambda_limit,
    check_lower_bound,
    check_max_at_origin,
    check_smoothing_exponent,
    check_subsolution,
    check_uniqueness_contraction,
    default_suite,
    gronwall_envelope,
    make_grid,
    monotone_solve,
    run_suite,
    standard_data,
    volterra_extremal,
)

LIGHT = SolveConfig(n_schedule=(1, 2, 4, 8))


def test_check_report_summary_and_json():
    rep = CheckReport(name="demo", passed=True, margin=0.0123, tolerance=1e-3, details={"k": 1})
    line = rep.summary_line()
    assert line.startswith("PASS demo margin=")
    assert "tol=" in line
    d = rep.as_json_dict()
    assert d["name"] == "demo" and d["passed"] is True and d["details"] == {"k": 1}
    bad = CheckReport(name="demo", passed=False, margin=-1.0, tolerance=1e-3)
    assert bad.summary_line().startswith("FAIL demo")


# ---------------------------------------------------------------------------
# Barrier checks
# ---------------------------------------------------------------------------

def test_subsolution_check_passes_at_reference_point():
    rep = check_subsolution(0.5, 0.3, 1, times=(0.25, 1.0))
    assert rep.passed
    assert rep.margin > 0


def test_subsolution_check_holds_no_stack():
    # the 2D check of the default suite writes its rows of w^q into the
    # operator's workspace batch by batch; a (32, 192, 192) stack of them
    # alone would be 9.4 MB (the peak was 19.2 MB while it held one).  Its
    # cosine transforms run the earlier axis one row at a time, so the
    # scratch holds one row's lines along it, not a batch's: 2.05 MB peak,
    # against 2.59 MB with a batch's
    tracemalloc.start()
    try:
        rep = check_subsolution(0.3, 0.5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 2.2e6


def test_subsolution_check_gamma_zero_equality_case():
    # at gamma = 0, q = 1/2 the barrier satisfies the integral relation with
    # equality, so the margin sits at numerical zero
    rep = check_subsolution(0.5, 0.0, 1, times=(0.5,))
    assert rep.passed
    assert abs(rep.margin) < 1e-4


def _per_node_subsolution_margins(dense_heat, q, gamma, n_dim, times=(0.25, 1.0), nodes=32):
    """The sub-solution check as one weighted apply per quadrature node, on
    the full grid, by the dense reference's sums."""
    from singheat import Params, duhamel_rule, make_grid, subsolution_w, weight_field
    from singheat.verify import _default_grid, _trusted_mask

    params = Params(q=q, gamma=gamma, n_dim=n_dim)
    grid = make_grid(n_dim, *_default_grid(n_dim))
    weight = weight_field(grid, gamma).values

    def apply(values, t, gamma):
        return dense_heat(grid, (values * weight)[None], [t])[0]

    out = {}
    for t in times:
        sigs, wts = duhamel_rule(0.0, float(t), gamma, nodes)
        acc = np.zeros(grid.shape)
        for s, w in zip(sigs, wts):
            ws = subsolution_w(grid, params, float(s)).values
            acc += w * apply(ws**q, float(t) - float(s), gamma)
        target = subsolution_w(grid, params, float(t)).values
        mask = _trusted_mask(grid, float(t))
        out[repr(float(t))] = float(np.min((acc - target)[mask]))
    return out


@pytest.mark.parametrize("name,args", [("subsolution", (0.5, 0.3, 1)), ("subsolution-2d", (0.3, 0.5, 2))])
def test_batched_subsolution_matches_per_node_sum(name, args, dense_heat):
    rep = default_suite()[name]()
    ref = _per_node_subsolution_margins(dense_heat, *args)
    got = rep.details["per_time_margin"]
    assert sorted(got) == sorted(ref)
    for key, value in ref.items():
        assert abs(got[key] - value) <= 1e-13


def test_lower_bound_check_light():
    rep = check_lower_bound(
        "zero", 0.5, 0.3, 1, times=(0.5, 1.0), half_width=12.0, points=256, config=LIGHT
    )
    assert rep.passed
    assert rep.margin > 0
    assert set(rep.details["per_time_margin"]) == {"0.5", "1.0"}


def test_comparison_check_light_and_data_ordering_guard():
    rep = check_comparison(
        "const:1",
        "bump",
        0.5,
        0.3,
        1,
        times=(0.5,),
        half_width=12.0,
        points=128,
        config=SolveConfig(eps_fp=1e-10, n_schedule=(1, 2, 4)),
    )
    assert rep.passed
    with pytest.raises(ParameterError):
        check_comparison("bump", "const:1", 0.5, 0.3, 1, times=(0.5,), points=128)


# ---------------------------------------------------------------------------
# Gronwall machinery
# ---------------------------------------------------------------------------

def _reference_volterra(inst):
    """The product-integration recursion of volterra_extremal, solved one
    node at a time."""
    from singheat import SeriesRangeError

    a_c, m_c, al = inst.a_const, inst.m_const, inst.alpha
    n = inst.steps
    dt = inst.t_end / n
    e1, e2 = 1.0 - al, 2.0 - al
    m_idx = np.arange(1, n + 1, dtype=float)
    s0 = (m_idx - 1.0) * dt
    s1 = m_idx * dt
    p1 = (s1**e1 - s0**e1) / e1
    p2 = (s1**e2 - s0**e2) / e2
    w_at_j = (p2 - s0 * p1) / dt
    w_at_j1 = (s1 * p1 - p2) / dt
    psi = np.empty(n + 1)
    psi[0] = a_c
    diag = m_c * w_at_j1[0]
    with np.errstate(over="raise"):
        try:
            for i in range(1, n + 1):
                # psi_{i-m} against w_at_j[m-1], m = 1..i, and psi_{i-m+1}
                # against w_at_j1[m-1], m = 2..i: reversed views of psi
                known = float(
                    np.dot(psi[i - 1 :: -1], w_at_j[:i]) + np.dot(psi[i - 1 : 0 : -1], w_at_j1[1:i])
                )
                psi[i] = (a_c + m_c * known) / (1.0 - diag)
        except FloatingPointError:
            raise SeriesRangeError(f"extremal solution left the range near t = {i * dt:.3g}") from None
    return psi


@pytest.mark.parametrize("steps", [8, 127, 128, 129, 1000, 2048])
@pytest.mark.parametrize("alpha,m", [(0.0, 1.0), (0.3, 1.0), (0.5, 1.0), (0.8, 0.3)])
def test_blocked_volterra_matches_the_recursion(alpha, m, steps):
    inst = GronwallInstance(a_const=1.0, m_const=m, alpha=alpha, t_end=1.0, steps=steps)
    t, psi = volterra_extremal(inst)
    assert t.shape == psi.shape == (steps + 1,)
    np.testing.assert_allclose(psi, _reference_volterra(inst), rtol=1e-12, atol=0)


def test_blocked_volterra_zero_data_and_overflow():
    from singheat import SeriesRangeError

    _, psi = volterra_extremal(GronwallInstance(a_const=0.0, m_const=1.0, alpha=0.5, t_end=1.0))
    assert np.all(psi == 0.0)
    # psi grows like exp(800 t) and leaves the double range at the same node
    # in both solves
    inst = GronwallInstance(a_const=1.0, m_const=800.0, alpha=0.0, t_end=1.0)
    with pytest.raises(SeriesRangeError, match=r"near t = 0\.876\b"):
        _reference_volterra(inst)
    with pytest.raises(SeriesRangeError, match=r"near t = 0\.876\b"):
        volterra_extremal(inst)


def test_volterra_alpha_zero_matches_exponential():
    inst = GronwallInstance(a_const=2.0, m_const=1.5, alpha=0.0, t_end=1.0)
    t, psi = volterra_extremal(inst)
    ref = 2.0 * np.exp(1.5 * t)
    assert np.max(np.abs(psi - ref) / ref) < 1e-6


def test_gronwall_envelope_half_order_reference():
    inst = GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.5, t_end=1.0)
    env = gronwall_envelope(inst, np.array([1.0]))
    # E_{1/2}(sqrt(pi)) = e^pi (1 + erf(sqrt pi)) evaluated directly
    import math

    z = math.sqrt(math.pi)
    ref = math.exp(z * z) * (1 + math.erf(z))
    assert env[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha,m", [(0.0, 1.0), (0.3, 1.0), (0.5, 1.0), (0.8, 0.3)])
def test_gronwall_check_across_orders(alpha, m):
    rep = check_gronwall(GronwallInstance(a_const=1.0, m_const=m, alpha=alpha, t_end=1.0))
    assert rep.passed
    assert rep.name == f"gronwall_a{alpha:g}"


def test_gronwall_envelope_overflow_is_reported():
    # alpha near 1 drives the envelope to exp(z^{1/(1-alpha)}), beyond double
    # range already for M = 1 on [0, 1]; the range error must surface
    from singheat import SeriesRangeError

    with pytest.raises(SeriesRangeError):
        check_gronwall(GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.8, t_end=1.0))


def _series_mittag_leffler(sigma, z):
    """Scalar Mittag-Leffler series, one term at a time in log space."""
    import math

    if z == 0.0:
        return 1.0
    ln_az = math.log(abs(z))
    n_peak = int(abs(z) ** (1.0 / sigma)) + 2
    total, n = 1.0, 1
    while True:
        term = math.exp(n * ln_az - math.lgamma(n * sigma + 1.0))
        if z < 0.0 and n % 2 == 1:
            term = -term
        total += term
        if abs(term) < 1e-14 * (1.0 + abs(total)) and n >= n_peak:
            return total
        n += 1


@pytest.mark.parametrize("name", ["gronwall-exp", "gronwall-singular", "gronwall-zero"])
def test_array_mittag_leffler_matches_the_scalar_series(name, monkeypatch):
    import math
    import warnings

    from singheat import mittag_leffler, verify

    # the instance of each default check, caught on its way into the check
    caught = []
    monkeypatch.setattr(verify, "check_gronwall", lambda inst=None, tol=None: caught.append(inst))
    default_suite()[name]()
    (inst,) = caught
    t, _ = volterra_extremal(inst)
    sig = 1.0 - inst.alpha
    z = inst.m_const * math.gamma(sig) * t**sig
    assert z[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log(0) or 0 * inf on the way
        got = mittag_leffler(sig, z)
        neg = mittag_leffler(sig, -z)
    ref = np.array([_series_mittag_leffler(sig, float(v)) for v in z])
    ref_neg = np.array([_series_mittag_leffler(sig, -float(v)) for v in z])
    assert got[0] == 1.0
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(neg, ref_neg, rtol=1e-14, atol=1e-15)
    if inst.a_const:
        np.testing.assert_allclose(gronwall_envelope(inst, t), inst.a_const * ref, rtol=1e-14)


def test_array_mittag_leffler_keeps_the_range_guards():
    from singheat import SeriesRangeError, mittag_leffler

    assert isinstance(mittag_leffler(0.5, 1.0), float)
    assert mittag_leffler(0.7, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
    for bad in (np.array([1.0, 51.0]), np.array([0.5, np.nan]), np.array([np.inf])):
        with pytest.raises(SeriesRangeError):
            mittag_leffler(1.0, bad)
    with pytest.raises(SeriesRangeError):
        mittag_leffler(0.1, np.array([0.5, 40.0]))  # one point's terms overflow


def test_gronwall_zero_data_stays_zero():
    rep = check_gronwall(GronwallInstance(a_const=0.0, m_const=2.0, alpha=0.5, t_end=1.0))
    assert rep.passed
    assert rep.details["sup_psi"] == 0.0


def test_gronwall_instance_validation():
    with pytest.raises(ParameterError):
        GronwallInstance(a_const=1.0, m_const=1.0, alpha=1.0, t_end=1.0)
    with pytest.raises(ParameterError):
        GronwallInstance(a_const=-1.0, m_const=1.0, alpha=0.5, t_end=1.0)
    with pytest.raises(ParameterError):
        GronwallInstance(a_const=1.0, m_const=1.0, alpha=0.5, t_end=0.0)


# ---------------------------------------------------------------------------
# Kernel structure checks
# ---------------------------------------------------------------------------

def test_max_at_origin_passes_and_is_deterministic():
    a = check_max_at_origin(n_profiles=6, points=256)
    b = check_max_at_origin(n_profiles=6, points=256)
    assert a.passed and b.passed
    assert a.margin == b.margin  # seeded profiles


def test_max_at_origin_uses_its_3d_grid_as_given():
    rep = check_max_at_origin(n_profiles=2, n_dim=3, points=128)
    assert rep.details["grid"] == [3, 10.0, 128]
    rep = check_max_at_origin(n_profiles=2, n_dim=1, points=256)
    assert rep.details["grid"] == [1, 10.0, 256]


def test_max_at_origin_flags_increasing_profiles():
    # a profile rising away from the origin violates the hypothesis and must
    # be rejected up front, not silently averaged
    with pytest.raises(ParameterError):
        check_max_at_origin(profiles=[lambda r: r / (1 + r)], points=256)


def test_heaviside_gap_light():
    rep = check_heaviside_gap(times=(0.5,), half_width=6.0, points=4096)
    assert rep.passed
    assert all(v < 0.5 for v in rep.details["sup_gap"].values())


def test_heaviside_gap_memory():
    # the default check at 1D M = 32768 peaks while it prepares its t = 1
    # operator (Q = M): the datum (M floats), the operator's twiddles (M/2
    # + 1 complex values each way) and the kernel build's samples and
    # wrapped kernel (2M floats each): seven M floats in all (1.84 MB)
    points = 32768
    tracemalloc.start()
    try:
        rep = check_heaviside_gap(points=points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 7 * 8 * points + 2**16


def test_smoothing_exponent_light():
    rep = check_smoothing_exponent(gamma=0.4, n_dim=1)
    assert rep.passed
    assert rep.details["slope"] == pytest.approx(rep.details["expected_slope"], abs=0.02)
    assert rep.details["intercept"] == pytest.approx(rep.details["expected_intercept"], rel=0.05)


@pytest.mark.parametrize("gamma", [0.3, 0.4])
def test_smoothing_fit_is_numpys_least_squares_line(gamma):
    # the check fits its line in closed form, with no LAPACK call; on the
    # check's own data that is np.polyfit's line
    rep = check_smoothing_exponent(gamma=gamma, n_dim=1)
    prop = semigroup.HeatPropagator(make_grid(1, 24.0, 2048))
    times = rep.details["times"]
    vals = [prop.apply_weighted_values(np.ones(prop.shape), t, gamma)[0] for t in times]
    slope, intercept = np.polyfit(np.log(times), np.log(vals), 1)
    assert abs(rep.details["slope"] - slope) <= 1e-12
    assert abs(rep.details["intercept"] - intercept) <= 1e-12


# ---------------------------------------------------------------------------
# Threshold checks
# ---------------------------------------------------------------------------

def test_lambda_limit_passes_on_extended_sequence():
    rep = check_lambda_limit(0.5, 1, gammas=(0.1, 0.01, 0.001, 0.0001))
    assert rep.passed


def test_lambda_limit_linear_rate_blocks_coarse_sequences():
    # the approach to q is linear with slope ~3.5 q, so at gamma = 1e-3 the
    # deviation is ~1.76e-3 for q = 1/2 and a 1e-3 band cannot close
    rep = check_lambda_limit(0.5, 1, gammas=(0.1, 0.01, 0.001))
    assert not rep.passed
    assert rep.details["deviations"][-1] > 1e-3


def test_lambda_limit_rejects_non_decreasing_gammas():
    with pytest.raises(ParameterError):
        check_lambda_limit(0.5, 1, gammas=(0.01, 0.1))
    with pytest.raises(ParameterError):
        check_lambda_limit(0.5, 1, gammas=(0.1,))


def test_uniqueness_contraction_light():
    rep = check_uniqueness_contraction(
        0.5, 0.1, 1, points=128, config=SolveConfig(n_schedule=(1, 2, 4, 8))
    )
    assert rep.passed
    assert rep.details["lambda"] < 1.0


def test_uniqueness_contraction_requires_subthreshold_gamma():
    with pytest.raises(ParameterError):
        check_uniqueness_contraction(0.5, 0.3, 1, points=128)  # lambda = 1.48 >= 1


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def test_default_suite_names_are_stable():
    names = set(default_suite())
    assert {
        "subsolution",
        "lower-bound",
        "comparison",
        "gronwall-singular",
        "max-at-origin",
        "heaviside",
        "smoothing",
        "lambda-limit",
        "uniqueness",
    } <= names


def test_run_suite_subset_sorted_and_passing():
    reports = run_suite(["max-at-origin", "gronwall-exp", "heaviside"])
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    assert len(reports) == 3
    assert all(r.passed for r in reports)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ParameterError):
        run_suite(["no-such-check"])


def test_default_suite_selects_names_and_names_the_unknown():
    assert list(default_suite(["heaviside", "gronwall-exp"])) == ["heaviside", "gronwall-exp"]
    assert default_suite(()).keys() == default_suite().keys()
    with pytest.raises(ParameterError, match=r"\['nope', 'nix'\]"):
        default_suite(["heaviside", "nope", "nix"])


def test_run_suite_converts_crashes_to_failing_reports(monkeypatch):
    import singheat.verify as verify_mod

    def broken_suite(names=None):
        return {"boom": lambda: 1 / 0}

    monkeypatch.setattr(verify_mod, "default_suite", broken_suite)
    reports = verify_mod.run_suite(["boom"])
    assert len(reports) == 1
    assert not reports[0].passed
    assert "ZeroDivisionError" in reports[0].details["error"]


def test_run_suite_matches_direct_calls():
    # the nine light checks of the benchmark suite, through run_suite and
    # called one by one
    names = [
        "gronwall-exp", "gronwall-singular", "gronwall-zero", "heaviside", "lambda-limit",
        "max-at-origin", "smoothing", "subsolution", "subsolution-2d",
    ]
    suite = default_suite()
    direct = [suite[name]() for name in names]
    reports = run_suite(names)
    assert all(r.passed for r in direct)
    assert [r.name for r in reports] == names
    for a, b in zip(direct, reports):
        assert a.margin == b.margin


def _fake_suite(monkeypatch, suite):
    monkeypatch.setattr(
        verify, "default_suite", lambda selected=None: {n: suite[n] for n in selected}
    )


def test_run_suite_runs_each_check_once_on_the_calling_thread(monkeypatch):
    # in name order, on the caller's thread, and no thread is started
    names = [f"c{k}" for k in range(5)]
    ran = []

    def check(name):
        ran.append((name, threading.get_ident()))
        return CheckReport("unnamed", True, 1.0, 0.0)

    def refuse(self):
        raise AssertionError("a thread was started")

    _fake_suite(monkeypatch, {n: (lambda n=n: check(n)) for n in names})
    monkeypatch.setattr(threading.Thread, "start", refuse)
    reports = run_suite(names[::-1])
    assert ran == [(n, threading.get_ident()) for n in names]
    assert [r.name for r in reports] == names


def test_run_suite_reports_a_middle_checks_error_in_its_place(monkeypatch):
    ran = []

    def ok(name):
        ran.append(name)
        return CheckReport("unnamed", True, 1.0, 0.0)

    def boom():
        ran.append("b")
        raise RuntimeError("boom")

    _fake_suite(monkeypatch, {"a": lambda: ok("a"), "b": boom, "c": lambda: ok("c")})
    reports = run_suite(["c", "b", "a"])
    assert ran == ["a", "b", "c"]
    assert [r.name for r in reports] == ["a", "b", "c"]
    assert [r.passed for r in reports] == [True, False, True]
    assert reports[1].details == {"error": "RuntimeError: boom"}
    assert reports[1].margin == -np.inf


def test_run_suite_lets_a_keyboard_interrupt_propagate(monkeypatch):
    ran = []

    def interrupt():
        raise KeyboardInterrupt

    _fake_suite(monkeypatch, {"a": interrupt, "b": lambda: ran.append("b")})
    with pytest.raises(KeyboardInterrupt):
        run_suite(["a", "b"])
    assert ran == []


@pytest.mark.parametrize(
    "caller,count",
    [
        pytest.param(lambda: check_subsolution(0.5, 0.3, 1, points=256), 1, id="subsolution"),
        pytest.param(lambda: check_subsolution(0.3, 0.5, 2, points=48), 1, id="subsolution-2d"),
        pytest.param(lambda: check_max_at_origin(n_profiles=2, points=128), 1, id="max-at-origin"),
        pytest.param(lambda: check_smoothing_exponent(0.3, 1, points=512), 1, id="smoothing"),
        pytest.param(lambda: check_heaviside_gap(points=1024, tol=1.0), 2, id="heaviside"),
        pytest.param("zero", 1, id="zero"),
        pytest.param("bump", 1, id="bump"),
    ],
)
def test_each_caller_builds_one_propagator_on_its_grid(caller, count, monkeypatch):
    # every check and every solve holds its fields on the orthant of
    # HeatPropagator(grid), which takes no route argument: one for a solve's
    # whole ladder and for each radial check, one per time for the
    # heaviside check, whose apply_heat calls free theirs between times
    built = []

    class Spy(semigroup.HeatPropagator):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    for module in (semigroup, scheme, verify):
        monkeypatch.setattr(module, "HeatPropagator", Spy)
    if isinstance(caller, str):
        g = make_grid(1, 8.0, 64)
        cfg = SolveConfig(n_schedule=(1, 2))
        monotone_solve(standard_data(g, caller), Params(0.5, 0.3, 1), 0.25, cfg)
    else:
        assert caller().passed
    assert len(built) == count
