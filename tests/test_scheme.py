"""Regularized nonlinearity, time meshes, and the Picard / monotone solvers."""

import io
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singheat import (
    ConvergenceError,
    GridFunction,
    HeatPropagator,
    Nonlinearity,
    ParameterError,
    Params,
    SolveConfig,
    TimeMesh,
    Trajectory,
    apply_heat,
    contraction_window,
    duhamel_rule,
    g_n,
    make_grid,
    mirrored,
    monotone_solve,
    orthant,
    picard_solve,
    positive_part,
    standard_data,
    subsolution_coefficient,
    subsolution_w,
    sup_norm,
    weight_field,
)
from singheat import scheme
from singheat.constants import ck_fixed_point, eta1
from singheat.scheme import _window_plan


# ---------------------------------------------------------------------------
# g_n
# ---------------------------------------------------------------------------

@given(r=st.floats(0.0, 100.0), n=st.integers(1, 512), q=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_g_n_pinched_between_zero_and_power(r, n, q):
    val = float(g_n(r, n, q))
    assert 0.0 <= val <= r**q + 1e-15
    if r >= 0.5 / n:
        assert val == pytest.approx(r**q, rel=1e-15)


def test_g_n_continuous_at_the_knee():
    for n, q in [(1, 0.5), (7, 0.3), (64, 0.9)]:
        knee = 0.5 / n
        below = float(g_n(knee * (1 - 1e-12), n, q))
        above = float(g_n(knee * (1 + 1e-12), n, q))
        assert below == pytest.approx(above, rel=1e-9)
        assert float(g_n(knee, n, q)) == pytest.approx(knee**q, rel=1e-14)


def test_g_n_monotone_in_r_and_n():
    r = np.linspace(0.0, 2.0, 4001)
    for q in (0.3, 0.5, 0.8):
        for n in (1, 4, 32):
            a = g_n(r, n, q)
            assert np.all(np.diff(a) >= 0.0)
            assert np.all(g_n(r, 2 * n, q) >= a - 1e-15)


@given(
    a=st.floats(0.0, 50.0),
    b=st.floats(0.0, 50.0),
    n=st.integers(1, 128),
    q=st.floats(0.1, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_g_n_lipschitz_with_declared_constant(a, b, n, q):
    lip = Nonlinearity.regularized(q, n).lipschitz
    assert abs(float(g_n(a, n, q)) - float(g_n(b, n, q))) <= lip * abs(a - b) + 1e-12


def test_g_n_sup_gap_closed_form_and_decay():
    # max_r (r^q - g_n(r)) = (q^{q/(1-q)} - q^{1/(1-q)}) (2n)^{-q}, attained
    # inside the linear piece; the gap is what vanishes along the ladder
    r = np.linspace(0.0, 1.0, 2_000_001)
    q = 0.5
    gaps = []
    for n in (1, 2, 4, 8):
        gap = float(np.max(r**q - g_n(r, n, q)))
        closed = (q ** (q / (1 - q)) - q ** (1 / (1 - q))) * (2 * n) ** (-q)
        assert gap == pytest.approx(closed, rel=1e-6)
        gaps.append(gap)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_g_n_is_the_branch_formula_to_an_ulp(q):
    # the smaller of line and power against the branch-by-branch formula:
    # equal to an ulp at the knee, bit for bit away from it
    for n in (1, 3, 64, 1024):
        knee = 0.5 / n
        slope = (2.0 * n) ** (1.0 - q)
        r = np.concatenate((
            [0.0, knee],
            np.linspace(0.0, 3.0 * knee, 30_001),
            knee * (1.0 + np.arange(-2000, 2001) * 2.0**-52),
        ))
        branch = np.where(r <= knee, slope * r, np.maximum(r, knee) ** q)
        got = g_n(r, n, q)
        np.testing.assert_array_max_ulp(got, branch, maxulp=1)
        far = np.abs(r - knee) > 1e-9 * knee
        np.testing.assert_array_equal(got[far], branch[far])


def test_g_n_rejects_negative_input():
    with pytest.raises(ParameterError):
        g_n(-0.1, 4, 0.5)
    with pytest.raises(ParameterError):
        g_n(np.array([0.5, -1e-9]), 4, 0.5)


# ---------------------------------------------------------------------------
# Positive-part comparison lemmas
# ---------------------------------------------------------------------------

@given(
    a=st.floats(0.0, 20.0),
    b=st.floats(0.0, 20.0),
    n=st.integers(1, 64),
    q=st.floats(0.1, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_positive_diff_of_g_n_is_lipschitz_dominated(a, b, n, q):
    lip = Nonlinearity.regularized(q, n).lipschitz
    lhs = max(float(g_n(a, n, q) - g_n(b, n, q)), 0.0)
    rhs = lip * max(a - b, 0.0)
    assert lhs <= rhs + 1e-12


@given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0), q=st.floats(0.1, 0.9))
@settings(max_examples=200, deadline=None)
def test_positive_diff_of_powers_is_concavity_dominated(a, b, q):
    # [a^q - b^q]_+ <= ([a - b]_+)^q, the subadditivity of concave powers
    lhs = max(a**q - b**q, 0.0)
    rhs = max(a - b, 0.0) ** q
    assert lhs <= rhs + 1e-12


def test_positive_part_basics():
    np.testing.assert_array_equal(positive_part([-1.0, 0.0, 2.5]), [0.0, 0.0, 2.5])


# ---------------------------------------------------------------------------
# Nonlinearity wrapper
# ---------------------------------------------------------------------------

def test_nonlinearity_kinds():
    reg = Nonlinearity.regularized(0.5, 4)
    pow_ = Nonlinearity.power(0.5)
    zero = Nonlinearity.zero()
    vals = np.array([0.0, 0.01, 1.0, 4.0])
    np.testing.assert_allclose(reg(vals), g_n(vals, 4, 0.5))
    np.testing.assert_allclose(pow_(vals), vals**0.5)
    np.testing.assert_array_equal(zero(vals), 0.0)
    for nl in (reg, pow_, zero):
        out = np.full_like(vals, np.nan)
        assert nl(vals, out=out) is out
        np.testing.assert_array_equal(out, nl(vals))
    assert reg.lipschitz == pytest.approx(1.5 * 8**0.5)
    assert pow_.lipschitz is None
    assert zero.lipschitz == 0.0
    with pytest.raises(ParameterError):
        Nonlinearity(kind="cubic")


# ---------------------------------------------------------------------------
# Sub-solution barrier
# ---------------------------------------------------------------------------

def test_subsolution_coefficient_matches_fixed_point():
    # one formula: the barrier's coefficient is the recursion's fixed point
    for q, gamma, n_dim in [(0.5, 0.3, 1), (0.3, 0.5, 2), (0.8, 0.0, 3)]:
        p = Params(q=q, gamma=gamma, n_dim=n_dim)
        assert subsolution_coefficient(p) == ck_fixed_point(q, gamma, n_dim)


def test_subsolution_shape():
    g = make_grid(1, 8.0, 256)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    w0 = subsolution_w(g, p, 0.0)
    assert np.all(w0.values == 0.0)
    w1 = subsolution_w(g, p, 1.0)
    assert np.all(w1.values > 0.0)
    # radially non-increasing: check along the positive half axis
    half = w1.values[128:]
    assert np.all(np.diff(half) <= 0.0)
    # increasing in time at every node
    w2 = subsolution_w(g, p, 2.0)
    assert np.all(w2.values > w1.values)


def test_subsolution_gamma_zero_is_spatially_flat():
    g = make_grid(1, 8.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    w = subsolution_w(g, p, 1.0)
    np.testing.assert_allclose(w.values, 0.25, rtol=1e-14)  # (1-q)^{1/(1-q)} t^2 at t=1


# ---------------------------------------------------------------------------
# Quadrature in time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "gamma,rel",
    [(0.0, 1e-14), (0.3, 5e-5), (1.0, 1e-12), (1.7, 5e-5)],
)
def test_duhamel_rule_reproduces_singular_moment(gamma, rel):
    # integral of sigma (t - sigma)^{-gamma/2} over (0, t) equals
    # B(2, 1 - gamma/2) t^{2 - gamma/2}.  The grading substitution makes the
    # transformed integrand polynomial when 2/(2-gamma) is an integer (gamma
    # 0 or 1: machine exact); otherwise the s^p endpoint factor limits
    # Gauss-Legendre to an algebraic rate, still ~1e-5 at 8 nodes
    t = 0.7
    sig, w = duhamel_rule(0.0, t, gamma, 8)
    approx = float(np.sum(w * sig * (t - sig) ** (-gamma / 2)))
    b2 = 1.0 / ((1 - gamma / 2) * (2 - gamma / 2))
    exact = b2 * t ** (2 - gamma / 2)
    assert approx == pytest.approx(exact, rel=rel)


def test_duhamel_rule_converges_with_node_count():
    t, gamma = 0.7, 0.3
    b2 = 1.0 / ((1 - gamma / 2) * (2 - gamma / 2))
    exact = b2 * t ** (2 - gamma / 2)
    errs = []
    for nn in (8, 16, 32):
        sig, w = duhamel_rule(0.0, t, gamma, nn)
        approx = float(np.sum(w * sig * (t - sig) ** (-gamma / 2)))
        errs.append(abs(approx - exact) / exact)
    assert errs[2] < errs[0] / 100


def test_duhamel_rule_survives_extreme_grading():
    # gamma near 2 drives p = 2/(2-gamma) high enough that raw s^p would
    # round nodes onto the window end; the rule must keep them interior
    sig, w = duhamel_rule(0.0, 0.7, 1.7, 32)
    assert sig[-1] < 0.7
    assert np.all(np.diff(sig) > 0)
    assert np.all(w > 0)
    # a window plan at that grading: every quadrature row has a
    # non-negative lag (prepare rejects others), one owning target and a
    # positive weight
    free_op, sweep = _window_plan(HeatPropagator(make_grid(1, 8.0, 64)), 0.25, 1.7, 32)
    assert sweep.weights.shape[0] == free_op.mix.shape[0] == sweep.mix.shape[1] - 1
    assert np.all((sweep.weights > 0).sum(axis=0) == 1)
    assert np.all(sweep.weights >= 0)


def test_duhamel_rule_nodes_interior_ascending_weights_positive():
    sig, w = duhamel_rule(0.25, 1.0, 0.8, 12)
    assert np.all(np.diff(sig) > 0)
    assert sig[0] > 0.25 and sig[-1] < 1.0
    assert np.all(w > 0)


def test_duhamel_rule_validation():
    with pytest.raises(ParameterError):
        duhamel_rule(1.0, 0.5, 0.3, 8)
    with pytest.raises(ParameterError):
        duhamel_rule(0.0, 1.0, 2.0, 8)
    with pytest.raises(ParameterError):
        duhamel_rule(0.0, 1.0, 0.3, 0)


def test_contraction_window_formula():
    g, lip, e1 = 0.4, 3.0, 1.2
    w = contraction_window(g, lip, e1, theta=0.5)
    e = 1 - g / 2
    # one sweep over a window of length w amplifies by exactly theta
    assert lip * e1 * w**e / e == pytest.approx(0.5, rel=1e-12)
    assert contraction_window(0.3, 0.0, 1.0) == math.inf
    with pytest.raises(ParameterError):
        contraction_window(0.3, 1.0, 1.0, theta=1.5)


# ---------------------------------------------------------------------------
# TimeMesh
# ---------------------------------------------------------------------------

def test_time_mesh_covers_and_includes_records():
    mesh = TimeMesh.build(1.0, 0.22, must_include=(0.5, 0.77))
    bs = mesh.boundaries
    assert bs[0] == 0.0 and bs[-1] == 1.0
    assert all(b > a for a, b in zip(bs, bs[1:]))
    assert any(abs(b - 0.5) < 1e-12 for b in bs)
    assert any(abs(b - 0.77) < 1e-12 for b in bs)
    # no window exceeds the requested length
    assert max(b - a for a, b in zip(bs, bs[1:])) <= 0.22 * (1 + 1e-9)
    assert mesh.window_count == len(bs) - 1
    # the record times become boundaries once, in build: times within
    # 1e-12 t_end of each other are one, a time within it of t_end is
    # t_end, and t_end is always the last record
    assert mesh.records == (0.5, 0.77, 1.0)
    close = TimeMesh.build(1.0, 0.22, must_include=(0.77, 0.5, 0.5 + 1e-13, 1.0 - 1e-13))
    assert close.records == (0.5 + 1e-13, 0.77, 1.0)
    assert set(close.records) <= set(close.boundaries)
    assert TimeMesh.build(1.0, 0.22).records == (1.0,)


def test_time_mesh_window_longer_than_horizon_is_clamped():
    mesh = TimeMesh.build(0.1, 5.0)
    assert mesh.boundaries == (0.0, 0.1)

def test_time_mesh_rejects_bad_records():
    with pytest.raises(ParameterError):
        TimeMesh.build(1.0, 0.25, must_include=(1.5,))
    with pytest.raises(ParameterError):
        TimeMesh.build(1.0, 0.25, must_include=(0.0,))
    with pytest.raises(ParameterError):
        TimeMesh.build(1.0, 0.25, must_include=(-0.2,))
    with pytest.raises(ParameterError, match="record time nan"):
        TimeMesh.build(1.0, 0.25, must_include=(0.5, math.nan))
    # a mesh whose records are not boundaries after 0 is refused
    mesh = TimeMesh.build(1.0, 0.25)
    for bad in ((0.33,), (0.0,), (0.5, 1.5)):
        with pytest.raises(ParameterError, match="not all boundaries"):
            replace(mesh, records=bad)


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------

def test_picard_zero_source_is_plain_heat():
    g = make_grid(1, 10.0, 256)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "bump:2")
    mesh = TimeMesh.build(1.0, 0.25)
    traj = picard_solve(u0, Nonlinearity.zero(), p, mesh)
    ref = apply_heat(u0, 1.0)
    assert sup_norm(ref.with_values(traj.snapshot_at(1.0).values - ref.values)) < 1e-12


def test_picard_flat_data_follows_the_ode():
    # gamma = 0, spatially constant data: the PDE collapses to u' = u^q with
    # u(t) = (u0^{1-q} + (1-q) t)^{1/(1-q)}; q = 1/2, u0 = 1 gives (1 + t/2)^2
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    nl = Nonlinearity.regularized(0.5, 1)  # data >= 1 stays beyond the knee
    w = min(0.25, contraction_window(0.0, nl.lipschitz, eta1(0.0, 1)))
    mesh = TimeMesh.build(1.0, w, must_include=(0.5, 1.0))
    traj = picard_solve(u0, nl, p, mesh)
    assert traj.times == (0.0, 0.5, 1.0)
    x = g.axis_nodes()
    mid = np.abs(x) < 2.0
    for t in (0.5, 1.0):
        got = traj.snapshot_at(t).values[mid]
        exact = (1 + t / 2) ** 2
        assert np.max(np.abs(got - exact)) < 1e-5


def test_picard_iterates_rise_to_the_limit():
    # tightening eps_fp raises the computed field on this march: each window
    # starts below its fixed point (from the free term, or from it plus the
    # Duhamel parts of earlier windows, extrapolated linearly), and the
    # monotone map keeps its iterates below it.  An extrapolated start may
    # in general lie on either side of the fixed point; the window's
    # contraction bounds the stopped iterate's distance either way
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    nl = Nonlinearity.regularized(0.5, 1)
    mesh = TimeMesh.build(1.0, 0.25)
    loose = picard_solve(u0, nl, p, mesh, SolveConfig(eps_fp=1e-4))
    tight = picard_solve(u0, nl, p, mesh, SolveConfig(eps_fp=1e-10))
    a = loose.snapshot_at(1.0).values
    b = tight.snapshot_at(1.0).values
    assert np.all(b >= a - 1e-12)
    assert float(np.max(b - a)) < 1e-3


def test_picard_rejects_mismatched_mesh_and_records():
    g = make_grid(1, 8.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    u0 = standard_data(g, "zero")
    mesh = TimeMesh.build(1.0, 0.25)
    with pytest.raises(ParameterError):
        picard_solve(u0, Nonlinearity.zero(), p, replace(mesh, records=(0.33,)))
    neg = u0.with_values(np.full(g.shape, -1.0))
    with pytest.raises(ParameterError):
        picard_solve(neg, Nonlinearity.zero(), p, mesh)
    # same shape, other spacing: its plans would be silently wrong here
    other = HeatPropagator(make_grid(1, 12.0, 64))
    with pytest.raises(ParameterError):
        picard_solve(u0, Nonlinearity.zero(), p, mesh, propagator=other)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solves_reject_non_finite_data_before_any_sweep(bad, monkeypatch):
    # one NaN or inf node is refused up front, with no plan built, no sweep
    # run and no RuntimeWarning, by the Picard march and by the ladder
    g = make_grid(1, 8.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    values = standard_data(g, "bump").values.copy()
    values[5] = bad
    u0 = GridFunction(g, values)

    def no_plan(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(scheme, "_window_plan", no_plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite"):
            picard_solve(u0, Nonlinearity.regularized(0.5, 2), p, TimeMesh.build(0.5, 0.25))
        with pytest.raises(ParameterError, match="finite"):
            monotone_solve(u0, p, 0.5, SolveConfig(n_schedule=(1, 2)))


def test_solves_refuse_params_of_another_dimension(monkeypatch):
    # 1D parameters on a 2D grid would size the windows with the 1D eta1 and
    # write a sidecar stating both dimensions: the Picard march and the
    # ladder refuse them before any plan
    g = make_grid(2, 8.0, 32)
    u0 = standard_data(g, "bump")

    def no_plan(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(scheme, "_window_plan", no_plan)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    with pytest.raises(ParameterError, match="n_dim"):
        picard_solve(u0, Nonlinearity.regularized(0.5, 2), p, TimeMesh.build(0.5, 0.25))
    with pytest.raises(ParameterError, match="n_dim"):
        monotone_solve(u0, p, 0.5, SolveConfig(n_schedule=(1, 2)))


def test_picard_keeps_snapshots_at_zero_and_its_records_only():
    # a march of several windows keeps u0 and the field at the mesh's
    # records, here t_end alone: not one snapshot per window boundary
    g = make_grid(1, 8.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    nl = Nonlinearity.regularized(0.5, 4)
    w = min(0.25, contraction_window(0.3, nl.lipschitz, eta1(0.3, 1)))
    mesh = TimeMesh.build(0.5, w)
    assert mesh.window_count >= 3
    traj = picard_solve(standard_data(g, "bump"), nl, p, mesh)
    assert traj.times == (0.0, 0.5)
    every = picard_solve(standard_data(g, "bump"), nl, p, _every_boundary(mesh))
    assert every.times == mesh.boundaries
    np.testing.assert_array_equal(traj.snapshots[-1].values, every.snapshots[-1].values)


def _every_boundary(mesh):
    """mesh, recording a snapshot at every window end."""
    return replace(mesh, records=mesh.boundaries[1:])


def test_picard_mirror_propagator_rejects_asymmetric_data():
    # a one-sided datum (the indicator of x > 0) is refused, with a
    # propagator handed over or without one
    g = make_grid(1, 8.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    mesh = TimeMesh.build(0.5, 0.25)
    nl = Nonlinearity.regularized(0.5, 2)
    one_sided = GridFunction(g, (g.axis_nodes() > 0.0).astype(float))
    for prop in (HeatPropagator(g), None):
        with pytest.raises(ParameterError, match="mirror-symmetric"):
            picard_solve(one_sided, nl, p, mesh, propagator=prop)


class _DenseFullGrid:
    """A stand-in for a propagator whose operators are the dense
    reference's sums on the full grid: it takes and returns orthant fields,
    as the solver holds them, mirrors each onto the full grid, sums it
    there and cuts the result back to the orthant."""

    def __init__(self, grid, dense_heat):
        self.grid, self._heat = grid, dense_heat
        self.shape = (grid.points_per_axis // 2,) * grid.n_dim

    def weight_values(self, gamma):
        return orthant(weight_field(self.grid, gamma).values)

    def prepare(self, t, weights=None, mix=None):
        return SimpleNamespace(times=np.asarray(t, dtype=float), weights=weights, mix=mix)

    def apply_heat_values(self, values, op):
        rows = values if op.mix is None else np.tensordot(op.mix, values, axes=1)
        full = self._heat(self.grid, [mirrored(r) for r in rows], op.times, op.weights)
        return np.stack([orthant(f) for f in full])


@pytest.mark.parametrize(
    "n_dim,points,spec", [(1, 64, "bump"), (1, 30, "gauss:2"), (2, 16, "bump:3")]
)
def test_picard_on_the_orthant_matches_the_full_grid(n_dim, points, spec, dense_heat):
    # data march on the orthant; the snapshots, mirrored back, agree with a
    # march whose operators are the dense reference's sums on the full grid,
    # with the same sweeps
    g = make_grid(n_dim, 8.0, points)
    p = Params(q=0.5, gamma=0.3, n_dim=n_dim)
    mesh = _every_boundary(TimeMesh.build(0.5, 0.125, must_include=(0.15,)))
    nl = Nonlinearity.regularized(0.5, 4)
    u0 = standard_data(g, spec)
    half = picard_solve(u0, nl, p, mesh)
    full = picard_solve(u0, nl, p, mesh, propagator=_DenseFullGrid(g, dense_heat))
    assert half.diagnostics["total_sweeps"] == full.diagnostics["total_sweeps"]
    assert half.times == full.times == mesh.boundaries
    for a, b in zip(half.snapshots, full.snapshots):
        assert a.values.shape == g.shape
        np.testing.assert_array_equal(a.values, np.flip(a.values, axis=0))
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_picard_sweep_budget_enforced(monkeypatch):
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    nl = Nonlinearity.regularized(0.5, 1)
    mesh = TimeMesh.build(1.0, 0.25)
    monkeypatch.setattr(scheme, "_MAX_PICARD_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 sweeps"):
        picard_solve(u0, nl, p, mesh, SolveConfig(eps_fp=1e-8))


def test_picard_looks_up_kernels_once_per_window_length(monkeypatch):
    # a window's lags depend on its length alone: the kernel lookups depend
    # on the distinct window lengths, not on the windows or their sweeps.
    # Each prepared operator looks up all of its kernels in one call.  The
    # operators hold no workspace: their applies share the propagator's
    # scratch, which a second call on the same propagator does not grow
    lookups, grown = [], []
    lookup = HeatPropagator._kernel_entry
    scratch = HeatPropagator._scratch

    def counted(self, t, length=None):
        lookups.append(np.size(t))
        return lookup(self, t, length)

    def watched(self, *specs):
        before = self._buffer
        views = scratch(self, *specs)
        if self._buffer is not before:
            grown.append(self._buffer.size)
        return views

    monkeypatch.setattr(HeatPropagator, "_kernel_entry", counted)
    monkeypatch.setattr(HeatPropagator, "_scratch", watched)
    g = make_grid(1, 12.0, 256)
    prop = HeatPropagator(g)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    u0 = standard_data(g, "bump")
    nl = Nonlinearity.regularized(0.5, 2)
    # windows of 0.075 on [0, 0.15], then of 0.35/3 on [0.15, 0.5]
    mesh = TimeMesh.build(0.5, 0.125, must_include=(0.15,))
    counts, sweeps, growth = [], [], []
    for eps in (1e-6, 1e-10):
        lookups.clear()
        grown.clear()
        traj = picard_solve(u0, nl, p, mesh, SolveConfig(eps_fp=eps), propagator=prop)
        counts.append((len(lookups), sum(lookups)))
        sweeps.append(traj.diagnostics["total_sweeps"])
        growth.append(list(grown))
        assert traj.diagnostics["windows"] == mesh.window_count == 5
        assert traj.diagnostics["window_plans"] == 2
        assert not np.shares_memory(traj.snapshots[-1].values, prop._buffer)
    assert sweeps[0] < sweeps[1]
    # at most once per operator of each length, and never on reuse
    assert 1 <= len(growth[0]) <= 4 and growth[0] == sorted(growth[0])
    assert growth[1] == []
    # per length: one lookup for the free term's operator, of one kernel per
    # target, and one for the sweep's, of one kernel per (target, node) row
    nodes = SolveConfig().nodes_per_window
    assert counts[0] == counts[1] == (2 * 2, 2 * (nodes + 1) * (1 + nodes))


def test_ladder_exact_window_plan_pads_to_the_kernel_reach():
    # the first level of `solve --dim 1 --points 256 --t-end 0.0625 --record
    # 0.03125,0.0625`: windows of 1/32, so every lag is at most 1/32 and the
    # half axis of 128 points is padded to Q = 144, the least even 5-smooth
    # Q with 2Q >= 256 + ceil(13 sqrt(1/32) / h) = 281, not to Q = M = 256
    g = make_grid(1, 12.0, 256)
    mesh = TimeMesh.build(0.0625, 0.25, must_include=(0.03125, 0.0625))
    assert mesh.boundaries == (0.0, 0.03125, 0.0625)
    free_op, sweep = _window_plan(HeatPropagator(g), 0.03125, 0.0, 8)
    assert free_op._q == sweep._q == 144


def test_a_sweep_holds_no_stack_of_source_values():
    # one level of `solve --dim 2 --gamma 0.5 --points 192 --t-end 0.05`: the
    # sweep evaluates the source at the 10 knots and the operator mixes each
    # quadrature row's spectrum from theirs, so no stack of the 72 rows
    # (21 MB each) is held: 26.3 MB peak, against 42.8 MB with one stack of
    # interpolated fields and 78.7 MB with two
    g = make_grid(2, 10.0, 192)
    params = Params(q=0.5, gamma=0.5, n_dim=2)
    nl = Nonlinearity.regularized(0.5, 1)
    window = contraction_window(0.5, nl.lipschitz, eta1(0.5, 2))
    mesh = TimeMesh.build(0.05, min(0.25, window))
    u0 = GridFunction(g, np.ones(g.shape))
    tracemalloc.start()
    try:
        traj = picard_solve(u0, nl, params, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.diagnostics["total_sweeps"] > 0
    assert peak < 40e6


def _interp_stack(knots, stack, t):
    """Linear interpolation between stored fields; exact at the knots."""
    i = int(np.searchsorted(knots, t))
    if i <= 0:
        return stack[0]
    if i >= knots.size:
        return stack[-1]
    t0, t1 = knots[i - 1], knots[i]
    if t >= t1:
        return stack[i]
    if t <= t0:
        return stack[i - 1]
    th = (t - t0) / (t1 - t0)
    return (1.0 - th) * stack[i - 1] + th * stack[i]


def _reference_picard(
    u0, nonlinearity, params, mesh, config, field_rule=False, free_start=False
):
    """The per-node Jacobi sweep: one propagator apply per (target, node)
    pair, each with its own interpolation of the knots' sources g(u).
    With field_rule, the fields are interpolated instead and g applied to
    the result (the rule before source interpolation).  A window starts
    from its free term plus the Duhamel part (converged state minus free
    term) of the last two windows of its length, extrapolated linearly,
    or of the last one alone; with free_start, from the free term alone.
    The fields are orthant fields, as the solver holds them.  Returns the
    field at every window end, mirrored onto the full grid, and the number
    of sweeps."""
    prop = HeatPropagator(u0.grid)
    gam = params.gamma
    u_left = np.array(orthant(u0.values), dtype=float)
    ends, sweeps = [], 0
    nodes = config.nodes_per_window
    past, length = [], None
    for a, b in zip(mesh.boundaries, mesh.boundaries[1:]):
        # the rules in absolute time, not the solver's window-relative ones
        targets = np.append(duhamel_rule(a, b, gam, nodes)[0], b)
        free = [prop.apply_heat_values(u_left, tau - a) for tau in targets]
        rules = [duhamel_rule(a, tau, gam, nodes) for tau in targets]
        if f"{b - a:.12e}" != length:
            past, length = [], f"{b - a:.12e}"
        if free_start or not past:
            state = [f.copy() for f in free]
        elif len(past) == 1:
            state = [f + d for f, d in zip(free, past[-1])]
        else:
            state = [f + 2.0 * d1 - d0 for f, d0, d1 in zip(free, *past[-2:])]
        knots = np.concatenate(([a], targets))
        for _ in range(scheme._MAX_PICARD_SWEEPS):
            stack = [u_left] + state
            sources = [nonlinearity(positive_part(f)) for f in stack]
            new_state = []
            for i, tau in enumerate(targets):
                acc = free[i].copy()
                for s_val, w_val in zip(*rules[i]):
                    if field_rule:
                        f_at = nonlinearity(positive_part(_interp_stack(knots, stack, s_val)))
                    else:
                        f_at = _interp_stack(knots, sources, s_val)
                    acc += w_val * prop.apply_weighted_values(f_at, tau - s_val, gam)
                new_state.append(acc)
            resid = max(float(np.max(np.abs(nv - ov))) for nv, ov in zip(new_state, state))
            state = new_state
            sweeps += 1
            if resid <= config.eps_fp:
                break
        else:
            raise ConvergenceError("reference sweep stalled")
        past = past[-1:] + [[x - f for x, f in zip(state, free)]]
        u_left = state[-1]
        ends.append(mirrored(u_left))
    return ends, sweeps


def _check_against_reference(points, mesh):
    g = make_grid(1, 10.0, points)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    u0 = standard_data(g, "bump")
    nl = Nonlinearity.regularized(0.5, 4)
    cfg = SolveConfig()
    traj = picard_solve(u0, nl, p, _every_boundary(mesh), cfg)
    ends, sweeps = _reference_picard(u0, nl, p, mesh, cfg)
    assert traj.diagnostics["total_sweeps"] == sweeps
    assert len(traj.snapshots) == 1 + len(ends)
    for snap, ref in zip(traj.snapshots[1:], ends):
        np.testing.assert_allclose(snap.values, ref, rtol=0, atol=1e-12)
    return traj


@pytest.mark.parametrize("points", [64, 256])  # a coarse and a fine grid
def test_picard_matches_the_per_node_reference_sweep(points):
    nl = Nonlinearity.regularized(0.5, 4)
    w = min(0.25, contraction_window(0.3, nl.lipschitz, eta1(0.3, 1)))
    mesh = TimeMesh.build(0.5, w)
    assert mesh.window_count >= 3
    _check_against_reference(points, mesh)


@pytest.mark.parametrize("points", [64, 256])  # a coarse and a fine grid
def test_picard_matches_the_reference_on_two_window_lengths(points):
    # the record time splits the mesh into windows of 0.075 and of 0.35/3:
    # each window reuses the plan of its length, built in relative time
    mesh = TimeMesh.build(0.5, 0.125, must_include=(0.15,))
    traj = _check_against_reference(points, mesh)
    assert (traj.diagnostics["windows"], traj.diagnostics["window_plans"]) == (5, 2)


@pytest.mark.parametrize("gamma", [0.3, 0.6])
def test_the_extrapolated_start_saves_sweeps(gamma):
    # a march of six or more windows of one length: from the third window on,
    # a window starts from the Duhamel parts of the two before it,
    # extrapolated, so it takes fewer sweeps than from the free term, and
    # stops within eps_fp of where the free-term start stops
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=gamma, n_dim=1)
    u0 = standard_data(g, "bump")
    nl = Nonlinearity.regularized(0.5, 4)
    cfg = SolveConfig()
    w = min(0.25, contraction_window(gamma, nl.lipschitz, eta1(gamma, 1)))
    mesh = _every_boundary(TimeMesh.build(0.5, w))
    assert mesh.window_count >= 6
    traj = picard_solve(u0, nl, p, mesh, cfg)
    ends, sweeps = _reference_picard(u0, nl, p, mesh, cfg, free_start=True)
    assert traj.diagnostics["total_sweeps"] < sweeps
    for snap, ref in zip(traj.snapshots[1:], ends, strict=True):
        np.testing.assert_allclose(snap.values, ref, rtol=0, atol=1e-8)


def test_below_the_knee_source_and_field_interpolation_agree():
    # g_16 is linear below its knee 1/32, and there interpolating g(u)
    # between the knots is g of the interpolated u: on data that stays below
    # it the sweep equals the interpolate-then-evaluate rule to rounding
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    u0 = standard_data(g, "const:0.005")
    nl = Nonlinearity.regularized(0.5, 16)
    cfg = SolveConfig()
    window = contraction_window(0.3, nl.lipschitz, eta1(0.3, 1))
    mesh = _every_boundary(TimeMesh.build(0.1, min(0.25, window)))
    assert mesh.window_count >= 2
    traj = picard_solve(u0, nl, p, mesh, cfg)
    # the fields grow in time, so the last one bounds every knot's
    assert float(traj.snapshots[-1].values.max()) < 0.5 / nl.n
    ends, sweeps = _reference_picard(u0, nl, p, mesh, cfg, field_rule=True)
    assert traj.diagnostics["total_sweeps"] == sweeps
    for snap, ref in zip(traj.snapshots[1:], ends, strict=True):
        np.testing.assert_allclose(snap.values, ref, rtol=0, atol=1e-13)


def test_a_sweep_evaluates_the_source_at_the_knots_only(monkeypatch):
    # the nonlinearity sees each window's start once and then, per sweep,
    # one stack of the K - 1 = nodes_per_window + 1 unknowns: never the
    # J = 72 quadrature rows.  The data march on the positive orthant
    shapes = []
    call = Nonlinearity.__call__

    def counted(self, values, out=None):
        shapes.append(np.shape(values))
        return call(self, values, out)

    monkeypatch.setattr(Nonlinearity, "__call__", counted)
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    mesh = TimeMesh.build(0.5, 0.125, must_include=(0.15,))
    traj = picard_solve(standard_data(g, "bump"), Nonlinearity.regularized(0.5, 4), p, mesh)
    sweeps = traj.diagnostics["total_sweeps"]
    assert sweeps > mesh.window_count
    unknowns = SolveConfig().nodes_per_window + 1
    half = (g.points_per_axis // 2,)
    assert shapes.count(half) == mesh.window_count
    assert shapes.count((unknowns,) + half) == sweeps
    assert len(shapes) == mesh.window_count + sweeps


def test_picard_snapshots_are_arrays_of_their_own():
    # the sweep reuses its arrays from window to window, and the plans' from
    # call to call: a snapshot recorded at every boundary shares no memory
    # with another, and a later call on the same plans leaves it unchanged
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    nl = Nonlinearity.regularized(0.5, 4)
    mesh = _every_boundary(TimeMesh.build(0.5, 0.125, must_include=(0.15,)))
    prop, plans = HeatPropagator(g), {}
    traj = picard_solve(standard_data(g, "bump"), nl, p, mesh, propagator=prop, plans=plans)
    values = [s.values for s in traj.snapshots]
    assert len(values) == 1 + mesh.window_count
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)
    kept = [v.copy() for v in values]
    picard_solve(standard_data(g, "const:2"), nl, p, mesh, propagator=prop, plans=plans)
    for v, k in zip(values, kept):
        np.testing.assert_array_equal(v, k)


@pytest.mark.parametrize("gamma,nodes", [(0.6, 8), (0.3, 6)])
def test_picard_builds_its_own_plans_for_another_gamma_or_node_count(gamma, nodes):
    # plans handed over from a call with gamma 0.3 and 8 nodes per window
    # hold other rules: a call with another gamma or node count builds its
    # own, drops the others and ends bit for bit where a fresh call does
    g = make_grid(1, 10.0, 64)
    nl = Nonlinearity.regularized(0.5, 2)
    mesh = TimeMesh.build(0.5, 0.125)
    u0 = standard_data(g, "bump")
    prop, plans = HeatPropagator(g), {}
    picard_solve(u0, nl, Params(q=0.5, gamma=0.3), mesh, propagator=prop, plans=plans)
    assert len(plans) == 1
    p, cfg = Params(q=0.5, gamma=gamma), SolveConfig(nodes_per_window=nodes)
    shared = picard_solve(u0, nl, p, mesh, cfg, propagator=prop, plans=plans)
    assert shared.diagnostics["window_plans"] == 1
    assert set(plans) == {(0.125, gamma, nodes)}
    fresh = picard_solve(u0, nl, p, mesh, cfg)
    for a, b in zip(fresh.snapshots, shared.snapshots, strict=True):
        np.testing.assert_array_equal(b.values, a.values)


# ---------------------------------------------------------------------------
# Monotone ladder
# ---------------------------------------------------------------------------

def _level_runs(monkeypatch):
    """The trajectories of the ladder's levels, in order, as each level's
    picard_solve returns them, once a monotone_solve has run."""
    runs = []
    solve = scheme.picard_solve

    def recorded(*args, **kwargs):
        runs.append(solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(scheme, "picard_solve", recorded)
    return runs


def test_monotone_ladder_decreases_and_tracks_the_ode(monkeypatch):
    # zero data, gamma = 0: level n solves u' = g_n(u) from 1/n; the data
    # starts above the knee and grows, so u_n(t) = (n^{-1/2} + t/2)^2 exactly
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "zero")
    cfg = SolveConfig(n_schedule=(1, 2, 4, 8))
    runs = _level_runs(monkeypatch)
    traj = monotone_solve(u0, p, 1.0, cfg)
    x = g.axis_nodes()
    mid = np.abs(x) < 2.0
    assert [run.diagnostics["n"] for run in runs] == [1, 2, 4, 8]
    assert runs[-1] is traj
    for run in runs:
        exact = (run.diagnostics["n"] ** -0.5 + 0.5) ** 2
        assert np.max(np.abs(run.snapshot_at(1.0).values[mid] - exact)) < 1e-5
    # strict pointwise decrease between levels, no recorded violation
    for a, b in zip(runs, runs[1:]):
        assert np.all(b.snapshots[-1].values <= a.snapshots[-1].values + 1e-8)
    assert traj.diagnostics["monotone_violation"] <= 1e-8
    assert len(traj.diagnostics["inter_level_gaps"]) == 3
    # gaps shrink roughly like the 1/n data shift
    gaps = traj.diagnostics["inter_level_gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_ladder_levels_share_their_window_plans(monkeypatch):
    # zero data, gamma = 0, records at 0.1 and 0.25: levels 1 and 2 march
    # windows of 0.1 and 0.15, level 4 of 0.1 and 0.075, level 8 of 0.05 and
    # 0.075, so the ladder plans four lengths, not eight
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "zero")
    cfg = SolveConfig(n_schedule=(1, 2, 4, 8))
    solve, plan = scheme.picard_solve, scheme._window_plan
    planned, levels, scratch = [], [], []

    def counted_plan(prop, length, gamma, n_nodes):
        planned.append(length)
        return plan(prop, length, gamma, n_nodes)

    def spied_solve(u, nl, params, mesh, config, *, propagator, plans):
        traj = solve(u, nl, params, mesh, config, propagator=propagator, plans=plans)
        bounds = mesh.boundaries
        lengths = {float(f"{b - a:.12e}") for a, b in zip(bounds, bounds[1:])}
        # only this level's lengths are kept, keyed with gamma and node count
        assert set(plans) == {(x, params.gamma, config.nodes_per_window) for x in lengths}
        # every level works in the one propagator's scratch, which only grows
        scratch.append((propagator, propagator._buffer.size))
        assert not np.shares_memory(traj.snapshots[-1].values, propagator._buffer)
        levels.append(((u, nl, params, mesh, config), traj))
        return traj

    monkeypatch.setattr(scheme, "_window_plan", counted_plan)
    monkeypatch.setattr(scheme, "picard_solve", spied_solve)
    traj = monotone_solve(u0, p, 0.25, cfg, record_times=(0.1, 0.25))
    assert traj.times == (0.0, 0.1, 0.25)
    assert len(levels) == 4
    assert len(planned) == 4
    assert np.allclose(sorted(planned), [0.05, 0.075, 0.1, 0.15], rtol=0, atol=1e-15)
    assert traj.diagnostics["window_plans"] == 4
    assert all(prop is scratch[0][0] for prop, _ in scratch)
    sizes = [size for _, size in scratch]
    assert sizes[0] > 0 and sizes == sorted(sizes)
    # each level as its own call with fresh plans
    for args, shared in levels:
        fresh = solve(*args)
        for a, b in zip(fresh.snapshots, shared.snapshots, strict=True):
            np.testing.assert_allclose(b.values, a.values, rtol=0, atol=1e-15)


def test_ladder_history_levels_share_no_memory(monkeypatch):
    # the ladder's history, the snapshots of each level's run: the levels
    # march on one propagator and one set of plans, yet no snapshot of one
    # level shares memory with another's
    g = make_grid(1, 12.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    cfg = SolveConfig(n_schedule=(1, 2, 4))
    runs = _level_runs(monkeypatch)
    monotone_solve(standard_data(g, "zero"), p, 0.25, cfg, record_times=(0.1, 0.25))
    assert [run.diagnostics["n"] for run in runs] == [1, 2, 4]
    arrays = [s.values for run in runs for s in run.snapshots]
    assert len(arrays) == 3 * 3
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_ladder_reports_each_levels_counts(monkeypatch):
    # one entry per level run, in schedule order, with that level's own
    # windows, sweeps and max_residual; the top-level ones are the last
    # level's
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.3, n_dim=1)
    cfg = SolveConfig(n_schedule=(1, 2, 4))
    runs = _level_runs(monkeypatch)
    traj = monotone_solve(standard_data(g, "bump"), p, 0.5, cfg)
    levels = traj.diagnostics["levels"]
    assert [lv["n"] for lv in levels] == traj.diagnostics["n_used"] == [1, 2, 4]
    for lv, diag in zip(levels, (run.diagnostics for run in runs), strict=True):
        assert lv == {
            "n": diag["n"],
            "windows": diag["windows"],
            "sweeps": diag["total_sweeps"],
            "max_residual": diag["max_residual"],
        }
        assert 0.0 < lv["max_residual"] <= cfg.eps_fp
    top = traj.diagnostics
    assert levels[-1] == {
        "n": 4, "windows": top["windows"], "sweeps": top["total_sweeps"],
        "max_residual": top["max_residual"],
    }


def test_monotone_ladder_early_stop():
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    # huge eps_fp: the first gap already counts as converged
    cfg = SolveConfig(n_schedule=(1, 2, 4, 8, 16), eps_fp=0.9)
    traj = monotone_solve(u0, p, 0.5, cfg)
    assert traj.diagnostics["n_used"] == [1, 2]


def test_monotone_records_at_requested_times():
    g = make_grid(1, 10.0, 64)
    p = Params(q=0.5, gamma=0.2, n_dim=1)
    u0 = standard_data(g, "bump")
    cfg = SolveConfig(n_schedule=(1, 2))
    traj = monotone_solve(u0, p, 1.0, cfg, record_times=(0.3, 1.0))
    assert traj.times == (0.0, 0.3, 1.0)
    # t_end is always a record time, named or not
    assert monotone_solve(u0, p, 1.0, cfg, record_times=(0.3,)).times == (0.0, 0.3, 1.0)
    assert monotone_solve(u0, p, 1.0, cfg).times == (0.0, 1.0)


# ---------------------------------------------------------------------------
# Trajectory serialization
# ---------------------------------------------------------------------------

def test_trajectory_csv_and_metadata():
    g = make_grid(1, 6.0, 32)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    mesh = TimeMesh.build(0.5, 0.25)
    traj = picard_solve(u0, Nonlinearity.zero(), p, mesh)
    text = _csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,node_index,coord_1,u"
    assert len(lines) == 1 + 2 * 32  # t = 0 plus one recorded time
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(-6.0 + g.h / 2)
    meta = traj.metadata()
    assert meta["params"]["gamma"] == 0.0
    assert meta["times"] == [0.0, 0.5]
    json.dumps(meta)  # metadata must be JSON-serializable as-is


def test_metadata_of_a_ladder_is_json_with_every_diagnostic():
    g = make_grid(1, 6.0, 32)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    cfg = SolveConfig(n_schedule=(1, 2))
    traj = monotone_solve(standard_data(g, "zero"), p, 0.25, cfg)
    meta = traj.metadata()
    assert meta["diagnostics"] == traj.diagnostics
    json.dumps(meta)


def test_snapshot_times_below_one_match_relative_to_the_time():
    # a snapshot at 1e-10 is found at 1e-10, not at t = 0, and a mesh of
    # t_end = 1e-13 takes its own end as a record time
    g = make_grid(1, 6.0, 32)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    snaps = (GridFunction(g, np.zeros(g.shape)), GridFunction(g, np.ones(g.shape)))
    traj = Trajectory(grid=g, params=p, times=(0.0, 1e-10), snapshots=snaps)
    assert traj.snapshot_at(1e-10) is snaps[1]
    assert traj.snapshot_at(0.0) is snaps[0]
    with pytest.raises(ParameterError):
        traj.snapshot_at(2e-10)
    assert TimeMesh.build(1e-13, 1e-13, must_include=(1e-13,)).boundaries == (0.0, 1e-13)
    mesh = TimeMesh.build(1e-10, 0.25)
    traj = picard_solve(standard_data(g, "const:1"), Nonlinearity.zero(), p, mesh)
    assert traj.times == (0.0, 1e-10)


def test_trajectory_csv_text_is_pinned():
    # the exact bytes of a small 2D trajectory: nodes in C order over the
    # axis meshes, values and coordinates as repr of their floats
    g = make_grid(2, 1.0, 2)
    p = Params(q=0.5, gamma=0.0, n_dim=2)
    snaps = (
        GridFunction(g, np.array([[0.0, 0.25], [1.0, 1.0 / 3.0]])),
        GridFunction(g, np.array([[1e-20, 2.0], [0.1, 12345.678]])),
    )
    traj = Trajectory(grid=g, params=p, times=(0.0, 0.125), snapshots=snaps)
    assert _csv(traj) == (
        "t,node_index,coord_1,coord_2,u\n"
        "0.0,0,-0.5,-0.5,0.0\n"
        "0.0,1,-0.5,0.5,0.25\n"
        "0.0,2,0.5,-0.5,1.0\n"
        "0.0,3,0.5,0.5,0.3333333333333333\n"
        "0.125,0,-0.5,-0.5,1e-20\n"
        "0.125,1,-0.5,0.5,2.0\n"
        "0.125,2,0.5,-0.5,0.1\n"
        "0.125,3,0.5,0.5,12345.678\n"
    )


def _csv(traj) -> str:
    fh = io.StringIO()
    traj.write_csv(fh)
    return fh.getvalue()


def _random_trajectory(n_dim: int, points: int, snapshots: int, seed: int) -> Trajectory:
    g = make_grid(n_dim, 3.0, points)
    rng = np.random.default_rng(seed)
    snaps = tuple(GridFunction(g, rng.uniform(0.0, 2.0, g.shape) ** 3) for _ in range(snapshots))
    times = tuple(0.1 * k for k in range(snapshots))
    return Trajectory(grid=g, params=Params(q=0.5, gamma=0.0, n_dim=n_dim), times=times,
                      snapshots=snaps)


@pytest.mark.parametrize(
    "n_dim,points,snapshots",
    [
        (1, 10, 3),  # 10 nodes: a chunk of 7, then a short one of 3
        (1, 4, 2),   # fewer nodes than one chunk
        (2, 6, 2),   # 36 nodes: 5 chunks of 7 and a last node alone
        (3, 4, 3),   # 64 nodes: 9 chunks of 7 and a last node alone
    ],
)
def test_trajectory_csv_bytes_do_not_depend_on_the_chunk(monkeypatch, n_dim, points, snapshots):
    traj = _random_trajectory(n_dim, points, snapshots, seed=n_dim * 100 + points)
    whole = _csv(traj)
    assert whole.count("\n") == 1 + snapshots * points**n_dim
    monkeypatch.setattr(scheme, "_CSV_CHUNK", 7)
    assert _csv(traj) == whole


def test_trajectory_csv_writer_memory_does_not_grow_with_the_output(monkeypatch, tmp_path):
    # a writer that held the whole text would peak at several times the file's size
    monkeypatch.setattr(scheme, "_CSV_CHUNK", 1024)
    traj = _random_trajectory(3, 32, 2, seed=5)
    out = tmp_path / "traj.csv"
    with open(out, "w") as fh:
        tracemalloc.start()
        try:
            traj.write_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = out.stat().st_size
    assert size > 2_000_000
    assert peak < size / 4, (peak, size)


def test_trajectory_snapshot_lookup_raises_off_knot():
    g = make_grid(1, 6.0, 32)
    p = Params(q=0.5, gamma=0.0, n_dim=1)
    u0 = standard_data(g, "const:1")
    mesh = TimeMesh.build(0.5, 0.25)
    traj = picard_solve(u0, Nonlinearity.zero(), p, mesh)
    with pytest.raises(ParameterError):
        traj.snapshot_at(0.1234)


def test_solve_config_validation():
    with pytest.raises(ParameterError):
        SolveConfig(n_schedule=(4, 2))
    with pytest.raises(ParameterError):
        SolveConfig(n_schedule=())
    with pytest.raises(ParameterError):
        SolveConfig(eps_fp=0.0)
    with pytest.raises(ParameterError):
        SolveConfig(nodes_per_window=1)
