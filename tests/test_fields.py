"""Grid geometry, parameter validation, grid functions, and the singular weight."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from singheat import (
    Grid,
    GridFunction,
    ParameterError,
    Params,
    is_mirror_symmetric,
    make_grid,
    mirrored,
    orthant,
    standard_data,
    weight_field,
)
from singheat.fields import _corner_cell_avg, _single_cell_avg, gauss_legendre
from singheat.scheme import _check_data


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

def test_params_accepts_admissible_triples():
    for q, g, n in [(0.5, 0.3, 1), (0.1, 0.0, 1), (0.9, 1.2, 2), (0.5, 1.9, 3)]:
        p = Params(q=q, gamma=g, n_dim=n)
        assert p.gamma_sup == min(2, n)


@pytest.mark.parametrize(
    "q,g,n",
    [
        (0.0, 0.3, 1),
        (1.0, 0.3, 1),
        (-0.2, 0.3, 1),
        (0.5, -0.1, 1),
        (0.5, 1.0, 1),   # gamma must stay below min(2, N) = 1 in 1d
        (0.5, 2.0, 2),
        (0.5, 2.0, 3),
        (0.5, 0.3, 0),
        (0.5, 0.3, 4),
        (float("nan"), 0.3, 1),
        (0.5, float("inf"), 2),
    ],
)
def test_params_rejects_bad_triples(q, g, n):
    with pytest.raises(ParameterError):
        Params(q=q, gamma=g, n_dim=n)


# ---------------------------------------------------------------------------
# Grid geometry
# ---------------------------------------------------------------------------

def test_grid_nodes_are_cell_centers(grid_1d):
    x = grid_1d.axis_nodes()
    h = grid_1d.h
    assert h == pytest.approx(2 * 8.0 / 256)
    # nodes at +-(k + 1/2) h, none at the origin
    assert np.min(np.abs(x)) == pytest.approx(h / 2)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_allclose(np.diff(x), h, rtol=0, atol=1e-15)
    assert x[0] == pytest.approx(-8.0 + h / 2)
    assert x[-1] == pytest.approx(8.0 - h / 2)


def test_grid_axis_is_exactly_mirror_symmetric():
    # bit-for-bit symmetry, not approximate: the negative half is built by
    # negating the positive half
    for n_dim, m in [(1, 1024), (2, 96), (3, 32)]:
        g = make_grid(n_dim, 7.3, m)
        x = g.axis_nodes()
        assert np.array_equal(x, -x[::-1])


def test_grid_rejects_odd_point_count():
    with pytest.raises(ParameterError):
        make_grid(1, 8.0, 255)  # odd counts put a node at the origin


@pytest.mark.parametrize("n_dim,half,pts", [(1, 0.0, 64), (1, -1.0, 64), (2, 8.0, 0), (4, 8.0, 64)])
def test_grid_rejects_bad_shapes(n_dim, half, pts):
    with pytest.raises(ParameterError):
        make_grid(n_dim, half, pts)


def test_grid_shape_and_radius(grid_2d):
    assert grid_2d.shape == (48, 48)
    assert grid_2d.node_count == 48 * 48
    r = grid_2d.radius_values()
    assert r.shape == (48, 48)
    h = grid_2d.h
    assert np.min(r) == pytest.approx(h / math.sqrt(2))
    # radius is the Euclidean norm of the node coordinates
    xx, yy = grid_2d.node_mesh()
    np.testing.assert_allclose(r, np.hypot(xx, yy), rtol=1e-15)


@pytest.mark.parametrize("n_dim,points", [(1, 64), (2, 48), (3, 16)])
def test_radius_values_are_the_dense_formulas_bit_for_bit(n_dim, points):
    g = make_grid(n_dim, 4.0, points)
    dense = np.zeros(g.shape)
    for m in g.node_mesh():
        dense += m * m
    np.testing.assert_array_equal(g.radius_values(), np.sqrt(dense))


def test_radius_values_hold_no_full_coordinate_arrays():
    # the radii of a 3D M = 64 grid (one 2 MB field) are built from the
    # axis alone: the call's peak stays below 3 fields, where N full
    # coordinate arrays and their squares would take 5
    g = make_grid(3, 8.0, 64)
    tracemalloc.start()
    try:
        g.radius_values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * g.node_count


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------

def test_grid_function_copies_and_freezes(grid_1d):
    vals = np.ones(grid_1d.shape)
    f = GridFunction(grid_1d, vals)
    vals[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_grid_function_rejects_wrong_shape(grid_1d):
    from singheat import GridMismatchError

    with pytest.raises(GridMismatchError):
        GridFunction(grid_1d, np.ones(7))


def test_nonfinite_guard_sits_at_the_sampling_boundary(grid_1d):
    # GridFunction itself does not scan the payload (solver hot path); the
    # finiteness check lives where data enter a solve (scheme._check_data)
    vals = np.ones(grid_1d.shape)
    vals[3] = vals[-4] = np.nan
    f = GridFunction(grid_1d, vals)
    assert np.isnan(f.values[3])
    with pytest.raises(ParameterError, match="finite"):
        _check_data(f)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 65))
def test_gauss_legendre_matches_numpys_leggauss(n):
    from numpy.polynomial.legendre import leggauss  # the reference, loaded here only

    x, w = gauss_legendre(n)
    ref_x, ref_w = leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 16, 32, 64])
def test_gauss_legendre_integrates_polynomials_of_degree_below_2n(n):
    x, w = gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.sum(w * x**k)) - exact) <= 1e-14, k


def test_gauss_legendre_arrays_are_shared_read_only():
    x, w = gauss_legendre(7)
    assert gauss_legendre(7)[0] is x
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# Singular weight
# ---------------------------------------------------------------------------

def test_weight_gamma_zero_is_one(grid_1d):
    w = weight_field(grid_1d, 0.0)
    assert w.shape == (grid_1d.points_per_axis // 2,) and np.all(w == 1.0)


def test_weight_1d_matches_cell_average_closed_form():
    g = make_grid(1, 4.0, 64)
    gamma = 0.6
    w = mirrored(weight_field(g, gamma))
    h = g.h
    x = g.axis_nodes()
    for k in [32, 33, 40, 63]:  # innermost positive node onward
        a, b = x[k] - h / 2, x[k] + h / 2
        exact = (b ** (1 - gamma) - a ** (1 - gamma)) / ((1 - gamma) * h)
        assert w[k] == pytest.approx(exact, rel=1e-13)
    # mirror symmetry
    np.testing.assert_array_equal(w, w[::-1])


def test_weight_1d_first_cell():
    # cell [0, h] yields h^{-gamma} / (1 - gamma); finite despite the pole
    g = make_grid(1, 4.0, 64)
    gamma = 0.5
    w = mirrored(weight_field(g, gamma))
    h = g.h
    k = 32
    assert w[k] == pytest.approx(h ** (-gamma) / (1 - gamma), rel=1e-13)
    assert np.isfinite(w).all()


def test_weight_decreases_along_axis_ray(grid_1d):
    w = mirrored(weight_field(grid_1d, 0.4))
    half = w[128:]
    assert np.all(np.diff(half) < 0)


def test_weight_2d_cell_averages_match_dblquad():
    g = make_grid(2, 2.0, 8)
    gamma = 0.7
    w = mirrored(weight_field(g, gamma))
    h = g.h
    x = g.axis_nodes()

    def cell_avg(cx, cy):
        val, _ = integrate.dblquad(
            lambda yy, xx: (xx**2 + yy**2) ** (-gamma / 2),
            cx - h / 2,
            cx + h / 2,
            cy - h / 2,
            cy + h / 2,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return val / h**2

    # the corner cell (touches the origin), an edge neighbor, and a far cell
    for i, j in [(4, 4), (4, 5), (7, 2)]:
        assert w[i, j] == pytest.approx(cell_avg(x[i], x[j]), rel=5e-9)


def test_weight_3d_corner_cell_is_finite_and_positive():
    g = make_grid(3, 1.0, 4)
    w = mirrored(weight_field(g, 1.5))
    assert np.isfinite(w).all()
    assert np.all(w > 0)
    # corner cells carry the largest average
    assert w[2, 2, 2] == np.max(w)


def _per_cell_weight(grid, gamma):
    """The weight field by the per-cell rule applied to every cell of the
    grid, each orthant on its own: the reference that the orthant-and-mirror
    construction must reproduce to rounding."""
    h = grid.h
    ax = grid.axis_nodes()
    x, w = gauss_legendre(6)
    off = 0.5 * h * x
    wt = 0.5 * w
    pts2 = (ax[:, None] + off[None, :]) ** 2
    p = -0.5 * gamma
    out = np.empty(grid.shape)
    for i in range(grid.points_per_axis):
        if grid.n_dim == 2:
            r2 = pts2[i][:, None, None] + pts2[None, :, :]
            out[i] = np.einsum("a,b,ajb->j", wt, wt, r2**p)
        else:
            r2 = (
                pts2[i][:, None, None, None, None]
                + pts2[None, :, :, None, None]
                + pts2[None, None, None, :, :]
            )
            out[i] = np.einsum("a,b,c,ambnc->mn", wt, wt, wt, r2**p)
    mesh = grid.node_mesh()
    for idx in map(tuple, np.argwhere(grid.radius_values() <= 3.0 * h + 1e-12 * h)):
        center = tuple(float(m[idx]) for m in mesh)
        if all(abs(abs(c) - 0.5 * h) <= 1e-9 * h for c in center):
            out[idx] = _corner_cell_avg(grid.n_dim, h, gamma)
        else:
            out[idx] = _single_cell_avg(center, h, gamma, 32)
    return out


@pytest.mark.parametrize("n_dim,points", [(2, 8), (2, 64), (2, 192), (3, 8), (3, 32)])
@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.2])
def test_weight_field_is_exactly_symmetric_and_matches_the_per_cell_rule(n_dim, points, gamma):
    g = make_grid(n_dim, 10.0, points)
    w = mirrored(weight_field(g, gamma))
    for axis in range(n_dim):  # mirror images and axis swaps are bit for bit equal
        np.testing.assert_array_equal(w, np.flip(w, axis))
        np.testing.assert_array_equal(w, np.swapaxes(w, axis, (axis + 1) % n_dim))
    ref = _per_cell_weight(g, gamma)
    assert np.max(np.abs(w - ref) / ref) <= 1e-14


@pytest.mark.parametrize("n_dim,points", [(1, 64), (1, 30), (2, 8), (2, 30), (3, 8), (3, 12)])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
def test_orthant_weight_is_the_orthant_of_the_weight_field(n_dim, points, gamma):
    # built on the orthant alone: a read-only array of (M/2)^N values that
    # views no larger array, and the orthant of its mirror image, the full
    # field, which is exactly mirror-symmetric
    g = make_grid(n_dim, 10.0, points)
    half = weight_field(g, gamma)
    assert half.shape == (points // 2,) * n_dim and not half.flags.writeable
    base = half
    while base.base is not None:
        base = base.base
    assert base.size == half.size
    full = mirrored(half)
    assert is_mirror_symmetric(full)
    np.testing.assert_array_equal(orthant(full), half)


def test_weight_rejects_gamma_out_of_range(grid_1d):
    with pytest.raises(ParameterError):
        weight_field(grid_1d, 1.2)  # >= min(2, 1)
    with pytest.raises(ParameterError):
        weight_field(grid_1d, -0.1)


# ---------------------------------------------------------------------------
# Orthant and mirror images
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_dim,points", [(1, 8), (1, 30), (2, 6), (2, 30), (3, 4), (3, 10)])
def test_orthant_round_trip_is_exact(n_dim, points):
    g = make_grid(n_dim, 3.0, points)
    half = np.random.default_rng(points).uniform(-1.0, 1.0, (points // 2,) * n_dim)
    full = mirrored(half)
    assert full.shape == g.shape
    np.testing.assert_array_equal(orthant(full), half)
    # the orthant is the block of nodes whose coordinates are all positive
    for mesh in g.node_mesh():
        assert np.all(orthant(mesh) > 0.0)
        assert np.count_nonzero(mesh > 0.0) == mesh.size // 2
    # a full field that is mirror-symmetric is the mirror image of its orthant
    data = standard_data(g, "gauss:0.7").values
    np.testing.assert_array_equal(mirrored(orthant(data)), data)


@pytest.mark.parametrize("n_dim,points", [(1, 8), (2, 6), (3, 4)])
def test_mirrored_field_is_exactly_symmetric(n_dim, points):
    half = np.random.default_rng(3).uniform(-1.0, 1.0, (points // 2,) * n_dim)
    full = mirrored(half)
    assert is_mirror_symmetric(full)
    for axis in range(n_dim):
        np.testing.assert_array_equal(full, np.flip(full, axis))
    bent = full.copy()
    bent[(0,) * n_dim] = np.nextafter(bent[(0,) * n_dim], np.inf)  # one ulp off
    assert not is_mirror_symmetric(bent)


def test_standard_data_symmetry():
    # every datum is radial, so exactly mirror-symmetric; there is no step
    for n_dim, points in [(1, 64), (2, 16), (3, 8)]:
        g = make_grid(n_dim, 4.0, points)
        for spec in ("zero", "const:2", "bump", "bump:1.5", "gauss:2"):
            assert is_mirror_symmetric(standard_data(g, spec).values)
        with pytest.raises(ParameterError, match="unknown"):
            standard_data(g, "step")


# ---------------------------------------------------------------------------
# Data library
# ---------------------------------------------------------------------------

def test_standard_data_zero_and_const(grid_1d):
    assert np.all(standard_data(grid_1d, "zero").values == 0.0)
    assert np.all(standard_data(grid_1d, "const:2.5").values == 2.5)


def test_standard_data_gauss(grid_1d):
    f = standard_data(grid_1d, "gauss:0.25")
    x = grid_1d.axis_nodes()
    np.testing.assert_allclose(f.values, np.exp(-0.25 * x**2), rtol=1e-15)


def test_standard_data_bump_support(grid_2d):
    f = standard_data(grid_2d, "bump:2.0")
    r = grid_2d.radius_values()
    assert np.all(f.values[r >= 2.0] == 0.0)
    assert np.all(f.values[r < 2.0] > 0.0)
    assert np.max(f.values) <= 1.0


def test_standard_data_bare_names_take_defaults(grid_1d):
    assert np.all(standard_data(grid_1d, "const").values == 1.0)
    x = grid_1d.axis_nodes()
    np.testing.assert_allclose(standard_data(grid_1d, "gauss").values, np.exp(-(x**2)), rtol=1e-15)


@pytest.mark.parametrize(
    "spec", ["nope", "const:x", "const:-1", "gauss:-1", "bump:0", "zero:junk", "step:7"]
)
def test_standard_data_rejects_malformed_specs(grid_1d, spec):
    with pytest.raises(ParameterError):
        standard_data(grid_1d, spec)
