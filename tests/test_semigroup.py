"""Discrete heat semigroup: mass, exact Gaussians, contraction, weighting."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import ndimage

from singheat import (
    GridFunction,
    HeatPropagator,
    Nonlinearity,
    ParameterError,
    Params,
    SolveConfig,
    TimeMesh,
    TruncationError,
    apply_heat,
    gaussian_exact,
    make_grid,
    mirrored,
    monotone_solve,
    orthant,
    picard_solve,
    standard_data,
)
from singheat import semigroup
from singheat.constants import eta1


def test_heat_kernel_pointwise():
    # the kernel samples are h G_t(x), G_t(x) = (4 pi t)^{-N/2} exp(-|x|^2 / (4t)),
    # at a few hand points; the N-D kernel is the product of one 1D sample
    # per axis
    g = make_grid(1, 8.0, 64)
    prop = HeatPropagator(g)
    h, k = g.h, 4  # x = k h = 1

    def at(t, *steps):
        samples = prop._axis_samples(np.array([t]), k)[0]
        return math.prod(samples[k + d] for d in steps) / h ** len(steps)

    assert at(1.0, 0) == pytest.approx((4 * math.pi) ** -0.5)
    assert at(0.25, k) == pytest.approx(math.pi**-0.5 * math.exp(-1.0))
    assert at(1.0, 0, 0) == pytest.approx((4 * math.pi) ** -1)
    assert at(0.5, k, -k, 0) == pytest.approx((2 * math.pi) ** -1.5 * math.exp(-1.0))


def test_raw_kernel_mass_close_to_one():
    # the samples of the whole box, displacements -(M - 1)..M - 1, before
    # renormalization
    g = make_grid(1, 12.0, 1024)
    prop = HeatPropagator(g)
    for t in (0.01, 0.5, 1.0, 2.0):
        mass = float(np.sum(prop._axis_samples(np.array([t]), g.points_per_axis - 1)))
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_truncation_error_when_kernel_leaks():
    g = make_grid(1, 4.0, 64)
    f = standard_data(g, "const:1")
    with pytest.raises(TruncationError):
        apply_heat(f, 25.0)  # sqrt(t) = 5 comparable to the box: tail mass leaks


def test_identity_at_time_zero():
    g = make_grid(1, 8.0, 256)
    f = standard_data(g, "gauss:0.5")
    out = apply_heat(f, 0.0)
    np.testing.assert_array_equal(out.values, f.values)


def test_gaussian_evolution_matches_closed_form():
    # the discrete operator reproduces S(t) exp(-a|x|^2) to quadrature accuracy
    for n_dim, half, pts in [(1, 12.0, 1024), (2, 10.0, 256)]:
        g = make_grid(n_dim, half, pts)
        a = 0.25
        f0 = gaussian_exact(g, a, 0.0)
        for t in (0.5, 1.0):
            out = apply_heat(f0, t)
            ref = gaussian_exact(g, a, t)
            assert np.max(np.abs(out.values - ref.values)) < 1e-6


def test_constants_are_preserved_in_the_interior():
    # zero extension outside the box makes the field sag near the boundary;
    # in the interior (5 sqrt(t) away from it) the constant survives exactly
    g = make_grid(1, 10.0, 512)
    f = standard_data(g, "const:3.0")
    t = 1.0
    out = apply_heat(f, t)
    x = g.axis_nodes()
    # erfc-scale deficit at distance d from the wall: ~ erfc(d / (2 sqrt t)) / 2
    for pad, tol in [(5.0, 1e-3), (8.0, 1e-7)]:
        interior = np.abs(x) <= g.half_width - pad * math.sqrt(t)
        np.testing.assert_allclose(out.values[interior], 3.0, rtol=tol)
    assert np.all(out.values <= 3.0 * (1 + 1e-12))


def test_positivity_and_sup_contraction():
    g = make_grid(1, 10.0, 512)
    rng = np.random.default_rng(7)
    vals = mirrored(rng.uniform(0.0, 2.0, g.points_per_axis // 2))
    f = GridFunction(g, vals)
    out = apply_heat(f, 0.7)
    assert np.all(out.values >= 0.0)
    # normalization keeps the sup bound up to a few ulps
    assert np.max(np.abs(out.values)) <= np.max(np.abs(vals)) * (1 + 1e-12)


def test_apply_heat_equals_the_dense_reference(dense_heat):
    # apply_heat applies a mirror-symmetric field (a 3D and a 1D bump) on its
    # orthant and gives the field of the dense reference, a direct sum over
    # every pair of nodes of the full grid
    t = 0.5
    for g in (make_grid(3, 8.0, 32), make_grid(1, 8.0, 256)):
        f = standard_data(g, "bump:2")
        out = apply_heat(f, t)
        np.testing.assert_allclose(out.values, dense_heat(g, f.values[None], [t])[0], atol=1e-12)


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_asymmetric_data_are_refused_before_any_plan(n_dim, monkeypatch):
    # every field is held on its orthant, in every dimension: a field that
    # is not mirror-symmetric (a bump moved off the origin along the first
    # axis) is refused by apply_heat, picard_solve and monotone_solve
    # before any operator is prepared; the centred bump is solved
    g = make_grid(n_dim, 6.0, 16)
    xs = g.node_mesh()
    moved = GridFunction(g, np.exp(-((xs[0] - 1.0) ** 2) - sum(x * x for x in xs[1:])))
    prepared = []
    prepare = HeatPropagator.prepare

    def counted(self, *args, **kwargs):
        prepared.append(args)
        return prepare(self, *args, **kwargs)

    monkeypatch.setattr(HeatPropagator, "prepare", counted)
    params = Params(q=0.5, gamma=0.3, n_dim=n_dim)
    config = SolveConfig(n_schedule=(1, 2))
    mesh = TimeMesh.build(0.25, 0.125)
    nl = Nonlinearity.regularized(0.5, 1)
    with pytest.raises(ParameterError, match="mirror-symmetric"):
        apply_heat(moved, 0.1)
    with pytest.raises(ParameterError, match="mirror-symmetric"):
        picard_solve(moved, nl, params, mesh)
    with pytest.raises(ParameterError, match="mirror-symmetric"):
        picard_solve(moved, nl, params, mesh, propagator=HeatPropagator(g))
    with pytest.raises(ParameterError, match="mirror-symmetric"):
        monotone_solve(moved, params, 0.25, config)
    assert prepared == []
    monotone_solve(standard_data(g, "bump"), params, 0.25, config)
    assert prepared


def test_scalar_apply_takes_any_array_like():
    # a stack given as nested lists is applied like the array; a wrong shape
    # is refused
    g = make_grid(1, 8.0, 64)
    prop = HeatPropagator(g)
    f = orthant(standard_data(g, "bump:3").values)
    op = prop.prepare([0.1])
    np.testing.assert_array_equal(
        prop.apply_heat_values([list(f)], op), prop.apply_heat_values(f[None], op)
    )
    with pytest.raises(ParameterError):
        prop.apply_heat_values([[1.0] * 31], op)


# ---------------------------------------------------------------------------
# Batched application
# ---------------------------------------------------------------------------

_BATCH_TIMES = np.array([0.3, 0.01, 0.05, 0.3, 1.0])  # a short time and a repeated one
_BATCH_WEIGHTS = np.array(
    [
        [0.5, 0.25, 0.0, 0.0, 0.0],
        [0.0, 1.0, 2.0, 0.0, 0.0],
        [0.1, 0.2, 0.3, 0.4, 0.5],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.7],
    ]
)


@pytest.mark.parametrize(
    "n_dim,points,batch_rows",
    [
        (1, 64, None),
        (1, 256, None),
        (1, 256, 1),
        (1, 256, 2),
        (2, 32, None),
        (2, 136, None),
        (2, 136, 1),
        (3, 16, None),
    ],
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_batched_apply_matches_single_applies(
    n_dim, points, batch_rows, gamma, monkeypatch, dense_heat, heat_once
):
    # on the orthant; batch_rows shrinks the FFT workspace so the rows are
    # transformed that many at a time.  The single applies are the dense
    # reference's
    g = make_grid(n_dim, 8.0, points)
    prop = HeatPropagator(g)
    if batch_rows is not None:
        p = _transform_length(prop, float(_BATCH_TIMES.max()))
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    rng = np.random.default_rng(100 * n_dim + points)
    stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + prop.shape)
    weighted = stack * prop.weight_values(gamma)
    singles = np.stack([heat_once(prop, f, float(t)) for f, t in zip(weighted, _BATCH_TIMES)])
    ref = dense_heat(g, weighted, _BATCH_TIMES, half=True)
    np.testing.assert_allclose(singles, ref, rtol=0, atol=1e-13)
    op = prop.prepare(_BATCH_TIMES)
    batched = prop.apply_heat_values(weighted, op)
    if batch_rows is not None:
        assert op._step == batch_rows
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-13)
    summed = prop.apply_heat_values(weighted, prop.prepare(_BATCH_TIMES, _BATCH_WEIGHTS))
    assert summed.shape == (_BATCH_WEIGHTS.shape[0],) + prop.shape
    np.testing.assert_allclose(
        summed, np.tensordot(_BATCH_WEIGHTS, singles, axes=1), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("points", [64, 256])
def test_single_apply_is_the_one_row_batch(points, heat_once):
    # one field under one time is, bit for bit, the first row of a batch of
    # two under that time
    g = make_grid(1, 8.0, points)
    prop = HeatPropagator(g)
    f = orthant(standard_data(g, "bump:2").values)
    one = heat_once(prop, f, 0.4)
    two = prop.apply_heat_values(np.stack([f, f[::-1]]), prop.prepare([0.4, 0.4]))
    np.testing.assert_array_equal(two[0], one)


@pytest.mark.parametrize("points", [64, 256])
def test_batched_apply_validation(points):
    g = make_grid(1, 8.0, points)
    prop = HeatPropagator(g)
    stack = np.ones((3,) + prop.shape)
    for bad in ([0.1, -0.2, 0.3], [0.1, 0.2, math.nan], [math.inf, 0.2, 0.3]):
        with pytest.raises(ParameterError):
            prop.prepare(np.array(bad))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack, prop.prepare([0.1, 0.2]))  # three fields, two times
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack[0], prop.prepare([0.1]))  # no stack axis
    with pytest.raises(ParameterError):
        prop.prepare([0.1, 0.2, 0.3], np.ones((2, 2)))
    # non-finite weights or mixes would turn every sum into NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            prop.prepare([0.1, 0.2], weights=[[bad, 1.0]])
        with pytest.raises(ParameterError):
            prop.prepare([0.1, 0.2, 0.3], [[1.0, bad, 0.0]])
        with pytest.raises(ParameterError):
            prop.prepare([0.1, 0.2], mix=[[1.0], [bad]])


@pytest.mark.parametrize("n_dim,points", [(2, 16), (2, 10), (3, 16), (3, 10), (3, 6)])
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_direct_path_equals_per_row_correlation(n_dim, points, gamma):
    # on the orthant, on odd half axes too (M = 10 and 6), against each row
    # correlated directly, axis by axis, with its normalized 2M-1
    # kernel samples, zero outside the box, on the full grid and taken on
    # the orthant
    g = make_grid(n_dim, 8.0, points)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(7 * n_dim + points)
    stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + prop.shape)
    weighted = stack * prop.weight_values(gamma)
    ref = np.empty_like(stack)
    for j, t in enumerate(_BATCH_TIMES):
        row = mirrored(weighted[j])
        samples = prop._axis_samples(np.array([t]), points - 1)[0]
        for ax in range(n_dim):
            row = ndimage.correlate1d(row, samples / samples.sum(), axis=ax, mode="constant")
        ref[j] = orthant(row)
    out = prop.apply_heat_values(weighted, prop.prepare(_BATCH_TIMES))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)
    summed = prop.apply_heat_values(weighted, prop.prepare(_BATCH_TIMES, _BATCH_WEIGHTS))
    np.testing.assert_allclose(
        summed, np.tensordot(_BATCH_WEIGHTS, ref, axes=1), rtol=0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# Prepared operator
# ---------------------------------------------------------------------------

def _cases(*cases):
    """pytest params (n_dim, points[, batch_rows]) of cases written as
    (n_dim, points, flag[, batch_rows]), each named by all its values.  The
    flag only names a case, so that its id stays stable: those marked False
    are the grids that a direct (Toeplitz) path once served (2D M = 16 and
    64, 3D M = 16 to 64)."""
    return [
        pytest.param(*case[:2], *case[3:], id="-".join(map(str, case))) for case in cases
    ]


def _transform_length(prop, t_max):
    """The transform length Q per axis of an operator of times up to t_max."""
    return semigroup._orthant_length(prop.grid.points_per_axis, prop.grid.h, t_max)


def _kernel_length(prop, t_max):
    """The padded length 2Q at which an operator of times up to t_max asks
    for its factors."""
    return 2 * _transform_length(prop, t_max)


def _split_lines(monkeypatch, length, n_dim, rows):
    """Shrink the FFT workspace so that an operator of transform length
    `length` contracts `rows` rows at a time (1 for one-row batches) over
    blocks of k lines of its first spectral axis, and return k: the largest
    k at which the spectra outgrow the workspace and the last block is
    shorter (1 if there is none).  A 1D spectrum is one line, one block at
    any workspace: there the workspace just drops to one-row batches, and k
    is None."""
    if n_dim == 1:
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", 16)
        return None
    k = next((k for k in range((length - 1) // 4, 1, -1) if length % k), 1)
    line_bytes = 16 * rows * length ** (n_dim - 2) * (length // 2 + 1)
    monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", 4 * k * line_bytes)
    return k


def _check_blocks(op, k):
    """The operator contracts its first spectral axis in blocks of k lines,
    or, for k = None, in one block."""
    starts = [cut.start for cut, _ in op._blocks]
    assert starts == ([None] if k is None else list(range(0, op._spec_shape[0], k)))


@pytest.mark.parametrize(
    "n_dim,points,batch_rows",
    _cases(
        (1, 256, True, None),  # one batch of all rows
        (1, 256, True, 1),
        (1, 256, True, 2),
        (2, 24, True, None),
        (2, 24, True, 2),
        (2, 136, True, None),  # batches of 3 rows and 2 at the default workspace
        (3, 12, True, None),
        (3, 12, True, 1),
        (2, 64, False, None),
        (2, 16, False, None),
        (3, 24, False, None),
        (3, 16, False, None),
        (2, 24, True, "blocks"),  # one-row batches, 24 lines in blocks of 5
        (3, 12, True, "blocks"),  # one-row batches, 12 lines in blocks of 1
    ),
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_prepared_apply_equals_per_row_construction(
    n_dim, points, batch_rows, gamma, monkeypatch, dense_heat
):
    # _BATCH_TIMES has a short time; _BATCH_WEIGHTS an all-zero target row and
    # columns weighted by two targets.  The reference sums each row
    # densely, on the orthant
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    p = _transform_length(prop, float(_BATCH_TIMES.max()))
    if batch_rows == "blocks":
        k = _split_lines(monkeypatch, p, n_dim, rows=1)
    elif batch_rows is not None:
        # the workspace holds batch_rows rows padded to the operator's length
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    rng = np.random.default_rng(3 * n_dim + points)
    for weights in (None, _BATCH_WEIGHTS):
        op = prop.prepare(_BATCH_TIMES, weights)
        if batch_rows == "blocks":
            assert op._step == 1
            _check_blocks(op, k)
        elif batch_rows is not None:
            assert op._step == batch_rows
        elif (n_dim, points) == (2, 136):
            assert op._step == 3  # the default workspace splits the rows 3 + 2
        # the operator's workspace is reused: a second stack must not see the first
        for _ in range(2):
            stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + prop.shape)
            weighted = stack * prop.weight_values(gamma)
            ref = dense_heat(g, weighted, _BATCH_TIMES, weights, half=True)
            out = prop.apply_heat_values(weighted, op)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        if weights is not None:
            np.testing.assert_array_equal(out[3], 0.0)  # the all-zero weight row


@pytest.mark.parametrize(
    "n_dim,points,batch_rows",
    _cases(
        (1, 256, True, None),  # one batch of every row
        (1, 256, True, 1),
        (2, 136, True, None),  # batches of 3 rows and 2 at the default workspace
        (2, 24, True, 2),
        (3, 12, True, None),
        (3, 12, True, 1),
        (2, 64, False, None),
        (2, 64, False, 1),
        (3, 16, False, None),
        (3, 16, False, 1),
        (3, 32, False, None),
        (3, 32, False, 1),
    ),
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_producer_apply_equals_stack_apply(n_dim, points, batch_rows, gamma, monkeypatch):
    # a producer that writes the rows of a stack gives that stack's result
    # bit for bit, with and without weights; the
    # operator asks for every row once, in order, and hands the producer
    # contiguous views of its propagator's scratch (the fields are orthant
    # halves of the grid's)
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    if batch_rows is not None:
        # the FFT workspace holds batch_rows padded rows
        p = _transform_length(prop, float(_BATCH_TIMES.max()))
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    rng = np.random.default_rng(7 * n_dim + points)
    stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + prop.shape)
    weight = prop.weight_values(gamma)
    for weights in (None, _BATCH_WEIGHTS):
        op = prop.prepare(_BATCH_TIMES, weights)
        if batch_rows is not None:
            assert op._step == batch_rows
        calls = []

        def fill(lo, hi, out):
            calls.append((lo, hi))
            assert out.shape == (hi - lo,) + prop.shape
            assert out.flags.c_contiguous
            assert np.shares_memory(out, prop._buffer)
            for k, row in enumerate(out):
                row[...] = stack[lo + k] * weight

        produced = prop.apply_heat_values(fill, op)
        ref = prop.apply_heat_values(stack * weight, op)
        np.testing.assert_array_equal(produced, ref)
        assert not np.shares_memory(produced, prop._buffer)
        # every column of _BATCH_WEIGHTS is weighted, so no batch is skipped
        count, step = _BATCH_TIMES.size, op._step
        assert calls == [(lo, min(lo + step, count)) for lo in range(0, count, step)]


# five rows mixed from three inputs: a copy, two interpolations, a row that
# mixes nothing and one of three terms
_MIX = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.25, 0.75, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 0.0],
        [0.2, 0.3, 0.5],
    ]
)


@pytest.mark.parametrize(
    "n_dim,points,batch_rows",
    _cases(
        (1, 256, True, None),  # one batch of every row
        (1, 256, True, 1),
        (1, 256, True, 2),
        (2, 24, True, None),
        (2, 24, True, 1),
        (2, 136, True, None),  # batches of 3 rows and 2 at the default workspace
        (3, 16, False, None),
        (3, 16, False, 1),
        (2, 24, True, "blocks"),  # 24 lines in blocks of 5
        (3, 16, False, "blocks"),  # 16 lines in blocks of 3
    ),
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_mixed_inputs_equal_mixed_fields_applied_row_by_row(
    n_dim, points, batch_rows, gamma, monkeypatch, dense_heat
):
    # an operator prepared with a (J, K) mix takes K inputs and gives the
    # dense reference's rows of the J mixed fields: it mixes the rows'
    # spectra from the inputs' spectra.  A producer of the inputs is asked
    # for each batch of them once, in order, and gives the stack's result
    # bit for bit
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    p = _transform_length(prop, float(_BATCH_TIMES.max()))
    if isinstance(batch_rows, int):
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    rng = np.random.default_rng(13 * n_dim + points)
    weight = prop.weight_values(gamma)
    count = _MIX.shape[1]
    for weights in (None, _BATCH_WEIGHTS):
        if batch_rows == "blocks":
            # a mixed operator contracts all J rows at once, with or without weights
            k = _split_lines(monkeypatch, p, n_dim, rows=_BATCH_TIMES.size)
        op = prop.prepare(_BATCH_TIMES, weights, mix=_MIX)
        if batch_rows == "blocks":
            _check_blocks(op, k)
        elif batch_rows is not None:
            assert op._step == batch_rows
        for _ in range(2):  # the workspace is reused: a second stack must not see the first
            inputs = rng.uniform(0.0, 2.0, (count,) + prop.shape)
            mixed = np.tensordot(_MIX, inputs * weight, axes=1)
            ref = dense_heat(g, mixed, _BATCH_TIMES, weights, half=True)
            out = prop.apply_heat_values(inputs * weight, op)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        if weights is None:
            # a mix without weights returns the rows: those of explicit identity
            # weights, bit for bit
            eye = prop.prepare(_BATCH_TIMES, np.eye(_BATCH_TIMES.size), mix=_MIX)
            np.testing.assert_array_equal(prop.apply_heat_values(inputs * weight, eye), out)
        calls = []

        def fill(lo, hi, rows):
            calls.append((lo, hi))
            rows[...] = inputs[lo:hi] * weight

        np.testing.assert_array_equal(prop.apply_heat_values(fill, op), out)
        assert calls == [(lo, min(lo + op._step, count)) for lo in range(0, count, op._step)]


@pytest.mark.parametrize("inputs,targets", [(1, None), (2, 7)])
def test_one_dimensional_inverse_batches_more_targets_than_inputs(
    inputs, targets, monkeypatch, dense_heat
):
    # a 1D apply inverts each batch of spectra through the real lines that
    # its forward transforms reorder the inputs into, so those lines hold a
    # batch of inputs or of results, whichever is larger.  Here batches of
    # three rows: the free term's shape (one input mixed into nine rows, no
    # weights) and a weighted one (two inputs, seven sums), whose results
    # are inverted in three batches, equal the dense reference
    g = make_grid(1, 6.0, 256)
    times = np.linspace(0.05, 0.45, 9)
    q = semigroup._orthant_length(256, g.h, float(times.max()))
    monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", 3 * 16 * q)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(11 + inputs)
    mix = np.ones((times.size, 1)) if inputs == 1 else rng.uniform(0.0, 1.0, (times.size, inputs))
    weights = None if targets is None else rng.uniform(0.0, 1.0, (targets, times.size))
    op = prop.prepare(times, weights, mix)
    assert op._step == 3 and op._work[0] == (3 * q,)
    stack = rng.uniform(0.0, 2.0, (inputs,) + prop.shape)
    ref = dense_heat(g, mix @ stack, times, weights, half=True)
    out = prop.apply_heat_values(stack, op)
    assert out.shape == ref.shape and len(out) > 2 * op._step
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_dim,points", [(1, 256), (2, 24), (3, 12)])
@pytest.mark.parametrize("t_max", [0.02, 1.0])
def test_padded_length_leaves_the_operator_unchanged(n_dim, points, t_max, dense_heat):
    # padded only as far as the longest kernel reaches (a transform length
    # below the cap for short times, at the cap Q = M for long ones), the
    # operator gives the dense reference's sums, since the kernel is zero
    # beyond that reach in double precision.  Bound: 8 ulps of the largest
    # output
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    times = _BATCH_TIMES * t_max
    rng = np.random.default_rng(5 * n_dim + points)
    for weights in (None, _BATCH_WEIGHTS):
        op = prop.prepare(times, weights)
        assert op._q < points if t_max < 1.0 else op._q == points
        stack = rng.uniform(0.0, 2.0, (times.size,) + prop.shape)
        ref = dense_heat(g, stack, times, weights, half=True)
        ulp = np.finfo(float).eps * np.abs(ref).max()
        np.testing.assert_allclose(prop.apply_heat_values(stack, op), ref, rtol=0, atol=8 * ulp)


def _is_5_smooth(p):
    for f in (2, 3, 5):
        while p % f == 0:
            p //= f
    return p == 1


def test_prepared_operator_validation():
    g = make_grid(1, 8.0, 256)
    prop = HeatPropagator(g)
    op = prop.prepare(np.array([0.1, 0.2]), np.ones((1, 2)))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((3,) + prop.shape), op)  # three fields, two times
    with pytest.raises(ParameterError):
        HeatPropagator(g).apply_heat_values(np.ones((2,) + prop.shape), op)  # another propagator
    for bad in ([0.1, -0.2], [math.nan, 0.2], [], [0.0], [0.1, 0.0]):
        with pytest.raises(ParameterError):
            prop.prepare(np.array(bad))
    for bad in (np.ones((3, 2)), np.ones(2), np.ones((2, 0))):  # a mix of J = 2 rows
        with pytest.raises(ParameterError):
            prop.prepare(np.array([0.1, 0.2]), mix=bad)
    mixed = prop.prepare(np.array([0.1, 0.2]), mix=np.ones((2, 3)))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((2,) + prop.shape), mixed)  # two fields, three inputs


# ---------------------------------------------------------------------------
# Per-axis kernel factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_dim,points", [(2, 24), (3, 12)])
def test_per_axis_spectrum_is_the_full_kernel_spectrum(n_dim, points):
    # the factors, M + 1 real values at the doubled box, of which an
    # operator reads the first M, multiplied over the axes, are the N-D
    # kernel's spectrum there: its first M values per axis, which are real,
    # as the kernel is symmetric
    g = make_grid(n_dim, 4.0, points)
    prop = HeatPropagator(g)
    m = points
    for t in (0.05, 0.6):
        entry = prop._kernel_entry(np.array([t]), 2 * m)[0]
        assert entry.shape == (m + 1,) and entry.dtype == float
        entry = entry[:m]
        # the full N-D kernel, built as the outer product of the wrapped axis kernel
        g1 = prop._axis_samples(np.array([t]), m - 1)[0]
        g1 = g1 / g1.sum()
        wrapped = np.zeros(2 * m)
        wrapped[:m] = g1[m - 1 :]
        wrapped[m + 1 :] = g1[: m - 1]
        kern = wrapped
        for _ in range(n_dim - 1):
            kern = np.multiply.outer(kern, wrapped)
        ref = np.fft.rfftn(kern)[(slice(0, m),) * n_dim]
        np.testing.assert_allclose(ref.imag, 0.0, rtol=0, atol=1e-15)
        prod = np.ones(ref.shape)
        for ax in range(n_dim):
            prod = prod * entry.reshape((-1,) + (1,) * (n_dim - 1 - ax))
        np.testing.assert_allclose(prod, ref.real, rtol=0, atol=1e-15)


def test_apply_takes_a_prepared_operator_only():
    # times, weights and mixes go to prepare, which refuses a time <= 0: a
    # scalar time, a time array or an operator of another propagator is
    # refused by the apply, and so is a weight matrix as a third argument
    g = make_grid(1, 8.0, 64)
    prop = HeatPropagator(g)
    stack = np.ones((2,) + prop.shape)
    other = HeatPropagator(g).prepare([0.1, 0.2])
    for bad in (0.5, 0.0, np.array([0.1, 0.2]), [0.1, 0.2], np.array([0.1]), other):
        with pytest.raises(ParameterError):
            prop.apply_heat_values(stack, bad)
    for times in ([0.0], [0.1, 0.0]):
        with pytest.raises(ParameterError, match="> 0"):
            prop.prepare(times)
    with pytest.raises(TypeError):
        prop.apply_heat_values(stack, prop.prepare([0.1, 0.2]), np.ones((1, 2)))


def test_one_dimensional_entry_is_the_half_spectrum():
    g = make_grid(1, 8.0, 256)
    prop = HeatPropagator(g)
    entry = prop._kernel_entry(np.array([0.3]), 512)
    assert entry.shape == (1, 257) and entry.dtype == float


@pytest.mark.parametrize("n_dim,points", [(2, 16), (3, 16), (3, 8)])
@pytest.mark.parametrize("times", [_BATCH_TIMES, _BATCH_TIMES[2:]])
def test_direct_apply_results_own_their_memory(n_dim, points, times):
    # an apply works in the propagator's scratch: no result shares memory
    # with it, and a later apply, of this operator or of another one of the
    # propagator, leaves the result unchanged
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(points)
    for weights in (None, rng.uniform(0.0, 1.0, (2, times.size))):
        op = prop.prepare(times, weights)
        first = prop.apply_heat_values(rng.uniform(0.0, 1.0, (times.size,) + prop.shape), op)
        kept = first.copy()
        second = prop.apply_heat_values(rng.uniform(0.0, 1.0, (times.size,) + prop.shape), op)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, prop._buffer)
        prop.apply_heat_values(rng.uniform(0.0, 1.0, (1,) + prop.shape), prop.prepare(times[:1]))
        np.testing.assert_array_equal(first, kept)
        zeros = np.zeros((times.size,) + prop.shape)
        np.testing.assert_array_equal(prop.apply_heat_values(zeros, op), 0.0)


@pytest.mark.parametrize("n_dim,points", _cases((1, 256, True), (2, 24, True), (3, 12, True)))
def test_operators_of_one_propagator_share_its_scratch(n_dim, points):
    # operators whose padded lengths and row counts differ, applied in turn
    # on one propagator, give what each gives on a fresh propagator, bit for
    # bit: a free term (one input mixed into four rows), a Picard-like sweep
    # (weights and a mix, a longer time) and a one-row weighted operator (a
    # short time, so a shorter padded length).  No result shares memory with
    # the scratch, which only grows
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    specs = [
        (np.array([0.05, 0.1, 0.2, 0.3]), None, np.ones((4, 1))),
        (_BATCH_TIMES, _BATCH_WEIGHTS, _MIX),
        (np.array([0.01]), np.array([[0.5]]), None),
    ]
    assert len({_transform_length(prop, float(t.max())) for t, _, _ in specs}) > 1
    ops = [prop.prepare(t, w, mix=x) for t, w, x in specs]
    rng = np.random.default_rng(5 * n_dim + points)
    sizes = []
    for _ in range(2):
        for (t, w, x), op in zip(specs, ops):
            count = t.size if x is None else x.shape[1]
            stack = rng.uniform(0.0, 2.0, (count,) + prop.shape)
            out = prop.apply_heat_values(stack, op)
            fresh = HeatPropagator(g)
            np.testing.assert_array_equal(
                out, fresh.apply_heat_values(stack, fresh.prepare(t, w, mix=x))
            )
            assert not np.shares_memory(out, prop._buffer)
            sizes.append(prop._buffer.size)
    assert sizes == sorted(sizes) and sizes[3:] == sizes[2:3] * 3  # grown by the first round


def _memory(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("n_dim,points", [(1, 256), (2, 24), (3, 12)])
def test_operators_bind_again_in_a_replaced_scratch(n_dim, points):
    # an operator takes its views of the propagator's scratch on its first
    # apply and keeps them while the buffer is kept.  A larger operator
    # (nine rows and a longer time, so a longer padded length) replaces the
    # buffer; the views of the two small operators keep the retired one
    # alive until each has applied again, after which both work in the new
    # buffer and the retired one is freed.  Every result is a fresh
    # propagator's, bit for bit
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    specs = [
        (np.array([0.01]), np.array([[0.5]]), None),
        (np.array([0.05, 0.1]), None, np.ones((2, 1))),
        (np.linspace(0.1, 1.0, 9), np.full((2, 9), 0.5), None),
    ]
    ops = [prop.prepare(t, w, mix=x) for t, w, x in specs]
    rng = np.random.default_rng(7 * n_dim + points)
    stacks = [
        rng.uniform(0.0, 2.0, ((t.size if x is None else x.shape[1]),) + prop.shape)
        for t, _, x in specs
    ]

    def apply(k):
        out = prop.apply_heat_values(stacks[k], ops[k])
        fresh = HeatPropagator(g)
        t, w, x = specs[k]
        np.testing.assert_array_equal(
            out, fresh.apply_heat_values(stacks[k], fresh.prepare(t, w, mix=x))
        )

    apply(0)
    apply(1)
    retired = weakref.ref(_memory(prop._buffer))
    apply(2)
    assert _memory(prop._buffer) is not retired()
    assert retired() is not None  # the small operators' views hold it
    apply(0)
    assert retired() is not None
    apply(1)
    assert retired() is None
    size = prop._buffer.size
    for k in (2, 0, 1):
        apply(k)
    assert prop._buffer.size == size


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n_dim,points", [(1, 256), (2, 24), (3, 12)])
def test_strided_and_fortran_stacks_are_read_in_place(n_dim, points, mixed):
    # a stack is reordered into the padded lines straight from the
    # caller's array: a strided view (every other field of a longer stack,
    # each field's axes reversed) and a Fortran-ordered copy of it each
    # give the result of its contiguous copy, bit for bit
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    op = prop.prepare(_BATCH_TIMES, _BATCH_WEIGHTS, mix=_MIX if mixed else None)
    count = _MIX.shape[1] if mixed else _BATCH_TIMES.size
    longer = np.random.default_rng(points + mixed).uniform(0.0, 2.0, (2 * count,) + prop.shape)
    strided = longer[(slice(None, None, 2),) + (slice(None, None, -1),) * n_dim]
    fortran = np.asfortranarray(strided)
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    want = prop.apply_heat_values(np.ascontiguousarray(strided), op)
    np.testing.assert_array_equal(prop.apply_heat_values(strided, op), want)
    np.testing.assert_array_equal(prop.apply_heat_values(fortran, op), want)


@pytest.mark.parametrize("n_dim,points", [(1, 512), (2, 48), (2, 192), (3, 32)])
def test_one_row_operator_holds_one_spectrum(n_dim, points):
    # an operator prepared without weights has none (weights is None) and
    # returns its rows: it inverts each batch's spectra where they lie, so
    # after an apply the scratch holds one batch of spectra and its
    # transform work, and no sums, whether one batch holds every row (one
    # row) or the rows span several (nine, in 2D M = 192 on the orthant).
    # One with a mix and no weights, shaped like the free term, writes its
    # mixed spectra as its results: the scratch holds the input's spectrum
    # and the nine result spectra, and no block of row spectra.  Their
    # results are those of the same operators given the identity weights
    # explicitly, which form the sums, bit for bit
    g = make_grid(n_dim, 10.0 if n_dim < 3 else 8.0, points)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(points)
    f = rng.uniform(0.0, 1.0, prop.shape)
    op = prop.prepare([0.5])
    assert op.weights is None
    out = prop.apply_heat_values(f[None], op)
    spectrum = 16 * math.prod(op._spec_shape)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= spectrum + 8 * f.size + work + 4 * 64
    one = prop.prepare([0.5], [[1.0]])
    np.testing.assert_array_equal(out, prop.apply_heat_values(f[None], one))
    rows = np.stack([f, f[::-1]])
    np.testing.assert_array_equal(
        prop.apply_heat_values(rows, prop.prepare([0.1, 0.3])),
        prop.apply_heat_values(rows, prop.prepare([0.1, 0.3], np.eye(2))),
    )
    times = np.linspace(0.1, 0.5, 9)
    stack = rng.uniform(0.0, 1.0, (times.size,) + prop.shape)
    prop = HeatPropagator(g)
    op = prop.prepare(times)
    if (n_dim, points) == (2, 192):
        assert op._step < times.size
    out = prop.apply_heat_values(stack, op)
    spectrum = 16 * math.prod(op._spec_shape)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= op._step * (spectrum + 8 * f.size) + work + 6 * 64
    eye = prop.prepare(times, np.eye(times.size))
    np.testing.assert_array_equal(out, prop.apply_heat_values(stack, eye))
    prop = HeatPropagator(g)
    op = prop.prepare(times, mix=np.ones((times.size, 1)))
    assert op.weights is None and op._block_shape == (0,)
    out = prop.apply_heat_values(f[None], op)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= (1 + times.size) * spectrum + 8 * f.size + work + 6 * 64
    eye = prop.prepare(times, np.eye(times.size), mix=np.ones((times.size, 1)))
    np.testing.assert_array_equal(out, prop.apply_heat_values(f[None], eye))


def test_sweep_shaped_operator_holds_no_row_spectra():
    # a 3D operator shaped like a Picard sweep of 8 nodes per window (the
    # default is 4): J = 72 rows, each mixed from two of K = 10 knot inputs
    # and weighed by one of T = 9 targets.  After an apply the scratch holds the K input spectra, the T sums, one block
    # of the rows' lines and one batch's transform work (its rows, their
    # reordered lines and half spectra, each within the workspace), not the
    # J row spectra, which alone take 8.6 MB here
    g = make_grid(3, 8.0, 32)
    prop = HeatPropagator(g)
    rows, knots, targets = 72, 10, 9
    owner = np.repeat(np.arange(targets), rows // targets)
    lo = np.minimum(owner, knots - 2)
    theta = np.tile(np.linspace(0.0, 1.0, rows // targets), targets)
    mix = np.zeros((rows, knots))
    mix[np.arange(rows), lo] = 1.0 - theta
    mix[np.arange(rows), lo + 1] = theta
    weights = np.zeros((targets, rows))
    weights[owner, np.arange(rows)] = 1.0 / 8.0
    times = 0.25 * (owner + 1.5 - theta) / targets  # every lag > 0
    op = prop.prepare(times, weights, mix)
    stack = np.random.default_rng(17).uniform(0.0, 1.0, (knots,) + prop.shape)
    out = prop.apply_heat_values(stack, op)
    assert out.shape == (targets,) + prop.shape
    spectrum = 16 * math.prod(op._spec_shape)
    bound = (
        (knots + targets) * spectrum
        + 16 * math.prod(op._block_shape)
        + 3 * semigroup._FFT_WORKSPACE_BYTES
    )
    assert rows * spectrum > bound  # a scratch holding the row spectra fails
    assert prop._buffer.nbytes <= bound


def test_one_dimensional_apply_memory():
    # an apply at 1D M = 32768, t = 1 (Q = M = 32768, one-row batches)
    # peaks at its scratch and its result: the row is produced into its
    # spectrum's memory and inverted through the work's real line, so it
    # allocates no rows buffer and no (rows, Q) inverse
    g = make_grid(1, 6.0, 32768)
    prop = HeatPropagator(g)
    op = prop.prepare([1.0])
    f = np.random.default_rng(19).uniform(0.0, 1.0, (1,) + prop.shape)
    tracemalloc.start()
    try:
        out = prop.apply_heat_values(f, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._q == 32768 and op._step == 1
    assert peak <= prop._buffer.nbytes + out.nbytes + 2**16


def test_mirror_batch_scratch_holds_no_rows():
    # orthant applies of 32 weighted rows from a producer, in batches of
    # more than one row, in 2D M = 192 (shaped like the subsolution-2d
    # check's) and 3D M = 32: the scratch holds one batch of spectra, the
    # sum's spectrum and the transform work, and no buffer of the batch's
    # rows, which are produced into their spectra's memory.  The work is
    # the batch's real lines along the last axis, or one row's padded lines
    # along an earlier axis if they are more, and those lines' half
    # spectra: the earlier axes are transformed one row at a time, so the
    # work holds no batch of their lines
    for n_dim, points, half_width in ((2, 192, 10.0), (3, 32, 8.0)):
        g = make_grid(n_dim, half_width, points)
        prop = HeatPropagator(g)
        times = np.linspace(0.01, 0.5, 32)
        op = prop.prepare(times, np.full((1, times.size), 1.0 / times.size))
        stack = np.random.default_rng(23).uniform(0.0, 1.0, (times.size,) + prop.shape)

        def fill(lo, hi, out):
            out[...] = stack[lo:hi]

        out = prop.apply_heat_values(fill, op)
        np.testing.assert_array_equal(out, prop.apply_heat_values(stack, op))
        assert 1 < op._step < times.size
        m, q = points // 2, op._q
        spectrum = 16 * math.prod(op._spec_shape)
        lines = q ** (n_dim - 1) * (q + 2)
        work = 8 * max(op._step * m ** (n_dim - 1) * q, lines) + 16 * lines // q * (q // 2 + 1)
        assert prop._buffer.nbytes <= (op._step + 1) * spectrum + work + 5 * 64


@pytest.mark.parametrize("n_dim,points,half_width", [(2, 192, 10.0), (3, 24, 6.0), (3, 32, 8.0)])
@pytest.mark.parametrize("kind", ["producer", "mixed"])
def test_mirror_batched_and_one_row_applies_are_bit_identical(
    n_dim, points, half_width, kind, monkeypatch
):
    # an orthant apply in batches of several rows and the same apply in
    # one-row batches agree bit for bit: the last axis is transformed over
    # the batch's lines at once and each earlier axis a row at a time, and a
    # line's transform does not depend on the lines beside it.  "producer"
    # writes weighted rows (times |x|^-0.4) and sums them into five
    # targets, each of which weighs one row, so that its sum has the same
    # bits in any order; "mixed" mixes the twelve rows from three inputs
    # and sums them into seven targets, so that the sums are inverted in
    # several batches.  A mixed operator contracts all its rows at once,
    # whatever its batches
    g = make_grid(n_dim, half_width, points)
    times = np.linspace(0.04, 0.5, 12)
    rng = np.random.default_rng(29 * n_dim + points)
    if kind == "producer":
        weights = np.zeros((5, times.size))
        weights[np.arange(5), [0, 3, 4, 8, 11]] = rng.uniform(0.5, 1.0, 5)
        mix = None
    else:
        weights = rng.uniform(0.0, 1.0, (7, times.size))
        mix = rng.uniform(0.0, 1.0, (times.size, 3))
    count = times.size if mix is None else mix.shape[1]
    inputs = rng.uniform(0.0, 2.0, (count,) + (points // 2,) * n_dim)
    results = []
    for one_row in (False, True):
        prop = HeatPropagator(g)
        if one_row:
            q = semigroup._orthant_length(points, g.h, float(times.max()))
            monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", 16 * q**n_dim)
        op = prop.prepare(times, weights, mix)
        assert (op._step == 1) if one_row else (1 < op._step < len(weights))
        weight = prop.weight_values(0.4)

        def fill(lo, hi, out):
            out[...] = inputs[lo:hi]
            out *= weight

        results.append(prop.apply_heat_values(fill, op))
    np.testing.assert_array_equal(results[1], results[0])


@pytest.mark.parametrize(
    "n_dim,points",
    _cases((1, 256, True), (2, 24, True), (2, 64, False), (3, 64, False), (3, 32, False)),
)
def test_kernel_entry_on_a_time_array_stacks_the_scalar_calls(n_dim, points):
    # one pass over a time array builds, row by row, what one call per time
    # builds: samples and factors, at the doubled box and at a padded length
    g = make_grid(n_dim, 8.0, points)
    prop = HeatPropagator(g)
    times = np.array([1e-4, 1 / 32, 0.05, 0.3, 1.0])
    samples = prop._axis_samples(times, points - 1)
    assert samples.shape == (times.size, 2 * points - 1)
    rows = [prop._axis_samples(np.array([t]), points - 1) for t in times]
    np.testing.assert_array_equal(samples, np.concatenate(rows))
    for length in (2 * points, _kernel_length(prop, 1.0)):
        batch = prop._kernel_entry(times, length)
        rows = np.concatenate([prop._kernel_entry(np.array([t]), length) for t in times])
        assert batch.shape == rows.shape and batch.dtype == rows.dtype
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_dim,points", [(1, 64), (2, 16)])
def test_kernel_entry_batch_names_its_truncating_time(n_dim, points):
    g = make_grid(n_dim, 4.0, points)
    prop = HeatPropagator(g)
    with pytest.raises(TruncationError, match=r"t = 25\.0:"):
        prop._kernel_entry(np.array([0.01, 0.5, 25.0, 0.02]), 2 * points)
    with pytest.raises(TruncationError, match=r"t = 25\.0:"):
        prop.prepare([0.01, 25.0])


@pytest.mark.parametrize(
    "n_dim,half_width,points",
    [
        pytest.param(1, 8.0, 256, id="1-8.0-256-mirror"),
        pytest.param(2, 6.0, 48, id="2-6.0-48-mirror"),
        pytest.param(3, 6.0, 24, id="3-6.0-24-mirror"),
    ],
)
def test_kernel_entry_samples_the_kernels_reach_alone(monkeypatch, n_dim, half_width, points):
    # at a padded length L below the 2M cap and at the cap, the factors are
    # those of a full-box build (samples at every displacement of the box,
    # summed to their mass, wrapped at L and transformed), within 1e-15 of
    # the largest, and no displacement beyond k = min(L - M, M - 1) is
    # sampled.  The factors are the real part of that spectrum, as floats:
    # its imaginary part is rounding, since the wrapped kernel is symmetric
    g = make_grid(n_dim, half_width, points)
    prop = HeatPropagator(g)
    m = points
    full_box = HeatPropagator._axis_samples
    widths = []

    def counted(self, times, reach):
        samples = full_box(self, times, reach)
        widths.append(samples.shape[-1])
        return samples

    monkeypatch.setattr(HeatPropagator, "_axis_samples", counted)
    times = np.array([0.5, 1e-3, 1.0, 0.1, 1e-5]) * 0.05
    below = _kernel_length(prop, float(times.max()))
    assert below < 2 * m
    for length in (below, 2 * m):
        k = min(length - m, m - 1)
        factors = prop._kernel_entry(times, length)
        assert widths == [2 * k + 1]
        widths.clear()
        samples = full_box(prop, times, m - 1)
        samples /= samples.sum(axis=1)[:, None]
        wrapped = np.zeros((times.size, length))
        wrapped[:, : k + 1] = samples[:, m - 1 : m + k]
        wrapped[:, length - k :] = samples[:, m - 1 - k : m - 1]
        spectrum = np.fft.rfft(wrapped)
        assert np.max(np.abs(spectrum.imag)) < 1e-15
        ref = spectrum.real
        assert factors.shape == ref.shape and factors.dtype == float
        assert np.max(np.abs(factors - ref)) <= 1e-15 * np.max(np.abs(ref))
    # an operator asks at L below the cap
    prop.prepare(times)
    assert widths == [2 * (below - m) + 1]
    widths.clear()
    # a time the box truncates is named, the first of two, and forces L = 2M
    with pytest.raises(TruncationError, match=r"t = 30\.0:"):
        prop.prepare(np.append(times, [30.0, 25.0]))
    assert widths == [2 * m - 1]
    assert _kernel_length(prop, 25.0) == 2 * m


def test_kernel_build_memory():
    # tracemalloc peaks of the 1D M = 32768 builds: the samples at t = 1
    # (the whole box) take one array and a half-width vector of squares;
    # prepare at t = 0.01 samples its reach alone and peaks in the factor
    # build, at the wrapped kernel and its transform: its one twiddle
    # (Q/2 + 1 complex values) is built after them, so it is not held there
    g = make_grid(1, 6.0, 32768)
    prop = HeatPropagator(g)
    tracemalloc.start()
    try:
        samples = prop._axis_samples(np.array([1.0]), 32768 - 1)
        peak = tracemalloc.get_traced_memory()[1]
        assert samples.shape == (1, 2 * 32768 - 1)
        assert peak <= 2 * samples.nbytes
        del samples
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op = prop.prepare([0.01])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    factors = 16 * (op._q + 1)
    twiddle = 16 * (op._q // 2 + 1)
    assert op._twiddle.nbytes == twiddle
    assert peak < 2 * factors + twiddle


def test_smoothing_bound_for_weighted_operator(heat_once):
    # sup S_gamma(t) f <= eta1 * t^{-gamma/2} sup f  (up to truncation slack)
    g = make_grid(1, 12.0, 1024)
    gamma = 0.5
    f = standard_data(g, "const:1")
    for t in (0.25, 1.0):
        prop = HeatPropagator(g)
        out = heat_once(prop, orthant(f.values) * prop.weight_values(gamma), t)
        bound = eta1(gamma, 1) * t ** (-gamma / 2)
        assert float(np.max(np.abs(out))) <= bound * (1 + 1e-10)
        assert np.all(out > 0)


def test_weighted_operator_gamma_zero_is_plain_heat(heat_once):
    # the weighted operator at gamma = 0 is the plain one, bit for bit, and
    # so is apply_heat's field
    g = make_grid(1, 8.0, 256)
    f = standard_data(g, "gauss:1")
    prop = HeatPropagator(g)
    a = heat_once(prop, orthant(f.values) * prop.weight_values(0.0), 0.5)
    np.testing.assert_array_equal(a, heat_once(prop, orthant(f.values), 0.5))
    np.testing.assert_array_equal(mirrored(a), apply_heat(f, 0.5).values)


def test_propagator_preserves_symmetry():
    # apply_heat's field is its orthant mirrored: symmetric bit for bit
    g = make_grid(1, 8.0, 256)
    f = standard_data(g, "bump:3")
    out = apply_heat(f, 1.0).values
    np.testing.assert_array_equal(out, out[::-1])


# ---------------------------------------------------------------------------
# The orthant
# ---------------------------------------------------------------------------

# rows of several lengths, two of them short
_MIRROR_TIMES = np.array([0.01, 0.3, 1.0, 0.05, 0.7, 0.002, 0.2, 0.45])
_MIRROR_WEIGHTS = np.array(
    [[0.5, 1.0, 0.25, 0.0, 2.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 3.0, 0.0, 0.5, 1.0, 0.0]]
)


@pytest.mark.parametrize(
    "n_dim,points", [(1, 30), (1, 256), (2, 30), (2, 40), (3, 12), (3, 30)]
)
@pytest.mark.parametrize("t_scale", [0.02, 1.0])
@pytest.mark.parametrize("batch_rows", [None, 3, "blocks"])
def test_mirror_and_full_routes_agree(
    n_dim, points, t_scale, batch_rows, monkeypatch, dense_heat
):
    # the orthant's sums (cosine transforms) are those of the dense
    # reference, on the orthant and on the full grid (of the mirrored rows,
    # cut to the orthant), for mirror-symmetric fields: stacks, weights, a
    # (J, K) mix and a producer,
    # with short times, an odd half axis (M = 30), more than one batch
    # (batch_rows), the spectral lines in blocks ("blocks": uneven in 2D and
    # 3D but for 3D M = 12, whose 8 or 12 lines come in blocks of one) and,
    # for the long times, the transform length at its cap Q = M (the reach
    # 13 sqrt(t) / h exceeds the box at L = 6, t = 1)
    g = make_grid(n_dim, 6.0, points)
    times = _MIRROR_TIMES * t_scale
    q = semigroup._orthant_length(points, g.h, float(times.max()))
    assert q == points if t_scale == 1.0 else q < points
    if batch_rows == 3:
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * q**n_dim)
    prop = HeatPropagator(g)
    assert prop.shape == (points // 2,) * n_dim
    rng = np.random.default_rng(7 * points + n_dim)
    halves = rng.uniform(0.0, 2.0, (times.size,) + prop.shape)
    mix = rng.uniform(0.0, 1.0, (times.size, 3))
    mix[2] = 0.0  # a row that mixes nothing

    def agree(on_half, rows, weights):
        # against the sums of the J orthant rows that the operator applies
        on_full = dense_heat(g, np.stack([mirrored(r) for r in rows]), times, weights)
        refs = [dense_heat(g, rows, times, weights, half=True)]
        refs.append(np.stack([orthant(f) for f in on_full]))
        for ref in refs:
            assert on_half.shape == ref.shape
            assert np.max(np.abs(on_half - ref)) <= 1e-13 * np.max(np.abs(ref))

    for weights in (None, _MIRROR_WEIGHTS):
        if batch_rows == "blocks":
            k = _split_lines(monkeypatch, q, n_dim, rows=1)
        op = prop.prepare(times, weights)
        assert op._q == q
        if batch_rows == "blocks":
            assert op._step == 1
            _check_blocks(op, k)
        elif batch_rows is not None:
            assert op._step == batch_rows
        agree(prop.apply_heat_values(halves, op), halves, weights)
        if batch_rows == "blocks":
            # a mixed operator contracts all J rows at once
            k = _split_lines(monkeypatch, q, n_dim, rows=times.size)
        mixed = prop.prepare(times, weights, mix)
        if batch_rows == "blocks":
            _check_blocks(mixed, k)

        def fill(lo, hi, out):
            out[...] = halves[lo:hi]

        rows = np.tensordot(mix, halves[:3], axes=1)
        agree(prop.apply_heat_values(halves[:3], mixed), rows, weights)
        agree(prop.apply_heat_values(fill, mixed), rows, weights)


@pytest.mark.parametrize("m", [2, 12, 30, 64, 136, 256, 1024])
@pytest.mark.parametrize("t_max", [0.0, 1e-6, 1e-3, 0.03, 0.5, 8.0])
def test_orthant_length_is_even_and_covers_the_kernel_reach(m, t_max):
    # the least even 5-smooth Q with 2Q >= M + reach, capped at M; a reach
    # past the box folds nothing back onto it, since no displacement within
    # the box exceeds M - 1
    h = 24.0 / m
    q = semigroup._orthant_length(m, h, t_max)
    reach = math.ceil(13.0 * math.sqrt(t_max) / h)
    assert q % 2 == 0 and 1 <= q <= m
    assert 2 * q >= m + min(reach, m)
    fits = [k for k in range(2, m, 2) if 2 * k >= m + reach and _is_5_smooth(k)]
    assert q == (fits[0] if fits else m)


def test_mirror_kernel_factor_is_the_real_fft_factor():
    # an operator scales by the first Q values of the real factor at 2Q, bit
    # for bit: along an earlier axis in order, along the last axis paired
    # as (G_k, G_(Q-k)) to match the cosine coefficients (c_k, -c_(Q-k))
    # that share an entry of the half spectrum (c_0 pairs with a zero)
    g = make_grid(2, 8.0, 128)
    times = np.array([1e-3, 0.05, 0.4, 2.0])
    prop = HeatPropagator(g)
    op = prop.prepare(times)
    q = semigroup._orthant_length(128, g.h, float(times.max()))
    assert op._q == q
    factor = prop._kernel_entry(times, 2 * q)
    (_, (first, last)), = op._blocks
    np.testing.assert_array_equal(first.reshape(times.size, q), factor[:, :q])
    pairs = last.reshape(times.size, q // 2 + 1, 2)
    np.testing.assert_array_equal(pairs[:, :, 0], factor[:, : q // 2 + 1])
    np.testing.assert_array_equal(pairs[:, 1:, 1], factor[:, q - 1 : q // 2 - 1 : -1])
    np.testing.assert_array_equal(pairs[:, 0, 1], factor[:, 0])


def test_mirror_propagator_takes_orthant_fields_only(heat_once):
    g = make_grid(2, 6.0, 16)
    prop = HeatPropagator(g)
    with pytest.raises(ParameterError):
        heat_once(prop, np.ones(g.shape), 0.1)
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((2,) + g.shape), prop.prepare([0.1, 0.2]))
    assert heat_once(prop, np.ones(prop.shape), 0.1).shape == prop.shape
    assert prop.weight_values(0.5).shape == prop.shape
