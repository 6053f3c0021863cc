"""Discrete heat semigroup: mass, exact Gaussians, contraction, weighting."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from singheat import (
    HeatPropagator,
    ParameterError,
    TruncationError,
    apply_heat,
    gaussian_exact,
    heat_kernel,
    make_grid,
    mirrored,
    orthant,
    sample,
    standard_data,
    sup_norm,
)
from singheat import semigroup
from singheat.constants import eta1


def test_heat_kernel_pointwise():
    # (4 pi t)^{-N/2} exp(-|x|^2 / (4t)) at a few hand points
    assert heat_kernel(1.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5)
    assert heat_kernel(0.25, 1.0) == pytest.approx(math.pi**-0.5 * math.exp(-1.0))
    assert heat_kernel(1.0, (0.0, 0.0)) == pytest.approx((4 * math.pi) ** -1)
    assert heat_kernel(0.5, (1.0, 1.0, 0.0)) == pytest.approx(
        (2 * math.pi) ** -1.5 * math.exp(-1.0)
    )


def test_raw_kernel_mass_close_to_one():
    g = make_grid(1, 12.0, 1024)
    prop = HeatPropagator(g)
    for t in (0.01, 0.5, 1.0, 2.0):
        assert prop.raw_kernel_mass(t) == pytest.approx(1.0, abs=1e-12)


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
            assert sup_norm(out.with_values(out.values - ref.values)) < 1e-6


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
    vals = rng.uniform(0.0, 2.0, g.shape)
    f = sample(g, lambda x: 0 * x).with_values(vals)
    out = apply_heat(f, 0.7)
    assert np.all(out.values >= 0.0)
    # normalization keeps the sup bound up to a few ulps
    assert sup_norm(out) <= sup_norm(f) * (1 + 1e-12)


def test_direct_and_spectral_paths_agree():
    # zero-padded FFTs on a 3D and a 1D grid give the field of the dense
    # reference, a direct sum over every pair of nodes
    for g in (make_grid(3, 8.0, 32), make_grid(1, 8.0, 256)):
        f = standard_data(g, "bump:2")
        t = 0.5
        out = apply_heat(f, t)
        # dense reference: axis kernel matrix normalized by the total sample
        # mass over the full displacement set (matching the operator's single
        # global renormalization, not a per-row one), applied along each axis
        x = g.axis_nodes()
        m = g.points_per_axis
        disp = np.arange(-(m - 1), m) * g.h
        total = np.exp(-(disp**2) / (4 * t)).sum()
        k = np.exp(-((x[:, None] - x[None, :]) ** 2) / (4 * t)) / total
        ref = f.values
        for ax in range(g.n_dim):
            ref = np.moveaxis(np.tensordot(k, ref, axes=([1], [ax])), 0, ax)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Batched application
# ---------------------------------------------------------------------------

_BATCH_TIMES = np.array([0.3, 0.0, 0.05, 0.3, 1.0])  # a t = 0 row and a repeated time
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
def test_batched_apply_matches_single_applies(n_dim, points, batch_rows, gamma, monkeypatch):
    # the FFT path in every dimension; batch_rows shrinks the FFT workspace
    # so the rows are transformed that many at a time
    g = make_grid(n_dim, 8.0, points)
    if batch_rows is not None:
        p = semigroup._padded_length(points, g.h, float(_BATCH_TIMES.max()))
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(100 * n_dim + points)
    stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + g.shape)
    singles = np.stack(
        [prop.apply_weighted_values(f, float(t), gamma) for f, t in zip(stack, _BATCH_TIMES)]
    )
    batched = prop.apply_weighted_values(stack, _BATCH_TIMES, gamma)
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-13)
    # the t = 0 row is the (weighted) field itself
    weighted = stack[1] * prop.weight_values(gamma) if gamma else stack[1]
    np.testing.assert_allclose(batched[1], weighted, rtol=0, atol=1e-13)
    summed = prop.apply_weighted_values(stack, _BATCH_TIMES, gamma, _BATCH_WEIGHTS)
    assert summed.shape == (_BATCH_WEIGHTS.shape[0],) + g.shape
    np.testing.assert_allclose(
        summed, np.tensordot(_BATCH_WEIGHTS, singles, axes=1), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("points", [64, 256])
def test_single_apply_is_the_one_row_batch(points):
    g = make_grid(1, 8.0, points)
    prop = HeatPropagator(g)
    f = standard_data(g, "bump:2").values
    one = prop.apply_heat_values(f, 0.4)
    np.testing.assert_array_equal(prop.apply_heat_values(f[None], np.array([0.4]))[0], one)


@pytest.mark.parametrize("points", [64, 256])
def test_batched_apply_validation(points):
    g = make_grid(1, 8.0, points)
    prop = HeatPropagator(g)
    stack = np.ones((3,) + g.shape)
    for bad in ([0.1, -0.2, 0.3], [0.1, 0.2, math.nan], [math.inf, 0.2, 0.3]):
        with pytest.raises(ParameterError):
            prop.apply_heat_values(stack, np.array(bad))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack, np.array([0.1, 0.2]))  # three fields, two times
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack[0], np.array([0.1]))  # no stack axis
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack, np.array([0.1, 0.2, 0.3]), np.ones((2, 2)))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(stack[0], 0.1, np.ones((1, 1)))
    # non-finite weights or mixes would turn every sum into NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            prop.prepare([0.1, 0.2], weights=[[bad, 1.0]])
        with pytest.raises(ParameterError):
            prop.apply_heat_values(stack, np.array([0.1, 0.2, 0.3]), [[1.0, bad, 0.0]])
        with pytest.raises(ParameterError):
            prop.prepare([0.1, 0.2], mix=[[1.0], [bad]])


@pytest.mark.parametrize("n_dim,points", [(2, 16), (2, 10), (3, 16), (3, 10), (3, 6)])
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_direct_path_equals_per_row_correlation(n_dim, points, gamma):
    # reference: each row with t > 0 correlated directly, axis by axis, with
    # its normalized 2M-1 kernel samples, zero outside the box
    g = make_grid(n_dim, 8.0, points)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(7 * n_dim + points)
    stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + g.shape)
    weighted = stack * prop.weight_values(gamma) if gamma else stack
    ref = np.empty_like(stack)
    for j, t in enumerate(_BATCH_TIMES):
        row = weighted[j]
        if t > 0.0:
            samples = prop._axis_samples(t)
            for ax in range(n_dim):
                row = ndimage.correlate1d(row, samples / samples.sum(), axis=ax, mode="constant")
        ref[j] = row
    out = prop.apply_weighted_values(stack, _BATCH_TIMES, gamma)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)
    summed = prop.apply_weighted_values(stack, _BATCH_TIMES, gamma, _BATCH_WEIGHTS)
    np.testing.assert_allclose(
        summed, np.tensordot(_BATCH_WEIGHTS, ref, axes=1), rtol=0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# Prepared operator
# ---------------------------------------------------------------------------

def _cases(*cases):
    """pytest params (n_dim, points[, batch_rows]) of cases written as
    (n_dim, points, fft[, batch_rows]), each named by all its values.  fft
    only names a case, so that its id stays stable: it is the path the case
    took while fields that are not mirror-symmetric had two.  Every case
    now takes the FFT path; those marked False are the grids the direct
    path served (2D M = 16 and 64, 3D M = 16 to 64), which the others
    leave out."""
    return [
        pytest.param(*case[:2], *case[3:], id="-".join(map(str, case))) for case in cases
    ]


def _per_row_reference(prop, stack, times, weights):
    """Each row through its own kernel, then the weighted sums: the row
    zero-padded to the doubled box 2M is transformed, its spectrum
    multiplied by the full-length axis factor once per axis, and transformed
    back."""
    m = prop.grid.points_per_axis
    n = prop.grid.n_dim
    corner = (slice(0, m),) * n
    rows = []
    for f, t in zip(stack, times):
        if t == 0.0:
            rows.append(f.copy())
            continue
        entry = prop._kernel_entry(float(t))
        padded = np.zeros((2 * m,) * n)
        padded[corner] = f
        spec = np.fft.rfftn(padded)
        for ax in range(n - 1):
            spec = spec * entry.reshape((-1,) + (1,) * (n - 1 - ax))
        spec = spec * entry[: m + 1]
        rows.append(np.fft.irfftn(spec, s=(2 * m,) * n, axes=tuple(range(n)))[corner])
    rows = np.stack(rows)
    return rows if weights is None else np.tensordot(weights, rows, axes=1)


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
        (2, 136, True, None),  # one-row batches at the default workspace
        (3, 12, True, None),  # batches of 4 rows and 1 (P = 2M = 24)
        (3, 12, True, 1),
        (2, 64, False, None),
        (2, 16, False, None),
        (3, 24, False, None),
        (3, 16, False, None),
        (2, 24, True, "blocks"),  # one-row batches, 48 lines in blocks of 11
        (3, 12, True, "blocks"),  # one-row batches, 24 lines in blocks of 5
    ),
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_prepared_apply_equals_per_row_construction(n_dim, points, batch_rows, gamma, monkeypatch):
    # _BATCH_TIMES has a t = 0 row; _BATCH_WEIGHTS an all-zero target row and
    # columns weighted by two targets
    g = make_grid(n_dim, 6.0, points)
    p = semigroup._padded_length(points, g.h, float(_BATCH_TIMES.max()))
    if batch_rows == "blocks":
        k = _split_lines(monkeypatch, p, n_dim, rows=1)
    elif batch_rows is not None:
        # the workspace holds batch_rows rows padded to the operator's length
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(3 * n_dim + points)
    for weights in (None, _BATCH_WEIGHTS):
        op = prop.prepare(_BATCH_TIMES, weights)
        if batch_rows == "blocks":
            assert op._step == 1
            _check_blocks(op, k)
        elif batch_rows is not None:
            assert op._step == batch_rows
        elif (n_dim, points) == (3, 12):
            assert op._step == 4  # the default workspace splits the rows 4 + 1
        # the operator's workspace is reused: a second stack must not see the first
        for _ in range(2):
            stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + g.shape)
            weighted = stack * prop.weight_values(gamma) if gamma else stack
            ref = _per_row_reference(prop, weighted, _BATCH_TIMES, weights)
            out = prop.apply_weighted_values(stack, op, gamma)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        if weights is not None:
            np.testing.assert_array_equal(out[3], 0.0)  # the all-zero weight row


@pytest.mark.parametrize(
    "n_dim,points,batch_rows",
    _cases(
        (1, 256, True, None),  # one batch of every row
        (1, 256, True, 1),
        (2, 136, True, None),  # one-row batches at the default workspace
        (2, 24, True, 2),
        (3, 12, True, None),  # batches of 4 rows and 1
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
    # bit for bit, with and without weights and with a t = 0 row; the
    # operator asks for every row once, in order, and hands the producer
    # contiguous views of its propagator's scratch, on either route (the
    # mirror route's fields are orthant halves of the grid's)
    g = make_grid(n_dim, 6.0, points)
    if batch_rows is not None:
        # the FFT workspace holds batch_rows padded rows
        p = semigroup._padded_length(points, g.h, float(_BATCH_TIMES.max()))
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    for prop in (HeatPropagator(g), HeatPropagator(g, mirror=True)):
        rng = np.random.default_rng(7 * n_dim + points)
        stack = rng.uniform(0.0, 2.0, (_BATCH_TIMES.size,) + prop.shape)
        weight = prop.weight_values(gamma) if gamma else None
        for weights in (None, _BATCH_WEIGHTS):
            op = prop.prepare(_BATCH_TIMES, weights)
            if batch_rows is not None and not prop.mirror:
                assert op._step == batch_rows
            calls = []

            def fill(lo, hi, out):
                calls.append((lo, hi))
                assert out.shape == (hi - lo,) + prop.shape
                assert out.flags.c_contiguous
                assert np.shares_memory(out, prop._buffer)
                for k, row in enumerate(out):
                    row[...] = stack[lo + k] * weight if gamma else stack[lo + k]

            produced = prop.apply_heat_values(fill, op)
            ref = prop.apply_weighted_values(stack, op, gamma)
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
        (2, 136, True, None),  # one-row batches at the default workspace
        (3, 16, False, None),
        (3, 16, False, 1),
        (2, 24, True, "blocks"),  # 48 lines in blocks of 11
        (3, 16, False, "blocks"),  # 32 lines in blocks of 7
    ),
)
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_mixed_inputs_equal_mixed_fields_applied_row_by_row(
    n_dim, points, batch_rows, gamma, monkeypatch
):
    # an operator prepared with a (J, K) mix takes K inputs and gives the
    # per-row result on the J mixed fields: it mixes the rows' spectra from
    # the inputs' spectra.  A producer of the inputs is asked for each batch
    # of them once, in order, and gives the stack's result bit for bit
    g = make_grid(n_dim, 6.0, points)
    p = semigroup._padded_length(points, g.h, float(_BATCH_TIMES.max()))
    if isinstance(batch_rows, int):
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * p**n_dim)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(13 * n_dim + points)
    weight = prop.weight_values(gamma) if gamma else 1.0
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
            inputs = rng.uniform(0.0, 2.0, (count,) + g.shape)
            mixed = np.tensordot(_MIX, inputs * weight, axes=1)
            ref = _per_row_reference(prop, mixed, _BATCH_TIMES, weights)
            out = prop.apply_weighted_values(inputs, op, gamma)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        if weights is None:
            # a mix without weights returns the rows: those of explicit identity
            # weights, bit for bit
            eye = prop.prepare(_BATCH_TIMES, np.eye(_BATCH_TIMES.size), mix=_MIX)
            np.testing.assert_array_equal(prop.apply_weighted_values(inputs, eye, gamma), out)
        calls = []

        def fill(lo, hi, rows):
            calls.append((lo, hi))
            rows[...] = inputs[lo:hi] * weight

        np.testing.assert_array_equal(prop.apply_heat_values(fill, op), out)
        assert calls == [(lo, min(lo + op._step, count)) for lo in range(0, count, op._step)]


@pytest.mark.parametrize("inputs,targets", [(1, None), (2, 7)])
def test_one_dimensional_inverse_batches_more_targets_than_inputs(inputs, targets, monkeypatch):
    # a 1D apply inverts each batch of spectra into the padded rows that its
    # forward transforms pad the inputs in, so those rows hold a batch of
    # inputs or of results, whichever is larger.  Here batches of three
    # rows: the free term's shape (one input mixed into nine rows, no
    # weights) and a weighted one (two inputs, seven sums), whose results
    # are inverted in three batches, equal the per-row reference
    g = make_grid(1, 6.0, 256)
    times = np.linspace(0.05, 0.45, 9)
    p = semigroup._padded_length(256, g.h, float(times.max()))
    monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", 3 * 16 * p)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(11 + inputs)
    mix = np.ones((times.size, 1)) if inputs == 1 else rng.uniform(0.0, 1.0, (times.size, inputs))
    weights = None if targets is None else rng.uniform(0.0, 1.0, (targets, times.size))
    op = prop.prepare(times, weights, mix)
    assert op._step == 3 and op._work[0] == (3, p)
    stack = rng.uniform(0.0, 2.0, (inputs,) + g.shape)
    ref = _per_row_reference(prop, mix @ stack, times, weights)
    out = op.apply(stack)
    assert out.shape == ref.shape and len(out) > 2 * op._step
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_dim,points", [(1, 256), (2, 24), (3, 12)])
@pytest.mark.parametrize("t_max", [0.02, 1.0])
def test_padded_length_leaves_the_operator_unchanged(n_dim, points, t_max):
    # padded only as far as the longest kernel reaches (P < 2M for short
    # times, the doubled box for long ones), the operator is the one padded
    # to 2M, since the kernel is zero beyond that reach in double precision.
    # Bound: 8 ulps of the largest output; the batched sums and the per-row
    # reference round differently even at P = 2M (up to 4.5 ulps measured)
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    times = _BATCH_TIMES * t_max
    rng = np.random.default_rng(5 * n_dim + points)
    for weights in (None, _BATCH_WEIGHTS):
        op = prop.prepare(times, weights)
        p = op._padded[-1]
        assert p < 2 * points if t_max < 1.0 else p == 2 * points
        stack = rng.uniform(0.0, 2.0, (times.size,) + g.shape)
        ref = _per_row_reference(prop, stack, times, weights)
        ulp = np.finfo(float).eps * np.abs(ref).max()
        np.testing.assert_allclose(prop.apply_heat_values(stack, op), ref, rtol=0, atol=8 * ulp)


def _is_5_smooth(p):
    for f in (2, 3, 5):
        while p % f == 0:
            p //= f
    return p == 1


@pytest.mark.parametrize("m", [12, 64, 136, 256, 1024])
@pytest.mark.parametrize("t_max", [1e-6, 1e-3, 0.03, 0.5, 8.0])
def test_padded_length_is_the_least_smooth_cover_of_the_kernel_reach(m, t_max):
    h = 24.0 / m
    p = semigroup._padded_length(m, h, t_max)
    least = m + math.ceil(13.0 * math.sqrt(t_max) / h)
    fits = [q for q in range(least, 2 * m) if q % 2 == 0 and _is_5_smooth(q)]
    # the least even 5-smooth length covering the box and the reach, or else
    # the doubled box, which covers any kernel the box holds
    assert p == (fits[0] if fits else 2 * m)


def test_prepared_operator_validation():
    g = make_grid(1, 8.0, 256)
    prop = HeatPropagator(g)
    op = prop.prepare(np.array([0.1, 0.2]), np.ones((1, 2)))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((3,) + g.shape), op)  # three fields, two times
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((2,) + g.shape), op, np.ones((1, 2)))
    with pytest.raises(ParameterError):
        HeatPropagator(g).apply_heat_values(np.ones((2,) + g.shape), op)  # another propagator
    for bad in ([0.1, -0.2], [math.nan, 0.2], []):
        with pytest.raises(ParameterError):
            prop.prepare(np.array(bad))
    for bad in (np.ones((3, 2)), np.ones(2), np.ones((2, 0))):  # a mix of J = 2 rows
        with pytest.raises(ParameterError):
            prop.prepare(np.array([0.1, 0.2]), mix=bad)
    mixed = prop.prepare(np.array([0.1, 0.2]), mix=np.ones((2, 3)))
    with pytest.raises(ParameterError):
        prop.apply_heat_values(np.ones((2,) + g.shape), mixed)  # two fields, three inputs


# ---------------------------------------------------------------------------
# Per-axis kernel factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_dim,points", [(2, 24), (3, 12)])
def test_per_axis_spectrum_is_the_full_kernel_spectrum(n_dim, points):
    g = make_grid(n_dim, 4.0, points)
    prop = HeatPropagator(g)
    m = points
    for t in (0.05, 0.6):
        entry = prop._kernel_entry(t)
        assert entry.shape == (2 * m,)
        # the full N-D kernel, built as the outer product of the wrapped axis kernel
        g1 = prop._axis_samples(t)
        g1 = g1 / g1.sum()
        wrapped = np.zeros(2 * m)
        wrapped[:m] = g1[m - 1 :]
        wrapped[m + 1 :] = g1[: m - 1]
        kern = wrapped
        for _ in range(n_dim - 1):
            kern = np.multiply.outer(kern, wrapped)
        ref = np.fft.rfftn(kern)
        prod = np.ones(ref.shape, dtype=complex)
        for ax in range(n_dim):
            factor = entry if ax < n_dim - 1 else entry[: m + 1]
            prod = prod * factor.reshape((-1,) + (1,) * (n_dim - 1 - ax))
        np.testing.assert_allclose(prod, ref, rtol=0, atol=1e-15)


def test_one_dimensional_entry_is_the_half_spectrum():
    g = make_grid(1, 8.0, 256)
    prop = HeatPropagator(g)
    entry = prop._kernel_entry(0.3)
    assert entry.shape == (257,)


@pytest.mark.parametrize("n_dim,points", [(2, 16), (3, 16), (3, 8)])
@pytest.mark.parametrize("times", [_BATCH_TIMES, _BATCH_TIMES[_BATCH_TIMES > 0.0]])
def test_direct_apply_results_own_their_memory(n_dim, points, times):
    # an apply works in the propagator's scratch: no result shares memory
    # with it, and a later apply, of this operator or of another one of the
    # propagator, leaves the result unchanged
    g = make_grid(n_dim, 6.0, points)
    prop = HeatPropagator(g)
    rng = np.random.default_rng(points)
    for weights in (None, rng.uniform(0.0, 1.0, (2, times.size))):
        op = prop.prepare(times, weights)
        first = op.apply(rng.uniform(0.0, 1.0, (times.size,) + g.shape))
        kept = first.copy()
        second = op.apply(rng.uniform(0.0, 1.0, (times.size,) + g.shape))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, prop._buffer)
        prop.prepare(times[:1]).apply(rng.uniform(0.0, 1.0, (1,) + g.shape))
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(op.apply(np.zeros((times.size,) + g.shape)), 0.0)


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
    assert len({semigroup._padded_length(points, g.h, float(t.max())) for t, _, _ in specs}) > 1
    ops = [prop.prepare(t, w, mix=x) for t, w, x in specs]
    rng = np.random.default_rng(5 * n_dim + points)
    sizes = []
    for _ in range(2):
        for (t, w, x), op in zip(specs, ops):
            count = t.size if x is None else x.shape[1]
            stack = rng.uniform(0.0, 2.0, (count,) + g.shape)
            out = op.apply(stack)
            fresh = HeatPropagator(g)
            np.testing.assert_array_equal(out, fresh.prepare(t, w, mix=x).apply(stack))
            assert not np.shares_memory(out, prop._buffer)
            sizes.append(prop._buffer.size)
    assert sizes == sorted(sizes) and sizes[3:] == sizes[2:3] * 3  # grown by the first round


@pytest.mark.parametrize(
    "n_dim,points,mirror", [(1, 512, False), (2, 48, False), (2, 192, True), (3, 32, True)]
)
def test_one_row_operator_holds_one_spectrum(n_dim, points, mirror):
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
    prop = HeatPropagator(g, mirror=mirror)
    rng = np.random.default_rng(points)
    f = rng.uniform(0.0, 1.0, prop.shape)
    op = prop.prepare([0.5])
    assert op.weights is None
    out = op.apply(f[None])
    spectrum = 16 * math.prod(op._spec_shape)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= spectrum + 8 * f.size + work + 4 * 64
    np.testing.assert_array_equal(out, prop.prepare([0.5], [[1.0]]).apply(f[None]))
    rows = np.stack([f, f[::-1]])
    np.testing.assert_array_equal(
        prop.prepare([0.1, 0.3]).apply(rows), prop.prepare([0.1, 0.3], np.eye(2)).apply(rows)
    )
    times = np.linspace(0.1, 0.5, 9)
    stack = rng.uniform(0.0, 1.0, (times.size,) + prop.shape)
    prop = HeatPropagator(g, mirror=mirror)
    op = prop.prepare(times)
    if (n_dim, points, mirror) == (2, 192, True):
        assert op._step < times.size
    out = op.apply(stack)
    spectrum = 16 * math.prod(op._spec_shape)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= op._step * (spectrum + 8 * f.size) + work + 6 * 64
    np.testing.assert_array_equal(out, prop.prepare(times, np.eye(times.size)).apply(stack))
    prop = HeatPropagator(g, mirror=mirror)
    op = prop.prepare(times, mix=np.ones((times.size, 1)))
    assert op.weights is None and op._block_shape == (0,)
    out = op.apply(f[None])
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= (1 + times.size) * spectrum + 8 * f.size + work + 6 * 64
    eye = prop.prepare(times, np.eye(times.size), mix=np.ones((times.size, 1)))
    np.testing.assert_array_equal(out, eye.apply(f[None]))


def test_sweep_shaped_operator_holds_no_row_spectra():
    # a 3D operator shaped like a Picard sweep: J = 72 rows, each mixed from
    # two of K = 10 knot inputs and weighed by one of T = 9 targets.  After
    # an apply the scratch holds the K input spectra, the T sums, one block
    # of the rows' lines and one batch's transform work (its rows, their
    # reordered lines and half spectra, each within the workspace), not the
    # J row spectra, which alone take 8.6 MB here
    g = make_grid(3, 8.0, 32)
    prop = HeatPropagator(g, mirror=True)
    rows, knots, targets = 72, 10, 9
    owner = np.repeat(np.arange(targets), rows // targets)
    lo = np.minimum(owner, knots - 2)
    theta = np.tile(np.linspace(0.0, 1.0, rows // targets), targets)
    mix = np.zeros((rows, knots))
    mix[np.arange(rows), lo] = 1.0 - theta
    mix[np.arange(rows), lo + 1] = theta
    weights = np.zeros((targets, rows))
    weights[owner, np.arange(rows)] = 1.0 / 8.0
    times = 0.25 * (owner + 1 - theta) / targets
    op = prop.prepare(times, weights, mix)
    stack = np.random.default_rng(17).uniform(0.0, 1.0, (knots,) + prop.shape)
    out = op.apply(stack)
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
    # an apply at 1D M = 32768, t = 1 (P = 65536, one-row batches) peaks at
    # its scratch and its result: the row is produced into its spectrum's
    # memory and inverted into its padded row, so it allocates no rows
    # buffer and no (rows, P) inverse
    g = make_grid(1, 6.0, 32768)
    prop = HeatPropagator(g)
    op = prop.prepare([1.0])
    f = np.random.default_rng(19).uniform(0.0, 1.0, (1,) + g.shape)
    tracemalloc.start()
    try:
        out = op.apply(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._padded == (65536,) and op._step == 1
    assert peak <= prop._buffer.nbytes + out.nbytes + 2**16


def test_mirror_batch_scratch_holds_no_rows():
    # a 2D M = 192 orthant apply of 32 weighted rows from a producer, shaped
    # like the subsolution-2d check's: its scratch holds one batch of
    # spectra, the sum's spectrum and the transform work, and no buffer of
    # the batch's rows, which are produced into their spectra's memory
    g = make_grid(2, 10.0, 192)
    prop = HeatPropagator(g, mirror=True)
    times = np.linspace(0.01, 0.5, 32)
    op = prop.prepare(times, np.full((1, times.size), 1.0 / times.size))
    stack = np.random.default_rng(23).uniform(0.0, 1.0, (times.size,) + prop.shape)

    def fill(lo, hi, out):
        out[...] = stack[lo:hi]

    out = op.apply(fill)
    np.testing.assert_array_equal(out, op.apply(stack))
    assert 1 < op._step < times.size
    spectrum = 16 * math.prod(op._spec_shape)
    work = 8 * math.prod(op._work[0]) + 16 * math.prod(op._work[1])
    assert prop._buffer.nbytes <= (op._step + 1) * spectrum + work + 5 * 64


@pytest.mark.parametrize(
    "n_dim,points",
    _cases((1, 256, True), (2, 24, True), (2, 64, False), (3, 64, False), (3, 32, False)),
)
def test_kernel_entry_on_a_time_array_stacks_the_scalar_calls(n_dim, points):
    # one pass over a time array builds, row by row, what one call per time
    # builds: samples and factors, at the default and at a padded length
    g = make_grid(n_dim, 8.0, points)
    prop = HeatPropagator(g)
    times = np.array([1e-4, 1 / 32, 0.05, 0.3, 1.0])
    samples = prop._axis_samples(times)
    assert samples.shape == (times.size, 2 * points - 1)
    np.testing.assert_array_equal(samples, np.stack([prop._axis_samples(t) for t in times]))
    for length in (None, semigroup._padded_length(points, g.h, 1.0)):
        batch = prop._kernel_entry(times, length)
        rows = np.stack([prop._kernel_entry(float(t), length) for t in times])
        assert batch.shape == rows.shape and batch.dtype == rows.dtype
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_dim,points", [(1, 64), (2, 16)])
def test_kernel_entry_batch_names_its_truncating_time(n_dim, points):
    g = make_grid(n_dim, 4.0, points)
    prop = HeatPropagator(g)
    with pytest.raises(TruncationError, match=r"t = 25\.0:"):
        prop._kernel_entry(np.array([0.01, 0.5, 25.0, 0.02]))
    with pytest.raises(TruncationError, match=r"t = 25\.0:"):
        prop.prepare([0.01, 25.0])


def _kernel_length(prop, t_max):
    """The padded length L at which an operator of times up to t_max asks
    for its factors: P on the FFT path, 2Q on the mirror route."""
    m, h = prop.grid.points_per_axis, prop.grid.h
    if prop.mirror:
        return 2 * semigroup._orthant_length(m, h, t_max)
    return semigroup._padded_length(m, h, t_max)


@pytest.mark.parametrize("mirror", [False, True], ids=["fft", "mirror"])
@pytest.mark.parametrize("n_dim,half_width,points", [(1, 8.0, 256), (2, 6.0, 48), (3, 6.0, 24)])
def test_kernel_entry_samples_the_kernels_reach_alone(monkeypatch, n_dim, half_width, points,
                                                      mirror):
    # at a padded length L below the 2M cap and at the cap, the factors are
    # those of a full-box build (samples at every displacement of the box,
    # summed to their mass, wrapped at L and transformed), within 1e-15 of
    # the largest, and no displacement beyond k = min(L - M, M - 1) is
    # sampled
    g = make_grid(n_dim, half_width, points)
    prop = HeatPropagator(g, mirror=mirror)
    m = points
    full_box = HeatPropagator._axis_samples
    widths = []

    def counted(self, t, reach=None):
        samples = full_box(self, t, reach)
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
        samples = full_box(prop, times)
        samples /= samples.sum(axis=1)[:, None]
        wrapped = np.zeros((times.size, length))
        wrapped[:, : k + 1] = samples[:, m - 1 : m + k]
        wrapped[:, length - k :] = samples[:, m - 1 - k : m - 1]
        if mirror:
            ref = np.fft.rfft(wrapped).real[:, : length // 2]
        else:
            ref = (np.fft.rfft if n_dim == 1 else np.fft.fft)(wrapped)
        assert factors.shape == ref.shape and factors.dtype == ref.dtype
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
    # prepare at t = 0.01 samples its reach alone, and holds the factors,
    # the wrapped kernel and its transform at the peak
    g = make_grid(1, 6.0, 32768)
    prop = HeatPropagator(g)
    tracemalloc.start()
    try:
        samples = prop._axis_samples(1.0)
        peak = tracemalloc.get_traced_memory()[1]
        assert samples.shape == (2 * 32768 - 1,)
        assert peak <= 2 * samples.nbytes
        del samples
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op = prop.prepare([0.01])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    factors = 16 * (op._padded[0] // 2 + 1)
    assert peak <= 3 * factors


def test_smoothing_bound_for_weighted_operator():
    # sup S_gamma(t) f <= eta1 * t^{-gamma/2} sup f  (up to truncation slack)
    g = make_grid(1, 12.0, 1024)
    gamma = 0.5
    f = standard_data(g, "const:1")
    for t in (0.25, 1.0):
        out = HeatPropagator(g).apply_weighted_values(f.values, t, gamma)
        bound = eta1(gamma, 1) * t ** (-gamma / 2)
        assert float(np.max(np.abs(out))) <= bound * (1 + 1e-10)
        assert np.all(out > 0)


def test_weighted_operator_gamma_zero_is_plain_heat():
    g = make_grid(1, 8.0, 256)
    f = standard_data(g, "gauss:1")
    a = HeatPropagator(g).apply_weighted_values(f.values, 0.5, 0.0)
    b = apply_heat(f, 0.5)
    np.testing.assert_array_equal(a, b.values)


def test_propagator_preserves_symmetry():
    g = make_grid(1, 8.0, 256)
    f = standard_data(g, "bump:3")
    out = apply_heat(f, 1.0).values
    np.testing.assert_allclose(out, out[::-1], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# The mirror route
# ---------------------------------------------------------------------------

# rows of several lengths, two of them the identity
_MIRROR_TIMES = np.array([0.0, 0.3, 1.0, 0.05, 0.7, 0.0, 0.2, 0.45])
_MIRROR_WEIGHTS = np.array(
    [[0.5, 1.0, 0.25, 0.0, 2.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 3.0, 0.0, 0.5, 1.0, 0.0]]
)


@pytest.mark.parametrize(
    "n_dim,points", [(1, 30), (1, 256), (2, 30), (2, 40), (3, 12), (3, 30)]
)
@pytest.mark.parametrize("t_scale", [0.02, 1.0])
@pytest.mark.parametrize("batch_rows", [None, 3, "blocks"])
def test_mirror_and_full_routes_agree(n_dim, points, t_scale, batch_rows, monkeypatch):
    # the same sums on the orthant (cosine transforms) as on the full grid
    # (the FFT path), for mirror-symmetric fields: stacks, weights, a (J, K)
    # mix, a producer and the weighted operator, with t = 0 rows, an odd
    # half axis (M = 30), more than one batch (batch_rows), the spectral
    # lines in blocks ("blocks": uneven in 2D and 3D but for 3D M = 12,
    # whose 8 or 12 lines come in blocks of one) and, for the long times,
    # the transform length at its cap Q = M (the reach 13 sqrt(t) / h
    # exceeds the box at L = 6, t = 1)
    g = make_grid(n_dim, 6.0, points)
    times = _MIRROR_TIMES * t_scale
    q = semigroup._orthant_length(points, g.h, float(times.max()))
    assert q == points if t_scale == 1.0 else q < points
    if batch_rows == 3:
        monkeypatch.setattr(semigroup, "_FFT_WORKSPACE_BYTES", batch_rows * 16 * q**n_dim)
    full, mirror = HeatPropagator(g), HeatPropagator(g, mirror=True)
    assert mirror.shape == (points // 2,) * n_dim and full.shape == g.shape
    rng = np.random.default_rng(7 * points + n_dim)
    halves = rng.uniform(0.0, 2.0, (times.size,) + mirror.shape)
    fields = np.stack([mirrored(h) for h in halves])
    mix = rng.uniform(0.0, 1.0, (times.size, 3))
    mix[2] = 0.0  # a row that mixes nothing

    def agree(on_full, on_half):
        ref = np.stack([orthant(f) for f in on_full])
        assert on_half.shape == ref.shape
        assert np.max(np.abs(on_half - ref)) <= 1e-13 * np.max(np.abs(ref))

    for weights in (None, _MIRROR_WEIGHTS):
        if batch_rows == "blocks":
            k = _split_lines(monkeypatch, q, n_dim, rows=1)
        op = mirror.prepare(times, weights)
        assert op._padded == (q,) * n_dim
        if batch_rows == "blocks":
            assert op._step == 1
            _check_blocks(op, k)
        elif batch_rows is not None:
            assert op._step == batch_rows
        agree(full.apply_heat_values(fields, times, weights), mirror.apply_heat_values(halves, op))
        agree(
            full.apply_weighted_values(fields, times, 0.4, weights),
            mirror.apply_weighted_values(halves, times, 0.4, weights),
        )
        if batch_rows == "blocks":
            # a mixed operator contracts all J rows at once
            k = _split_lines(monkeypatch, q, n_dim, rows=times.size)
        mixed = mirror.prepare(times, weights, mix)
        if batch_rows == "blocks":
            _check_blocks(mixed, k)

        def fill(lo, hi, out):
            out[...] = halves[lo:hi]

        ref = full.prepare(times, weights, mix).apply(fields[:3])
        agree(ref, mirror.apply_heat_values(halves[:3], mixed))
        agree(ref, mirror.apply_heat_values(fill, mixed))


@pytest.mark.parametrize("m", [2, 12, 30, 64, 136, 256, 1024])
@pytest.mark.parametrize("t_max", [0.0, 1e-6, 1e-3, 0.03, 0.5, 8.0])
def test_orthant_length_is_even_and_covers_the_kernel_reach(m, t_max):
    # Q is _padded_length's rule at P = 2Q: the least even 5-smooth Q with
    # 2Q >= M + reach, capped at M; a reach past the box folds nothing back
    # onto it, since no displacement within the box exceeds M - 1
    h = 24.0 / m
    q = semigroup._orthant_length(m, h, t_max)
    reach = math.ceil(13.0 * math.sqrt(t_max) / h)
    assert q % 2 == 0 and 1 <= q <= m
    assert 2 * q >= m + min(reach, m)
    fits = [k for k in range(2, m, 2) if 2 * k >= m + reach and _is_5_smooth(k)]
    assert q == (fits[0] if fits else m)


def test_mirror_kernel_factor_is_the_real_fft_factor():
    # the first Q values of the real part of the FFT path's factor at
    # P = 2Q, written straight into a given array
    g = make_grid(1, 8.0, 128)
    times = np.array([1e-3, 0.05, 0.4, 2.0])
    q = semigroup._orthant_length(128, g.h, float(times.max()))
    fft = HeatPropagator(g)._kernel_entry(times, 2 * q)
    out = np.empty((times.size, q))
    mirror = HeatPropagator(g, mirror=True)
    assert mirror._kernel_entry(times, 2 * q, out=out) is out
    np.testing.assert_array_equal(out, fft.real[:, :q])
    np.testing.assert_allclose(fft.imag, 0.0, rtol=0, atol=1e-16)


def test_mirror_propagator_takes_orthant_fields_only():
    g = make_grid(2, 6.0, 16)
    mirror = HeatPropagator(g, mirror=True)
    with pytest.raises(ParameterError):
        mirror.apply_heat_values(np.ones(g.shape), 0.1)
    with pytest.raises(ParameterError):
        mirror.apply_heat_values(np.ones((2,) + g.shape), np.array([0.1, 0.2]))
    np.testing.assert_array_equal(mirror.apply_heat_values(np.ones(mirror.shape), 0.0), 1.0)
    assert mirror.weight_values(0.5).shape == mirror.shape
