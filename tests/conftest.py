import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250815)


@pytest.fixture
def grid_1d():
    from singheat import make_grid

    return make_grid(1, 8.0, 256)


@pytest.fixture
def grid_2d():
    from singheat import make_grid

    return make_grid(2, 6.0, 48)


def _axis_matrix(grid, t, half):
    """The dense axis operator of S(t): row i holds the kernel samples at the
    displacements x_j - x_i, normalized by their sum over all 2M - 1
    displacements of the box, so zero extension outside it; with half=True,
    on the positive half axis, each column summed with its mirror image."""
    from singheat import HeatPropagator

    m = grid.points_per_axis
    samples = HeatPropagator(grid)._axis_samples(t)
    samples /= samples.sum()
    nodes = np.arange(m)
    matrix = samples[nodes[None, :] - nodes[:, None] + m - 1]
    if half:
        matrix = matrix[m // 2 :, m // 2 :] + matrix[m // 2 :, m // 2 - 1 :: -1]
    return matrix


def _dense_heat(grid, stack, times, weights=None, half=False):
    """Each row of stack under S(times[j]) by dense sums, one axis at a time
    (a row with t = 0 is kept), then the (T, J) weighted sums if weights
    are given.  With half=True the rows are positive orthants of
    mirror-symmetric fields, and so are the results."""
    rows = []
    for row, t in zip(np.asarray(stack, dtype=float), times):
        if t > 0.0:
            matrix = _axis_matrix(grid, float(t), half)
            for ax in range(row.ndim):
                row = np.moveaxis(np.tensordot(matrix, row, axes=([1], [ax])), 0, ax)
        rows.append(row)
    rows = np.stack(rows)
    return rows if weights is None else np.tensordot(weights, rows, axes=1)


@pytest.fixture
def dense_heat():
    """The reference that the propagator is checked against: the
    zero-extended convolution with the sampled kernel as dense sums."""
    return _dense_heat
