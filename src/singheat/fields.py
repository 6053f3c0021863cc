"""Spatial discretization: parameters, cell-centered grids, grid functions.

Nodes sit at the centers of a uniform partition of the cube [-L, L]^N, so the
origin is always a cell corner and never a node: along each axis the nodes are
+-(k + 1/2) h with h = 2L/M and M even.  Every nodewise quantity built from
|x|^{-gamma} is then finite, and the singular weight enters the discrete
operators through exact cell averages rather than point samples, which keeps
the full strength of the singular mass near the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError

__all__ = [
    "DEFAULT_POINTS",
    "Grid",
    "GridFunction",
    "Params",
    "is_mirror_symmetric",
    "make_grid",
    "mirrored",
    "orthant",
    "standard_data",
    "weight_field",
]

# Grid points per axis when none are given, by dimension: one field of the 3D
# default is 2 MB, where 1024 points per axis would be 8.6 GB.
DEFAULT_POINTS = {1: 1024, 2: 192, 3: 64}


@dataclass(frozen=True)
class Params:
    """Problem parameters for u_t - Laplace(u) = |x|^{-gamma} u^q.

    q is the sublinear source exponent, gamma the strength of the singular
    weight, n_dim the space dimension.  The admissible range for gamma is
    [0, min(2, n_dim)): below 2 so the weight is locally integrable against
    the parabolic scaling, below n_dim so it is locally integrable at all.
    """

    q: float
    gamma: float
    n_dim: int = 1

    def __post_init__(self) -> None:
        if self.n_dim not in (1, 2, 3):
            raise ParameterError(f"n_dim must be one of 1, 2, 3 (got {self.n_dim})")
        if not (0.0 < float(self.q) < 1.0):
            raise ParameterError(f"q must lie in the open interval (0, 1) (got {self.q})")
        if not (0.0 <= float(self.gamma) < self.gamma_sup):
            raise ParameterError(
                f"gamma must lie in [0, {self.gamma_sup:g}) for n_dim={self.n_dim} "
                f"(got {self.gamma})"
            )

    @property
    def gamma_sup(self) -> float:
        """Upper limit min(2, n_dim) of the admissible weight strength."""
        return float(min(2, self.n_dim))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-half_width, half_width]^n_dim.

    points_per_axis must be even so the node set is mirror symmetric about
    the origin with the origin itself on a cell boundary.
    """

    n_dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.n_dim not in (1, 2, 3):
            raise ParameterError(f"n_dim must be one of 1, 2, 3 (got {self.n_dim})")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ParameterError(f"half_width must be positive and finite (got {self.half_width})")
        if self.points_per_axis < 2 or self.points_per_axis % 2 != 0:
            raise ParameterError(
                f"points_per_axis must be an even integer >= 2 (got {self.points_per_axis})"
            )

    @property
    def h(self) -> float:
        """Cell width 2L/M, identical along every axis."""
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.n_dim

    @property
    def node_count(self) -> int:
        return self.points_per_axis**self.n_dim

    def axis_nodes(self) -> np.ndarray:
        """Node coordinates along one axis, exactly mirror symmetric."""
        half = (np.arange(self.points_per_axis // 2, dtype=float) + 0.5) * self.h
        return np.concatenate((-half[::-1], half))

    def node_mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        ax = self.axis_nodes()
        return tuple(np.meshgrid(*(ax,) * self.n_dim, indexing="ij"))

    def radius_values(self) -> np.ndarray:
        """Euclidean norm |x| at every node (never zero on this grid)."""
        ax = self.axis_nodes()
        out = np.zeros(self.shape)
        for m in np.meshgrid(*(ax,) * self.n_dim, indexing="ij", sparse=True):
            out += m * m
        return np.sqrt(out, out=out)


def make_grid(n_dim: int, half_width: float, points_per_axis: int) -> Grid:
    """Construct a grid, validating the geometry constraints."""
    return Grid(n_dim=n_dim, half_width=float(half_width), points_per_axis=int(points_per_axis))


@dataclass(frozen=True)
class GridFunction:
    """Real-valued field on the nodes of a grid.  The payload is copied on
    construction and frozen, so instances can be shared safely."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def orthant(values: np.ndarray) -> np.ndarray:
    """The block of a full-grid field on the positive orthant, the nodes with
    every coordinate > 0: shape (M/2,)^N, a view of values."""
    return values[tuple(slice(s // 2, None) for s in values.shape)]


def mirrored(half: np.ndarray) -> np.ndarray:
    """The full-grid field whose positive orthant is half and which is
    mirror-symmetric in every axis: a fresh array of shape (M,)^N whose
    values are exact copies of half's, each axis preceded by its
    reflection, which repeats the edge value (numpy's "symmetric" padding)."""
    full = half
    for ax in range(half.ndim):
        full = np.concatenate((np.flip(full, ax), full), axis=ax)
    return full


def is_mirror_symmetric(values: np.ndarray) -> bool:
    """Whether a full-grid field equals its reflection in every axis exactly."""
    return all(np.array_equal(values, np.flip(values, ax)) for ax in range(values.ndim))


# ---------------------------------------------------------------------------
# Singular weight as exact cell averages
# ---------------------------------------------------------------------------

def weight_field(grid: Grid, gamma: float) -> np.ndarray:
    """Cell-averaged singular weight |y|^{-gamma} on the positive orthant.

    Each node carries h^{-N} * integral of |y|^{-gamma} over its own cell,
    finite for gamma < N.  In 1D the averages are in closed form.  In 2D/3D
    the 2^N cells touching the origin are split into pyramids from the
    singular corner, which makes the radial factor analytic and leaves a
    smooth cross-section for a 32-point Gauss rule; the remaining cells with
    centers within 3h of the origin use a 32-point tensor Gauss rule, and the
    far field a 6-point tensor rule (the integrand is analytic there, with
    the nearest singularity several cell widths away).  The rules run over
    the positive orthant only; each class of cells that permuting the axes
    maps onto each other takes the value of one of them, and the other
    orthants are its mirror images, so the field has the grid's symmetries
    exactly.  The result is the read-only array of the positive-orthant
    values alone, of shape (M/2,)^N, with no full field built; mirrored()
    of it is the full field.
    """
    if not (0.0 <= gamma < grid.n_dim):
        raise ParameterError(
            f"weight exponent must satisfy 0 <= gamma < n_dim (got gamma={gamma}, "
            f"n_dim={grid.n_dim})"
        )
    m = grid.points_per_axis // 2
    if gamma == 0.0:
        half = np.ones((m,) * grid.n_dim)
    elif grid.n_dim == 1:
        half = _weight_1d(grid, gamma)
    else:
        half = _weight_nd(grid, gamma)
    half.setflags(write=False)
    return half


def _weight_1d(grid: Grid, gamma: float) -> np.ndarray:
    """The closed-form cell averages of the positive half axis."""
    h = grid.h
    half = grid.points_per_axis // 2
    a = np.arange(half, dtype=float) * h
    b = a + h
    e = 1.0 - gamma
    return (b**e - a**e) / (e * h)


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, at points inside (-1, 1)."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=64)
def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, computed once
    per node count and shared read-only.

    The nodes are the roots of P_n, found by Newton's method on the
    three-term recurrence (as in Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013, without their asymptotic expansions) from the guesses
    cos(pi (k - 1/4) / (n + 1/2)), k = n .. 1, for at most 10 steps (every
    rule of 1 to 256 nodes settles within 5); the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Numpy ufuncs alone: no LAPACK routine runs,
    and numpy.polynomial's leggauss, which agrees to rounding, is not
    loaded."""
    k = np.arange(n_nodes, 0, -1, dtype=float)
    x = np.cos(np.pi * (k - 0.25) / (n_nodes + 0.5))
    for _ in range(10):
        p, dp = _legendre_with_derivative(n_nodes, x)
        step = p / dp
        x -= step
        if float(np.max(np.abs(step))) <= 1e-15:
            break
    dp = _legendre_with_derivative(n_nodes, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _corner_cell_avg(n_dim: int, h: float, gamma: float) -> float:
    # pyramid split of [0, h]^n from the singular corner: radial part exact,
    # cross-section smooth on [0, 1]^(n-1)
    x, w = gauss_legendre(32)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    if n_dim == 2:
        cross = float(np.sum(wu * (1.0 + u**2) ** (-0.5 * gamma)))
        return 2.0 * h ** (-gamma) / (2.0 - gamma) * cross
    r2 = 1.0 + u[:, None] ** 2 + u[None, :] ** 2
    cross = float(np.einsum("a,b,ab->", wu, wu, r2 ** (-0.5 * gamma)))
    return 3.0 * h ** (-gamma) / (3.0 - gamma) * cross


def _single_cell_avg(center: tuple[float, ...], h: float, gamma: float, npts: int) -> float:
    x, w = gauss_legendre(npts)
    off = 0.5 * h * x
    wt = 0.5 * w
    pts2 = [(c + off) ** 2 for c in center]
    if len(center) == 2:
        r2 = pts2[0][:, None] + pts2[1][None, :]
        return float(np.einsum("a,b,ab->", wt, wt, r2 ** (-0.5 * gamma)))
    r2 = pts2[0][:, None, None] + pts2[1][None, :, None] + pts2[2][None, None, :]
    return float(np.einsum("a,b,c,abc->", wt, wt, wt, r2 ** (-0.5 * gamma)))


def _weight_nd(grid: Grid, gamma: float) -> np.ndarray:
    """The cell averages of the positive orthant, made exactly symmetric
    under permutations of the axes."""
    h = grid.h
    n = grid.n_dim
    half = grid.points_per_axis // 2
    ax = grid.axis_nodes()[half:]  # (k + 1/2) h, k = 0 .. M/2 - 1
    x, w = gauss_legendre(6)
    off = 0.5 * h * x
    wt = 0.5 * w
    pts2 = (ax[:, None] + off[None, :]) ** 2  # (M/2, 6)
    p = -0.5 * gamma
    out = np.empty((half,) * n)
    if n == 2:
        for i in range(half):
            r2 = pts2[i][:, None, None] + pts2[None, :, :]  # (6, M/2, 6)
            out[i] = np.einsum("a,b,ajb->j", wt, wt, r2**p)
    else:
        for i in range(half):
            r2 = (
                pts2[i][:, None, None, None, None]
                + pts2[None, :, :, None, None]
                + pts2[None, None, None, :, :]
            )  # (6, M/2, 6, M/2, 6)
            out[i] = np.einsum("a,b,c,ambnc->mn", wt, wt, wt, r2**p)
    # refine cells whose centers lie within 3h of the origin; the corner
    # cell touches it
    idx = np.indices(out.shape)
    near = np.argwhere(np.sqrt(np.sum(ax[idx] ** 2, axis=0)) <= 3.0 * h + 1e-12 * h)
    for cell in near:
        if not cell.any():
            out[tuple(cell)] = _corner_cell_avg(n, h, gamma)
        else:
            out[tuple(cell)] = _single_cell_avg(tuple(ax[cell].tolist()), h, gamma, 32)
    # one value per class of cells that a permutation of the axes maps onto
    # each other: the one at sorted indices
    idx.sort(axis=0)
    return out[tuple(idx)]


# ---------------------------------------------------------------------------
# Built-in initial data
# ---------------------------------------------------------------------------

def standard_data(grid: Grid, spec: str) -> GridFunction:
    """Initial-data library.

    Recognized forms: ``zero``, ``const:c`` (c >= 0, default 1), ``bump`` or
    ``bump:R`` (smooth compact bump of height 1 and support radius R, default
    1), and ``gauss:a`` (exp(-a |x|^2), a > 0, default 1).  ``zero`` takes
    no argument.  Every datum is radial, so mirror-symmetric in every axis,
    as the heat operator requires (see semigroup).
    """
    name, _, arg = spec.partition(":")

    def numeric(default: float) -> float:
        if not arg:
            return default
        try:
            return float(arg)
        except ValueError:
            raise ParameterError(f"could not parse numeric argument in spec {spec!r}") from None

    if arg and name == "zero":
        raise ParameterError(f"{name} data takes no argument (got spec {spec!r})")
    r = grid.radius_values()
    if name == "zero":
        vals = np.zeros(grid.shape)
    elif name == "const":
        c = numeric(1.0)
        if not (math.isfinite(c) and c >= 0.0):
            raise ParameterError(f"const level must be finite and >= 0 (got {c})")
        vals = np.full(grid.shape, c)
    elif name == "gauss":
        a = numeric(1.0)
        if not (math.isfinite(a) and a > 0.0):
            raise ParameterError(f"gauss width parameter must be positive (got {a})")
        vals = np.exp(-a * r * r)
    elif name == "bump":
        radius = numeric(1.0)
        if not (math.isfinite(radius) and radius > 0.0):
            raise ParameterError(f"bump radius must be positive (got {radius})")
        vals = np.zeros(grid.shape)
        s2 = (r / radius) ** 2
        inside = s2 < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    else:
        raise ParameterError(f"unknown initial-data spec {spec!r}")
    return GridFunction(grid, vals)
