"""Discrete heat semigroup S(t) and its singular-weight composition.

The continuous operators are convolution with the Gaussian kernel
G_t(x) = (4 pi t)^{-N/2} exp(-|x|^2 / (4t)) and, for the weighted variant,
S_gamma(t) f = S(t)(|.|^{-gamma} f).  On a grid both become discrete linear
convolutions with samples of G_t (zero extension outside the box), with the
weight entering as its exact cell-average field.

The sampled kernel is renormalized to unit discrete mass.  That keeps the
discrete operator an L-infinity contraction that preserves constants exactly,
and makes the t -> 0 limit the identity even when h is too coarse to resolve
the kernel.  Renormalization is refused (TruncationError) when the raw mass
falls short of 1 by more than eps_tail, i.e. when the box itself truncates
the kernel: results past that point would be quantitatively wrong, not just
smoothed.

Small grids (M <= 128 per axis) use direct separable convolution; larger
grids use FFT on the doubled (zero-padded) box.  Both evaluate the same sums.
The sampled kernel is a product of one 1D kernel per axis.  On the direct
path, zero-extended correlation with it along one axis is a product with an
M x M Toeplitz matrix, and all rows of a call are multiplied by their
matrices in one batched matmul per axis.  On the FFT path the N-D spectrum
is the outer product of 1D spectra: the cache holds one 1D spectrum per time
(O(M) bytes in any dimension), and each row's spectrum is multiplied by it
once per axis.

One call can also apply a stack of fields, each for its own time, and return
weighted sums of the results: the batched form of the Duhamel quadrature,
which the Picard sweep uses once per sweep.  On the FFT path the sums are
taken in the spectral domain, so J fields for T targets cost J forward and T
inverse transforms.  Rows are transformed in batches sized by a fixed
workspace budget, which keeps the padded arrays in cache.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; keep that out of the first apply)
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, TruncationError
from .fields import Grid, GridFunction, weight_field

__all__ = [
    "HeatPropagator",
    "apply_heat",
    "apply_weighted_heat",
    "gaussian_exact",
    "gaussian_floor",
    "heat_kernel",
]

_DIRECT_LIMIT = 128  # per-axis size up to which direct summation is used
# Padded-FFT workspace of one batch of rows.  Sized to stay in a core's L2
# cache: transforms of a larger batch run slower per row than single ones.
_FFT_WORKSPACE_BYTES = 2**20
_CACHE_BYTES = 1.5e8  # memory budget of one propagator's kernel cache


def heat_kernel(t: float, x: "float | Sequence[float]") -> float:
    """Gaussian heat kernel G_t(x) for t > 0 at a single point."""
    if not (math.isfinite(t) and t > 0.0):
        raise ParameterError(f"heat_kernel requires t > 0 (got {t})")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size not in (1, 2, 3):
        raise ParameterError(f"position must have 1 to 3 components (got shape {xs.shape})")
    n = xs.size
    return float((4.0 * math.pi * t) ** (-0.5 * n) * math.exp(-float(xs @ xs) / (4.0 * t)))


class HeatPropagator:
    """Applies S(t) and S_gamma(t) on one grid, caching kernel data per t.

    A cached entry is one 1D array: the normalized axis samples on the
    direct path, the spectrum of the wrapped axis kernel on the FFT path
    (the half spectrum in 1D, the full one in 2D and 3D, whose last axis
    uses its first M+1 values).  The N-D kernel is the product of that
    factor over the axes and is never formed.  Entries are keyed by the
    evolution time rounded to 12 significant digits, so times that agree to
    rounding noise share one kernel.  The cache is LRU-bounded by a memory
    budget and locked, so threads may share a propagator.
    """

    _registry: "dict[tuple[Grid, float], HeatPropagator]" = {}
    _registry_lock = threading.Lock()

    def __init__(self, grid: Grid, eps_tail: float = 1e-10):
        if not (0.0 < eps_tail < 1.0):
            raise ParameterError(f"eps_tail must lie in (0, 1) (got {eps_tail})")
        self.grid = grid
        self.eps_tail = float(eps_tail)
        self._spectral = grid.points_per_axis > _DIRECT_LIMIT
        self._kernels: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        # an entry holds at most 2M complex values (the full axis spectrum)
        self._cache_cap = max(1, int(_CACHE_BYTES // (32 * grid.points_per_axis)))
        self._weights: dict[float, np.ndarray] = {}

    @classmethod
    def shared(cls, grid: Grid, eps_tail: float = 1e-10) -> "HeatPropagator":
        """The one propagator of the registry for (grid, eps_tail); threads
        asking for a new key at once all get the first one built."""
        key = (grid, float(eps_tail))
        with cls._registry_lock:
            prop = cls._registry.get(key)
            if prop is None:
                prop = cls(grid, eps_tail)  # cheap: kernels are built on first use
                cls._registry[key] = prop
        return prop

    # -- kernel construction -------------------------------------------------

    def _axis_samples(self, t: float) -> np.ndarray:
        """1D kernel samples h * G_t at displacements -(M-1)..(M-1)."""
        m = self.grid.points_per_axis
        h = self.grid.h
        d = np.arange(-(m - 1), m, dtype=float) * h
        return h * (4.0 * math.pi * t) ** -0.5 * np.exp(-d * d / (4.0 * t))

    def raw_kernel_mass(self, t: float) -> float:
        """Discrete mass of the sampled kernel before renormalization."""
        if not (math.isfinite(t) and t > 0.0):
            raise ParameterError(f"raw_kernel_mass requires t > 0 (got {t})")
        return float(np.sum(self._axis_samples(t))) ** self.grid.n_dim

    def _check_mass(self, t: float, mass: float) -> None:
        if mass < 1.0 - self.eps_tail:
            raise TruncationError(
                f"box half-width {self.grid.half_width} truncates the heat kernel at "
                f"t = {t}: discrete mass {mass:.12g} < 1 - {self.eps_tail}"
            )

    @staticmethod
    def _cache_key(t: float) -> float:
        return float(f"{t:.12e}")

    def _kernel_entry(self, t: float) -> np.ndarray:
        """The cached 1D kernel factor for time t (see the class docstring)."""
        key = self._cache_key(t)
        with self._lock:
            entry = self._kernels.get(key)
            if entry is not None:
                self._kernels.move_to_end(key)
                return entry
        # built outside the lock: two threads may build one key, to equal arrays
        g1 = self._axis_samples(t)
        axis_mass = float(np.sum(g1))
        self._check_mass(t, axis_mass**self.grid.n_dim)
        g1 = g1 / axis_mass
        if self._spectral:
            m = self.grid.points_per_axis
            wrapped = np.zeros(2 * m)
            wrapped[: m] = g1[m - 1 :]          # displacements 0 .. M-1
            wrapped[m + 1 :] = g1[: m - 1]      # displacements -(M-1) .. -1
            entry = np.fft.rfft(wrapped) if self.grid.n_dim == 1 else np.fft.fft(wrapped)
        else:
            entry = g1
        with self._lock:
            self._kernels[key] = entry
            if len(self._kernels) > self._cache_cap:
                self._kernels.popitem(last=False)
        return entry

    # -- application ---------------------------------------------------------

    def apply_heat_values(self, values: np.ndarray, t, weights=None) -> np.ndarray:
        """S(t) applied to a value array of the grid's shape, or to a stack.

        With a scalar t, values has the grid's shape and the result is
        S(t) values.  With a length-J time array, values is a (J, *grid)
        stack and the result is the stack of S(t[j]) values[j]; a (T, J)
        weights matrix instead returns the T sums
        sum_j weights[i, j] S(t[j]) values[j].  On the FFT path those sums
        are formed in the spectral domain: J forward transforms, T inverse.
        """
        single = np.ndim(t) == 0
        if single:
            if not math.isfinite(t) or t < 0.0:
                raise ParameterError(f"evolution time must be >= 0 (got {t})")
            if values.shape != self.grid.shape:
                raise ParameterError(
                    f"value shape {values.shape} does not match grid shape {self.grid.shape}"
                )
            if weights is not None:
                raise ParameterError("a weight matrix needs a time array, not a scalar time")
            if t == 0.0:
                return np.array(values, dtype=float, copy=True)
            times = (float(t),)
            stack = np.asarray(values, dtype=float)[None]
        else:
            times, stack, weights = self._check_stack(values, t, weights)
        if self._spectral:
            out = self._spectral_sums(stack, times, weights)
        else:
            out = self._direct_sums(stack, times, weights)
        return out[0] if single else out

    def _check_stack(self, values, t, weights):
        times = np.asarray(t, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ParameterError(
                f"evolution times must form a non-empty 1D array (got shape {times.shape})"
            )
        if not np.all(np.isfinite(times)) or float(times.min()) < 0.0:
            raise ParameterError(f"evolution times must be finite and >= 0 (got {times})")
        stack = np.asarray(values, dtype=float)
        if stack.shape != (times.size,) + self.grid.shape:
            raise ParameterError(
                f"stack shape {stack.shape} does not match {times.size} fields of grid "
                f"shape {self.grid.shape}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 2 or weights.shape[1] != times.size:
                raise ParameterError(
                    f"weight matrix shape {weights.shape} does not match {times.size} fields"
                )
        return times.tolist(), stack, weights

    def _direct_sums(self, stack: np.ndarray, times, weights) -> np.ndarray:
        """Direct path.  Zero-extended correlation of an axis with the 2M-1
        normalized samples g is the product with the M x M Toeplitz matrix
        T[i, k] = g[k - i + M - 1], whose row i is the window g[M-1-i : 2M-1-i].
        The rows with t > 0 get their T as a sliding-window view of their
        samples (no copy) and are multiplied by them in one batched matmul
        per axis; rows with t = 0 pass through unchanged."""
        rows = stack.copy()
        live = [j for j, t in enumerate(times) if t > 0.0]
        if live:
            m = self.grid.points_per_axis
            samples = np.stack([self._kernel_entry(times[j]) for j in live])
            toeplitz = sliding_window_view(samples, m, axis=1)[:, ::-1]
            part = rows[live]
            for ax in range(1, self.grid.n_dim + 1):
                moved = np.moveaxis(part, ax, 1)
                prod = np.matmul(toeplitz, moved.reshape(len(live), m, -1))
                part = np.moveaxis(prod.reshape(moved.shape), 1, ax)
            rows[live] = part
        return rows if weights is None else _weighted_sums(weights, rows)

    def _spectral_sums(self, stack: np.ndarray, times, weights) -> np.ndarray:
        """FFT path, in batches whose padded workspace fits _FFT_WORKSPACE_BYTES
        (at least one row each).  Without weights each batch is transformed
        there and back; with weights, each target's batches are contracted
        into one spectrum, which then takes one inverse transform."""
        count = len(times)
        row_bytes = 16 * (2 * self.grid.points_per_axis) ** self.grid.n_dim
        step = max(1, _FFT_WORKSPACE_BYTES // row_bytes)
        if count <= step:
            return self._inverse(self._spectra(stack, times, weights))
        if weights is None:
            return np.concatenate(
                [
                    self._inverse(self._spectra(stack[k : k + step], times[k : k + step], None))
                    for k in range(0, count, step)
                ]
            )
        out = np.zeros((weights.shape[0],) + self.grid.shape)
        for i, (lo, hi) in enumerate(_spans(weights)):
            spec = None
            for k in range(lo, hi, step):
                end = min(k + step, hi)
                part = self._spectra(stack[k:end], times[k:end], weights[i : i + 1, k:end])
                if spec is None:
                    spec = part
                else:
                    spec += part
            if spec is not None:
                out[i] = self._inverse(spec)[0]
        return out

    def _spectra(self, stack: np.ndarray, times, weights) -> np.ndarray:
        """Spectra of the zero-padded rows times their kernels, contracted
        by weights when given."""
        m = self.grid.points_per_axis
        n = self.grid.n_dim
        shape = (2 * m,) * n
        padded = np.zeros((len(times),) + shape)
        padded[(slice(None),) + (slice(0, m),) * n] = stack
        spec = np.fft.rfftn(padded, s=shape, axes=tuple(range(1, n + 1)))
        for j, t in enumerate(times):
            if t > 0.0:  # S(0) is the identity: its spectrum is all ones
                entry = self._kernel_entry(t)
                row = spec[j]
                for ax in range(n - 1):  # full-spectrum axes
                    row *= entry.reshape((-1,) + (1,) * (n - 1 - ax))
                row *= entry[: m + 1]  # the last axis holds the half spectrum
        return spec if weights is None else _weighted_sums(weights, spec)

    def _inverse(self, spec: np.ndarray) -> np.ndarray:
        m = self.grid.points_per_axis
        n = self.grid.n_dim
        conv = np.fft.irfftn(spec, s=(2 * m,) * n, axes=tuple(range(1, n + 1)))
        return conv[(slice(None),) + (slice(0, m),) * n]

    def weight_values(self, gamma: float) -> np.ndarray:
        vals = self._weights.get(gamma)
        if vals is None:
            vals = weight_field(self.grid, gamma).values
            self._weights[gamma] = vals
        return vals

    def apply_weighted_values(
        self, values: np.ndarray, t, gamma: float, weights=None
    ) -> np.ndarray:
        """S_gamma(t) = S(t) after multiplication by the cell-averaged weight;
        takes a stack, times and weights as apply_heat_values does."""
        if gamma == 0.0:
            return self.apply_heat_values(values, t, weights)
        return self.apply_heat_values(values * self.weight_values(gamma), t, weights)


def _spans(weights: np.ndarray) -> list[tuple[int, int]]:
    """Per row of weights, the column range [lo, hi) holding its nonzeros."""
    nz = weights != 0.0
    cols = weights.shape[1]
    lo = np.argmax(nz, axis=1)
    hi = cols - np.argmax(nz[:, ::-1], axis=1)
    return [(int(a), int(b)) if any_ else (0, 0) for a, b, any_ in zip(lo, hi, nz.any(axis=1))]


def _weighted_sums(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[i] = sum_j weights[i, j] rows[j], summed over row i's nonzero span."""
    flat = rows.reshape(rows.shape[0], -1)
    out = np.zeros((weights.shape[0], flat.shape[1]), dtype=rows.dtype)
    for i, (lo, hi) in enumerate(_spans(weights)):
        if hi - lo == 1:  # numpy's matrix product is ~10x slower for one term
            np.multiply(weights[i, lo], flat[lo], out=out[i])
        elif hi > lo:
            out[i] = weights[i, lo:hi] @ flat[lo:hi]
    return out.reshape((weights.shape[0],) + rows.shape[1:])


def apply_heat(f: GridFunction, t: float, eps_tail: float = 1e-10) -> GridFunction:
    """Discrete heat semigroup S(t) acting on a grid function."""
    prop = HeatPropagator.shared(f.grid, eps_tail)
    return GridFunction(f.grid, prop.apply_heat_values(f.values, t))


def apply_weighted_heat(f: GridFunction, t: float, gamma: float, eps_tail: float = 1e-10) -> GridFunction:
    """Weighted semigroup S_gamma(t) f = S(t)(|.|^{-gamma} f)."""
    prop = HeatPropagator.shared(f.grid, eps_tail)
    return GridFunction(f.grid, prop.apply_weighted_values(f.values, t, gamma))


def gaussian_exact(grid: Grid, a: float, t: float) -> GridFunction:
    """Closed-form heat evolution of exp(-a |x|^2).

    S(t) exp(-a|.|^2) = (1 + 4 a t)^{-N/2} exp(-a |x|^2 / (1 + 4 a t)).
    The prefactor is forced by the t -> 0 limit (S(0) = identity) and by
    conservation of the total integral under the unit-mass kernel.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ParameterError(f"gaussian width a must be positive (got {a})")
    if not math.isfinite(t) or t < 0.0:
        raise ParameterError(f"evolution time must be >= 0 (got {t})")
    r2 = grid.radius_values() ** 2
    denom = 1.0 + 4.0 * a * t
    vals = denom ** (-0.5 * grid.n_dim) * np.exp(-a * r2 / denom)
    return GridFunction(grid, vals)


def gaussian_floor(v0: GridFunction, t0: float) -> tuple[GridFunction, float]:
    """Pointwise Gaussian lower barrier for S(t0) v0 with v0 >= 0, v0 != 0.

    From exp(-|x-y|^2/(4 t0)) >= exp(-|x|^2/(2 t0)) exp(-|y|^2/(2 t0))
    (squared triangle inequality |x-y|^2 <= 2|x|^2 + 2|y|^2), every discrete
    sum defining [S(t0) v0](x) dominates coeff * exp(-|x|^2/(2 t0)) with

        coeff = (4 pi t0)^{-N/2} * h^N * sum_y exp(-|y|^2/(2 t0)) v0(y),

    so the bound holds node by node for the *unnormalized* sampled operator;
    renormalization only enlarges the left-hand side.  Returns the barrier
    field and the coefficient.
    """
    if not (math.isfinite(t0) and t0 > 0.0):
        raise ParameterError(f"t0 must be positive (got {t0})")
    vals = v0.values
    if float(vals.min()) < 0.0:
        raise ParameterError("gaussian_floor requires non-negative data")
    if float(vals.max()) == 0.0:
        raise ParameterError("gaussian_floor requires data that is not identically zero")
    grid = v0.grid
    r2 = grid.radius_values() ** 2
    gauss_half = np.exp(-r2 / (2.0 * t0))
    coeff = float(
        (4.0 * math.pi * t0) ** (-0.5 * grid.n_dim)
        * grid.h**grid.n_dim
        * np.sum(gauss_half * vals)
    )
    return GridFunction(grid, coeff * gauss_half), coeff
