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
falls short of 1 by more than _EPS_TAIL = 1e-10, i.e. when the box itself
truncates the kernel: results past that point would be quantitatively wrong,
not just smoothed.

Every field is held by its positive orthant, (M/2)^N values, in every
dimension.  The weight and every built-in datum are radial, so they are
mirror-symmetric in every axis; a field that is not is refused
(ParameterError).

The sampled kernel is a product of one 1D kernel per axis.  Each axis of
M/2 orthant points is padded to Q: 2Q covers the box plus the reach of the
operator's longest-time kernel (13 sqrt(t_max), beyond which the Gaussian is
zero in double precision), Q rounded up to an even 5-smooth length and
capped at M.  The kernel wrapped at length 2Q keeps its displacements up to
2Q - M, so the circular convolution at 2Q folds nothing back onto the box,
and only those are sampled (see _kernel_entry).  The wrapped kernel is
symmetric, so its spectrum is real (to rounding) and every kernel factor is
a real array.  The N-D spectrum is the outer product of 1D factors: an
operator holds one 1D factor per time (O(M) bytes in any dimension), and
each row's spectrum is multiplied by it once per axis.

One call can also apply a stack of fields, each for its own time, and return
weighted sums of the results: the batched form of the Duhamel quadrature.
Every call goes through a prepared operator (PreparedHeat), built by
HeatPropagator.prepare for fixed times, weights and mix: it builds the
kernels once, all in one vectorized pass (one array of samples over the
kernels' reach, one mass check, one batched transform), and holds them
stacked, one row per field, together with its blocks of spectral lines;
every apply works in its propagator's one scratch buffer.  Nothing caches
kernels beyond the operators that hold them: a caller that applies the same
times again keeps its operator.  The Picard solve prepares its sweep and
free-term operators once per window length, in window-relative time, since
a window's lags depend on its length alone, and applies them to every
window of that length, on every ladder level that has one.  The sums are taken in the spectral
domain, so J fields for T targets cost J forward and T inverse transforms.
Every apply is one loop: transform, contract, invert.
Fields are transformed in batches sized by a fixed workspace budget, which
keeps the padded arrays in cache.  The contraction runs over blocks of lines
along the first spectral axis (a 1D spectrum is one line, one block): for
each block it forms the row spectra (Y = mix @ X, or the batch itself
without a mix) and multiplies them by the rows' kernel factors (those of
the earlier axes, whose product is small, in one pass, then the last
axis's).  With weights it adds weights @ Y into the targets' sums, which
are inverted last.  Without weights Y is the result: an operator with a
mix writes it into its J result spectra, and one without a mix inverts each
batch's scaled spectra before it produces the next, so that apply holds one
batch of spectra and no sums.

An operator prepared with a (J, K) mix matrix takes K inputs and applies
row j to sum_k mix[j, k] input_k.  The transform is linear, so the operator
transforms the K inputs once and mixes the row spectra from theirs.  All J
rows are contracted together, a block at a time, so a weighted apply holds
the K input spectra, the T sums and one block, never the J row spectra.
The Picard sweep's source is linear in its knot values between the knots
(it interpolates the source, not the field), so its J = 72 quadrature rows
cost K = 10 forward transforms; its free term mixes its 9 rows from the
window start alone (a one-column mix, no weights), so they cost one.  An
operator without a mix has no inputs to share: each batch of its rows is
its own inputs, contracted before the next batch is produced, so its
fields stream.

An apply takes the J fields (or K inputs) as a stack or as a producer that
writes each batch's rows into the propagator's scratch, so a caller whose
fields are computed (the sub-solution check's barrier powers) never holds
all J of them.  The rows go to the front of the memory their spectra will
take, since every forward transform reads them out before it writes a
spectrum: the scratch holds each batch once.

The zero-extended convolution of a mirror-symmetric field with the
symmetric kernel is a symmetric convolution, which a DCT-II, a real product
and a DCT-III compute exactly on the orthant (Martucci 1994): the sums of
an FFT of the full line zero-padded to 2Q per axis, where the half axis of
M/2 points is padded to Q (see _orthant_length).  Each cosine transform is
one rfft of length Q (Makhoul 1980), so an axis costs about a quarter of a
full-grid transform.  A batch is transformed along its last axis at once
and along each earlier axis one row at a time, in both directions, so the
scratch holds one row's padded lines along an earlier axis, not a batch's.
The operator reads the first Q values of each kernel factor at 2Q.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; keep that out of the first apply)

from .errors import ParameterError, TruncationError
from .fields import Grid, GridFunction, is_mirror_symmetric, mirrored, orthant, weight_field

__all__ = [
    "HeatPropagator",
    "PreparedHeat",
    "apply_heat",
    "gaussian_exact",
    "heat_kernel",
]

# Reach of the kernel in units of sqrt(t): the Gaussian's mass beyond it,
# erfc(13 / 2) = 3.8e-20, is below double-precision rounding (2^-53 = 1.1e-16).
_KERNEL_REACH = 13.0
# exp(x) rounds to 0.0 for every x below this (exp(-746) < 2^-1075).
_EXP_ZERO = -746.0
# Padded-FFT workspace of one batch of rows.  Sized to stay in a core's L2
# cache: transforms of a larger batch run slower per row than single ones.
_FFT_WORKSPACE_BYTES = 2**20
# Largest shortfall of a sampled kernel's raw mass below 1 that
# renormalization absorbs; a larger one means the box truncates the kernel.
_EPS_TAIL = 1e-10


def heat_kernel(t: float, x: "float | Sequence[float]") -> float:
    """Gaussian heat kernel G_t(x) for t > 0 at a single point."""
    if not (math.isfinite(t) and t > 0.0):
        raise ParameterError(f"heat_kernel requires t > 0 (got {t})")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size not in (1, 2, 3):
        raise ParameterError(f"position must have 1 to 3 components (got shape {xs.shape})")
    n = xs.size
    return float((4.0 * math.pi * t) ** (-0.5 * n) * math.exp(-float(xs @ xs) / (4.0 * t)))


def _smooth_length(lo: int, cap: int) -> int:
    """The smallest even 5-smooth integer >= lo, or cap if none is below it."""
    for p in range(lo + lo % 2, cap, 2):
        r = p
        for f in (2, 3, 5):
            while r % f == 0:
                r //= f
        if r == 1:
            return p
    return cap


def _reach(h: float, t_max: float) -> int:
    """Displacements, in grid steps, that a kernel of time up to t_max reaches."""
    return math.ceil(_KERNEL_REACH * math.sqrt(t_max) / h)


def _orthant_length(m: int, h: float, t_max: float) -> int:
    """Cosine-transform length Q of the half axis of a grid of m points per
    axis, for kernels of times up to t_max: the smallest even 5-smooth Q
    with 2Q >= m + ceil(_KERNEL_REACH sqrt(t_max) / h), capped at m: the
    circular convolution at 2Q then wraps no displacement onto the box."""
    return _smooth_length(-(-(m + _reach(h, t_max)) // 2), m)


@functools.lru_cache(maxsize=64)
def _scratch_layout(specs: tuple) -> tuple:
    """The byte offset of each (shape, dtype) in specs, each a multiple of
    64, and the bytes they span.  Cached: an operator asks on every apply."""
    offsets, end = [], 0
    for shape, dtype in specs:
        offsets.append(end)
        end += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    return tuple(offsets), end


class HeatPropagator:
    """Applies S(t) and S_gamma(t) on one grid.

    The propagator applies them to fields that are mirror-symmetric in
    every axis, held by their positive orthant (see fields.orthant): every
    field it takes and returns, and its weight field, has shape (M/2,)^N.

    A kernel factor is one real 1D array: the Q + 1 values of the half
    spectrum of the kernel wrapped at length 2Q <= 2M, for the
    cosine-transform length Q of the operator that asks for it, which is
    real up to rounding since the wrapped kernel is symmetric.  The
    operator reads its first Q values.  The N-D kernel is the product of
    that factor over the axes and is never formed.
    The propagator keeps no kernels: each prepared operator builds its own
    factors, all in one call, and holds them while it lives.  A kernel whose
    raw mass falls short of 1 by more than _EPS_TAIL raises TruncationError.
    It memoizes the weight field of each gamma and owns the scratch buffer
    that every apply of its operators works in (see _scratch).  Use one
    propagator, with its operators, per thread; a producer must not apply
    another operator of the same propagator.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._weights: dict[float, np.ndarray] = {}
        self._buffer = np.empty(0, dtype=np.uint8)

    @property
    def shape(self) -> tuple:
        """Shape of the fields the propagator applies to: the orthant's,
        (M/2,)^N."""
        return (self.grid.points_per_axis // 2,) * self.grid.n_dim

    def _scratch(self, *specs) -> list:
        """Views of the scratch buffer, one per (shape, dtype), at 64-byte
        aligned addresses; valid until the next call.  The buffer grows to
        the largest request and is kept, so successive operators reuse it."""
        offsets, end = _scratch_layout(specs)
        if self._buffer.size < end:
            raw = np.empty(end + 63, dtype=np.uint8)
            self._buffer = raw[-raw.ctypes.data % 64 :][:end]
        return [np.ndarray(s, d, self._buffer, off) for off, (s, d) in zip(offsets, specs)]

    # -- kernel construction -------------------------------------------------

    def _axis_samples(self, t, reach: "int | None" = None) -> np.ndarray:
        """1D kernel samples h * G_t at displacements -k..k, in grid steps,
        for k = reach (default M - 1, the whole box); for a 1D time array,
        one row per time.  The samples are formed in the one array that they
        are returned in: d^2 at d = i h, i = 0..k, over the row's exponent
        coefficient -4t, overwritten by its exp and scaled, then mirrored
        onto -k..-1."""
        h = self.grid.h
        k = self.grid.points_per_axis - 1 if reach is None else reach
        times = np.atleast_1d(np.asarray(t, dtype=float))
        samples = np.empty((times.size, 2 * k + 1))
        half = samples[:, k:]
        squares = np.arange(k + 1, dtype=float)
        squares *= h
        squares *= squares
        coefficient = -4.0 * times
        np.divide(squares, coefficient[:, None], out=half)
        del squares
        # exp underflows to 0 below _EXP_ZERO, and numpy's exp is several
        # times slower on such arguments than on the others: skip them
        under = half <= _EXP_ZERO
        np.exp(half, out=half, where=~under)
        half[under] = 0.0
        half *= (h * (4.0 * math.pi * times) ** -0.5)[:, None]
        samples[:, :k] = half[:, :0:-1]
        return samples[0] if np.ndim(t) == 0 else samples

    def raw_kernel_mass(self, t: float) -> float:
        """Discrete mass of the sampled kernel before renormalization."""
        if not (math.isfinite(t) and t > 0.0):
            raise ParameterError(f"raw_kernel_mass requires t > 0 (got {t})")
        return float(np.sum(self._axis_samples(t))) ** self.grid.n_dim

    def _kernel_entry(self, t, length: "int | None" = None) -> np.ndarray:
        """The 1D kernel factor for time t at padded length L = `length`
        (default 2M): the L/2 + 1 values of the real part of the rfft of
        the kernel wrapped at L (see the class docstring).
        For a 1D array of times t > 0, the factors are built in one pass,
        one row per time; a truncating time raises TruncationError naming
        the first.

        The kernel wrapped at length L keeps its displacements up to
        k = min(L - M, M - 1), and only those are sampled and summed.  For
        k < M - 1, L covers the reach of every row's kernel, beyond which
        its mass is below erfc(6.5) = 4e-20; a kernel that the box
        truncates reaches past M - 1, which forces L = 2M and the whole
        box.  The wrapped kernel is symmetric, so its spectrum is real up to
        rounding (below 1e-15), which the real part drops.  The samples are
        freed before the transform and the wrapped kernels before the
        result is allocated, so a build holds at most the wrapped kernels
        and their spectra, or the spectra and the result, at once."""
        m = self.grid.points_per_axis
        scalar = np.ndim(t) == 0
        times = np.atleast_1d(np.asarray(t, dtype=float))
        length = 2 * m if length is None else length
        # length >= M + k keeps the circular convolution from wrapping any
        # displacement onto the box
        k = min(length - m, m - 1)
        g = self._axis_samples(times, k)
        axis_mass = np.sum(g, axis=1)
        mass = axis_mass**self.grid.n_dim
        short = mass < 1.0 - _EPS_TAIL
        if short.any():
            first = int(np.argmax(short))
            raise TruncationError(
                f"box half-width {self.grid.half_width} truncates the heat kernel at "
                f"t = {float(times[first])}: discrete mass {float(mass[first]):.12g} "
                f"< 1 - {_EPS_TAIL}"
            )
        g /= axis_mass[:, None]
        wrapped = np.zeros((times.size, length))
        wrapped[:, : k + 1] = g[:, k:]            # displacements 0 .. k
        wrapped[:, length - k :] = g[:, :k]       # displacements -k .. -1
        del g
        spectra = np.fft.rfft(wrapped)
        del wrapped
        out = spectra.real.copy()
        return out[0] if scalar else out

    # -- application ---------------------------------------------------------

    def prepare(self, t, weights=None, mix=None) -> "PreparedHeat":
        """The operator stack -> sum_j weights[i, j] S(t[j]) stack[j] for a
        fixed length-J time array and a (T, J) weight matrix, with its
        kernel factors built once; without weights, the J rows
        S(t[j]) stack[j] themselves.  With a (J, K) mix matrix the operator
        takes K fields instead, and row j is S(t[j]) applied to
        sum_k mix[j, k] stack[k].  See PreparedHeat."""
        times = np.asarray(t, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ParameterError(
                f"evolution times must form a non-empty 1D array (got shape {times.shape})"
            )
        if not np.all(np.isfinite(times)) or float(times.min()) < 0.0:
            raise ParameterError(f"evolution times must be finite and >= 0 (got {times})")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 2 or weights.shape[1] != times.size:
                raise ParameterError(
                    f"weight matrix shape {weights.shape} does not match {times.size} fields"
                )
        if mix is not None:
            mix = np.asarray(mix, dtype=float)
            if mix.ndim != 2 or mix.shape[0] != times.size or mix.shape[1] < 1:
                raise ParameterError(
                    f"mix matrix shape {mix.shape} does not match {times.size} rows"
                )
        for name, matrix in (("weight", weights), ("mix", mix)):
            if matrix is not None and not np.all(np.isfinite(matrix)):
                raise ParameterError(f"{name} matrix entries must be finite (got {matrix})")
        return PreparedHeat(self, times, weights, mix)

    def apply_heat_values(self, values, t) -> np.ndarray:
        """S(t) applied to a value array of the propagator's field shape,
        for one scalar time t; or, with t an operator from prepare(), which
        carries its own times, weights and mix, that operator applied to
        values, a stack or a producer (see PreparedHeat.apply).  Times,
        weights and mixes of a batch go to prepare: a caller applying the
        same times to many stacks prepares them once."""
        if isinstance(t, PreparedHeat):
            if t.propagator is not self:
                raise ParameterError("a prepared operator belongs to its propagator")
            return t.apply(values)
        if np.ndim(t) != 0 or not math.isfinite(t) or t < 0.0:
            raise ParameterError(f"evolution time must be one scalar >= 0 (got {t})")
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ParameterError(
                f"value shape {values.shape} does not match field shape {self.shape}"
            )
        if t == 0.0:
            return np.array(values, dtype=float, copy=True)
        return self.prepare([float(t)]).apply(values[None])[0]

    def weight_values(self, gamma: float) -> np.ndarray:
        """The cell-averaged weight field of gamma on the orthant, built
        there alone."""
        vals = self._weights.get(gamma)
        if vals is None:
            vals = self._weights[gamma] = weight_field(self.grid, gamma, orthant=True)
        return vals

    def apply_weighted_values(self, values: np.ndarray, t, gamma: float) -> np.ndarray:
        """S_gamma(t) = S(t) after multiplication by the cell-averaged weight
        (exactly ones at gamma = 0); takes a field and a scalar time, or a
        stack and a prepared operator, as apply_heat_values does."""
        return self.apply_heat_values(values * self.weight_values(gamma), t)


def _flat(spec: np.ndarray) -> np.ndarray:
    """A stack of spectra as a matrix of floats, one row per spectrum; a view."""
    return spec.view(float).reshape(spec.shape[0], -1)


class PreparedHeat:
    """sum_j weights[i, j] S(t[j]) f_j for fixed times and weights, or the
    J rows S(t[j]) f_j when prepare was given no weights (weights is then
    None), applied to any number of stacks f.  With a (J, K) mix matrix the
    operator takes K inputs x_k and its J rows are the mixes
    f_j = sum_k mix[j, k] x_k.

    Built once by HeatPropagator.prepare, it holds everything that depends
    on the times, weights and mix alone:

    - the cosine-transform length Q of the half axis, sized to the reach
      of the kernel of the largest time (see _orthant_length), and the
      per-row kernel factors at 2Q, of which it reads the first Q values
      per row (on the last axis, paired to match the spectrum's float
      view; see _dct_forward), ones for t = 0 rows.  Every spectrum is held
      as rfftn's half spectrum at Q points per axis;
    - _work: the batch's real lines along the last axis, or one row's
      padded lines along an earlier axis if those are more, and one row's
      half spectra of the latter: the earlier axes are transformed a row
      at a time;
    - _step, the rows whose padded spectra fit _FFT_WORKSPACE_BYTES, the
      batches in which fields are produced, transformed and inverted;
      _span, the rows contracted at once (all J with a mix, else one
      batch); and _blocks, the cuts of the first spectral axis into blocks
      of lines, each with its rows' factor views.

    The operator holds no workspace: its applies work in the propagator's
    scratch (see HeatPropagator), and every result is a fresh array.  The
    scratch holds each batch once: its rows are produced into the memory
    its spectra take (see _transform).
    """

    def __init__(self, prop: HeatPropagator, times: np.ndarray, weights, mix):
        count = times.size
        self.propagator = prop
        self.weights = weights
        self.mix = mix
        grid = prop.grid
        m = grid.points_per_axis
        n = grid.n_dim
        self._shape = (count,) + prop.shape
        self._inputs = count if mix is None else mix.shape[1]
        live = np.flatnonzero(times > 0.0)
        self._q = q = _orthant_length(m, grid.h, float(times.max()))
        twiddle = np.exp(-0.5j * np.pi / q * np.arange(q // 2 + 1))
        self._twiddles = (twiddle, twiddle.conj())
        # the half spectra of the last axis
        self._spec_shape = (q,) * (n - 1) + (q // 2 + 1,)
        factors = prop._kernel_entry(times[live], 2 * q)
        if live.size < count:  # S(0) is the identity, so its rows hold ones
            rows = np.ones((count, factors.shape[1]))
            rows[live] = factors
            factors = rows
        # factor of each row along each axis, shaped to broadcast over the row
        # spectrum's float view.  The last axis holds the pairs
        # (c_k, -c_(Q-k)) of cosine coefficients (see _dct_forward), so its
        # factor pairs G_k with G_(Q-k)
        axes = [
            factors[:, :q].reshape((count,) + (1,) * ax + (q,) + (1,) * (n - 1 - ax))
            for ax in range(n - 1)
        ]
        pairs = np.empty((count, q // 2 + 1, 2))
        pairs[:, :, 0] = factors[:, : q // 2 + 1]
        pairs[:, 0, 1] = factors[:, 0]  # c_0 pairs with a zero
        pairs[:, 1:, 1] = factors[:, q - 1 : q // 2 - 1 : -1]
        axes.append(pairs.reshape((count,) + (1,) * (n - 1) + (q + 2,)))
        row_bytes = 16 * q**n
        self._step = step = max(1, min(count, _FFT_WORKSPACE_BYTES // row_bytes))
        # the batch's real lines along the last axis, or one row's padded
        # lines along an earlier axis, whichever are more, and those lines'
        # half spectra: the earlier axes go a row at a time
        lines = q ** (n - 1) * (q + 2) if n > 1 else 0
        batch = step * prop.shape[0] ** (n - 1) * q
        self._work = ((max(batch, lines),), (lines // q * (q // 2 + 1),))
        # rows per contraction: all J of an operator with a mix, else one
        # batch, so that its rows stream through the scratch
        self._span = count if mix is not None else step
        # blocks of lines along the first spectral axis (a 1D spectrum is one
        # line): all of them if the contraction's spectra fit the workspace,
        # as a batch's do, else as many as fit a quarter of it, so that a
        # block and the lines it reads and adds into stay in cache (a 2D
        # M = 192 sweep ran 10-20% slower with blocks of the whole workspace,
        # and a 3D M = 32 solve about 10% slower with its batches cut up)
        lines = self._spec_shape[0] if n > 1 else 1
        line_bytes = 16 * self._span * math.prod(self._spec_shape) // lines
        per = lines
        if lines * line_bytes > _FFT_WORKSPACE_BYTES:
            per = max(1, _FFT_WORKSPACE_BYTES // (4 * line_bytes))
        cuts = [slice(a, a + per) for a in range(0, lines, per)] if per < lines else [slice(None)]
        self._blocks = [(cut, [axes[0][:, cut]] + axes[1:]) for cut in cuts]
        # with a mix and weights, an apply keeps a block's rows besides the T
        # sums; without weights the rows are the results
        block = (per,) + self._spec_shape[1:] if n > 1 else self._spec_shape
        self._block_shape = (count,) + block if mix is not None and weights is not None else (0,)

    def apply(self, values) -> np.ndarray:
        """The T weighted sums of J fields (without weights, the J rows),
        or of the J mixes of K inputs.

        values is a (J, *grid) stack ((K, *grid) with a mix), or a producer
        fill(lo, hi, out) that writes fields (inputs) lo .. hi - 1 into out,
        a contiguous (hi - lo, *grid) view of the propagator's scratch.  The
        operator calls it once per batch, in order, so the caller never holds
        the whole stack.  The transform overwrites out with the batch's
        spectra after the producer returns, so a producer must not keep it.
        A stack is the producer that copies its rows.
        """
        if callable(values):
            fill = values
        else:
            stack = np.asarray(values, dtype=float)
            if stack.shape != (self._inputs,) + self._shape[1:]:
                raise ParameterError(
                    f"stack shape {stack.shape} does not match {self._inputs} fields of "
                    f"grid shape {self._shape[1:]}"
                )

            def fill(lo, hi, out):
                out[...] = stack[lo:hi]

        return self._apply_spectral(fill)

    def _apply_spectral(self, fill) -> np.ndarray:
        """Every operator's apply, in views of the scratch taken at the start
        of the call: transform, contract, invert.  Fields are produced and
        transformed _step at a time (see _transform).  With a mix the K
        inputs are transformed first and all J rows are one contraction;
        without, each batch of rows is its own inputs, transformed just
        before its contraction.  A contraction of rows lo .. hi - 1 runs
        over the blocks of spectral lines: it forms the block's row spectra
        Y (mix @ X, or the batch itself) and scales them by the rows'
        factors in two passes (the earlier axes' product, then the last
        axis's).  With weights it adds weights[:, lo:hi] @ Y into the T
        sums (the first contraction writes them), which are inverted last
        (see _dct_inverse).  Without weights Y is the result: mix @ X is
        written straight into the J result spectra, inverted last; without
        a mix either, each batch's scaled spectra are inverted into its
        rows of the result before the next batch is produced.  Each product
        is one real matrix product, on complex values viewed as float
        pairs, and the real factors scale that float view in place, the
        last axis by the paired factor."""
        mix, weights = self.mix, self.weights
        count, step, span = self._shape[0], self._step, self._span
        targets = count if weights is None else weights.shape[0]
        work, lines, spec, outs, ys = self.propagator._scratch(
            (self._work[0], float),
            (self._work[1], complex),
            ((step if mix is None else self._inputs,) + self._spec_shape, complex),
            ((0 if weights is None and mix is None else targets,) + self._spec_shape, complex),
            (self._block_shape, complex),
        )
        work = (work, lines)
        if mix is not None:
            for lo in range(0, self._inputs, step):
                hi = min(lo + step, self._inputs)
                self._transform(fill, lo, hi, work, spec[lo:hi])
        out = np.empty((targets,) + self._shape[1:])
        x = spec
        for lo in range(0, count, span):
            hi = min(lo + span, count)
            if mix is None:
                x = self._transform(fill, lo, hi, work, spec[: hi - lo])
            for cut, factors in self._blocks:
                y = x[:, cut]
                if mix is not None:
                    block = outs[:, cut] if weights is None else ys[:, : y.shape[1]]
                    np.matmul(mix, _flat(y), out=_flat(block))
                    y = block
                scaled = y.view(float)
                *head, last = factors
                if head:  # the earlier axes' factors are small: one pass for all
                    scaled *= functools.reduce(np.multiply, head)[lo:hi]
                scaled *= last[lo:hi]
                if weights is None:
                    continue
                sums = _flat(outs[:, cut])
                if lo == 0:
                    np.matmul(weights[:, :hi], _flat(y), out=sums)
                else:
                    sums += weights[:, lo:hi] @ _flat(y)
            if weights is None and mix is None:
                self._dct_inverse(x, work, out[lo:hi])
        for k in range(0, len(outs), step):  # no sums when the batches were inverted
            self._dct_inverse(outs[k : k + step], work, out[k : k + step])
        return out

    def _transform(self, fill, lo: int, hi: int, work, out: np.ndarray) -> np.ndarray:
        """Produce rows lo .. hi - 1 into the front of out's memory and
        overwrite them with their spectra by _dct_forward, which reads the
        rows out (into _reorder's real lines) before it writes a spectrum;
        a row takes no more bytes than its spectrum, so the rows need no
        buffer of their own.  Returns out.  The rows are contiguous, not a
        view of the padded lines: the producer's elementwise passes run
        slower on a strided view (g_n on a 2D M = 192 row: 70 us more)."""
        rows = np.ndarray((hi - lo,) + self._shape[1:], float, out)
        fill(lo, hi, rows)
        return self._dct_forward(rows, work, out)

    # -- the cosine transforms -----------------------------------------------
    #
    # A field held on the orthant extends to the full box as its mirror image
    # in every axis, and a half axis of m points zero-padded to Q extends to
    # the 2Q-periodic line that is symmetric about -1/2: the full line
    # zero-padded to 2Q, shifted by M/2.  Its DFT is exp(i pi k / 2Q) times
    # its DCT-II, and the kernel's is real, so the circular convolution at
    # 2Q is a DCT-II, a real product and a DCT-III on the
    # orthant (Martucci, IEEE Trans. Signal Process. 42(5), 1994).  Each
    # cosine transform of a line is one rfft of length Q of its even
    # samples followed by its odd ones reversed, turned by exp(-i pi k / 2Q)
    # (Makhoul, IEEE Trans. ASSP 28(1), 1980): the result W_k, k <= Q/2,
    # holds half the DCT-II as c_k = Re W_k and c_(Q-k) = -Im W_k.  The last
    # axis keeps W as it is, so a spectrum has rfftn's layout at Q points
    # per axis; each earlier axis writes c_0 .. c_(Q-1) out in order.  The
    # inverse runs the same steps backwards; with that scaling it is the
    # DCT-III over Q, the exact inverse.

    def _dct_forward(self, rows: np.ndarray, work, out: np.ndarray) -> np.ndarray:
        """The cosine spectra of a batch of orthant rows zero-padded to Q per
        axis, into the complex array out, in rfftn's axis order: the last
        axis over the batch's m^(N-1) data lines at once, then each earlier
        axis, in the float view, over the lines that are non-zero so far,
        one row at a time, so that the work holds one row's lines."""
        real, lines = work
        n = rows.ndim - 1
        m = rows.shape[1]
        q = self._q
        half = q // 2
        twiddle = self._twiddles[0]
        shape = rows.shape[:-1] + (q,)
        line = real[: math.prod(shape)].reshape(shape)
        _reorder(rows, line, n)
        dst = out[(slice(None),) + (slice(0, m),) * (n - 1)]
        np.fft.rfft(line, axis=n, out=dst)
        dst *= twiddle
        for ax in range(n - 2, -1, -1):  # an axis of one row
            at = (slice(None),) * ax
            srcs = out[(slice(None),) + (slice(0, m),) * (ax + 1)].view(float)
            shape = srcs.shape[1 : ax + 1] + (q,) + srcs.shape[ax + 2 :]
            line = real[: math.prod(shape)].reshape(shape)
            cshape = shape[:ax] + (half + 1,) + shape[ax + 1 :]
            spec = lines[: math.prod(cshape)].reshape(cshape)
            turn = twiddle.reshape((half + 1,) + (1,) * (n - 1 - ax))
            dsts = out[(slice(None),) + (slice(0, m),) * ax].view(float)
            for src, flat in zip(srcs, dsts):
                _reorder(src, line, ax)
                np.fft.rfft(line, axis=ax, out=spec)
                spec *= turn
                flat[at + (slice(0, half + 1),)] = spec.real
                np.negative(
                    spec.imag[at + (slice(half - 1, 0, -1),)], out=flat[at + (slice(half + 1, q),)]
                )
        return out

    def _dct_inverse(self, spec: np.ndarray, work, out: np.ndarray) -> np.ndarray:
        """The orthant box of the inverse cosine transforms of a batch of
        contiguous spectra, into out, axis 1 first: after each earlier axis
        only the first m values, which the box holds, go on to the next,
        written over the front of spec.  An earlier axis, in the float view,
        forms exp(i pi k / 2Q) (d_k - i d_(Q-k)) from its coefficients d, one
        row at a time and in order, since a row's box ends before the next
        row starts; the last axis turns the batch's half spectra by
        exp(i pi k / 2Q) in place.  Each takes one irfft of length Q per line
        and reads the box from it: even samples forward, odd samples
        backward from the end."""
        real, lines = work
        n = spec.ndim - 1
        m = out.shape[1]
        q = self._q
        half = q // 2
        twiddle = self._twiddles[1]
        for ax in range(n - 1):  # an axis of one row
            at = (slice(None),) * ax
            turn = twiddle.reshape((half + 1,) + (1,) * (n - 1 - ax))
            flat = spec.view(float)
            shape = flat.shape[1:]
            line = real[: math.prod(shape)].reshape(shape)
            cshape = shape[:ax] + (half + 1,) + shape[ax + 1 :]
            c = lines[: math.prod(cshape)].reshape(cshape)
            box = flat.shape[: ax + 1] + (m,) + flat.shape[ax + 2 :]
            kept = flat.reshape(-1)[: math.prod(box)].reshape(box)
            for row, dst in zip(flat, kept):
                c.real = row[at + (slice(0, half + 1),)]
                c.imag[at + (slice(0, 1),)] = 0.0
                np.negative(
                    row[at + (slice(q - 1, half - 1, -1),)], out=c.imag[at + (slice(1, None),)]
                )
                c *= turn
                np.fft.irfft(c, n=q, axis=ax, out=line)
                _unreorder(line, dst, ax)
            spec = kept.view(complex)
        spec *= twiddle
        shape = spec.shape[:-1] + (q,)
        line = np.fft.irfft(spec, n=q, axis=n, out=real[: math.prod(shape)].reshape(shape))
        _unreorder(line, out, n)
        return out


def _reorder(src: np.ndarray, dst: np.ndarray, ax: int) -> None:
    """Write the m lines of src along axis ax into the Q lines of dst as a
    cosine transform reads them: even samples first, then the odd ones
    reversed at the end, zeros between."""
    at = (slice(None),) * ax
    m, q = src.shape[ax], dst.shape[ax]
    even, odd = (m + 1) // 2, m // 2
    dst[at + (slice(0, even),)] = src[at + (slice(0, None, 2),)]
    dst[at + (slice(even, q - odd),)] = 0.0
    if odd:
        dst[at + (slice(q - odd, q),)] = src[at + (slice(2 * odd - 1, None, -2),)]


def _unreorder(src: np.ndarray, dst: np.ndarray, ax: int) -> None:
    """The first m samples, along axis ax, of the lines src that a cosine
    transform reads in _reorder's order, into dst."""
    at = (slice(None),) * ax
    m, q = dst.shape[ax], src.shape[ax]
    even, odd = (m + 1) // 2, m // 2
    dst[at + (slice(0, None, 2),)] = src[at + (slice(0, even),)]
    if odd:
        dst[at + (slice(1, None, 2),)] = src[at + (slice(q - 1, q - 1 - odd, -1),)]


def apply_heat(f: GridFunction, t: float) -> GridFunction:
    """Discrete heat semigroup S(t) acting on a grid function; builds its
    kernel afresh (a caller applying one time to many fields prepares it
    once with HeatPropagator.prepare).  The field must be mirror-symmetric
    in every axis (ParameterError otherwise), and is applied on its
    orthant, as the solves are."""
    if not is_mirror_symmetric(f.values):
        raise ParameterError("the heat operator takes fields mirror-symmetric in every axis")
    prop = HeatPropagator(f.grid)
    return GridFunction(f.grid, mirrored(prop.apply_heat_values(orthant(f.values), t)))


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
