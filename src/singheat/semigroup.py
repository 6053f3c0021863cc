"""Discrete heat semigroup S(t) and its singular-weight composition.

The continuous operators are convolution with the Gaussian kernel
G_t(x) = (4 pi t)^{-N/2} exp(-|x|^2 / (4t)) and, for the weighted variant,
S_gamma(t) f = S(t)(|.|^{-gamma} f).  On a grid both become discrete linear
convolutions with samples of G_t (zero extension outside the box), with the
weight entering as its exact cell-average field, which the caller multiplies
into the fields it applies S(t) to (HeatPropagator.weight_values).

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
Every apply is one loop: transform, contract, invert.  An operator binds
once, on its first apply, every view that its applies reuse (the scratch
views, each batch's padded lines and spectra, the cuts that reorder them,
each block's factor views and the float views that the products write
into), and binds again only when its propagator's scratch buffer has since
been replaced by a larger one, so that an apply runs only its numpy calls
(FFTW's plan once, execute many: Frigo and Johnson, Proc. IEEE 93(2), 2005).
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
(it interpolates the source, not the field), so its J = 20 quadrature rows
(at the default 4 nodes per window) cost K = 6 forward transforms; its free
term mixes its 5 rows from the window start alone (a one-column mix, no
weights), so they cost one.  An operator without a mix has no inputs to
share: each batch of its rows is its own inputs, contracted before the
next batch is produced, so its fields stream.

An apply takes the J fields (or K inputs) as a stack or as a producer that
writes each batch's rows into the propagator's scratch, so a caller whose
fields are computed (the sub-solution check's barrier powers) never holds
all J of them.  A stack is read in place: its rows are reordered straight
into the padded lines.  A producer's rows go to the front of the memory
their spectra will take, since every forward transform reads them out
before it writes a spectrum: the scratch holds each batch once.

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

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; keep that out of the first apply)

from .errors import ParameterError, TruncationError
from .fields import Grid, GridFunction, is_mirror_symmetric, mirrored, orthant, weight_field

__all__ = [
    "HeatPropagator",
    "PreparedHeat",
    "apply_heat",
    "gaussian_exact",
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


class HeatPropagator:
    """Applies S(t) on one grid, by the operators that it prepares
    (prepare, then apply_heat_values); S_gamma(t) f is S(t) applied to
    weight_values(gamma) * f.

    The propagator applies S(t) to fields that are mirror-symmetric in
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
        aligned offsets.  The buffer grows to the largest request and is
        kept, so successive operators reuse it: the views of every call
        share its memory.  A call that outgrows the buffer replaces it, and
        the retired one lives on while views of it do."""
        offsets, end = [], 0
        for shape, dtype in specs:
            offsets.append(end)
            end += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
        if self._buffer.size < end:
            raw = np.empty(end + 63, dtype=np.uint8)
            self._buffer = raw[-raw.ctypes.data % 64 :][:end]
        return [np.ndarray(s, d, self._buffer, off) for off, (s, d) in zip(offsets, specs)]

    # -- kernel construction -------------------------------------------------

    def _axis_samples(self, times: np.ndarray, reach: int) -> np.ndarray:
        """1D kernel samples h * G_t at displacements -k..k, in grid steps,
        for k = reach, one row per time of the 1D array times.  The samples
        are formed in the one array that they are returned in: d^2 at
        d = i h, i = 0..k, over the row's exponent coefficient -4t,
        overwritten by its exp and scaled, then mirrored onto -k..-1."""
        h = self.grid.h
        k = reach
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
        return samples

    def _kernel_entry(self, times: np.ndarray, length: int) -> np.ndarray:
        """The 1D kernel factors for a 1D array of times t > 0 at padded
        length L = `length`, built in one pass, one row per time: the
        L/2 + 1 values of the real part of the rfft of the kernel wrapped at
        L (see the class docstring).  A truncating time raises
        TruncationError naming the first.

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
        return spectra.real.copy()

    # -- application ---------------------------------------------------------

    def prepare(self, t, weights=None, mix=None) -> "PreparedHeat":
        """The operator stack -> sum_j weights[i, j] S(t[j]) stack[j] for a
        fixed length-J array of times t > 0 and a (T, J) weight matrix, with
        its kernel factors built once; without weights, the J rows
        S(t[j]) stack[j] themselves.  With a (J, K) mix matrix the operator
        takes K fields instead, and row j is S(t[j]) applied to
        sum_k mix[j, k] stack[k].  See PreparedHeat."""
        times = np.asarray(t, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ParameterError(
                f"evolution times must form a non-empty 1D array (got shape {times.shape})"
            )
        if not np.all(np.isfinite(times)) or float(times.min()) <= 0.0:
            raise ParameterError(f"evolution times must be finite and > 0 (got {times})")
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

    def apply_heat_values(self, values, op: "PreparedHeat") -> np.ndarray:
        """The operator op, prepared by this propagator, applied to values:
        the T weighted sums of J fields (without weights, the J rows), or of
        the J mixes of K inputs.  op carries its own times, weights and mix,
        so a caller applying the same times to many stacks prepares them
        once.

        values is a (J, *shape) stack ((K, *shape) with a mix), or a producer
        fill(lo, hi, out) that writes fields (inputs) lo .. hi - 1 into out,
        a contiguous (hi - lo, *shape) view of the propagator's scratch.  The
        operator calls it once per batch, in order, so the caller never holds
        the whole stack.  The transform overwrites out with the batch's
        spectra after the producer returns, so a producer must not keep it.
        A stack is read in place: its rows are reordered straight into the
        operator's padded lines, in any memory order, so it is copied once.
        The operator runs in the views it bound on its first apply, bound
        again if the scratch buffer has been replaced since (see
        PreparedHeat).
        """
        if not isinstance(op, PreparedHeat) or op.propagator is not self:
            raise ParameterError(
                f"apply_heat_values takes an operator that this propagator prepared (got {op!r})"
            )
        if not callable(values):
            values = np.asarray(values, dtype=float)
            if values.shape != (op._inputs,) + self.shape:
                raise ParameterError(
                    f"stack shape {values.shape} does not match {op._inputs} fields of "
                    f"grid shape {self.shape}"
                )
        return op._apply_spectral(values)

    def weight_values(self, gamma: float) -> np.ndarray:
        """The cell-averaged weight field of gamma on the orthant, built
        there alone."""
        vals = self._weights.get(gamma)
        if vals is None:
            vals = self._weights[gamma] = weight_field(self.grid, gamma)
        return vals


def _flat(spec: np.ndarray) -> np.ndarray:
    """A stack of spectra as a matrix of floats, one row per spectrum; a view."""
    return spec.view(float).reshape(spec.shape[0], -1)


class PreparedHeat:
    """sum_j weights[i, j] S(t[j]) f_j for fixed times and weights, or the
    J rows S(t[j]) f_j when prepare was given no weights (weights is then
    None), applied to any number of stacks f by
    HeatPropagator.apply_heat_values.  With a (J, K) mix matrix the
    operator takes K inputs x_k and its J rows are the mixes
    f_j = sum_k mix[j, k] x_k.

    Built once by HeatPropagator.prepare, it holds everything that depends
    on the times, weights and mix alone:

    - the cosine-transform length Q of the half axis, sized to the reach
      of the kernel of the largest time (see _orthant_length), and the
      per-row kernel factors at 2Q, of which it reads the first Q values
      per row (on the last axis, paired to match the spectrum's float
      view; see _forward), and the twiddle exp(-i pi k / 2Q),
      k <= Q/2, of its cosine transforms.  Every spectrum is held as
      rfftn's half spectrum at Q points per axis;
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
    scratch holds each batch once: a producer's rows are written into the
    memory their spectra take, and a stack's are read in place (see
    _bind_forward).  On its first apply the operator binds the views of
    the scratch that every apply reuses (see _bind), and it binds them
    again only on an apply that finds the propagator's buffer replaced by
    a larger one; until then its views keep the retired buffer alive.
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
        self._q = q = _orthant_length(m, grid.h, float(times.max()))
        # the half spectra of the last axis
        self._spec_shape = (q,) * (n - 1) + (q // 2 + 1,)
        factors = prop._kernel_entry(times, 2 * q)
        # after the factors, so that it adds nothing to their build's peak
        self._twiddle = np.exp(-0.5j * np.pi / q * np.arange(q // 2 + 1))
        # factor of each row along each axis, shaped to broadcast over the row
        # spectrum's float view.  The last axis holds the pairs
        # (c_k, -c_(Q-k)) of cosine coefficients (see _forward), so its
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
        self._out_shape = (count if weights is None else weights.shape[0],) + prop.shape
        self._bound_to = None  # the scratch buffer of the views that _bind takes

    def _bind(self) -> None:
        """Take from the propagator's scratch every view that an apply
        reuses, and record the buffer they lie in: the transform work, the
        spectra of the inputs (or of one batch), the sums (or result
        spectra) and one block of row spectra; each batch's forward views
        (see _bind_forward); each contraction's blocks, with the float
        views that its products read and write, its rows' factor views and
        its weights' columns; and each batch's inverse views (see
        _bind_inverse).  Taken on the first apply, and again on an apply
        that finds the propagator's buffer replaced, as another operator's
        larger scratch replaces it; until then these views keep the
        retired buffer alive."""
        mix, weights = self.mix, self.weights
        count, step, span = self._shape[0], self._step, self._span
        targets = self._out_shape[0]
        prop = self.propagator
        real, lines, spec, outs, ys = prop._scratch(
            (self._work[0], float),
            (self._work[1], complex),
            ((step if mix is None else self._inputs,) + self._spec_shape, complex),
            ((0 if weights is None and mix is None else targets,) + self._spec_shape, complex),
            (self._block_shape, complex),
        )
        self._bound_to = prop._buffer
        work = (real, lines)
        # the apply's steps, each (forward, blocks, inverse), None or [] for
        # a part it lacks: the inputs' transforms, the contractions, then
        # the inverses of the sums
        self._steps = []
        if mix is not None:
            for lo in range(0, self._inputs, step):
                hi = min(lo + step, self._inputs)
                self._steps.append((self._bind_forward(lo, hi, spec[lo:hi], work), [], None))
        x = spec
        for lo in range(0, count, span):
            hi = min(lo + span, count)
            forward = inverse = None
            if mix is None:
                x = spec[: hi - lo]
                forward = self._bind_forward(lo, hi, x, work)
                if weights is None:
                    inverse = self._bind_inverse(lo, hi, x, work)
            blocks = []
            for cut, factors in self._blocks:
                y = x[:, cut]
                mixed = None
                if mix is not None:
                    mixed = _flat(y)
                    y = outs[:, cut] if weights is None else ys[:, : y.shape[1]]
                *head, last = factors
                sums = columns = None
                if weights is not None:
                    sums = _flat(outs[:, cut])
                    columns = weights[:, :hi] if lo == 0 else weights[:, lo:hi]
                blocks.append(
                    (mixed, _flat(y), y.view(float), [f[lo:hi] for f in head], last[lo:hi],
                     sums, columns, lo == 0)
                )
            self._steps.append((forward, blocks, inverse))
        for lo in range(0, len(outs), step):  # no sums when the batches were inverted
            hi = min(lo + step, len(outs))
            self._steps.append((None, [], self._bind_inverse(lo, hi, outs[lo:hi], work)))

    def _apply_spectral(self, values) -> np.ndarray:
        """Every operator's apply, of a stack or a producer, in the views
        that _bind took (bound again first if the propagator's buffer was
        replaced): transform, contract, invert.  Fields are produced and
        transformed _step at a time (see _forward).  With a mix the K
        inputs are transformed first and all J rows are one contraction;
        without, each batch of rows is its own inputs, transformed just
        before its contraction.  A contraction of rows lo .. hi - 1 runs
        over the blocks of spectral lines: it forms the block's row spectra
        Y (mix @ X, or the batch itself) and scales them by the rows'
        factors in two passes (the earlier axes' product, then the last
        axis's).  With weights it adds weights[:, lo:hi] @ Y into the T
        sums (the first contraction writes them), which are inverted last
        (see _inverse).  Without weights Y is the result: mix @ X is
        written straight into the J result spectra, inverted last; without
        a mix either, each batch's scaled spectra are inverted into its
        rows of the result before the next batch is produced.  Each product
        is one real matrix product, on complex values viewed as float
        pairs, and the real factors scale that float view in place, the
        last axis by the paired factor."""
        if self._bound_to is not self.propagator._buffer:
            self._bind()
        out = np.empty(self._out_shape)
        for forward, blocks, inverse in self._steps:
            if forward is not None:
                self._forward(values, forward)
            for mixed, flat, scaled, head, last, sums, columns, first in blocks:
                if mixed is not None:
                    np.matmul(self.mix, mixed, out=flat)
                if head:  # the earlier axes' factors are small: one pass for all
                    scaled *= functools.reduce(np.multiply, head)
                scaled *= last
                if sums is None:
                    continue
                if first:
                    np.matmul(columns, flat, out=sums)
                else:
                    sums += columns @ flat
            if inverse is not None:
                self._inverse(inverse, out)
        return out

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

    def _bind_forward(self, lo: int, hi: int, out: np.ndarray, work) -> tuple:
        """The views of the cosine transform of rows lo .. hi - 1 into the
        complex array out (see _forward): the rows, produced into the front
        of out's memory, since the reorder reads them out into the real
        lines before the transform writes a spectrum (a row takes no more
        bytes than its spectrum, so the rows need no buffer of their own;
        they are contiguous, not a view of the padded lines, as the
        producer's elementwise passes run slower on a strided view: g_n on
        a 2D M = 192 row, 70 us more); the last axis's padded lines, with
        the cuts of the rows that fill them, and its spectra; and, for each
        earlier axis, one row's padded lines and half spectra, with each
        row's views."""
        real, lines = work
        n = len(self._shape) - 1
        m, q = self._shape[1], self._q
        half = q // 2
        rows = np.ndarray((hi - lo,) + self._shape[1:], float, out)
        shape = rows.shape[:-1] + (q,)
        line = real[: math.prod(shape)].reshape(shape)
        cuts, zero = _line_cuts(m, q, n)
        picks = [(line[to], frm) for frm, to in cuts]
        dst = out[(slice(None),) + (slice(0, m),) * (n - 1)]
        earlier = []
        for ax in range(n - 2, -1, -1):  # an axis of one row
            at = (slice(None),) * ax
            srcs = out[(slice(None),) + (slice(0, m),) * (ax + 1)].view(float)
            shape = srcs.shape[1 : ax + 1] + (q,) + srcs.shape[ax + 2 :]
            axis_line = real[: math.prod(shape)].reshape(shape)
            cshape = shape[:ax] + (half + 1,) + shape[ax + 1 :]
            spec = lines[: math.prod(cshape)].reshape(cshape)
            turn = self._twiddle.reshape((half + 1,) + (1,) * (n - 1 - ax))
            dsts = out[(slice(None),) + (slice(0, m),) * ax].view(float)
            axis_cuts, axis_zero = _line_cuts(m, q, ax)
            per_row = [
                ([(axis_line[to], src[frm]) for frm, to in axis_cuts],
                 flat[at + (slice(0, half + 1),)], flat[at + (slice(half + 1, q),)])
                for src, flat in zip(srcs, dsts)
            ]
            earlier.append(
                (ax, axis_line, axis_line[axis_zero], spec, turn, spec.real,
                 spec.imag[at + (slice(half - 1, 0, -1),)], per_row)
            )
        return lo, hi, rows, picks, line[zero], line, dst, earlier

    def _forward(self, values, bound: tuple) -> None:
        """The cosine spectra of a batch of orthant rows zero-padded to Q per
        axis, in rfftn's axis order, in the views of _bind_forward: the
        rows of a stack are reordered from it in place, a producer's from
        the rows it writes.  The last axis goes over the batch's m^(N-1)
        data lines at once, then each earlier axis, in the float view, over
        the lines that are non-zero so far, one row at a time, so that the
        work holds one row's lines."""
        lo, hi, rows, picks, zero, line, dst, earlier = bound
        if callable(values):
            src = rows
            values(lo, hi, rows)
        else:
            src = values[lo:hi]
        for part, cut in picks:
            part[...] = src[cut]
        zero[...] = 0.0
        np.fft.rfft(line, axis=-1, out=dst)
        dst *= self._twiddle
        for ax, axis_line, axis_zero, spec, turn, real, imag, per_row in earlier:
            axis_zero[...] = 0.0  # no row writes there
            for row_picks, head, tail in per_row:
                for part, row in row_picks:
                    part[...] = row
                np.fft.rfft(axis_line, axis=ax, out=spec)
                spec *= turn
                head[...] = real
                np.negative(imag, out=tail)

    def _bind_inverse(self, lo: int, hi: int, spec: np.ndarray, work) -> tuple:
        """The views of the inverse cosine transform of the contiguous
        spectra spec into rows lo .. hi - 1 of a result (see _inverse): for
        each earlier axis, axis 1 first, one row's coefficients and padded
        lines, and each row's views of its spectrum and of the box it keeps,
        written over the front of spec (after each earlier axis only the
        first m values, which the box holds, go on to the next); then the
        last axis's half spectra and padded lines, with the cuts of the
        result that they fill."""
        real, lines = work
        n = spec.ndim - 1
        m, q = self._shape[1], self._q
        half = q // 2
        earlier = []
        for ax in range(n - 1):  # an axis of one row
            at = (slice(None),) * ax
            turn = self._twiddle.reshape((half + 1,) + (1,) * (n - 1 - ax))
            flat = spec.view(float)
            shape = flat.shape[1:]
            line = real[: math.prod(shape)].reshape(shape)
            cshape = shape[:ax] + (half + 1,) + shape[ax + 1 :]
            c = lines[: math.prod(cshape)].reshape(cshape)
            box = flat.shape[: ax + 1] + (m,) + flat.shape[ax + 2 :]
            kept = flat.reshape(-1)[: math.prod(box)].reshape(box)
            cuts = _line_cuts(m, q, ax)[0]
            per_row = [
                (row[at + (slice(0, half + 1),)], row[at + (slice(q - 1, half - 1, -1),)],
                 [(dst[to], line[frm]) for to, frm in cuts])
                for row, dst in zip(flat, kept)
            ]
            earlier.append(
                (ax, c, c.real, c.imag[at + (slice(0, 1),)], c.imag[at + (slice(1, None),)],
                 turn, line, per_row)
            )
            spec = kept.view(complex)
        shape = spec.shape[:-1] + (q,)
        line = real[: math.prod(shape)].reshape(shape)
        parts = [((slice(lo, hi),) + to[1:], line[frm]) for to, frm in _line_cuts(m, q, n)[0]]
        return earlier, spec, line, parts

    def _inverse(self, bound: tuple, out: np.ndarray) -> None:
        """The orthant box of the inverse cosine transforms of a batch of
        spectra, into its rows of out, in the views of _bind_inverse.  An
        earlier axis, in the float view, forms exp(i pi k / 2Q)
        (d_k - i d_(Q-k)) from its coefficients d, one row at a time and in
        order, since a row's box ends before the next row starts; the last
        axis turns the batch's half spectra by exp(i pi k / 2Q) in place.
        Each turn is by the conjugate of the forward twiddle, taken as
        conj(conj(z) twiddle): the same products as z conj(twiddle), with
        no second array.  Each takes one irfft of length Q per line and
        reads the box from it: even samples forward, odd samples backward
        from the end."""
        earlier, spec, line, parts = bound
        q = self._q
        for ax, c, c_real, c_zero, c_imag, turn, axis_line, per_row in earlier:
            for head, tail, picks in per_row:
                # conj(d_k - i d_(Q-k)), turned, then conjugated back
                c_real[...] = head
                c_zero[...] = 0.0
                c_imag[...] = tail
                c *= turn
                np.conjugate(c, out=c)
                np.fft.irfft(c, n=q, axis=ax, out=axis_line)
                for part, src in picks:
                    part[...] = src
        np.conjugate(spec, out=spec)
        spec *= self._twiddle
        np.conjugate(spec, out=spec)
        np.fft.irfft(spec, n=q, axis=-1, out=line)
        for cut, src in parts:
            out[cut] = src


def _line_cuts(m: int, q: int, ax: int) -> tuple:
    """How the m samples along axis ax of a field sit in Q padded lines as
    a cosine transform reads them: the (field cut, line cut) pairs, the
    even samples first and the odd ones reversed at the end, and the cut of
    the zeros between.  The reorder copies each field cut into its line
    cut, the inverse each line cut back into its field cut."""
    at = (slice(None),) * ax
    even, odd = (m + 1) // 2, m // 2
    cuts = [(at + (slice(0, None, 2),), at + (slice(0, even),))]
    if odd:
        cuts.append((at + (slice(1, None, 2),), at + (slice(q - 1, q - 1 - odd, -1),)))
    return cuts, at + (slice(even, q - odd),)


def apply_heat(f: GridFunction, t: float) -> GridFunction:
    """Discrete heat semigroup S(t) acting on a grid function, for one
    time t >= 0: S(0) is the identity (f itself); for t > 0 it prepares its
    kernel afresh (a caller applying one time to many fields prepares it
    once with HeatPropagator.prepare).  The field must be mirror-symmetric
    in every axis (ParameterError otherwise), and is applied on its
    orthant, as the solves are."""
    if not is_mirror_symmetric(f.values):
        raise ParameterError("the heat operator takes fields mirror-symmetric in every axis")
    if np.ndim(t) != 0 or not math.isfinite(t) or t < 0.0:
        raise ParameterError(f"evolution time must be one scalar >= 0 (got {t})")
    if t == 0.0:
        return f
    prop = HeatPropagator(f.grid)
    out = prop.apply_heat_values(orthant(f.values)[None], prop.prepare([float(t)]))
    return GridFunction(f.grid, mirrored(out[0]))


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
