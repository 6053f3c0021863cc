"""Mild-solution marching: windowed Picard iteration on graded quadrature,
and the decreasing ladder of Lipschitz-regularized approximations.

The equation is solved in integral form,

    u(t) = S(t - a) u(a) + integral_a^t S_gamma(t - sigma) g(u(sigma)) d sigma,

window by window.  Within one window the fixed-point map is a sup-norm
contraction provided the window is short against the nonlinearity's Lipschitz
constant (contraction_window), so plain Jacobi sweeps over the stored time
nodes converge geometrically, from any start: a window starts from its free
term plus the Duhamel part of the windows before it of the same length,
extrapolated linearly.  The Duhamel integrand blows up like
(t - sigma)^{-gamma/2} at the upper limit; the quadrature absorbs that
exactly by the grading substitution t - sigma = s^p with p = 2/(2 - gamma).
Between the stored nodes the source |x|^{-gamma} g(u) itself is
interpolated linearly in time (product integration), so a sweep evaluates
g once per node and the propagator mixes the quadrature rows from those
values.

The sublinear power r^q itself is not Lipschitz at 0.  The scheme of record
replaces it by the regularized g_n (linear of matching slope below 1/(2n)),
shifts the data up by 1/n, and lets n run through a schedule: the resulting
solutions decrease in n, and the pointwise infimum is the distinguished
(maximal) solution the package's checks are about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import constants
from .errors import ConvergenceError, ParameterError
from .fields import (
    Grid,
    GridFunction,
    Params,
    gauss_legendre,
    is_mirror_symmetric,
    mirrored,
    orthant,
)
from .semigroup import HeatPropagator

__all__ = [
    "Nonlinearity",
    "SolveConfig",
    "TimeMesh",
    "Trajectory",
    "contraction_window",
    "duhamel_rule",
    "g_n",
    "monotone_solve",
    "picard_solve",
    "positive_part",
    "subsolution_coefficient",
    "subsolution_values",
    "subsolution_w",
]

# Picard sweeps a window may take before it counts as stalled.
_MAX_PICARD_SWEEPS = 80

# Nodes per chunk of Trajectory.write_csv.  Writing a 3D M=64 trajectory (3
# snapshots of 262144 nodes, 40 MB of CSV) took the same 1.1-1.7 s with 8192
# and with 32768 nodes per chunk on a 2-core host, while the writer's own peak
# RSS was 1.1 MB and 5.9 MB: the smaller chunk costs no time.
_CSV_CHUNK = 8192


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------

def g_n(values, n: int, q: float, out=None) -> np.ndarray:
    """Lipschitz regularization of r -> r^q.

    Linear with slope (2n)^{1-q} on [0, 1/(2n)], equal to r^q beyond; the two
    branches meet at the knee, so g_n is continuous, non-decreasing, and
    globally Lipschitz with constant at most (1+q)(2n)^{1-q}.  Requires
    non-negative input and an integer n >= 1.

    The line lies below the power exactly up to the knee, so g_n is the
    smaller of the two.  Away from the knee that is bit for bit the branch
    value; within rounding of the knee the two branches agree to an ulp and
    either may be returned.  With out (an array of the input's shape that
    does not overlap it), the result is written there and returned.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"regularization index n must be an integer >= 1 (got {n})")
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1) (got {q})")
    arr = np.asarray(values, dtype=float)
    if arr.size and float(arr.min()) < 0.0:
        raise ParameterError("g_n expects non-negative input")
    if out is None:
        out = np.empty_like(arr)
    # one temporary besides the result: on a 72 x 256 sweep stack a second
    # one made this 4x slower (0.16 against 0.04 ms)
    line = np.multiply(arr, (2.0 * n) ** (1.0 - q), out=out)
    return np.minimum(line, arr**q, out=line)


def positive_part(values) -> np.ndarray:
    """max(r, 0), elementwise."""
    return np.maximum(np.asarray(values, dtype=float), 0.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Source nonlinearity applied pointwise to non-negative fields.

    kind "regularized" is g_n, "power" the raw r^q, "zero" the null source.
    ``lipschitz`` reports a global sup-norm Lipschitz constant, or None for
    the pure power (not Lipschitz at 0).
    """

    kind: str
    q: float = 0.5
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("regularized", "power", "zero"):
            raise ParameterError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind != "zero" and not (0.0 < self.q < 1.0):
            raise ParameterError(f"q must lie in (0, 1) (got {self.q})")
        if self.kind == "regularized" and (not isinstance(self.n, (int, np.integer)) or self.n < 1):
            raise ParameterError(f"regularized nonlinearity needs integer n >= 1 (got {self.n})")

    def __call__(self, values, out=None) -> np.ndarray:
        """The source at values; with out, written into it as g_n does."""
        if self.kind == "regularized":
            return g_n(values, self.n, self.q, out)
        arr = np.asarray(values, dtype=float)
        if self.kind == "zero":
            res = np.zeros_like(arr)
        else:
            if arr.size and float(arr.min()) < 0.0:
                raise ParameterError("power nonlinearity expects non-negative input")
            res = arr**self.q
        if out is None:
            return res
        out[...] = res
        return out

    @property
    def lipschitz(self) -> float | None:
        if self.kind == "zero":
            return 0.0
        if self.kind == "regularized":
            return (1.0 + self.q) * (2.0 * self.n) ** (1.0 - self.q)
        return None

    @staticmethod
    def regularized(q: float, n: int) -> "Nonlinearity":
        return Nonlinearity(kind="regularized", q=q, n=int(n))

    @staticmethod
    def power(q: float) -> "Nonlinearity":
        return Nonlinearity(kind="power", q=q)

    @staticmethod
    def zero() -> "Nonlinearity":
        return Nonlinearity(kind="zero")


# ---------------------------------------------------------------------------
# Explicit sub-solution
# ---------------------------------------------------------------------------

def subsolution_coefficient(params: Params) -> float:
    """Coefficient lambda = [(1-q) eta0]^{1/(1-q)} of the explicit barrier:
    the fixed point of the coefficient recursion, constants.ck_fixed_point."""
    return constants.ck_fixed_point(params.q, params.gamma, params.n_dim)


def subsolution_w(grid: Grid, params: Params, t: float) -> GridFunction:
    """Explicit sub-solution w(x, t) = lambda t^{1/(1-q)} (|x| + sqrt t)^{-gamma/(1-q)}.

    Vanishes identically at t = 0 and is radially non-increasing.  The
    maximal solution of the integral equation dominates it (the ladder's
    levels are checked against it by verify.check_lower_bound); not every
    non-negative solution does, since with zero data u = 0 is one and lies
    below w at every t > 0.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ParameterError(f"time must be >= 0 (got {t})")
    if t == 0.0:
        return GridFunction(grid, np.zeros(grid.shape))
    return GridFunction(grid, subsolution_values(params, t, grid.radius_values()))


def subsolution_values(params: Params, t: float, radius: np.ndarray) -> np.ndarray:
    """The barrier w(x, t) of subsolution_w at t > 0, at points of the given
    radii: an array of radius's shape."""
    lam = subsolution_coefficient(params)
    expo = params.gamma / (1.0 - params.q)
    return lam * t ** (1.0 / (1.0 - params.q)) * (radius + math.sqrt(t)) ** (-expo)


# ---------------------------------------------------------------------------
# Time discretization
# ---------------------------------------------------------------------------

def duhamel_rule(t_left: float, t_target: float, gamma: float, n_nodes: int):
    """Quadrature in sigma for Duhamel integrals with a (t_target - sigma)^{-gamma/2}
    endpoint singularity on [t_left, t_target].

    The substitution t_target - sigma = s^p, p = 2/(2 - gamma), turns the
    singular factor times the Jacobian into the constant p, so Gauss-Legendre
    in s converges at its full rate for smooth remaining factors.  Returns
    (sigma_nodes, weights): nodes ascending and strictly interior, weights
    positive, to be applied directly to integrand values (the weights carry
    the Jacobian, not the singular factor; the integrand keeps its own
    singularity, which the node clustering resolves).
    """
    if not (math.isfinite(t_left) and math.isfinite(t_target)) or t_target <= t_left:
        raise ParameterError(f"need t_left < t_target (got {t_left}, {t_target})")
    if not (0.0 <= gamma < 2.0):
        raise ParameterError(f"gamma must lie in [0, 2) (got {gamma})")
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1 (got {n_nodes})")
    p = 2.0 / (2.0 - gamma)
    span = t_target - t_left
    s_hi = span ** (1.0 / p)
    x, w = gauss_legendre(n_nodes)
    s = 0.5 * s_hi * (x + 1.0)
    ws = 0.5 * s_hi * w
    # strong grading (p large) can shrink s^p below the ulp of t_target, which
    # would cancel the node onto the window end; floor the gap and merge any
    # nodes that still collapse to the same float (same evaluation point, so
    # summing their weights leaves the rule's value unchanged)
    gap = np.maximum(s**p, max(span * 1e-14, abs(t_target) * 1e-15))
    # s ascends, so the gap does too and the nodes t_target - gap descend
    sig = (t_target - gap)[::-1]
    wq = (ws * p * s ** (p - 1.0))[::-1]
    starts = np.flatnonzero(np.concatenate(([True], sig[1:] != sig[:-1])))
    return sig[starts], np.add.reduceat(wq, starts)


def contraction_window(gamma: float, lipschitz: float, eta1_value: float, theta: float = 0.5) -> float:
    """Window length making one Picard sweep a theta-contraction in sup norm.

    One sweep amplifies sup-norm differences by at most
    lipschitz * eta1 * W^{1 - gamma/2} / (1 - gamma/2); solve that = theta
    for W.  Returns inf for a zero Lipschitz constant.
    """
    if not (0.0 < theta < 1.0):
        raise ParameterError(f"theta must lie in (0, 1) (got {theta})")
    if lipschitz < 0.0 or eta1_value <= 0.0:
        raise ParameterError("need lipschitz >= 0 and eta1_value > 0")
    if lipschitz == 0.0:
        return math.inf
    e = 1.0 - 0.5 * gamma
    return (theta * e / (lipschitz * eta1_value)) ** (1.0 / e)


@dataclass(frozen=True)
class TimeMesh:
    """Partition of [0, t_end] into contraction windows, and the boundaries
    at which a solve keeps its snapshots.

    build anchors a boundary at each record time it is given, and at t_end;
    records holds those anchors, ascending, with t_end last.  picard_solve
    keeps a snapshot at t = 0 and at each of them.  The mesh holds no
    quadrature: a window's rules depend on its length alone, so picard_solve
    has _window_plan build them once per length, in window-relative time.
    """

    t_end: float
    boundaries: tuple[float, ...]
    records: tuple[float, ...]

    @classmethod
    def build(
        cls, t_end: float, window_length: float, must_include: Iterable[float] = ()
    ) -> "TimeMesh":
        if not (math.isfinite(t_end) and t_end > 0.0):
            raise ParameterError(f"t_end must be positive (got {t_end})")
        if not (window_length > 0.0):
            raise ParameterError(f"window_length must be positive (got {window_length})")
        w_len = min(window_length, t_end)
        tol = 1e-12 * t_end
        anchors = sorted(set(float(s) for s in must_include) | {float(t_end)})
        clean: list[float] = []
        for s in anchors:
            if not tol < s <= t_end + tol:
                raise ParameterError(f"record time {s} outside (0, t_end]")
            s = min(s, float(t_end))
            if clean and s - clean[-1] <= tol:
                clean[-1] = s
            else:
                clean.append(s)
        clean[-1] = float(t_end)
        bounds = [0.0]
        prev = 0.0
        for s in clean:
            span = s - prev
            pieces = max(1, math.ceil(span / w_len - 1e-9))
            if len(bounds) + pieces > 2_000_000:
                raise ParameterError("time mesh would exceed 2e6 windows; enlarge the window length")
            bounds.extend(prev + span * j / pieces for j in range(1, pieces))
            bounds.append(s)
            prev = s
        return cls(t_end=float(t_end), boundaries=tuple(bounds), records=tuple(clean))

    def __post_init__(self) -> None:
        bs = self.boundaries
        if len(bs) < 2 or bs[0] != 0.0 or bs[-1] != self.t_end:
            raise ParameterError("boundaries must run from 0 to t_end")
        if any(b1 <= b0 for b0, b1 in zip(bs, bs[1:])):
            raise ParameterError("boundaries must be strictly increasing")
        if not set(self.records) <= set(bs[1:]):
            raise ParameterError(f"record times {self.records} are not all boundaries after 0")

    @property
    def window_count(self) -> int:
        return len(self.boundaries) - 1


# ---------------------------------------------------------------------------
# Solver configuration and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveConfig:
    """Numerical knobs of the marching scheme.

    Two settings are constants, not fields: a window still short of eps_fp
    after _MAX_PICARD_SWEEPS sweeps raises ConvergenceError, and a kernel
    whose raw mass falls short of 1 by more than semigroup._EPS_TAIL raises
    TruncationError.
    """

    eps_fp: float = 1e-8
    nodes_per_window: int = 8
    n_schedule: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    window_cap: float = 0.25
    contraction_theta: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_fp < 1.0):
            raise ParameterError(f"eps_fp must lie in (0, 1) (got {self.eps_fp})")
        if self.nodes_per_window < 2:
            raise ParameterError("nodes_per_window must be >= 2")
        sched = tuple(int(n) for n in self.n_schedule)
        if not sched or any(n < 1 for n in sched) or any(
            b <= a for a, b in zip(sched, sched[1:])
        ):
            raise ParameterError(
                f"n_schedule must be a strictly increasing tuple of positive integers "
                f"(got {self.n_schedule})"
            )
        object.__setattr__(self, "n_schedule", sched)
        if not (self.window_cap > 0.0):
            raise ParameterError("window_cap must be positive")
        if not (0.0 < self.contraction_theta < 1.0):
            raise ParameterError("contraction_theta must lie in (0, 1)")


@dataclass
class Trajectory:
    """Snapshots of one run at increasing times (t = 0 included).

    ``write_csv`` streams them to a text file as CSV and ``metadata`` gives
    the JSON sidecar's payload.
    """

    grid: Grid
    params: Params
    times: tuple[float, ...]
    snapshots: tuple[GridFunction, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots):
            raise ParameterError("times and snapshots must align")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ParameterError("snapshot times must be strictly increasing")
        for snap in self.snapshots:
            if snap.grid != self.grid:
                raise ParameterError("all snapshots must live on the trajectory grid")

    def snapshot_at(self, t: float) -> GridFunction:
        for tt, snap in zip(self.times, self.snapshots):
            if abs(tt - t) <= 1e-9 * abs(t):
                return snap
        raise ParameterError(f"no snapshot recorded at t = {t} (have {self.times})")

    def write_csv(self, fh: TextIO) -> None:
        """Write the trajectory as CSV to the text file ``fh``: a header, then
        one row per snapshot and node, ``_CSV_CHUNK`` nodes at a time, so the
        writer's memory does not grow with the output."""
        n = self.grid.n_dim
        fh.write("t,node_index," + ",".join(f"coord_{i + 1}" for i in range(n)) + ",u\n")
        axis = list(map(repr, self.grid.axis_nodes().tolist()))
        count = self.grid.node_count
        for k in range(len(self.times)):
            for lo in range(0, count, _CSV_CHUNK):
                fh.write(self.to_csv_text(k, range(lo, min(lo + _CSV_CHUNK, count)), axis))

    def to_csv_text(self, k: int, nodes: range, axis: Sequence[str]) -> str:
        """CSV rows of snapshot ``k`` at the nodes ``nodes`` (indices in C
        order over the axis meshes); ``axis`` holds the repr of each axis
        node, and values are written as the repr of their floats."""
        ix = np.unravel_index(np.arange(nodes.start, nodes.stop), self.grid.shape)
        coords = [[axis[i] for i in col.tolist()] for col in ix]
        values = map(repr, self.snapshots[k].values[ix].tolist())
        rows = zip(repeat(repr(float(self.times[k]))), map(str, nodes), *coords, values)
        return "\n".join(map(",".join, rows)) + "\n"

    def metadata(self) -> dict:
        return {
            "params": {
                "q": self.params.q,
                "gamma": self.params.gamma,
                "n_dim": self.params.n_dim,
            },
            "grid": {
                "n_dim": self.grid.n_dim,
                "half_width": self.grid.half_width,
                "points_per_axis": self.grid.points_per_axis,
            },
            "times": list(self.times),
            "node_order": "C order over the axis meshes, axis 1 slowest",
            "diagnostics": dict(self.diagnostics),
        }


# ---------------------------------------------------------------------------
# Picard marching
# ---------------------------------------------------------------------------

def _window_plan(prop: HeatPropagator, length: float, gamma: float, n_nodes: int) -> tuple:
    """The operators of the sweeps of a window of the given length.

    Every quantity of a window shifts with it, so the plan depends on the
    length alone and holds for every window of that length.  It is built
    in window-relative time, the window being [0, length]: the targets are
    the nodes of the window's own Duhamel rule on [0, length], of n_nodes
    nodes, and the window end, and target i's rule is the Duhamel
    quadrature on [0, target i], one source row per node.  Row j belongs to
    the target owning node s_j.  The sweep knows the weighted source
    |x|^{-gamma} g(u) at the knots 0, targets[0], ... only, and interpolates
    it linearly between them (exact at the knots): row j's source is
    (1 - theta) * knots[lo] + theta * knots[lo + 1], the row of the
    (rows, knots) matrix interp that holds 1 - theta and theta in columns lo
    and lo + 1.  Returns the prepared free-term operator (S(target i) on
    each row, all mixed from the window start alone, which is transformed
    once; prepared without weights, it returns the rows) and the prepared
    sweep operator (lags target_i - s_j, weighted
    per target, its rows mixed from the knots' sources by interp).
    """
    targets = np.append(duhamel_rule(0.0, length, gamma, n_nodes)[0], length)
    rules = [duhamel_rule(0.0, tau, gamma, n_nodes) for tau in targets]
    knots = np.concatenate(([0.0], targets))
    sigmas = np.concatenate([sig for sig, _ in rules])
    owner = np.repeat(np.arange(len(rules)), [sig.size for sig, _ in rules])
    hi = np.clip(np.searchsorted(knots, sigmas), 1, knots.size - 1)
    lo = hi - 1
    theta = np.clip((sigmas - knots[lo]) / (knots[hi] - knots[lo]), 0.0, 1.0)
    rows = np.arange(sigmas.size)
    interp = np.zeros((sigmas.size, knots.size))
    interp[rows, lo] = 1.0 - theta
    interp[rows, hi] = theta
    weights = np.zeros((len(rules), sigmas.size))
    weights[owner, rows] = np.concatenate([wts for _, wts in rules])
    free = prop.prepare(targets, mix=np.ones((targets.size, 1)))
    return free, prop.prepare(targets[owner] - sigmas, weights, mix=interp)


def _check_data(u0: GridFunction) -> None:
    """Refuse initial data that are not finite, non-negative and exactly
    mirror-symmetric in every axis (ParameterError)."""
    if not np.all(np.isfinite(u0.values)) or float(u0.values.min()) < 0.0:
        raise ParameterError("initial data must be finite and non-negative")
    if not is_mirror_symmetric(u0.values):
        raise ParameterError("initial data must be mirror-symmetric in every axis")


def picard_solve(
    u0: GridFunction,
    nonlinearity: Nonlinearity,
    params: Params,
    mesh: TimeMesh,
    config: SolveConfig = SolveConfig(),
    *,
    propagator: "HeatPropagator | None" = None,
    plans: "dict | None" = None,
) -> Trajectory:
    """March the integral equation over the mesh windows by Jacobi sweeps.

    Within each window [a, b] the unknowns are the fields at the window's
    quadrature nodes and at b.  Each sweep recomputes every unknown from the
    free term S(tau - a) u(a) plus the graded quadrature of
    S_gamma(tau - sigma) g(u(sigma)).  The source is evaluated at the
    knots only, the window start and the unknowns, and interpolated
    linearly in time between them (product integration: Brunner,
    Collocation Methods for Volterra Integral and Related Functional
    Equations, 2004).  So a sweep passes the K - 1 unknowns through the
    nonlinearity once, as one stack (the window start's source is computed
    once per window), and one batched propagator call mixes the quadrature
    rows from the K knot sources and returns the per-target quadrature
    sums; it transforms the K knot sources, not the rows.
    Interpolating the source instead of the field changes the result by
    about eps_fp, not its accuracy: both rules are first order between the
    knots.  The lags and weights of that call, the free term's times and
    the interpolation depend only on the window's length (they are
    shift-invariant in time), so _window_plan builds them once per distinct window length, from that
    length alone, in window-relative time (with config.nodes_per_window
    nodes per rule), and every window of that length and each of its
    sweeps reuses them.  A window's sweeps start from its free term plus
    its Duhamel part (the converged state minus the free term) as
    extrapolated linearly from the last two windows of the same length: as
    it is, after one such window; not at all, from the free term alone,
    after none.  The extrapolation restarts when the window length changes
    and at each call, and holds two state-sized arrays.  The sweeps write
    the knots' sources and the residual's difference into arrays allocated
    once per call, and again only when a plan's knot count changes.  Sweeps
    stop when the largest nodewise update falls below config.eps_fp; the
    window's contraction then bounds the stopped iterate's distance to the
    fixed point, which may lie on either side of it.  A window that needs
    more than _MAX_PICARD_SWEEPS sweeps raises ConvergenceError.

    The trajectory keeps u0 and the field at each boundary in mesh.records.
    Fields stay non-negative throughout; values are clipped at 0 before the
    nonlinearity only to absorb FFT rounding dust.  params.n_dim must be the
    grid's (ParameterError otherwise, before any plan).

    propagator (on u0's grid) and plans (window plans keyed by window
    length, gamma and config.nodes_per_window) let successive calls on one
    grid share their plans, as the levels of monotone_solve do; a call
    builds its own plan for a key it does not find.  By default the call
    makes its own propagator and plans.  u0 must be exactly
    mirror-symmetric in every axis (ParameterError otherwise, before any
    plan): the call marches on the positive orthant (the fields, the
    weight and the sweep's arrays hold (M/2,)^N values), and each recorded
    snapshot is mirrored back onto the full grid.  A call first drops the
    plans of keys its own windows lack; the plans hold kernels only.  The
    diagnostics' window_plans counts the plans the call built.
    """
    grid = u0.grid
    _check_data(u0)
    if params.n_dim != grid.n_dim:
        raise ParameterError(
            f"params.n_dim = {params.n_dim} differs from the grid's dimension {grid.n_dim}"
        )
    prop = HeatPropagator(grid) if propagator is None else propagator
    if prop.grid != grid:
        raise ParameterError("the propagator belongs to another grid")
    plans = {} if plans is None else plans
    gam = params.gamma
    # a plan is keyed by all it depends on; lengths that agree to rounding
    # noise share one
    keys = [
        (float(f"{b - a:.12e}"), gam, config.nodes_per_window)
        for a, b in zip(mesh.boundaries, mesh.boundaries[1:])
    ]
    for key in set(plans) - set(keys):
        del plans[key]
    times_out = [0.0]
    snaps_out = [GridFunction(grid, u0.values)]
    u_left = np.array(orthant(u0.values), dtype=float)
    total_sweeps = 0
    worst_resid = 0.0
    built = 0
    # the sweep's arrays, allocated once per knot count of the plans: the
    # knots' weighted sources and the residual's difference, which also
    # holds the clipped fields on their way into the nonlinearity
    knots = diff = None
    weight = prop.weight_values(gam)
    # the Duhamel parts (converged state - free term) of the last two windows
    # of the current length, older first, whose linear extrapolation starts
    # the next window's sweeps: at most two arrays of the state's size,
    # nodes_per_window + 1 fields (2 x 663 kB on the orthant of the 2D
    # M=192 grid, 2 x 2.4 MB on that of the 3D M=64 one)
    duhamel: list[np.ndarray] = []

    def source(fields, out, scratch):
        # |x|^{-gamma} g(max(fields, 0)) into out; the max drops FFT rounding dust
        nonlinearity(np.maximum(fields, 0.0, out=scratch), out=out)
        out *= weight

    for widx, key in enumerate(keys):
        a = mesh.boundaries[widx]
        b = mesh.boundaries[widx + 1]
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _window_plan(prop, b - a, gam, config.nodes_per_window)
            built += 1
        free_op, sweep = plan
        count = sweep.mix.shape[1]  # the window start and the targets
        if knots is None or knots.shape[0] != count:
            knots = np.empty((count,) + prop.shape)
            diff = np.empty((count - 1,) + prop.shape)
        if widx and key != keys[widx - 1]:
            duhamel.clear()
        free = prop.apply_heat_values(u_left[None], free_op)
        if not duhamel:
            state = free
        elif len(duhamel) == 1:
            state = free + duhamel[0]
        else:
            state = np.multiply(duhamel[1], 2.0)
            state -= duhamel[0]
            state += free
        source(u_left, knots[0], diff[0])
        converged = False
        resid = math.inf
        for _ in range(_MAX_PICARD_SWEEPS):
            source(state, knots[1:], diff)
            new_state = prop.apply_heat_values(knots, sweep)
            new_state += free
            resid = float(np.max(np.abs(np.subtract(new_state, state, out=diff), out=diff)))
            state = new_state
            total_sweeps += 1
            if resid <= config.eps_fp:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"Picard window [{a:.6g}, {b:.6g}] stalled at residual {resid:.3g} "
                f"after {_MAX_PICARD_SWEEPS} sweeps (eps_fp = {config.eps_fp})"
            )
        worst_resid = max(worst_resid, resid)
        if len(duhamel) == 2:
            np.subtract(state, free, out=duhamel[0])
            duhamel.reverse()
        else:
            duhamel.append(state - free)
        u_left = state[-1].copy()
        if b in mesh.records:
            times_out.append(b)
            snaps_out.append(GridFunction(grid, mirrored(u_left)))
    diag = {
        "windows": mesh.window_count,
        "window_plans": built,
        "total_sweeps": total_sweeps,
        "max_residual": worst_resid,
        "nonlinearity": nonlinearity.kind,
        "n": nonlinearity.n,
    }
    return Trajectory(
        grid=grid,
        params=params,
        times=tuple(times_out),
        snapshots=tuple(snaps_out),
        diagnostics=diag,
    )


def monotone_solve(
    u0: GridFunction,
    params: Params,
    t_end: float,
    config: SolveConfig = SolveConfig(),
    record_times: Sequence[float] = (),
) -> Trajectory:
    """Run the regularized scheme along the n-schedule and return the last run.

    Each level keeps snapshots at t = 0, at the record times and at t_end,
    which every level's TimeMesh anchors as boundaries.  For each n the data
    is shifted up by 1/n and the source replaced by g_n; successive runs
    must decrease pointwise at every recorded time, up to a fixed 1e-8
    rounding slack (violation raises ConvergenceError).  The diagnostics
    carry the inter-level sup gaps and, under levels, one entry per level
    run: its n, windows, sweeps and max_residual; the top-level windows,
    total_sweeps and max_residual are the last level's.

    Every level marches on one propagator and one dict of window plans, so
    a window length that recurs from level to level is planned once and
    all levels work in one scratch buffer; the diagnostics' window_plans
    counts the plans of the whole ladder.  The ladder marches on the
    positive orthant, so u0 must be exactly mirror-symmetric in every axis
    (ParameterError otherwise, before any plan; every shifted level then is
    too); the snapshots, the gaps and the violation are taken on the full
    grid.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ParameterError(f"t_end must be positive (got {t_end})")
    _check_data(u0)  # before the shift by 1/n, which could round an asymmetry away
    e1 = constants.eta1(params.gamma, params.n_dim)
    prev_snaps: "list[np.ndarray] | None" = None
    last_traj: "Trajectory | None" = None
    gaps: list[float] = []
    worst_violation = 0.0
    prop = HeatPropagator(u0.grid)
    plans: dict[tuple, tuple] = {}
    built = 0
    levels: list[dict] = []
    for n in config.n_schedule:
        nl = Nonlinearity.regularized(params.q, n)
        w_len = min(
            config.window_cap,
            contraction_window(params.gamma, nl.lipschitz, e1, config.contraction_theta),
        )
        mesh = TimeMesh.build(t_end, w_len, must_include=record_times)
        shifted = GridFunction(u0.grid, u0.values + 1.0 / n)
        traj = picard_solve(shifted, nl, params, mesh, config, propagator=prop, plans=plans)
        built += traj.diagnostics["window_plans"]
        levels.append(
            {
                "n": n,
                "windows": traj.diagnostics["windows"],
                "sweeps": traj.diagnostics["total_sweeps"],
                "max_residual": traj.diagnostics["max_residual"],
            }
        )
        cur_snaps = [s.values for s in traj.snapshots]
        if prev_snaps is not None:
            viol = max(
                float(np.max(cur - prev)) for cur, prev in zip(cur_snaps, prev_snaps)
            )
            worst_violation = max(worst_violation, viol)
            if viol > 1e-8:
                raise ConvergenceError(
                    f"regularized solutions failed to decrease between levels "
                    f"(n = {n}): worst pointwise increase {viol:.3g} > 1e-8"
                )
            gaps.append(
                max(float(np.max(np.abs(prev - cur))) for cur, prev in zip(cur_snaps, prev_snaps))
            )
        prev_snaps = cur_snaps
        last_traj = traj
        if gaps and gaps[-1] < config.eps_fp:
            break
    assert last_traj is not None
    last_traj.diagnostics.update(
        {
            "n_used": list(config.n_schedule[: len(gaps) + 1]),
            "inter_level_gaps": gaps,
            "monotone_violation": worst_violation,
            "window_plans": built,
            "levels": levels,
        }
    )
    return last_traj
