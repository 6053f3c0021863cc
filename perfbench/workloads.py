"""The two benchmark workloads and the checks of their outputs.

Each workload is one ``singheat`` CLI command.  The solve is pinned by
explicit flags, so a later change of a CLI default does not change what is
measured; ``verify`` runs the light checks of its default suite on the
default thread pool, with no ``--jobs`` flag.

Every output is checked against references computed here, not by the solver:
the explicit barrier w of the paper (with its constant eta0 from an
independent quadrature) and the exact solutions of the zero-data gamma = 0
problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Bands for ladder-exact.  Measured at the seed commit: 4.2e-7 and 2.93e-3;
# the second is the ladder's bias 1/n + t/sqrt(n) at n = 1024, t = 1/16.
LEVEL_ERR_BAND = 2e-6
MAX_ERR_BAND = 3.5e-3
MONOTONE_SLACK = 1e-8  # the ladder's own stated rounding slack
TRUST_PAD = 5.0  # trusted nodes: max_i |x_i| <= L - TRUST_PAD * sqrt(t)


@dataclass(frozen=True)
class Solve:
    """One ``singheat solve`` problem."""

    dim: int
    q: float
    gamma: float
    half_width: float
    points: int
    t_end: float
    n_schedule: tuple
    u0: str
    record: "tuple | None" = None
    eps_fp: float = 1e-8

    def argv(self, out: str) -> list:
        argv = [
            "solve", "--dim", str(self.dim), "--q", repr(self.q), "--gamma", repr(self.gamma),
            "--half-width", repr(self.half_width), "--points", str(self.points),
            "--t-end", repr(self.t_end), "--n-schedule", ",".join(map(str, self.n_schedule)),
            "--u0", self.u0, "--eps-fp", repr(self.eps_fp), "--out", out,
        ]
        if self.record is not None:
            argv += ["--record", ",".join(map(repr, self.record))]
        return argv

    @property
    def record_times(self) -> tuple:
        return self.record if self.record is not None else (self.t_end,)


# The verify workload's checks: every check of the default suite except the
# three ladder checks (lower-bound, comparison, uniqueness), which take 5-9 s
# each and solve problems like the one ladder-exact times.
VERIFY_SUITE = (
    "gronwall-exp", "gronwall-singular", "gronwall-zero", "heaviside", "lambda-limit",
    "max-at-origin", "smoothing", "subsolution", "subsolution-2d",
)

# Each command takes 1-2 s on a 2-core machine, so a run repeats it about ten
# times and reports medians.  Two workloads only: on a shared host whose speed
# drifts over minutes, every workload is one more chance for a set of runs of
# the same code to spread past the bound (see README.md for the two dropped).
WORKLOADS = {
    # the deep ladder (11 levels, FFT path) with an exact reference: time to a
    # stated accuracy
    "ladder-exact": Solve(1, 0.5, 0.0, 12.0, 256, 0.0625, tuple(2**k for k in range(11)), "zero",
                          record=(0.03125, 0.0625)),
    # the light checks of the default suite on its default thread pool
    "verify": None,
}


def command(name: str, workdir: str) -> list:
    """CLI argv of a workload, writing its outputs under ``workdir``."""
    wl = WORKLOADS[name]
    if wl is None:
        return ["verify", "--suite", ",".join(VERIFY_SUITE),
                "--json", str(Path(workdir) / "report.json")]
    return wl.argv(str(Path(workdir) / "out.csv"))


def build_inputs(name: str):
    """The set-up part of a workload: its grid, data and weight field."""
    wl = WORKLOADS[name]
    if wl is None:
        return None
    from singheat.fields import make_grid, standard_data, weight_field

    grid = make_grid(wl.dim, wl.half_width, wl.points)
    return grid, standard_data(grid, wl.u0), weight_field(grid, wl.gamma)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def eta0(q: float, gamma: float, n_dim: int) -> float:
    """(4 pi)^{-N/2} * integral over R^N of exp(-|z|^2/4) (1+|z|)^{-gamma/(1-q)} dz."""
    from scipy.integrate import quad

    s = gamma / (1.0 - q)
    radial, _ = quad(lambda r: math.exp(-0.25 * r * r) * (1.0 + r) ** (-s) * r ** (n_dim - 1),
                     0.0, math.inf, epsabs=1e-13, epsrel=1e-12)
    sphere = 2.0 * math.pi ** (0.5 * n_dim) / math.gamma(0.5 * n_dim)
    return (4.0 * math.pi) ** (-0.5 * n_dim) * sphere * radial


def barrier(wl: Solve, radius, t: float):
    """The explicit sub-solution w(x, t) = lam t^{1/(1-q)} (|x| + sqrt t)^{-gamma/(1-q)}."""
    lam = ((1.0 - wl.q) * eta0(wl.q, wl.gamma, wl.dim)) ** (1.0 / (1.0 - wl.q))
    return lam * t ** (1.0 / (1.0 - wl.q)) * (radius + math.sqrt(t)) ** (-wl.gamma / (1.0 - wl.q))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_outputs(name: str, workdir: str, rc) -> dict:
    """Check one command's outputs.

    Returns ``attempted`` and ``failed`` operation counts (one solve, or one
    per suite check), the failure reasons, and for ladder-exact the two
    errors.  A failure is counted, never retried.
    """
    wl = WORKLOADS[name]
    if wl is None:
        return _check_verify(Path(workdir) / "report.json", rc)
    problems = [] if rc == 0 else [f"command exit status {rc!r}"]
    extra = {}
    if not problems:
        try:
            extra = _check_ladder(wl, Path(workdir) / "out.csv", problems)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems, **extra}


def _check_verify(path: Path, rc) -> dict:
    try:
        reports = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return {"attempted": 1, "failed": 1,
                "problems": [f"no report (exit status {rc!r}): {exc}"]}
    problems = [f"check failed: {r.get('name')}" for r in reports if not r.get("passed")]
    failed = len(problems)
    if rc != 0 and not failed:
        problems.append(f"command exit status {rc!r} with every check passing")
        failed = 1
    return {"attempted": max(len(reports), 1), "failed": failed, "problems": problems}


def _check_ladder(wl: Solve, csv: Path, problems: list) -> dict:
    """Check a zero-data, gamma = 0 solve: each level solves u' = u^q from
    1/n, so its level and maximal solutions are known exactly."""
    import numpy as np

    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    side = json.loads(csv.with_suffix(".json").read_text())
    diag = side.get("diagnostics", {})
    if not diag.get("max_residual", math.inf) <= wl.eps_fp:
        problems.append(f"max_residual {diag.get('max_residual')!r} > eps_fp {wl.eps_fp}")
    if not diag.get("monotone_violation", math.inf) <= MONOTONE_SLACK:
        problems.append(f"monotone_violation {diag.get('monotone_violation')!r} > {MONOTONE_SLACK}")

    nodes = wl.points**wl.dim
    n = wl.n_schedule[-1]
    e = 1.0 - wl.q
    level_err = max_err = 0.0
    for t in wl.record_times:
        rows = table[np.abs(table[:, 0] - t) <= 1e-9 * max(1.0, t)]
        if rows.shape[0] != nodes:
            problems.append(f"t={t}: {rows.shape[0]} rows, expected {nodes}")
            continue
        x = rows[:, 2:2 + wl.dim]
        u = rows[:, -1]
        if not (np.all(np.isfinite(u)) and float(u.min()) >= 0.0):
            problems.append(f"t={t}: values not finite and non-negative")
            continue
        trusted = np.max(np.abs(x), axis=1) <= wl.half_width - TRUST_PAD * math.sqrt(t)
        w = barrier(wl, np.sqrt(np.sum(x * x, axis=1)), t)
        margin = float(np.min((u - w)[trusted]))
        if margin < 0.0:
            problems.append(f"t={t}: barrier not dominated, margin {margin:.3g}")
        level = (n ** (-e) + e * t) ** (1.0 / e)
        maximal = (e * t) ** (1.0 / e)
        level_err = max(level_err, float(np.max(np.abs(u - level)[trusted])))
        max_err = max(max_err, float(np.max(np.abs(u - maximal)[trusted])))
    if not level_err <= LEVEL_ERR_BAND:
        problems.append(f"level_err {level_err:.3g} > {LEVEL_ERR_BAND}")
    if not max_err <= MAX_ERR_BAND:
        problems.append(f"max_err {max_err:.3g} > {MAX_ERR_BAND}")
    return {"level_err": level_err, "max_err": max_err}
