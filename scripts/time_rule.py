#!/usr/bin/env python3
"""Time-rule error of one solve: 4 and 8 nodes per window against 16.

Runs the `solve` command's ladder (monotone_solve) on one problem at 4, 8
and 16 quadrature nodes per window, everything else at the scheme's
defaults, and prints the sup distance at t_end of the 4- and 8-node fields
to the 16-node one: over all nodes, and over the trusted nodes the
pointwise checks keep (max_i |x_i| <= L - 5 sqrt(t_end)).  Each line gives
the solve's wall time and its Picard sweeps over the whole ladder.  The
distance isolates the error of the window rule, the time-rule component
of a solve's error; the grid's and the ladder's are the same in all three.

    python scripts/time_rule.py --dim 2 --n-schedule 1,2,4,8
"""

import argparse
import sys
import time

import numpy as np

from singheat import (
    ConvergenceError,
    ParameterError,
    Params,
    SolveConfig,
    TruncationError,
    make_grid,
    monotone_solve,
    standard_data,
)
from singheat.fields import DEFAULT_POINTS
from singheat.verify import _trusted_mask

_NODES = (4, 8)
_REFERENCE = 16


def solve(u0, params, t_end, schedule, nodes):
    """The field at t_end, the wall time and the ladder's sweeps."""
    cfg = SolveConfig(n_schedule=schedule, nodes_per_window=nodes)
    start = time.perf_counter()
    traj = monotone_solve(u0, params, t_end, cfg)
    wall = time.perf_counter() - start
    sweeps = sum(level["sweeps"] for level in traj.diagnostics["levels"])
    return traj.snapshot_at(t_end).values, wall, sweeps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    ap.add_argument("--points", type=int, help="points per axis (default: solve's)")
    ap.add_argument("--half-width", type=float, default=12.0)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--gamma", type=float, default=0.3)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument(
        "--n-schedule",
        default=",".join(map(str, SolveConfig.n_schedule)),
        help="comma list of regularization levels (default: solve's)",
    )
    ap.add_argument("--u0", default="bump", help="initial data spec (default: bump)")
    args = ap.parse_args(argv)
    try:
        schedule = tuple(int(tok) for tok in args.n_schedule.split(","))
    except ValueError:
        ap.error(f"could not parse --n-schedule {args.n_schedule!r}")
    points = args.points if args.points is not None else DEFAULT_POINTS[args.dim]

    try:
        grid = make_grid(args.dim, args.half_width, points)
        params = Params(q=args.q, gamma=args.gamma, n_dim=args.dim)
        u0 = standard_data(grid, args.u0)
        trusted = _trusted_mask(grid, args.t_end)
        runs = {n: solve(u0, params, args.t_end, schedule, n) for n in (_REFERENCE,) + _NODES}
    except (ParameterError, ConvergenceError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(
        f"dim {args.dim}, M = {points}, L = {args.half_width}, q = {args.q}, "
        f"gamma = {args.gamma}, t_end = {args.t_end}, n = {args.n_schedule}, u0 = {args.u0}"
    )
    print(f"{'nodes':>5}  {'sup err, all':>12}  {'sup err, trusted':>16}  {'wall s':>7}  {'sweeps':>6}")
    fine = runs[_REFERENCE][0]
    for nodes in _NODES + (_REFERENCE,):
        values, wall, sweeps = runs[nodes]
        gap = np.abs(values - fine)
        print(
            f"{nodes:>5}  {float(gap.max()):12.3e}  {float(gap[trusted].max()):16.3e}  "
            f"{wall:7.3f}  {sweeps:>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
