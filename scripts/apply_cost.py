#!/usr/bin/env python3
"""Cost of one heat-operator apply, for the operators the solver and checks run.

Builds each operator as its caller does and prints the median wall time of
one apply (HeatPropagator.apply_heat_values) over --repeats applies, after
one untimed apply:

- the Picard sweep and the free term of the `ladder-exact` benchmark's first
  level (1D, M = 256, L = 12, windows of 1/32);
- the sweep of the default 1D solve (M = 1024) and of the default 2D one
  (M = 192), each on the window of its ladder's last level;
- check_subsolution's streaming apply in 2D (the subsolution-2d check: the
  32-node rule at t = 1, one weighted sum, no mix), fed by a producer that
  copies each batch's rows.

The sweeps and free terms take random stacks of their inputs' shape.  Only
the apply is timed, not the producer's or caller's own work.

    python scripts/apply_cost.py --repeats 2000
"""

import argparse
import statistics
import time

import numpy as np

from singheat import (
    HeatPropagator,
    SolveConfig,
    TimeMesh,
    contraction_window,
    duhamel_rule,
    eta1,
    make_grid,
)
from singheat.scheme import Nonlinearity, _window_plan

_Q, _GAMMA = 0.5, 0.3  # the solve command's defaults


def _last_level_window(n_dim: int) -> float:
    """The window length of the default solve's last ladder level, as
    monotone_solve sizes it."""
    config = SolveConfig()
    lipschitz = Nonlinearity.regularized(_Q, config.n_schedule[-1]).lipschitz
    cap = contraction_window(_GAMMA, lipschitz, eta1(_GAMMA, n_dim), config.contraction_theta)
    mesh = TimeMesh.build(1.0, min(config.window_cap, cap))
    return mesh.boundaries[1] - mesh.boundaries[0]


def _cases():
    """(name, propagator, operator, values) of each timed apply."""
    rng = np.random.default_rng(0)
    nodes = SolveConfig().nodes_per_window
    prop = HeatPropagator(make_grid(1, 12.0, 256))
    free, sweep = _window_plan(prop, 0.03125, nodes)
    knots = rng.uniform(0.0, 1.0, (sweep.mix.shape[1],) + prop.shape)
    yield "ladder-exact sweep (1D, M = 256)", prop, sweep, knots
    yield "ladder-exact free term (1D, M = 256)", prop, free, knots[:1]
    for n_dim, points in ((1, 1024), (2, 192)):
        prop = HeatPropagator(make_grid(n_dim, 12.0, points))
        _, sweep = _window_plan(prop, _last_level_window(n_dim), nodes)
        knots = rng.uniform(0.0, 1.0, (sweep.mix.shape[1],) + prop.shape)
        yield f"default sweep ({n_dim}D, M = {points})", prop, sweep, knots
    prop = HeatPropagator(make_grid(2, 10.0, 192))
    sigs, wts = duhamel_rule(0.0, 1.0, 2.0 / (2.0 - 0.5), 32)
    op = prop.prepare(1.0 - sigs, wts[None])
    rows = rng.uniform(0.0, 1.0, (sigs.size,) + prop.shape)

    def fill(lo, hi, out):
        out[...] = rows[lo:hi]

    yield "subsolution-2d streaming (2D, M = 192)", prop, op, fill


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=2000, help="timed applies per operator")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    print(f"{'operator':<40} {'J':>3} {'K':>3} {'T':>3} {'Q':>4} {'median us':>10}")
    for name, prop, op, values in _cases():
        prop.apply_heat_values(values, op)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter_ns()
            prop.apply_heat_values(values, op)
            times.append(time.perf_counter_ns() - start)
        rows = op._shape[0]
        targets = rows if op.weights is None else op.weights.shape[0]
        print(
            f"{name:<40} {rows:>3} {op._inputs:>3} {targets:>3} {op._q:>4} "
            f"{statistics.median(times) / 1e3:>10.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
