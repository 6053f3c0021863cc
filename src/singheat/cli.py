"""Command-line front end.

Subcommands: ``constants`` (scalar constants as JSON), ``gamma-star`` (the
threshold crossing), ``solve`` (march one problem, write CSV + JSON sidecar),
``verify`` (run named checks, exit 0 only if all pass), ``sweep`` (constants
along a parameter segment).

Option precedence is built-in defaults, then a JSON config file (--config),
then explicit flags.  Outputs are written atomically (temp file + rename)
and are byte-identical across reruns of the same configuration.  Exit codes:
0 success / all checks pass, 1 check failures, 2 usage errors, 3 runtime
failures (reported as one structured line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import constants as const_mod
from .errors import ConvergenceError, ParameterError, SeriesRangeError, TruncationError
from .fields import DEFAULT_POINTS, Params, make_grid, standard_data
from .scheme import SolveConfig, monotone_solve
from .verify import default_suite, run_suite

__all__ = ["RunConfig", "main", "parse_config", "run"]

_DEFAULTS: dict = {
    "q": 0.5,
    "gamma": 0.3,
    "dim": 1,
    "half_width": 12.0,
    "points": None,  # DEFAULT_POINTS of the dimension
    "t_end": 1.0,
    "n_schedule": "1,2,4,8,16,32,64",
    "eps_fp": 1e-8,
    "nodes_per_window": 8,
    "window_cap": 0.25,
    "u0": "bump",
    "record": None,
    "jobs": None,
}

_DATA_NAMES = ("zero", "const", "bump", "gauss", "step")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command plus every numeric knob."""

    command: str
    q: float
    gamma: float
    dim: int
    half_width: float
    points: int
    t_end: float
    n_schedule: tuple[int, ...]
    eps_fp: float
    nodes_per_window: int
    window_cap: float
    u0: str
    record: "tuple[float, ...] | None"
    out: "str | None"
    json_path: "str | None"
    suite: "tuple[str, ...] | None"
    param: "str | None"
    start: "float | None"
    stop: "float | None"
    count: "int | None"
    jobs: int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singheat",
        description="solver and checks for the singular-weight sublinear heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--q", type=float, help="source exponent in (0, 1)")
        p.add_argument("--gamma", type=float, help="weight strength in [0, min(2, dim))")
        p.add_argument("--dim", type=int, help="space dimension (1, 2 or 3)")
        p.add_argument("--half-width", dest="half_width", type=float, help="box half width L")
        p.add_argument("--points", type=int,
                       help="grid points per axis, even (default 1024, 192, 64 in 1D, 2D, 3D)")
        p.add_argument("--t-end", dest="t_end", type=float, help="final time")
        p.add_argument("--n-schedule", dest="n_schedule", help="comma list of regularization levels")
        p.add_argument("--eps-fp", dest="eps_fp", type=float, help="fixed-point stopping tolerance")
        p.add_argument("--nodes-per-window", dest="nodes_per_window", type=int,
                       help="quadrature nodes per time window")
        p.add_argument("--window-cap", dest="window_cap", type=float,
                       help="upper bound on the Picard window length")
        p.add_argument("--jobs", type=int,
                       help="verify's parallel workers (default: SINGHEAT_JOBS or CPU count)")

    p_const = sub.add_parser("constants", help="scalar constants for one parameter triple")
    common(p_const)
    p_const.add_argument("--json", dest="json_path", help="write the report here instead of stdout")

    p_gs = sub.add_parser("gamma-star", help="threshold gamma where the contraction factor hits 1")
    common(p_gs)
    p_gs.add_argument("--json", dest="json_path", help="write the result here as JSON")

    p_solve = sub.add_parser("solve", help="march one problem and write the trajectory")
    common(p_solve)
    p_solve.add_argument("--u0", help="initial data: zero | const:c | bump[:R] | gauss:a | step")
    p_solve.add_argument("--record", help="comma list of snapshot times (default: t_end)")
    p_solve.add_argument("--out", required=True, help="CSV output path (JSON sidecar alongside)")

    p_verify = sub.add_parser("verify", help="run checks; exit 0 only if all pass")
    common(p_verify)
    p_verify.add_argument("--suite", default="all",
                          help="'all' or comma list of check names")
    p_verify.add_argument("--json", dest="json_path", help="write the report array here")

    p_sweep = sub.add_parser("sweep", help="constants along a parameter segment")
    common(p_sweep)
    p_sweep.add_argument("--param", choices=("gamma", "q"), help="which parameter to sweep")
    p_sweep.add_argument("--start", type=float, help="first value")
    p_sweep.add_argument("--stop", type=float, help="last value")
    p_sweep.add_argument("--count", type=int, help="number of points (>= 2)")
    p_sweep.add_argument("--json", dest="json_path", help="write the record list here")
    return parser


def _parse_schedule(text: str, fail) -> tuple[int, ...]:
    try:
        sched = tuple(int(s) for s in str(text).split(",") if s.strip())
    except ValueError:
        fail(f"n_schedule: could not parse {text!r} as a comma list of integers")
    if not sched or any(n < 1 for n in sched) or any(b <= a for a, b in zip(sched, sched[1:])):
        fail(f"n_schedule: must be strictly increasing positive integers (got {text!r})")
    return sched


def _parse_record(text, fail) -> "tuple[float, ...] | None":
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        vals = tuple(float(x) for x in text)
    else:
        try:
            vals = tuple(float(s) for s in str(text).split(",") if s.strip())
        except ValueError:
            fail(f"record: could not parse {text!r} as a comma list of times")
    if not vals or any(t <= 0 for t in vals):
        fail(f"record: times must be positive (got {text!r})")
    return tuple(sorted(set(vals)))


def parse_config(argv: "Sequence[str] | None" = None) -> RunConfig:
    """Parse argv into a RunConfig.

    Precedence: built-in defaults, then the --config JSON file, then explicit
    flags.  Invalid values exit with a usage error naming the offending key.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    fail = parser.error  # prints usage and exits 2

    merged = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            loaded = json.loads(Path(cfg_path).read_text())
        except OSError as exc:
            fail(f"config: cannot read {cfg_path}: {exc}")
        except json.JSONDecodeError as exc:
            fail(f"config: {cfg_path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            fail(f"config: {cfg_path} must hold a JSON object")
        for key, val in loaded.items():
            if key not in _DEFAULTS:
                fail(f"config: unknown key {key!r} in {cfg_path}")
            merged[key] = val
    for key in _DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val

    q = float(merged["q"])
    gamma = float(merged["gamma"])
    dim = int(merged["dim"])
    if dim not in (1, 2, 3):
        fail(f"dim: must be 1, 2 or 3 (got {merged['dim']})")
    if not (0.0 < q < 1.0):
        fail(f"q: must lie in (0, 1) (got {merged['q']})")
    if not (0.0 <= gamma < min(2, dim)):
        fail(f"gamma: must lie in [0, {min(2, dim)}) for dim={dim} (got {merged['gamma']})")
    half_width = float(merged["half_width"])
    if not (half_width > 0.0 and math.isfinite(half_width)):
        fail(f"half_width: must be positive (got {merged['half_width']})")
    points = DEFAULT_POINTS[dim] if merged["points"] is None else int(merged["points"])
    if points < 2 or points % 2:
        fail(f"points: must be an even integer >= 2 (got {merged['points']})")
    t_end = float(merged["t_end"])
    if not (t_end > 0.0 and math.isfinite(t_end)):
        fail(f"t_end: must be positive (got {merged['t_end']})")
    schedule = _parse_schedule(merged["n_schedule"], fail)
    eps_fp = float(merged["eps_fp"])
    if not (0.0 < eps_fp < 1.0):
        fail(f"eps_fp: must lie in (0, 1) (got {merged['eps_fp']})")
    npw = int(merged["nodes_per_window"])
    if npw < 2:
        fail(f"nodes_per_window: must be >= 2 (got {merged['nodes_per_window']})")
    wcap = float(merged["window_cap"])
    if not (wcap > 0.0):
        fail(f"window_cap: must be positive (got {merged['window_cap']})")
    u0 = str(merged["u0"])
    if u0.partition(":")[0] not in _DATA_NAMES:
        fail(f"u0: unknown data spec {u0!r} (expect one of {', '.join(_DATA_NAMES)})")
    record = _parse_record(merged["record"], fail)
    if record is not None and any(t > t_end * (1 + 1e-9) for t in record):
        fail(f"record: times must not exceed t_end = {t_end}")

    jobs_val = merged["jobs"]
    if jobs_val is None:
        jobs_val = os.environ.get("SINGHEAT_JOBS")
    jobs = int(jobs_val) if jobs_val is not None else (os.cpu_count() or 1)
    if jobs < 1:
        fail(f"jobs: must be >= 1 (got {jobs})")

    suite = None
    if getattr(args, "suite", None) and args.suite != "all":
        suite = tuple(s.strip() for s in args.suite.split(",") if s.strip())
        unknown = [s for s in suite if s not in default_suite()]
        if unknown:
            fail(f"suite: unknown check name(s) {unknown}; "
                 f"available: {', '.join(sorted(default_suite()))}")

    if args.command == "sweep":
        if getattr(args, "param", None) is None:
            fail("sweep requires --param")
        for key in ("start", "stop", "count"):
            if getattr(args, key, None) is None:
                fail(f"sweep requires --{key}")
        if args.count < 2:
            fail(f"count: must be >= 2 (got {args.count})")

    return RunConfig(
        command=args.command,
        q=q,
        gamma=gamma,
        dim=dim,
        half_width=half_width,
        points=points,
        t_end=t_end,
        n_schedule=schedule,
        eps_fp=eps_fp,
        nodes_per_window=npw,
        window_cap=wcap,
        u0=u0,
        record=record,
        out=getattr(args, "out", None),
        json_path=getattr(args, "json_path", None),
        suite=suite,
        param=getattr(args, "param", None),
        start=getattr(args, "start", None),
        stop=getattr(args, "stop", None),
        count=getattr(args, "count", None),
        jobs=jobs,
    )


def _atomic_write_text(path: str, text: str) -> None:
    p = Path(path)
    if p.parent and not p.parent.exists():
        raise ParameterError(f"output directory {p.parent} does not exist")
    tmp = p.with_name(p.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, p)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sidecar_path(out: str) -> str:
    p = Path(out)
    return str(p.with_suffix(".json")) if p.suffix == ".csv" else out + ".json"


def _emit(text: str, json_path: "str | None") -> None:
    if json_path:
        _atomic_write_text(json_path, text)
    else:
        sys.stdout.write(text)


def run(cfg: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    if cfg.command == "constants":
        report = const_mod.constants_report(Params(q=cfg.q, gamma=cfg.gamma, n_dim=cfg.dim))
        _emit(_dump_json(report.as_json_dict()), cfg.json_path)
        return 0

    if cfg.command == "gamma-star":
        res = const_mod.gamma_star(cfg.q, cfg.dim)
        line = (
            f"gamma_star={res.value!r} lambda_at_root={res.lambda_value!r} "
            f"crossed={res.crossed}\n"
        )
        sys.stdout.write(line)
        if cfg.json_path:
            _atomic_write_text(
                cfg.json_path,
                _dump_json(
                    {
                        "q": cfg.q,
                        "n_dim": cfg.dim,
                        "gamma_star": res.value,
                        "lambda_at_root": res.lambda_value,
                        "crossed": res.crossed,
                    }
                ),
            )
        return 0

    if cfg.command == "solve":
        grid = make_grid(cfg.dim, cfg.half_width, cfg.points)
        params = Params(q=cfg.q, gamma=cfg.gamma, n_dim=cfg.dim)
        u0 = standard_data(grid, cfg.u0)
        solve_cfg = SolveConfig(
            eps_fp=cfg.eps_fp,
            nodes_per_window=cfg.nodes_per_window,
            n_schedule=cfg.n_schedule,
            window_cap=cfg.window_cap,
        )
        records = cfg.record if cfg.record is not None else (cfg.t_end,)
        traj = monotone_solve(u0, params, cfg.t_end, solve_cfg, record_times=records)
        _atomic_write_text(cfg.out, traj.to_csv_text())
        meta = traj.metadata()
        meta["data"] = cfg.u0
        meta["n_schedule"] = list(cfg.n_schedule)
        _atomic_write_text(_sidecar_path(cfg.out), _dump_json(meta))
        sys.stdout.write(
            f"wrote {cfg.out} ({len(traj.times)} snapshots x {grid.node_count} nodes) "
            f"and {_sidecar_path(cfg.out)}\n"
        )
        return 0

    if cfg.command == "verify":
        reports = run_suite(cfg.suite, jobs=cfg.jobs)
        for rep in reports:
            sys.stdout.write(rep.summary_line() + "\n")
        if cfg.json_path:
            _atomic_write_text(
                cfg.json_path, _dump_json([rep.as_json_dict() for rep in reports])
            )
        return 0 if all(rep.passed for rep in reports) else 1

    if cfg.command == "sweep":
        values = np.linspace(cfg.start, cfg.stop, cfg.count)
        if cfg.param == "gamma":
            if not (0.0 <= cfg.start and cfg.stop < min(2, cfg.dim)):
                raise ParameterError(
                    f"gamma sweep range [{cfg.start}, {cfg.stop}] leaves [0, {min(2, cfg.dim)})"
                )
            triples = [(cfg.q, float(g), cfg.dim) for g in values]
        else:
            if not (0.0 < cfg.start and cfg.stop < 1.0):
                raise ParameterError(f"q sweep range [{cfg.start}, {cfg.stop}] leaves (0, 1)")
            triples = [(float(qq), cfg.gamma, cfg.dim) for qq in values]

        records = [
            const_mod.constants_report(Params(q=q, gamma=g, n_dim=n)).as_json_dict()
            for q, g, n in triples
        ]
        payload = {
            "param": cfg.param,
            "values": [float(v) for v in values],
            "records": records,
        }
        _emit(_dump_json(payload), cfg.json_path)
        return 0

    raise ParameterError(f"unknown command {cfg.command!r}")


def main(argv: "Sequence[str] | None" = None) -> int:
    cfg = parse_config(argv)
    try:
        return run(cfg)
    except (
        ParameterError, TruncationError, ConvergenceError, SeriesRangeError, MemoryError
    ) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
