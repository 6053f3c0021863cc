"""Command-line front end.

Subcommands: ``constants`` (scalar constants as JSON), ``gamma-star`` (the
threshold crossing), ``solve`` (march one problem, write CSV + JSON sidecar),
``verify`` (run named checks, exit 0 only if all pass), ``sweep`` (constants
along a parameter segment).

Each subcommand accepts only the options it reads (``_COMMANDS``).  Option
precedence is built-in defaults, then a JSON config file (--config) that may
set those of them, then explicit flags; ``verify``, none of whose options a
file could set, takes no --config.  Every option is checked before any
work starts, by the library object that reads it (Params, the solve's
Grid, SolveConfig and TimeMesh, and standard_data for the data spec; an
output path, by its directory), and a value it rejects is a usage error.
Outputs are written atomically (temp file + rename) and are byte-identical
across reruns of the same configuration.  Exit codes: 0 success / all checks pass, 1 check failures,
2 usage errors, 3 runtime failures (reported as one structured line on
stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from . import constants as const_mod
from .errors import ConvergenceError, ParameterError, SeriesRangeError, TruncationError
from .fields import DEFAULT_POINTS, Grid, Params, make_grid, standard_data
from .scheme import SolveConfig, TimeMesh, monotone_solve
from .verify import default_suite, run_suite

__all__ = ["RunConfig", "main", "parse_config", "run"]

_DEFAULTS: dict = {
    "q": 0.5,
    "gamma": 0.3,
    "dim": 1,
    "half_width": 12.0,
    "points": None,  # DEFAULT_POINTS of the dimension
    "t_end": 1.0,
    "n_schedule": ",".join(map(str, SolveConfig.n_schedule)),
    "eps_fp": SolveConfig.eps_fp,
    "nodes_per_window": SolveConfig.nodes_per_window,
    "window_cap": SolveConfig.window_cap,
    "u0": "bump",
    "record": None,
}
_INTEGERS = ("dim", "points", "nodes_per_window")
# the library's field names that are not their option's
_OPTION_OF = {"n_dim": "dim", "points_per_axis": "points"}

# The options each command reads, after its one-line help.  The parser offers
# a command exactly these, and a --config file that may set those of them that
# have a built-in default, when there are any.
_COMMANDS: dict = {
    "constants": ("scalar constants for one parameter triple", ("q", "gamma", "dim", "json_path")),
    "gamma-star": ("threshold gamma where the contraction factor hits 1",
                   ("q", "dim", "json_path")),
    "solve": ("march one problem and write the trajectory",
              ("q", "gamma", "dim", "half_width", "points", "t_end", "n_schedule", "eps_fp",
               "nodes_per_window", "window_cap", "u0", "record", "out")),
    "verify": ("run checks; exit 0 only if all pass", ("suite", "json_path")),
    "sweep": ("constants along a parameter segment",
              ("q", "gamma", "dim", "param", "start", "stop", "count", "json_path")),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: one command and the options it reads.

    A field the command does not read is None.
    """

    command: str
    q: "float | None" = None
    gamma: "float | None" = None
    dim: "int | None" = None
    half_width: "float | None" = None
    points: "int | None" = None
    t_end: "float | None" = None
    n_schedule: "tuple[int, ...] | None" = None
    eps_fp: "float | None" = None
    nodes_per_window: "int | None" = None
    window_cap: "float | None" = None
    u0: "str | None" = None
    record: "tuple[float, ...] | None" = None
    out: "str | None" = None
    json_path: "str | None" = None
    suite: "tuple[str, ...] | None" = None
    param: "str | None" = None
    start: "float | None" = None
    stop: "float | None" = None
    count: "int | None" = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singheat",
        description="solver and checks for the singular-weight sublinear heat equation",
    )
    # every option: its dest, then its flag and argparse keywords
    options = {
        "q": ("--q", {"type": float, "help": "source exponent in (0, 1)"}),
        "gamma": ("--gamma", {"type": float, "help": "weight strength in [0, min(2, dim))"}),
        "dim": ("--dim", {"type": int, "help": "space dimension (1, 2 or 3)"}),
        "half_width": ("--half-width", {"type": float, "help": "box half width L"}),
        "points": ("--points", {
            "type": int,
            "help": "grid points per axis, even (default "
                    f"{', '.join(map(str, DEFAULT_POINTS.values()))} in 1D, 2D, 3D)"}),
        "t_end": ("--t-end", {"type": float, "help": "final time"}),
        "n_schedule": ("--n-schedule", {"help": "comma list of regularization levels"}),
        "eps_fp": ("--eps-fp", {"type": float, "help": "fixed-point stopping tolerance"}),
        "nodes_per_window": ("--nodes-per-window", {
            "type": int,
            "help": f"quadrature nodes per time window (default {SolveConfig.nodes_per_window})"}),
        "window_cap": ("--window-cap", {
            "type": float, "help": "upper bound on the Picard window length"}),
        "u0": ("--u0", {
            "help": "initial data, all radial: zero | const:c | bump[:R] | gauss:a "
                    "(no step: it is not in C_0)"}),
        "record": ("--record", {"help": "comma list of snapshot times besides t_end"}),
        "out": ("--out", {"required": True, "help": "CSV output path (JSON sidecar alongside)"}),
        "suite": ("--suite", {"default": "all", "help": "'all' or comma list of check names"}),
        "param": ("--param", {
            "required": True, "choices": ("gamma", "q"), "help": "which parameter to sweep"}),
        "start": ("--start", {"required": True, "type": float, "help": "first value"}),
        "stop": ("--stop", {"required": True, "type": float, "help": "last value"}),
        "count": ("--count", {"required": True, "type": int, "help": "number of points (>= 2)"}),
        "json_path": ("--json", {"help": "write the JSON output to this file"}),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if any(name in _DEFAULTS for name in names):
            p.add_argument("--config", help="JSON file with defaults for this command's options")
        for name in names:
            flag, kwargs = options[name]
            p.add_argument(flag, dest=name, **kwargs)
    return parser


def _number(key: str, value, kind, fail):
    """A flag or config-file value as a float, or as an int when kind is
    int; anything else (text, a bool, a non-integral value for an int) is a
    usage error naming key."""
    try:
        num = float(value)
    except (TypeError, ValueError):
        num = None
    if num is None or isinstance(value, bool):
        fail(f"{key}: expected a number (got {value!r})")
    if kind is int:
        if not num.is_integer():
            fail(f"{key}: expected an integer (got {value!r})")
        return int(num)
    return num


def _parse_schedule(text: str, fail) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in str(text).split(",") if s.strip())
    except ValueError:
        fail(f"n_schedule: could not parse {text!r} as a comma list of integers")


def _parse_record(text, fail) -> "tuple[float, ...] | None":
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        vals = tuple(_number("record", x, float, fail) for x in text)
    else:
        try:
            vals = tuple(float(s) for s in str(text).split(",") if s.strip())
        except ValueError:
            vals = ()
    if not vals:
        fail(f"record: could not parse {text!r} as a comma list of times")
    return tuple(sorted(set(vals)))


def _checked(fail, build, label: "str | None" = None):
    """build(), with a ParameterError it raises made a usage error.  The
    message is label and the library's; by default label names the option
    whose field starts the library's message."""
    try:
        return build()
    except ParameterError as exc:
        if label is None:
            field = str(exc).split()[0]
            label = f"{_OPTION_OF.get(field, field)}: "
        fail(f"{label}{exc}")


def _params(cfg: RunConfig) -> Params:
    """The parameters of a command that reads q and dim (gamma 0 when it
    reads no gamma)."""
    return Params(q=cfg.q, gamma=0.0 if cfg.gamma is None else cfg.gamma, n_dim=cfg.dim)


def _grid_and_config(cfg: RunConfig) -> tuple[Grid, SolveConfig]:
    """The grid and the scheme's settings of a solve."""
    config = SolveConfig(
        eps_fp=cfg.eps_fp,
        nodes_per_window=cfg.nodes_per_window,
        n_schedule=cfg.n_schedule,
        window_cap=cfg.window_cap,
    )
    return make_grid(cfg.dim, cfg.half_width, cfg.points), config


def parse_config(argv: "Sequence[str] | None" = None) -> RunConfig:
    """Parse argv into a RunConfig.

    Precedence: built-in defaults, then the --config JSON file (for the
    commands that take one), then explicit flags.  Each value is converted
    to a number, then checked by building what the command will read:
    Params, the solve's Grid and SolveConfig, its TimeMesh for t_end and the
    record times, and standard_data on a grid of 2 points per axis for u0.
    An --out or --json path must lie in an existing directory.  Values those
    reject, values that are not numbers, and config keys the command does
    not read exit with a usage error naming the offending key.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    fail = parser.error  # prints usage and exits 2
    command = args.command
    names = _COMMANDS[command][1]

    merged = {key: _DEFAULTS[key] for key in names if key in _DEFAULTS}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            fail(f"config: cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            fail(f"config: {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            fail(f"config: {args.config} must hold a JSON object")
        for key, val in loaded.items():
            if key not in merged:
                fail(f"config: key {key!r} in {args.config} is not an option of {command} "
                     f"(expect one of {', '.join(sorted(merged))})")
            merged[key] = val
    for key in merged:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    # flag-only options pass through as parsed
    opts = {key: getattr(args, key) for key in names if key not in merged}
    for key, value in merged.items():
        if key == "n_schedule":
            opts[key] = _parse_schedule(value, fail)
        elif key == "record":
            opts[key] = _parse_record(value, fail)
        elif key == "u0":
            opts[key] = str(value)
        elif key != "points" or value is not None:  # points left unset follow the dimension
            opts[key] = _number(key, value, int if key in _INTEGERS else float, fail)
    for key, option in (("out", "out"), ("json_path", "json")):
        path = opts.get(key)
        if path and not Path(path).parent.is_dir():
            fail(f"{option}: output directory {Path(path).parent} does not exist")

    if command == "verify":
        opts["suite"] = None
        if args.suite != "all":
            suite = opts["suite"] = tuple(s.strip() for s in args.suite.split(",") if s.strip())
            if not suite:
                fail(f"suite: {args.suite!r} names no check; give 'all' or check names")
            _checked(fail, lambda: default_suite(suite), "suite: ")
        return RunConfig(command=command, **opts)
    cfg = RunConfig(command=command, **opts)
    params = _checked(fail, lambda: _params(cfg))
    if command == "solve":
        if cfg.points is None:
            cfg = replace(cfg, points=DEFAULT_POINTS[cfg.dim])
        grid, _ = _checked(fail, lambda: _grid_and_config(cfg))
        _checked(fail, lambda: TimeMesh.build(cfg.t_end, cfg.t_end, cfg.record or ()))
        _checked(fail, lambda: standard_data(replace(grid, points_per_axis=2), cfg.u0), "u0: ")
    if command == "sweep":
        for key in ("start", "stop"):
            _checked(fail, lambda: replace(params, **{cfg.param: getattr(cfg, key)}),
                     f"{key}: the swept ")
        if cfg.count < 2:
            fail(f"count: must be >= 2 (got {cfg.count})")
    return cfg


def _atomic_write(path: str, write: Callable[[TextIO], None]) -> None:
    """Write ``path`` by calling ``write`` on an open temporary file beside
    it, then rename that file over ``path``.  If anything raises, the
    temporary file is removed and ``path`` keeps its old contents."""
    p = Path(path)
    if p.parent and not p.parent.exists():
        raise ParameterError(f"output directory {p.parent} does not exist")
    tmp = p.with_name(p.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


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
        report = const_mod.constants_report(_params(cfg))
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
        grid, solve_cfg = _grid_and_config(cfg)
        traj = monotone_solve(
            standard_data(grid, cfg.u0), _params(cfg), cfg.t_end, solve_cfg, cfg.record or ()
        )
        _atomic_write(cfg.out, traj.write_csv)
        meta = traj.metadata()
        meta["data"] = cfg.u0
        # the scheme's settings (n_schedule among them), so that the sidecar
        # tells which rule and tolerances a run marched with
        meta.update(asdict(solve_cfg))
        _atomic_write_text(_sidecar_path(cfg.out), _dump_json(meta))
        sys.stdout.write(
            f"wrote {cfg.out} ({len(traj.times)} snapshots x {grid.node_count} nodes) "
            f"and {_sidecar_path(cfg.out)}\n"
        )
        return 0

    if cfg.command == "verify":
        reports = run_suite(cfg.suite)
        for rep in reports:
            sys.stdout.write(rep.summary_line() + "\n")
        if cfg.json_path:
            _atomic_write_text(
                cfg.json_path, _dump_json([rep.as_json_dict() for rep in reports])
            )
        return 0 if all(rep.passed for rep in reports) else 1

    if cfg.command == "sweep":
        values = np.linspace(cfg.start, cfg.stop, cfg.count)
        params = _params(cfg)
        records = [
            const_mod.constants_report(replace(params, **{cfg.param: float(v)})).as_json_dict()
            for v in values
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
