#!/usr/bin/env python3
"""Compare the outputs of this tree's commands with those of a git revision.

Checks REV out into a temporary git worktree, runs one list of ``singheat``
commands in that tree and in this one (the checkout holding this script,
uncommitted changes included), each with its own ``src`` on PYTHONPATH, and
prints one line per output: ``equal`` when the bytes agree; for a ``.json``
output, else, key by key: the largest absolute difference of the numbers
both sides hold, and the keys whose other values changed, were added or
were removed; for any other output, else, when the text between the numbers
agrees, the largest absolute difference of the numbers; else the first line
that differs.  Each command's line gives its exit code, wall time, peak
RSS (the command's own VmHWM, which it writes as it exits) and, for a
solve, the Picard sweeps of its whole ladder, summed over the sidecar's
``levels`` entries, in REV and here (a sidecar without them gives its last
level's ``total_sweeps``, marked so).  The list is the benchmark's two
workloads (perfbench/workloads.py), the default, 2D, 3D and gamma = 0.6
solves, a solve with several record times, the full default ``verify``
suite and, alone, the two of its checks whose peak comes closest to the
suite's (the 2D sub-solution check and ``heaviside``, 1D at M = 32768),
``constants``, ``gamma-star``, ``sweep`` and every ``--help``.  Only local
git is used.

    python scripts/compare_outputs.py REV [--only NAME,...]

Exit code 0 when every output and exit code agrees, 1 when any differs, 2 when
REV cannot be checked out.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT))

from perfbench import workloads  # noqa: E402

_SUBCOMMANDS = ("constants", "gamma-star", "solve", "verify", "sweep")

# (name, argv); each command runs in its own empty directory, so the files it
# leaves there are its outputs
COMMANDS = (
    [(name, workloads.command(name, ".")) for name in workloads.WORKLOADS]
    + [
        ("solve", ["solve", "--out", "solve.csv"]),
        ("solve-2d", ["solve", "--dim", "2", "--n-schedule", "1,2,4,8", "--out", "solve.csv"]),
        ("solve-3d", ["solve", "--dim", "3", "--points", "32", "--half-width", "8",
                      "--t-end", "0.25", "--n-schedule", "1,2,4,8,16", "--out", "solve.csv"]),
        ("solve-gamma-0.6", ["solve", "--gamma", "0.6", "--points", "256", "--out", "solve.csv"]),
        ("solve-record", ["solve", "--points", "256", "--record", "0.25,0.5,1.0",
                          "--out", "solve.csv"]),
        ("verify-all", ["verify", "--json", "verify.json"]),
        ("verify-2d", ["verify", "--suite", "subsolution-2d"]),
        ("verify-heaviside", ["verify", "--suite", "heaviside"]),
        ("constants", ["constants", "--gamma", "0.3", "--dim", "2", "--json", "constants.json"]),
        ("gamma-star", ["gamma-star", "--q", "0.5", "--json", "gamma-star.json"]),
        ("sweep", ["sweep", "--param", "gamma", "--start", "0", "--stop", "0.4",
                   "--count", "5", "--json", "sweep.json"]),
        ("help", ["--help"]),
    ]
    + [(f"help-{cmd}", [cmd, "--help"]) for cmd in _SUBCOMMANDS]
)

# Runs the CLI as ``python -m singheat.cli`` does, after arranging for the
# interpreter to write its VmHWM, in kB, into the file named by its first
# argument as it exits.  The high-water mark of /proc/self/status starts
# afresh at exec, whereas ru_maxrss keeps that of the image the child was
# forked from: this script's, however large it has grown.
_CHILD = '''
import atexit, runpy, sys

peak = sys.argv.pop(1)

def _write_peak():
    with open("/proc/self/status") as status, open(peak, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

atexit.register(_write_peak)
runpy.run_module("singheat.cli", run_name="__main__", alter_sys=True)
'''

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")


def _run(tree: Path, argv: list, workdir: Path) -> dict:
    """One command in one tree: its exit code, wall time, peak RSS in MB
    (its own VmHWM; nan if it wrote none) and outputs (stdout and every file
    it wrote into workdir), by name."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    peak = workdir.with_name(workdir.name + ".peak")
    with tempfile.TemporaryFile() as stdout:
        start = time.perf_counter()
        code = subprocess.call(
            [sys.executable, "-c", _CHILD, str(peak), *argv],
            cwd=workdir, env=env, stdout=stdout, stderr=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        stdout.seek(0)
        outputs = {"stdout": stdout.read()}
    outputs.update((p.name, p.read_bytes()) for p in sorted(workdir.iterdir()))
    peak_mb = int(peak.read_text()) / 1024 if peak.exists() else math.nan
    return {"exit": code, "wall": wall, "peak_mb": peak_mb, "outputs": outputs}


def _sweeps(outputs: dict) -> "int | str | None":
    """The Picard sweeps of a solve's whole ladder, from its sidecar."""
    for name, data in outputs.items():
        if name.endswith(".json"):
            try:
                diag = json.loads(data)["diagnostics"]
                if "levels" in diag:
                    return sum(level["sweeps"] for level in diag["levels"])
                return f"{diag['total_sweeps']} (last level)"
            except (ValueError, KeyError, TypeError):
                pass
    return None


def _as_float(token: str) -> float:
    return float(token.replace("Infinity", "inf").replace("NaN", "nan"))


def compare(old: bytes, new: bytes) -> str:
    """``equal`` for equal bytes; else the largest absolute difference of
    the numbers, when the text between them agrees; else the first line
    that differs."""
    if old == new:
        return "equal"
    a, b = old.decode(errors="replace"), new.decode(errors="replace")
    if _NUMBER.split(a) == _NUMBER.split(b):
        x, y = _NUMBER.findall(a), _NUMBER.findall(b)
        worst = 0.0
        for s, t in zip(x, y):
            u, v = _as_float(s), _as_float(t)
            if u != v and not (math.isnan(u) and math.isnan(v)):
                worst = max(worst, abs(u - v))
        return f"max |diff| {worst:.3g} ({len(x)} numbers)"
    for k, (s, t) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if s != t:
            return f"differs at line {k}: {s[:60]!r} -> {t[:60]!r}"
    return f"differs in length: {len(a.splitlines())} -> {len(b.splitlines())} lines"


def _leaves(node, path: str = "") -> dict:
    """Every leaf of parsed JSON (an empty list or object counts as one) by
    its path: object keys joined by dots, list items as [index]."""
    if isinstance(node, dict) and node:
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list) and node:
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    leaves = {}
    for key, value in items:
        leaves.update(_leaves(value, key))
    return leaves


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_json(old: bytes, new: bytes) -> str:
    """``equal`` for equal bytes; else, over the parsed JSON key by key, the
    largest absolute difference of the numbers both sides hold and the
    paths of the other leaves that changed, were added or were removed;
    compare()'s verdict when a side is not JSON."""
    if old == new:
        return "equal"
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError:
        return compare(old, new)
    worst, numbers, changed = 0.0, 0, []
    for key in (k for k in a if k in b):
        u, v = a[key], b[key]
        if _is_number(u) and _is_number(v):
            numbers += 1
            if u != v and not (math.isnan(u) and math.isnan(v)):
                worst = max(worst, abs(u - v))
        elif u != v:
            changed.append(key)
    verdict = f"max |diff| {worst:.3g} ({numbers} shared numbers)"
    for label, keys in (
        ("changed", changed),
        ("added", [k for k in b if k not in a]),
        ("removed", [k for k in a if k not in b]),
    ):
        if keys:
            verdict += f"; {label} {', '.join(keys)}"
    return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    ap.add_argument("--only", help="comma-separated command names (default: all)")
    args = ap.parse_args(argv)
    names = [name for name, _ in COMMANDS]
    only = args.only.split(",") if args.only else names
    unknown = sorted(set(only) - set(names))
    if unknown:
        ap.error(f"unknown command name(s) {unknown}; available: {names}")
    differ = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base = Path(tmp) / "rev"
        add = subprocess.run(
            ["git", "-C", str(_ROOT), "worktree", "add", "--detach", str(base), args.rev],
            capture_output=True, text=True,
        )
        if add.returncode:
            print(add.stderr.strip(), file=sys.stderr)
            return 2
        try:
            print(f"{args.rev} -> {_ROOT}")
            for name, cmd in COMMANDS:
                if name not in only:
                    continue
                old = _run(base, cmd, Path(tmp) / "out-rev" / name)
                new = _run(_ROOT, cmd, Path(tmp) / "out-here" / name)
                line = f"{name}: exit {old['exit']} -> {new['exit']}"
                differ |= old["exit"] != new["exit"]
                sweeps = _sweeps(old["outputs"]), _sweeps(new["outputs"])
                if sweeps != (None, None):
                    line += f", sweeps {sweeps[0]} -> {sweeps[1]}"
                    differ |= sweeps[0] != sweeps[1]
                print(line + f", {old['wall']:.2f} s -> {new['wall']:.2f} s"
                      f", {old['peak_mb']:.1f} MB -> {new['peak_mb']:.1f} MB peak")
                for out in sorted(set(old["outputs"]) | set(new["outputs"])):
                    if out not in old["outputs"] or out not in new["outputs"]:
                        verdict = "only in " + ("this tree" if out in new["outputs"] else args.rev)
                    else:
                        diff = compare_json if out.endswith(".json") else compare
                        verdict = diff(old["outputs"][out], new["outputs"][out])
                    differ |= verdict != "equal"
                    print(f"  {out}: {verdict}")
        finally:
            subprocess.run(
                ["git", "-C", str(_ROOT), "worktree", "remove", "--force", str(base)],
                capture_output=True,
            )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
