"""Benchmark of the singheat solver: two workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload once, as a table
    python3 perfbench/run.py --selftest      # trace coverage of every workload

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  A run starts ``SETUPS`` fresh interpreters
in turn (``child.py``), so import cost lands in set-up; each forks one
process per command after its set-up, so every command starts with an empty
propagator registry.  ``SINGHEAT_JOBS`` is removed from their environment.  A
closed loop with one client: the next command starts when the previous one
ends, for as long as another one still fits in ``--seconds`` (at least once
per interpreter).

With ``--trace 0`` the last line of output reports the end-to-end metrics:
``wall_s`` (median command time, after set-up, until its outputs are
written), ``setup_s`` (median over the run's fresh interpreters of
``import singheat`` plus building the workload's grid, data and weight
field) and ``peak_rss_mb`` (median over the commands' processes).  With ``--trace 1`` one untraced and one traced
command run, and the line reports the per-layer metrics from the spans of the
traced one, plus the tracing overhead.  ``attempted`` and ``failed`` count
solves (one per command) or suite checks; ``failed / attempted`` is the fail
ratio.  Any failed output check makes ``correct`` false and the exit status 1.

The workloads are pinned problems (see workloads.py): no input depends on the
seed, which is recorded with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "singheat")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUPS = 3  # fresh interpreters per run; each forks one process per command

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

class Failed(Exception):
    """A child process ended without a result."""


def _child(workload: str, mode: str, workdir: str, deadline: float, seconds: float = 0.0) -> dict:
    result = os.path.join(workdir, f"result-{mode}.json")
    if os.path.exists(result):
        os.remove(result)
    env = {k: v for k, v in os.environ.items() if k not in ("SINGHEAT_JOBS", "PYTHONPATH")}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--mode", mode, "--workdir", workdir, "--result", result, "--seconds", repr(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Failed(f"no time left for a {mode} interpreter")
    with open(os.path.join(workdir, "child.log"), "ab") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Failed(f"{mode} interpreter killed at the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:  # its forked command dies with it (child.py)
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result):
        raise Failed(f"{mode} interpreter exited with status {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    if not os.path.abspath(out["package_file"]).startswith(SRC + os.sep):
        raise Failed(f"imported {out['package_file']}, not the checkout's package")
    return out


def _log_tail(workdir: str, lines: int = 20) -> str:
    try:
        with open(os.path.join(workdir, "child.log"), errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def run_end_to_end(workload: str, seconds: float, workdir: str, deadline: float):
    """Commands back to back for ``seconds``, forked from ``SETUPS`` fresh
    interpreters in turn, each of which contributes one set-up time."""
    runs, setups, versions = [], [], None
    begin = time.monotonic()
    for i in range(SETUPS):
        share = (seconds - (time.monotonic() - begin)) / (SETUPS - i)
        out = _child(workload, "run", workdir, deadline, share)
        setups.append(out["setup_s"])
        runs += out["commands"]
        versions = out["versions"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {"commands": len(runs), "setup_s_samples": setups,
            "wall_s_samples": [r["wall_s"] for r in runs]}
    return runs, versions, metrics, info


def per_layer(workload: str, plain: dict, traced: dict) -> tuple:
    """Per-layer metrics from the traced command; the plain one gives the
    untraced wall time the overhead is measured against."""
    tr = traced["trace"]
    by = tr["by_name"]

    def row(name, key="s"):
        return by.get(name, {}).get(key, 0.0)

    wall = plain["wall_s"]
    apply_calls = row("semigroup.apply", "calls")
    lookups = row("semigroup.kernel", "calls")
    builds = tr["kernel_builds"]
    checks = {k: row(f"verify.check.{k}") for k in workloads.VERIFY_SUITE}
    check_sum = sum(v["s"] for k, v in by.items() if k.startswith("verify.check."))
    check_max = max([v["s"] for k, v in by.items() if k.startswith("verify.check.")] or [0.0])
    const_rows = [v for k, v in by.items() if k.startswith("constants.")]
    layer_self = tr["layer_self_s"]
    imports = traced["import_s"]

    m = {}
    m["fields.weight_field_s"] = (row("fields.weight_field"), "s")
    m["fields.weight_field_calls"] = (row("fields.weight_field", "calls"), "count")
    for layer in tracing.LAYERS:
        m[f"{layer}.import_s"] = (imports.get(layer) or 0.0, "s")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["semigroup.apply_calls"] = (apply_calls, "count")
    m["semigroup.apply_s"] = (row("semigroup.apply"), "s")
    m["semigroup.apply_us"] = (1e6 * row("semigroup.apply") / apply_calls if apply_calls else 0.0, "us")
    m["semigroup.kernel_lookups"] = (lookups, "count")
    m["semigroup.kernel_builds"] = (builds, "count")
    m["semigroup.kernel_hit_ratio"] = ((lookups - builds) / lookups if lookups else 0.0, "ratio")
    m["semigroup.apply_bytes_computed"] = (row("semigroup.apply", "value"), "B")
    m["semigroup.cache_bytes_computed"] = (tr["cache_bytes"], "B")
    m["scheme.levels"] = (tr["levels"], "count")
    m["scheme.windows"] = (tr["windows"], "count")
    m["scheme.sweeps"] = (tr["sweeps"], "count")
    m["scheme.sweeps_per_window"] = (tr["sweeps"] / tr["windows"] if tr["windows"] else 0.0, "count")
    m["scheme.picard_self_s"] = (row("scheme.picard", "self_s"), "s")
    m["scheme.rule_calls"] = (row("scheme.rule", "calls"), "count")
    m["scheme.rule_s"] = (row("scheme.rule"), "s")
    m["scheme.source_calls"] = (row("scheme.source", "calls"), "count")
    m["scheme.source_s"] = (row("scheme.source"), "s")
    m["scheme.csv_s"] = (row("scheme.csv"), "s")
    m["scheme.level_err"] = (plain["check"].get("level_err", 0.0), "abs")
    m["scheme.max_err"] = (plain["check"].get("max_err", 0.0), "abs")
    m["cli.parse_s"] = (row("cli.parse"), "s")
    m["cli.write_s"] = (row("cli.write"), "s")
    m["cli.out_bytes"] = (row("cli.write", "value"), "B")
    m["constants.calls"] = (sum(v["calls"] for v in const_rows), "count")
    m["constants.s"] = (layer_self.get("constants", 0.0), "s")
    for k, v in checks.items():
        m[f"verify.check_s.{k}"] = (v, "s")
    m["verify.check_sum_s"] = (check_sum, "s")
    m["verify.check_max_s"] = (check_max, "s")
    workers = tr["check_workers"]
    m["verify.pool_efficiency"] = (check_sum / (traced["wall_s"] * workers) if workers else 0.0, "ratio")
    m["verify.checks_failed"] = (tr["checks_failed"], "count")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - wall, "s")
    m["trace.self_sum_ratio"] = (sum(layer_self.values()) / traced["wall_s"], "ratio")
    m["trace.spans"] = (tr["spans"], "count")

    return m, tracing.coverage(workload, traced["present"], by, workloads.VERIFY_SUITE)


def machine_info(seed: int, child_versions: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **child_versions,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # not a git checkout (or a packed ref); src_sha256 identifies the code


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus what is printed above it."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            server = _child(workload, "run", workdir, deadline)
            plain = server["commands"][0]
            traced = _child(workload, "trace", workdir, deadline)
            versions = server["versions"]
            os.replace(os.path.join(workdir, "spans.npz"), os.path.join(WORK, f"spans-{workload}.npz"))
            runs = [plain, traced]
            layer, coverage = per_layer(workload, plain, traced)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            info = {"coverage": coverage}
        else:
            runs, versions, e2e, info = run_end_to_end(workload, seconds, workdir, deadline)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    except Failed as exc:
        return {"error": f"{workload}: {exc}\n{_log_tail(workdir)}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["check"]["attempted"] for r in runs)
    failed = sum(r["check"]["failed"] for r in runs)
    problems = [p for r in runs for p in r["check"]["problems"]]
    info.update(machine_info(seed, versions))
    info.update({"workload": workload, "fail_ratio": failed / attempted, "problems": problems})
    return {
        "line": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                 "metrics": metrics},
        "info": info,
    }


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:<13} {name:<36} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="traced run of every workload; fail if an entry point records no span")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the interpreter this run started
    # is killed and waited for, and its working directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC, ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" or args.selftest else [args.workload]
    trace = bool(args.trace) or args.selftest
    results = {}
    status = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        if "error" in res:
            print(f"error: {res['error']}", file=sys.stderr)
            return 3
        results[name] = res
        line, info = res["line"], res["info"]
        print(json.dumps({"info": info}, sort_keys=True))
        _print_metrics(name, line["metrics"])
        print(f"{name:<13} {'fail_ratio':<36} {info['fail_ratio']:>14.6g} "
              f"({line['failed']}/{line['attempted']})")
        for p in info["problems"]:
            print(f"{name:<13} FAILED: {p}")
        if not line["correct"]:
            status = 1
        if args.selftest:
            cov = info["coverage"]
            print(f"{name:<13} coverage: absent={cov['absent']} uncovered={cov['uncovered']}")
            if cov["uncovered"]:
                status = 1

    if len(names) == 1:
        print(json.dumps(results[names[0]]["line"]))
    else:
        print(json.dumps({n: r["line"] for n, r in results.items()}))
    return status


if __name__ == "__main__":
    sys.exit(main())
