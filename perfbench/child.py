"""Run one workload in this (fresh) interpreter and write its figures as JSON.

    python3 perfbench/child.py --workload NAME --mode run|trace \
        --workdir DIR --result FILE [--seconds S]

Both modes time the set-up: ``import singheat`` plus building the workload's
grid, data and weight field.  ``run`` then runs the workload's CLI command
back to back for ``--seconds``, each time in a child forked from the set-up
process; the child calls the CLI entry point in-process, times it until its
outputs are written, records its peak resident memory and checks the
outputs.  ``trace`` runs the command once in-process with every layer's entry
points wrapped (see tracing.py), after importing the package one layer at a
time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _call_cli(argv: list):
    """Exit status of ``singheat.cli.main(argv)``; an escaped exception or exit
    is reported as a status string, never retried."""
    from singheat import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - the run must report, not crash
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def _command(workload: str, workdir: str) -> dict:
    """Run the workload's command once, timed until its outputs are written,
    then check its outputs."""
    argv = workloads.command(workload, workdir)
    t1 = time.perf_counter()
    rc = _call_cli(argv)
    out = {"wall_s": time.perf_counter() - t1,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "rc": rc}
    out["check"] = workloads.check_outputs(workload, workdir, rc)
    return out


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` ends, so that a
    set-up process killed at the deadline leaves no command running."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")
    if os.getppid() != parent:  # it ended before the request took effect
        os._exit(1)


def _forked_command(workload: str, workdir: str) -> dict:
    """``_command`` in a child forked from this set-up process: each command
    starts from the state a fresh interpreter has after set-up, with an empty
    propagator registry, and its peak memory is its own.

    Forking is safe here: set-up starts no Python thread, and OpenBLAS stops
    its worker threads in its own fork handler and restarts them on demand."""
    path = os.path.join(workdir, "command.json")
    if os.path.exists(path):
        os.remove(path)
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _die_with(parent)
            with open(path, "w") as fh:
                json.dump(_command(workload, workdir), fh)
            status = 0
        except Exception:  # noqa: BLE001 - reported by the wait status
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not os.path.exists(path):
        raise RuntimeError(f"command process ended with wait status {status}")
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("run", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run: repeat the command while another one fits in this many "
                         "seconds from the interpreter's start (at least once)")
    args = ap.parse_args()

    clock = time.perf_counter
    t0 = clock()
    if args.mode == "trace":
        import_s = tracing.staged_import()
    else:
        import singheat.cli  # noqa: F401  (imports the package first)
    workloads.build_inputs(args.workload)
    out = {"setup_s": clock() - t0}

    import numpy
    import scipy
    import singheat

    out["package_file"] = singheat.__file__
    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.mode == "run":
        out["commands"] = []
        while True:
            t1 = clock()
            out["commands"].append(_forked_command(args.workload, args.workdir))
            if clock() - t0 + (clock() - t1) > args.seconds:
                break
    else:
        rec = tracing.Recorder()
        out["present"] = tracing.install(rec)
        out["import_s"] = import_s
        out.update(_command(args.workload, args.workdir))
        out["trace"] = tracing.summarize(rec, os.path.join(args.workdir, "spans.npz"))

    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
