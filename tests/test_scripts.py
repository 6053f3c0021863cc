"""The example scripts run end to end on small arguments: each exits 0 and
prints its table, so a change of the package's API cannot break them
unseen."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]


# each script with arguments small enough to run in well under a second
_RUNS = {
    "threshold_map.py": ["--steps", "3"],
    "regularization_gap.py": ["--levels", "3", "--points", "64", "--t-end", "0.25"],
    "smoothing_table.py": [],
}


# scripts that need more than arguments, each run by its own test below
_OWN_TESTS = {"compare_outputs.py"}


def test_every_script_is_run():
    assert {p.name for p in (_ROOT / "scripts").glob("*.py")} == set(_RUNS) | _OWN_TESTS


@pytest.mark.parametrize("script,args", list(_RUNS.items()))
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_compare_outputs_finds_the_one_changed_output(tmp_path):
    # a repository of the package, the benchmark's workload list and the
    # script, whose second commit changes the top-level help text alone: the
    # script, run against the first commit, reports that output and no other,
    # exits 1, and leaves no worktree behind
    repo = tmp_path / "repo"
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(_ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    cli = repo / "src" / "singheat" / "cli.py"
    text = cli.read_text()
    old = 'description="solver and checks'
    assert text.count(old) == 1
    cli.write_text(text.replace(old, 'description="the solver and checks'))
    _git(repo, "commit", "-q", "-am", "second")
    done = subprocess.run(
        [sys.executable, str(repo / "scripts" / "compare_outputs.py"), "HEAD~1",
         "--only", "help,help-solve,gamma-star"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    verdicts = [line for line in lines if line.startswith("  ")]
    assert [line.split(",")[0] for line in lines[1:] if not line.startswith("  ")] == [
        "gamma-star: exit 0 -> 0", "help: exit 0 -> 0", "help-solve: exit 0 -> 0",
    ]
    changed = "  stdout: differs at line 3: 'solver and checks for the"
    assert [v if not v.startswith(changed) else changed for v in verdicts] == [
        "  gamma-star.json: equal", "  stdout: equal", changed, "  stdout: equal",
    ]
    assert "-> 'the solver and checks for the" in verdicts[2]
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True)
    assert len(listed.stdout.splitlines()) == 1


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", _ROOT / "scripts" / "compare_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_compare_outputs_measures_numbers_when_the_text_agrees():
    mod = _compare_outputs()
    assert mod.compare(b"t,u\n0.5,1e-3\n", b"t,u\n0.5,1e-3\n") == "equal"
    assert mod.compare(b"t,u\n0.5,1e-3\n", b"t,u\n0.5,1.5e-3\n") == "max |diff| 0.0005 (2 numbers)"
    assert mod.compare(b'{"m": NaN, "x": -2}', b'{"m": NaN, "x": -2.25}') == (
        "max |diff| 0.25 (2 numbers)"
    )
    assert mod.compare(b"a 1\nb 2\n", b"a 1\nc 2\n") == "differs at line 2: 'b 2' -> 'c 2'"
    assert mod.compare(b"a 1\n", b"a 1\nb 2\n") == "differs in length: 1 -> 2 lines"


def test_compare_outputs_compares_json_key_by_key():
    # a sidecar that gains a key: the text comparison stops at the first
    # line that differs, the key-by-key one still measures the shared
    # numbers and names the new key
    mod = _compare_outputs()
    old = {"diagnostics": {"max_residual": 1e-9, "orthant": True, "windows": 4}, "t_end": 1.0}
    new = json.loads(json.dumps(old))
    new["diagnostics"]["levels"] = [{"n": 1}]
    new["diagnostics"]["max_residual"] = 1.5e-9
    a = json.dumps(old, indent=2).encode()
    b = json.dumps(new, indent=2).encode()
    assert mod.compare(a, b).startswith("differs at line")
    assert mod.compare_json(a, b) == (
        "max |diff| 5e-10 (3 shared numbers); added diagnostics.levels[0].n"
    )
    new["diagnostics"]["orthant"] = False
    b = json.dumps(new, indent=2).encode()
    assert mod.compare_json(b, a) == (
        "max |diff| 5e-10 (3 shared numbers); changed diagnostics.orthant; "
        "removed diagnostics.levels[0].n"
    )
    assert mod.compare_json(a, a) == "equal"
    assert mod.compare_json(b"a 1\n", b"a 2\n") == "max |diff| 1 (1 numbers)"


def test_compare_outputs_sums_the_sweeps_of_every_level():
    mod = _compare_outputs()
    levels = [{"n": 1, "sweeps": 5}, {"n": 2, "sweeps": 7}]
    side = {"diagnostics": {"total_sweeps": 7, "levels": levels}}
    assert mod._sweeps({"stdout": b"", "out.json": json.dumps(side).encode()}) == 12
    del side["diagnostics"]["levels"]
    assert mod._sweeps({"out.json": json.dumps(side).encode()}) == "7 (last level)"
    assert mod._sweeps({"stdout": b"PASS"}) is None


def test_compare_outputs_reports_each_commands_peak(tmp_path):
    mod = _compare_outputs()
    done = mod._run(_ROOT, ["gamma-star", "--q", "0.5"], tmp_path / "out")
    assert done["exit"] == 0
    assert done["peak_mb"] > 0
    assert b"gamma" in done["outputs"]["stdout"]


def test_compare_outputs_peak_is_the_commands_own(tmp_path):
    # a command started after the script has grown by about 100 MB reports
    # the peak it reaches alone, not the high-water mark of the image it was
    # forked from
    mod = _compare_outputs()
    argv = ["gamma-star", "--q", "0.5"]
    alone = mod._run(_ROOT, argv, tmp_path / "alone")["peak_mb"]
    ballast = np.ones(100 * 2**20 // 8)  # every page written, so resident
    grown = mod._run(_ROOT, argv, tmp_path / "grown")["peak_mb"]
    assert ballast.nbytes / 2**20 > grown
    assert abs(grown - alone) < 10.0
