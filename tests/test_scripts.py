"""The example scripts run end to end on small arguments: each exits 0 and
prints its table, so a change of the package's API cannot break them
unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


# each script with arguments small enough to run in well under a second
_RUNS = {
    "threshold_map.py": ["--steps", "3"],
    "regularization_gap.py": ["--levels", "3", "--points", "64", "--t-end", "0.25"],
    "smoothing_table.py": [],
}


def test_every_script_is_run():
    assert {p.name for p in (_ROOT / "scripts").glob("*.py")} == set(_RUNS)


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
