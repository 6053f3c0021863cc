"""Command-line surface: precedence, exit codes, deterministic outputs."""

import argparse
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from singheat import scheme, semigroup
from singheat.cli import _atomic_write, _build_parser, main, parse_config
from singheat.fields import DEFAULT_POINTS, make_grid

# solve inputs that the library rejects: the data spec, read by
# standard_data, and a record time past t_end = 1, read by TimeMesh
LIBRARY_REJECTS = [
    ["--u0", "gauss:abc"],
    ["--u0", "const:-1"],
    ["--u0", "bump:0"],
    ["--u0", "step"],
    ["--record", "1.0000000005"],
    ["--u0", "zero:junk"],
    ["--u0", "step:7"],
]


def test_defaults_resolve():
    cfg = parse_config(["solve", "--out", "x.csv"])
    assert cfg.command == "solve"
    assert cfg.q == 0.5 and cfg.gamma == 0.3 and cfg.dim == 1
    assert cfg.half_width == 12.0 and cfg.points == 1024
    assert cfg.t_end == 1.0
    assert cfg.n_schedule == (1, 2, 4, 8, 16, 32, 64)
    assert cfg.eps_fp == 1e-8
    assert cfg.nodes_per_window == 4 and cfg.window_cap == 0.25
    assert cfg.u0 == "bump" and cfg.record is None
    assert cfg.suite is None  # verify's option
    cfg = parse_config(["verify"])
    assert cfg.suite is None
    assert cfg.q is None and cfg.points is None  # solve's options


@pytest.mark.parametrize("dim,points", [(1, 1024), (2, 192), (3, 64)])
def test_points_default_depends_on_dimension(dim, points):
    assert parse_config(["solve", "--dim", str(dim), "--out", "x.csv"]).points == points
    cfg = parse_config(["solve", "--dim", str(dim), "--points", "32", "--out", "x.csv"])
    assert cfg.points == 32


def test_memory_error_exits_3(monkeypatch, capsys):
    import singheat.cli as cli_mod

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(cli_mod, "run", exhausted)
    assert main(["solve", "--dim", "3", "--out", "x.csv"]) == 3
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 8.00 GiB\n"


def test_config_file_overrides_defaults_and_flags_override_file(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 0.1, "points": 256, "q": 0.4}))
    cfg = parse_config(["solve", "--config", str(cfile), "--q", "0.6", "--out", "x.csv"])
    assert cfg.gamma == 0.1      # from file
    assert cfg.points == 256     # from file
    assert cfg.q == 0.6          # flag wins over file


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamme": 0.1}))
    with pytest.raises(SystemExit) as exc:
        parse_config(["constants", "--config", str(cfile)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--gamma", "1.0"],                    # out of range for dim 1
        ["constants", "--q", "1.5"],
        ["constants", "--dim", "4"],
        ["solve", "--out", "x.csv", "--points", "255"],     # odd
        ["solve", "--out", "x.csv", "--n-schedule", "4,2"],
        ["solve", "--out", "x.csv", "--u0", "wedge"],
        ["solve", "--out", "x.csv", "--record", "2.5"],     # beyond t_end = 1
        ["verify", "--suite", "no-such-check"],
        ["sweep", "--param", "gamma", "--start", "0", "--stop", "0.5"],  # missing count
        ["sweep", "--param", "gamma", "--start", "1.5", "--stop", "0.1", "--dim", "1",
         "--count", "3"],                                   # start leaves [0, 1)
        ["sweep", "--param", "q", "--start", "1.2", "--stop", "0.5", "--count", "3"],
        *(["solve", "--out", "x.csv"] + extra for extra in LIBRARY_REJECTS),
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", [",", " ", " , ,", ""])
def test_suite_naming_no_check_is_a_usage_error(capsys, suite):
    # a --suite that names no check is refused, not read as the whole suite
    with pytest.raises(SystemExit) as exc:
        parse_config(["verify", "--suite", suite])
    assert exc.value.code == 2
    assert "error: suite: " in capsys.readouterr().err


@pytest.mark.parametrize("extra", LIBRARY_REJECTS)
def test_solve_usage_error_starts_no_work(tmp_path, monkeypatch, extra):
    # each input is rejected while parsing, by the object that reads it:
    # no solve starts and no output is written
    import singheat.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli_mod, "monotone_solve", no_solve)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(out)] + extra)
    assert exc.value.code == 2
    assert not out.exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv,option,work",
    [
        (["solve", "--out", "{missing}/o.csv"], "out", "singheat.cli.monotone_solve"),
        (["verify", "--suite", "all", "--json", "{missing}/x.json"], "json",
         "singheat.cli.run_suite"),
        (["constants", "--json", "{missing}/c.json"], "json",
         "singheat.constants.constants_report"),
    ],
)
def test_output_in_a_missing_directory_is_a_usage_error(
    tmp_path, monkeypatch, capsys, argv, option, work
):
    # an output path whose directory does not exist is refused while
    # parsing, before the command's work starts, not after it
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(work, no_work)
    missing = tmp_path / "nodir"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(missing=missing) for arg in argv])
    assert exc.value.code == 2
    assert f"error: {option}: output directory {missing} does not exist" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize(
    "command,config,env,key",
    [
        (["constants"], {"q": "abc"}, None, "q"),
        (["solve", "--out", "x.csv"], {"points": 32.9}, None, "points"),
        (["solve", "--out", "x.csv"], {"record": [0.5, "late"]}, None, "record"),
        (["solve", "--out", "x.csv"], {"t_end": "late"}, "abc", "t_end"),
        (["constants"], {"q": None}, None, "q"),
        (["solve", "--out", "x.csv"], {"gamma": None}, None, "gamma"),
        (["solve", "--out", "x.csv"], {"window_cap": None}, None, "window_cap"),
    ],
)
def test_values_that_are_not_numbers_exit_2(tmp_path, monkeypatch, capsys, command, config,
                                             env, key):
    # config-file values are converted with the same checks as flags: text,
    # or a fraction for an integer option, is a usage error naming its key;
    # env sets SINGHEAT_JOBS, which no command reads
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(config))
    if env is None:
        monkeypatch.delenv("SINGHEAT_JOBS", raising=False)
    else:
        monkeypatch.setenv("SINGHEAT_JOBS", env)
    with pytest.raises(SystemExit) as exc:
        parse_config(command + ["--config", str(cfile)])
    assert exc.value.code == 2
    assert f"error: {key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["constants"], "points", 32),
        (["gamma-star"], "gamma", 0.1),
        (["solve", "--out", "x.csv"], "jobs", 1),
        (["verify"], "q", 0.5),
        (["sweep", "--param", "q", "--start", "0.2", "--stop", "0.8", "--count", "3"],
         "t_end", 2),
        (["verify"], "jobs", 2),  # the pool size is not an option
    ],
)
def test_commands_reject_options_they_do_not_read(tmp_path, argv, key, value):
    parse_config(argv)
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    for bad in (argv + [flag, str(value)], argv + ["--config", str(cfile)]):
        with pytest.raises(SystemExit) as exc:
            parse_config(bad)
        assert exc.value.code == 2


def test_readme_lists_each_commands_options():
    # each row of README's option table is, in order, the options that the
    # parser gives its command, --config included wherever it is offered
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", section, re.MULTILINE)
    documented = {cmd: re.findall(r"`(--[a-z0-9-]+)`", opts) for cmd, opts in rows}
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {
        cmd: [flag for act in p._actions for flag in act.option_strings
              if flag not in ("-h", "--help")]
        for cmd, p in sub.choices.items()
    }
    assert len(rows) == len(documented)
    assert documented == offered


def test_readme_and_help_state_the_default_points(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.search(r"`--points` defaults to (\d+) in 1D, (\d+) in 2D and (\d+) in 3D", readme)
    values = tuple(str(DEFAULT_POINTS[dim]) for dim in (1, 2, 3))
    assert stated and stated.groups() == values
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default {', '.join(values)} in 1D, 2D, 3D)" in help_text


def test_constants_json_payload(capsys):
    assert main(["constants", "--q", "0.5", "--gamma", "0.3"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert set(data) == {"q", "gamma", "n_dim", "eta0", "eta1", "eta2", "beta", "lambda", "tolerance"}
    assert data["lambda"] == pytest.approx(1.4757612677686625, rel=1e-12)


def test_constants_file_output_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["constants", "--gamma", "0.2", "--json", str(p1)]) == 0
    assert main(["constants", "--gamma", "0.2", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gamma_star_line_and_json(tmp_path, capsys):
    out_json = tmp_path / "gs.json"
    assert main(["gamma-star", "--q", "0.5", "--json", str(out_json)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("gamma_star=0.19463641")
    assert "crossed=True" in line
    payload = json.loads(out_json.read_text())
    assert payload["gamma_star"] == pytest.approx(0.19463641541477306, abs=1e-6)
    assert payload["crossed"] is True


def test_solve_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(
        [
            "solve",
            "--u0",
            "const:1",
            "--gamma",
            "0.1",
            "--points",
            "64",
            "--half-width",
            "6",
            "--t-end",
            "0.5",
            "--n-schedule",
            "1,2",
            "--record",
            "0.25,0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,node_index,coord_1,u"
    assert len(lines) == 1 + 3 * 64  # t = 0, 0.25, 0.5
    sidecar = tmp_path / "traj.json"
    meta = json.loads(sidecar.read_text())
    assert meta["data"] == "const:1"
    assert meta["n_schedule"] == [1, 2]
    # the scheme's other settings, at their defaults
    settings = ("eps_fp", "nodes_per_window", "window_cap", "contraction_theta")
    assert {k: meta[k] for k in settings} == {
        "eps_fp": 1e-8, "nodes_per_window": 4, "window_cap": 0.25, "contraction_theta": 0.5,
    }
    assert meta["times"] == [0.0, 0.25, 0.5]
    assert meta["diagnostics"]["monotone_violation"] <= 1e-8
    levels = meta["diagnostics"]["levels"]
    assert [lv["n"] for lv in levels] == [1, 2]
    assert levels[-1]["sweeps"] == meta["diagnostics"]["total_sweeps"]


@pytest.mark.parametrize("t_end", ["1e-10", "1e-13"])
def test_short_solves_write_their_t_end_snapshot(tmp_path, capsys, t_end):
    # record times match relative to the time, so a run far below t = 1
    # records its t_end (the default record) as any other run does
    out = tmp_path / "short.csv"
    argv = ["solve", "--t-end", t_end, "--points", "64", "--n-schedule", "1,2"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
    assert rows == ["0.0"] * 64 + [repr(float(t_end))] * 64
    assert json.loads((tmp_path / "short.json").read_text())["times"] == [0.0, float(t_end)]


def test_failed_write_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "traj.csv"
    out.write_text("old\n")

    def write(fh):
        fh.write("t,node_index,coord_1,u\n")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(str(out), write)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]
    assert out.read_bytes() == b"old\n"


def test_solve_reruns_are_byte_identical(tmp_path):
    args = [
        "solve", "--u0", "bump", "--gamma", "0.1", "--points", "64",
        "--half-width", "6", "--t-end", "0.25", "--n-schedule", "1,2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_solve_builds_one_propagator_on_its_grid(tmp_path, monkeypatch):
    # a solve's whole ladder marches on one HeatPropagator(grid), which
    # takes no route argument
    built = []

    class Spy(semigroup.HeatPropagator):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    for module in (semigroup, scheme):
        monkeypatch.setattr(module, "HeatPropagator", Spy)
    args = ["solve", "--points", "64", "--t-end", "0.25", "--n-schedule", "1,2"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert built == [make_grid(1, 12.0, 64)]


def test_verify_subset_exit_zero_and_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    rc = main(["verify", "--suite", "gronwall-exp,max-at-origin", "--json", str(rep)])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    assert all(line.startswith("PASS ") for line in out)
    payload = json.loads(rep.read_text())
    assert [r["name"] for r in payload] == ["gronwall-exp", "max-at-origin"]
    assert all(r["passed"] for r in payload)


def test_verify_exit_one_on_failing_check(monkeypatch, capsys):
    from singheat.verify import CheckReport

    def fake_run_suite(names):
        return [CheckReport(name="stub", passed=False, margin=-1.0, tolerance=1e-3)]

    monkeypatch.setattr("singheat.cli.run_suite", fake_run_suite)
    rc = main(["verify", "--suite", "heaviside"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL stub")


def test_numerical_errors_exit_3(tmp_path, capsys):
    # a box of half-width 1 truncates the kernel of a step of the ladder
    out = tmp_path / "x.csv"
    rc = main(["solve", "--out", str(out), "--half-width", "1", "--points", "8",
               "--t-end", "10", "--n-schedule", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: TruncationError:")
    assert list(tmp_path.iterdir()) == []


def test_sweep_preserves_input_order(capsys):
    rc = main(
        ["sweep", "--param", "gamma", "--start", "0.0", "--stop", "0.4",
         "--count", "5"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["param"] == "gamma"
    assert payload["values"] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert [r["gamma"] for r in payload["records"]] == payload["values"]
    assert all(r["q"] == 0.5 for r in payload["records"])


def test_sweep_q_with_fixed_gamma(capsys):
    rc = main(["sweep", "--param", "q", "--start", "0.2", "--stop", "0.8",
               "--count", "3", "--gamma", "0.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["q"] for r in payload["records"]] == [0.2, 0.5, 0.8]
    assert all(r["gamma"] == 0.1 for r in payload["records"])


def test_sweep_out_of_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--param", "gamma", "--start", "0.5", "--stop", "1.5",
              "--count", "3"])  # stop leaves [0, 1) for dim 1
    assert exc.value.code == 2
    assert "stop: the swept gamma must lie in [0, 1)" in capsys.readouterr().err


def test_verify_ignores_singheat_jobs(monkeypatch, capsys):
    # the pool size is fixed; the environment variable that once set it is
    # not read, so a value that is not a number changes nothing
    monkeypatch.delenv("SINGHEAT_JOBS", raising=False)
    assert main(["verify", "--suite", "lambda-limit"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("SINGHEAT_JOBS", "abc")
    assert main(["verify", "--suite", "lambda-limit"]) == 0
    assert capsys.readouterr().out == plain


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "singheat.cli", "constants", "--gamma", "0.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eta0"] == 1.0


def test_commands_never_import_scipy(tmp_path):
    # scipy is only for the quadrature cross-checks, and numpy.random (6 MB
    # of RSS) only for tests: no command path loads either.  Nor does one
    # load concurrent.futures (with logging; verify's workers are plain
    # threads) or numpy.polynomial (Gauss-Legendre rules come from Newton's
    # method): each costs every command memory for code it never runs
    script = f"""
import sys
from singheat.cli import main
out = {str(tmp_path)!r}
assert main(["solve", "--gamma", "0.3", "--points", "32", "--half-width", "6",
             "--t-end", "0.25", "--n-schedule", "1,2", "--out", out + "/s.csv"]) == 0
assert main(["verify", "--suite", "lambda-limit,subsolution", "--json", out + "/v.json"]) == 0
assert main(["constants", "--gamma", "0.3", "--dim", "2"]) == 0
assert main(["gamma-star", "--q", "0.5"]) == 0
assert main(["sweep", "--param", "gamma", "--start", "0", "--stop", "0.4", "--count", "3"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
assert not loaded, loaded
loaded = sorted(m for m in sys.modules
                if m == "logging" or m.startswith(("concurrent.futures", "numpy.polynomial")))
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_never_call_lapack(tmp_path):
    # numpy.linalg's LAPACK routines fault in 1.2-1.4 MB of the BLAS
    # library's code on first call: Gauss-Legendre rules come from Newton's
    # method and the smoothing check's line from the closed-form least
    # squares, so no command calls one.  Each routine is replaced, before
    # singheat is imported, by a stub that raises
    script = f"""
import numpy.linalg._umath_linalg as lapack

def refuse(*args, **kwargs):
    raise AssertionError("a LAPACK routine was called")

for name in dir(lapack):
    if not name.startswith("_") and callable(getattr(lapack, name)):
        setattr(lapack, name, refuse)

from singheat.cli import main
out = {str(tmp_path)!r}
codes = [
    main(["solve", "--gamma", "0.3", "--points", "32", "--half-width", "6",
          "--t-end", "0.25", "--n-schedule", "1,2", "--out", out + "/s.csv"]),
    main(["verify", "--suite", "smoothing,subsolution", "--json", out + "/v.json"]),
    main(["constants", "--gamma", "0.3", "--dim", "2"]),
    main(["gamma-star", "--q", "0.5"]),
    main(["sweep", "--param", "gamma", "--start", "0", "--stop", "0.4", "--count", "3"]),
]
assert codes == [0] * 5, codes
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_start_no_thread(tmp_path):
    # verify runs its checks one after another on the calling thread, and no
    # other command starts a thread either, whatever the core count
    script = f"""
import os
import threading

os.cpu_count = lambda: 4

def refuse(self):
    raise AssertionError("a thread was started")

threading.Thread.start = refuse

from singheat.cli import main
out = {str(tmp_path)!r}
codes = [
    main(["solve", "--gamma", "0.3", "--points", "32", "--half-width", "6",
          "--t-end", "0.25", "--n-schedule", "1,2", "--out", out + "/s.csv"]),
    main(["verify", "--suite", "heaviside,smoothing,subsolution", "--json", out + "/v.json"]),
    main(["constants", "--gamma", "0.3", "--dim", "2"]),
    main(["gamma-star", "--q", "0.5"]),
    main(["sweep", "--param", "gamma", "--start", "0", "--stop", "0.4", "--count", "3"]),
]
assert codes == [0] * 5, codes
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads.  A read is a name in the
    code, in a string annotation or in __all__; an import marked
    `# noqa: F401` is kept for its side effect and not counted."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1] or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation, or an __all__ entry
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_source_modules_have_no_unused_imports():
    src = Path(__file__).resolve().parents[1] / "src" / "singheat"
    modules = sorted(src.glob("*.py"))
    assert modules
    unused = {p.name: _unused_imports(p) for p in modules}
    assert not {name: names for name, names in unused.items() if names}


def _private_definitions(tree: ast.Module) -> dict:
    """The private module-level functions, classes and constants of a module,
    the private methods of its classes and the private attributes stored on
    self, by name, with their (first) lines.  Dunders are not private."""
    found = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.setdefault(node.attr, node.lineno)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            found.update(
                (item.name, item.lineno) for item in node.body if isinstance(item, ast.FunctionDef)
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(
                (n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return {
        name: line
        for name, line in found.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


def test_source_modules_define_nothing_private_that_no_module_reads():
    # a read is a loaded name or attribute anywhere in src/, so a helper
    # that only its own definition or a docstring names is dead code
    src = Path(__file__).resolve().parents[1] / "src"
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.rglob("*.py"))}
    assert trees
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {
        f"{path.name}: {name} (line {line})"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert not unread

