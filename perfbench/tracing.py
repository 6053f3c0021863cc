"""Span tracing of the singheat layers from outside the package.

The traced run replaces each layer's public entry points with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began (its parent).  Spans are kept in memory, as one event list
per thread, and written out when the run ends.  A span's self time is its
duration minus the durations of its children; a layer's self time is the sum
over its spans, so on a single thread the layer self times add up to the
duration of the root span.

Each wrapper replaces the original everywhere a module of the package holds a
reference to it, so a caller that imported the name directly (``verify``
imports ``apply_heat`` and ``monotone_solve`` by name) is traced as well.  An
entry point that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import sys
import threading
import time

PACKAGE = "singheat"

# The package modules, in dependency order: importing them one by one in this
# order attributes each one's import cost to it alone.
LAYERS = ("fields", "semigroup", "constants", "scheme", "verify", "cli")


def staged_import() -> dict:
    """Import the package one layer at a time; returns seconds per layer.

    The package ``__init__`` imports every module at once, so it is run last,
    after the layers are already loaded.  A layer that does not exist maps to
    None.
    """
    clock = time.perf_counter
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None:
        raise ModuleNotFoundError(f"package {PACKAGE!r} is not importable")
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[PACKAGE] = pkg
    out: dict = {}
    for layer in LAYERS:
        full = f"{PACKAGE}.{layer}"
        t0 = clock()
        try:
            importlib.import_module(full)
        except ModuleNotFoundError as exc:
            if exc.name != full:
                raise
            out[layer] = None
            continue
        out[layer] = clock() - t0
    t0 = clock()
    spec.loader.exec_module(pkg)
    out["__init__"] = clock() - t0
    return out


class Recorder:
    """Holds every span of one run, across threads.

    Each thread appends to its own flat event list: ``name_id, start`` when a
    call enters and ``-1, end, payload`` when it leaves.  Calls nest on a
    thread, so the spans and their parents are rebuilt from that order when
    the run ends.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._local = threading.local()
        self._events: list = []  # one event list per thread
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = len(self.names)
                self.names.append(name)
                self._ids[name] = nid
            return nid

    def _thread_events(self) -> list:
        events: list = []
        with self._lock:
            self._events.append(events)
        self._local.events = events
        return events

    def wrap(self, fn, name: str, payload=None):
        """Wrapper of ``fn`` that records a span named ``name`` per call.

        ``payload(args, result)``, if given, returns a number or a small dict
        stored with the span; it runs after the span has ended, and not when
        ``fn`` raises.  A payload that no longer fits the call is dropped.
        """
        nid = self.name_id(name)
        local = self._local
        thread_events = self._thread_events
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ev = local.events
            except AttributeError:
                ev = thread_events()
            ev.append(nid)
            ev.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ev.append(-1)
                ev.append(clock())
                ev.append(None)
                raise
            t_end = clock()
            load = None
            if payload is not None:
                try:
                    load = payload(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the entry point's signature changed; keep the span
            ev.append(-1)
            ev.append(t_end)
            ev.append(load)
            return result

        return wrapper

    def spans(self):
        """Every span as numpy arrays (name, parent, start, end, value,
        thread), with parents as global indices, and the dict payloads."""
        import numpy as np

        name, parent, start, end, value, thread = [], [], [], [], [], []
        notes: dict = {}
        for tid, ev in enumerate(self._events):
            stack: list = []
            i, n = 0, len(ev)
            while i < n:
                code = ev[i]
                if code >= 0:
                    stack_top = stack[-1] if stack else -1
                    stack.append(len(name))
                    name.append(code)
                    parent.append(stack_top)
                    start.append(ev[i + 1])
                    end.append(ev[i + 1])  # set on exit; equal if never exited
                    value.append(0.0)
                    thread.append(tid)
                    i += 2
                else:
                    idx = stack.pop()
                    end[idx] = ev[i + 1]
                    load = ev[i + 2]
                    if isinstance(load, dict):
                        notes[idx] = load
                    elif load is not None:
                        value[idx] = float(load)
                    i += 3
        out = {
            "name": np.array(name, dtype=np.int64),
            "parent": np.array(parent, dtype=np.int64),
            "start": np.array(start, dtype=np.float64),
            "end": np.array(end, dtype=np.float64),
            "value": np.array(value, dtype=np.float64),
            "thread": np.array(thread, dtype=np.int64),
        }
        return out, notes


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _apply_bytes(args, result) -> float:
    # field read plus field written, from the array sizes
    return float(args[1].nbytes + result.nbytes)


def _entry_bytes(args, result) -> float:
    return float(getattr(result, "nbytes", 0))


def _text_len(args, result) -> float:
    return float(len(args[1]))


def _picard_note(args, result) -> dict:
    diag = getattr(result, "diagnostics", {}) or {}
    return {"windows": diag.get("windows", 0), "sweeps": diag.get("total_sweeps", 0)}


def _check_note(args, result) -> dict:
    return {"passed": bool(getattr(result, "passed", False))}


# (span name, module, attribute path, payload)
ENTRY_POINTS = (
    ("fields.weight_field", "fields", "weight_field", None),
    ("semigroup.apply", "semigroup", "HeatPropagator.apply_heat_values", _apply_bytes),
    ("semigroup.kernel", "semigroup", "HeatPropagator._kernel_entry", _entry_bytes),
    ("semigroup.kernel_samples", "semigroup", "HeatPropagator._axis_samples", None),
    ("scheme.monotone_solve", "scheme", "monotone_solve", None),
    ("scheme.picard", "scheme", "picard_solve", _picard_note),
    ("scheme.rule", "scheme", "duhamel_rule", None),
    ("scheme.source", "scheme", "Nonlinearity.__call__", None),
    ("scheme.csv", "scheme", "Trajectory.to_csv_text", None),
    ("verify.run_suite", "verify", "run_suite", None),
    ("cli.main", "cli", "main", None),
    ("cli.parse", "cli", "parse_config", None),
    ("cli.write", "cli", "_atomic_write_text", _text_len),
)

# Which workloads must record at least one span of each entry point.  The
# verify workload runs no ladder check, so it does not reach the ladder itself;
# ladder-exact has gamma = 0, so it needs no weight field.
SOLVES = ("ladder-exact",)
ALL = SOLVES + ("verify",)
EXPECTED = {
    "fields.weight_field": ("verify",),
    "semigroup.apply": ALL,
    "semigroup.kernel": ALL,
    "semigroup.kernel_samples": ALL,
    "scheme.monotone_solve": SOLVES,
    "scheme.picard": SOLVES,
    "scheme.rule": ALL,
    "scheme.source": SOLVES,
    "scheme.csv": SOLVES,
    "verify.run_suite": ("verify",),
    "verify.check": ("verify",),
    "constants": ALL,
    "cli.main": ALL,
    "cli.parse": ALL,
    "cli.write": ALL,
}


def coverage(workload: str, present: dict, by_name: dict, checks) -> dict:
    """Entry points that no longer exist (absent), and those that exist but
    recorded no span on a workload meant to exercise them (uncovered);
    ``checks`` are the suite keys the workload runs, each traced under its own
    span name ``verify.check.<key>``."""
    absent = sorted(k for k, ok in present.items() if not ok)
    uncovered = []
    for key, wls in EXPECTED.items():
        if workload not in wls or key in absent:
            continue
        if key == "verify.check":
            names = [f"verify.check.{c}" for c in checks]
        elif key == "constants":
            names = [n for n in by_name if n.startswith("constants.")]
            if not any(by_name[n]["calls"] for n in names):
                uncovered.append(key)
            continue
        else:
            names = [key]
        uncovered += [n for n in names if by_name.get(n, {}).get("calls", 0) == 0]
    return {"absent": absent, "uncovered": uncovered}


def _package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def _rebind(original, replacement) -> None:
    """Point every package-module global that holds ``original`` at ``replacement``."""
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _install_one(rec: Recorder, span: str, module: str, path: str, payload) -> bool:
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    if mod is None:
        return False
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if not callable(raw):
            return False
        setattr(owner, attr, rec.wrap(raw, span, payload))
        return True
    fn = getattr(mod, attr, None)
    if not callable(fn):
        return False
    _rebind(fn, rec.wrap(fn, span, payload))
    return True


def install(rec: Recorder) -> dict:
    """Wrap every entry point; returns {span name or group: present?}."""
    present = {}
    for span, module, path, payload in ENTRY_POINTS:
        present[span] = _install_one(rec, span, module, path, payload)

    # every public function of the constants layer
    const = sys.modules.get(f"{PACKAGE}.constants")
    names = [n for n in getattr(const, "__all__", ()) if callable(getattr(const, n, None))
             and not isinstance(getattr(const, n), type)]
    for n in names:
        _install_one(rec, f"constants.{n}", "constants", n, None)
    present["constants"] = bool(names)

    # one span per suite check, named by its suite key
    verify = sys.modules.get(f"{PACKAGE}.verify")
    suite_fn = getattr(verify, "default_suite", None)
    present["verify.check"] = callable(suite_fn)
    if callable(suite_fn):
        @functools.wraps(suite_fn)
        def traced_suite(*args, **kwargs):
            suite = suite_fn(*args, **kwargs)
            return {key: rec.wrap(fn, f"verify.check.{key}", _check_note)
                    for key, fn in suite.items()}

        _rebind(suite_fn, traced_suite)
    return present


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

def summarize(rec: Recorder, path: str) -> dict:
    """Write every span to ``path`` (numpy .npz) and summarize them: per-name
    calls, inclusive and self seconds and payload sums, per-layer self
    seconds, and the figures derived from the span tree."""
    import numpy as np

    sp, notes = rec.spans()
    np.savez(path, names=np.array(rec.names), **sp)
    n_names = len(rec.names)
    dur = sp["end"] - sp["start"]
    parent = sp["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child_time
    name = sp["name"]
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name, weights=dur, minlength=n_names)
    selfs = np.bincount(name, weights=self_t, minlength=n_names)
    value = np.bincount(name, weights=sp["value"], minlength=n_names)
    by_name = {
        nm: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i]),
             "value": float(value[i])}
        for i, nm in enumerate(rec.names)
    }

    layer_self = {layer: 0.0 for layer in LAYERS}
    for nm, row in by_name.items():
        layer = nm.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]

    # kernel builds: sampling calls made from inside a cache lookup
    ids = {nm: i for i, nm in enumerate(rec.names)}
    builds = 0
    cache_bytes = 0.0
    k_id, s_id = ids.get("semigroup.kernel"), ids.get("semigroup.kernel_samples")
    if k_id is not None and s_id is not None:
        built = parent[(name == s_id) & has_parent]
        built = np.unique(built[name[built] == k_id])
        builds = int(built.size)
        cache_bytes = float(sp["value"][built].sum())

    windows = sweeps = 0
    p_id = ids.get("scheme.picard")
    checks_failed = 0
    check_threads = set()
    for idx, nt in notes.items():
        nm = rec.names[name[idx]]
        if nm == "scheme.picard":
            windows += int(nt.get("windows", 0))
            sweeps += int(nt.get("sweeps", 0))
    check_ids = [i for nm, i in ids.items() if nm.startswith("verify.check.")]
    for i in np.flatnonzero(np.isin(name, check_ids)):
        check_threads.add(int(sp["thread"][i]))
        if not notes.get(int(i), {}).get("passed", False):
            checks_failed += 1

    return {
        "spans": int(dur.size),
        "by_name": by_name,
        "layer_self_s": layer_self,
        "kernel_builds": builds,
        "cache_bytes": cache_bytes,
        "levels": int(calls[p_id]) if p_id is not None else 0,
        "windows": windows,
        "sweeps": sweeps,
        "checks_failed": checks_failed,
        "check_workers": len(check_threads),
    }

