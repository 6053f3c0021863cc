"""The benchmark's span tracer names entry points of the package by attribute
path; each one must still resolve, or its layer would be reported absent
instead of failing a test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_ENTRY_POINTS = _tracing().ENTRY_POINTS


@pytest.mark.parametrize(
    "span,module,path", [entry[:3] for entry in _ENTRY_POINTS], ids=[e[0] for e in _ENTRY_POINTS]
)
def test_traced_entry_point_resolves(span, module, path):
    mod = importlib.import_module(f"singheat.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # the tracer wraps the attribute the class itself defines
        owner = getattr(mod, owner_name)
        assert isinstance(owner, type), f"{span}: {module}.{owner_name} is not a class"
        assert callable(vars(owner).get(attr)), f"{span}: {path} is not defined on its class"
    else:
        assert callable(getattr(mod, attr, None)), f"{span}: {module}.{attr} is missing"


def test_every_traced_layer_is_a_package_module():
    layers = _tracing().LAYERS
    assert {module for _, module, _, _ in _ENTRY_POINTS} <= set(layers)
    for layer in layers:
        importlib.import_module(f"singheat.{layer}")
