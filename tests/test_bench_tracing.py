"""The benchmark tracer's contract with the library it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_function_exists(monkeypatch):
    """``Tracer.install`` looks up each ``(module, function)`` of
    ``LAYER_FUNCTIONS`` by name, so a renamed layer function would break
    only the traced benchmark runs."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    assert tracing.LAYER_FUNCTIONS
    for mod_name, fn_name in tracing.LAYER_FUNCTIONS:
        module = importlib.import_module(f"pulsenet.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
