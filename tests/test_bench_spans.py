"""The benchmark's tracer wraps package functions by name; every name must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_span_resolves_in_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.SPANS and missing == []
