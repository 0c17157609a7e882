"""The benchmark's tracer wraps package functions by name; every name must
exist, and the layers it reports must see the package's real calls."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sensorcal.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_the_package(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.SPANS and missing == []


def test_traced_joint_calibration_sees_every_pose_and_the_loop(tracing, tmp_path):
    frames, out = str(tmp_path / "frames"), str(tmp_path / "out")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["gen-scene", "--out", frames, "--seed", "7"]) == 0
        assert main(
            ["calibrate", "--frames", frames, "--out", out, "--scenario", "small", "--budget", "50"]
        ) == 0
    finally:
        tracer.uninstall()
    layers = tracer.layers
    # every cost call scores at least one candidate pose built by from_euler
    assert layers["transform.from_euler"].calls >= layers["estimate.alignment_cost"].calls > 0
    assert layers["loss.loop_transform"].calls >= 1
