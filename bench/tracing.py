"""Per-layer spans around calls into sensorcal's public functions.

``Tracer.install`` replaces each traced function by a timing wrapper in the
module that looks it up at call time (``sensorcal.estimate.from_euler``, not
``sensorcal.transform.from_euler``), so nothing under ``src/`` changes.  Spans
are folded into per-layer totals in memory as they close: calls, busy
seconds, and self seconds (busy time minus the time of traced calls made
inside the span).  ``Tracer.metrics`` turns the totals into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

# (module that looks the name up, attribute, layer it is reported under)
SPANS = (
    ("sensorcal.estimate", "from_euler", "transform.from_euler"),
    ("sensorcal.perturb", "from_euler", "transform.from_euler"),
    ("sensorcal.estimate", "transform_points", "transform.transform_points"),
    ("sensorcal.transform", "transform_points", "transform.transform_points"),
    ("sensorcal.estimate", "compose", "transform.compose_invert"),
    ("sensorcal.estimate", "invert", "transform.compose_invert"),
    ("sensorcal.loss", "compose", "transform.compose_invert"),
    ("sensorcal.pipeline", "compose", "transform.compose_invert"),
    ("sensorcal.pipeline", "invert", "transform.compose_invert"),
    ("sensorcal.estimate", "equirect_range_pixels", "projection.equirect_range_pixels"),
    ("sensorcal.estimate", "project_equirect", "projection.project_equirect"),
    ("sensorcal.estimate", "unproject_pinhole", "projection.unproject_pinhole"),
    ("sensorcal.estimate", "alignment_cost", "estimate.alignment_cost"),
    ("sensorcal.estimate", "minimize", "estimate.minimize"),
    ("sensorcal.estimate", "estimate_multiframe", "estimate.estimate_multiframe"),
    ("sensorcal.estimate", "param_loss", "loss.param_loss"),
    ("sensorcal.estimate", "loop_transform", "loss.loop_transform"),
    ("sensorcal.pipeline", "apply_miscalibration", "perturb.apply_miscalibration"),
    ("sensorcal.cli", "apply_miscalibration", "perturb.apply_miscalibration"),
    ("sensorcal.cli", "refine_iterative", "pipeline.refine"),
    ("sensorcal.cli", "refine_multiframe", "pipeline.refine"),
    ("sensorcal.pipeline", "sensor_corrections", "pipeline.stage"),
    ("sensorcal.cli", "generate_scene", "dataio.generate_scene"),
    ("sensorcal.cli", "save_frame", "dataio.save_frame"),
    ("sensorcal.cli", "load_frame", "dataio.load_frame"),
)

# Nelder-Mead phases, told apart by the dimension of the start point: one
# edge has 6 Euler-pose coordinates, the joint polish all 18.
EDGE_DIM = 6
SCREEN = "estimate.screen"  # cost calls made outside any minimize call
NM_PHASES = {EDGE_DIM: "estimate.edge_nm", 3 * EDGE_DIM: "estimate.polish"}


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Totals of the spans of one benchmark run, plus the layer counters."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.counts: dict[str, float] = {}
        self._open: list[float] = []  # child seconds of each open span
        self._phase = SCREEN
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _close(self, layer: Layer, t0: float) -> float:
        dt = perf_counter() - t0
        child = self._open.pop()
        layer.calls += 1
        layer.s += dt
        layer.self_s += dt - child
        if self._open:
            self._open[-1] += dt
        return dt

    def _wrap(self, name: str, fn):
        if name == "estimate.minimize":
            return self._wrap_minimize(fn)
        layer = self.layers.setdefault(name, Layer())
        is_cost = name == "estimate.alignment_cost"
        is_pixels = name == "projection.equirect_range_pixels"

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self._close(layer, t0)
                if is_cost:
                    self._add("estimate.alignment_cost.points", len(args[0]))
                    self._add(self._phase + ".evals", 1)
                    if self._phase == SCREEN:
                        self._add(SCREEN + ".s", dt)
                elif is_pixels:
                    self._add(name + ".points", len(args[0]))

        return traced

    def _wrap_minimize(self, fn):
        def traced(cost_fn, x0, *args, **kwargs):
            phase = NM_PHASES[len(x0)]
            layer = self.layers.setdefault(phase, Layer())
            if len(x0) == EDGE_DIM and kwargs["options"]["maxfev"] <= EDGE_DIM + 1:
                self._add(phase + ".starved_calls", 1)
            outer, self._phase = self._phase, phase
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(cost_fn, x0, *args, **kwargs)
            finally:
                self._close(layer, t0)
                self._phase = outer

        return traced

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self, calibrations: int, setups: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per calibration, or per set-up for the dataio writers."""

        def layer(name: str) -> Layer:
            return self.layers.get(name, Layer())

        def count(key: str) -> float:
            return self.counts.get(key, 0.0)

        def per_cal(value: float) -> float:
            return value / calibrations

        cost = layer("estimate.alignment_cost")
        pixels = layer("projection.equirect_range_pixels")
        out = {
            "transform.from_euler.calls": (per_cal(layer("transform.from_euler").calls), "count"),
            "transform.from_euler.s": (per_cal(layer("transform.from_euler").s), "s"),
            "transform.transform_points.s": (per_cal(layer("transform.transform_points").s), "s"),
            "transform.compose_invert.calls": (per_cal(layer("transform.compose_invert").calls), "count"),
            "transform.compose_invert.s": (per_cal(layer("transform.compose_invert").s), "s"),
            "projection.equirect_range_pixels.s": (per_cal(pixels.s), "s"),
            "projection.equirect_range_pixels.ns_per_point": (
                1e9 * pixels.s / max(count("projection.equirect_range_pixels.points"), 1.0), "ns"),
            "projection.project_equirect.calls": (per_cal(layer("projection.project_equirect").calls), "count"),
            "projection.project_equirect.s": (per_cal(layer("projection.project_equirect").s), "s"),
            "projection.unproject_pinhole.s": (per_cal(layer("projection.unproject_pinhole").s), "s"),
            "estimate.alignment_cost.calls": (per_cal(cost.calls), "count"),
            "estimate.alignment_cost.s": (per_cal(cost.s), "s"),
            "estimate.alignment_cost.us_per_call": (1e6 * cost.s / max(cost.calls, 1), "us"),
            "estimate.alignment_cost.points_per_call": (
                count("estimate.alignment_cost.points") / max(cost.calls, 1), "count"),
            "estimate.screen.evals": (per_cal(count(SCREEN + ".evals")), "count"),
            "estimate.screen.s": (per_cal(count(SCREEN + ".s")), "s"),
            "estimate.edge_nm.calls": (per_cal(layer("estimate.edge_nm").calls), "count"),
            "estimate.edge_nm.evals": (per_cal(count("estimate.edge_nm.evals")), "count"),
            "estimate.edge_nm.s": (per_cal(layer("estimate.edge_nm").s), "s"),
            "estimate.edge_nm.starved_calls": (per_cal(count("estimate.edge_nm.starved_calls")), "count"),
            "estimate.polish.evals": (per_cal(count("estimate.polish.evals")), "count"),
            "estimate.polish.s": (per_cal(layer("estimate.polish").s), "s"),
            "estimate.estimate_multiframe.calls": (per_cal(layer("estimate.estimate_multiframe").calls), "count"),
            "estimate.estimate_multiframe.s": (per_cal(layer("estimate.estimate_multiframe").s), "s"),
            "estimate.estimate_multiframe.self_s": (per_cal(layer("estimate.estimate_multiframe").self_s), "s"),
            "loss.param_loss.s": (per_cal(layer("loss.param_loss").s), "s"),
            "loss.loop_transform.s": (per_cal(layer("loss.loop_transform").s), "s"),
            "perturb.apply_miscalibration.calls": (per_cal(layer("perturb.apply_miscalibration").calls), "count"),
            "perturb.apply_miscalibration.s": (per_cal(layer("perturb.apply_miscalibration").s), "s"),
            "pipeline.refine.s": (per_cal(layer("pipeline.refine").s), "s"),
            "pipeline.stages": (per_cal(layer("pipeline.stage").calls), "count"),
            "dataio.generate_scene.s": (layer("dataio.generate_scene").s / setups, "s"),
            "dataio.save_frame.s": (layer("dataio.save_frame").s / setups, "s"),
            "dataio.load_frame.s": (per_cal(layer("dataio.load_frame").s), "s"),
        }
        return out
