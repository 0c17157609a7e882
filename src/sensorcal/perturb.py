"""Synthetic miscalibration: bounded sampling and application to frames."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import FrameSet
from .transform import EulerPose, RigidTransform, apply, compose, from_euler

__all__ = [
    "MiscalBounds",
    "PRESETS",
    "ScenarioPreset",
    "apply_miscalibration",
    "sample_miscalibration",
]


@dataclass(frozen=True)
class MiscalBounds:
    """Per-axis half-widths of the miscalibration box."""

    max_translation: float  # meters, per axis
    max_rotation: float  # radians, per axis

    def __post_init__(self) -> None:
        for bound in (self.max_translation, self.max_rotation):
            if not (math.isfinite(bound) and bound >= 0.0):
                raise ValueError(f"bounds must be finite and >= 0, got {bound}")


@dataclass(frozen=True)
class ScenarioPreset:
    """Named cascade of miscalibration bounds, strictly shrinking after stage 1."""

    name: str
    stages: tuple[MiscalBounds, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a preset needs at least one stage")
        for prev, cur in zip(self.stages, self.stages[1:]):
            if not (
                cur.max_translation < prev.max_translation
                and cur.max_rotation < prev.max_rotation
            ):
                raise ValueError(f"stage bounds must strictly decrease in {self.name!r}")


_REFINE_STAGES = (
    MiscalBounds(1.0, math.radians(20.0)),
    MiscalBounds(0.5, math.radians(5.0)),
    MiscalBounds(0.2, math.radians(1.0)),
    MiscalBounds(0.05, math.radians(0.5)),
)

PRESETS = {
    "small": ScenarioPreset("small", (MiscalBounds(0.2, math.radians(1.0)),)),
    "refine": ScenarioPreset("refine", _REFINE_STAGES),
    "full": ScenarioPreset("full", (MiscalBounds(2.0, math.radians(180.0)),) + _REFINE_STAGES),
}


def sample_miscalibration(bounds: MiscalBounds, rng: np.random.Generator) -> RigidTransform:
    """Uniform per-axis draw inside the box, as a single rigid transform.

    Draw order is fixed (roll, pitch, yaw, tx, ty, tz) so a seeded generator
    reproduces the same transform.
    """
    rot = rng.uniform(-bounds.max_rotation, bounds.max_rotation, size=3)
    trans = rng.uniform(-bounds.max_translation, bounds.max_translation, size=3)
    return from_euler(
        EulerPose(roll=rot[0], pitch=rot[1], yaw=rot[2], tx=trans[0], ty=trans[1], tz=trans[2])
    )


def apply_miscalibration(
    frame: FrameSet,
    lidar_mis: RigidTransform | None = None,
    radar_mis: RigidTransform | None = None,
) -> FrameSet:
    """Transform the lidar/radar clouds in place of their sensors.

    The recorded miscalibration composes with whatever the frame already
    carries, so ground truth stays recoverable after repeated perturbation or
    correction.  The camera depth image is never touched.
    """
    updates = {}
    if lidar_mis is not None:
        updates["lidar"] = apply(lidar_mis, frame.lidar)
        updates["lidar_mis"] = compose(lidar_mis, frame.lidar_mis)
    if radar_mis is not None:
        updates["radar"] = apply(radar_mis, frame.radar)
        updates["radar_mis"] = compose(radar_mis, frame.radar_mis)
    if not updates:
        return frame
    return replace(frame, **updates)
