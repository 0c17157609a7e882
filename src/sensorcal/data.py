"""Point-cloud and multi-sensor frame containers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .transform import RigidTransform

if TYPE_CHECKING:
    from .projection import ProjectionConfig

__all__ = ["LIDAR_CHANNELS", "RADAR_CHANNELS", "FrameSet", "PointCloud"]

LIDAR_CHANNELS = ("intensity",)
RADAR_CHANNELS = ("rcs", "velocity", "time")


@dataclass(frozen=True)
class PointCloud:
    """N points of (x, y, z) in meters plus named per-point channels.

    xyz is (N, 3) and channels is (N, len(schema)); rows correspond.
    """

    xyz: np.ndarray
    channels: np.ndarray
    schema: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        if len(self.schema) == 0:
            channels = np.zeros((xyz.shape[0], 0))
        else:
            channels = np.asarray(self.channels, dtype=float).reshape(-1, len(self.schema))
        if channels.shape[0] != xyz.shape[0]:
            raise ValueError(
                f"channel rows ({channels.shape[0]}) != point rows ({xyz.shape[0]})"
            )
        if xyz.size and not np.all(np.isfinite(xyz)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "schema", tuple(self.schema))

    @classmethod
    def bare(cls, xyz) -> "PointCloud":
        """A cloud with spatial coordinates only."""
        xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
        return cls(xyz=xyz, channels=np.zeros((xyz.shape[0], 0)), schema=())

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def channel(self, name: str) -> np.ndarray:
        return self.channels[:, self.schema.index(name)]

    def with_channel(self, name: str, values) -> "PointCloud":
        values = np.asarray(values, dtype=float).reshape(len(self))
        channels = self.channels.copy()
        channels[:, self.schema.index(name)] = values
        return replace(self, channels=channels)

    def without_channels(self) -> "PointCloud":
        return PointCloud.bare(self.xyz)

    def subset(self, index) -> "PointCloud":
        return replace(self, xyz=self.xyz[index], channels=self.channels[index])


def _identity() -> RigidTransform:
    return RigidTransform.identity()


@dataclass(frozen=True)
class FrameSet:
    """One synchronized multi-sensor frame.

    The fixed_* transforms are the unperturbed ground-truth pairwise
    calibrations (cam<-lidar, lidar<-radar, radar<-cam as point maps); they
    always compose to the identity around the loop.  lidar_mis / radar_mis
    record the miscalibration currently applied to the stored clouds
    (identity when the frame is clean).
    """

    index: int
    camera_depth: np.ndarray
    camera_config: "ProjectionConfig"
    lidar: PointCloud
    radar: PointCloud
    fixed_cam_lidar: RigidTransform
    fixed_lidar_radar: RigidTransform
    fixed_radar_cam: RigidTransform
    lidar_mis: RigidTransform = field(default_factory=_identity)
    radar_mis: RigidTransform = field(default_factory=_identity)
