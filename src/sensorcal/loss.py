"""Calibration losses: parameter, point-cloud, pairwise, and loop losses.

Each pairwise loss blends a smooth-L1 parameter distance with a mean
point-displacement distance; the loop loss is the same blend between the
composed loop and the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from .data import PointCloud
from .errors import EmptyCloudError, MissingPairError
from .transform import (
    RigidTransform,
    compose,
    invert,
    quat_angular_distance,
    transform_points,
    translation_distance,
)

import numpy as np

__all__ = [
    "PAIR_NAMES",
    "LossWeights",
    "PredictionSet",
    "loop_loss",
    "loop_transform",
    "pairwise_loss",
    "param_loss",
    "point_loss",
    "smooth_l1",
]

PAIR_NAMES = ("cam_lidar", "lidar_radar", "radar_cam")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the objective.

    loop_weight balances pairwise vs loop terms, point_weight balances the
    point term inside each pairwise loss, rotation/translation weights scale
    the two halves of the parameter loss, and beta is the smooth-L1
    transition point.
    """

    loop_weight: float = 0.25
    point_weight: float = 0.5
    rotation_weight: float = 1.0
    translation_weight: float = 2.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loop_weight <= 1.0:
            raise ValueError("loop_weight must be in [0, 1]")
        if not 0.0 <= self.point_weight <= 1.0:
            raise ValueError("point_weight must be in [0, 1]")
        if self.rotation_weight <= 0.0 or self.translation_weight <= 0.0:
            raise ValueError("rotation/translation weights must be > 0")
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")


@dataclass(frozen=True)
class PredictionSet:
    """Pairwise transform estimates; entries may be absent in pairwise runs.

    cam_lidar maps lidar-frame points into the camera frame, lidar_radar
    radar points into the lidar frame, radar_cam camera points into the
    radar frame, so cam_lidar * lidar_radar * radar_cam is the loop.
    """

    cam_lidar: RigidTransform | None = None
    lidar_radar: RigidTransform | None = None
    radar_cam: RigidTransform | None = None

    def get(self, name: str) -> RigidTransform | None:
        if name not in PAIR_NAMES:
            raise KeyError(f"unknown pair {name!r}")
        return getattr(self, name)

    def present(self) -> Iterator[tuple[str, RigidTransform]]:
        for name in PAIR_NAMES:
            value = getattr(self, name)
            if value is not None:
                yield name, value

    def with_pair(self, name: str, value: RigidTransform) -> "PredictionSet":
        if name not in PAIR_NAMES:
            raise KeyError(f"unknown pair {name!r}")
        return replace(self, **{name: value})

    def moved(self, lidar: RigidTransform, radar: RigidTransform) -> "PredictionSet":
        """The edges after the lidar cloud moves by lidar and the radar cloud by radar.

        cam_lidar * lidar^-1, lidar * lidar_radar * radar^-1 and
        radar * radar_cam; absent pairs stay absent.
        """
        cl, lr, rc = self.cam_lidar, self.lidar_radar, self.radar_cam
        return PredictionSet(
            None if cl is None else compose(cl, invert(lidar)),
            None if lr is None else compose(compose(lidar, lr), invert(radar)),
            None if rc is None else compose(radar, rc),
        )


def smooth_l1(x: float, beta: float = 1.0) -> float:
    """0.5 x^2 / beta inside |x| < beta, |x| - beta/2 outside; C1 at the joint."""
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    ax = abs(float(x))
    if ax < beta:
        return 0.5 * ax * ax / beta
    return ax - 0.5 * beta


def param_loss(pred: RigidTransform, gt: RigidTransform, w: LossWeights) -> float:
    """Weighted smooth-L1 of the rotation geodesic angle and translation gap."""
    rot = smooth_l1(quat_angular_distance(pred.q, gt.q), w.beta)
    trans = smooth_l1(translation_distance(pred.t, gt.t), w.beta)
    return w.rotation_weight * rot + w.translation_weight * trans


def point_loss(pred: RigidTransform, gt: RigidTransform, cloud: PointCloud) -> float:
    """Mean L2 distance between the cloud transformed by pred and by gt."""
    if len(cloud) == 0:
        raise EmptyCloudError("point_loss needs at least one point")
    delta = transform_points(pred, cloud.xyz) - transform_points(gt, cloud.xyz)
    return float(np.mean(np.linalg.norm(delta, axis=1)))


def _pair_loss(
    pred: RigidTransform,
    gt: RigidTransform,
    cloud: PointCloud,
    w: LossWeights,
) -> float:
    return (1.0 - w.point_weight) * param_loss(pred, gt, w) + w.point_weight * point_loss(
        pred, gt, cloud
    )


def pairwise_loss(
    preds: PredictionSet,
    gts: PredictionSet,
    clouds: Mapping[str, PointCloud],
    w: LossWeights,
) -> float:
    """Sum of the per-pair blended losses over the pairs present in preds."""
    total = 0.0
    for name, pred in preds.present():
        gt = gts.get(name)
        if gt is None:
            raise MissingPairError(f"prediction {name} has no ground truth")
        if name not in clouds:
            raise MissingPairError(f"prediction {name} has no source cloud")
        total += _pair_loss(pred, gt, clouds[name], w)
    return total


def loop_transform(p: PredictionSet) -> RigidTransform:
    """cam_lidar * lidar_radar * radar_cam; identity iff the loop closes."""
    for name in PAIR_NAMES:
        if p.get(name) is None:
            raise MissingPairError(f"loop_transform requires {name}")
    return compose(compose(p.cam_lidar, p.lidar_radar), p.radar_cam)


def loop_loss(p: PredictionSet, loop_cloud: PointCloud, w: LossWeights) -> float:
    """Blended distance between the composed loop and the identity."""
    return _pair_loss(loop_transform(p), RigidTransform.identity(), loop_cloud, w)
