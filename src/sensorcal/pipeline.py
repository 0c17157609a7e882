"""Orchestration: staged refinement, multi-frame input, sequence aggregation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import FrameSet, PointCloud
from .errors import EmptyListError, LengthMismatchError, MissingPairError, NoOverlapError
from .estimate import Estimator, EstimatorStage
from .loss import PAIR_NAMES, PredictionSet
from .perturb import ScenarioPreset, apply_miscalibration
from .transform import RigidTransform, _canonical_sign, apply, compose, invert

__all__ = [
    "RefinementResult",
    "accumulate_radar",
    "aggregate_sequence",
    "refine_multiframe",
    "sensor_corrections",
    "stages_from_preset",
]


def stages_from_preset(preset: ScenarioPreset, budget: int = 1600) -> tuple[EstimatorStage, ...]:
    return tuple(EstimatorStage(bounds=b, budget=budget) for b in preset.stages)


def sensor_corrections(
    preds: PredictionSet, frame: FrameSet
) -> tuple[RigidTransform, RigidTransform]:
    """Per-sensor miscalibration estimates implied by predicted edges.

    A predicted edge deviates from the frame's fixed calibration exactly by
    the miscalibration applied to the sensors it touches; with the camera
    never perturbed, the camera edges pin down one sensor each and the
    lidar-radar edge fills in whichever is left.
    """
    identity = RigidTransform.identity()
    lidar = identity
    if preds.cam_lidar is not None:
        lidar = compose(invert(preds.cam_lidar), frame.fixed.cam_lidar)
    if preds.radar_cam is not None:
        radar = compose(preds.radar_cam, invert(frame.fixed.radar_cam))
    elif preds.lidar_radar is not None:
        radar = invert(
            compose(compose(invert(frame.fixed.lidar_radar), invert(lidar)), preds.lidar_radar)
        )
    else:
        radar = identity
    return lidar, radar


@dataclass(frozen=True)
class RefinementResult:
    """Final estimate plus the per-stage bookkeeping behind it."""

    final: PredictionSet
    stage_predictions: tuple[PredictionSet, ...]
    corrections: tuple[tuple[RigidTransform, RigidTransform], ...]


def refine_multiframe(
    frames: Sequence[FrameSet],
    estimator: Estimator,
    stages: Sequence[EstimatorStage],
) -> RefinementResult:
    """Run the estimator stage by stage over rigidly-linked frames.

    The frames must share one miscalibration; one frame is a list of one.
    After every stage but the last, every frame is re-transformed by the
    inverse of that stage's implied sensor corrections, so the remaining
    miscalibration fits the next (tighter) stage box.  The final edges equal
    the left-to-right composition of all per-stage corrections.

    Every stage but the last reaches the estimator as
    ``replace(stage, final=False)``, so only the last stage races its
    multistarts' starts and stops its joint polish at 1e-5 (see
    ``EstimatorStage``): an earlier stage's output re-perturbs the frames,
    and moving it re-rolls the stages after it.
    """
    if not stages:
        raise ValueError("refinement needs at least one stage")

    identity = RigidTransform.identity()
    cur = list(frames)
    lidar_before = identity  # cumulative corrections applied so far
    radar_before = identity
    stage_predictions: list[PredictionSet] = []
    corrections: list[tuple[RigidTransform, RigidTransform]] = []
    for s, stage in enumerate(stages):
        if s + 1 < len(stages):
            stage = replace(stage, final=False)
        try:
            preds = estimator(cur, stage)
        except NoOverlapError as exc:
            raise NoOverlapError(f"stage {s}: {exc}") from exc
        m_lidar, m_radar = sensor_corrections(preds, cur[0])
        stage_predictions.append(preds)
        corrections.append((m_lidar, m_radar))
        if s + 1 < len(stages):
            cur = [
                apply_miscalibration(f, lidar_mis=invert(m_lidar), radar_mis=invert(m_radar))
                for f in cur
            ]
            lidar_before = compose(lidar_before, m_lidar)
            radar_before = compose(radar_before, m_radar)

    return RefinementResult(
        final=stage_predictions[-1].moved(lidar_before, radar_before),
        stage_predictions=tuple(stage_predictions),
        corrections=tuple(corrections),
    )


def _aggregate_quaternions(qs: np.ndarray, mode: str) -> np.ndarray:
    # Sign-align to the first quaternion so the component-wise statistic is
    # invariant to the double cover before renormalizing.  A quaternion
    # orthogonal to the first (half a turn away) is aligned by neither sign,
    # so every row takes its canonical sign first.
    qs = np.array([_canonical_sign(q) for q in qs])
    aligned = np.where((qs @ qs[0])[:, None] < 0.0, -qs, qs)
    return np.median(aligned, axis=0) if mode == "median" else np.mean(aligned, axis=0)


def aggregate_sequence(preds: Sequence[PredictionSet], mode: str = "median") -> PredictionSet:
    """Component-wise median (or mean) of per-frame predictions."""
    if mode not in ("median", "mean"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if not preds:
        raise EmptyListError("nothing to aggregate")
    out = PredictionSet()
    for name in PAIR_NAMES:
        values = [p.get(name) for p in preds]
        if all(v is None for v in values):
            continue
        if any(v is None for v in values):
            raise MissingPairError(f"pair {name} is missing from some predictions")
        qs = np.stack([v.q for v in values])
        ts = np.stack([v.t for v in values])
        q = _aggregate_quaternions(qs, mode)
        t = np.median(ts, axis=0) if mode == "median" else np.mean(ts, axis=0)
        out = out.with_pair(name, RigidTransform(q=q, t=t))
    return out


def accumulate_radar(
    clouds: Sequence[PointCloud],
    ego_poses: Sequence[RigidTransform],
    count: int = 5,
) -> PointCloud:
    """Ego-motion-compensated accumulation of the last ``count`` radar clouds.

    Every historical cloud is mapped into the newest frame through the
    relative ego pose and its time channel is stamped with the frame offset
    (0 = newest).  Lists are chronological, newest last.
    """
    if len(clouds) != len(ego_poses):
        raise LengthMismatchError(
            f"{len(clouds)} clouds vs {len(ego_poses)} ego poses"
        )
    if not clouds:
        raise EmptyListError("no clouds to accumulate")
    clouds = list(clouds[-count:])
    ego_poses = list(ego_poses[-count:])
    newest_inv = invert(ego_poses[-1])
    parts: list[PointCloud] = []
    for offset, (cloud, pose) in enumerate(zip(reversed(clouds), reversed(ego_poses))):
        if "time" not in cloud.schema:
            raise ValueError("accumulate_radar needs clouds with a 'time' channel")
        moved = apply(compose(newest_inv, pose), cloud)
        parts.append(moved.with_channel("time", np.full(len(moved), float(offset))))
    xyz = np.concatenate([p.xyz for p in parts])
    channels = np.concatenate([p.channels for p in parts])
    return PointCloud(xyz=xyz, channels=channels, schema=parts[0].schema)
