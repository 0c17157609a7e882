"""Orchestration: staged refinement, multi-frame input, sequence aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FrameSet, PointCloud
from .errors import EmptyListError, LengthMismatchError, MissingPairError, NoOverlapError
from .estimate import Estimator, EstimatorStage
from .loss import PAIR_NAMES, PredictionSet
from .perturb import ScenarioPreset, apply_miscalibration
from .transform import RigidTransform, apply, compose, invert

__all__ = [
    "RefinementResult",
    "accumulate_radar",
    "aggregate_sequence",
    "refine_iterative",
    "refine_iterative_detailed",
    "refine_multiframe",
    "sensor_corrections",
    "stages_from_preset",
]


def stages_from_preset(
    preset: ScenarioPreset, budget: int = 1600, tolerance: float = 1e-5
) -> tuple[EstimatorStage, ...]:
    return tuple(EstimatorStage(bounds=b, budget=budget, tolerance=tolerance) for b in preset.stages)


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
        lidar = compose(invert(preds.cam_lidar), frame.fixed_cam_lidar)
    if preds.radar_cam is not None:
        radar = compose(preds.radar_cam, invert(frame.fixed_radar_cam))
    elif preds.lidar_radar is not None:
        radar = invert(
            compose(compose(invert(frame.fixed_lidar_radar), invert(lidar)), preds.lidar_radar)
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
    lidar_total: RigidTransform
    radar_total: RigidTransform


def _refine_group(
    frames: Sequence[FrameSet],
    estimate_stage,
    stages: Sequence[EstimatorStage] | ScenarioPreset,
) -> RefinementResult:
    """Shared staged-refinement loop over a group of rigidly-linked frames.

    estimate_stage is (frames, stage) -> PredictionSet; corrections derived
    from each stage's predictions are applied to every frame in the group.
    """
    if isinstance(stages, ScenarioPreset):
        stages = stages_from_preset(stages)
    if not stages:
        raise ValueError("refinement needs at least one stage")

    identity = RigidTransform.identity()
    cur = list(frames)
    lidar_before = identity  # cumulative corrections applied so far
    radar_before = identity
    stage_predictions: list[PredictionSet] = []
    corrections: list[tuple[RigidTransform, RigidTransform]] = []
    for s, stage in enumerate(stages):
        try:
            preds = estimate_stage(cur, stage)
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

    last = stage_predictions[-1]
    final = PredictionSet()
    if last.cam_lidar is not None:
        final = final.with_pair("cam_lidar", compose(last.cam_lidar, invert(lidar_before)))
    if last.lidar_radar is not None:
        final = final.with_pair(
            "lidar_radar", compose(compose(lidar_before, last.lidar_radar), invert(radar_before))
        )
    if last.radar_cam is not None:
        final = final.with_pair("radar_cam", compose(radar_before, last.radar_cam))
    m_lidar, m_radar = corrections[-1]
    return RefinementResult(
        final=final,
        stage_predictions=tuple(stage_predictions),
        corrections=tuple(corrections),
        lidar_total=compose(lidar_before, m_lidar),
        radar_total=compose(radar_before, m_radar),
    )


def refine_iterative_detailed(
    frame: FrameSet,
    estimator: Estimator,
    stages: Sequence[EstimatorStage] | ScenarioPreset,
) -> RefinementResult:
    """Run the estimator stage by stage, shrinking the residual each time.

    After every stage but the last, the clouds are re-transformed by the
    inverse of that stage's implied sensor corrections, so the remaining
    miscalibration fits the next (tighter) stage box.  The final edges equal
    the left-to-right composition of all per-stage corrections.
    """
    return _refine_group([frame], lambda frames, stage: estimator(frames[0], stage), stages)


def refine_iterative(
    frame: FrameSet,
    estimator: Estimator,
    stages: Sequence[EstimatorStage] | ScenarioPreset,
) -> PredictionSet:
    return refine_iterative_detailed(frame, estimator, stages).final


def refine_multiframe(
    frames: Sequence[FrameSet],
    estimate_stage,
    stages: Sequence[EstimatorStage] | ScenarioPreset,
) -> PredictionSet:
    """Staged refinement where each stage estimates over all frames at once.

    estimate_stage is (frames, stage) -> PredictionSet, typically a binding
    of estimate_multiframe; the frames must share one miscalibration.
    """
    return _refine_group(frames, estimate_stage, stages).final


def _aggregate_quaternions(qs: np.ndarray, mode: str) -> np.ndarray:
    # Sign-align to the first quaternion so the component-wise statistic is
    # invariant to the double cover before renormalizing.
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
