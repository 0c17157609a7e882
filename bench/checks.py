"""Property checks on the outputs of one ``sensorcal calibrate`` run.

Everything here is plain numpy written for the benchmark: it reads the CSV
and calibration text files a run leaves behind and never calls into
``sensorcal``, so a fault in the program's own error arithmetic cannot hide
itself.  A calibration passes when

* each error in ``errors.csv`` matches a recomputation from
  ``predictions.csv`` to ``ERROR_TOLERANCE``;
* the ground-truth edges close the camera -> lidar -> radar loop, and their
  deviation from ``calib.txt`` is explained by one lidar and one radar
  miscalibration inside the scenario's first-stage box;
* the predicted edges close the same loop (the joint estimator's contract);
* every error is below the half-width of the first-stage box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAIRS = ("cam_lidar", "lidar_radar", "radar_cam")
ERROR_TOLERANCE = 1e-6  # absolute below 1, relative above: errors.csv keeps 9 digits
LOOP_TOLERANCE = 1e-9  # radians and meters
BOX_SLACK = 1e-9  # rounding slack on the box test, radians and meters


@dataclass(frozen=True)
class Box:
    """First-stage miscalibration box: per-axis half-widths."""

    max_rotation_deg: float
    max_translation_m: float


@dataclass(frozen=True)
class Row:
    run: int
    frame: int
    pair: str
    pred: np.ndarray  # 4x4 homogeneous matrix
    gt: np.ndarray


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion, normalized first."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def homogeneous(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


def inverse(m: np.ndarray) -> np.ndarray:
    r = m[:3, :3]
    return homogeneous(r.T, -r.T @ m[:3, 3])


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix in radians.

    atan2 of the axis-vector norm and the trace term stays accurate at
    small angles, where the arccos of the trace alone loses half its digits.
    """
    v = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return math.atan2(float(np.linalg.norm(v)), 0.5 * (float(np.trace(r)) - 1.0))


def euler_zyx(r: np.ndarray) -> np.ndarray:
    """(roll, pitch, yaw) of r = Rz(yaw) @ Ry(pitch) @ Rx(roll), in radians."""
    pitch = math.asin(max(-1.0, min(1.0, -r[2, 0])))
    roll = math.atan2(r[2, 1], r[2, 2])
    yaw = math.atan2(r[1, 0], r[0, 0])
    return np.array([roll, pitch, yaw])


def pair_error(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(rotation error in degrees, translation error in centimeters)."""
    rot = math.degrees(rotation_angle(pred[:3, :3].T @ gt[:3, :3]))
    trans = 100.0 * float(np.linalg.norm(pred[:3, 3] - gt[:3, 3]))
    return rot, trans


def read_predictions(path: Path) -> list[Row]:
    lines = path.read_text(encoding="ascii").splitlines()
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        values = np.array([float(v) for v in parts[3:17]])
        pred = homogeneous(quat_matrix(values[0:4]), values[4:7])
        gt = homogeneous(quat_matrix(values[7:11]), values[11:14])
        rows.append(Row(int(parts[0]), int(parts[1]), parts[2], pred, gt))
    return rows


def read_errors(path: Path) -> list[tuple[str, float, float]]:
    lines = path.read_text(encoding="ascii").splitlines()
    out = []
    for line in lines[1:]:
        pair, rot, trans = line.split(",")
        out.append((pair, float(rot), float(trans)))
    return out


def read_calib(path: Path) -> dict[str, np.ndarray]:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, rest = line.partition(":")
        m = np.array([float(v) for v in rest.split()]).reshape(3, 4)
        out[key.strip()] = homogeneous(m[:, :3], m[:, 3])
    return out


def loop_residual(edges: dict[str, np.ndarray]) -> tuple[float, float]:
    """(angle in radians, offset in meters) of cam_lidar @ lidar_radar @ radar_cam."""
    loop = edges["cam_lidar"] @ edges["lidar_radar"] @ edges["radar_cam"]
    return rotation_angle(loop[:3, :3]), float(np.linalg.norm(loop[:3, 3]))


def in_box(mis: np.ndarray, box: Box) -> bool:
    rot = np.abs(euler_zyx(mis[:3, :3]))
    trans = np.abs(mis[:3, 3])
    return bool(
        np.all(rot <= math.radians(box.max_rotation_deg) + BOX_SLACK)
        and np.all(trans <= box.max_translation_m + BOX_SLACK)
    )


def ground_truth_problems(gt: dict[str, np.ndarray], fixed: dict[str, np.ndarray], box: Box) -> list[str]:
    """Why the ground-truth edges are not one in-box perturbation of ``fixed``.

    With the camera never perturbed, cam_lidar = fixed @ inv(lidar_mis) and
    radar_cam = radar_mis @ fixed; lidar_radar must then equal
    lidar_mis @ fixed @ inv(radar_mis).
    """
    problems = []
    lidar_mis = inverse(gt["cam_lidar"]) @ fixed["cam_lidar"]
    radar_mis = gt["radar_cam"] @ inverse(fixed["radar_cam"])
    for name, mis in (("lidar", lidar_mis), ("radar", radar_mis)):
        if not in_box(mis, box):
            problems.append(f"implied {name} miscalibration lies outside the first-stage box")
    implied_lr = lidar_mis @ fixed["lidar_radar"] @ inverse(radar_mis)
    lr_rot = rotation_angle(implied_lr[:3, :3].T @ gt["lidar_radar"][:3, :3])
    lr_trans = float(np.linalg.norm(implied_lr[:3, 3] - gt["lidar_radar"][:3, 3]))
    if lr_rot > LOOP_TOLERANCE or lr_trans > LOOP_TOLERANCE:
        problems.append("ground-truth lidar_radar is not explained by the two sensor miscalibrations")
    return problems


def _close(mine: float, written: float) -> bool:
    return abs(mine - written) <= ERROR_TOLERANCE * max(1.0, abs(written))


def frame_dir(frames_root: Path, frame: int, n_frames: int) -> Path:
    return frames_root if n_frames == 1 else frames_root / f"frame_{frame:03d}"


def check_run(out_dir: Path, frames_root: Path, n_frames: int, box: Box) -> list[str]:
    """Every failed property of one calibrate output directory; empty when it passes."""
    rows = read_predictions(out_dir / "predictions.csv")
    errors = read_errors(out_dir / "errors.csv")
    per_frame = [r for r in rows if r.frame != -1]
    problems: list[str] = []
    if not per_frame:
        return ["predictions.csv holds no per-frame rows"]
    if len(errors) != len(per_frame):
        return [f"errors.csv has {len(errors)} rows for {len(per_frame)} predictions"]

    for row, (pair, rot, trans) in zip(per_frame, errors):
        where = f"run {row.run} frame {row.frame} {row.pair}"
        if pair != row.pair:
            problems.append(f"{where}: errors.csv row names {pair}")
            continue
        my_rot, my_trans = pair_error(row.pred, row.gt)
        if not (_close(my_rot, rot) and _close(my_trans, trans)):
            problems.append(
                f"{where}: errors.csv says {rot} deg / {trans} cm, recomputed "
                f"{my_rot:.9g} deg / {my_trans:.9g} cm"
            )
        if not (my_rot < box.max_rotation_deg and my_trans < 100.0 * box.max_translation_m):
            problems.append(
                f"{where}: error {my_rot:.3g} deg / {my_trans:.3g} cm is outside the "
                f"+-{box.max_rotation_deg} deg / +-{100 * box.max_translation_m:g} cm box"
            )

    groups: dict[tuple[int, int], dict[str, Row]] = {}
    for row in per_frame:
        groups.setdefault((row.run, row.frame), {})[row.pair] = row
    for (run, frame), by_pair in groups.items():
        where = f"run {run} frame {frame}"
        if set(by_pair) != set(PAIRS):
            problems.append(f"{where}: pairs {sorted(by_pair)} instead of all three")
            continue
        gt = {name: by_pair[name].gt for name in PAIRS}
        pred = {name: by_pair[name].pred for name in PAIRS}
        for label, edges in (("ground-truth", gt), ("predicted", pred)):
            rot, trans = loop_residual(edges)
            if rot > LOOP_TOLERANCE or trans > LOOP_TOLERANCE:
                problems.append(f"{where}: {label} loop is off by {rot:.3g} rad / {trans:.3g} m")
        fixed = read_calib(frame_dir(frames_root, frame, n_frames) / "calib.txt")
        problems += [f"{where}: {p}" for p in ground_truth_problems(gt, fixed, box)]
    return problems


def median_errors(out_dir: Path) -> dict[str, float]:
    """Median rotation (deg) and translation (cm) error per pair, recomputed."""
    rows = [r for r in read_predictions(out_dir / "predictions.csv") if r.frame != -1]
    out = {}
    for name in PAIRS:
        errs = np.array([pair_error(r.pred, r.gt) for r in rows if r.pair == name])
        out[f"err.{name}.rot_deg"] = float(np.median(errs[:, 0]))
        out[f"err.{name}.trans_cm"] = float(np.median(errs[:, 1]))
    return out
