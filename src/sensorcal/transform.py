"""Rigid-transform and quaternion algebra used by every other module.

Conventions:
    * Quaternions are stored (w, x, y, z), unit norm, sign-canonicalized to
      w >= 0 (q and -q encode the same rotation).
    * Euler angles are intrinsic roll-about-x, pitch-about-y, yaw-about-z,
      i.e. the rotation matrix is Rz(yaw) @ Ry(pitch) @ Rx(roll).
    * Angles are radians and translations meters everywhere inside the
      library; degrees/centimeters appear only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data import PointCloud

__all__ = [
    "RigidTransform",
    "apply",
    "compose",
    "from_euler",
    "invert",
    "quat_angular_distance",
    "to_euler",
    "transform_points",
    "translation_distance",
]


def _unit_quat(q: np.ndarray) -> np.ndarray:
    """q normalised and sign-canonicalised, read-only."""
    norm = math.sqrt(float(q @ q))
    if norm < 1e-12:
        raise ValueError("quaternion norm is zero")
    q = _canonical_sign(q / norm)
    q.setflags(write=False)
    return q


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    # w >= 0; for w == 0 the first nonzero vector component is made positive
    # so equal rotations always compare equal component-wise.
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return -q if c < 0.0 else q
    return q


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """SE(3) element as unit quaternion (w, x, y, z) plus translation.

    Two transforms are equal when their (canonical) q and t hold equal
    values; like the arrays they hold, transforms are unhashable.
    """

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float).reshape(4)
        q, t = _checked(q, np.array(self.t, dtype=float).reshape(3))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return bool(np.array_equal(self.q, other.q) and np.array_equal(self.t, other.t))

    @classmethod
    def _from_valid(cls, q: np.ndarray, t: np.ndarray) -> "RigidTransform":
        """Skips __post_init__: q is already unit and canonical, t finite, both read-only."""
        out = object.__new__(cls)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "t", t)
        return out

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(q=np.array([1.0, 0.0, 0.0, 0.0]), t=np.zeros(3))

    @classmethod
    def from_translation(cls, x: float, y: float, z: float) -> "RigidTransform":
        return cls(q=np.array([1.0, 0.0, 0.0, 0.0]), t=np.array([x, y, z], dtype=float))

    @classmethod
    def from_matrix(cls, m) -> "RigidTransform":
        """Build from a 4x4 homogeneous (or 3x4 [R|t]) matrix."""
        m = np.asarray(m, dtype=float)
        if m.shape == (3, 4):
            r, t = m[:, :3], m[:, 3]
        elif m.shape == (4, 4):
            r, t = m[:3, :3], m[:3, 3]
        else:
            raise ValueError(f"expected 3x4 or 4x4 matrix, got shape {m.shape}")
        return cls(q=_quat_from_rotation_matrix(r), t=t)

    @cached_property
    def _rotation(self) -> np.ndarray:
        # Built once per transform and shared read-only by the library.
        w, x, y, z = self.q.tolist()
        r = np.array(
            [
                1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
            ]
        ).reshape(3, 3)
        r.setflags(write=False)
        return r

    def rotation_matrix(self) -> np.ndarray:
        return self._rotation.copy()

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self._rotation
        m[:3, 3] = self.t
        return m


def _hamilton(a, b) -> tuple[float, float, float, float]:
    # Python floats: the same IEEE products and sums as numpy scalars, faster
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _quat_from_rotation_matrix(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest diagonal pivot for stability.
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        return np.array(
            [
                0.25 * s,
                (r[2, 1] - r[1, 2]) / s,
                (r[0, 2] - r[2, 0]) / s,
                (r[1, 0] - r[0, 1]) / s,
            ]
        )
    i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2]]))
    if i == 0:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        return np.array(
            [
                (r[2, 1] - r[1, 2]) / s,
                0.25 * s,
                (r[0, 1] + r[1, 0]) / s,
                (r[0, 2] + r[2, 0]) / s,
            ]
        )
    if i == 1:
        s = math.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        return np.array(
            [
                (r[0, 2] - r[2, 0]) / s,
                (r[0, 1] + r[1, 0]) / s,
                0.25 * s,
                (r[1, 2] + r[2, 1]) / s,
            ]
        )
    s = math.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
    return np.array(
        [
            (r[1, 0] - r[0, 1]) / s,
            (r[0, 2] + r[2, 0]) / s,
            (r[1, 2] + r[2, 1]) / s,
            0.25 * s,
        ]
    )


def _checked(q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The q and t that ``RigidTransform(q=q, t=t)`` holds: checked, q normalised
    and sign-canonicalised, t made read-only.  q and t are new float64 arrays
    of shapes (4,) and (3,), so no copy is taken; the constructor copies first."""
    if not all(map(math.isfinite, q.tolist() + t.tolist())):
        raise ValueError("RigidTransform components must be finite")
    t.setflags(write=False)
    return _unit_quat(q), t


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition a then-applied-after b: result.matrix() == a.matrix() @ b.matrix()."""
    q = np.array(_hamilton(a.q.tolist(), b.q.tolist()))
    t = a._rotation @ b.t + a.t
    return RigidTransform._from_valid(*_checked(q, t))


def invert(a: RigidTransform) -> RigidTransform:
    w, x, y, z = a.q.tolist()
    q_inv = np.array([w, -x, -y, -z])
    t_inv = -(a._rotation.T @ a.t)
    return RigidTransform._from_valid(*_checked(q_inv, t_inv))


def transform_points(a: RigidTransform, xyz: np.ndarray) -> np.ndarray:
    """Apply the rigid motion to an (N, 3) array of points.

    Bit-identical to ``xyz @ R.T + t``, but the transposed product avoids a
    slow (N, 3) @ (3, 3) path of the BLAS.  The result is column-major
    (Fortran-ordered), so each coordinate column is contiguous.
    """
    xyz = np.asarray(xyz, dtype=float)
    return (a._rotation @ xyz.T).T + a.t


def apply(a: RigidTransform, pts: "PointCloud") -> "PointCloud":
    """Transform the spatial coordinates of a cloud; channels pass through.

    The stored coordinates are C-ordered: an (N, 3) @ (3,) product on an
    F-ordered array can round differently, and clouds feed such products
    (the frustum crop of the estimator).
    """
    return replace(pts, xyz=np.ascontiguousarray(transform_points(a, pts.xyz)))


def _euler_quat(roll: float, pitch: float, yaw: float) -> np.ndarray:
    half_r, half_p, half_y = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    qx = (math.cos(half_r), math.sin(half_r), 0.0, 0.0)
    qy = (math.cos(half_p), 0.0, math.sin(half_p), 0.0)
    qz = (math.cos(half_y), 0.0, 0.0, math.sin(half_y))
    return np.array(_hamilton(qz, _hamilton(qy, qx)))


def from_euler(x) -> RigidTransform:
    """Rotation Rz(yaw) @ Ry(pitch) @ Rx(roll) and translation (tx, ty, tz),
    from any 6-sequence (roll, pitch, yaw, tx, ty, tz).

    The optimizers call this once per candidate.  It runs the quaternion
    arithmetic, normalisation and sign canonicalisation of the constructor,
    so q, t and the rotation matrix are bit-identical to
    ``RigidTransform(q=_euler_quat(roll, pitch, yaw), t=(tx, ty, tz))``.
    """
    values = np.asarray(x, dtype=float).reshape(6).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"Euler pose components must be finite, got {tuple(values)}")
    t = np.array(values[3:])
    t.setflags(write=False)
    return RigidTransform._from_valid(_unit_quat(_euler_quat(*values[:3])), t)


def to_euler(a: RigidTransform) -> np.ndarray:
    """Inverse of from_euler: (roll, pitch, yaw, tx, ty, tz) as a (6,) float64
    array; pitch is clamped at the +-pi/2 gimbal points."""
    r = a._rotation
    sin_pitch = max(-1.0, min(1.0, -r[2, 0]))
    pitch = math.asin(sin_pitch)
    if abs(sin_pitch) < 1.0 - 1e-12:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        # Gimbal lock: only roll +- yaw is observable; put it all in roll.
        roll = math.atan2(-r[1, 2], r[1, 1])
        yaw = 0.0
    return np.array([roll, pitch, yaw, *a.t.tolist()])


def quat_angular_distance(q1, q2) -> float:
    """Geodesic angle in [0, pi] between two unit quaternions, sign-invariant."""
    q1 = np.asarray(q1, dtype=float).reshape(4)
    q2 = np.asarray(q2, dtype=float).reshape(4)
    dot = min(1.0, abs(float(q1 @ q2)))
    return 2.0 * math.acos(dot)


def translation_distance(t1, t2) -> float:
    t1 = np.asarray(t1, dtype=float).reshape(3)
    t2 = np.asarray(t2, dtype=float).reshape(3)
    return float(np.linalg.norm(t1 - t2))
