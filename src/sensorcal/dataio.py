"""Dataset I/O and the synthetic scene generator.

Calibration files follow the KITTI text convention (``key: 12 floats`` as a
row-major 3x4 [R|t]) and clouds are packed little-endian float32 records, so
real files in that ecosystem load unchanged.  The scene generator ray-casts
simple primitives to produce frames for desk-scale validation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import LIDAR_CHANNELS, RADAR_CHANNELS, FrameSet, PointCloud
from .errors import (
    DegenerateSceneError,
    NonRigidError,
    ParseError,
    SizeMismatchError,
)
from .loss import PAIR_NAMES, PredictionSet
from .projection import ProjectionConfig, _ranges, _row_blocks, pinhole_rays, sphere_dirs
from .transform import RigidTransform, compose, invert

__all__ = [
    "Box",
    "Cylinder",
    "GroundPlane",
    "SceneSpec",
    "default_sensor_poses",
    "generate_scene",
    "load_calib",
    "load_cloud",
    "load_frame",
    "random_scene_spec",
    "read_pgm",
    "save_calib",
    "save_cloud",
    "save_frame",
    "write_pgm",
]

_EPS = 1e-6


@dataclass(frozen=True)
class GroundPlane:
    z: float = -1.6
    intensity: float = 0.3
    rcs: float = 0.0

    bounding_sphere = None  # unbounded: _cast tests every ray

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        dz = np.where(np.abs(dirs[:, 2]) < 1e-12, 1e-12, dirs[:, 2])
        t = (self.z - origin[2]) / dz
        return np.where(t > _EPS, t, np.inf)


@dataclass(frozen=True)
class Box:
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    intensity: float = 0.8
    rcs: float = 10.0

    @property
    def bounding_sphere(self) -> tuple[tuple[float, float, float], float]:
        return tuple(self.center), 0.5 * math.sqrt(sum(s * s for s in self.size))

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Slab test, one coordinate column at a time.

        Folding each axis into running enter/exit times gives the same bits
        as a max/min over all three axes at once: both are exact, and no
        NaN can arise from a finite difference over a guarded direction.
        """
        t_enter = t_exit = None
        for k in range(3):
            lo = self.center[k] - 0.5 * self.size[k]
            hi = self.center[k] + 0.5 * self.size[k]
            d = dirs[:, k]
            d = np.where(np.abs(d) < 1e-12, 1e-12, d)
            t1 = (lo - origin[k]) / d
            t2 = np.divide(hi - origin[k], d, out=d)
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2, out=t1)
            if t_enter is None:
                t_enter, t_exit = near, far
            else:
                np.maximum(t_enter, near, out=t_enter)
                np.minimum(t_exit, far, out=t_exit)
        hit = (t_enter <= t_exit) & (t_enter > _EPS)
        return np.where(hit, t_enter, np.inf)


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder (side surface only) between z_min and z_max; a ray
    within 1e-5 rad of its axis (dx**2 + dy**2 < 1e-10) misses it."""

    cx: float
    cy: float
    radius: float
    z_min: float
    z_max: float
    intensity: float = 0.6
    rcs: float = 6.0

    @property
    def bounding_sphere(self) -> tuple[tuple[float, float, float], float]:
        half_height = 0.5 * (self.z_max - self.z_min)
        center = (self.cx, self.cy, 0.5 * (self.z_min + self.z_max))
        return center, math.sqrt(self.radius**2 + half_height**2)

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        ox = origin[0] - self.cx
        oy = origin[1] - self.cy
        a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
        side = a >= 1e-10
        a = np.where(side, a, 1.0)
        b = 2.0 * (ox * dirs[:, 0] + oy * dirs[:, 1])
        c = ox * ox + oy * oy - self.radius**2
        disc = np.where(side, b * b - 4.0 * a * c, -1.0)
        sq = np.sqrt(np.maximum(disc, 0.0))
        best = np.full(dirs.shape[0], np.inf)
        for sign in (-1.0, 1.0):
            t = (-b + sign * sq) / (2.0 * a)
            z = origin[2] + t * dirs[:, 2]
            ok = (disc >= 0.0) & (t > _EPS) & (z >= self.z_min) & (z <= self.z_max)
            best = np.where(ok & (t < best), t, best)
        return best


Primitive = GroundPlane | Box | Cylinder


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic description of one synthetic scene."""

    seed: int = 0
    primitives: tuple[Primitive, ...] = ()
    lidar_density: int = 4000
    radar_density: int = 400
    lidar_noise: float = 0.0
    radar_noise: float = 0.0
    radar_dropout: float = 0.0
    rcs_noise: float = 1.0
    max_range: float = 80.0
    lidar_elevation: tuple[float, float] = (-0.45, 0.25)
    radar_elevation: tuple[float, float] = (-0.21, 0.09)
    # 90 degree horizontal field of view looking along +z
    camera: ProjectionConfig = ProjectionConfig.pinhole(640, 320, 320.0, 320.0, 320.0, 160.0)

    def __post_init__(self) -> None:
        if self.lidar_density < 0 or self.radar_density < 0:
            raise ValueError("densities must be >= 0")
        for sigma in (self.lidar_noise, self.radar_noise, self.rcs_noise):
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(f"noise sigma must be finite and >= 0, got {sigma}")
        if not 0.0 <= self.radar_dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def random_scene_spec(seed: int, n_boxes: int = 14, n_cylinders: int = 5, **kwargs) -> SceneSpec:
    """Scatter boxes and poles around the rig, enclosed by building walls.

    The walls close the scene like an urban canyon; their vertical faces are
    what makes horizontal translation observable from range alone.
    """
    rng = np.random.default_rng(seed)
    prims: list[Primitive] = [GroundPlane()]
    for axis in range(2):
        for side in (-1.0, 1.0):
            dist = rng.uniform(16.0, 26.0)
            center = [0.0, 0.0, 2.4]
            center[axis] = side * dist
            size = [80.0, 80.0, 8.0]
            size[axis] = 0.5
            prims.append(
                Box(
                    center=tuple(center),
                    size=tuple(size),
                    intensity=rng.uniform(0.3, 0.9),
                    rcs=rng.uniform(5.0, 15.0),
                )
            )
    for _ in range(n_boxes):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(3.5, 15.0)
        size = (rng.uniform(0.8, 3.5), rng.uniform(0.8, 3.5), rng.uniform(1.2, 3.5))
        center = (dist * math.cos(angle), dist * math.sin(angle), -1.6 + 0.5 * size[2])
        prims.append(
            Box(center=center, size=size, intensity=rng.uniform(0.2, 1.0), rcs=rng.uniform(0.0, 15.0))
        )
    for _ in range(n_cylinders):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(3.0, 12.0)
        height = rng.uniform(2.0, 5.0)
        prims.append(
            Cylinder(
                cx=dist * math.cos(angle),
                cy=dist * math.sin(angle),
                radius=rng.uniform(0.15, 0.45),
                z_min=-1.6,
                z_max=-1.6 + height,
                intensity=rng.uniform(0.2, 1.0),
                rcs=rng.uniform(0.0, 15.0),
            )
        )
    return SceneSpec(seed=seed, primitives=tuple(prims), **kwargs)


def default_sensor_poses() -> dict[str, RigidTransform]:
    """A plausible roof rig: lidar up top, radar at the bumper, camera behind.

    World axes are x-forward / y-left / z-up; the camera pose maps its
    z-forward / x-right / y-down optical frame into that world.
    """
    cam_r = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cam = np.eye(4)
    cam[:3, :3] = cam_r
    cam[:3, 3] = (-0.15, 0.12, 0.05)
    lidar = np.eye(4)
    lidar[:3, 3] = (0.0, 0.0, 0.25)
    radar = np.eye(4)
    yaw = math.radians(2.0)
    radar[:3, :3] = np.array(
        [[math.cos(yaw), -math.sin(yaw), 0.0], [math.sin(yaw), math.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
    )
    radar[:3, 3] = (0.6, -0.25, -0.15)
    return {
        "camera": RigidTransform.from_matrix(cam),
        "lidar": RigidTransform.from_matrix(lidar),
        "radar": RigidTransform.from_matrix(radar),
    }


def _sphere_margin(radius: float) -> float:
    """How far from a bounding sphere's centre a ray may pass and still hit.

    The 1e-3 and 1e-6 cover rounding and the 1e-12 direction guard of the
    slab test (a ray grazing a box corner can hit by rounding while its
    computed distance exceeds the radius).
    """
    return radius * (1.0 + 1e-3) + 1e-6


def _rays_near(origin: np.ndarray, dirs: np.ndarray, prim: Primitive) -> np.ndarray | None:
    """Indices of the rays that can hit prim, or None to test every ray.

    A ray is kept when its line passes within ``_sphere_margin`` of the
    centre of prim's bounding sphere, so every dropped ray is one that
    prim.intersect maps to inf.  Directions are unit vectors.  Culling only
    pays when the origin sits well outside the sphere, so it is skipped
    within twice the radius.
    """
    if prim.bounding_sphere is None:
        return None
    center, radius = prim.bounding_sphere
    vx, vy, vz = (center[k] - origin[k] for k in range(3))
    vv = vx * vx + vy * vy + vz * vz
    if vv <= 4.0 * radius * radius:
        return None
    bound = _sphere_margin(radius)
    # the squared distance of the line to the centre is vv - (d.v)**2
    proj = dirs[:, 0] * vx
    proj += dirs[:, 1] * vy
    proj += dirs[:, 2] * vz
    proj *= proj
    return np.flatnonzero(proj >= vv - bound * bound)


def _cast(
    origin: np.ndarray,
    dirs: np.ndarray,
    primitives: tuple[Primitive, ...],
    max_range: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit distance and primitive index per ray (-1 where none).

    Each primitive intersects only the rays ``_rays_near`` keeps; the
    intersections are row-wise, so a kept ray gets the bits it would get in
    a call over every ray, and a dropped one would have missed.

    Hits merge with a strict ``<`` in the order of primitives, so leaving
    out primitives that no ray hits within max_range keeps which rays hit
    and their distances; the indices then count the primitives passed, as
    in the camera render, which passes those in a block's frustum.
    """
    t_best = np.full(dirs.shape[0], np.inf)
    idx_best = np.full(dirs.shape[0], -1, dtype=np.int64)
    for i, prim in enumerate(primitives):
        rows = _rays_near(origin, dirs, prim)
        if rows is None:
            t = prim.intersect(origin, dirs)
            closer = t < t_best
            t_best[closer] = t[closer]
            idx_best[closer] = i
        else:
            t = prim.intersect(origin, dirs[rows])
            closer = t < t_best[rows]
            t_best[rows[closer]] = t[closer]
            idx_best[rows[closer]] = i
    miss = ~np.isfinite(t_best) | (t_best > max_range)
    idx_best[miss] = -1
    return t_best, idx_best


def _lidar_grid(density: int, elevation: tuple[float, float]) -> np.ndarray:
    n_rows = 24
    n_cols = max(density // n_rows, 1)
    az = (np.arange(n_cols) + 0.5) / n_cols * 2.0 * math.pi - math.pi
    el = np.linspace(elevation[0], elevation[1], n_rows)
    az, el = np.meshgrid(az, el)
    return sphere_dirs(az.ravel(), el.ravel())


def _camera_rays(cfg: ProjectionConfig, row0: int, row1: int) -> np.ndarray:
    """Unit rays through the pixel centres of image rows [row0, row1)."""
    u, v = np.meshgrid(np.arange(cfg.width), np.arange(row0, row1))
    return pinhole_rays(u.ravel(), v.ravel(), cfg)


def _cast_from(
    spec: SceneSpec, pose: RigidTransform, dirs_sensor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hit distances, primitive indices and sensor-frame directions of the
    rays from pose that hit something."""
    # column-major, so the casters read contiguous coordinate columns
    dirs_world = (pose.rotation_matrix() @ dirs_sensor.T).T
    t, idx = _cast(pose.t, dirs_world, spec.primitives, spec.max_range)
    hit = idx >= 0
    return t[hit], idx[hit], dirs_sensor[hit]


def _frustum_normals(cfg: ProjectionConfig, row0: int, row1: int) -> np.ndarray:
    """(4, 3) inward unit normals, in the camera frame, of the planes through
    the camera centre and the first and last pixel-centre columns of image
    rows [row0, row1) and their first and last pixel-centre rows.

    Every camera ray of those rows lies on the inner side of all four.
    """
    x0, x1 = sorted(((np.array([0, cfg.width - 1]) + 0.5 - cfg.cx) / cfg.fx).tolist())
    y0, y1 = sorted(((np.array([row0, row1 - 1]) + 0.5 - cfg.cy) / cfg.fy).tolist())
    normals = np.array([[1.0, 0.0, -x0], [-1.0, 0.0, x1], [0.0, 1.0, -y0], [0.0, -1.0, y1]])
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def _render_camera(spec: SceneSpec, pose: RigidTransform) -> np.ndarray:
    """Pinhole depth image of the scene from pose, one ray per pixel.

    Rays are cast one block of image rows at a time (``_row_blocks``), and
    each hit's float32 range is written into the pixel its ray was cast
    through.  That is the image ``project_pinhole`` makes of the hits: a
    pixel-centre ray re-projects to its own pixel, with z > 0, and with one
    ray per pixel nearest-wins keeps every hit.

    A block casts only against the primitives it can see: a bounding sphere,
    inflated by ``_sphere_margin``, that lies wholly outside one of the
    block's ``_frustum_normals`` planes holds no hit of its rays, so
    dropping it leaves every ray's nearest hit and its bits unchanged.  The
    ground plane has no sphere and is never dropped; nor is a sphere around
    the camera, whose centre lies on every plane.
    """
    cfg = spec.camera
    rot = pose.rotation_matrix()
    # an unbounded primitive sits at the camera centre with an infinite
    # margin, so no plane drops it
    spheres = [p.bounding_sphere or (pose.t, math.inf) for p in spec.primitives]
    centres = (np.reshape([c for c, _ in spheres], (-1, 3)) - pose.t) @ rot
    margins = np.array([_sphere_margin(r) for _, r in spheres])
    img = np.zeros((cfg.height, cfg.width, 1), dtype=np.float32)
    flat = img.reshape(-1)
    for row0, row1 in _row_blocks(np.full(cfg.height, cfg.width)):
        dirs = _camera_rays(cfg, row0, row1)
        # column-major, so the casters read contiguous coordinate columns
        world = (rot @ dirs.T).T
        outside = np.any(centres @ _frustum_normals(cfg, row0, row1).T < -margins[:, None], axis=1)
        seen = tuple(p for p, out in zip(spec.primitives, outside.tolist()) if not out)
        t, idx = _cast(pose.t, world, seen, spec.max_range)
        hit = np.flatnonzero(idx >= 0)
        flat[row0 * cfg.width + hit] = _ranges(dirs[hit] * t[hit, None])
    return img


def generate_scene(
    spec: SceneSpec,
    sensor_poses: Mapping[str, RigidTransform],
    index: int = 0,
) -> FrameSet:
    """Ray-cast the scene from each sensor pose into a clean FrameSet.

    Clouds are expressed in their own sensor frames and the ground-truth
    pairwise calibrations are derived from the poses.  Everything is a pure
    function of (spec, sensor_poses), with spec.seed driving sampling noise.
    """
    if not spec.primitives:
        raise DegenerateSceneError("scene has no primitives")
    rng = np.random.default_rng(spec.seed)
    cam_pose = sensor_poses["camera"]
    lidar_pose = sensor_poses["lidar"]
    radar_pose = sensor_poses["radar"]

    # Lidar: dense angular grid, range noise, constant intensity per primitive.
    lidar_dirs = _lidar_grid(spec.lidar_density, spec.lidar_elevation)
    t, idx, dirs = _cast_from(spec, lidar_pose, lidar_dirs)
    t = t + rng.normal(0.0, 1.0, t.shape) * spec.lidar_noise
    lidar = PointCloud(
        xyz=dirs * t[:, None],
        channels=np.array([spec.primitives[i].intensity for i in idx]).reshape(-1, 1),
        schema=LIDAR_CHANNELS,
    )

    # Radar: sparse random directions, RCS noise, dropout, static scene.
    az = rng.uniform(-math.pi, math.pi, spec.radar_density)
    el = rng.uniform(spec.radar_elevation[0], spec.radar_elevation[1], spec.radar_density)
    t, idx, dirs = _cast_from(spec, radar_pose, sphere_dirs(az, el))
    t = t + rng.normal(0.0, 1.0, t.shape) * spec.radar_noise
    rcs = np.array([spec.primitives[i].rcs for i in idx]) + rng.normal(0.0, 1.0, t.shape) * spec.rcs_noise
    keep = rng.random(t.shape[0]) >= spec.radar_dropout
    radar = PointCloud(
        xyz=(dirs * t[:, None])[keep],
        channels=np.stack([rcs, np.zeros_like(t), np.zeros_like(t)], axis=1)[keep],
        schema=RADAR_CHANNELS,
    )

    # Camera: one ray per pixel, rendered through the pinhole projector.
    camera_depth = _render_camera(spec, cam_pose)

    n_camera = int(np.count_nonzero(camera_depth[..., 0] > 0))
    for name, count in (("lidar", len(lidar)), ("radar", len(radar)), ("camera", n_camera)):
        if count < 10:
            raise DegenerateSceneError(f"{name} sees only {count} points")

    return FrameSet(
        index=index,
        camera_depth=camera_depth,
        camera_config=spec.camera,
        lidar=lidar,
        radar=radar,
        fixed=PredictionSet(
            compose(invert(cam_pose), lidar_pose),
            compose(invert(lidar_pose), radar_pose),
            compose(invert(radar_pose), cam_pose),
        ),
    )


# --- calibration text files -------------------------------------------------


def save_calib(transforms: Mapping[str, RigidTransform], path) -> None:
    """Write ``key: 12 floats`` rows (row-major 3x4 [R|t]), full precision."""
    lines = []
    for key, tf in transforms.items():
        m = tf.matrix()[:3, :].reshape(12)
        lines.append(key + ": " + " ".join(f"{v:.17g}" for v in m))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_calib(path) -> dict[str, RigidTransform]:
    """Parse calibration rows into transforms, checking rotation rigidity."""
    out: dict[str, RigidTransform] = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"{path}: missing ':' in line {line!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in out:
            raise ParseError(f"{path}: repeated row {key!r}")
        try:
            values = [float(v) for v in rest.split()]
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric value in row {key!r}") from exc
        if len(values) != 12:
            raise ParseError(f"{path}: row {key!r} has {len(values)} values, expected 12")
        if not all(map(math.isfinite, values)):
            raise ParseError(f"{path}: row {key!r} has a value that is not finite")
        m = np.array(values).reshape(3, 4)
        r = m[:, :3]
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-3 or np.linalg.det(r) < 0.0:
            raise NonRigidError(f"{path}: row {key!r} rotation block is not orthonormal")
        out[key] = RigidTransform.from_matrix(m)
    return out


# --- packed binary clouds ---------------------------------------------------


def save_cloud(cloud: PointCloud, path) -> None:
    """Consecutive little-endian float32 records of (x, y, z, channels...)."""
    rec = np.concatenate([cloud.xyz, cloud.channels], axis=1).astype("<f4")
    rec.tofile(path)


def load_cloud(path, schema: tuple[str, ...]) -> PointCloud:
    raw = np.fromfile(path, dtype="<f4")
    width = 3 + len(schema)
    if raw.size % width != 0:
        raise SizeMismatchError(
            f"{path}: {raw.size} values is not a multiple of record size {width}"
        )
    rec = raw.reshape(-1, width)
    if not np.isfinite(rec[:, :3]).all():
        raise ParseError(f"{path}: a point coordinate is not finite")
    return PointCloud(xyz=rec[:, :3], channels=rec[:, 3:], schema=schema)


# --- PGM rasters ------------------------------------------------------------


def write_pgm(channel: np.ndarray, path, max_value: float) -> None:
    """16-bit binary PGM of one raster channel, linearly scaled to max_value."""
    channel = np.asarray(channel, dtype=float)
    if max_value <= 0.0:
        raise ValueError("max_value must be > 0")
    scaled = np.clip(channel / max_value, 0.0, 1.0)
    data = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{channel.shape[1]} {channel.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


# Magic number, then width, height and maxval, each after whitespace or
# '#' comments (which run to the end of the line), then one whitespace byte.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*)+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM back into a float array scaled to [0, 1]."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ParseError(f"{path}: malformed PGM header")
    width, height, maxval = (int(v) for v in header.groups())
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ParseError(f"{path}: bad PGM size {width}x{height} or maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    raster = blob[header.end():]
    if len(raster) < width * height * dtype.itemsize:
        raise ParseError(
            f"{path}: raster has {len(raster)} bytes, "
            f"{width}x{height} at maxval {maxval} needs {width * height * dtype.itemsize}"
        )
    data = np.frombuffer(raster, dtype=dtype, count=width * height)
    return data.reshape(height, width).astype(float) / maxval


# --- frame directories --------------------------------------------------------


def save_frame(frame: FrameSet, out_dir, depth_scale: float) -> None:
    """Write one frame as lidar.bin, radar.bin, camera_depth.pgm, calib.txt.

    A mis.txt with the applied miscalibration appears only for perturbed
    frames.  Camera intrinsics and the depth scale travel in the run
    manifest, not here.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_cloud(frame.lidar, out_dir / "lidar.bin")
    save_cloud(frame.radar, out_dir / "radar.bin")
    write_pgm(frame.camera_depth[..., 0], out_dir / "camera_depth.pgm", depth_scale)
    save_calib(dict(frame.fixed.present()), out_dir / "calib.txt")
    identity = RigidTransform.identity()
    perturbed = (
        np.max(np.abs(frame.lidar_mis.matrix() - identity.matrix())) > 1e-12
        or np.max(np.abs(frame.radar_mis.matrix() - identity.matrix())) > 1e-12
    )
    if perturbed:
        save_calib(
            {"lidar_mis": frame.lidar_mis, "radar_mis": frame.radar_mis},
            out_dir / "mis.txt",
        )


def load_frame(
    frame_dir,
    camera: ProjectionConfig,
    depth_scale: float,
    index: int = 0,
) -> FrameSet:
    """Inverse of save_frame given the camera config from the manifest."""
    frame_dir = Path(frame_dir)
    calib = load_calib(frame_dir / "calib.txt")
    for name in PAIR_NAMES:
        if name not in calib:
            raise ParseError(f"{frame_dir / 'calib.txt'}: no {name!r} row")
    depth_path = frame_dir / "camera_depth.pgm"
    depth = read_pgm(depth_path) * depth_scale
    if depth.shape != (camera.height, camera.width):
        raise SizeMismatchError(
            f"{depth_path}: depth image is {depth.shape[1]}x{depth.shape[0]}, "
            f"the camera is {camera.width}x{camera.height}"
        )
    identity = RigidTransform.identity()
    mis = {"lidar_mis": identity, "radar_mis": identity}
    if (frame_dir / "mis.txt").exists():
        mis.update(load_calib(frame_dir / "mis.txt"))
    return FrameSet(
        index=index,
        camera_depth=depth[..., None].astype(np.float32),
        camera_config=camera,
        lidar=load_cloud(frame_dir / "lidar.bin", LIDAR_CHANNELS),
        radar=load_cloud(frame_dir / "radar.bin", RADAR_CHANNELS),
        fixed=PredictionSet(**{name: calib[name] for name in PAIR_NAMES}),
        lidar_mis=mis["lidar_mis"],
        radar_mis=mis["radar_mis"],
    )
