"""The scene caster against copies of its earlier implementation.

``Box.intersect`` now runs its slab test one coordinate column at a time,
``_cast`` skips the rays whose line passes far from a primitive's bounding
sphere, and the camera is rendered one block of image rows at a time.  All
must give the bits the earlier code gave, and a culled ray must be one the
full intersection maps to inf.  ``Cylinder.intersect`` reports no hit for a
ray along its axis (dx**2 + dy**2 below 1e-10), and so does its reference.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorcal import dataio
from sensorcal.data import PointCloud
from sensorcal.dataio import (
    Box,
    Cylinder,
    GroundPlane,
    SceneSpec,
    _camera_rays,
    _cast,
    _rays_near,
    _render_camera,
    default_sensor_poses,
    generate_scene,
    random_scene_spec,
)
from sensorcal.errors import DegenerateSceneError
from sensorcal.projection import _BLOCK_ROWS, ProjectionConfig, _row_blocks, project_pinhole
from sensorcal.transform import RigidTransform, compose, from_euler

_EPS = 1e-6


def reference_box_intersect(box, origin, dirs):
    """Box.intersect before the column-wise slab test."""
    lo = np.asarray(box.center) - 0.5 * np.asarray(box.size)
    hi = np.asarray(box.center) + 0.5 * np.asarray(box.size)
    d = np.where(np.abs(dirs) < 1e-12, 1e-12, dirs)
    t1 = (lo - origin) / d
    t2 = (hi - origin) / d
    t_enter = np.max(np.minimum(t1, t2), axis=1)
    t_exit = np.min(np.maximum(t1, t2), axis=1)
    hit = (t_enter <= t_exit) & (t_enter > _EPS)
    return np.where(hit, t_enter, np.inf)


def reference_cylinder_intersect(cyl, origin, dirs):
    """Cylinder.intersect as it was when culling was added, with its rule that
    a ray whose horizontal part dx**2 + dy**2 is below 1e-10 misses."""
    ox = origin[0] - cyl.cx
    oy = origin[1] - cyl.cy
    horizontal = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
    a = np.where(horizontal < 1e-12, 1e-12, horizontal)
    b = 2.0 * (ox * dirs[:, 0] + oy * dirs[:, 1])
    c = ox * ox + oy * oy - cyl.radius**2
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    best = np.full(dirs.shape[0], np.inf)
    for sign in (-1.0, 1.0):
        t = (-b + sign * sq) / (2.0 * a)
        z = origin[2] + t * dirs[:, 2]
        ok = (disc >= 0.0) & (t > _EPS) & (z >= cyl.z_min) & (z <= cyl.z_max)
        best = np.where(ok & (t < best), t, best)
    return np.where(horizontal < 1e-10, np.inf, best)


def reference_intersect(prim, origin, dirs):
    if isinstance(prim, Box):
        return reference_box_intersect(prim, origin, dirs)
    if isinstance(prim, Cylinder):
        return reference_cylinder_intersect(prim, origin, dirs)
    return prim.intersect(origin, dirs)


def reference_cast(origin, dirs, primitives, max_range):
    """_cast before culling: every primitive intersects every ray."""
    t_best = np.full(dirs.shape[0], np.inf)
    idx_best = np.full(dirs.shape[0], -1, dtype=np.int64)
    for i, prim in enumerate(primitives):
        t = reference_intersect(prim, origin, dirs)
        closer = t < t_best
        t_best[closer] = t[closer]
        idx_best[closer] = i
    miss = ~np.isfinite(t_best) | (t_best > max_range)
    idx_best[miss] = -1
    return t_best, idx_best


def reference_camera_rays(cfg):
    u, v = np.meshgrid(np.arange(cfg.width), np.arange(cfg.height))
    dx = (u.ravel() + 0.5 - cfg.cx) / cfg.fx
    dy = (v.ravel() + 0.5 - cfg.cy) / cfg.fy
    dirs = np.stack([dx, dy, np.ones_like(dx)], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def rasterize_pinhole(cloud, cfg):
    """A bare cloud through the channel path of project_pinhole (_rasterize)."""
    padded = PointCloud(xyz=cloud.xyz, channels=np.zeros((len(cloud), 1)), schema=("pad",))
    return project_pinhole(padded, replace(cfg, channels=("range", "pad")))[..., :1].copy()


def reference_render_camera(spec, pose):
    """The camera image as rendered before blocks of rows: every ray at once."""
    dirs = reference_camera_rays(spec.camera)
    world = (pose.rotation_matrix() @ dirs.T).T
    t, idx = reference_cast(pose.t, world, spec.primitives, spec.max_range)
    hit = idx >= 0
    return rasterize_pinhole(PointCloud.bare(dirs[hit] * t[hit, None]), spec.camera)


# --- ray bundles ---------------------------------------------------------------

# Components the slab test guards (|d| < 1e-12 becomes 1e-12) and their
# neighbours just above the guard.
_GUARDED = np.array([0.0, -0.0, 1e-13, -1e-13, 9.9e-13, -9.9e-13, 1e-12, -1e-12, 1.1e-12, -1.1e-12])
# Horizontal parts of near-vertical rays: a = dx**2 + dy**2 spans the
# cylinder's 1e-10 rule for rays along its axis.
_NEAR_VERTICAL = np.array([0.0, 1e-7, 9.9e-7, 1e-6, 3e-6, 9.9e-6, 1e-5, 1.1e-5, 1e-4])


def _unit(v):
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows; ray_bundle drops them
        return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_dirs(rng, n):
    return _unit(rng.normal(size=(n, 3)))


def _lines_at_distance(rng, n, v, distance):
    """n unit directions whose lines through the origin pass at the given
    distance from the point v."""
    axis = v / np.linalg.norm(v)
    w = rng.normal(size=(n, 3))
    w = _unit(w - np.outer(w @ axis, axis))
    s = np.asarray(distance, dtype=float).reshape(-1, 1) / np.linalg.norm(v)
    return np.sqrt(1.0 - s * s) * axis + s * w


def _surface_points(rng, prim, n):
    """Points on or just off prim: box faces, edges and corners, cylinder side and rims."""
    if isinstance(prim, Box):
        c, half = np.asarray(prim.center), 0.5 * np.asarray(prim.size)
        p = rng.uniform(-1.0, 1.0, (n, 3))
        snap = rng.random((n, 3)) < 0.6
        p[snap] = np.sign(p[snap])
        return c + p * half * (1.0 + rng.choice([0.0, 1e-9, -1e-9, 1e-3], (n, 1)))
    phi = rng.uniform(-math.pi, math.pi, n)
    z = rng.uniform(prim.z_min, prim.z_max, n)
    rim = rng.random(n) < 0.4
    z[rim] = rng.choice([prim.z_min, prim.z_max], np.count_nonzero(rim))
    rho = prim.radius * (1.0 + rng.choice([0.0, 1e-9, -1e-9, 1e-3], n))
    return np.stack([prim.cx + rho * np.cos(phi), prim.cy + rho * np.sin(phi), z], axis=1)


def _extreme_points(prim):
    """The points where prim touches its bounding sphere: the 8 box corners,
    or 8 points on the rims of a cylinder."""
    if isinstance(prim, Box):
        signs = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))
        return np.asarray(prim.center) + signs * np.asarray(prim.size)
    phi = np.repeat(np.arange(4) * (0.5 * math.pi) + 0.3, 2)
    z = np.tile([prim.z_min, prim.z_max], 4)
    x, y = prim.cx + prim.radius * np.cos(phi), prim.cy + prim.radius * np.sin(phi)
    return np.stack([x, y, z], axis=1)


def ray_bundle(rng, origin, prims, n=64):
    """Random rays, rays with guarded components, near-vertical rays, and rays
    aimed at each primitive (its corners or rim points among them) and
    passing near its bounding sphere."""
    parts = [_random_dirs(rng, n)]
    # unit rays whose other components carry the whole length
    mask = rng.random((n, 3)) < 0.4
    mask[:, 2] &= ~mask[:, :2].all(axis=1)
    guarded = _unit(np.where(mask, 0.0, rng.normal(size=(n, 3))))
    guarded[mask] = rng.choice(_GUARDED, mask.sum())
    parts.append(guarded)
    eps = rng.choice(_NEAR_VERTICAL, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    sign = rng.choice([-1.0, 1.0], n)
    vertical = sign * np.sqrt(1.0 - eps**2)
    parts.append(np.stack([eps * np.cos(phi), eps * np.sin(phi), vertical], axis=1))
    for prim in prims:
        if isinstance(prim, GroundPlane):
            continue
        parts.append(_unit(_extreme_points(prim) - origin))
        aimed = _unit(_surface_points(rng, prim, n) - origin)
        parts.append(aimed)
        snap = rng.random((n, 3)) < 0.3
        snap[:, 2] &= ~snap[:, :2].all(axis=1)
        parts.append(_unit(np.where(snap, 0.0, aimed)))
        center, radius = prim.bounding_sphere
        v = np.asarray(center) - origin
        if np.linalg.norm(v) > 1.02 * radius:
            # lines at distances around the bounding radius
            distance = radius * rng.choice([0.999, 1.0, 1.0005, 1.001, 1.002, 1.01], n)
            parts.append(_lines_at_distance(rng, n, v, distance))
    dirs = np.concatenate(parts)
    return dirs[np.all(np.isfinite(dirs), axis=1)]


_coords = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)
_sizes = st.floats(0.05, 6.0)
_boxes = st.builds(
    lambda c, s: Box(center=c, size=s),
    st.tuples(_coords, _coords, _coords),
    st.tuples(_sizes, _sizes, _sizes),
)
_cylinders = st.builds(
    lambda cx, cy, r, z0, h: Cylinder(cx=cx, cy=cy, radius=r, z_min=z0, z_max=z0 + h),
    _coords,
    _coords,
    st.floats(0.05, 1.0),
    st.floats(-3.0, 1.0),
    st.floats(0.5, 5.0),
)
_primitives = st.one_of(_boxes, _cylinders)


@st.composite
def origins_for(draw, prim):
    """Origins anywhere, inside or near the bounding sphere, on a box face,
    far away (where culling applies), or on the plane tangent to the sphere
    at a corner or rim point, so that a ray of ray_bundle grazes it."""
    center, radius = prim.bounding_sphere
    kind = draw(st.sampled_from(["free", "inside", "near", "far", "face", "tangent"]))
    if kind == "free":
        return np.array(draw(st.tuples(_coords, _coords, _coords)))
    u = np.array(draw(st.tuples(_coords, _coords, _coords)))
    u = u / np.linalg.norm(u) if np.linalg.norm(u) > 1e-3 else np.array([1.0, 0.0, 0.0])
    if kind == "tangent":
        point = _extreme_points(prim)[draw(st.integers(0, 7))]
        normal = (point - center) / np.linalg.norm(point - center)
        w = u - (u @ normal) * normal
        w = w / np.linalg.norm(w) if np.linalg.norm(w) > 1e-3 else np.cross(normal, [0.0, 0.0, 1.0])
        return point - draw(st.floats(2.0, 30.0)) * radius * w
    scale = {
        "inside": draw(st.floats(0.0, 0.99)),
        "near": draw(st.floats(1.9, 2.1)),
        "far": draw(st.floats(2.1, 30.0)),
        "face": 1.0,
    }[kind]
    origin = np.asarray(center) + scale * radius * u
    if kind == "face" and isinstance(prim, Box):
        k = draw(st.integers(0, 2))
        origin[k] = prim.center[k] + draw(st.sampled_from([-0.5, 0.5])) * prim.size[k]
    return origin


@st.composite
def single_primitive_cases(draw):
    prim = draw(_primitives)
    return prim, draw(origins_for(prim)), draw(st.integers(0, 2**32 - 1))


@given(single_primitive_cases())
def test_box_and_cylinder_equal_their_references(case):
    prim, origin, seed = case
    dirs = ray_bundle(np.random.default_rng(seed), origin, [prim])
    for layout in (np.ascontiguousarray, np.asfortranarray):
        t = prim.intersect(origin, layout(dirs))
        ref = reference_intersect(prim, origin, dirs)
        assert t.tobytes() == ref.tobytes()


@given(single_primitive_cases())
def test_culled_rays_miss(case):
    prim, origin, seed = case
    dirs = ray_bundle(np.random.default_rng(seed), origin, [prim])
    rows = _rays_near(origin, dirs, prim)
    if rows is None:
        center, radius = prim.bounding_sphere
        assert np.linalg.norm(np.asarray(center) - origin) <= 2.0 * radius * (1.0 + 1e-12)
        return
    culled = np.ones(len(dirs), dtype=bool)
    culled[rows] = False
    assert np.all(reference_intersect(prim, origin, dirs[culled]) == np.inf)


@pytest.mark.parametrize(
    "prim",
    [Box(center=(9.0, -2.0, 0.5), size=(1.5, 0.8, 2.0)), Cylinder(4.0, 7.0, 0.3, -1.6, 1.4)],
)
def test_rays_within_the_margin_of_the_sphere_are_kept(prim):
    # lines passing just outside the bounding sphere, inside the culling margin
    rng = np.random.default_rng(3)
    center, radius = prim.bounding_sphere
    v = np.asarray(center)
    for scale in (1.0, 1.0002, 1.0005, 1.0009):
        dirs = _lines_at_distance(rng, 50, v, scale * radius)
        assert _rays_near(np.zeros(3), dirs, prim).tolist() == list(range(50))
    outside = _lines_at_distance(rng, 50, v, 1.002 * radius + 1e-6)
    assert _rays_near(np.zeros(3), outside, prim).size == 0


@given(
    _cylinders,
    st.sampled_from([0.0, -1e-13, -1e-6, -1e-5, -1e-4, 1e-6])
    | st.floats(-1e-3, 1e-3)
    | st.floats(-1.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.floats(-0.2, 1.2),
    st.lists(st.floats(0.0, 1e-5), min_size=1, max_size=8),
)
def test_rays_along_a_cylinder_axis_miss_it(cyl, offset, psi, height, horizontal):
    # dx**2 + dy**2 below 1e-10, up and down, drifting out of and into the
    # side surface from an origin offset radii off it, inside or outside
    rho = cyl.radius * (1.0 + offset)
    z = cyl.z_min + height * (cyl.z_max - cyl.z_min)
    origin = np.array([cyl.cx + rho * math.cos(psi), cyl.cy + rho * math.sin(psi), z])
    eps = np.array(horizontal)
    outward = np.stack([eps * math.cos(psi), eps * math.sin(psi), np.sqrt(1.0 - eps**2)], axis=1)
    dirs = np.concatenate([outward * [s, s, z_sign] for s in (1.0, -1.0) for z_sign in (1.0, -1.0)])
    dirs = dirs[dirs[:, 0] ** 2 + dirs[:, 1] ** 2 < 1e-10]
    assert np.all(cyl.intersect(origin, dirs) == np.inf)


def test_a_vertical_ray_just_inside_a_pole_misses_it():
    # 1e-13 m inside the surface: clamping dx**2 + dy**2 to 1e-12 instead
    # would report a hit 0.245 m up
    cyl = Cylinder(cx=0.0, cy=0.0, radius=0.3, z_min=-1.6, z_max=2.0)
    dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert cyl.intersect(np.array([0.3 - 1e-13, 0.0, 0.0]), dirs).tolist() == [np.inf, np.inf]


@st.composite
def scenes(draw):
    """A ground plane and random primitives, one of them repeated (exact
    ties between primitives), in random order, and an origin near one."""
    prims = draw(st.lists(_primitives, min_size=1, max_size=6))
    prims.append(prims[draw(st.integers(0, len(prims) - 1))])
    prims.append(GroundPlane(z=draw(st.floats(-3.0, 0.0))))
    order = draw(st.permutations(range(len(prims))))
    prims = tuple(prims[i] for i in order)
    anchor = draw(st.sampled_from([p for p in prims if not isinstance(p, GroundPlane)]))
    return prims, draw(origins_for(anchor)), draw(st.integers(0, 2**32 - 1))


@given(scenes(), st.sampled_from([5.0, 80.0, math.inf]))
def test_cast_equals_reference(scene, max_range):
    prims, origin, seed = scene
    dirs = ray_bundle(np.random.default_rng(seed), origin, prims, n=32)
    t, idx = _cast(origin, np.asfortranarray(dirs), prims, max_range)
    ref_t, ref_idx = reference_cast(origin, dirs, prims, max_range)
    assert t.tobytes() == ref_t.tobytes()
    assert idx.tobytes() == ref_idx.tobytes()


_SMALL_CAMERA = ProjectionConfig.pinhole(160, 80, fx=80.0, fy=80.0, cx=80.0, cy=40.0)


@pytest.mark.parametrize(
    "spec",
    [
        random_scene_spec(seed=0, lidar_noise=0.02, radar_noise=0.05, radar_dropout=0.3),
        random_scene_spec(seed=7, lidar_density=16000),
        random_scene_spec(seed=11, lidar_density=0, radar_density=2000, radar_dropout=0.9,
                          camera=_SMALL_CAMERA),
        random_scene_spec(seed=3, radar_density=0, camera=_SMALL_CAMERA),
    ],
    ids=["noise-dropout", "dense-lidar", "lidar-density-0", "radar-density-0"],
)
def test_generate_scene_equals_reference_run(spec, monkeypatch):
    poses = default_sensor_poses()

    def run():
        try:
            return generate_scene(spec, poses)
        except DegenerateSceneError as exc:
            return str(exc)

    frame = run()
    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_cast", reference_cast)
        patch.setattr(dataio, "_render_camera", reference_render_camera)
        ref = run()
    if isinstance(ref, str):
        assert frame == ref
        return
    for cloud, ref_cloud in ((frame.lidar, ref.lidar), (frame.radar, ref.radar)):
        # the estimator's frustum crop takes (N, 3) @ (3,) products, which
        # may round differently on F-ordered coordinates
        assert cloud.xyz.flags.c_contiguous and cloud.channels.flags.c_contiguous
        assert cloud.xyz.tobytes() == ref_cloud.xyz.tobytes()
        assert cloud.channels.tobytes() == ref_cloud.channels.tobytes()
    assert frame.camera_depth.dtype == ref.camera_depth.dtype == np.float32
    assert frame.camera_depth.tobytes() == ref.camera_depth.tobytes()
    assert frame.fixed == ref.fixed


# --- the camera, rendered one block of rows at a time ---------------------------


def _camera(height, width=96):
    return ProjectionConfig.pinhole(
        width, height, fx=0.5 * width, fy=0.5 * width, cx=0.5 * width, cy=0.5 * height
    )


def _poses():
    """The default camera pose and one rolled and pitched off it."""
    pose = default_sensor_poses()["camera"]
    return [pose, compose(pose, from_euler([0.2, 0.3, 0.0, 0.0, 0.0, 0.0]))]


_HEIGHTS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 320]


@pytest.mark.parametrize("height", _HEIGHTS)
def test_render_in_blocks_equals_whole_image(height):
    # heights below, at and above one block, and the default camera's
    spec = random_scene_spec(seed=5, camera=_camera(height, 640 if height == 320 else 96))
    for pose in _poses():
        img = _render_camera(spec, pose)
        ref = reference_render_camera(spec, pose)
        assert img.dtype == ref.dtype == np.float32
        assert img.shape == ref.shape
        assert np.count_nonzero(ref) > 0
        assert img.tobytes() == ref.tobytes()


@pytest.mark.parametrize("height", [_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_render_of_a_one_pixel_wide_camera_equals_whole_image(height):
    # one ray in the last rows: it is cast with the block before it
    spec = random_scene_spec(seed=5, camera=_camera(height, 1))
    for pose in _poses():
        assert _render_camera(spec, pose).tobytes() == reference_render_camera(spec, pose).tobytes()


@pytest.mark.parametrize("height", _HEIGHTS)
def test_camera_ray_blocks_are_slices_of_the_whole(height):
    cfg = _camera(height, 640)
    blocks = [_camera_rays(cfg, *rows) for rows in _row_blocks(np.full(height, cfg.width))]
    assert np.concatenate(blocks).tobytes() == reference_camera_rays(cfg).tobytes()


def test_rotation_of_a_block_equals_rows_of_the_whole_product():
    # the transposed product the caster and the target build apply per
    # block; _row_blocks never leaves a block with one point, whose
    # matrix-vector product may round differently
    rng = np.random.default_rng(8)
    whole_dirs = reference_camera_rays(_camera(320, 640))
    for pose in [*_poses(), RigidTransform.identity()]:
        rot = pose.rotation_matrix()
        whole = (rot @ whole_dirs.T).T
        for rows in (2, 3, 7, 640, _BLOCK_ROWS * 640, _BLOCK_ROWS * 640 + 3):
            cuts = np.arange(0, len(whole_dirs) - 1, rows)
            for start in (0, len(whole_dirs) - rows, *rng.choice(cuts, 4)):
                block = whole_dirs[start : start + rows]
                assert ((rot @ block.T).T).tobytes() == whole[start : start + rows].tobytes()


# --- the camera's per-block frustum cull ----------------------------------------


def _casts(spec, pose, monkeypatch):
    """The rendered image and, per ``_cast`` call of the render, the origin,
    the world directions and the primitives cast against."""
    calls = []
    cast = dataio._cast

    def recording(origin, dirs, primitives, max_range):
        calls.append((origin, dirs, primitives))
        return cast(origin, dirs, primitives, max_range)

    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_cast", recording)
        img = _render_camera(spec, pose)
    return img, calls


def _dropped(primitives, kept):
    """The primitives a block dropped; kept must be a subsequence of them."""
    kept = iter(kept)
    head = next(kept, None)
    dropped = []
    for prim in primitives:
        if prim is head:
            head = next(kept, None)
        else:
            dropped.append(prim)
    assert head is None
    return dropped


def _looking_up(x=0.0, y=0.0, z=0.0):
    # the identity rotation: the optical axis is world +z
    return RigidTransform.from_matrix(np.array([[1, 0, 0, x], [0, 1, 0, y], [0, 0, 1, z]], float))


_OFF_CENTRE = ProjectionConfig.pinhole(96, 40, fx=70.0, fy=52.0, cx=31.7, cy=26.2)
# odd sizes with the principal point on a pixel centre: one ray is the optical axis
_UP_WIDE = ProjectionConfig.pinhole(33, 33, fx=20.0, fy=20.0, cx=16.5, cy=16.5)
_UP_NARROW = ProjectionConfig.pinhole(33, 33, fx=400.0, fy=400.0, cx=16.5, cy=16.5)
# the default camera's rotation at the origin: optical axis world +x, image down world -z
_FORWARD = RigidTransform.from_matrix(np.array([[0, 0, 1, 0], [-1, 0, 0, 0], [0, -1, 0, 0]], float))


def _cull_cases():
    cam = default_sensor_poses()["camera"]
    yawed = compose(cam, from_euler([0.0, 0.0, 0.7, 0.0, 0.0, 0.0]))
    rolled_pitched = compose(cam, from_euler([0.3, -0.25, 0.0, 0.0, 0.0, 0.0]))
    all_three = compose(cam, from_euler([-0.4, 0.5, -1.1, 0.3, -0.2, 0.1]))
    scene = random_scene_spec(seed=5)
    # a pole, a box and a pole further off, and a canopy overhead
    poles = (GroundPlane(), Cylinder(cx=3.0, cy=0.0, radius=0.2, z_min=-1.6, z_max=0.5),
             Box(center=(-2.0, 1.5, 0.0), size=(0.6, 0.6, 3.0)),
             Cylinder(cx=0.0, cy=1.0, radius=0.3, z_min=-1.6, z_max=3.0),
             Box(center=(0.0, 0.0, 6.0), size=(2.0, 2.0, 0.2)))
    # from _FORWARD through _camera(65): a box across the border of image
    # rows 31 and 32 (10 m ahead, it lies at the height z_border, with cy
    # 32.5 and fy 48), one across the first column, one behind the camera, a
    # slab whose bounding sphere holds the camera, and a pole
    z_border = 10.0 * (32.5 - 32.0) / 48.0
    straddling = (
        GroundPlane(),
        Box(center=(10.0, 0.0, z_border), size=(0.5, 1.0, 1.0)),
        Box(center=(6.0, 6.0, 0.0), size=(0.5, 1.5, 1.0)),
        Box(center=(-5.0, 0.0, 0.0), size=(1.0, 1.0, 1.0)),
        Box(center=(1.5, -1.0, 0.0), size=(0.4, 3.0, 2.5)),
        Cylinder(cx=8.0, cy=-3.0, radius=0.3, z_min=-1.6, z_max=2.0),
    )
    return {
        "off-centre-default-pose": (replace(scene, camera=_OFF_CENTRE), cam),
        "off-centre-yawed": (replace(scene, camera=_OFF_CENTRE), yawed),
        "off-centre-rolled-pitched": (replace(scene, camera=_OFF_CENTRE), rolled_pitched),
        "off-centre-yawed-rolled-pitched": (replace(scene, camera=_OFF_CENTRE), all_three),
        "one-pixel-wide-31": (replace(scene, camera=_camera(_BLOCK_ROWS - 1, 1)), yawed),
        "one-pixel-wide-33": (replace(scene, camera=_camera(_BLOCK_ROWS + 1, 1)), all_three),
        "one-pixel-wide-65": (
            replace(scene, camera=_camera(2 * _BLOCK_ROWS + 1, 1)), rolled_pitched
        ),
        "height-31": (replace(scene, camera=_camera(_BLOCK_ROWS - 1)), rolled_pitched),
        "height-33": (replace(scene, camera=_camera(_BLOCK_ROWS + 1)), all_three),
        "looking-up-wide": (
            SceneSpec(primitives=poles, camera=_UP_WIDE), _looking_up(2.2, 0.0, -1.0)
        ),
        "looking-up-past-a-pole": (SceneSpec(primitives=poles, camera=_UP_NARROW), _looking_up()),
        "straddling-and-behind": (
            SceneSpec(primitives=straddling, camera=_camera(2 * _BLOCK_ROWS + 1)), _FORWARD
        ),
    }


_CULL_CASES = _cull_cases()


@pytest.mark.parametrize("case", list(_CULL_CASES), ids=list(_CULL_CASES))
def test_culled_render_equals_whole_image(case, monkeypatch):
    """Bit-equal to the image of every ray against every primitive, and
    every primitive a block drops has no hit of its rays in range.  The
    camera lies inside the bounding spheres of random_scene_spec's walls."""
    spec, pose = _CULL_CASES[case]
    img, calls = _casts(spec, pose, monkeypatch)
    ref = reference_render_camera(spec, pose)
    assert np.count_nonzero(ref) > 0
    assert img.tobytes() == ref.tobytes()
    for origin, dirs, kept in calls:
        for prim in _dropped(spec.primitives, kept):
            assert not np.any(prim.intersect(origin, dirs) <= spec.max_range)


def test_blocks_drop_what_lies_outside_their_frustum(monkeypatch):
    spec, pose = _CULL_CASES["straddling-and-behind"]
    _, calls = _casts(spec, pose, monkeypatch)
    ground, across_rows, across_column, behind, around_camera, pole = spec.primitives
    blocks_of = lambda prim: [any(p is prim for p in kept) for _, _, kept in calls]  # noqa: E731
    # blocks of rows [0, 32), [32, 64) and [64, 65)
    assert len(calls) == 3
    assert blocks_of(across_rows) == [True, True, False]
    assert blocks_of(across_column) == [True, True, False]
    assert blocks_of(behind) == [False, False, False]
    assert blocks_of(pole) == [True, True, False]
    # unbounded, and a sphere around the camera: never dropped
    assert blocks_of(ground) == blocks_of(around_camera) == [True, True, True]
    centre, radius = around_camera.bounding_sphere
    assert np.linalg.norm(np.asarray(centre) - pose.t) < radius


@pytest.mark.parametrize("scale, kept", [(0.0, True), (0.5, True), (1.0, True), (1.0005, True),
                                         (1.0009, True), (1.002, False), (1.5, False)])
def test_spheres_within_the_margin_of_a_plane_are_kept(scale, kept, monkeypatch):
    # a box whose bounding sphere's centre lies scale radii outside the left
    # plane of the first block's frustum, level with the block's middle row
    cfg = ProjectionConfig.pinhole(96, 64, fx=48.0, fy=48.0, cx=48.0, cy=32.0)
    x0 = (0.5 - cfg.cx) / cfg.fx
    y_mid = 0.5 * ((0.5 - cfg.cy) / cfg.fy + (_BLOCK_ROWS - 0.5 - cfg.cy) / cfg.fy)
    normal = np.array([1.0, 0.0, -x0]) / math.hypot(1.0, x0)
    box = Box(center=(0.0, 0.0, 0.0), size=(0.4, 0.6, 0.8))
    radius = box.bounding_sphere[1]
    centre = 10.0 * np.array([x0, y_mid, 1.0]) - scale * radius * normal
    box = replace(box, center=tuple(centre.tolist()))
    _, calls = _casts(SceneSpec(primitives=(box,), camera=cfg), _looking_up(), monkeypatch)
    assert (box in calls[0][2]) == kept


def test_a_scene_without_primitives_renders_an_empty_image():
    spec = replace(random_scene_spec(seed=5, camera=_camera(_BLOCK_ROWS + 1)), primitives=())
    img = _render_camera(spec, default_sensor_poses()["camera"])
    assert img.shape == (_BLOCK_ROWS + 1, 96, 1)
    assert not np.any(img)
