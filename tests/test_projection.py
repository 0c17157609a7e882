import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sensorcal.data import PointCloud
from sensorcal.errors import SchemaMismatchError
from sensorcal.estimate import _BATCH_POINTS
from sensorcal.projection import (
    _BLOCK_ROWS,
    ProjectionConfig,
    SphericalCoord,
    _merge_nearest,
    _range_image,
    _ranges,
    _rasterize,
    _row_blocks,
    _winner_positions,
    cart_to_spherical,
    equirect_pixel,
    equirect_range_pixels,
    equirect_range_pixels_batch,
    pinhole_range_pixels,
    project_equirect,
    project_pinhole,
    unproject_pinhole,
)
from sensorcal.transform import RigidTransform, from_euler_vector, transform_points


def brute_force_equirect(cloud, cfg):
    """Per-pixel minimum-range scan; the independent oracle for the rasterizer."""
    img = np.zeros((cfg.height, cfg.width, len(cfg.channels)), dtype=np.float32)
    best_r = np.full((cfg.height, cfg.width), np.inf)
    for i in range(len(cloud)):
        p = cloud.xyz[i]
        s = cart_to_spherical(p)
        if s.radius <= 0.0:
            continue
        u, v = equirect_pixel(s, cfg)
        if s.radius < best_r[v, u]:
            best_r[v, u] = s.radius
            img[v, u, 0] = s.radius
            img[v, u, 1:] = cloud.channels[i]
    return img


def test_cart_to_spherical_examples():
    s = cart_to_spherical([1, 0, 0])
    assert s == SphericalCoord(0.0, 0.0, 1.0)
    s = cart_to_spherical([0, 0, 1])
    assert s.azimuth == 0.0 and abs(s.elevation - math.pi / 2) < 1e-12 and s.radius == 1.0
    s = cart_to_spherical([-1, 0, 0])
    assert abs(s.azimuth - math.pi) < 1e-12 and s.elevation == 0.0
    assert cart_to_spherical([0, 0, 0]) == SphericalCoord(0.0, 0.0, 0.0)


def test_equirect_pixel_examples():
    cfg = ProjectionConfig.equirect(2048, 1024)
    assert equirect_pixel(SphericalCoord(0.0, 0.0, 1.0), cfg) == (1024, 512)
    # seam wrap at azimuth pi
    assert equirect_pixel(SphericalCoord(math.pi, 0.0, 1.0), cfg) == (0, 512)
    # pole clamp at elevation -pi/2
    assert equirect_pixel(SphericalCoord(0.0, -math.pi / 2, 1.0), cfg) == (1024, 1023)


def test_equirect_pixel_always_in_bounds():
    cfg = ProjectionConfig.equirect(512, 256)
    for theta in np.linspace(-math.pi, math.pi, 101):
        for phi in np.linspace(-math.pi / 2, math.pi / 2, 101):
            u, v = equirect_pixel(SphericalCoord(theta, phi, 1.0), cfg)
            assert 0 <= u < cfg.width and 0 <= v < cfg.height


def test_project_empty_cloud():
    cfg = ProjectionConfig.equirect(64, 32)
    img = project_equirect(PointCloud.bare(np.zeros((0, 3))), cfg)
    assert img.shape == (32, 64, 1) and not img.any()


def test_project_single_point_with_intensity():
    cfg = ProjectionConfig.equirect(2048, 1024, schema=("intensity",))
    cloud = PointCloud(xyz=[[1.0, 0.0, 0.0]], channels=[[7.0]], schema=("intensity",))
    img = project_equirect(cloud, cfg)
    assert img[512, 1024, 0] == np.float32(1.0)
    assert img[512, 1024, 1] == np.float32(7.0)
    assert np.count_nonzero(img) == 2


def test_nearest_wins_on_collision():
    cfg = ProjectionConfig.equirect(64, 32, schema=("intensity",))
    cloud = PointCloud(
        xyz=[[5.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        channels=[[1.0], [2.0]],
        schema=("intensity",),
    )
    img = project_equirect(cloud, cfg)
    u, v = equirect_pixel(cart_to_spherical([2, 0, 0]), cfg)
    assert img[v, u, 0] == np.float32(2.0)
    assert img[v, u, 1] == np.float32(2.0)


def test_zero_range_points_skipped():
    cfg = ProjectionConfig.equirect(64, 32)
    img = project_equirect(PointCloud.bare([[0.0, 0.0, 0.0]]), cfg)
    assert not img.any()


def test_schema_mismatch_raises():
    cfg = ProjectionConfig.equirect(64, 32)
    cloud = PointCloud(xyz=[[1, 0, 0]], channels=[[1.0]], schema=("intensity",))
    with pytest.raises(SchemaMismatchError):
        project_equirect(cloud, cfg)


def test_rasterizer_matches_brute_force_oracle():
    cfg = ProjectionConfig.equirect(96, 48, schema=("intensity",))
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = rng.integers(1, 500)
        cloud = PointCloud(
            xyz=rng.uniform(-20, 20, (n, 3)),
            channels=rng.uniform(0, 1, (n, 1)),
            schema=("intensity",),
        )
        fast = project_equirect(cloud, cfg)
        assert np.array_equal(fast, brute_force_equirect(cloud, cfg))


def test_permutation_invariance():
    cfg = ProjectionConfig.equirect(128, 64)
    rng = np.random.default_rng(22)
    cloud = PointCloud.bare(rng.uniform(-20, 20, (400, 3)))
    img = project_equirect(cloud, cfg)
    perm = rng.permutation(400)
    shuffled = PointCloud.bare(cloud.xyz[perm])
    assert np.array_equal(img, project_equirect(shuffled, cfg))


def test_sparse_range_pixels_match_raster():
    cfg = ProjectionConfig.equirect(128, 64)
    rng = np.random.default_rng(23)
    cloud = PointCloud.bare(rng.uniform(-20, 20, (300, 3)))
    img = project_equirect(cloud, cfg)
    pix, ranges = equirect_range_pixels(cloud.xyz, cfg)
    flat = img[..., 0].reshape(-1)
    assert np.array_equal(np.sort(pix), np.sort(np.flatnonzero(flat)))
    assert np.array_equal(flat[pix], ranges)


def reference_pixels(xyz, cfg):
    """Range by np.linalg.norm and the plain integer pixel formula, for the
    points with range > 0: (flat pixel ids, ranges, kept point indices)."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz, axis=1)
    keep = r > 0.0
    xyz, r = xyz[keep], r[keep]
    theta = np.arctan2(xyz[:, 1], xyz[:, 0])
    with np.errstate(invalid="ignore"):  # inf / inf elevations; NaN casts
        phi = np.arcsin(np.clip(xyz[:, 2] / np.where(r > 0, r, 1.0), -1.0, 1.0))
        u = np.floor((theta + np.pi) / (2.0 * np.pi) * cfg.width).astype(np.int64) % cfg.width
        v = np.floor((1.0 - (phi + 0.5 * np.pi) / np.pi) * cfg.height).astype(np.int64)
    return np.clip(v, 0, cfg.height - 1) * cfg.width + u, r, np.flatnonzero(keep)


def lexsort_range_pixels(xyz, cfg):
    """Reference reduction: the reference pixels and the 3-key (pixel,
    float64 range, point index) lexsort."""
    pix, r, index = reference_pixels(xyz, cfg)
    winners = _winner_positions(pix, r, index)
    return pix[winners], r[winners].astype(np.float32)


def packed_key_range_pixels(xyz, cfg):
    """Reference copy of the earlier packed-key implementation: integer
    pixel columns wrapped by % width, a clamped int64 row, and an (N, 3)
    temporary for the squared coordinates."""
    xyz = np.asarray(xyz, dtype=float)
    sq = xyz * xyz
    r = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    keep = r > 0.0
    if np.count_nonzero(keep) < keep.size:
        xyz, r = xyz[keep], r[keep]
    theta = np.arctan2(xyz[:, 1], xyz[:, 0])
    with np.errstate(invalid="ignore"):
        phi = np.arcsin(np.minimum(np.maximum(xyz[:, 2] / r, -1.0), 1.0))
        u = np.floor((theta + np.pi) / (2.0 * np.pi) * cfg.width).astype(np.int64) % cfg.width
        v = np.floor((1.0 - (phi + 0.5 * np.pi) / np.pi) * cfg.height).astype(np.int64)
    v = np.minimum(np.maximum(v, 0), cfg.height - 1)
    pix = (v * cfg.width + u).astype(np.uint64)
    key = (pix << np.uint64(32)) | r.astype(np.float32).view(np.uint32)
    key.sort()
    pix = (key >> np.uint64(32)).astype(np.int64)
    first = np.ones(key.size, dtype=bool)
    first[1:] = pix[1:] != pix[:-1]
    return pix[first], key[first].astype(np.uint32).view(np.float32)


def assert_same_range_pixels(xyz, cfg, reference=lexsort_range_pixels):
    pix, ranges = equirect_range_pixels(xyz, cfg)
    ref_pix, ref_ranges = reference(xyz, cfg)
    assert pix.dtype == ref_pix.dtype and ranges.dtype == ref_ranges.dtype
    assert pix.tobytes() == ref_pix.tobytes()
    assert ranges.tobytes() == ref_ranges.tobytes()


def rasterize_reference(cloud, cfg):
    """The channel path of project_equirect: _rasterize on the reference pixels."""
    pix, r, index = reference_pixels(cloud.xyz, cfg)
    return _rasterize(pix, r, cloud.channels[index], index, cfg)


_coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def collision_clouds(draw):
    """Random points plus exact duplicates (range ties), copies scaled by
    1 + 2**-40 (equal float32 but distinct float64 ranges), zero-range
    points and points on the +-pi azimuth seam, in random order."""
    base = draw(arrays(np.float64, (draw(st.integers(0, 40)), 3), elements=_coords))
    parts = [base]
    if len(base):
        picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=12))
        parts += [base[picks], base[picks] * (1.0 + 2.0**-40)]
    parts.append(np.zeros((draw(st.integers(0, 3)), 3)))
    seam = draw(arrays(np.float64, (draw(st.integers(0, 6)), 2), elements=st.floats(0.5, 50.0)))
    zero_y = draw(st.sampled_from([0.0, -0.0]))
    parts.append(np.stack([-seam[:, 0], np.full(len(seam), zero_y), seam[:, 1]], axis=1))
    xyz = np.concatenate(parts)
    order = draw(st.permutations(range(len(xyz))))
    return xyz[list(order)]


@given(
    xyz=collision_clouds(),
    width=st.integers(1, 48),
    height=st.integers(1, 24),
)
def test_range_pixels_equal_lexsort_reference(xyz, width, height):
    assert_same_range_pixels(xyz, ProjectionConfig.equirect(width, height))


@st.composite
def edge_clouds(draw):
    """collision_clouds plus points on both poles, far points (squared
    coordinates up to overflow), and rows with infinite coordinates."""
    parts = [draw(collision_clouds())]
    poles = draw(arrays(np.float64, draw(st.integers(0, 4)), elements=st.floats(-50.0, 50.0)))
    parts.append(np.stack([np.zeros_like(poles), np.zeros_like(poles), poles], axis=1))
    far = st.floats(1e6, 1e200) | st.floats(-1e200, -1e6) | st.floats(-1.0, 1.0)
    parts.append(draw(arrays(np.float64, (draw(st.integers(0, 4)), 3), elements=far)))
    infs = st.sampled_from([np.inf, -np.inf]) | st.floats(-50.0, 50.0)
    parts.append(draw(arrays(np.float64, (draw(st.integers(0, 4)), 3), elements=infs)))
    xyz = np.concatenate(parts)
    order = draw(st.permutations(range(len(xyz))))
    return xyz[list(order)]


_layouts = st.sampled_from(["C", "F"])


def _with_layout(xyz, layout):
    return np.asfortranarray(xyz) if layout == "F" else np.ascontiguousarray(xyz)


@given(
    xyz=edge_clouds(),
    layout=_layouts,
    width=st.integers(1, 48),
    height=st.integers(1, 24),
)
def test_range_pixels_equal_packed_key_reference(xyz, layout, width, height):
    with np.errstate(over="ignore", invalid="ignore"):  # far and infinite points
        assert_same_range_pixels(
            _with_layout(xyz, layout),
            ProjectionConfig.equirect(width, height),
            reference=packed_key_range_pixels,
        )


def test_range_pixels_put_non_finite_elevations_in_row_0():
    # inf / inf makes the elevation NaN; the integer row clamp sent it to 0
    cfg = ProjectionConfig.equirect(8, 4)
    xyz = np.array([[1.0, 0.0, np.inf], [0.0, 0.0, -np.inf], [-np.inf, 1.0, np.inf]])
    with np.errstate(invalid="ignore"):
        pix, ranges = equirect_range_pixels(xyz, cfg)
        assert_same_range_pixels(xyz, cfg, reference=packed_key_range_pixels)
    assert pix.tolist() == [0, 4]
    assert ranges.tolist() == [np.inf, np.inf]


@given(
    xyz=collision_clouds(),
    width=st.integers(1, 48),
    height=st.integers(1, 24),
)
def test_project_equirect_bare_equals_rasterize_path(xyz, width, height):
    # the packed-key reduction that gen-scene and the estimator use
    cfg = ProjectionConfig.equirect(width, height)
    img = _range_image(*equirect_range_pixels(xyz, cfg), cfg)
    assert img.tobytes() == rasterize_reference(PointCloud.bare(xyz), cfg).tobytes()


def test_project_equirect_bare_equals_rasterize_path_on_a_camera_cloud():
    rng = np.random.default_rng(25)
    cfg = ProjectionConfig.equirect(1536, 768)
    xyz = rng.normal(0.0, 15.0, (60000, 3))
    img = _range_image(*equirect_range_pixels(xyz, cfg), cfg)
    assert img.tobytes() == rasterize_reference(PointCloud.bare(xyz), cfg).tobytes()


def pinhole_rasterize_reference(cloud, cfg):
    """project_pinhole before bare clouds took the packed-key reduction:
    np.linalg.norm ranges and the lexsort of _rasterize for every cloud."""
    xyz = cloud.xyz
    z = xyz[:, 2]
    keep = z > 0.0
    xyz = xyz[keep]
    z = z[keep]
    u = np.floor(cfg.fx * xyz[:, 0] / z + cfg.cx).astype(np.int64)
    v = np.floor(cfg.fy * xyz[:, 1] / z + cfg.cy).astype(np.int64)
    inside = (u >= 0) & (u < cfg.width) & (v >= 0) & (v < cfg.height)
    index = np.flatnonzero(keep)[inside]
    xyz = xyz[inside]
    r = np.linalg.norm(xyz, axis=1)
    pix = v[inside] * cfg.width + u[inside]
    return _rasterize(pix, r, cloud.channels[index], index, cfg)


@given(
    xyz=collision_clouds(),
    layout=_layouts,
    width=st.integers(1, 48),
    height=st.integers(1, 24),
    focal=st.floats(0.25, 40.0),
    principal=st.tuples(st.floats(-4.0, 52.0), st.floats(-4.0, 28.0)),
)
def test_project_pinhole_bare_equals_rasterize_path(xyz, layout, width, height, focal, principal):
    # collision_clouds has range ties, float32 ties, zero points and z <= 0
    cfg = ProjectionConfig.pinhole(width, height, focal, 0.5 * focal, *principal)
    cloud = PointCloud.bare(_with_layout(xyz, layout))
    assert_pinhole_equals_reference(cloud, cfg)


def assert_pinhole_equals_reference(cloud, cfg):
    """Bare clouds through the packed-key reduction that gen-scene and render
    use, clouds with channels through project_pinhole."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if cloud.schema:
            img = project_pinhole(cloud, cfg)
        else:
            img = _range_image(*pinhole_range_pixels(cloud.xyz, cfg), cfg)
    with np.errstate(invalid="ignore", over="ignore"):  # the reference casts columns past int64
        ref = pinhole_rasterize_reference(cloud, cfg)
    assert img.tobytes() == ref.tobytes()


@pytest.mark.parametrize("channels", [False, True])
def test_project_pinhole_points_near_the_image_plane_raise_no_warning(channels):
    # x / z beyond the int64 range (1e-300) and beyond the float range
    # (subnormal z), next to points that land inside the raster
    tiny = np.array([1e-300, 5e-324, 2.2e-308, 1e-20])
    xyz = np.concatenate([
        np.stack([np.full(4, 3.0), np.full(4, -2.0), tiny], axis=1),
        np.stack([np.full(4, -40.0), np.zeros(4), tiny], axis=1),
        [[0.0, 0.0, 1e-300], [0.1, 0.2, 1.0], [-0.3, 0.1, 2.0], [50.0, 50.0, 1e-3]],
    ])
    schema = ("intensity",) if channels else ()
    cfg = ProjectionConfig.pinhole(32, 16, 8.0, 8.0, 16.0, 8.0, schema=schema)
    cloud = PointCloud(xyz=xyz, channels=np.arange(len(xyz), dtype=float), schema=schema)
    assert_pinhole_equals_reference(cloud, cfg)
    assert np.count_nonzero(project_pinhole(cloud, cfg)[..., 0]) == 2


def test_project_pinhole_bare_equals_rasterize_path_on_a_camera_cloud():
    rng = np.random.default_rng(26)
    cfg = ProjectionConfig.pinhole(640, 320, fx=320.0, fy=320.0, cx=320.0, cy=160.0)
    xyz = rng.normal(0.0, 15.0, (60000, 3))
    xyz[:20000] = np.round(xyz[:20000], 1)  # many points per pixel, exact ties
    img = _range_image(*pinhole_range_pixels(xyz, cfg), cfg)
    assert img.tobytes() == pinhole_rasterize_reference(PointCloud.bare(xyz), cfg).tobytes()


_ranges_elements = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0])


@given(
    arrays(np.float64, st.tuples(st.integers(0, 64), st.just(3)), elements=_ranges_elements),
    _layouts,
)
def test_ranges_equal_linalg_norm(xyz, layout):
    xyz = _with_layout(xyz, layout)
    with np.errstate(over="ignore"):
        assert _ranges(xyz).tobytes() == np.linalg.norm(xyz, axis=1).tobytes()


def test_range_pixels_equal_lexsort_reference_at_cost_resolution():
    rng = np.random.default_rng(24)
    cfg = ProjectionConfig.equirect(1536, 768)
    for n in (0, 1, 400, 5000):
        xyz = rng.normal(0.0, 15.0, (n, 3))
        xyz[: n // 10] = 0.0
        assert_same_range_pixels(xyz, cfg)
        assert _ranges(xyz).tobytes() == np.linalg.norm(xyz, axis=1).tobytes()


def test_range_pixels_reject_rasters_of_2_pow_32_pixels():
    pole = np.array([[0.0, 0.0, -1.0]])
    with pytest.raises(ValueError, match="2\\*\\*32"):
        equirect_range_pixels(pole, ProjectionConfig.equirect(2**16, 2**16))
    # one pixel fewer still fits: the pole lands in the last row, whose ids
    # need all 32 bits of the key's high word
    cfg = ProjectionConfig.equirect(65537, 65535)
    assert_same_range_pixels(pole, cfg)
    assert equirect_range_pixels(pole, cfg)[0][0] >= 2**31


# --- batches of candidates ---------------------------------------------------------

# the two rasters the estimator projects onto: the cost raster and the
# lidar_radar raster, 8 times smaller
_COST_RASTERS = (ProjectionConfig.equirect(1536, 768), ProjectionConfig.equirect(192, 96))


def assert_batch_equals_one_at_a_time(segments, cfg):
    batch = equirect_range_pixels_batch(segments, cfg)
    assert len(batch) == len(segments)
    for (candidate, xyz), (pix, r) in zip(segments, batch):
        ref_pix, ref_r = equirect_range_pixels(transform_points(candidate, xyz), cfg)
        assert pix.dtype == ref_pix.dtype == np.int64 and r.dtype == ref_r.dtype == np.float32
        assert pix.tobytes() == ref_pix.tobytes()
        assert r.tobytes() == ref_r.tobytes()


_small_poses = st.tuples(*[st.floats(-0.3, 0.3)] * 3 + [st.floats(-2.0, 2.0)] * 3)


@st.composite
def candidate_segments(draw):
    """(candidate, source) pairs: empty, one- and two-point sources, random
    clouds with ties and seam points, points on the poles and on the seam
    under translations that keep them there, and points that the
    candidate's translation moves to range exactly 0."""
    segments = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["empty", "one", "two", "cloud", "zero", "poles", "seam"]))
        pose = np.array(draw(_small_poses))
        candidate = draw(st.sampled_from([RigidTransform.identity(), from_euler_vector(pose)]))
        if kind == "empty":
            xyz = np.zeros((0, 3))
        elif kind in ("one", "two"):
            n = 1 if kind == "one" else 2
            xyz = draw(arrays(np.float64, (n, 3), elements=_coords))
        elif kind == "cloud":
            xyz = draw(collision_clouds())
        else:
            # a pure translation: its rotation is the exact identity, so
            # x + t, y + t and z + t are the only roundings
            t = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
            if kind == "seam":
                t[1] = 0.0
            elif kind == "poles":
                t[:2] = 0.0
            candidate = from_euler_vector(np.concatenate([np.zeros(3), t]))
            k = draw(st.integers(1, 6))
            if kind == "zero":
                xyz = np.concatenate([np.tile(-t, (k, 1)), draw(arrays(np.float64, (2, 3), elements=_coords))])
            elif kind == "poles":
                z = draw(arrays(np.float64, k, elements=st.floats(-50.0, 50.0)))
                xyz = np.stack([np.zeros(k), np.zeros(k), z], axis=1)
            else:
                a = draw(arrays(np.float64, (k, 2), elements=st.floats(5.0, 50.0)))
                y = draw(st.sampled_from([0.0, -0.0]))
                xyz = np.stack([-a[:, 0], np.full(k, y), a[:, 1]], axis=1)
        segments.append((candidate, xyz))
    return segments


@given(segments=candidate_segments(), cfg=st.sampled_from(_COST_RASTERS))
def test_batch_equals_one_at_a_time(segments, cfg):
    assert_batch_equals_one_at_a_time(segments, cfg)


def test_batch_moves_points_to_range_0_on_the_poles_and_the_seam():
    # the cases the strategy above draws, pinned: a translation that sends a
    # point to the origin drops it; poles land in the first and last rows,
    # seam points in column 0
    t = np.array([0.5, 0.0, -1.5])
    to_zero = from_euler_vector(np.concatenate([np.zeros(3), t]))
    down = from_euler_vector(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.5]))
    xyz = np.array([[0.0, 0.0, 9.0], [0.0, 0.0, -9.0], [-4.0, 0.0, 1.5], [-4.0, -0.0, 1.5]])
    assert transform_points(to_zero, -t[None]).tolist() == [[0.0, 0.0, 0.0]]
    for cfg in _COST_RASTERS:
        w, h = cfg.width, cfg.height
        segments = [(to_zero, -t[None]), (down, xyz), (to_zero, np.concatenate([-t[None], xyz]))]
        assert_batch_equals_one_at_a_time(segments, cfg)
        (zero, _), (pix, r), (mixed, _) = equirect_range_pixels_batch(segments, cfg)
        assert zero.size == 0 and mixed.size == 3  # both seam points share a pixel
        assert pix.tolist() == [w // 2, (h // 2) * w, (h - 1) * w + w // 2]
        assert r.tolist() == [7.5, 4.0, 10.5]


def test_batches_at_the_point_cap():
    # the largest batches the estimator sends: one source of _BATCH_POINTS
    # points, and 400-point radar sources up to the cap, next to empty ones
    rng = np.random.default_rng(31)
    poses = rng.uniform(-0.2, 0.2, (41, 6))
    big = rng.normal(0.0, 15.0, (_BATCH_POINTS, 3))
    radar = rng.normal(0.0, 15.0, (400, 3))
    for cfg in _COST_RASTERS:
        assert_batch_equals_one_at_a_time([(from_euler_vector(poses[0]), big)], cfg)
        segments = [(from_euler_vector(p), radar) for p in poses[: _BATCH_POINTS // 400]]
        segments.insert(3, (from_euler_vector(poses[-1]), radar[:0]))
        segments.append((RigidTransform.identity(), radar[:1]))
        assert_batch_equals_one_at_a_time(segments, cfg)


def test_batch_splits_segments_that_overflow_the_key():
    # 2**31 pixels leave one bit of the key's high word for the segment
    # index, so five segments take three sorts; 1536x768 leaves 11 bits
    rng = np.random.default_rng(32)
    pole = np.array([[0.0, 0.0, -1.0], [3.0, -4.0, 0.5]])
    wide = ProjectionConfig.equirect(2**16, 2**15)
    segments = [(from_euler_vector(p), pole) for p in rng.uniform(-0.2, 0.2, (5, 6))]
    assert_batch_equals_one_at_a_time(segments, wide)
    cloud = rng.normal(0.0, 15.0, (3, 3))
    segments = [(RigidTransform.identity(), cloud[: k % 4]) for k in range(2**11 + 3)]
    assert_batch_equals_one_at_a_time(segments, _COST_RASTERS[0])


def test_batch_of_none_is_empty():
    assert equirect_range_pixels_batch([], _COST_RASTERS[0]) == []


def test_full_sphere_coverage_vs_pinhole():
    rng = np.random.default_rng(24)
    dirs = rng.normal(size=(10000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(1.0, 50.0, (10000, 1))
    cfg = ProjectionConfig.equirect(512, 256)
    pix, _ = equirect_range_pixels(pts, cfg)
    # no point is discarded: every one lands on a valid pixel
    u = np.floor((np.arctan2(pts[:, 1], pts[:, 0]) + np.pi) / (2 * np.pi) * 512).astype(int) % 512
    assert u.size == 10000
    cam = ProjectionConfig.pinhole(512, 256, fx=256.0, fy=256.0, cx=256.0, cy=128.0)
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uu = np.floor(cam.fx * pts[:, 0] / z + cam.cx)
        vv = np.floor(cam.fy * pts[:, 1] / z + cam.cy)
    kept = (z > 0) & (uu >= 0) & (uu < 512) & (vv >= 0) & (vv < 256)
    assert np.count_nonzero(~kept) > 5000


def test_pinhole_examples():
    cfg = ProjectionConfig.pinhole(1024, 512, fx=500.0, fy=500.0, cx=512.0, cy=256.0)
    img = project_pinhole(PointCloud.bare([[0.0, 0.0, 5.0]]), cfg)
    assert img[256, 512, 0] == np.float32(5.0)
    img = project_pinhole(PointCloud.bare([[0.0, 0.0, -1.0]]), cfg)
    assert not img.any()
    img = project_pinhole(PointCloud.bare([[1.0, 0.0, 5.0]]), cfg)
    v = int(math.floor(500 * 0 / 5 + 256))
    assert img[v, 612, 0] > 0


def test_unproject_pinhole_roundtrip():
    cfg = ProjectionConfig.pinhole(64, 32, fx=32.0, fy=32.0, cx=32.0, cy=16.0)
    rng = np.random.default_rng(25)
    pts = np.column_stack(
        [rng.uniform(-2, 2, 200), rng.uniform(-1, 1, 200), rng.uniform(3, 10, 200)]
    )
    img = project_pinhole(PointCloud.bare(pts), cfg)
    cloud = unproject_pinhole(img, cfg)
    img2 = project_pinhole(cloud, cfg)
    occ = img[..., 0] > 0
    assert np.array_equal(occ, img2[..., 0] > 0)
    assert np.allclose(img[occ, 0], img2[occ, 0], rtol=1e-5)


def test_unproject_equirect_roundtrip():
    from sensorcal.projection import unproject_equirect

    cfg = ProjectionConfig.equirect(256, 128)
    rng = np.random.default_rng(27)
    cloud = PointCloud.bare(rng.uniform(-20, 20, (300, 3)))
    img = project_equirect(cloud, cfg)
    back = unproject_equirect(img, cfg)
    img2 = project_equirect(back, cfg)
    occ = img[..., 0] > 0
    # pixel-center directions land back in the same pixels with the same range
    assert np.array_equal(occ, img2[..., 0] > 0)
    assert np.allclose(img[occ, 0], img2[occ, 0], rtol=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(width=0, height=4)
    with pytest.raises(ValueError):
        ProjectionConfig(width=4, height=4, channels=("intensity",))
    with pytest.raises(ValueError):
        ProjectionConfig(width=4, height=4, mode="pinhole")


# --- blocks of points ------------------------------------------------------------


@given(
    xyz=collision_clouds(),
    cuts=st.lists(st.integers(0, 200), max_size=4),
    width=st.integers(1, 48),
    height=st.integers(1, 24),
)
def test_merged_blocks_equal_the_whole_reduction(xyz, cuts, width, height):
    # collision clouds hold exact range ties and repeated points, which the
    # cuts spread over several blocks, in any order
    cfg = ProjectionConfig.equirect(width, height)
    bounds = [0, *sorted(min(c, len(xyz)) for c in cuts), len(xyz)]
    blocks = [equirect_range_pixels(xyz[a:b], cfg) for a, b in zip(bounds[:-1], bounds[1:])]
    for order in (blocks, blocks[::-1]):
        pix, r = _merge_nearest(iter(order), cfg)
        ref_pix, ref_r = equirect_range_pixels(xyz, cfg)
        assert pix.dtype == ref_pix.dtype and r.dtype == ref_r.dtype
        assert pix.tobytes() == ref_pix.tobytes() and r.tobytes() == ref_r.tobytes()


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4 * _BLOCK_ROWS + 5))
def test_row_blocks_cover_the_image_and_never_hold_one_point_alone(counts):
    counts = np.array(counts)
    blocks = _row_blocks(counts)
    assert blocks[0][0] == 0 and blocks[-1][1] == len(counts)
    assert all(a[1] == b[0] for a, b in zip(blocks[:-1], blocks[1:]))
    assert all(row1 - row0 >= _BLOCK_ROWS for row0, row1 in blocks[:-1])
    if len(blocks) > 1:
        assert all(counts[row0:row1].sum() != 1 for row0, row1 in blocks)


def test_row_blocks_of_full_rows():
    assert _row_blocks(np.full(1, 640)) == [(0, 1)]
    assert _row_blocks(np.full(64, 640)) == [(0, 32), (32, 64)]
    assert _row_blocks(np.full(65, 640)) == [(0, 32), (32, 64), (64, 65)]
    # a one-ray last row is cast with the block before it
    assert _row_blocks(np.full(65, 1)) == [(0, 32), (32, 65)]
    assert _row_blocks(np.full(33, 1)) == [(0, 33)]


def test_unproject_pinhole_of_row_blocks_equals_the_whole_image():
    cfg = ProjectionConfig.pinhole(48, 70, fx=30.0, fy=31.0, cx=23.5, cy=36.25)
    rng = np.random.default_rng(21)
    depth = rng.uniform(0.5, 60.0, (70, 48, 1)).astype(np.float32)
    depth[rng.random((70, 48)) < 0.4] = 0.0
    whole = unproject_pinhole(depth, cfg).xyz
    parts = [
        unproject_pinhole(depth[row0:row1], cfg, first_row=row0).xyz
        for row0, row1 in ((0, 1), (1, 32), (32, 33), (33, 70))
    ]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@given(
    xyz=arrays(np.float64, st.tuples(st.integers(0, 60), st.just(3)), elements=st.floats(-20.0, 20.0)),
    layout=_layouts,
)
def test_pinhole_range_pixels_scatter_to_the_image(xyz, layout):
    cfg = ProjectionConfig.pinhole(24, 16, fx=10.0, fy=10.0, cx=12.0, cy=8.0)
    pix, r = pinhole_range_pixels(_with_layout(xyz, layout), cfg)
    assert np.all(np.diff(pix) > 0)
    img = np.zeros(cfg.height * cfg.width, dtype=np.float32)
    img[pix] = r
    assert img.tobytes() == project_pinhole(PointCloud.bare(xyz), cfg).tobytes()
