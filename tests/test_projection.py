import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sensorcal.data import PointCloud
from sensorcal.errors import SchemaMismatchError
from sensorcal.projection import (
    ProjectionConfig,
    SphericalCoord,
    _ranges,
    _winner_positions,
    cart_to_spherical,
    equirect_pixel,
    equirect_range_pixels,
    project_equirect,
    project_pinhole,
    resize_bilinear,
    unproject_pinhole,
)


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


def lexsort_range_pixels(xyz, cfg):
    """Reference reduction: range by np.linalg.norm, the plain pixel formula,
    and the 3-key (pixel, float64 range, point index) lexsort."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz, axis=1)
    keep = r > 0.0
    xyz, r = xyz[keep], r[keep]
    theta = np.arctan2(xyz[:, 1], xyz[:, 0])
    phi = np.arcsin(np.clip(xyz[:, 2] / np.where(r > 0, r, 1.0), -1.0, 1.0))
    u = np.floor((theta + np.pi) / (2.0 * np.pi) * cfg.width).astype(np.int64) % cfg.width
    v = np.floor((1.0 - (phi + 0.5 * np.pi) / np.pi) * cfg.height).astype(np.int64)
    pix = np.clip(v, 0, cfg.height - 1) * cfg.width + u
    winners = _winner_positions(pix, r, np.flatnonzero(keep))
    return pix[winners], r[winners].astype(np.float32)


def assert_same_range_pixels(xyz, cfg):
    pix, ranges = equirect_range_pixels(xyz, cfg)
    ref_pix, ref_ranges = lexsort_range_pixels(xyz, cfg)
    assert pix.dtype == ref_pix.dtype and ranges.dtype == ref_ranges.dtype
    assert pix.tobytes() == ref_pix.tobytes()
    assert ranges.tobytes() == ref_ranges.tobytes()


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


@given(arrays(np.float64, st.tuples(st.integers(0, 64), st.just(3)), elements=_coords))
def test_ranges_equal_linalg_norm(xyz):
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


def test_resize_constant_and_identity():
    img = np.full((8, 16, 2), 3.25, dtype=np.float32)
    out = resize_bilinear(img, 5, 3)
    assert out.shape == (3, 5, 2)
    assert np.allclose(out, 3.25)
    same = resize_bilinear(img, 16, 8)
    assert np.allclose(same, img, atol=1e-6)


def test_resize_2x2_to_center_average():
    img = np.array([[0.0, 2.0], [2.0, 4.0]], dtype=np.float32)[..., None]
    out = resize_bilinear(img, 1, 1)
    assert out.shape == (1, 1, 1)
    assert abs(float(out[0, 0, 0]) - 2.0) < 1e-6


def test_default_depth_image_pipeline():
    from sensorcal.projection import default_depth_image

    rng = np.random.default_rng(26)
    cloud = PointCloud(
        xyz=rng.uniform(-20, 20, (500, 3)),
        channels=rng.uniform(0, 1, (500, 1)),
        schema=("intensity",),
    )
    img = default_depth_image(cloud)
    assert img.shape == (512, 1024, 2)
    full = project_equirect(cloud, ProjectionConfig.equirect(2048, 1024, ("intensity",)))
    assert np.array_equal(img, resize_bilinear(full, 1024, 512))


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
