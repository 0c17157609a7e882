import math
from dataclasses import replace

import numpy as np
import pytest

from sensorcal.data import LIDAR_CHANNELS, RADAR_CHANNELS, FrameSet, PointCloud
from sensorcal.dataio import (
    GroundPlane,
    SceneSpec,
    default_sensor_poses,
    generate_scene,
    load_calib,
    load_cloud,
    load_frame,
    random_scene_spec,
    read_pgm,
    save_calib,
    save_cloud,
    save_frame,
    write_pgm,
)
from sensorcal.errors import (
    DegenerateSceneError,
    NonRigidError,
    ParseError,
    SizeMismatchError,
)
from sensorcal.loss import PredictionSet
from sensorcal.projection import ProjectionConfig, project_equirect
from sensorcal.transform import RigidTransform, from_euler


def test_scene_is_deterministic():
    poses = default_sensor_poses()
    spec = random_scene_spec(seed=3, lidar_density=800, radar_density=100)
    a = generate_scene(spec, poses)
    b = generate_scene(spec, poses)
    assert np.array_equal(a.lidar.xyz, b.lidar.xyz)
    assert np.array_equal(a.lidar.channels, b.lidar.channels)
    assert np.array_equal(a.radar.xyz, b.radar.xyz)
    assert np.array_equal(a.camera_depth, b.camera_depth)
    assert np.array_equal(a.fixed.cam_lidar.q, b.fixed.cam_lidar.q)


def test_scene_schemas_and_loop():
    poses = default_sensor_poses()
    frame = generate_scene(random_scene_spec(seed=4, lidar_density=800, radar_density=120), poses)
    assert frame.lidar.schema == LIDAR_CHANNELS
    assert frame.radar.schema == RADAR_CHANNELS
    loop = frame.fixed.cam_lidar.matrix() @ frame.fixed.lidar_radar.matrix() @ frame.fixed.radar_cam.matrix()
    assert np.allclose(loop, np.eye(4), atol=1e-12)


def test_colocated_sensors_measure_same_geometry():
    pose = RigidTransform.identity()
    poses = {"camera": default_sensor_poses()["camera"], "lidar": pose, "radar": pose}
    spec = SceneSpec(seed=5, primitives=(GroundPlane(z=-1.5),), lidar_density=3000,
                     radar_density=500, radar_elevation=(-0.4, -0.2),
                     lidar_elevation=(-0.45, -0.15))
    frame = generate_scene(spec, poses)
    # every return must sit on the plane: analytic range check per direction
    for cloud in (frame.lidar, frame.radar):
        dirs = cloud.xyz / np.linalg.norm(cloud.xyz, axis=1, keepdims=True)
        expected = -1.5 / dirs[:, 2]
        assert np.allclose(np.linalg.norm(cloud.xyz, axis=1), expected, atol=1e-9)
    # and the two sensors agree where their rasters overlap
    cfg = ProjectionConfig.equirect(256, 128)
    lidar_img = project_equirect(frame.lidar.without_channels(), cfg)[..., 0]
    radar_img = project_equirect(frame.radar.without_channels(), cfg)[..., 0]
    both = (lidar_img > 0) & (radar_img > 0)
    assert np.count_nonzero(both) > 50
    assert np.median(np.abs(lidar_img[both] - radar_img[both])) < 0.3


def test_radar_dropout_halves_count():
    poses = default_sensor_poses()
    full = generate_scene(random_scene_spec(seed=6, radar_density=2000, radar_dropout=0.0), poses)
    half = generate_scene(random_scene_spec(seed=6, radar_density=2000, radar_dropout=0.5), poses)
    n = len(full.radar)
    sigma = math.sqrt(n * 0.25)
    assert abs(len(half.radar) - 0.5 * n) < 4.0 * sigma


def test_degenerate_scene_raises():
    poses = default_sensor_poses()
    with pytest.raises(DegenerateSceneError):
        generate_scene(SceneSpec(seed=0, primitives=()), poses)
    with pytest.raises(DegenerateSceneError):
        generate_scene(random_scene_spec(seed=0, radar_density=3), poses)


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(radar_dropout=1.0)
    with pytest.raises(ValueError):
        SceneSpec(lidar_noise=-0.1)
    with pytest.raises(ValueError):
        SceneSpec(lidar_density=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lidar_noise", math.nan),
        ("radar_noise", math.inf),
        ("rcs_noise", math.nan),
        ("rcs_noise", -1.0),
        ("radar_dropout", math.nan),
    ],
)
def test_spec_rejects_non_finite_and_negative_sigmas(field, value):
    with pytest.raises(ValueError):
        SceneSpec(**{field: value})


def test_calib_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    transforms = {
        "cam_lidar": from_euler(rng.uniform(-1, 1, 6)),
        "lidar_radar": from_euler(rng.uniform(-1, 1, 6)),
    }
    path = tmp_path / "calib.txt"
    save_calib(transforms, path)
    loaded = load_calib(path)
    for key, t in transforms.items():
        assert np.allclose(loaded[key].q, t.q, atol=1e-15)
        assert np.allclose(loaded[key].t, t.t, atol=1e-15)


def test_calib_identity_row(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("pair: 1 0 0 0 0 1 0 0 0 0 1 0\n")
    loaded = load_calib(path)
    assert np.allclose(loaded["pair"].matrix(), np.eye(4))


def test_calib_malformed_rows(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("pair: 1 0 0 0 0 1 0 0 0 0 1\n")  # 11 values
    with pytest.raises(ParseError, match="pair"):
        load_calib(path)
    path.write_text("pair: a b c d e f g h i j k l\n")
    with pytest.raises(ParseError):
        load_calib(path)
    path.write_text("no separator here\n")
    with pytest.raises(ParseError):
        load_calib(path)


def test_calib_nonrigid_rejected(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("pair: 2 0 0 0 0 1 0 0 0 0 1 0\n")
    with pytest.raises(NonRigidError):
        load_calib(path)


def test_cloud_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    xyz = rng.uniform(-50, 50, (1000, 3)).astype(np.float32)
    chans = rng.uniform(-10, 30, (1000, 3)).astype(np.float32)
    cloud = PointCloud(xyz=xyz, channels=chans, schema=RADAR_CHANNELS)
    path = tmp_path / "radar.bin"
    save_cloud(cloud, path)
    loaded = load_cloud(path, RADAR_CHANNELS)
    assert np.array_equal(loaded.xyz.astype(np.float32), xyz)
    assert np.array_equal(loaded.channels.astype(np.float32), chans)


def test_cloud_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    cloud = load_cloud(path, LIDAR_CHANNELS)
    assert len(cloud) == 0


def test_cloud_size_mismatch(tmp_path):
    path = tmp_path / "bad.bin"
    np.arange(13, dtype="<f4").tofile(path)
    with pytest.raises(SizeMismatchError):
        load_cloud(path, LIDAR_CHANNELS)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    img = rng.uniform(0, 75, (32, 64))
    path = tmp_path / "depth.pgm"
    write_pgm(img, path, max_value=80.0)
    back = read_pgm(path) * 80.0
    assert np.max(np.abs(back - img)) <= 80.0 / 65535.0 + 1e-9


def test_pgm_written_file_reads_back_exactly(tmp_path):
    rng = np.random.default_rng(44)
    img = rng.uniform(-5, 90, (24, 40))
    path = tmp_path / "depth.pgm"
    write_pgm(img, path, max_value=80.0)
    codes = np.round(np.clip(img / 80.0, 0.0, 1.0) * 65535.0)
    assert np.array_equal(read_pgm(path), codes / 65535.0)


@pytest.mark.parametrize(
    "header",
    [
        b"P5 2 2 255\n",
        b"P5\n# written by hand\n2 2\n# maxval next\n255\n",
        b"P5#comment right after the magic\n2\t2\r\n255 ",
        b"P5\n2 # width\n2 # height\n255\r",
    ],
)
def test_pgm_netpbm_headers(tmp_path, header):
    # the raster starts with whitespace byte values: only one header byte may go
    path = tmp_path / "hand.pgm"
    path.write_bytes(header + bytes([10, 32, 35, 255]))
    assert np.array_equal(read_pgm(path), np.array([[10, 32], [35, 255]]) / 255.0)


def test_pgm_16_bit_with_comment(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n# 16 bit\n3 1\n1000\n" + np.array([0, 500, 1000], ">u2").tobytes())
    assert np.array_equal(read_pgm(path), np.array([[0.0, 0.5, 1.0]]))


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"P2\n2 2\n255\n0 1 2 3", "not a binary PGM"),
        (b"P5\n2 2\n", "malformed PGM header"),
        (b"P5\n2 x 255\n\0\0\0\0", "malformed PGM header"),
        (b"P5\n2 2\n0\n\0\0\0\0", "maxval 0"),
        (b"P5\n2 2\n70000\n" + bytes(8), "maxval 70000"),
        (b"P5\n2 2\n255\n\0\0\0", "raster has 3 bytes"),
        (b"P5\n2 2\n65535\n" + bytes(7), "raster has 7 bytes"),
    ],
)
def test_pgm_malformed_files_raise_parse_error(tmp_path, blob, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=message):
        read_pgm(path)


def test_frame_roundtrip(tmp_path):
    poses = default_sensor_poses()
    frame = generate_scene(random_scene_spec(seed=8, lidar_density=800, radar_density=120), poses)
    save_frame(frame, tmp_path / "f0", depth_scale=80.0)
    loaded = load_frame(tmp_path / "f0", frame.camera_config, 80.0)
    assert np.array_equal(
        loaded.lidar.xyz.astype(np.float32), frame.lidar.xyz.astype(np.float32)
    )
    assert np.array_equal(
        loaded.radar.channels.astype(np.float32), frame.radar.channels.astype(np.float32)
    )
    assert np.allclose(loaded.fixed.cam_lidar.q, frame.fixed.cam_lidar.q, atol=1e-15)
    occ = frame.camera_depth[..., 0] > 0
    assert np.array_equal(loaded.camera_depth[..., 0] > 0.5, occ)
    assert np.max(np.abs(loaded.camera_depth[occ] - frame.camera_depth[occ])) < 80.0 / 65535.0 + 1e-6
    # clean frames carry no mis.txt and load with identity miscalibration
    assert not (tmp_path / "f0" / "mis.txt").exists()
    assert np.allclose(loaded.lidar_mis.matrix(), np.eye(4))


def test_clouds_and_frames_compare_by_identity():
    cloud = PointCloud.bare(np.eye(3))
    twin = PointCloud.bare(np.eye(3))
    assert cloud == cloud and cloud != twin
    assert len({cloud, twin}) == 2
    identity = RigidTransform.identity()
    frame = FrameSet(
        index=0,
        camera_depth=np.zeros((2, 2, 1), dtype=np.float32),
        camera_config=ProjectionConfig.pinhole(2, 2, fx=1.0, fy=1.0, cx=1.0, cy=1.0),
        lidar=cloud,
        radar=twin,
        fixed=PredictionSet(identity, identity, identity),
    )
    assert frame == frame and frame != replace(frame)
