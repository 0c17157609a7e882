import math

import numpy as np
import pytest

from sensorcal.dataio import default_sensor_poses, generate_scene, random_scene_spec
from sensorcal.perturb import (
    PRESETS,
    MiscalBounds,
    ScenarioPreset,
    apply_miscalibration,
    sample_miscalibration,
)
from sensorcal.transform import (
    apply,
    compose,
    invert,
    to_euler,
)
from sensorcal.estimate import true_edges


@pytest.fixture(scope="module")
def frame():
    return generate_scene(random_scene_spec(seed=5, lidar_density=1200, radar_density=150),
                          default_sensor_poses())


def test_zero_bounds_gives_identity():
    rng = np.random.default_rng(0)
    t = sample_miscalibration(MiscalBounds(0.0, 0.0), rng)
    assert np.allclose(t.matrix(), np.eye(4))


def test_samples_respect_bounds():
    bounds = MiscalBounds(0.2, math.radians(1.0))
    rng = np.random.default_rng(42)
    for _ in range(10000):
        t = sample_miscalibration(bounds, rng)
        e = np.abs(to_euler(t))
        assert e[:3].max() <= bounds.max_rotation + 1e-12
        assert e[3:].max() <= bounds.max_translation + 1e-12


def test_sampling_is_deterministic():
    bounds = MiscalBounds(0.5, 0.3)
    a = sample_miscalibration(bounds, np.random.default_rng(42))
    b = sample_miscalibration(bounds, np.random.default_rng(42))
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)


def test_statistical_coverage():
    bounds = MiscalBounds(0.3, 0.2)
    rng = np.random.default_rng(7)
    n = 10000
    rot = rng.uniform(-bounds.max_rotation, bounds.max_rotation, (n, 3))
    # sample through the public API for the translation draws
    rng = np.random.default_rng(7)
    coords = np.empty((n, 6))
    for i in range(n):
        coords[i] = to_euler(sample_miscalibration(bounds, rng))
    for j, bound in enumerate([bounds.max_rotation] * 3 + [bounds.max_translation] * 3):
        col = coords[:, j]
        sigma = bound / math.sqrt(3.0)
        assert abs(col.mean()) < 3.0 * sigma / math.sqrt(n)
        assert col.min() < -0.99 * bound and col.max() > 0.99 * bound


def test_apply_records_and_restores(frame):
    rng = np.random.default_rng(9)
    mis = sample_miscalibration(MiscalBounds(0.5, 0.3), rng)
    perturbed = apply_miscalibration(frame, lidar_mis=mis)
    assert np.allclose(perturbed.lidar_mis.matrix(), mis.matrix())
    assert np.array_equal(perturbed.radar.xyz, frame.radar.xyz)
    assert np.array_equal(perturbed.camera_depth, frame.camera_depth)
    restored = apply_miscalibration(perturbed, lidar_mis=invert(mis))
    assert np.allclose(restored.lidar.xyz, frame.lidar.xyz, atol=1e-9)
    assert np.allclose(restored.lidar_mis.matrix(), np.eye(4), atol=1e-12)


def test_identity_miscalibration_is_noop(frame):
    same = apply_miscalibration(frame)
    assert same is frame


def test_radar_shift_moves_every_point(frame):
    from sensorcal.transform import RigidTransform

    shift = RigidTransform.from_translation(0.1, 0.0, 0.0)
    perturbed = apply_miscalibration(frame, radar_mis=shift)
    assert np.allclose(perturbed.radar.xyz - frame.radar.xyz, [0.1, 0.0, 0.0])


def test_recorded_miscalibration_reproduces_perturbed_pose(frame):
    """The recorded T_mis composed with the fixed calibration maps perturbed
    sensor data to the same camera-frame locations as the clean data."""
    rng = np.random.default_rng(11)
    mis = sample_miscalibration(MiscalBounds(0.4, 0.25), rng)
    perturbed = apply_miscalibration(frame, lidar_mis=mis)
    edge = true_edges(perturbed).cam_lidar
    assert np.allclose(edge.matrix(), compose(frame.fixed_cam_lidar, invert(mis)).matrix())
    via_perturbed = apply(edge, perturbed.lidar)
    via_clean = apply(frame.fixed_cam_lidar, frame.lidar)
    assert np.allclose(via_perturbed.xyz, via_clean.xyz, atol=1e-9)


def test_true_edges_close_loop(frame):
    rng = np.random.default_rng(12)
    perturbed = apply_miscalibration(
        frame,
        lidar_mis=sample_miscalibration(MiscalBounds(0.4, 0.25), rng),
        radar_mis=sample_miscalibration(MiscalBounds(0.4, 0.25), rng),
    )
    from sensorcal.loss import loop_transform

    loop = loop_transform(true_edges(perturbed))
    assert np.allclose(loop.matrix(), np.eye(4), atol=1e-9)


def test_presets_shrink():
    preset = PRESETS["refine"]
    assert len(preset.stages) == 4
    assert preset.stages[0].max_translation == 1.0
    assert abs(preset.stages[0].max_rotation - math.radians(20.0)) < 1e-12
    assert PRESETS["full"].stages[0].max_translation == 2.0
    assert len(PRESETS["full"].stages) == 5
    with pytest.raises(ValueError):
        ScenarioPreset("bad", (MiscalBounds(0.1, 0.1), MiscalBounds(0.2, 0.05)))
    with pytest.raises(ValueError):
        ScenarioPreset("empty", ())


@pytest.mark.parametrize(
    "translation, rotation",
    [(-0.1, 0.1), (0.1, -0.1), (math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf)],
)
def test_bounds_must_be_finite_and_non_negative(translation, rotation):
    with pytest.raises(ValueError, match="finite and >= 0"):
        MiscalBounds(translation, rotation)
