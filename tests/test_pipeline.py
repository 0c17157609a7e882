import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sensorcal.data import RADAR_CHANNELS, PointCloud
from sensorcal.dataio import default_sensor_poses, generate_scene, random_scene_spec
from sensorcal.errors import EmptyListError, LengthMismatchError, MissingPairError, NoOverlapError
from sensorcal.estimate import (
    AlignmentCostConfig,
    EstimatorStage,
    identity_estimator,
    oracle_estimator,
    pairwise_estimator,
    true_edges,
)
from sensorcal.loss import PredictionSet
from sensorcal.perturb import PRESETS, MiscalBounds, apply_miscalibration, sample_miscalibration
from sensorcal.pipeline import (
    accumulate_radar,
    aggregate_sequence,
    refine_multiframe,
    sensor_corrections,
    stages_from_preset,
)
from sensorcal.transform import (
    RigidTransform,
    compose,
    from_euler,
    invert,
    quat_angular_distance,
    translation_distance,
)

POSES = default_sensor_poses()
SMALL = MiscalBounds(0.2, math.radians(1.0))


@pytest.fixture(scope="module")
def perturbed():
    frame = generate_scene(
        random_scene_spec(seed=70, lidar_density=2000, radar_density=300), POSES
    )
    rng = np.random.default_rng(71)
    return apply_miscalibration(
        frame,
        lidar_mis=sample_miscalibration(SMALL, rng),
        radar_mis=sample_miscalibration(SMALL, rng),
    )


def test_sensor_corrections_roundtrip(perturbed):
    lidar, radar = sensor_corrections(true_edges(perturbed), perturbed)
    assert np.allclose(lidar.matrix(), perturbed.lidar_mis.matrix(), atol=1e-9)
    assert np.allclose(radar.matrix(), perturbed.radar_mis.matrix(), atol=1e-9)


def test_sensor_corrections_from_lidar_radar_edge(perturbed):
    gt = true_edges(perturbed)
    partial = PredictionSet(cam_lidar=gt.cam_lidar, lidar_radar=gt.lidar_radar)
    lidar, radar = sensor_corrections(partial, perturbed)
    assert np.allclose(radar.matrix(), perturbed.radar_mis.matrix(), atol=1e-9)


def test_single_stage_equals_plain_estimate(perturbed):
    cfg = AlignmentCostConfig()
    estimator = pairwise_estimator(cfg, pairs=("cam_lidar",), seed=2)
    stage = EstimatorStage(bounds=SMALL, budget=400)
    direct = estimator([perturbed], stage)
    refined = refine_multiframe([perturbed], estimator, [stage]).final
    assert np.allclose(refined.cam_lidar.q, direct.cam_lidar.q, atol=1e-12)
    assert np.allclose(refined.cam_lidar.t, direct.cam_lidar.t, atol=1e-12)


def test_oracle_fixed_point(perturbed):
    stages = stages_from_preset(PRESETS["refine"])
    detail = refine_multiframe([perturbed], oracle_estimator, stages)
    gt = true_edges(perturbed)
    for name, value in detail.final.present():
        assert np.allclose(value.q, gt.get(name).q, atol=1e-9)
        assert np.allclose(value.t, gt.get(name).t, atol=1e-9)
    # stage 1 recovers everything; later corrections are identity
    for m_lidar, m_radar in detail.corrections[1:]:
        assert np.allclose(m_lidar.matrix(), np.eye(4), atol=1e-9)
        assert np.allclose(m_radar.matrix(), np.eye(4), atol=1e-9)


def test_identity_estimator_changes_nothing(perturbed):
    stages = stages_from_preset(PRESETS["small"])
    preds = refine_multiframe([perturbed], identity_estimator, stages).final
    for _, value in preds.present():
        assert np.allclose(value.matrix(), np.eye(4))


def test_final_equals_composition_of_stage_corrections(perturbed):
    cfg = AlignmentCostConfig()
    estimator = pairwise_estimator(cfg, seed=4)
    stages = [
        EstimatorStage(bounds=SMALL, budget=400),
        EstimatorStage(bounds=MiscalBounds(0.1, math.radians(0.5)), budget=400),
    ]
    detail = refine_multiframe([perturbed], estimator, stages)
    lidar_total = RigidTransform.identity()
    radar_total = RigidTransform.identity()
    for m_lidar, m_radar in detail.corrections:
        lidar_total = compose(lidar_total, m_lidar)
        radar_total = compose(radar_total, m_radar)
    expected_cl = compose(perturbed.fixed.cam_lidar, invert(lidar_total))
    assert np.allclose(detail.final.cam_lidar.q, expected_cl.q, atol=1e-9)
    assert np.allclose(detail.final.cam_lidar.t, expected_cl.t, atol=1e-9)
    expected_rc = compose(radar_total, perturbed.fixed.radar_cam)
    assert np.allclose(detail.final.radar_cam.q, expected_rc.q, atol=1e-9)
    assert np.allclose(detail.final.radar_cam.t, expected_rc.t, atol=1e-9)


def test_only_the_last_stage_reaches_the_estimator_as_final(perturbed):
    seen = []

    def spy(frames, stage):
        seen.append(stage)
        return identity_estimator(frames, stage)

    stages = stages_from_preset(PRESETS["refine"])
    refine_multiframe([perturbed], spy, stages)
    assert [stage.final for stage in seen] == [False, False, False, True]
    # the rest of each stage is passed on unchanged
    assert [(s.bounds, s.budget) for s in seen] == [(s.bounds, s.budget) for s in stages]
    seen.clear()
    refine_multiframe([perturbed], spy, stages[-1:])
    assert [stage.final for stage in seen] == [True]


def test_refine_propagates_no_overlap_with_stage_index(perturbed):
    def failing(frames, stage):
        raise NoOverlapError("nothing to see")

    with pytest.raises(NoOverlapError, match="stage 0"):
        refine_multiframe([perturbed], failing, stages_from_preset(PRESETS["small"]))


def test_refine_multiframe_group(perturbed):
    stages = [EstimatorStage(bounds=SMALL, budget=400)]
    estimator = pairwise_estimator(AlignmentCostConfig(), seed=6)
    group = refine_multiframe([perturbed, perturbed], estimator, stages).final
    single = refine_multiframe([perturbed], estimator, stages).final
    # identical frames: the group objective is the same function of the shared
    # transform, so the result matches the single-frame run exactly
    for name, value in single.present():
        assert np.array_equal(value.q, group.get(name).q)
        assert np.array_equal(value.t, group.get(name).t)


@pytest.mark.slow
def test_multiframe_beats_single_frame_on_sparse_noisy_radar():
    """Monte-Carlo direction check: a shared transform estimated over four
    frames of sparse, noisy radar lands closer than a single-frame estimate."""
    from sensorcal.estimate import estimate_multiframe
    from sensorcal.loss import LossWeights
    from sensorcal.metrics import error_record
    from sensorcal.perturb import sample_miscalibration

    stage = EstimatorStage(bounds=SMALL, budget=1600)
    cfg = AlignmentCostConfig()
    w = LossWeights(loop_weight=0.0)
    single_errs, multi_errs = [], []
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        lidar_mis = sample_miscalibration(SMALL, rng)
        radar_mis = sample_miscalibration(SMALL, rng)
        frames = [
            apply_miscalibration(
                generate_scene(
                    random_scene_spec(
                        seed=2000 + 10 * i + k,
                        lidar_density=1500,
                        radar_density=70,
                        radar_noise=0.12,
                    ),
                    POSES,
                    index=k,
                ),
                lidar_mis=lidar_mis,
                radar_mis=radar_mis,
            )
            for k in range(4)
        ]
        gt = true_edges(frames[0]).radar_cam
        single = estimate_multiframe(frames[:1], stage, w, cfg, pairs=("radar_cam",), seed=i)
        multi = estimate_multiframe(frames, stage, w, cfg, pairs=("radar_cam",), seed=i)
        single_errs.append(error_record(single.radar_cam, gt).translation_cm)
        multi_errs.append(error_record(multi.radar_cam, gt).translation_cm)
    assert np.median(multi_errs) <= np.median(single_errs)


def test_aggregate_idempotent_on_identical():
    t = from_euler([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
    preds = PredictionSet(cam_lidar=t, lidar_radar=t, radar_cam=t)
    agg = aggregate_sequence([preds] * 5, mode="median")
    assert np.allclose(agg.cam_lidar.q, t.q) and np.allclose(agg.cam_lidar.t, t.t)


def test_aggregate_component_median():
    preds = [
        PredictionSet(cam_lidar=from_euler([0, 0, 0, 1, 1, 1])),
        PredictionSet(cam_lidar=from_euler([0, 0, 0, 2, 2, 2])),
        PredictionSet(cam_lidar=from_euler([0, 0, 0, 3, 3, 3])),
    ]
    agg = aggregate_sequence(preds, mode="median")
    assert np.allclose(agg.cam_lidar.t, [2, 2, 2])
    assert aggregate_sequence(preds, mode="mean").cam_lidar.t[0] == 2.0


def test_aggregate_median_robust_to_outlier():
    rng = np.random.default_rng(72)
    cluster = [
        PredictionSet(cam_lidar=from_euler([0, 0, 0, *(1.0 + rng.normal(0, 1e-7, 3))]))
        for _ in range(9)
    ]
    outlier = PredictionSet(cam_lidar=from_euler([0, 0, 0, 50, -50, 50]))
    agg = aggregate_sequence(cluster + [outlier], mode="median")
    cluster_median = np.median(np.stack([p.cam_lidar.t for p in cluster]), axis=0)
    assert np.max(np.abs(agg.cam_lidar.t - cluster_median)) < 1e-6


def test_aggregate_handles_quaternion_double_cover():
    # yaw near +-180 deg: canonical forms sit on opposite sides of the cover,
    # so the statistic is only meaningful after sign alignment
    yaws = [179.0, -179.0, 178.0]
    preds = [
        PredictionSet(cam_lidar=from_euler([0.0, 0.0, math.radians(y), 0.0, 0.0, 0.0]))
        for y in yaws
    ]
    agg = aggregate_sequence(preds, mode="median")
    angle = math.degrees(quat_angular_distance(agg.cam_lidar.q, [1, 0, 0, 0]))
    assert abs(angle - 179.0) < 1.0


_angles = st.floats(-math.pi, math.pi)
# Euler poses (roll, pitch, yaw, 0, 0, 0); the quaternions below have four entries
_rotations = st.tuples(_angles, _angles, _angles).map(lambda r: (*r, 0.0, 0.0, 0.0))
_unit_quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: math.fsum(c * c for c in q) > 1e-6
)


@given(
    rotations=st.lists(_rotations | _unit_quats, min_size=1, max_size=7),
    flips=st.lists(st.booleans(), min_size=7, max_size=7),
    mode=st.sampled_from(["median", "mean"]),
)
# a quaternion orthogonal to the first one (a half turn away) is aligned by
# neither sign, so only its canonical sign makes the result sign-free
@example(rotations=[(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)], flips=[False, True] * 3 + [False],
         mode="median")
@example(rotations=[(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)],
         flips=[True] * 7, mode="mean")
def test_aggregate_is_invariant_to_quaternion_sign(rotations, flips, mode):
    # q and -q are one rotation: negating any per-frame quaternion (bypassing
    # the canonical sign that RigidTransform applies) changes nothing
    frames = [
        from_euler(r) if len(r) == 6 else RigidTransform(q=r, t=[0.5 * k, 0.0, -1.0])
        for k, r in enumerate(rotations)
    ]
    flipped = [
        RigidTransform._from_valid(-f.q, f.t) if flip else f for f, flip in zip(frames, flips)
    ]
    agg = aggregate_sequence([PredictionSet(cam_lidar=f) for f in frames], mode=mode)
    agg_flipped = aggregate_sequence([PredictionSet(cam_lidar=f) for f in flipped], mode=mode)
    assert agg_flipped.cam_lidar == agg.cam_lidar


def test_aggregate_median_of_odd_collinear_is_element():
    translations = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)]
    preds = [PredictionSet(cam_lidar=from_euler([0, 0, 0, *t])) for t in translations]
    agg = aggregate_sequence(preds, mode="median")
    assert tuple(agg.cam_lidar.t) == translations[1]


def test_aggregate_errors():
    with pytest.raises(EmptyListError):
        aggregate_sequence([])
    mixed = [
        PredictionSet(cam_lidar=RigidTransform.identity()),
        PredictionSet(lidar_radar=RigidTransform.identity()),
    ]
    with pytest.raises(MissingPairError):
        aggregate_sequence(mixed)
    with pytest.raises(ValueError):
        aggregate_sequence([PredictionSet(cam_lidar=RigidTransform.identity())], mode="mode")


def _radar_cloud(rng, n=50):
    xyz = rng.uniform(-10, 10, (n, 3))
    channels = np.zeros((n, 3))
    channels[:, 0] = rng.uniform(0, 10, n)
    return PointCloud(xyz=xyz, channels=channels, schema=RADAR_CHANNELS)


def test_accumulate_single_cloud():
    rng = np.random.default_rng(73)
    cloud = _radar_cloud(rng)
    out = accumulate_radar([cloud], [RigidTransform.identity()], count=1)
    assert np.array_equal(out.xyz, cloud.xyz)
    assert np.all(out.channel("time") == 0.0)


def test_accumulate_two_identical_identity_motion():
    rng = np.random.default_rng(74)
    cloud = _radar_cloud(rng)
    out = accumulate_radar([cloud, cloud], [RigidTransform.identity()] * 2, count=5)
    assert len(out) == 2 * len(cloud)
    assert sorted(set(out.channel("time"))) == [0.0, 1.0]
    assert np.allclose(out.xyz[: len(cloud)], cloud.xyz)
    assert np.allclose(out.xyz[len(cloud):], cloud.xyz)


def test_accumulate_compensates_ego_motion():
    rng = np.random.default_rng(75)
    cloud = _radar_cloud(rng)
    older_pose = RigidTransform.identity()
    newer_pose = from_euler([0, 0, 0, 1.0, 0.0, 0.0])
    out = accumulate_radar([cloud, cloud], [older_pose, newer_pose], count=5)
    older_part = out.xyz[len(cloud):]
    assert np.allclose(older_part, cloud.xyz - np.array([1.0, 0.0, 0.0]), atol=1e-12)


def test_accumulate_keeps_only_last_count():
    rng = np.random.default_rng(76)
    clouds = [_radar_cloud(rng, n=10) for _ in range(7)]
    poses = [RigidTransform.identity()] * 7
    out = accumulate_radar(clouds, poses, count=5)
    assert len(out) == 50
    assert set(out.channel("time")) == {0.0, 1.0, 2.0, 3.0, 4.0}


def test_accumulate_errors():
    rng = np.random.default_rng(77)
    cloud = _radar_cloud(rng)
    with pytest.raises(LengthMismatchError):
        accumulate_radar([cloud], [], count=5)
    with pytest.raises(EmptyListError):
        accumulate_radar([], [], count=5)
    bare = PointCloud.bare(rng.uniform(-1, 1, (5, 3)))
    with pytest.raises(ValueError):
        accumulate_radar([bare], [RigidTransform.identity()], count=1)
