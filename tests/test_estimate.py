import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sensorcal.data import PointCloud
from sensorcal.dataio import default_sensor_poses, generate_scene, random_scene_spec
from sensorcal.errors import NoOverlapError, SchemaMismatchError
from sensorcal.estimate import (
    AlignmentCostConfig,
    EstimatorStage,
    _build_problems,
    alignment_cost,
    estimate_multiframe,
    estimate_pairwise,
    identity_estimator,
    joint_estimator,
    oracle_estimator,
    true_edges,
)
from sensorcal.loss import LossWeights, loop_transform
from sensorcal.perturb import MiscalBounds, apply_miscalibration, sample_miscalibration
from sensorcal.projection import ProjectionConfig, equirect_range_pixels, project_equirect
from sensorcal.transform import (
    EulerPose,
    RigidTransform,
    apply,
    from_euler,
    from_euler_vector,
    quat_angular_distance,
    transform_points,
    translation_distance,
)

POSES = default_sensor_poses()
SMALL = MiscalBounds(0.2, math.radians(1.0))


@pytest.fixture(scope="module")
def frame():
    return generate_scene(
        random_scene_spec(seed=50, lidar_density=2500, radar_density=350), POSES
    )


@pytest.fixture(scope="module")
def perturbed(frame):
    rng = np.random.default_rng(51)
    return apply_miscalibration(
        frame,
        lidar_mis=sample_miscalibration(SMALL, rng),
        radar_mis=sample_miscalibration(SMALL, rng),
    )


def naive_alignment_cost(source, candidate, target, cfg):
    """Full-raster restatement of the cost; oracle for the sparse fast path."""
    img = project_equirect(apply(candidate, source), cfg.projection)
    src_r = img[..., 0]
    tgt_r = target[..., 0]
    src_occ = src_r > 0
    both = src_occ & (tgt_r > 0)
    n_overlap = int(np.count_nonzero(both))
    if n_overlap < cfg.min_overlap:
        return math.inf
    n_src = int(np.count_nonzero(src_occ))
    return float(np.mean(np.abs(src_r[both] - tgt_r[both]))) + cfg.occupancy_penalty * (
        n_src - n_overlap
    ) / n_src


def test_cost_zero_for_generating_cloud():
    rng = np.random.default_rng(60)
    cloud = PointCloud.bare(rng.uniform(-20, 20, (500, 3)))
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(256, 128))
    target = project_equirect(cloud, cfg.projection)
    assert alignment_cost(cloud, RigidTransform.identity(), target, cfg) == 0.0


def test_cost_infinite_for_disjoint_rasters():
    cfg = AlignmentCostConfig(
        min_overlap=1, projection=ProjectionConfig.equirect(256, 128)
    )
    ahead = PointCloud.bare([[10.0, 0.0, 0.0]])
    behind = PointCloud.bare([[-10.0, 0.0, 0.0]])
    target = project_equirect(behind, cfg.projection)
    assert alignment_cost(ahead, RigidTransform.identity(), target, cfg) == math.inf


def test_cost_single_shared_pixel():
    cfg = AlignmentCostConfig(
        occupancy_penalty=0.0, min_overlap=1, projection=ProjectionConfig.equirect(64, 32)
    )
    target = project_equirect(PointCloud.bare([[5.0, 0.0, 0.0]]), cfg.projection)
    cost = alignment_cost(
        PointCloud.bare([[2.0, 0.0, 0.0]]), RigidTransform.identity(), target, cfg
    )
    assert abs(cost - 3.0) < 1e-6


def test_cost_matches_naive_raster_formula():
    rng = np.random.default_rng(61)
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(128, 64))
    for _ in range(20):
        base = PointCloud.bare(rng.uniform(-15, 15, (300, 3)))
        target = project_equirect(base, cfg.projection)
        candidate = from_euler(EulerPose(*rng.uniform(-0.1, 0.1, 6)))
        source = PointCloud.bare(rng.uniform(-15, 15, (250, 3)))
        fast = alignment_cost(source, candidate, target, cfg)
        assert fast == naive_alignment_cost(source, candidate, target, cfg)


def mean_formula_cost(source, candidate, target, cfg):
    """The sparse cost with np.mean over the gathered differences; the
    reference for the cost's inlined mean."""
    pix, src_r = equirect_range_pixels(transform_points(candidate, source.xyz), cfg.projection)
    if pix.size == 0:
        return math.inf
    tgt_r = target[..., 0].reshape(-1)[pix]
    both = tgt_r > 0.0
    n_overlap = int(np.count_nonzero(both))
    if n_overlap < cfg.min_overlap:
        return math.inf
    cost = float(np.mean(np.abs(src_r[both] - tgt_r[both])))
    return cost + cfg.occupancy_penalty * (pix.size - n_overlap) / pix.size


_cost_clouds = arrays(
    np.float64, st.tuples(st.integers(0, 300), st.just(3)), elements=st.floats(-30.0, 30.0)
)


@given(
    source=_cost_clouds,
    base=_cost_clouds,
    pose=st.tuples(*[st.floats(-0.2, 0.2)] * 6),
    penalty=st.sampled_from([0.0, 2.0]),
    min_overlap=st.integers(1, 8),
)
def test_cost_equals_np_mean_formula(source, base, pose, penalty, min_overlap):
    cfg = AlignmentCostConfig(
        occupancy_penalty=penalty,
        min_overlap=min_overlap,
        projection=ProjectionConfig.equirect(48, 24),
    )
    target = project_equirect(PointCloud.bare(np.concatenate([base, source])), cfg.projection)
    source = PointCloud.bare(source)
    candidate = from_euler_vector(np.array(pose))
    cost = alignment_cost(source, candidate, target, cfg)
    ref = mean_formula_cost(source, candidate, target, cfg)
    assert np.float64(cost).tobytes() == np.float64(ref).tobytes()


def test_cost_schema_mismatch():
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(64, 32))
    cloud = PointCloud(xyz=[[1, 0, 0]], channels=[[1.0]], schema=("intensity",))
    target = np.zeros((32, 64, 1), dtype=np.float32)
    with pytest.raises(SchemaMismatchError):
        alignment_cost(cloud, RigidTransform.identity(), target, cfg)


# Sparse-vs-sparse alignment (target projected from the source cloud itself)
# wants a coarser raster than the dense frame targets: with point-sampled
# rasters on both sides the basin of attraction is about one pixel wide.
SPARSE_CFG = AlignmentCostConfig(projection=ProjectionConfig.equirect(512, 256))


def test_pairwise_recovers_injected_transform(frame):
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    rng = np.random.default_rng(62)
    t_mis = sample_miscalibration(SMALL, rng)
    source = frame.lidar.without_channels()
    target = project_equirect(apply(t_mis, source), SPARSE_CFG.projection)
    est = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=0)
    assert quat_angular_distance(est.q, t_mis.q) < math.radians(0.3)
    assert translation_distance(est.t, t_mis.t) < 0.03


def test_pairwise_identity_case(frame):
    stage = EstimatorStage(bounds=SMALL, budget=400)
    source = frame.lidar.without_channels()
    target = project_equirect(source, SPARSE_CFG.projection)
    est = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=0)
    assert quat_angular_distance(est.q, [1, 0, 0, 0]) < 1e-3
    assert translation_distance(est.t, [0, 0, 0]) < 1e-3


def test_pairwise_budget_one_contract(frame):
    stage = EstimatorStage(bounds=SMALL, budget=1)
    rng = np.random.default_rng(63)
    t_mis = sample_miscalibration(SMALL, rng)
    source = frame.lidar.without_channels()
    target = project_equirect(apply(t_mis, source), SPARSE_CFG.projection)
    est = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=1)
    identity_cost = alignment_cost(source, RigidTransform.identity(), target, SPARSE_CFG)
    found_cost = alignment_cost(source, est, target, SPARSE_CFG)
    assert found_cost <= identity_cost


def test_pairwise_deterministic(frame):
    stage = EstimatorStage(bounds=SMALL, budget=600)
    rng = np.random.default_rng(64)
    t_mis = sample_miscalibration(SMALL, rng)
    source = frame.lidar.without_channels()
    target = project_equirect(apply(t_mis, source), SPARSE_CFG.projection)
    a = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=7)
    b = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=7)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)


def test_pairwise_no_overlap_raises():
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(128, 64))
    stage = EstimatorStage(bounds=SMALL, budget=100)
    source = PointCloud.bare([[5.0, 0.0, 0.0]])
    target = np.zeros((64, 128, 1), dtype=np.float32)
    with pytest.raises(NoOverlapError):
        estimate_pairwise(source, target, stage, cfg, seed=0)


def test_oracle_and_identity_estimators(perturbed):
    gt = true_edges(perturbed)
    oracle = oracle_estimator([perturbed])
    for name, value in oracle.present():
        assert np.allclose(value.q, gt.get(name).q)
        assert np.allclose(value.t, gt.get(name).t)
    ident = identity_estimator([perturbed])
    for _, value in ident.present():
        assert np.allclose(value.matrix(), np.eye(4))


def test_joint_small_miscalibration_closes_loop(perturbed):
    cfg = AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=1200)
    preds = estimate_multiframe([perturbed], stage, LossWeights(), cfg, seed=3)
    loop = loop_transform(preds)
    assert quat_angular_distance(loop.q, [1, 0, 0, 0]) < math.radians(0.5)
    assert translation_distance(loop.t, [0, 0, 0]) < 0.05


def test_joint_lambda_zero_equals_pairwise(perturbed):
    cfg = AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=800)
    w0 = LossWeights(loop_weight=0.0)
    a = estimate_multiframe([perturbed], stage, w0, cfg, seed=5)
    b = estimate_multiframe([perturbed], stage, w0, cfg, seed=5)
    assert np.array_equal(a.cam_lidar.q, b.cam_lidar.q)
    # with loop weight > 0 the guard keeps the loop residual from worsening
    w = LossWeights()
    joint = estimate_multiframe([perturbed], stage, w, cfg, seed=5)
    from sensorcal.loss import param_loss

    identity = RigidTransform.identity()
    assert param_loss(loop_transform(joint), identity, w) <= param_loss(
        loop_transform(a), identity, w
    ) + 1e-12


def test_multiframe_k1_equals_joint(perturbed):
    cfg = AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=600)
    w = LossWeights()
    # the bound estimator on a list of one against the solver it binds
    single = joint_estimator(w, cfg, seed=9)([perturbed], stage)
    multi = estimate_multiframe([perturbed], stage, w, cfg, seed=9)
    for name, value in single.present():
        assert np.array_equal(value.q, multi.get(name).q)
        assert np.array_equal(value.t, multi.get(name).t)


def test_multiframe_identical_frames_same_optimum(perturbed):
    cfg = AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=600)
    w = LossWeights()
    one = estimate_multiframe([perturbed], stage, w, cfg, seed=9)
    four = estimate_multiframe([perturbed] * 4, stage, w, cfg, seed=9)
    for name, value in one.present():
        assert np.array_equal(value.q, four.get(name).q)
        assert np.array_equal(value.t, four.get(name).t)


def test_stage_validation():
    with pytest.raises(ValueError):
        EstimatorStage(bounds=SMALL, budget=0)
    with pytest.raises(ValueError):
        EstimatorStage(bounds=SMALL, tolerance=0.0)
    with pytest.raises(ValueError):
        AlignmentCostConfig(occupancy_penalty=-1.0)
    with pytest.raises(ValueError):
        AlignmentCostConfig(min_overlap=0)


def test_edge_problems_compare_by_identity(frame):
    stage = EstimatorStage(bounds=SMALL)
    problem = _build_problems([frame], ("cam_lidar",), stage, AlignmentCostConfig())[0]
    # the same sources with equal but distinct target arrays
    twin = replace(problem, targets=tuple(t.copy() for t in problem.targets))
    assert twin.sources is problem.sources
    assert problem == problem
    assert problem != twin
