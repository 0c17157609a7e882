import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

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
    _band,
    _build_problems,
    _frustum_crop,
    alignment_cost,
    estimate_multiframe,
    estimate_pairwise,
    identity_estimator,
    joint_estimator,
    oracle_estimator,
    pairwise_estimator,
    true_edges,
)
from sensorcal.loss import PAIR_NAMES, LossWeights, loop_transform
from sensorcal.pipeline import refine_multiframe
from sensorcal.perturb import MiscalBounds, apply_miscalibration, sample_miscalibration
from sensorcal.projection import (
    ProjectionConfig,
    equirect_range_pixels,
    project_equirect,
    unproject_equirect,
    unproject_pinhole,
)
from sensorcal.transform import (
    RigidTransform,
    apply,
    from_euler,
    invert,
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
        candidate = from_euler(rng.uniform(-0.1, 0.1, 6))
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
    candidate = from_euler(np.array(pose))
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


def reference_estimate_pairwise(source, target, stage, cfg, *, seed=0):
    """estimate_pairwise with its earlier three-candidate rule: the lowest of
    the fine result, the coarse winner and the identity, ties in that order."""
    import sensorcal.estimate as estimate

    box = estimate._bounds_vector(stage.bounds)
    rng = np.random.default_rng(seed)
    identity = RigidTransform.identity()
    fine = estimate._EdgeProblem("fine", (source,), (target,), (0,), identity, cfg, box)
    coarse_proj = ProjectionConfig.equirect(*estimate._COARSE_SHAPE)
    coarse_target = project_equirect(unproject_equirect(target, cfg.projection), coarse_proj)
    coarse = estimate._EdgeProblem(
        "coarse", (source.without_channels(),), (coarse_target,), (0,), identity,
        replace(cfg, projection=coarse_proj), box,
    )
    coarse_budget = max(stage.budget * 3 // 5, 1)
    x_coarse, _ = estimate._multistart(coarse.costs, box, coarse_budget, rng)
    options = estimate._nm_options(x_coarse, box, max(stage.budget - coarse_budget, 1), 0.08)
    x_fine, f_fine = estimate.minimize(fine.costs, x_coarse, options=options)
    f_coarse, f_identity = fine.costs([x_coarse, np.zeros(6)])
    candidates = [(f_fine, 0, x_fine), (f_coarse, 1, x_coarse), (f_identity, 2, np.zeros(6))]
    f_best, _, x_best = min(candidates, key=lambda c: (c[0], c[1]))
    if not math.isfinite(f_best):
        raise NoOverlapError("no candidate produced enough raster overlap")
    return from_euler(x_best)


@pytest.mark.parametrize("budget", [1, 2, 50, 1600])
@pytest.mark.parametrize("miscalibrated", [True, False])
def test_pairwise_equals_the_three_candidate_rule(frame, monkeypatch, budget, miscalibrated):
    """The fine search starts at the coarse winner and never returns a
    higher cost, so the coarse candidate never wins; dropping it keeps the
    bits and every alignment_cost call.  The identity wins the miscalibrated
    case below budget 1600, and ties the fine result on the unperturbed one."""
    import sensorcal.estimate as estimate

    source = frame.lidar.without_channels()
    t_mis = sample_miscalibration(SMALL, np.random.default_rng(66))
    target = project_equirect(apply(t_mis, source) if miscalibrated else source, SPARSE_CFG.projection)
    stage = EstimatorStage(bounds=SMALL, budget=budget)
    calls = []
    counted = estimate.alignment_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", counting)
    est = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=3)
    n_calls = len(calls)
    ref = reference_estimate_pairwise(source, target, stage, SPARSE_CFG, seed=3)
    assert est.q.tobytes() == ref.q.tobytes() and est.t.tobytes() == ref.t.tobytes()
    assert n_calls == len(calls) - n_calls


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


def test_frustum_crop_keeps_the_cone_or_the_whole_cloud():
    rng = np.random.default_rng(12)
    xyz = np.vstack([np.zeros((1, 3)), rng.normal(0.0, 5.0, (400, 3))])
    cloud = PointCloud.bare(xyz)
    axis = np.array([0.6, 0.0, 0.8])
    for half_angle in (0.8, 1.5, 2.5, 4.0):
        # the origin counts as a point at right angles to the axis
        norms = np.linalg.norm(xyz, axis=1)
        cos_angle = (xyz @ axis) / np.where(norms > 0, norms, 1.0)
        inside = cos_angle >= math.cos(min(half_angle, math.pi))
        assert np.count_nonzero(inside) >= 32
        kept = _frustum_crop(cloud, axis, half_angle)
        assert kept.xyz.tobytes() == xyz[inside].tobytes()
    # with 31 points inside the cone the input itself comes back; 32 are kept
    ahead = np.column_stack([np.zeros(32), np.zeros(32), np.linspace(1.0, 9.0, 32)])
    behind = -ahead - 1.0
    few = PointCloud.bare(np.vstack([ahead[:31], behind]))
    assert _frustum_crop(few, axis, 0.7) is few
    enough = PointCloud.bare(np.vstack([ahead, behind]))
    assert _frustum_crop(enough, axis, 0.7).xyz.tobytes() == ahead.tobytes()


# --- row-band targets ------------------------------------------------------------

_BAND_PROJ = ProjectionConfig.equirect(48, 24)


def _pixel_centre_cloud(pix, ranges, proj):
    """Points whose projection lands on the given flat pixels at the given ranges."""
    img = np.zeros((proj.height, proj.width, 1), dtype=np.float32)
    img.reshape(-1)[pix] = ranges
    return unproject_equirect(img, proj)


@st.composite
def band_cases(draw):
    """A target whose returns all lie in rows [r0, r1), and a source with
    pixels on the band's first and last rows, above and below it."""
    h, w = _BAND_PROJ.height, _BAND_PROJ.width
    r0 = draw(st.sampled_from([0, h]) | st.integers(0, h))
    r1 = draw(st.sampled_from([r0, h]) | st.integers(r0, h))
    target = np.zeros((h, w, 1), dtype=np.float32)
    if r1 > r0:
        values = draw(arrays(np.float32, (r1 - r0, w), elements=st.sampled_from([0.0, 2.0, 7.5])))
        target[r0:r1, :, 0] = values
    rows = [r for r in (r0 - 1, r0, r1 - 1, r1) if 0 <= r < h]
    rows += draw(st.lists(st.integers(0, h - 1), max_size=4))
    cols = draw(st.lists(st.integers(0, w - 1), min_size=1, max_size=12))
    pix = np.unique([v * w + u for v in rows for u in cols])
    ranges = draw(arrays(np.float32, pix.size, elements=st.sampled_from([1.0, 2.0, 7.5, 9.0])))
    return target, r0, r1, _pixel_centre_cloud(pix, ranges, _BAND_PROJ)


@given(case=band_cases(), pose=st.tuples(*[st.floats(-0.05, 0.05)] * 6), min_overlap=st.integers(1, 4))
def test_band_lookup_equals_full_raster_lookup(case, pose, min_overlap):
    target, r0, r1, source = case
    cfg = AlignmentCostConfig(min_overlap=min_overlap, projection=_BAND_PROJ)
    for candidate in (RigidTransform.identity(), from_euler(np.array(pose))):
        full = alignment_cost(source, candidate, target, cfg)
        band = alignment_cost(source, candidate, target[r0:r1], cfg, first_row=r0)
        assert np.float64(band).tobytes() == np.float64(full).tobytes()


def test_band_must_fit_the_raster():
    cfg = AlignmentCostConfig(projection=_BAND_PROJ)
    source = PointCloud.bare([[1.0, 0.0, 0.0]])
    band = np.zeros((4, 48, 1), dtype=np.float32)
    alignment_cost(source, RigidTransform.identity(), band, cfg, first_row=20)
    for first_row in (-1, 21):
        with pytest.raises(ValueError):
            alignment_cost(source, RigidTransform.identity(), band, cfg, first_row=first_row)
    with pytest.raises(ValueError):
        alignment_cost(source, RigidTransform.identity(), np.zeros((4, 47, 1), np.float32), cfg)


@pytest.mark.parametrize("rows", [[], [0], [23], [0, 23], [3, 3, 9]])
def test_band_crops_the_raster_to_its_returns(rows):
    pix = np.array([v * 48 + 5 for v in rows], dtype=np.int64)
    cloud = _pixel_centre_cloud(pix, np.full(pix.size, 4.0), _BAND_PROJ)
    full = project_equirect(cloud, _BAND_PROJ)
    first_row, band = _band(*equirect_range_pixels(cloud.xyz, _BAND_PROJ), _BAND_PROJ)
    r1 = max(rows) + 1 if rows else 0
    assert (first_row, band.shape) == (min(rows, default=0), (r1 - min(rows, default=0), 48, 1))
    assert band.tobytes() == full[first_row:r1].tobytes()
    assert not full[:first_row].any() and not full[r1:].any()


def _lone_pixel_frames(frame):
    """The frame, and copies whose camera sees a lone pixel in a middle and
    in the last block of rows, or only one pixel at all."""
    depth = frame.camera_depth
    top = np.zeros_like(depth)
    top[:40] = depth[:40]
    top[100, 7] = top[300, 600] = 12.0
    one = np.zeros_like(depth)
    one[319, 639] = 9.0
    return [frame] + [replace(frame, camera_depth=d) for d in (top, one)]


def test_camera_targets_equal_the_whole_cloud_projection(frame):
    stage = EstimatorStage(bounds=SMALL)
    for f in _lone_pixel_frames(frame):
        cloud = unproject_pinhole(f.camera_depth, f.camera_config)
        problems = _build_problems([f], ("cam_lidar", "radar_cam"), stage, AlignmentCostConfig())
        for problem in problems:
            full = project_equirect(apply(invert(problem.nominal), cloud), problem.cfg.projection)
            (first_row,), (band,) = problem.first_rows, problem.targets
            assert band.dtype == np.float32 and band.shape[1:] == (1536, 1)
            rows = np.flatnonzero(full[..., 0].any(axis=1))
            assert first_row == rows[0] and first_row + band.shape[0] == rows[-1] + 1
            assert band.tobytes() == full[first_row : first_row + band.shape[0]].tobytes()


def test_lidar_radar_target_is_the_band_of_its_raster(frame):
    stage = EstimatorStage(bounds=SMALL)
    (problem,) = _build_problems([frame], ("lidar_radar",), stage, AlignmentCostConfig())
    lidar = apply(invert(problem.nominal), frame.lidar.without_channels())
    full = project_equirect(lidar, problem.cfg.projection)
    (first_row,), (band,) = problem.first_rows, problem.targets
    last = first_row + band.shape[0]
    assert band.tobytes() == full[first_row:last].tobytes()
    assert not full[:first_row].any() and not full[last:].any()


# --- batches of candidates ---------------------------------------------------------


def sequential_cost(problem, x, calls):
    """The mean per-frame cost of one candidate, each frame projected by its
    own alignment_cost call, as the solver scored candidates before batches."""
    residual = from_euler(x)
    total = 0.0
    for source, target, first_row in zip(problem.sources, problem.targets, problem.first_rows):
        calls.append(1)
        c = alignment_cost(source, residual, target, problem.cfg, first_row=first_row)
        if not math.isfinite(c):
            return math.inf
        total += c
    return total / len(problem.sources)


@pytest.mark.parametrize("batch_points", [None, 1, 2000])
def test_batched_costs_equal_one_candidate_at_a_time(frame, perturbed, monkeypatch, batch_points):
    """Edge costs of candidates scored in batches (of one candidate when
    the cap is below a candidate's points) equal the sequential cost bit
    for bit, with one alignment_cost call per (candidate, frame) up to the
    first frame without overlap."""
    import sensorcal.estimate as estimate

    if batch_points is not None:
        monkeypatch.setattr(estimate, "_BATCH_POINTS", batch_points)
    stage = EstimatorStage(bounds=SMALL)
    problems = _build_problems([frame, perturbed], PAIR_NAMES, stage, AlignmentCostConfig())
    rng = np.random.default_rng(33)
    calls = []
    counted = estimate.alignment_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", counting)
    for problem in problems:
        xs = list(rng.uniform(-1.0, 1.0, (11, 6)) * problem.box)
        # no overlap: far off in the first frame, or in both
        xs[4] = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5e3])
        xs.insert(7, np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        expected_calls = []
        expected = [sequential_cost(problem, x, expected_calls) for x in xs]
        calls.clear()
        costs = problem.costs(xs)
        assert np.array(costs).tobytes() == np.array(expected).tobytes()
        assert len(calls) == len(expected_calls)
        assert math.isinf(costs[4]) and costs[0] < math.inf
        assert problem.costs([xs[1]]) == [costs[1]]


def test_camera_targets_are_built_once_per_refinement(perturbed, monkeypatch):
    """A camera target is built once per (depth image, camera, pull-back,
    raster) and dropped with its depth image."""
    import gc

    import sensorcal.estimate as estimate

    built = []
    build = estimate._camera_target

    def recording(frame, pull_back, proj):
        built.append(frame.camera_depth)
        return build(frame, pull_back, proj)

    monkeypatch.setattr(estimate, "_camera_target", recording)
    # a depth image of its own: the module's fixtures share memo entries across tests
    own = replace(perturbed, camera_depth=perturbed.camera_depth.copy())
    stages = [EstimatorStage(bounds=SMALL, budget=60)] * 3
    w, cfg = LossWeights(), AlignmentCostConfig()
    refine_multiframe([own], joint_estimator(w, cfg, seed=4), stages)
    # the two camera edges of the one frame, in the first stage only
    assert len(built) == 2 and all(d is own.camera_depth for d in built)
    # the next run on the same frame builds none
    refine_multiframe([own], joint_estimator(w, cfg, seed=5), stages)
    assert len(built) == 2

    # an equal depth image in a new array, or another camera, is built anew
    estimator = pairwise_estimator(cfg, seed=4)
    copy = replace(own, camera_depth=own.camera_depth.copy())
    estimator([copy], stages[0])
    estimator([copy], stages[0])
    assert len(built) == 4
    narrow = replace(copy.camera_config, fx=copy.camera_config.fx * 2.0)
    estimator([replace(copy, camera_config=narrow)], stages[0])
    assert len(built) == 6

    # once the frames holding the depth images are collected, their entries are gone
    held = {id(own.camera_depth), id(copy.camera_depth)}
    assert held <= estimate._CAMERA_TARGETS.keys()
    del own, copy, built[:]
    gc.collect()
    assert held.isdisjoint(estimate._CAMERA_TARGETS)


def test_estimators_call_estimate_multiframe_through_the_module(perturbed, monkeypatch):
    """bench/tracing.py wraps sensorcal.estimate.estimate_multiframe after the
    estimators are built; an estimator bound to the function when it is built
    (a functools.partial, say) would bypass the wrapper and zero its span."""
    import sensorcal.estimate as estimate

    cfg = AlignmentCostConfig()
    estimators = [
        joint_estimator(LossWeights(), cfg, seed=1),
        pairwise_estimator(cfg, pairs=("cam_lidar",), seed=2),
    ]
    calls = []
    preds = identity_estimator([perturbed])

    def recording(frames, stage, *args, **kwargs):
        calls.append((kwargs["pairs"], kwargs["seed"]))
        return preds

    monkeypatch.setattr(estimate, "estimate_multiframe", recording)
    stage = EstimatorStage(bounds=SMALL)
    assert all(estimator([perturbed], stage) is preds for estimator in estimators)
    assert calls == [(PAIR_NAMES, 1), (("cam_lidar",), 2)]


def test_minimize_calls_keep_the_contract_the_bench_tracer_reads(frame, perturbed, monkeypatch):
    """bench/tracing.py wraps sensorcal.estimate.minimize, tells the joint
    polish from a 6-D edge solve by len(x0) and reads options["maxfev"]
    from the keyword arguments; a call that breaks this zeroes its metrics."""
    import sensorcal.estimate as estimate

    calls = []
    wrapped = estimate.minimize

    def recording(costs, x0, *args, **kwargs):
        calls.append((len(x0), args, sorted(kwargs), kwargs["options"]["maxfev"]))
        return wrapped(costs, x0, *args, **kwargs)

    monkeypatch.setattr(estimate, "minimize", recording)
    stage = EstimatorStage(bounds=SMALL, budget=90)
    estimate_multiframe([perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=2)
    assert calls == [(18, (), ["options"], stage.budget)]

    calls.clear()
    source = frame.lidar.without_channels()
    target = project_equirect(source, SPARSE_CFG.projection)
    estimate_pairwise(source, target, stage, SPARSE_CFG, seed=0)
    assert [call[:3] for call in calls] == [(6, (), ["options"])]


# --- evaluation count -------------------------------------------------------------


def test_joint_estimate_makes_a_pinned_number_of_cost_calls(monkeypatch):
    """The count of estimate.alignment_cost calls, wrapped as bench/run.py's
    CostCounter wraps it, of a two-frame joint estimate whose box is wide
    enough for the rotation screen (216 probes on the camera edges, 2197 on
    lidar_radar, whose starts then get one evaluation each).  One call per
    (candidate, frame) kept the 8428 measured before the starts were
    evaluated in lock-step; the polish's memo of edge costs then saved 43
    edge scorings of two frames each (8342).  Each edge problem's own memo
    saves 50 more calls: 44 in the multistarts, whose seven screened starts
    (and on lidar_radar the identity, the grid's middle) begin at a probe
    already scored, and 6 in the seeds, which no longer re-score the three
    multistart winners.  The final polish's xatol moves nothing here: its
    400 evaluations run out first."""
    import sensorcal.estimate as estimate

    frames = [
        generate_scene(
            random_scene_spec(seed=60 + k, lidar_density=2500, radar_density=350), POSES, index=k
        )
        for k in range(2)
    ]
    box = MiscalBounds(0.1, math.radians(8.0))
    rng = np.random.default_rng(61)
    lidar_mis, radar_mis = sample_miscalibration(box, rng), sample_miscalibration(box, rng)
    group = [apply_miscalibration(f, lidar_mis=lidar_mis, radar_mis=radar_mis) for f in frames]
    calls = []
    counted = estimate.alignment_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", counting)
    stage = EstimatorStage(bounds=box, budget=400)
    estimate_multiframe(group, stage, LossWeights(), AlignmentCostConfig(), seed=3)
    assert len(calls) == 8292


# --- the final stage's stop -----------------------------------------------------


def test_only_a_final_stage_polish_stops_at_the_final_tolerance(perturbed, monkeypatch):
    """The joint polish of a final stage gets xatol 1e-4; a stage before the
    last, and every edge search, keeps 1e-7."""
    import sensorcal.estimate as estimate

    polish_xatol = []
    wrapped = estimate.minimize

    def recording(costs, x0, *, options):
        polish_xatol.append(options["xatol"])
        return wrapped(costs, x0, options=options)

    searched = []
    search = estimate.search

    def recording_search(x0, *, options):
        searched.append(options["xatol"])
        return search(x0, options=options)

    monkeypatch.setattr(estimate, "minimize", recording)
    monkeypatch.setattr(estimate, "search", recording_search)
    w, cfg = LossWeights(), AlignmentCostConfig()
    for final, xatol in ((True, 1e-4), (False, 1e-7)):
        polish_xatol.clear()
        stage = EstimatorStage(bounds=SMALL, budget=90, final=final)
        estimate_multiframe([perturbed], stage, w, cfg, seed=2)
        assert polish_xatol == [xatol]
    # eight starts per edge, over both runs
    assert searched == [1e-7] * 48


def test_the_final_polish_stops_early_within_a_hundredth_of_a_degree(perturbed, monkeypatch):
    """At the default budget the final stage's polish makes fewer cost calls
    and moves no edge by 0.01 deg or 0.1 cm."""
    import sensorcal.estimate as estimate

    calls = []
    counted = estimate.alignment_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", counting)
    w, cfg = LossWeights(), AlignmentCostConfig()
    runs = {}
    for final in (True, False):
        calls.clear()
        stage = EstimatorStage(bounds=SMALL, budget=1600, final=final)
        runs[final] = estimate_multiframe([perturbed], stage, w, cfg, seed=1), len(calls)
    (stopped, n_stopped), (full, n_full) = runs[True], runs[False]
    assert n_stopped < n_full
    for name, edge in stopped.present():
        other = full.get(name)
        assert math.degrees(quat_angular_distance(edge.q, other.q)) < 0.01
        assert translation_distance(edge.t, other.t) < 0.001


# --- the final stage's race ---------------------------------------------------


def _bits(preds):
    return [(name, edge.q.tobytes(), edge.t.tobytes()) for name, edge in preds.present()]


def _counted_runs(monkeypatch, run):
    """run() with estimate.alignment_cost counted; returns (result, calls)."""
    import sensorcal.estimate as estimate

    calls = []
    counted = estimate.alignment_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", counting)
    return run(), len(calls)


def test_a_final_stage_races_its_starts_to_the_same_bits(perturbed, monkeypatch):
    """At the default budget a final stage's eight starts per edge race
    (checkpoints at 100 and 150 of their 200 evaluations each): the
    prediction keeps every bit of the unraced one, with fewer cost calls."""
    import sensorcal.estimate as estimate

    w, cfg = LossWeights(), AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    races = []
    lockstep = estimate.lockstep

    def recording(searches, costs, race=()):
        races.append(tuple(race))
        return lockstep(searches, costs, race)

    monkeypatch.setattr(estimate, "lockstep", recording)
    run = lambda: estimate_multiframe([perturbed], stage, w, cfg, seed=1)  # noqa: E731
    raced, n_raced = _counted_runs(monkeypatch, run)
    assert races == [((100, 1.5), (150, 1.25))] * 3
    monkeypatch.setattr(estimate, "_RACE", ())
    unraced, n_unraced = _counted_runs(monkeypatch, run)
    assert _bits(raced) == _bits(unraced)
    assert n_raced < n_unraced


def test_a_stage_before_the_last_does_not_race(perturbed, monkeypatch):
    """final=False runs every start to its budget: the 8622 cost calls
    measured before racing existed, less the polish memo's 215 hits and
    the three multistart winners the seeds no longer re-score."""
    stage = EstimatorStage(bounds=SMALL, budget=1600, final=False)
    run = lambda: estimate_multiframe(  # noqa: E731
        [perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=1
    )
    _, calls = _counted_runs(monkeypatch, run)
    assert calls == 8404


# --- the edge problems' memos ---------------------------------------------------


class _Forgetful(dict):
    """A memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


class _Counting(dict):
    """A memo that counts the lookups it answers."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


@pytest.fixture
def memos(monkeypatch):
    """Give each problem that _build_problems returns a fresh memo of type
    memos.kind (dict until a test sets it); memos.problems lists them."""
    import sensorcal.estimate as estimate

    build = estimate._build_problems
    memos = SimpleNamespace(kind=dict, problems=[])

    def building(*args, **kwargs):
        problems = [replace(p, memo=memos.kind()) for p in build(*args, **kwargs)]
        memos.problems.extend(problems)
        return problems

    monkeypatch.setattr(estimate, "_build_problems", building)
    return memos


def test_an_estimate_scores_each_edge_residual_once(perturbed, monkeypatch):
    """Over the multistarts, the rotation screen, the seeds and the polish
    of one estimate, alignment_cost sees each (source, target, residual
    bits) at most once."""
    import sensorcal.estimate as estimate

    seen = []
    cost = estimate.alignment_cost

    def recording(source, candidate, target, *args, **kwargs):
        seen.append((id(source), id(target), candidate.q.tobytes(), candidate.t.tobytes()))
        return cost(source, candidate, target, *args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", recording)
    # wide enough for the rotation screen on every edge
    stage = EstimatorStage(bounds=MiscalBounds(0.1, math.radians(8.0)), budget=400)
    estimate_multiframe([perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=4)
    assert seen and len(set(seen)) == len(seen)


def test_a_starved_multistart_scores_only_the_screen(perturbed, monkeypatch, memos):
    """In a +-1 m / +-20 deg stage at budget 1600 the 13^3 = 2197 screen
    probes leave each start one evaluation, of its start point.  The seven
    screened starts are remembered probes, and so is the identity where the
    grid's middle is exactly 0 (the camera edges); 2205 calls per edge were
    measured before the problems remembered their costs."""
    import sensorcal.estimate as estimate

    calls = []
    cost = estimate.alignment_cost

    def recording(source, *args, **kwargs):
        calls.append(id(source))
        return cost(source, *args, **kwargs)

    monkeypatch.setattr(estimate, "alignment_cost", recording)
    stage = EstimatorStage(bounds=MiscalBounds(1.0, math.radians(20.0)), budget=1600)
    # no polish: the multistarts alone
    w = LossWeights(loop_weight=0.0)
    estimate_multiframe([perturbed], stage, w, AlignmentCostConfig(), seed=1)
    names = {id(source): p.name for p in memos.problems for source in p.sources}
    per_edge = Counter(names[source] for source in calls)
    assert per_edge == {"cam_lidar": 2197, "lidar_radar": 2198, "radar_cam": 2197}


def test_a_memo_that_stores_nothing_costs_its_hits_and_no_bits(perturbed, monkeypatch, memos):
    """Without the memos' entries every bit of the estimate holds, and the
    multistarts and the polish make one more cost call per hit (one frame,
    so one call each)."""
    stage = EstimatorStage(bounds=SMALL, budget=400)
    run = lambda: estimate_multiframe(  # noqa: E731
        [perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=1
    )
    memos.kind = _Counting
    remembered, n_remembered = _counted_runs(monkeypatch, run)
    hits = sum(p.memo.hits for p in memos.problems)
    memos.kind = _Forgetful
    forgotten, n_forgotten = _counted_runs(monkeypatch, run)
    assert _bits(remembered) == _bits(forgotten)
    assert hits > 0
    assert n_forgotten == n_remembered + hits


def test_a_joint_estimate_projects_no_empty_batch(perturbed, monkeypatch, memos):
    """A problem projects only the residuals its memo lacks, and makes no
    projection call when it lacks none (34 calls of this estimate once
    projected an empty list).  The 2338 cost calls measured then, less the
    three multistart winners the seeds no longer re-score, and every bit
    equals an estimate whose memos store nothing."""
    import sensorcal.estimate as estimate

    sizes = []
    segments = estimate._equirect_segments

    def recording(parts, cfg):
        sizes.append(len(parts))
        return segments(parts, cfg)

    stage = EstimatorStage(bounds=SMALL, budget=400)
    run = lambda: estimate_multiframe(  # noqa: E731
        [perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=1
    )
    monkeypatch.setattr(estimate, "_equirect_segments", recording)
    skipping, calls = _counted_runs(monkeypatch, run)
    assert sizes and 0 not in sizes
    assert calls == 2335
    memos.kind = _Forgetful
    assert _bits(skipping) == _bits(run())


def test_the_memos_die_with_their_estimate(perturbed, monkeypatch):
    """The problems, and with them their memos, are freed once
    estimate_multiframe returns."""
    import gc
    import weakref

    import sensorcal.estimate as estimate

    refs = []
    build = estimate._build_problems

    def building(*args, **kwargs):
        problems = build(*args, **kwargs)
        refs.extend(weakref.ref(p) for p in problems)
        return problems

    monkeypatch.setattr(estimate, "_build_problems", building)
    stage = EstimatorStage(bounds=SMALL, budget=90)
    estimate_multiframe([perturbed], stage, LossWeights(), AlignmentCostConfig(), seed=2)
    gc.collect()
    assert len(refs) == 3 and all(ref() is None for ref in refs)


def _saved_frames(directory, seed, count):
    """The frames of `gen-scene --seed seed --frames count`, read back from
    disk as `calibrate` reads them."""
    from sensorcal.cli import _load_frames, main

    args = ["gen-scene", "--out", str(directory), "--seed", str(seed), "--frames", str(count)]
    assert main(args) == 0
    return _load_frames(directory)[0]


def _small_run_frame(frames, seed, run, index):
    """Frame `index` of run `run` of `calibrate --scenario small --seed seed`,
    miscalibrated and seeded as calibrate draws it; returns (frame, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
    for _ in range(2 * index):
        sample_miscalibration(SMALL, rng)
    drawn = apply_miscalibration(
        frames[index],
        lidar_mis=sample_miscalibration(SMALL, rng),
        radar_mis=sample_miscalibration(SMALL, rng),
    )
    return drawn, int(np.random.SeedSequence((seed, run, index)).generate_state(1)[0])


# The closest races seen in `calibrate --scenario small --runs 20` on
# `gen-scene --seed S --frames 4`: (S, calibrate --seed, run, frame), and how
# far the unraced winning start trailed the leader at half / three quarters
# of its budget.  Margins of 1.2 / 1.05 retire the winner of the first five,
# 1.3 / 1.12 that of the last two.
_CLOSE_RACES = (
    (7, 0, 13, 1),  # 1.258 / 1.101
    (7, 2, 13, 1),  # 1.072 / 1.055
    (7, 3, 16, 2),  # 1.233 / 1.041
    (7, 4, 13, 2),  # 1.226 / 1.041
    (7, 4, 16, 2),  # 1.042 / 1.052
    (7, 6, 9, 1),  # 1.319 / 1.000
    (11, 1, 8, 0),  # 1.173 / 1.147
)


@pytest.mark.slow
def test_racing_keeps_the_predictions_of_the_closest_races(frame, tmp_path, monkeypatch):
    """The race's margins were measured on the current cost function; ten
    fixed ±1°/±20 cm draws on one frame and the closest races seen on
    4-frame sequences must keep every bit at the default budget with racing
    on and off.  A change to the cost or to the margins that retires a
    winning start fails here first."""
    import sensorcal.estimate as estimate

    w, cfg = LossWeights(), AlignmentCostConfig()
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    draws = []
    for k in range(10):
        rng = np.random.default_rng(200 + k)
        mis = {
            "lidar_mis": sample_miscalibration(SMALL, rng),
            "radar_mis": sample_miscalibration(SMALL, rng),
        }
        draws.append((apply_miscalibration(frame, **mis), k))
    scenes = {}
    for scene, seed, run, index in _CLOSE_RACES:
        count = max(i for s, _, _, i in _CLOSE_RACES if s == scene) + 1
        if scene not in scenes:
            scenes[scene] = _saved_frames(tmp_path / f"scene{scene}", scene, count)
        draws.append(_small_run_frame(scenes[scene], seed, run, index))
    raced = [_bits(estimate_multiframe([d], stage, w, cfg, seed=k)) for d, k in draws]
    monkeypatch.setattr(estimate, "_RACE", ())
    for n, (d, k) in enumerate(draws):
        assert _bits(estimate_multiframe([d], stage, w, cfg, seed=k)) == raced[n], f"draw {n}"
