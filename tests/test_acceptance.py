"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The quantitative criteria use seeded synthetic scenes;
every threshold is fixed here, not tuned at runtime.
"""

import filecmp
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sensorcal.cli import main as cli_main
from sensorcal.data import PointCloud
from sensorcal.dataio import (
    default_sensor_poses,
    generate_scene,
    load_calib,
    load_cloud,
    random_scene_spec,
    save_calib,
    save_cloud,
)
from sensorcal.estimate import (
    AlignmentCostConfig,
    EstimatorStage,
    estimate_multiframe,
    estimate_pairwise,
    pairwise_estimator,
    true_edges,
)
from sensorcal.loss import (
    LossWeights,
    PredictionSet,
    loop_loss,
    pairwise_loss,
    param_loss,
    point_loss,
)
from sensorcal.metrics import ErrorRecord, error_record, format_summary_table, summarize, summarize_by_pair
from sensorcal.perturb import PRESETS, MiscalBounds, apply_miscalibration, sample_miscalibration
from sensorcal.pipeline import aggregate_sequence, refine_multiframe, stages_from_preset
from sensorcal.projection import (
    ProjectionConfig,
    SphericalCoord,
    cart_to_spherical,
    equirect_pixel,
    project_equirect,
)
from sensorcal.transform import (
    RigidTransform,
    apply,
    compose,
    from_euler,
    invert,
    quat_angular_distance,
    translation_distance,
)

POSES = default_sensor_poses()
SMALL = MiscalBounds(0.2, math.radians(1.0))
W = LossWeights()

# Sparse-vs-sparse alignment tasks (target rasterized from the source cloud
# itself) run on the coarser working raster, as in the library defaults for
# that regime; frame-level estimation uses the dense-target default config.
SPARSE_CFG = AlignmentCostConfig(projection=ProjectionConfig.equirect(512, 256))


def report(criterion: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")


def random_rigid(rng, scale=1.0):
    return from_euler([*rng.uniform(-scale, scale, 3), *rng.uniform(-2 * scale, 2 * scale, 3)])


def test_criterion_1_loss_fixed_points():
    t0 = time.time()
    rng = np.random.default_rng(100)
    cloud = PointCloud.bare(rng.uniform(-10, 10, (64, 3)))
    clouds = {name: cloud for name in ("cam_lidar", "lidar_radar", "radar_cam")}
    failures = []
    for _ in range(50):
        t = random_rigid(rng)
        if abs(param_loss(t, t, W)) >= 1e-9:
            failures.append("param")
        if abs(point_loss(t, t, cloud)) >= 1e-9:
            failures.append("point")
        preds = PredictionSet(cam_lidar=t, lidar_radar=random_rigid(rng), radar_cam=random_rigid(rng))
        if abs(pairwise_loss(preds, preds, clouds, W)) >= 1e-9:
            failures.append("pairwise")
    worst_loop = 0.0
    for _ in range(1000):
        a, b = random_rigid(rng), random_rigid(rng)
        consistent = PredictionSet(cam_lidar=a, lidar_radar=b, radar_cam=invert(compose(a, b)))
        worst_loop = max(worst_loop, abs(loop_loss(consistent, cloud, W)))
    ok = not failures and worst_loop < 1e-9
    elapsed = time.time() - t0
    report(1, ok, f"fixed points exact, worst loop residual {worst_loop:.2e}", elapsed, 10.0)
    assert ok and elapsed < 10.0


def _brute_force_equirect(cloud, cfg):
    img = np.zeros((cfg.height, cfg.width, len(cfg.channels)), dtype=np.float32)
    best = np.full((cfg.height, cfg.width), np.inf)
    for i in range(len(cloud)):
        s = cart_to_spherical(cloud.xyz[i])
        if s.radius <= 0.0:
            continue
        u, v = equirect_pixel(s, cfg)
        if s.radius < best[v, u]:
            best[v, u] = s.radius
            img[v, u, 0] = s.radius
            img[v, u, 1:] = cloud.channels[i]
    return img


def test_criterion_2_projection_oracle():
    t0 = time.time()
    rng = np.random.default_rng(200)
    cfg = ProjectionConfig.equirect(128, 64, schema=("intensity",))
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 501))
        cloud = PointCloud(
            xyz=rng.uniform(-30, 30, (n, 3)),
            channels=rng.uniform(0, 1, (n, 1)),
            schema=("intensity",),
        )
        if not np.array_equal(project_equirect(cloud, cfg), _brute_force_equirect(cloud, cfg)):
            mismatches += 1

    # exhaustive pixel-formula grid including the seam and the poles
    pix_cfg = ProjectionConfig.equirect(512, 256)
    formula_errors = 0
    for theta in np.linspace(-math.pi, math.pi, 100):
        for phi in np.linspace(-math.pi / 2, math.pi / 2, 100):
            u, v = equirect_pixel(SphericalCoord(theta, phi, 1.0), pix_cfg)
            theta_norm = (theta + math.pi) / (2.0 * math.pi)
            phi_norm = (phi + math.pi / 2.0) / math.pi
            exp_u = int(math.floor(theta_norm * pix_cfg.width)) % pix_cfg.width
            exp_v = min(max(int(math.floor((1.0 - phi_norm) * pix_cfg.height)), 0), pix_cfg.height - 1)
            if (u, v) != (exp_u, exp_v) or not (0 <= u < 512 and 0 <= v < 256):
                formula_errors += 1
    ok = mismatches == 0 and formula_errors == 0
    elapsed = time.time() - t0
    report(2, ok, f"{mismatches} raster mismatches, {formula_errors} pixel-formula errors", elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_criterion_3_full_fov():
    t0 = time.time()
    rng = np.random.default_rng(300)
    dirs = rng.normal(size=(10000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(1.0, 60.0, (10000, 1))

    cfg = ProjectionConfig.equirect(512, 256)
    r = np.linalg.norm(pts, axis=1)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    phi = np.arcsin(pts[:, 2] / r)
    u = np.floor((theta + np.pi) / (2 * np.pi) * cfg.width).astype(int) % cfg.width
    v = np.clip(np.floor((1 - (phi + np.pi / 2) / np.pi) * cfg.height).astype(int), 0, cfg.height - 1)
    equirect_dropped = int(np.count_nonzero((u < 0) | (u >= 512) | (v < 0) | (v >= 256)))

    # 90 degree horizontal FoV pinhole
    pin = ProjectionConfig.pinhole(512, 256, fx=256.0, fy=256.0, cx=256.0, cy=128.0)
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pu = np.floor(pin.fx * pts[:, 0] / z + pin.cx)
        pv = np.floor(pin.fy * pts[:, 1] / z + pin.cy)
    kept = (z > 0) & (pu >= 0) & (pu < 512) & (pv >= 0) & (pv < 256)
    pinhole_dropped = int(np.count_nonzero(~kept))

    ok = equirect_dropped == 0 and pinhole_dropped > 5000
    elapsed = time.time() - t0
    report(3, ok, f"equirect dropped {equirect_dropped}, pinhole dropped {pinhole_dropped}/10000", elapsed, 5.0)
    assert ok and elapsed < 5.0


@pytest.mark.slow
def test_criterion_4_recovery_at_stage_scale():
    t0 = time.time()
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    rot_errs, trans_errs = [], []
    for i in range(20):
        frame = generate_scene(
            random_scene_spec(seed=400 + i, lidar_density=2500, radar_density=300), POSES
        )
        rng = np.random.default_rng(450 + i)
        t_mis = sample_miscalibration(stage.bounds, rng)
        source = frame.lidar.without_channels()
        target = project_equirect(apply(t_mis, source), SPARSE_CFG.projection)
        est = estimate_pairwise(source, target, stage, SPARSE_CFG, seed=i)
        rot_errs.append(math.degrees(quat_angular_distance(est.q, t_mis.q)))
        trans_errs.append(100.0 * translation_distance(est.t, t_mis.t))
    med_rot = float(np.median(rot_errs))
    med_trans = float(np.median(trans_errs))
    ok = med_rot <= 0.2 and med_trans <= 2.0
    elapsed = time.time() - t0
    report(4, ok, f"median {med_rot:.4f} deg (<=0.2) / {med_trans:.3f} cm (<=2)", elapsed, 600.0)
    assert ok and elapsed < 600.0


def _edge_scalar(pred, gt):
    """Single error scalar blending rotation and translation (paper weights)."""
    return param_loss(pred, gt, W)


@pytest.mark.slow
def test_criterion_5_iterative_refinement():
    t0 = time.time()
    stages = stages_from_preset(PRESETS["refine"], budget=1600)
    estimator_cfg = AlignmentCostConfig()
    finals, stage1s = [], []
    improved = 0
    trials = 50
    for i in range(trials):
        frame = generate_scene(
            random_scene_spec(seed=500 + i, lidar_density=2500, radar_density=300), POSES
        )
        rng = np.random.default_rng(550 + i)
        frame = apply_miscalibration(frame, lidar_mis=sample_miscalibration(stages[0].bounds, rng))
        gt = true_edges(frame).cam_lidar
        estimator = pairwise_estimator(estimator_cfg, pairs=("cam_lidar",), seed=i)
        detail = refine_multiframe([frame], estimator, stages)
        final = error_record(detail.final.cam_lidar, gt, "cam_lidar")
        stage1 = error_record(detail.stage_predictions[0].cam_lidar, gt, "cam_lidar")
        finals.append(final)
        stage1s.append(stage1)
        if _edge_scalar(detail.final.cam_lidar, gt) < _edge_scalar(
            detail.stage_predictions[0].cam_lidar, gt
        ):
            improved += 1
    med_rot = float(np.median([r.rotation_deg for r in finals]))
    med_trans = float(np.median([r.translation_cm for r in finals]))
    # 2x the criterion-4 thresholds
    ok = med_rot <= 0.4 and med_trans <= 4.0 and improved >= 0.9 * trials
    elapsed = time.time() - t0
    report(
        5,
        ok,
        f"final median {med_rot:.3f} deg / {med_trans:.2f} cm, better than stage-1 in {improved}/{trials}",
        elapsed,
        1800.0,
    )
    assert ok and elapsed < 1800.0


@pytest.mark.slow
def test_criterion_6_joint_vs_pairwise_direction():
    t0 = time.time()
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    cfg = replace(AlignmentCostConfig(), min_overlap=4)
    wins = 0
    trials = 50
    for i in range(trials):
        frame = generate_scene(
            random_scene_spec(seed=600 + i, lidar_density=2500, radar_density=400), POSES
        )
        keep = np.unique(np.linspace(0, len(frame.radar) - 1, 50).astype(int))
        frame = replace(frame, radar=frame.radar.subset(keep))
        rng = np.random.default_rng(650 + i)
        frame = apply_miscalibration(
            frame,
            lidar_mis=sample_miscalibration(stage.bounds, rng),
            radar_mis=sample_miscalibration(stage.bounds, rng),
        )
        gt = true_edges(frame).radar_cam
        pair = estimate_multiframe([frame], stage, LossWeights(loop_weight=0.0), cfg, seed=i)
        joint = estimate_multiframe([frame], stage, W, cfg, seed=i)
        if _edge_scalar(joint.radar_cam, gt) <= _edge_scalar(pair.radar_cam, gt):
            wins += 1
    ok = wins >= 0.6 * trials
    elapsed = time.time() - t0
    report(6, ok, f"joint <= pairwise on camera-radar in {wins}/{trials} trials", elapsed, 1800.0)
    assert ok and elapsed < 1800.0


@pytest.mark.slow
def test_criterion_7_rigid_aggregation():
    t0 = time.time()
    stage = EstimatorStage(bounds=SMALL, budget=1600)
    cfg = AlignmentCostConfig()
    frames = [
        generate_scene(
            random_scene_spec(seed=700 + k, lidar_density=2000, radar_density=400), POSES, index=k
        )
        for k in range(4)
    ]
    agg_records, frame_records = [], []
    runs = 50
    for r in range(runs):
        rng = np.random.default_rng(750 + r)
        radar_mis = sample_miscalibration(stage.bounds, rng)
        estimator = pairwise_estimator(cfg, pairs=("radar_cam",), seed=r)
        per_frame = []
        gt = None
        for frame in frames:
            perturbed = apply_miscalibration(frame, radar_mis=radar_mis)
            gt = true_edges(perturbed).radar_cam
            per_frame.append(estimator([perturbed], stage))
            frame_records.append(error_record(per_frame[-1].radar_cam, gt, "radar_cam"))
        agg = aggregate_sequence(per_frame, mode="median")
        agg_records.append(error_record(agg.radar_cam, gt, "radar_cam"))
    agg_rot = float(np.median([r.rotation_deg for r in agg_records]))
    agg_trans = float(np.median([r.translation_cm for r in agg_records]))
    frame_rot = float(np.median([r.rotation_deg for r in frame_records]))
    frame_trans = float(np.median([r.translation_cm for r in frame_records]))
    ok = agg_rot <= frame_rot and agg_trans <= frame_trans
    elapsed = time.time() - t0
    report(
        7,
        ok,
        f"aggregated median {agg_rot:.3f} deg / {agg_trans:.2f} cm vs per-frame "
        f"{frame_rot:.3f} deg / {frame_trans:.2f} cm",
        elapsed,
        600.0,
    )
    assert ok and elapsed < 600.0


def test_criterion_8_metrics_oracle():
    t0 = time.time()
    rng = np.random.default_rng(800)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 80))
        rot = rng.uniform(0, 30, n).tolist()
        trans = rng.uniform(0, 100, n).tolist()
        records = [ErrorRecord("p", r, t) for r, t in zip(rot, trans)]
        s = summarize(records)
        for stat, values in ((s.rotation, rot), (s.translation, trans)):
            ordered = sorted(values)
            median = (
                ordered[n // 2] if n % 2 else 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
            )
            mean = sum(values) / n
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
            ci = 1.96 * std / math.sqrt(n)
            if (stat.mean, stat.median, stat.std, stat.ci95) != (mean, median, std, ci):
                mismatches += 1
    table = format_summary_table(summarize_by_pair([ErrorRecord("cam_radar", 0.4, 7.8)]))
    layout_ok = (
        "Translation (cm)" in table
        and "Rotation (deg)" in table
        and table.count("mean") == 2
        and table.count("median") == 2
    )
    ok = mismatches == 0 and layout_ok
    elapsed = time.time() - t0
    report(8, ok, f"{mismatches} stat mismatches over 100 lists, table layout {'ok' if layout_ok else 'bad'}", elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_criterion_9_io_round_trips(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(900)

    calib = {
        "cam_lidar": random_rigid(rng),
        "lidar_radar": random_rigid(rng),
        "radar_cam": random_rigid(rng),
    }
    save_calib(calib, tmp_path / "calib.txt")
    # the persisted floats are bit-exact images of the written matrices
    calib_ok = True
    for line in (tmp_path / "calib.txt").read_text().splitlines():
        key, _, rest = line.partition(":")
        written = np.array([float(v) for v in rest.split()])
        calib_ok &= np.array_equal(written, calib[key].matrix()[:3, :].reshape(12))
    # and the reconstructed transforms agree to well below 1e-9
    loaded = load_calib(tmp_path / "calib.txt")
    calib_ok &= all(
        np.allclose(loaded[k].q, v.q, atol=1e-9) and np.allclose(loaded[k].t, v.t, atol=1e-9)
        for k, v in calib.items()
    )

    cloud = PointCloud(
        xyz=rng.uniform(-50, 50, (500, 3)).astype(np.float32),
        channels=rng.uniform(0, 1, (500, 1)).astype(np.float32),
        schema=("intensity",),
    )
    save_cloud(cloud, tmp_path / "cloud.bin")
    back = load_cloud(tmp_path / "cloud.bin", ("intensity",))
    cloud_ok = np.array_equal(back.xyz.astype(np.float32), cloud.xyz.astype(np.float32))

    gen = ["gen-scene", "--seed", "31", "--frames", "1", "--lidar-density", "1200", "--radar-density", "150"]
    assert cli_main(gen + ["--out", str(tmp_path / "f1")]) == 0
    assert cli_main(gen + ["--out", str(tmp_path / "f2")]) == 0
    frame_files = ["lidar.bin", "radar.bin", "camera_depth.pgm", "calib.txt", "manifest.json"]
    gen_ok = all(
        filecmp.cmp(tmp_path / "f1" / n, tmp_path / "f2" / n, shallow=False) for n in frame_files
    )

    cal = [
        "calibrate", "--frames", str(tmp_path / "f1"), "--scenario", "small",
        "--estimator", "pairwise", "--runs", "1", "--seed", "3", "--budget", "300",
    ]
    assert cli_main(cal + ["--out", str(tmp_path / "c1")]) == 0
    assert cli_main(cal + ["--out", str(tmp_path / "c2")]) == 0
    run_files = ["predictions.csv", "errors.csv", "summary.csv", "summary.txt", "manifest.json"]
    cal_ok = all(
        filecmp.cmp(tmp_path / "c1" / n, tmp_path / "c2" / n, shallow=False) for n in run_files
    )

    ok = calib_ok and cloud_ok and gen_ok and cal_ok
    elapsed = time.time() - t0
    report(
        9,
        ok,
        f"calib {'ok' if calib_ok else 'bad'}, cloud {'ok' if cloud_ok else 'bad'}, "
        f"gen-scene rerun {'ok' if gen_ok else 'bad'}, calibrate rerun {'ok' if cal_ok else 'bad'}",
        elapsed,
        120.0,
    )
    assert ok and elapsed < 120.0
