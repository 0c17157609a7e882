"""Command-line front end for reproducible calibration experiments.

Subcommands: gen-scene, perturb, calibrate, evaluate, render.  Every run
writes a manifest.json holding the full configuration and seeds, and all
outputs are plain text / CSV / PGM so a run can be reproduced and diffed
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .data import FrameSet
from .dataio import (
    default_sensor_poses,
    generate_scene,
    load_calib,
    load_frame,
    random_scene_spec,
    save_calib,
    save_frame,
    write_pgm,
)
from .errors import CalibrationError, ParseError
from .estimate import (
    AlignmentCostConfig,
    identity_estimator,
    joint_estimator,
    oracle_estimator,
    pairwise_estimator,
    true_edges,
)
from .loss import PAIR_NAMES, LossWeights, PredictionSet
from .metrics import (
    ErrorRecord,
    error_record,
    format_summary_table,
    records_csv,
    summarize_by_pair,
    summary_csv,
)
from .perturb import PRESETS, MiscalBounds, apply_miscalibration, sample_miscalibration
from .pipeline import aggregate_sequence, refine_multiframe, stages_from_preset
from .projection import ProjectionConfig, _pinhole_pixels
from .transform import RigidTransform, invert, transform_points

DEPTH_SCALE = 80.0

# Not called here: bench/tracing.py wraps sensorcal.cli.refine_iterative by name.
refine_iterative = refine_multiframe

# scenario name -> (preset, rigid): each preset, and rigid-<preset>
_SCENARIOS = {
    prefix + name: (name, rigid)
    for prefix, rigid in (("", False), ("rigid-", True))
    for name in PRESETS
}


def _write_manifest(out_dir: Path, payload: dict) -> None:
    payload = {"tool": "sensorcal", "version": __version__, **payload}
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )


# the pinhole camera's numbers in a frames manifest, in ProjectionConfig.pinhole's order
_INTRINSICS = ("width", "height", "fx", "fy", "cx", "cy")
_CAMERA_FIELDS = (*_INTRINSICS, "depth_scale")


def _camera_manifest(cfg: ProjectionConfig) -> dict:
    return {**{f: getattr(cfg, f) for f in _INTRINSICS}, "depth_scale": DEPTH_SCALE}


def _camera_from_manifest(camera: dict) -> ProjectionConfig:
    return ProjectionConfig.pinhole(*(camera[f] for f in _INTRINSICS))


def _frame_dirs(root: Path, n_frames: int) -> list[Path]:
    if n_frames == 1:
        return [root]
    return [root / f"frame_{k:03d}" for k in range(n_frames)]


def _is_finite_number(value: object) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _read_manifest(root: Path) -> dict:
    """The frames manifest under root, with the fields that loading frames reads.

    Raises ParseError when the file is not a JSON object, or its ``camera``
    or ``frames`` field is missing or malformed: every camera number must be
    finite, and fx, fy and depth_scale positive.
    """
    path = root / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: expected a JSON object")
    camera = manifest.get("camera")
    if not isinstance(camera, dict) or not all(
        _is_finite_number(camera.get(f)) for f in _CAMERA_FIELDS
    ):
        raise ParseError(
            f"{path}: 'camera' must be an object with finite numbers {', '.join(_CAMERA_FIELDS)}"
        )
    if not all(camera[f] > 0 for f in ("fx", "fy", "depth_scale")):
        raise ParseError(f"{path}: camera fx, fy and depth_scale must be > 0")
    counts = (camera["width"], camera["height"], manifest.get("frames"))
    if not all(type(n) is int and n >= 1 for n in counts):
        raise ParseError(f"{path}: camera width and height and 'frames' must be integers >= 1")
    return manifest


def _load_frames(root: Path) -> tuple[list[FrameSet], dict]:
    manifest = _read_manifest(root)
    camera = _camera_from_manifest(manifest["camera"])
    scale = manifest["camera"]["depth_scale"]
    dirs = _frame_dirs(root, manifest["frames"])
    return [load_frame(d, camera, scale, index=k) for k, d in enumerate(dirs)], manifest


def cmd_gen_scene(args: argparse.Namespace) -> int:
    # every frame is generated before anything is written, so a degenerate
    # scene leaves no partial output behind
    poses = default_sensor_poses()
    frames = [
        generate_scene(
            random_scene_spec(
                seed=args.seed + k,
                lidar_density=args.lidar_density,
                radar_density=args.radar_density,
                lidar_noise=args.lidar_noise,
                radar_noise=args.radar_noise,
                radar_dropout=args.dropout,
            ),
            poses,
            index=k,
        )
        for k in range(args.frames)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for frame, frame_dir in zip(frames, _frame_dirs(out, args.frames)):
        save_frame(frame, frame_dir, DEPTH_SCALE)
    _write_manifest(
        out,
        {
            "command": "gen-scene",
            "seed": args.seed,
            "frames": args.frames,
            "lidar_density": args.lidar_density,
            "radar_density": args.radar_density,
            "lidar_noise": args.lidar_noise,
            "radar_noise": args.radar_noise,
            "dropout": args.dropout,
            "camera": _camera_manifest(frames[-1].camera_config),
        },
    )
    print(f"wrote {args.frames} frame(s) to {out}")
    return 0


def cmd_perturb(args: argparse.Namespace) -> int:
    src = Path(args.frames)
    out = Path(args.out)
    frames, manifest = _load_frames(src)
    out.mkdir(parents=True, exist_ok=True)
    bounds = MiscalBounds(args.max_translation, math.radians(args.max_rotation))
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))
    dirs = _frame_dirs(out, len(frames))
    for frame, frame_dir in zip(frames, dirs):
        if not args.rigid or frame.index == 0:
            lidar_mis = sample_miscalibration(bounds, rng)
            radar_mis = sample_miscalibration(bounds, rng)
        perturbed = apply_miscalibration(frame, lidar_mis=lidar_mis, radar_mis=radar_mis)
        save_frame(perturbed, frame_dir, manifest["camera"]["depth_scale"])
    _write_manifest(
        out,
        {
            "command": "perturb",
            "source": str(src),
            "seed": args.seed,
            "frames": len(frames),
            "rigid": args.rigid,
            "max_translation_m": bounds.max_translation,
            "max_rotation_deg": math.degrees(bounds.max_rotation),
            "camera": manifest["camera"],
        },
    )
    print(f"wrote {len(frames)} perturbed frame(s) to {out}")
    return 0


def _build_estimator(name: str, w: LossWeights, cfg: AlignmentCostConfig, seed: int):
    if name == "oracle":
        return oracle_estimator
    if name == "identity":
        return identity_estimator
    if name == "joint":
        return joint_estimator(w, cfg, seed=seed)
    if name == "pairwise":
        return pairwise_estimator(cfg, seed=seed)
    raise ValueError(f"unknown estimator {name!r}")


def _calibrate_run(frames: list[FrameSet], task: dict) -> tuple[int, list[dict]]:
    """One evaluation run: perturb, refine each group of frames, optionally aggregate.

    Groups hold --multiframe frames (1 by default) that are estimated
    together; more than one assumes a rigid scenario, and the group size
    divides the frame count (``cmd_calibrate`` checks both).  Module-level and
    driven by a plain dict so runs can execute in worker processes; rows
    come back as dicts of primitives.
    """
    preset = PRESETS[task["preset"]]
    stages = stages_from_preset(preset, budget=task["budget"])
    w = LossWeights(loop_weight=task["loop_weight"])
    cfg = AlignmentCostConfig()
    run = task["run"]
    rigid = task["rigid"]
    rows: list[dict] = []
    per_group_preds: list[PredictionSet] = []
    per_group_gts: list[PredictionSet] = []
    rng = np.random.default_rng(np.random.SeedSequence((task["seed"], run)))
    bounds = preset.stages[0]
    group_size = task.get("multiframe", 1)
    if rigid:
        lidar_mis = sample_miscalibration(bounds, rng)
        radar_mis = sample_miscalibration(bounds, rng)
    for start in range(0, len(frames), group_size):
        if not rigid:
            lidar_mis = sample_miscalibration(bounds, rng)
            radar_mis = sample_miscalibration(bounds, rng)
        group = [
            apply_miscalibration(f, lidar_mis=lidar_mis, radar_mis=radar_mis)
            for f in frames[start : start + group_size]
        ]
        # A group of one seeds its estimator from (seed, run, frame index), a
        # larger group from (seed, run).  These keys fix every recorded
        # calibration, rigid-small --multiframe 4 included: changing either
        # changes the predictions of every fixed-seed run.
        key = (task["seed"], run, group[0].index) if group_size == 1 else (task["seed"], run)
        seed = int(np.random.SeedSequence(key).generate_state(1)[0])
        estimator = _build_estimator(task["estimator"], w, cfg, seed=seed)
        preds = refine_multiframe(group, estimator, stages).final
        gts = true_edges(group[0])
        per_group_preds.append(preds)
        per_group_gts.append(gts)
        rows.extend(_prediction_rows(run, group[0].index, preds, gts))
    if rigid and len(per_group_preds) > 1:
        agg = aggregate_sequence(per_group_preds, mode=task["aggregate"])
        rows.extend(_prediction_rows(run, -1, agg, per_group_gts[0]))
    return run, rows


_worker_frames: list[FrameSet] = []


def _init_worker(frames: list[FrameSet]) -> None:
    """Hold the frames in a ``calibrate --jobs N`` worker, so that its runs
    share each depth image and the camera targets built from it."""
    global _worker_frames
    _worker_frames = frames


def _worker_run(task: dict) -> tuple[int, list[dict]]:
    return _calibrate_run(_worker_frames, task)


def _prediction_rows(
    run: int, frame: int, preds: PredictionSet, gts: PredictionSet
) -> list[dict]:
    rows = []
    for name, pred in preds.present():
        gt = gts.get(name)
        rows.append(
            {
                "run": run,
                "frame": frame,
                "pair": name,
                "pred": [*pred.q.tolist(), *pred.t.tolist()],
                "gt": [*gt.q.tolist(), *gt.t.tolist()],
            }
        )
    return rows


def _pose(values: list[float]) -> RigidTransform:
    """The transform of a row's (qw, qx, qy, qz, tx, ty, tz)."""
    return RigidTransform(q=np.array(values[:4]), t=np.array(values[4:]))


def _rows_to_records(rows: list[dict], aggregated: bool) -> list[ErrorRecord]:
    """Error records of the aggregated rows (frame -1), or of the per-frame rows."""
    return [
        error_record(_pose(row["pred"]), _pose(row["gt"]), row["pair"])
        for row in rows
        if (row["frame"] == -1) == aggregated
    ]


_PREDICTIONS_HEADER = "run,frame,pair," + ",".join(
    f"{side}_{c}" for side in ("pred", "gt") for c in ("qw", "qx", "qy", "qz", "tx", "ty", "tz")
)


def _predictions_csv(rows: list[dict]) -> str:
    lines = [_PREDICTIONS_HEADER]
    for row in rows:
        values = [f"{v:.17g}" for v in row["pred"] + row["gt"]]
        lines.append(f"{row['run']},{row['frame']},{row['pair']}," + ",".join(values))
    return "\n".join(lines) + "\n"


def cmd_calibrate(args: argparse.Namespace) -> int:
    preset_name, rigid = _SCENARIOS[args.scenario]
    runs = args.runs if args.runs is not None else (50 if rigid else 1)
    if args.multiframe > 1 and not rigid:
        print("error: --multiframe requires a rigid-* scenario", file=sys.stderr)
        return 1
    # a missing or unreadable frame fails here, before --out is created
    frames, _ = _load_frames(Path(args.frames))
    if len(frames) % args.multiframe:
        print(
            f"error: --multiframe {args.multiframe} does not divide the {len(frames)} frame(s)",
            file=sys.stderr,
        )
        return 1
    task_base = {
        "frames_dir": args.frames,
        "preset": preset_name,
        "rigid": rigid,
        "aggregate": args.aggregate,
        "estimator": args.estimator,
        "loop_weight": args.loop_weight,
        "budget": args.budget,
        "seed": args.seed,
        "multiframe": args.multiframe,
    }
    tasks = [{**task_base, "run": r} for r in range(runs)]
    # the pool starts all its workers at once, each holding the frames
    jobs = min(args.jobs, runs)
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(frames,)) as pool:
            results = list(pool.map(_worker_run, tasks))
    else:
        results = map(partial(_calibrate_run, frames), tasks)
    all_rows = [row for _, rows in results for row in rows]

    # every run has finished, so a failed calibration leaves no --out behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "predictions.csv").write_text(_predictions_csv(all_rows), encoding="ascii")
    first_run_final = {row["pair"]: _pose(row["pred"]) for row in all_rows if row["run"] == 0}
    save_calib(first_run_final, out / "predicted_calib.txt")
    per_frame = _rows_to_records(all_rows, aggregated=False)
    (out / "errors.csv").write_text(records_csv(per_frame), encoding="ascii")
    _write_manifest(out, {"command": "calibrate", "runs": runs, **task_base})
    _write_summary(out, all_rows)
    return 0


def _write_summary(out: Path, rows: list[dict]) -> None:
    """Write and print the per-pair summary of the aggregated rows, if there
    are any, and of the per-frame rows otherwise."""
    aggregated = any(row["frame"] == -1 for row in rows)
    by_pair = summarize_by_pair(_rows_to_records(rows, aggregated))
    (out / "summary.csv").write_text(summary_csv(by_pair), encoding="ascii")
    table = format_summary_table(by_pair)
    (out / "summary.txt").write_text(table, encoding="ascii")
    print(table, end="")


def _prediction_row(where: str, line: str) -> dict:
    parts = line.split(",")
    if len(parts) != 17:
        raise ParseError(f"{where}: {len(parts)} fields, expected 17")
    try:
        run, frame = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{where}: run and frame must be integers") from None
    if parts[2] not in PAIR_NAMES:
        raise ParseError(f"{where}: unknown pair {parts[2]!r}")
    try:
        values = [float(v) for v in parts[3:]]
    except ValueError:
        raise ParseError(f"{where}: pose values must be numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"{where}: pose values must be finite")
    row = {"run": run, "frame": frame, "pair": parts[2], "pred": values[:7], "gt": values[7:]}
    for side in ("pred", "gt"):
        try:
            _pose(row[side])
        except ValueError as exc:  # a zero quaternion
            raise ParseError(f"{where}: {side} pose: {exc}") from None
    return row


def _read_predictions(path: Path) -> list[dict]:
    """Rows of a predictions.csv; a malformed line, or one that repeats the
    run, frame and pair of an earlier line, raises ParseError naming it."""
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not an ASCII CSV file") from None
    if not lines or lines[0] != _PREDICTIONS_HEADER:
        raise ParseError(f"{path}:1: expected the predictions.csv header")
    rows = [_prediction_row(f"{path}:{n}", line) for n, line in enumerate(lines[1:], start=2)]
    first: dict[tuple, int] = {}
    for n, row in enumerate(rows, start=2):
        k = first.setdefault((row["run"], row["frame"], row["pair"]), n)
        if k != n:
            raise ParseError(f"{path}:{n}: repeats run, frame and pair of line {k}")
    return rows


def cmd_evaluate(args: argparse.Namespace) -> int:
    rows = _read_predictions(Path(args.pred))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_summary(out, rows)
    return 0


def _overlay(frame: FrameSet, edges: PredictionSet, depth_scale: float, out_path: Path) -> None:
    """Camera depth base image, scaled by depth_scale, with projected lidar/radar points on top."""
    base = np.clip(frame.camera_depth[..., 0] / depth_scale, 0.0, 1.0)
    img = (base * 0.5 * 65535.0).astype(np.uint16)
    layers = []
    if edges.cam_lidar is not None:
        layers.append((edges.cam_lidar, frame.lidar, 65535))
    if edges.radar_cam is not None:
        layers.append((invert(edges.radar_cam), frame.radar, 49152))
    for edge, cloud, gray in layers:
        # one gray per layer: a pixel marked twice needs no nearest-wins reduction
        pix = _pinhole_pixels(transform_points(edge, cloud.xyz), frame.camera_config)[0]
        img.reshape(-1)[pix] = gray
    write_pgm(img, out_path, 65535.0)


def cmd_render(args: argparse.Namespace) -> int:
    if "predicted" in args.source and not args.pred:
        print("error: --pred required for source 'predicted'", file=sys.stderr)
        return 1
    frames, manifest = _load_frames(Path(args.frames))
    pred_edges = None
    if args.pred:
        calib = load_calib(args.pred)
        for name in ("cam_lidar", "radar_cam"):
            if "predicted" in args.source and name not in calib:
                raise ParseError(f"{args.pred}: no {name!r} row")
        pred_edges = PredictionSet(**{name: calib.get(name) for name in PAIR_NAMES})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        edges = {
            "gt": true_edges(frame),
            "miscalibrated": frame.fixed,
            "predicted": pred_edges,
        }
        for source in args.source:
            out_path = out / f"frame_{frame.index:03d}_{source}.pgm"
            _overlay(frame, edges[source], manifest["camera"]["depth_scale"], out_path)
    print(f"wrote overlays to {out}")
    return 0


# (test, words) of the accepted range of a numeric option; main reports the
# first value that fails as "--<flag> must be <words>, got <value>"
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_FINITE_AT_LEAST_0 = (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorcal",
        description="Targetless camera/lidar/radar extrinsic calibration test bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate synthetic frames")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument(
        "--lidar-density", type=int, default=4000, metavar="N",
        help="lidar rays per frame, cast as 24 elevation rows of max(N // 24, 1) azimuth "
        "columns: 0 and 1 cast 24 rays, 4000 casts 3,984",
    )
    p.add_argument("--radar-density", type=int, default=400)
    p.add_argument("--lidar-noise", type=float, default=0.0)
    p.add_argument("--radar-noise", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.set_defaults(
        func=cmd_gen_scene,
        ranges={
            "seed": _AT_LEAST_0,
            "frames": _AT_LEAST_1,
            "lidar_density": _AT_LEAST_0,
            "radar_density": _AT_LEAST_0,
            "lidar_noise": _FINITE_AT_LEAST_0,
            "radar_noise": _FINITE_AT_LEAST_0,
            "dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
        },
    )

    p = sub.add_parser("perturb", help="apply random miscalibration to frames")
    p.add_argument("--frames", required=True, help="input frame directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-translation", type=float, default=0.2, help="meters per axis")
    p.add_argument("--max-rotation", type=float, default=1.0, help="degrees per axis")
    p.add_argument("--rigid", action="store_true", help="one miscalibration for all frames")
    p.set_defaults(
        func=cmd_perturb,
        ranges={
            "seed": _AT_LEAST_0,
            "max_translation": _FINITE_AT_LEAST_0,
            "max_rotation": _FINITE_AT_LEAST_0,
        },
    )

    p = sub.add_parser("calibrate", help="perturb, estimate, and report errors")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), default="small")
    p.add_argument(
        "--estimator", choices=("joint", "pairwise", "oracle", "identity"), default="joint"
    )
    p.add_argument("--runs", type=int, default=None, help="default 1, or 50 for rigid-*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loop-weight", "--lambda", dest="loop_weight", type=float, default=0.25)
    p.add_argument(
        "--budget", type=int, default=1600, metavar="N",
        help="cost evaluations per search per stage; a wide stage's rotation screen "
        "can overspend it, and a final stage may stop beaten starts early",
    )
    p.add_argument("--aggregate", choices=("median", "mean"), default="median")
    p.add_argument(
        "--multiframe", type=int, default=1,
        help="frames estimated together per group (rigid-* scenarios only)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the runs, at most one per run (1: no workers)",
    )
    p.set_defaults(
        func=cmd_calibrate,
        ranges={
            "seed": _AT_LEAST_0,
            **dict.fromkeys(("budget", "runs", "multiframe", "jobs"), _AT_LEAST_1),
            "loop_weight": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
        },
    )

    p = sub.add_parser("evaluate", help="recompute summaries from predictions.csv")
    p.add_argument("--pred", required=True, help="predictions.csv from calibrate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="overlay projected points on the camera depth image")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--source",
        nargs="+",
        choices=("gt", "miscalibrated", "predicted"),
        default=["gt"],
    )
    p.add_argument("--pred", help="calibration file for source 'predicted'")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, (in_range, words) in getattr(args, "ranges", {}).items():
        value = getattr(args, dest)
        if value is not None and not in_range(value):  # --runs defaults to None
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be {words}, got {value}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
