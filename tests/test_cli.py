import argparse
import filecmp
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from sensorcal.cli import build_parser, main
from sensorcal.dataio import write_pgm
from sensorcal.errors import ParseError

GEN_ARGS = [
    "gen-scene",
    "--seed", "11",
    "--frames", "2",
    "--lidar-density", "1200",
    "--radar-density", "150",
]


@pytest.fixture(scope="module")
def frames_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "frames"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


def _tree_files(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_gen_scene_outputs(frames_dir):
    names = {p.name for p in (frames_dir / "frame_000").iterdir()}
    assert names == {"lidar.bin", "radar.bin", "camera_depth.pgm", "calib.txt"}
    manifest = json.loads((frames_dir / "manifest.json").read_text())
    assert manifest["seed"] == 11 and manifest["frames"] == 2


def test_gen_scene_byte_identical_reruns(frames_dir, tmp_path):
    again = tmp_path / "again"
    assert main(GEN_ARGS + ["--out", str(again)]) == 0
    for rel in _tree_files(frames_dir):
        assert (again / rel).read_bytes() == (frames_dir / rel).read_bytes(), rel


def test_single_frame_layout(tmp_path):
    out = tmp_path / "single"
    assert main(["gen-scene", "--out", str(out), "--seed", "2", "--lidar-density", "1200"]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"lidar.bin", "radar.bin", "camera_depth.pgm", "calib.txt", "manifest.json"}


def test_calibrate_oracle_reports_zero_error(frames_dir, tmp_path):
    out = tmp_path / "cal"
    code = main(
        [
            "calibrate",
            "--frames", str(frames_dir),
            "--out", str(out),
            "--scenario", "small",
            "--estimator", "oracle",
            "--runs", "2",
            "--seed", "5",
        ]
    )
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 4  # header + three pairs
    for line in summary[1:]:
        fields = line.split(",")
        assert all(abs(float(v)) < 1e-9 for v in fields[2:])


def test_calibrate_reruns_match_byte_for_byte(frames_dir, tmp_path):
    args = [
        "calibrate",
        "--frames", str(frames_dir),
        "--scenario", "small",
        "--estimator", "pairwise",
        "--runs", "1",
        "--seed", "9",
        "--budget", "300",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("predictions.csv", "errors.csv", "summary.csv", "summary.txt", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_calibrate_parallel_jobs_match_serial(frames_dir, tmp_path):
    args = [
        "calibrate",
        "--frames", str(frames_dir),
        "--scenario", "small",
        "--estimator", "oracle",
        "--runs", "3",
        "--seed", "4",
    ]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert filecmp.cmp(serial / "predictions.csv", parallel / "predictions.csv", shallow=False)


def test_calibrate_jobs_2_writes_the_files_of_jobs_1(tmp_path):
    # the joint estimator with its random starts, not a test double: worker
    # processes must draw the same starts and write the same bytes
    frame = tmp_path / "frame"
    assert main(["gen-scene", "--out", str(frame), "--seed", "2", "--lidar-density", "1200"]) == 0
    args = [
        "calibrate",
        "--frames", str(frame),
        "--scenario", "small",
        "--estimator", "joint",
        "--runs", "2",
        "--seed", "3",
        "--budget", "120",
    ]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert _tree_files(serial) == _tree_files(parallel)
    assert len(_tree_files(serial)) == 6
    for rel in _tree_files(serial):
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes(), rel


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    task in this process, after the initializer."""

    started: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, runs, started", [("4", "2", [2]), ("4", "1", []), ("2", "3", [2])])
def test_calibrate_starts_at_most_one_worker_per_run(
    frames_dir, tmp_path, monkeypatch, jobs, runs, started
):
    import sensorcal.cli as cli

    monkeypatch.setattr(_InProcessPool, "started", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    args = [
        "calibrate",
        "--frames", str(frames_dir),
        "--out", str(tmp_path / "out"),
        "--scenario", "small",
        "--estimator", "oracle",
        "--runs", runs,
        "--jobs", jobs,
    ]
    assert main(args) == 0
    assert _InProcessPool.started == started


def test_evaluate_reproduces_summary(frames_dir, tmp_path):
    cal = tmp_path / "cal"
    main(
        [
            "calibrate",
            "--frames", str(frames_dir),
            "--out", str(cal),
            "--scenario", "small",
            "--estimator", "identity",
            "--runs", "1",
            "--seed", "5",
        ]
    )
    out = tmp_path / "eval"
    assert main(["evaluate", "--pred", str(cal / "predictions.csv"), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == (cal / "summary.csv").read_bytes()


def test_perturb_then_render(frames_dir, tmp_path):
    pert = tmp_path / "pert"
    assert main(
        [
            "perturb",
            "--frames", str(frames_dir),
            "--out", str(pert),
            "--seed", "3",
            "--max-translation", "0.3",
            "--max-rotation", "5",
        ]
    ) == 0
    assert (pert / "frame_000" / "mis.txt").exists()
    render = tmp_path / "render"
    assert main(
        [
            "render",
            "--frames", str(pert),
            "--out", str(render),
            "--source", "gt", "miscalibrated",
        ]
    ) == 0
    gt = (render / "frame_000_gt.pgm").read_bytes()
    mis = (render / "frame_000_miscalibrated.pgm").read_bytes()
    assert gt != mis  # a nonzero miscalibration must move the overlay

    # deterministic re-render
    render2 = tmp_path / "render2"
    main(["render", "--frames", str(pert), "--out", str(render2), "--source", "gt"])
    assert (render2 / "frame_000_gt.pgm").read_bytes() == gt


def test_render_scales_depth_by_the_manifest(frames_dir, tmp_path):
    # doubling the manifest's depth_scale doubles every loaded depth exactly,
    # and the overlay's base image divides it back out: the same bytes
    scaled = shutil.copytree(frames_dir, tmp_path / "scaled")
    manifest = json.loads((scaled / "manifest.json").read_text())
    manifest["camera"]["depth_scale"] *= 2
    (scaled / "manifest.json").write_text(json.dumps(manifest))
    for frames, out in ((frames_dir, "plain"), (scaled, "doubled")):
        assert main(["render", "--frames", str(frames), "--out", str(tmp_path / out)]) == 0
    for name in ("frame_000_gt.pgm", "frame_001_gt.pgm"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "doubled" / name).read_bytes()


def test_calibrate_multiframe_rigid(frames_dir, tmp_path):
    out = tmp_path / "mf"
    code = main(
        [
            "calibrate",
            "--frames", str(frames_dir),
            "--out", str(out),
            "--scenario", "rigid-small",
            "--estimator", "oracle",
            "--runs", "2",
            "--multiframe", "2",
            "--seed", "8",
        ]
    )
    assert code == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    # two frames estimated as one group per run: one prediction row set per run
    frames_seen = {line.split(",")[1] for line in lines[1:]}
    assert frames_seen == {"0"}
    # multiframe without a rigid scenario is rejected
    code = main(
        [
            "calibrate",
            "--frames", str(frames_dir),
            "--out", str(tmp_path / "bad"),
            "--scenario", "small",
            "--estimator", "oracle",
            "--multiframe", "2",
        ]
    )
    assert code == 1
    assert not (tmp_path / "bad").exists()


def test_render_predicted_requires_pred(frames_dir, tmp_path):
    code = main(
        ["render", "--frames", str(frames_dir), "--out", str(tmp_path / "r"), "--source", "predicted"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["calibrate", "--frames", "{frames}", "--scenario", "small", "--multiframe", "2"], 1,
         "error: --multiframe requires a rigid-* scenario"),
        # two frames: a group of three would be a short last group
        (["calibrate", "--frames", "{frames}", "--scenario", "rigid-small", "--multiframe", "3",
          "--runs", "1", "--budget", "50"], 1,
         "error: --multiframe 3 does not divide the 2 frame(s)"),
        (["calibrate", "--frames", "{missing}", "--scenario", "small"], 1,
         "error: [Errno 2] No such file or directory"),
        (["calibrate", "--frames", "{not_json}", "--scenario", "small"], 2,
         "manifest.json: not a JSON manifest"),
        (["calibrate", "--frames", "{empty}", "--scenario", "small"], 2,
         "manifest.json: 'camera' must be an object"),
        (["calibrate", "--frames", "{zero_fx}", "--scenario", "small"], 2,
         "manifest.json: camera fx, fy and depth_scale must be > 0"),
        # the first frame calibrates, the second has no radar return in view
        # two runs, so that --jobs 2 starts a pool and its failure crosses it
        *((["calibrate", "--frames", "{far_radar}", "--scenario", "small", "--budget", "50",
            "--jobs", jobs, "--runs", jobs], 2,
           "error: stage 0: edge lidar_radar: no raster overlap")
          for jobs in ("1", "2")),
        (["calibrate", "--frames", "{cut_lidar}", "--scenario", "small"], 2,
         "values is not a multiple of record size 4"),
        (["calibrate", "--frames", "{nan_lidar}", "--scenario", "small", "--budget", "50"], 2,
         "lidar.bin: a point coordinate is not finite"),
        (["calibrate", "--frames", "{no_row}", "--scenario", "small", "--budget", "50"], 2,
         "calib.txt: no 'lidar_radar' row"),
        (["calibrate", "--frames", "{nan_calib}", "--scenario", "small", "--budget", "50"], 2,
         "calib.txt: row 'radar_cam' has a value that is not finite"),
        (["perturb", "--frames", "{nan_mis}"], 2,
         "mis.txt: row 'radar_mis' has a value that is not finite"),
        (["calibrate", "--frames", "{cut_depth}", "--scenario", "small"], 2,
         "camera_depth.pgm: raster has 0 bytes"),
        *(([command, "--frames", "{wrong_size}"], 2,
           "camera_depth.pgm: depth image is 200x100, the camera is 640x320")
          for command in ("calibrate", "perturb", "render")),
        (["evaluate", "--pred", "{bad}"], 2, "expected the predictions.csv header"),
        # gt comes first, so a late rejection would already have written its overlay
        (["render", "--frames", "{frames}", "--source", "gt", "predicted"], 1,
         "error: --pred required for source 'predicted'"),
        (["render", "--frames", "{frames}", "--source", "gt", "predicted", "--pred", "{nan_pred}"],
         2, "nan_pred.txt: row 'cam_lidar' has a value that is not finite"),
        # a predicted overlay draws cam_lidar and radar_cam; without them it would be empty
        (["render", "--frames", "{frames}", "--source", "gt", "predicted", "--pred", "{lr_pred}"],
         2, "lr_pred.txt: no 'cam_lidar' row"),
        (["render", "--frames", "{frames}", "--source", "gt", "predicted", "--pred", "{empty_pred}"],
         2, "empty_pred.txt: no 'cam_lidar' row"),
        (["render", "--frames", "{frames}", "--source", "gt", "predicted", "--pred", "{cl_lr_pred}"],
         2, "cl_lr_pred.txt: no 'radar_cam' row"),
    ],
    ids=[
        "calibrate",
        "calibrate-multiframe-not-dividing-frames",
        "calibrate-missing-frames",
        "calibrate-manifest-not-json",
        "calibrate-manifest-empty-object",
        "calibrate-manifest-zero-fx",
        "calibrate-no-radar-overlap",
        "calibrate-no-radar-overlap-jobs-2",
        "calibrate-corrupt-lidar",
        "calibrate-nan-lidar-point",
        "calibrate-calib-missing-row",
        "calibrate-calib-nan",
        "perturb-mis-nan",
        "calibrate-depth-cut-after-header",
        "calibrate-depth-image-size",
        "perturb-depth-image-size",
        "render-depth-image-size",
        "evaluate",
        "render",
        "render-pred-nan",
        "render-pred-only-lidar-radar",
        "render-pred-empty",
        "render-pred-no-radar-cam",
    ],
)
def test_rejected_command_writes_nothing(frames_dir, tmp_path, capsys, args, code, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("run,frame\n")
    manifests = {"not_json": "not json", "empty": "{}"}
    for name, text in manifests.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(text)
    dirs = {name: tmp_path / name for name in manifests}
    # copies of the frames with the last frame's lidar.bin one byte short or
    # with a NaN coordinate, its calib.txt without the lidar_radar row or
    # with a nan in the radar_cam row, a mis.txt with a nan, its
    # camera_depth.pgm cut after the header, a 200x100 depth image under the
    # manifest's 640x320 camera, or three radar points 50 m ahead; or with
    # fx 0 in the manifest
    last = {}
    copies = ("cut_lidar", "nan_lidar", "no_row", "nan_calib", "nan_mis", "cut_depth",
              "wrong_size", "far_radar", "zero_fx")
    for name in copies:
        dirs[name] = shutil.copytree(frames_dir, tmp_path / name)
        last[name] = dirs[name] / "frame_001"
    lidar = last["cut_lidar"] / "lidar.bin"
    lidar.write_bytes(lidar.read_bytes()[:-1])
    points = np.fromfile(last["nan_lidar"] / "lidar.bin", dtype="<f4")
    points[4 * 7 + 1] = np.nan  # y of point 7: records are x, y, z and one channel
    points.tofile(last["nan_lidar"] / "lidar.bin")
    rows = (last["no_row"] / "calib.txt").read_text().splitlines(keepends=True)
    (last["no_row"] / "calib.txt").write_text("".join(r for r in rows if "lidar_radar" not in r))
    rows = (last["nan_calib"] / "calib.txt").read_text().splitlines()
    rows[-1] = rows[-1].rsplit(" ", 1)[0] + " nan"
    (last["nan_calib"] / "calib.txt").write_text("\n".join(rows) + "\n")
    identity = " 1 0 0 0 0 1 0 0 0 0 1 0"
    (last["nan_mis"] / "mis.txt").write_text(
        f"lidar_mis:{identity}\nradar_mis: 1 0 0 0 0 1 0 0 0 0 1 nan\n"
    )
    nan_pred = tmp_path / "nan_pred.txt"
    nan_pred.write_text(f"cam_lidar: 1 0 0 nan 0 1 0 0 0 0 1 0\nlidar_radar:{identity}\n")
    preds = {"lr_pred": ["lidar_radar"], "empty_pred": [], "cl_lr_pred": ["cam_lidar", "lidar_radar"]}
    for name, pairs in preds.items():
        (tmp_path / f"{name}.txt").write_text("".join(f"{pair}:{identity}\n" for pair in pairs))
    (last["cut_depth"] / "camera_depth.pgm").write_bytes(b"P5\n640 320\n65535\n")
    write_pgm(np.zeros((100, 200)), last["wrong_size"] / "camera_depth.pgm", 80.0)
    np.tile([50.0, 0, 0, 0, 0, 0], (3, 1)).astype("<f4").tofile(last["far_radar"] / "radar.bin")
    manifest = json.loads((dirs["zero_fx"] / "manifest.json").read_text())
    manifest["camera"]["fx"] = 0
    (dirs["zero_fx"] / "manifest.json").write_text(json.dumps(manifest))
    args = [
        a.format(frames=frames_dir, bad=bad, missing=tmp_path / "missing", nan_pred=nan_pred,
                 **{name: tmp_path / f"{name}.txt" for name in preds}, **dirs)
        for a in args
    ]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()
    # an existing directory is left exactly as it was
    out.mkdir()
    (out / "keep.txt").write_bytes(b"untouched")
    assert main([*args, "--out", str(out)]) == code
    assert [p.name for p in out.rglob("*")] == ["keep.txt"]


_CAMERA = {"width": 64, "height": 32, "fx": 40.0, "fy": 40.0, "cx": 32.0, "cy": 16.0,
           "depth_scale": 0.001}


@pytest.mark.parametrize(
    "text, message",
    [
        (b"not json", "not a JSON manifest"),
        (b"\xff{}", "not a JSON manifest"),
        (b"[1, 2]", "expected a JSON object"),
        (b"{}", "'camera' must be an object"),
        (json.dumps({"camera": 3, "frames": 1}).encode(), "'camera' must be an object"),
        (json.dumps({"camera": {**_CAMERA, "fx": "40"}, "frames": 1}).encode(), "'camera'"),
        (json.dumps({"camera": {**_CAMERA, "cy": True}, "frames": 1}).encode(), "'camera'"),
        (json.dumps({"camera": {**_CAMERA, "width": 64.0}, "frames": 1}).encode(), "integers"),
        (json.dumps({"camera": {**_CAMERA, "height": 0}, "frames": 1}).encode(), "integers"),
        # json.dumps writes nan and inf as the literals NaN and Infinity
        *((json.dumps({"camera": {**_CAMERA, field: value}, "frames": 1}).encode(), "'camera'")
          for field, value in (("fx", math.nan), ("fy", math.inf), ("cx", -math.inf),
                               ("depth_scale", math.nan))),
        *((json.dumps({"camera": {**_CAMERA, field: value}, "frames": 1}).encode(), "must be > 0")
          for field, value in (("fx", 0), ("fx", -40.0), ("fy", 0.0), ("depth_scale", 0),
                               ("depth_scale", -80.0))),
        (json.dumps({"camera": _CAMERA}).encode(), "'frames' must be integers"),
        (json.dumps({"camera": _CAMERA, "frames": 0}).encode(), "'frames' must be integers"),
        (json.dumps({"camera": _CAMERA, "frames": True}).encode(), "'frames' must be integers"),
        (json.dumps({"camera": _CAMERA, "frames": "2"}).encode(), "'frames' must be integers"),
    ],
)
def test_read_manifest_rejects_malformed_manifests(tmp_path, text, message):
    from sensorcal.cli import _read_manifest

    (tmp_path / "manifest.json").write_bytes(text)
    with pytest.raises(ParseError, match=message):
        _read_manifest(tmp_path)


def test_read_manifest_accepts_what_gen_scene_writes(frames_dir):
    from sensorcal.cli import _read_manifest

    assert _read_manifest(frames_dir)["frames"] == 2


@pytest.mark.parametrize("command", ["perturb", "render"])
def test_malformed_manifest_exits_2_before_writing(tmp_path, capsys, command):
    (tmp_path / "frames").mkdir()
    (tmp_path / "frames" / "manifest.json").write_text("{}")
    out = tmp_path / "out"
    assert main([command, "--frames", str(tmp_path / "frames"), "--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, multiframe, keys",
    [
        ("small", 1, lambda seed, run: [(seed, run, 0), (seed, run, 1)]),
        ("rigid-small", 1, lambda seed, run: [(seed, run, 0), (seed, run, 1)]),
        ("rigid-small", 2, lambda seed, run: [(seed, run)]),
    ],
    ids=["per-frame", "rigid-per-frame", "rigid-multiframe-2"],
)
def test_calibrate_run_estimator_seeds(frames_dir, monkeypatch, scenario, multiframe, keys):
    """Groups of one seed from (seed, run, frame index), larger groups from (seed, run)."""
    from sensorcal import cli

    seeds = []
    build = cli._build_estimator

    def recording(name, w, cfg, seed):
        seeds.append(seed)
        return build(name, w, cfg, seed=seed)

    monkeypatch.setattr(cli, "_build_estimator", recording)
    preset, rigid = cli._SCENARIOS[scenario]
    task = {
        "frames_dir": str(frames_dir), "preset": preset, "rigid": rigid, "aggregate": "median",
        "estimator": "oracle", "loop_weight": 0.25, "budget": 1600, "seed": 13,
        "multiframe": multiframe, "run": 3,
    }
    frames, _ = cli._load_frames(frames_dir)
    cli._calibrate_run(frames, task)
    assert seeds == [
        int(np.random.SeedSequence(key).generate_state(1)[0]) for key in keys(13, 3)
    ]


def test_missing_input_is_diagnosed(tmp_path):
    code = main(["calibrate", "--frames", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_unwritable_output_dir_is_diagnosed(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["gen-scene", "--out", str(blocker / "sub"), "--seed", "1"])
    assert code == 1
    assert str(blocker) in capsys.readouterr().err


def test_cli_predictions_equal_direct_library_calls(frames_dir, tmp_path):
    """The CLI is a thin shell: its stored predictions reproduce exactly from
    the documented library calls with the manifest's seeds."""
    import numpy as np

    from sensorcal.cli import _load_frames
    from sensorcal.estimate import true_edges
    from sensorcal.perturb import PRESETS, apply_miscalibration, sample_miscalibration

    out = tmp_path / "cal"
    main(
        [
            "calibrate",
            "--frames", str(frames_dir),
            "--out", str(out),
            "--scenario", "small",
            "--estimator", "oracle",
            "--runs", "1",
            "--seed", "17",
        ]
    )
    frames, _ = _load_frames(frames_dir)
    rng = np.random.default_rng(np.random.SeedSequence((17, 0)))
    bounds = PRESETS["small"].stages[0]
    expected = []
    for frame in frames:
        lidar_mis = sample_miscalibration(bounds, rng)
        radar_mis = sample_miscalibration(bounds, rng)
        perturbed = apply_miscalibration(frame, lidar_mis=lidar_mis, radar_mis=radar_mis)
        gt = true_edges(perturbed)
        for name, value in gt.present():
            expected.append((frame.index, name, value))
    lines = (out / "predictions.csv").read_text().splitlines()[1:]
    assert len(lines) == len(expected)
    for line, (idx, name, value) in zip(lines, expected):
        parts = line.split(",")
        assert (int(parts[1]), parts[2]) == (idx, name)
        stored = np.array([float(v) for v in parts[3:10]])
        assert np.array_equal(stored, np.concatenate([value.q, value.t]))


@pytest.mark.parametrize("rigid", [False, True])
def test_perturb_and_calibrate_draw_the_same_miscalibration(frames_dir, tmp_path, rigid):
    """perturb --seed S and calibrate --seed S perturb the frames alike, so
    calibrate's gt columns are the true edges of perturb's frames."""
    from sensorcal.cli import _load_frames
    from sensorcal.estimate import true_edges

    pert, cal = tmp_path / "pert", tmp_path / "cal"
    rigid_flag = ["--rigid"] if rigid else []
    assert main(
        ["perturb", "--frames", str(frames_dir), "--out", str(pert), "--seed", "23", *rigid_flag]
    ) == 0
    assert main(
        [
            "calibrate", "--frames", str(frames_dir), "--out", str(cal),
            "--scenario", "rigid-small" if rigid else "small",
            "--estimator", "oracle", "--runs", "1", "--seed", "23",
        ]
    ) == 0
    perturbed, _ = _load_frames(pert)
    rows = [line.split(",") for line in (cal / "predictions.csv").read_text().splitlines()[1:]]
    rows = [parts for parts in rows if parts[1] != "-1"]  # not the rigid aggregate
    assert len(rows) == 3 * len(perturbed) == 6
    for parts in rows:
        gt = true_edges(perturbed[int(parts[1])]).get(parts[2])
        stored = np.array([float(v) for v in parts[10:]])
        assert np.allclose(stored, np.concatenate([gt.q, gt.t]), rtol=0.0, atol=1e-12)


def _identity_predictions(frames_dir, tmp_path) -> Path:
    cal = tmp_path / "cal"
    assert main(
        [
            "calibrate", "--frames", str(frames_dir), "--out", str(cal),
            "--scenario", "small", "--estimator", "identity", "--runs", "1", "--seed", "5",
        ]
    ) == 0
    return cal / "predictions.csv"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda row: ",".join(row.split(",")[:5]), "5 fields, expected 17"),
        (lambda row: "x" + row, "run and frame must be integers"),
        (lambda row: ",".join(row.split(",")[:2] + ["cam_sonar"] + row.split(",")[3:]),
         "unknown pair 'cam_sonar'"),
        (lambda row: row.rsplit(",", 1)[0] + ",abc", "pose values must be numbers"),
        (lambda row: row.rsplit(",", 1)[0] + ",nan", "pose values must be finite"),
        (lambda row: ",".join(row.split(",")[:3] + ["0"] * 4 + row.split(",")[7:]),
         "pred pose: quaternion norm is zero"),
    ],
)
def test_evaluate_malformed_row_is_diagnosed(frames_dir, tmp_path, capsys, mutate, message):
    lines = _identity_predictions(frames_dir, tmp_path).read_text().splitlines()
    lines[2] = mutate(lines[2])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(bad), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}:3: {message}" in err


@pytest.mark.parametrize("content", [b"", b"run,frame\n", b"\xff\xfe\n"])
def test_evaluate_rejects_a_file_that_is_not_predictions(tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    assert main(["evaluate", "--pred", str(bad), "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget", "0", "--budget must be >= 1, got 0"),
        ("--loop-weight", "2", "--loop-weight must be in [0, 1], got 2.0"),
        ("--loop-weight", "-0.5", "--loop-weight must be in [0, 1], got -0.5"),
        ("--loop-weight", "nan", "--loop-weight must be in [0, 1], got nan"),
        ("--runs", "0", "--runs must be >= 1, got 0"),
        ("--multiframe", "0", "--multiframe must be >= 1, got 0"),
        ("--jobs", "0", "--jobs must be >= 1, got 0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ],
)
def test_calibrate_rejects_out_of_range_numbers(frames_dir, tmp_path, capsys, flag, value, message):
    out = tmp_path / "cal"
    capsys.readouterr()
    code = main(
        [
            "calibrate", "--frames", str(frames_dir), "--out", str(out),
            "--scenario", "rigid-small", "--estimator", "identity", flag, value,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--frames", "0", "--frames must be >= 1, got 0"),
        ("--lidar-density", "-5", "--lidar-density must be >= 0, got -5"),
        ("--radar-density", "-1", "--radar-density must be >= 0, got -1"),
        ("--lidar-noise", "-1", "--lidar-noise must be finite and >= 0, got -1.0"),
        ("--radar-noise", "nan", "--radar-noise must be finite and >= 0, got nan"),
        ("--lidar-noise", "inf", "--lidar-noise must be finite and >= 0, got inf"),
        ("--dropout", "1.0", "--dropout must be in [0, 1), got 1.0"),
        ("--dropout", "-0.1", "--dropout must be in [0, 1), got -0.1"),
        ("--dropout", "nan", "--dropout must be in [0, 1), got nan"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ],
)
def test_gen_scene_rejects_out_of_range_numbers(tmp_path, capsys, flag, value, message):
    out = tmp_path / "frames"
    capsys.readouterr()
    assert main(["gen-scene", "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        # the first frame is already degenerate
        (["--frames", "3", "--radar-density", "3", "--lidar-density", "500"],
         "radar sees only 3 points"),
        # frames 0 and 1 are fine, frame 2 is degenerate
        (["--seed", "0", "--frames", "3", "--lidar-density", "500", "--radar-density", "14",
          "--dropout", "0.3"], "radar sees only"),
    ],
)
def test_gen_scene_degenerate_frame_writes_nothing(tmp_path, capsys, args, message):
    out = tmp_path / "frames"
    capsys.readouterr()
    assert main(["gen-scene", "--out", str(out), *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()
    # an existing directory is left exactly as it was
    out.mkdir()
    (out / "keep.txt").write_bytes(b"untouched")
    assert main(["gen-scene", "--out", str(out), *args]) == 2
    assert [p.name for p in out.rglob("*")] == ["keep.txt"]
    assert (out / "keep.txt").read_bytes() == b"untouched"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-rotation", "-1", "--max-rotation must be finite and >= 0, got -1.0"),
        ("--max-rotation", "inf", "--max-rotation must be finite and >= 0, got inf"),
        ("--max-translation", "nan", "--max-translation must be finite and >= 0, got nan"),
        ("--max-translation", "-0.2", "--max-translation must be finite and >= 0, got -0.2"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ],
)
def test_perturb_rejects_out_of_range_numbers(frames_dir, tmp_path, capsys, flag, value, message):
    out = tmp_path / "pert"
    capsys.readouterr()
    assert main(["perturb", "--frames", str(frames_dir), "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_numeric_option_is_range_checked():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        numeric = {a.dest for a in sub._actions if a.type in (int, float)}
        assert set(sub.get_default("ranges") or {}) == numeric, name
