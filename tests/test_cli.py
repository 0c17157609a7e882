import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from sensorcal.cli import main

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


def test_render_predicted_requires_pred(frames_dir, tmp_path):
    code = main(
        ["render", "--frames", str(frames_dir), "--out", str(tmp_path / "r"), "--source", "predicted"]
    )
    assert code == 1


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
