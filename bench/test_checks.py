"""Self-test of the benchmark's output checks.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import median_errors, pair_error, read_predictions  # noqa: E402
from sensorcal import cli  # noqa: E402


def test_error_worked_by_hand(tmp_path):
    # pred: 90 deg about z at (1, 2, 2) m; gt: 30 deg about z at the origin.
    # R_pred^T R_gt is -60 deg about z, so 60 deg; |(1, 2, 2)| = 3 m = 300 cm.
    c90, s90 = math.cos(math.radians(45)), math.sin(math.radians(45))
    c30, s30 = math.cos(math.radians(15)), math.sin(math.radians(15))
    header = "run,frame,pair," + ",".join(
        f"{side}_{c}" for side in ("pred", "gt") for c in ("qw", "qx", "qy", "qz", "tx", "ty", "tz")
    )
    row = f"0,0,cam_lidar,{c90!r},0,0,{s90!r},1,2,2,{c30!r},0,0,{s30!r},0,0,0"
    (tmp_path / "predictions.csv").write_text(f"{header}\n{row}\n", encoding="ascii")
    rows = read_predictions(tmp_path / "predictions.csv")
    rot, trans = pair_error(rows[0].pred, rows[0].gt)
    assert rot == pytest.approx(60.0, abs=1e-12)
    assert trans == pytest.approx(300.0, abs=1e-12)


@pytest.fixture(scope="module")
def small_frame(tmp_path_factory):
    frames = tmp_path_factory.mktemp("frames")
    run.setup(cli, run.WORKLOADS["small-joint"], frames)
    return frames


def _calibrate_with(estimator: str, frames: Path, out: Path) -> list[str]:
    # argparse keeps the last --estimator, so this overrides the benchmark's joint
    workload = replace(
        run.WORKLOADS["small-joint"],
        calibrate=("--scenario", "small", "--runs", "2", "--seed", "0", "--estimator", estimator),
    )
    _, problems = run.calibrate(cli, workload, frames, out)
    return problems


def test_oracle_passes_every_check(small_frame, tmp_path):
    assert _calibrate_with("oracle", small_frame, tmp_path / "out") == []
    assert set(median_errors(tmp_path / "out").values()) == {0.0}


def test_identity_counts_as_failed(small_frame, tmp_path):
    problems = _calibrate_with("identity", small_frame, tmp_path / "out")
    assert problems
    assert all("outside the" in p for p in problems)


def test_tampered_error_is_caught(small_frame, tmp_path):
    out = tmp_path / "out"
    assert _calibrate_with("oracle", small_frame, out) == []
    lines = (out / "errors.csv").read_text(encoding="ascii").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0.00001"
    (out / "errors.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    problems = run.check_run(out, small_frame, 1, run.SMALL_BOX)
    assert len(problems) == 1 and "recomputed" in problems[0]
