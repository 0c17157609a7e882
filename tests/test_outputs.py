"""Fixed-seed CLI outputs, pinned by the SHA-256 of every file they write.

A refactor that keeps outputs byte-identical leaves every hash unchanged.  A
change that moves predictions records the new hashes and says so in
CHANGES.md.  The bits depend on numpy's kernels, so the hashes hold only for
the numpy version and machine they were recorded with; elsewhere the test
skips.  Paths are relative, because the manifests record ``--frames``.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from sensorcal.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "machine": "x86_64"}

CHAIN = [
    ["gen-scene", "--out", "frames", "--seed", "7"],
    ["calibrate", "--frames", "frames", "--out", "joint",
     "--scenario", "small", "--runs", "2", "--budget", "200"],
    ["calibrate", "--frames", "frames", "--out", "pairwise",
     "--scenario", "small", "--runs", "2", "--budget", "200", "--estimator", "pairwise"],
    ["perturb", "--frames", "frames", "--out", "perturbed", "--seed", "3"],
    ["render", "--frames", "perturbed", "--out", "render",
     "--source", "gt", "miscalibrated", "predicted", "--pred", "joint/predicted_calib.txt"],
    ["evaluate", "--pred", "joint/predictions.csv", "--out", "evaluate"],
]

SHA256 = {
    "evaluate/summary.csv":
        "b43eb39ec962f4b81b90e884e9c3553ee55df80c76348d7ff975ae58f86d921d",
    "evaluate/summary.txt":
        "4506f1332d121f699b217a973ab2f2984866a30bfc73bebd8dc2d21038ae2750",
    "frames/calib.txt":
        "87b4d53183d7748caaa8257f9e5dbc366b24c4c53530f129be507411f58bf54a",
    "frames/camera_depth.pgm":
        "2e833c8c3f65e45dc07f52d95ab17f6ced1f3aa2946d2d28633c095c003df285",
    "frames/lidar.bin":
        "e696cfcf91e4fd9a90be23dc103efce9139a7023335a1600e4d59885055c3169",
    "frames/manifest.json":
        "1f96a0ad07acf702ffd865af189a2c6b4c208761409ecd9b448e5f605857db0d",
    "frames/radar.bin":
        "866c73ea47140f14d20f5d1941af364263d90c0a55b5281835c2b30e086a43f4",
    "joint/errors.csv":
        "04a551224955f10a4ed3b88fbcd813428c4494a6de7ab34f0c01a067b5ac853d",
    "joint/manifest.json":
        "35b86d4807c6729df341f2c6f7e82bd8786c6f7604d38511d6a8418d1beca2cd",
    "joint/predicted_calib.txt":
        "3332fa3609f43a88711a1e773c5b7294a8d4731e9afbd6d4f2a75d621b362eac",
    "joint/predictions.csv":
        "671a702158118a932aa2216f9be03ea863ee5f135fa893a41a28e5aa06abb09e",
    "joint/summary.csv":
        "b43eb39ec962f4b81b90e884e9c3553ee55df80c76348d7ff975ae58f86d921d",
    "joint/summary.txt":
        "4506f1332d121f699b217a973ab2f2984866a30bfc73bebd8dc2d21038ae2750",
    "pairwise/errors.csv":
        "c0da9895a41ba7f8f325a56aafa1eb0462aabd3038d310fcf8e23f5fc0a3e2cb",
    "pairwise/manifest.json":
        "2624589e6b27f11bc4ab4c1d941b4cf85b415e701d58c2f6d3724bdea5bd44ca",
    "pairwise/predicted_calib.txt":
        "ab094bb708ee1f33f73810379d2ad62bd7b925389edb278a5f54f9736fb24e62",
    "pairwise/predictions.csv":
        "02182fb32515f7ba5469e652b2d8ed78d3eda2b5049fdd67650d9444c6db70b0",
    "pairwise/summary.csv":
        "e2e4623077bc7e7fa638e1a5515755281094c1dc255e7e0144a03e270e88f2fb",
    "pairwise/summary.txt":
        "b042eed9d20fba58d67c12af67e13b9885052cc30d9106f7da7c942d36fed169",
    "perturbed/calib.txt":
        "8e7cc05e22d93f54200fc96617bc63d9c890ddd6eb5532e2f7215ed1454e2c69",
    "perturbed/camera_depth.pgm":
        "2e833c8c3f65e45dc07f52d95ab17f6ced1f3aa2946d2d28633c095c003df285",
    "perturbed/lidar.bin":
        "f599b6cbd62d8da850c39479287a9aa45d1f28e6b64939d0874f8ba6f5758487",
    "perturbed/manifest.json":
        "2d3dbbd600e71e10ae4740d0efc85b5f2a74b13237949f022a135a79534fb2dd",
    "perturbed/mis.txt":
        "810a65d7c55d89e9fb2b488dd1ecb7248a453a2e432718584b05f40b00533f38",
    "perturbed/radar.bin":
        "62e4aca9209ba4f4a3e0228d51a0bf8523337d6f87abbc6e8ede8491133d7e85",
    "render/frame_000_gt.pgm":
        "df60ef355ddfa31aeb05b679a5645e29d1120ef46607ca668e8a9dd0a79affc8",
    "render/frame_000_miscalibrated.pgm":
        "acd9b82efc17ea6165b661c5797d75717d40db6b7a6fcc9ada32bfed20c35fd1",
    "render/frame_000_predicted.pgm":
        "ba06608ff9db8ba0753e089a2d2f7d6f7d16904d05d675559727fd9ad9562040",
}


def run_chain(root: Path) -> dict[str, str]:
    """SHA-256 of each file the chain writes under root, keyed by its relative path."""
    for argv in CHAIN:
        assert main(argv) == 0, argv
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_fixed_seed_outputs_are_byte_identical(tmp_path, monkeypatch):
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != RECORDED_WITH:
        pytest.skip(f"hashes recorded with {RECORDED_WITH}, running with {here}")
    monkeypatch.chdir(tmp_path)
    assert run_chain(tmp_path) == SHA256
