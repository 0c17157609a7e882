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
    # the rotation screen, four stages and the re-perturbation between them
    ["calibrate", "--frames", "frames", "--out", "refine",
     "--scenario", "refine", "--runs", "1", "--budget", "200"],
    # rigidly linked frames: one group estimated together, then groups of
    # one frame aggregated into the frame -1 rows
    ["gen-scene", "--out", "rigid_frames", "--seed", "7",
     "--frames", "2", "--lidar-density", "2000"],
    ["calibrate", "--frames", "rigid_frames", "--out", "rigid",
     "--scenario", "rigid-small", "--multiframe", "2", "--runs", "2", "--budget", "200"],
    ["calibrate", "--frames", "rigid_frames", "--out", "aggregated",
     "--scenario", "rigid-small", "--runs", "1", "--budget", "100"],
    # the default budget, where the final stage's joint polish stops on its
    # tolerance before the budget runs out
    ["calibrate", "--frames", "frames", "--out", "default_budget",
     "--scenario", "small", "--runs", "1"],
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
    "default_budget/errors.csv":
        "a4615d05f28c4bda76931c687efdbe74e247155b8af762236358e6f925140e8f",
    "default_budget/manifest.json":
        "d1a6173f0d737214bd30bdfbc047770ade150c02b802f18f4f309006323eb61d",
    "default_budget/predicted_calib.txt":
        "a13e87b41aa5541fc699496d1e16aad4a8b0ca40a6ccfb3cf852b1f004d4020f",
    "default_budget/predictions.csv":
        "33c031a072bb1ef7c4cd41fac15c80104ded54c133cc6ba78c718fe59f448d3f",
    "default_budget/summary.csv":
        "71d0c5985ada207611a47fb1d975c5f9b1b2416b46dcdd5b010346d223a9c309",
    "default_budget/summary.txt":
        "0f4b18134bbe1ef153b6609ce4c3bfa5a6ee80bbddafd949b674cbbee32bbe13",
    "aggregated/errors.csv":
        "216688f929259db9cbfdbd3ae55b23adb037369f8cbe774aa37ea64169a9a2c6",
    "aggregated/manifest.json":
        "44d93100f4e4f436275f385f40978b9f271beddaaa89986ff49f106da883f3ab",
    "aggregated/predicted_calib.txt":
        "e9dff669f49f89c8db38622f4de088b80e231fbb53e1acb33317931372354899",
    "aggregated/predictions.csv":
        "f5b5c6bb7cdd80fd4c3952211d91e65afc238ed2888b75e36dfe4dbaa2056303",
    "aggregated/summary.csv":
        "5e65db3d2b6ef100ea04228d4f385badf73bd23bfa70e91a6ed7fff24b8631ca",
    "aggregated/summary.txt":
        "f6eca9de5e0106e46bfadcd230f0e22a0bd3bd6f4379b08b27db78202541eca8",
    "refine/errors.csv":
        "ceaf567d77d04ac49ca36d4a7ef04730ffdc76d06fa21cc235c3cf89887f5985",
    "refine/manifest.json":
        "ddc7298a8198cf24cd183ddd9588c7b754f51a359ea6047722411770849afa74",
    "refine/predicted_calib.txt":
        "0ffd3e8e8c409c33e19d6f71cc48d01afcd07be79825b83acd5547928268f910",
    "refine/predictions.csv":
        "56d7c0ef38c845ad0e67da373547ed1240163362298067b9e1771816d3b6b7a9",
    "refine/summary.csv":
        "91077753cba359b17cd30b4853435ff2ce52dcc7059b3b0d58a5f6cb349d5f35",
    "refine/summary.txt":
        "8f63a56162689a5d7df790d3fbb2db557097f33dc9c95aa639eefcf0a0184826",
    "rigid/errors.csv":
        "bc5c57ac0975074d078e4c5f303e461a331852695f458f4f9771b2ac70f0f233",
    "rigid/manifest.json":
        "73acabbe9e78e347a566e5f7344cfa11e072e9a9f4e63dc311fbe6b70e1ab6de",
    "rigid/predicted_calib.txt":
        "3078fb58b143a995f06cacbcb474e63b7c59d460f11cb0773a8a02f856b09106",
    "rigid/predictions.csv":
        "b4b46278ad423c79b16f267e98926090d1289c3f1ae86b20a4bbd143bcd3d7b9",
    "rigid/summary.csv":
        "84ffd77ae482de96aaa30a03fd848ae07015b04b7c44d9bbdbb9b4c776501508",
    "rigid/summary.txt":
        "fd5018f7def2a5a28eb9f01682bfa7984be2c047cbd32e3b5190951c1c905d15",
    "rigid_frames/frame_000/calib.txt":
        "87b4d53183d7748caaa8257f9e5dbc366b24c4c53530f129be507411f58bf54a",
    "rigid_frames/frame_000/camera_depth.pgm":
        "2e833c8c3f65e45dc07f52d95ab17f6ced1f3aa2946d2d28633c095c003df285",
    "rigid_frames/frame_000/lidar.bin":
        "39831a353dae005964f9d2920ca10b3af07cade19d856e05e0a954bb34d977b1",
    "rigid_frames/frame_000/radar.bin":
        "c5e015fc3f7bc1ea54bad678d5c53dfa39225da4ddcfb0dbf91fe6a06de6465d",
    "rigid_frames/frame_001/calib.txt":
        "87b4d53183d7748caaa8257f9e5dbc366b24c4c53530f129be507411f58bf54a",
    "rigid_frames/frame_001/camera_depth.pgm":
        "351f269260038861212fe0c19860ab5bf3797347031822711b2a3bb2c85f142d",
    "rigid_frames/frame_001/lidar.bin":
        "ecb6f858d6bc723a75adfcbcdb6b29cc6eecc6ce66295f5011939281f131e1b5",
    "rigid_frames/frame_001/radar.bin":
        "7bbdac5355e761dfd6f618cb425493f1e664ab4eca31f8698ad127556fd921ae",
    "rigid_frames/manifest.json":
        "520f58d867a53902156fcf72c7a9014b046dbbebb7c503d5ff5934cd7b9ad208",
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
