"""Memory bounds of the camera path, measured with tracemalloc.

The bounds were fixed before the camera was rendered and unprojected in
blocks of rows: each is half of what the whole-image code allocated on the
same inputs.  That code peaked at 29.9 MB in ``generate_scene`` of a
16k-ray frame, and at 56.5 MB in ``_build_problems`` on four such frames,
whose problems then held 38.5 MB.  numpy reports its array buffers to
tracemalloc, so the figures count the arrays.
"""

import math
import tracemalloc

import pytest

from sensorcal.dataio import default_sensor_poses, generate_scene, random_scene_spec
from sensorcal.estimate import AlignmentCostConfig, EstimatorStage, _build_problems
from sensorcal.loss import PAIR_NAMES
from sensorcal.perturb import MiscalBounds

MB = 1e6
POSES = default_sensor_poses()


def _traced(fn):
    """fn's result, the bytes it still holds on return, and its peak bytes."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def _dense_spec(k):
    # frame k of `gen-scene --seed 7 --lidar-density 16000`
    return random_scene_spec(seed=7 + k, lidar_density=16000)


def test_generate_scene_of_a_dense_frame_peaks_at_15_mb():
    _, _, peak = _traced(lambda: generate_scene(_dense_spec(0), POSES))
    assert peak <= 15.0 * MB, f"peak {peak / MB:.1f} MB"


@pytest.fixture(scope="module")
def dense_frames():
    return [generate_scene(_dense_spec(k), POSES, index=k) for k in range(4)]


def test_edge_problems_of_four_dense_frames_peak_and_hold_half_as_much(dense_frames):
    stage = EstimatorStage(bounds=MiscalBounds(0.2, math.radians(1.0)))
    problems, held, peak = _traced(
        lambda: _build_problems(dense_frames, PAIR_NAMES, stage, AlignmentCostConfig())
    )
    assert len(problems) == 3
    assert peak <= 28.2 * MB, f"peak {peak / MB:.1f} MB"
    assert held <= 19.2 * MB, f"held {held / MB:.1f} MB"
