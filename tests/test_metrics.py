import math

import numpy as np
import pytest

from sensorcal.errors import EmptyListError
from sensorcal.metrics import (
    ErrorRecord,
    error_record,
    format_summary_table,
    records_csv,
    summarize,
    summarize_by_pair,
    summary_csv,
)
from sensorcal.transform import RigidTransform, from_euler


def brute_force_summary(values):
    """Sort-based median and two-pass std, accumulated in record order."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    return mean, median, std, 1.96 * std / math.sqrt(n)


def test_error_record_examples():
    identity = RigidTransform.identity()
    r = error_record(identity, identity, "cam_lidar")
    assert r.rotation_deg == 0.0 and r.translation_cm == 0.0
    shifted = RigidTransform.from_translation(0.01, 0, 0)
    r = error_record(shifted, identity)
    assert abs(r.translation_cm - 1.0) < 1e-9 and r.rotation_deg == 0.0
    rotated = from_euler([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
    r = error_record(rotated, identity)
    assert abs(r.rotation_deg - 90.0) < 1e-9 and r.translation_cm == 0.0


def test_summarize_single_record():
    s = summarize([ErrorRecord("p", 2.0, 5.0)])
    assert s.rotation.mean == s.rotation.median == 2.0
    assert s.rotation.std == 0.0 and s.rotation.ci95 == 0.0
    assert s.count == 1


def test_summarize_examples():
    records = [ErrorRecord("p", 0.0, t) for t in (1.0, 2.0, 3.0)]
    s = summarize(records)
    assert s.translation.mean == 2.0 and s.translation.median == 2.0

    records = [ErrorRecord("p", 0.0, t) for t in (1.0, 1.0, 1.0, 100.0)]
    s = summarize(records)
    assert s.translation.median == 1.0
    assert abs(s.translation.mean - 25.75) < 1e-12


def test_summarize_matches_brute_force():
    rng = np.random.default_rng(81)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        rot = rng.uniform(0, 20, n)
        trans = rng.uniform(0, 50, n)
        records = [ErrorRecord("p", r, t) for r, t in zip(rot, trans)]
        s = summarize(records)
        for stat, values in ((s.rotation, rot), (s.translation, trans)):
            mean, median, std, ci = brute_force_summary(values.tolist())
            assert stat.mean == mean
            assert stat.median == median
            assert abs(stat.std - std) < 1e-12
            assert abs(stat.ci95 - ci) < 1e-12


def test_summarize_empty_raises():
    with pytest.raises(EmptyListError):
        summarize([])


def test_summarize_by_pair_orders_known_pairs():
    records = [
        ErrorRecord("radar_cam", 1.0, 1.0),
        ErrorRecord("cam_lidar", 2.0, 2.0),
        ErrorRecord("cam_lidar", 4.0, 4.0),
    ]
    by_pair = summarize_by_pair(records)
    assert list(by_pair) == ["cam_lidar", "radar_cam"]
    assert by_pair["cam_lidar"].count == 2


def test_table_mirrors_mean_median_columns():
    by_pair = summarize_by_pair([ErrorRecord("cam_lidar", 0.4, 7.8)])
    table = format_summary_table(by_pair)
    assert "Translation (cm)" in table and "Rotation (deg)" in table
    assert table.count("mean") == 2 and table.count("median") == 2
    assert "cam_lidar" in table
    csv = summary_csv(by_pair)
    header = csv.splitlines()[0]
    for col in ("transl_cm_mean", "transl_cm_median", "rot_deg_mean", "rot_deg_median"):
        assert col in header


def test_records_csv_roundtrip_values():
    records = [ErrorRecord("cam_lidar", 1.25, 3.5)]
    text = records_csv(records)
    assert text.splitlines()[1] == "cam_lidar,1.25,3.5"
