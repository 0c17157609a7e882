import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorcal.data import PointCloud
from sensorcal.errors import EmptyCloudError, MissingPairError
from sensorcal.loss import (
    PAIR_NAMES,
    LossWeights,
    PredictionSet,
    loop_loss,
    loop_transform,
    pairwise_loss,
    param_loss,
    point_loss,
    smooth_l1,
)
from sensorcal.transform import (
    RigidTransform,
    compose,
    from_euler,
    invert,
)

W = LossWeights()
IDENTITY = RigidTransform.identity()


def rot_z(angle, tx=0.0):
    return from_euler([0.0, 0.0, angle, tx, 0.0, 0.0])


def random_transform(rng, scale=1.0):
    return from_euler([*rng.uniform(-scale, scale, 3), *rng.uniform(-2 * scale, 2 * scale, 3)])


def test_smooth_l1_examples():
    assert smooth_l1(0.0) == 0.0
    assert abs(smooth_l1(0.5, 1.0) - 0.125) < 1e-15
    assert abs(smooth_l1(2.0, 1.0) - 1.5) < 1e-15
    # continuous at the transition point
    assert abs(smooth_l1(1.0 - 1e-9) - smooth_l1(1.0 + 1e-9)) < 1e-8


def test_param_loss_examples():
    assert param_loss(IDENTITY, IDENTITY, W) == 0.0
    shifted = RigidTransform.from_translation(0.5, 0.0, 0.0)
    assert abs(param_loss(shifted, IDENTITY, W) - 0.25) < 1e-12
    rotated = rot_z(math.pi / 2)
    assert abs(param_loss(rotated, IDENTITY, W) - (math.pi / 2 - 0.5)) < 1e-12


def test_point_loss_examples():
    cloud = PointCloud.bare([[1.0, 0.0, 0.0]])
    assert point_loss(IDENTITY, IDENTITY, cloud) == 0.0
    shifted = RigidTransform.from_translation(0.1, 0.0, 0.0)
    assert abs(point_loss(shifted, IDENTITY, cloud) - 0.1) < 1e-12
    two = PointCloud.bare([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert abs(point_loss(rot_z(math.pi), IDENTITY, two) - 2.0) < 1e-12
    with pytest.raises(EmptyCloudError):
        point_loss(IDENTITY, IDENTITY, PointCloud.bare(np.zeros((0, 3))))


def test_point_loss_equals_translation_magnitude():
    rng = np.random.default_rng(31)
    cloud = PointCloud.bare(rng.uniform(-10, 10, (64, 3)))
    for _ in range(10):
        t = rng.uniform(-2, 2, 3)
        pred = RigidTransform.from_translation(*t)
        assert abs(point_loss(pred, IDENTITY, cloud) - np.linalg.norm(t)) < 1e-12


def test_pairwise_loss_examples():
    gts = PredictionSet(cam_lidar=IDENTITY, lidar_radar=IDENTITY, radar_cam=IDENTITY)
    clouds = {name: PointCloud.bare([[0.0, 0.0, 0.0]]) for name in ("cam_lidar", "lidar_radar", "radar_cam")}
    assert pairwise_loss(gts, gts, clouds, W) == 0.0

    shifted = RigidTransform.from_translation(0.5, 0.0, 0.0)
    one = PredictionSet(cam_lidar=shifted)
    assert abs(pairwise_loss(one, gts, clouds, W) - 0.375) < 1e-12

    three = PredictionSet(cam_lidar=shifted, lidar_radar=shifted, radar_cam=shifted)
    assert abs(pairwise_loss(three, gts, clouds, W) - 3 * 0.375) < 1e-12


def test_pairwise_loss_missing_gt_or_cloud():
    preds = PredictionSet(cam_lidar=IDENTITY)
    with pytest.raises(MissingPairError):
        pairwise_loss(preds, PredictionSet(), {"cam_lidar": PointCloud.bare([[0, 0, 0]])}, W)
    gts = PredictionSet(cam_lidar=IDENTITY)
    with pytest.raises(MissingPairError):
        pairwise_loss(preds, gts, {}, W)


def test_loop_transform_examples():
    all_id = PredictionSet(cam_lidar=IDENTITY, lidar_radar=IDENTITY, radar_cam=IDENTITY)
    assert np.allclose(loop_transform(all_id).matrix(), np.eye(4))

    cancel = PredictionSet(
        cam_lidar=RigidTransform.from_translation(1, 0, 0),
        lidar_radar=IDENTITY,
        radar_cam=RigidTransform.from_translation(-1, 0, 0),
    )
    assert np.allclose(loop_transform(cancel).matrix(), np.eye(4), atol=1e-12)

    single = PredictionSet(cam_lidar=rot_z(math.pi / 2), lidar_radar=IDENTITY, radar_cam=IDENTITY)
    assert np.allclose(loop_transform(single).q, rot_z(math.pi / 2).q)

    with pytest.raises(MissingPairError):
        loop_transform(PredictionSet(cam_lidar=IDENTITY))


def test_loop_loss_examples():
    rng = np.random.default_rng(32)
    cloud = PointCloud.bare(rng.uniform(-5, 5, (16, 3)))
    # consistent triplet closes the loop regardless of individual values
    a, b = random_transform(rng), random_transform(rng)
    consistent = PredictionSet(cam_lidar=a, lidar_radar=b, radar_cam=invert(compose(a, b)))
    assert loop_loss(consistent, cloud, W) < 1e-9

    shifted = PredictionSet(
        cam_lidar=RigidTransform.from_translation(0.5, 0, 0),
        lidar_radar=IDENTITY,
        radar_cam=IDENTITY,
    )
    origin = PointCloud.bare([[0.0, 0.0, 0.0]])
    assert abs(loop_loss(shifted, origin, W) - 0.375) < 1e-12


def test_loop_loss_invariant_to_quaternion_sign():
    # construction canonicalizes sign, so equal rotations compare equal
    q = rot_z(2.0)
    again = RigidTransform(q=-q.q, t=q.t)
    assert np.array_equal(q.q, again.q)


def test_losses_nonnegative_random():
    rng = np.random.default_rng(34)
    cloud = PointCloud.bare(rng.uniform(-10, 10, (32, 3)))
    for _ in range(50):
        a, b = random_transform(rng), random_transform(rng)
        assert param_loss(a, b, W) >= 0.0
        assert point_loss(a, b, cloud) >= 0.0


def _fd(fn, x, h):
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        grad[i] = (fn(x + hi) - fn(x - hi)) / (2 * h)
    return grad


def test_finite_difference_smoothness():
    """Central differences at h=1e-5 and h=1e-6 agree within 1% relative error,
    establishing the smoothness the derivative-free optimizer relies on."""
    rng = np.random.default_rng(35)
    cloud = PointCloud.bare(rng.uniform(-5, 5, (32, 3)))
    checked = 0
    while checked < 50:
        gt = random_transform(rng, 0.4)
        offset = rng.uniform(0.05, 0.4, 6)
        x0 = np.concatenate([rng.choice([-1, 1], 6)]) * offset + np.array(
            [gt_i for gt_i in _pose_array(gt)]
        )

        def f_point(x):
            return point_loss(from_euler(x), gt, cloud)

        def f_param(x):
            return param_loss(from_euler(x), gt, W)

        ok = True
        for fn in (f_point, f_param):
            g5 = _fd(fn, x0, 1e-5)
            g6 = _fd(fn, x0, 1e-6)
            scale = np.maximum(np.abs(g5), 1e-3)
            if np.max(np.abs(g5 - g6) / scale) > 0.01:
                ok = False
        assert ok
        checked += 1


def _pose_array(t):
    from sensorcal.transform import to_euler

    return to_euler(t)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(loop_weight=1.5)
    with pytest.raises(ValueError):
        LossWeights(beta=0.0)
    with pytest.raises(ValueError):
        LossWeights(rotation_weight=0.0)
    with pytest.raises(ValueError):
        smooth_l1(1.0, beta=-1.0)


def test_paper_default_weights():
    assert W.loop_weight == 0.25
    assert W.point_weight == 0.5
    assert W.rotation_weight == 1.0
    assert W.translation_weight == 2.0


def test_prediction_sets_compare_by_transform_values():
    edge = from_euler([0.1, 0.0, 0.0, 0.5, 0.0, 0.0])
    same = from_euler([0.1, 0.0, 0.0, 0.5, 0.0, 0.0])
    assert PredictionSet(cam_lidar=edge) == PredictionSet(cam_lidar=same)
    assert PredictionSet(cam_lidar=edge) != PredictionSet(cam_lidar=IDENTITY)
    assert PredictionSet(cam_lidar=edge) != PredictionSet(radar_cam=edge)
    assert PredictionSet() == PredictionSet()


_angles = st.floats(-3.2, 3.2)
_offsets = st.floats(-5.0, 5.0)
_poses = st.tuples(_angles, _angles, _angles, _offsets, _offsets, _offsets).map(
    from_euler
)
_edge_sets = st.tuples(*[st.none() | _poses] * 3).map(lambda edges: PredictionSet(*edges))


def assert_same_edges(a, b, atol):
    for name in PAIR_NAMES:
        x, y = a.get(name), b.get(name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.allclose(x.matrix(), y.matrix(), rtol=0.0, atol=atol), name


@given(_edge_sets, _poses, _poses)
def test_moved_is_the_one_edge_formula(edges, lidar, radar):
    moved = edges.moved(lidar, radar)
    # bit for bit the compositions that true_edges and refine_multiframe made
    # before they shared moved()
    explicit = {
        "cam_lidar": lambda e: compose(e, invert(lidar)),
        "lidar_radar": lambda e: compose(compose(lidar, e), invert(radar)),
        "radar_cam": lambda e: compose(radar, e),
    }
    for name, edge in edges.present():
        expected = explicit[name](edge)
        assert moved.get(name).q.tobytes() == expected.q.tobytes()
        assert moved.get(name).t.tobytes() == expected.t.tobytes()
    assert [name for name, _ in moved.present()] == [name for name, _ in edges.present()]
    # compose renormalises q, which can move its last bit
    assert_same_edges(edges.moved(IDENTITY, IDENTITY), edges, atol=1e-14)


@given(_edge_sets, _poses, _poses, _poses, _poses)
def test_moving_twice_is_moving_by_the_composition(edges, l1, r1, l2, r2):
    assert_same_edges(
        edges.moved(l1, r1).moved(l2, r2), edges.moved(compose(l2, l1), compose(r2, r1)), 1e-9
    )


@given(_poses, _poses, _poses, _poses)
def test_moving_keeps_a_closed_loop_closed(cam_lidar, lidar_radar, lidar, radar):
    closed = PredictionSet(
        cam_lidar, lidar_radar, invert(compose(cam_lidar, lidar_radar))
    ).moved(lidar, radar)
    assert np.allclose(loop_transform(closed).matrix(), np.eye(4), rtol=0.0, atol=1e-9)
