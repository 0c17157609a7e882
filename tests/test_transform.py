import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sensorcal.transform import (
    RigidTransform,
    apply,
    compose,
    from_euler,
    invert,
    quat_angular_distance,
    to_euler,
    transform_points,
    translation_distance,
)
from sensorcal.data import PointCloud

SQ2 = math.sqrt(2.0) / 2.0


def rot_z(angle, tx=0.0, ty=0.0, tz=0.0):
    return from_euler([0.0, 0.0, angle, tx, ty, tz])


def random_transform(rng):
    return from_euler([*rng.uniform(-math.pi + 0.01, math.pi - 0.01, 3), *rng.uniform(-5, 5, 3)])


def test_constructor_normalizes_and_canonicalizes():
    t = RigidTransform(q=np.array([-2.0, 0.0, 0.0, 0.0]), t=np.zeros(3))
    assert np.allclose(t.q, [1, 0, 0, 0])
    assert abs(np.linalg.norm(t.q) - 1.0) < 1e-9
    flipped = RigidTransform(q=np.array([-SQ2, 0, 0, -SQ2]), t=np.zeros(3))
    assert flipped.q[0] > 0


def test_compose_pure_translations_add():
    a = RigidTransform.from_translation(1, 0, 0)
    b = RigidTransform.from_translation(0, 2, 0)
    c = compose(a, b)
    assert np.allclose(c.t, [1, 2, 0])
    assert np.allclose(c.q, [1, 0, 0, 0])


def test_compose_identity_law():
    t = rot_z(0.3, 1.0, 2.0, 3.0)
    c = compose(t, RigidTransform.identity())
    assert np.allclose(c.q, t.q) and np.allclose(c.t, t.t)


def test_compose_two_quarter_turns_is_half_turn():
    q90 = rot_z(math.pi / 2)
    assert np.allclose(q90.q, [SQ2, 0, 0, SQ2])
    q180 = compose(q90, q90)
    assert np.allclose(q180.q, [0, 0, 0, 1], atol=1e-12)
    # matrix oracle
    assert np.allclose(q180.matrix(), q90.matrix() @ q90.matrix(), atol=1e-12)


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = random_transform(rng), random_transform(rng)
        assert np.allclose(compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-9)


def test_invert_identity_and_translation():
    assert np.allclose(invert(RigidTransform.identity()).matrix(), np.eye(4))
    inv = invert(RigidTransform.from_translation(1, 2, 3))
    assert np.allclose(inv.t, [-1, -2, -3])


def test_invert_rotated_translation_by_hand():
    t = rot_z(math.pi / 2, tx=1.0)
    inv = invert(t)
    assert np.allclose(inv.q, rot_z(-math.pi / 2).q)
    assert np.allclose(inv.t, [0, 1, 0], atol=1e-12)


def test_invert_roundtrip_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = random_transform(rng)
        round_trip = compose(a, invert(a))
        assert np.allclose(round_trip.q, [1, 0, 0, 0], atol=1e-9)
        assert np.allclose(round_trip.t, 0.0, atol=1e-9)


def test_apply_identity_rotation_translation():
    cloud = PointCloud(xyz=[[1, 0, 0], [1, 1, 1]], channels=[[7.0], [8.0]], schema=("intensity",))
    same = apply(RigidTransform.identity(), cloud)
    assert np.array_equal(same.xyz, cloud.xyz)
    rotated = apply(rot_z(math.pi / 2), cloud)
    assert np.allclose(rotated.xyz[0], [0, 1, 0], atol=1e-12)
    shifted = apply(RigidTransform.from_translation(0, 0, 5), cloud)
    assert np.allclose(shifted.xyz[1], [1, 1, 6])
    # channels pass through untouched
    assert np.array_equal(rotated.channels, cloud.channels)


def test_from_euler_examples():
    assert np.allclose(from_euler(np.zeros(6)).matrix(), np.eye(4))
    yaw90 = from_euler([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
    assert np.allclose(yaw90.q, [SQ2, 0, 0, SQ2])
    roll180 = from_euler([math.pi, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(roll180.q, [0, 1, 0, 0], atol=1e-12)


def test_from_euler_axis_order_is_zyx_matrix():
    roll, pitch, yaw = 0.3, -0.2, 0.9
    def rx(a):
        return np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])
    def ry(a):
        return np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])
    def rz(a):
        return np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    expected = rz(yaw) @ ry(pitch) @ rx(roll)
    actual = from_euler([roll, pitch, yaw, 0.0, 0.0, 0.0]).rotation_matrix()
    assert np.allclose(actual, expected, atol=1e-12)


def test_to_euler_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_transform(rng)
        back = from_euler(to_euler(a))
        assert quat_angular_distance(a.q, back.q) < 1e-9
        assert translation_distance(a.t, back.t) < 1e-12


def test_quat_angular_distance_examples():
    q = rot_z(0.7).q
    assert quat_angular_distance(q, q) == 0.0
    assert quat_angular_distance(q, -q) == 0.0
    assert abs(quat_angular_distance([1, 0, 0, 0], rot_z(math.pi / 2).q) - math.pi / 2) < 1e-12


def test_quat_distance_equals_yaw_magnitude():
    for alpha in np.linspace(-math.pi + 1e-6, math.pi, 25):
        d = quat_angular_distance(rot_z(alpha).q, [1, 0, 0, 0])
        assert abs(d - abs(alpha)) < 1e-9


def test_translation_distance_examples():
    assert translation_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert translation_distance([0, 0, 0], [3, 4, 0]) == 5.0
    assert abs(translation_distance([1, 1, 1], [2, 2, 2]) - math.sqrt(3)) < 1e-12


def test_associativity_random():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.q, right.q, atol=1e-9)
        assert np.allclose(left.t, right.t, atol=1e-9)


def test_apply_compose_consistency():
    rng = np.random.default_rng(15)
    pts = PointCloud.bare(rng.uniform(-10, 10, (50, 3)))
    for _ in range(20):
        a, b = random_transform(rng), random_transform(rng)
        once = apply(compose(a, b), pts)
        twice = apply(a, apply(b, pts))
        assert np.allclose(once.xyz, twice.xyz, atol=1e-9)


def test_from_euler_matrix_action_roundtrip():
    rng = np.random.default_rng(16)
    pts = rng.uniform(-10, 10, (100, 3))
    for _ in range(20):
        t = random_transform(rng)
        via_matrix = pts @ t.matrix()[:3, :3].T + t.matrix()[:3, 3]
        assert np.allclose(transform_points(t, pts), via_matrix, atol=1e-9)


def test_from_matrix_roundtrip_and_shapes():
    rng = np.random.default_rng(17)
    t = random_transform(rng)
    again = RigidTransform.from_matrix(t.matrix())
    assert quat_angular_distance(t.q, again.q) < 1e-12
    with pytest.raises(ValueError):
        RigidTransform.from_matrix(np.eye(3))


def test_invalid_quaternion_rejected():
    with pytest.raises(ValueError):
        RigidTransform(q=np.zeros(4), t=np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(q=np.array([np.nan, 0, 0, 0]), t=np.zeros(3))


# signed zeros, gimbal lock, the yaw seam, and angles past +-pi (negative cosines)
_SPECIAL_ANGLES = [
    0.0, -0.0, 1e-300, -1e-300, math.pi / 2, -math.pi / 2,
    math.pi, -math.pi, 3.5, -3.5, 2 * math.pi, -2 * math.pi,
]
_angles = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from(_SPECIAL_ANGLES)
_translations = st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
_vectors = st.tuples(_angles, _angles, _angles, _translations, _translations, _translations)


def assert_bit_identical(a, b):
    assert a.q.tobytes() == b.q.tobytes()
    assert a.t.tobytes() == b.t.tobytes()
    assert a.rotation_matrix().tobytes() == b.rotation_matrix().tobytes()


@given(_vectors)
def test_from_euler_bit_identical_to_the_constructor_path(v):
    assert_bit_identical(from_euler(v), reference_from_euler(v))


@given(
    pitch=st.sampled_from([math.pi / 2, -math.pi / 2]),
    yaw=st.sampled_from([math.pi, -math.pi]),
    roll=_angles,
)
def test_from_euler_bit_identical_to_the_constructor_path_at_gimbal_lock_and_seam(
    pitch, yaw, roll
):
    for x in ([roll, pitch, yaw, 0.0, 0.0, 0.0], [roll, pitch, 0.0, 1.0, -2.0, 3.0],
              [roll, 0.0, yaw, 0.0, 0.0, 0.0]):
        assert_bit_identical(from_euler(x), reference_from_euler(x))


def test_from_euler_bit_identical_to_the_constructor_path_on_special_angle_grid():
    for angles in itertools.product(_SPECIAL_ANGLES, repeat=3):
        x = np.array([*angles, -0.0, 0.0, 1.0])
        assert_bit_identical(from_euler(x), reference_from_euler(x))


@given(st.integers(0, 5), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_from_euler_rejects_non_finite(i, bad):
    x = np.zeros(6)
    x[i] = bad
    with pytest.raises(ValueError, match="finite"):
        from_euler(x)


# copies of the earlier quaternion product, compose, invert and from_euler,
# which built every result through the RigidTransform constructor
def reference_quat_mul(a, b):
    w1, x1, y1, z1 = a.tolist()
    w2, x2, y2, z2 = b.tolist()
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def reference_compose(a, b):
    return RigidTransform(q=reference_quat_mul(a.q, b.q), t=a.rotation_matrix() @ b.t + a.t)


def reference_invert(a):
    q_inv = np.array([a.q[0], -a.q[1], -a.q[2], -a.q[3]])
    return RigidTransform(q=q_inv, t=-(a.rotation_matrix().T @ a.t))


def reference_from_euler(x):
    roll, pitch, yaw, tx, ty, tz = np.asarray(x, dtype=float)
    half_r, half_p, half_y = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    qx = np.array([math.cos(half_r), math.sin(half_r), 0.0, 0.0])
    qy = np.array([math.cos(half_p), 0.0, math.sin(half_p), 0.0])
    qz = np.array([math.cos(half_y), 0.0, 0.0, math.sin(half_y)])
    q = reference_quat_mul(qz, reference_quat_mul(qy, qx))
    return RigidTransform(q=q, t=np.array([tx, ty, tz], dtype=float))


@given(_vectors, _vectors)
def test_compose_invert_and_from_euler_bit_identical_to_the_constructor_path(u, v):
    a, b = from_euler(u), from_euler(v)
    assert_bit_identical(a, reference_from_euler(u))
    assert_bit_identical(compose(a, b), reference_compose(a, b))
    assert_bit_identical(invert(a), reference_invert(a))
    # the polish composes results of compose and invert again
    assert_bit_identical(compose(invert(a), compose(a, b)), reference_compose(
        reference_invert(a), reference_compose(a, b)))


def test_compose_rejects_a_translation_that_overflows():
    far = RigidTransform.from_translation(1e308, 0.0, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        compose(far, far)


def test_rotation_matrix_copy_is_the_callers():
    rng = np.random.default_rng(18)
    pts = rng.uniform(-10, 10, (20, 3))
    x = np.array([0.3, -0.2, 0.9, 1.0, 2.0, 3.0])
    for a in (from_euler(x), reference_from_euler(x)):
        before_r, before_m = a.rotation_matrix(), a.matrix()
        before_pts = transform_points(a, pts)
        r = a.rotation_matrix()
        r[:] = 0.0
        assert np.array_equal(a.rotation_matrix(), before_r)
        assert np.array_equal(a.matrix(), before_m)
        assert np.array_equal(transform_points(a, pts), before_pts)
        assert not a.q.flags.writeable and not a.t.flags.writeable


def _layout(xyz, layout):
    """The same (N, 3) values C-ordered, F-ordered, or as a strided view."""
    if layout == "F":
        return np.asfortranarray(xyz)
    if layout == "strided":
        wide = np.zeros((2 * len(xyz), 5))
        wide[::2, 1:4] = xyz
        return wide[::2, 1:4]
    return np.ascontiguousarray(xyz)


_points = arrays(
    np.float64,
    st.tuples(st.sampled_from([0, 1, 2, 3]), st.just(3)),
    elements=st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0]),
)


def assert_transform_points_is_row_product(a, xyz):
    out = transform_points(a, xyz)
    ref = xyz @ a.rotation_matrix().T + a.t
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


@given(v=_vectors, xyz=_points, layout=st.sampled_from(["C", "F", "strided"]))
def test_transform_points_bit_identical_to_row_product(v, xyz, layout):
    assert_transform_points_is_row_product(from_euler(v), _layout(xyz, layout))


def test_transform_points_bit_identical_to_row_product_on_large_clouds():
    rng = np.random.default_rng(19)
    for n in (400, 5008, 70000):
        xyz = rng.normal(0.0, 30.0, (n, 3))
        for layout in ("C", "F", "strided"):
            a = from_euler(np.r_[rng.uniform(-3.5, 3.5, 3), rng.uniform(-5, 5, 3)])
            assert_transform_points_is_row_product(a, _layout(xyz, layout))


@given(v=_vectors, xyz=_points, layout=st.sampled_from(["C", "F", "strided"]))
def test_apply_stores_c_ordered_xyz(v, xyz, layout):
    # an (N, 3) @ (3,) product, as in the estimator's frustum crop, may round
    # differently on an F-ordered array, so clouds must stay C-ordered
    a = from_euler(v)
    moved = apply(a, PointCloud.bare(_layout(xyz, layout)))
    assert moved.xyz.flags.c_contiguous
    assert moved.xyz.tobytes() == transform_points(a, xyz).tobytes()


def test_transforms_compare_by_value_and_stay_unhashable():
    x = np.array([0.3, -0.2, 0.9, 1.0, 2.0, 3.0])
    assert RigidTransform.identity() == RigidTransform.identity()
    assert from_euler(x) == reference_from_euler(x)
    assert from_euler(x) != from_euler(x + [0, 0, 0, 0, 0, 1e-12])
    assert from_euler(x) != from_euler(x + [1e-12, 0, 0, 0, 0, 0])
    assert RigidTransform.identity() != "identity"
    with pytest.raises(TypeError):
        hash(RigidTransform.identity())


# Offsets of the pitch from +-pi/2: the lock itself, inside to_euler's
# gimbal branch (|sin(pitch)| >= 1 - 1e-12, so cos(pitch) <= sqrt(2e-12),
# about 1.414e-6), around that threshold, and on to 1e-3.
_LOCK_OFFSETS = st.sampled_from(
    [0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1.414e-6, 1.4142e-6, 1.4143e-6, 1.415e-6, 2e-6, 1e-5, 1e-4]
) | st.floats(0.0, 1e-3)
_pitches = st.builds(
    lambda sign, offset: sign * (math.pi / 2 - offset), st.sampled_from([1.0, -1.0]), _LOCK_OFFSETS
) | st.floats(-math.pi / 2, math.pi / 2)


@given(roll=_angles, pitch=_pitches, yaw=_angles, t=st.tuples(*[_translations] * 3))
def test_se3_round_trips_near_gimbal_lock(roll, pitch, yaw, t):
    # matrices, not quat_angular_distance: its acos cannot resolve below ~3e-8
    a = from_euler([roll, pitch, yaw, *t])
    back = from_euler(to_euler(a))
    assert back.t.tobytes() == a.t.tobytes()
    d_rot = np.max(np.abs(back.rotation_matrix() - a.rotation_matrix()))
    # in the gimbal branch the dropped angle is at most 2 * sqrt(2e-12)
    assert d_rot <= 3e-6
    if abs(pitch) <= math.pi / 2 - 1e-4:
        assert d_rot <= 1e-9
    assert np.max(np.abs(compose(a, invert(a)).matrix() - np.eye(4))) <= 1e-12
