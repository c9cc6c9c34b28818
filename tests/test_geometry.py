import math

import numpy as np
import pytest

from oracles import compose, quat_from_axis_angle, quat_from_rpy, quat_matrix, \
    random_quat, rot_axis_angle, stacked_rot_to_rotvec
from tetherplan import geometry as geo


def test_rpy_to_rot_identity_and_half_turn():
    assert np.allclose(geo.rpy_to_rot(0, 0, 0), np.eye(3))
    r = geo.rpy_to_rot(math.pi, 0, 0)
    assert np.allclose(r, np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_rpy_to_rot_matches_quaternion_oracle():
    r = geo.rpy_to_rot(0.3, 0.4, 0.5)
    expected = quat_matrix(quat_from_rpy(0.3, 0.4, 0.5))
    assert np.allclose(r, expected, atol=1e-12)
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


# compose and rot_axis_angle are oracles (tests/oracles.py): the planner's
# stacked grasp table and IK targets must equal them bit for bit.

def test_compose_identity_and_inverse():
    ident = geo.Pose()
    q = geo.Pose.from_rpy([0.1, -0.2, 0.3], [0.4, 0.5, 0.6])
    got = compose(ident, q)
    assert np.allclose(got.r, q.r) and np.allclose(got.t, q.t)
    got = compose(q, ident)
    assert np.allclose(got.r, q.r) and np.allclose(got.t, q.t)
    round_trip = compose(q, geo.Pose(q.r.T, -q.r.T @ q.t))
    assert np.allclose(round_trip.r, np.eye(3), atol=1e-9)
    assert np.allclose(round_trip.t, 0, atol=1e-9)


def test_compose_associative_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        poses = [geo.Pose(quat_matrix(random_quat(rng)), rng.normal(size=3))
                 for _ in range(3)]
        p, q, r = poses
        left = compose(compose(p, q), r)
        right = compose(p, compose(q, r))
        assert np.allclose(left.r, right.r, atol=1e-9)
        assert np.allclose(left.t, right.t, atol=1e-9)


def test_rot_axis_angle_agrees_with_quaternion():
    rng = np.random.default_rng(19)
    for _ in range(100):
        axis = rng.normal(size=3)
        if np.linalg.norm(axis) < 1e-6:
            continue
        angle = rng.uniform(-math.pi, math.pi)
        assert np.allclose(rot_axis_angle(axis, angle),
                           quat_matrix(quat_from_axis_angle(axis, angle)),
                           atol=1e-12)


def test_rot_to_rotvec_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        axis = geo.unit(rng.normal(size=3))
        angle = rng.uniform(1e-6, math.pi - 1e-6)
        w = geo.rot_to_rotvec(rot_axis_angle(axis, angle))
        assert np.linalg.norm(w) == pytest.approx(angle, abs=1e-8)
        assert np.allclose(w / np.linalg.norm(w), axis, atol=1e-6)


def test_rot_to_rotvec_equals_the_stacked_form():
    # Random rotations, angles from 1e-12 rad past the 1e-5 small-angle
    # switch, and angles within 1e-3 rad of pi down to pi itself, each
    # also with a trace pushed just past the clamps; in one batch of
    # stacked leading axes and one rotation at a time.
    rng = np.random.default_rng(31)
    angles = np.concatenate([np.geomspace(1e-12, 1e-3, 40),
                             math.pi - np.geomspace(1e-12, 2e-3, 40), [0.0, math.pi]])
    rots = [quat_matrix(random_quat(rng)) for _ in range(200)]
    rots += [rot_axis_angle(rng.normal(size=3), a) for a in angles]
    rots = np.array(rots)
    rots = np.concatenate([rots, rots * (1.0 + rng.choice([-4e-16, 4e-16], (len(rots), 1, 1)))])
    got = geo.rot_to_rotvec(rots.reshape(2, -1, 3, 3))
    assert np.array_equal(got.reshape(-1, 3), stacked_rot_to_rotvec(rots))
    for r, w in zip(rots, got.reshape(-1, 3)):
        assert np.array_equal(geo.rot_to_rotvec(r), w)


def test_quat_serialization_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(200):
        r = quat_matrix(random_quat(rng))
        assert np.allclose(geo.quat_to_rot(geo.rot_to_quat(r)), r, atol=1e-9)


_HALF_TURN_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                   (math.sqrt(0.5), -math.sqrt(0.5), 0.0)]


@pytest.mark.parametrize("axis", _HALF_TURN_AXES)
def test_rot_to_quat_of_a_half_turn(axis):
    # Trace -1: x, y and z take the branches of r00, r11 and r22; the
    # diagonal of the (1, -1, 0) turn is (0, 0, -1), whose tie of r00 and
    # r11 goes to r11.
    n = np.array(axis)
    r = 2.0 * np.outer(n, n) - np.eye(3)
    q = geo.rot_to_quat(r)
    assert q[0] == 0.0
    np.testing.assert_allclose(np.abs(q[1:]), np.abs(n), rtol=0, atol=1e-15)
    np.testing.assert_allclose(quat_matrix(q), r, rtol=0, atol=1e-15)


def test_rot_to_quat_is_one_kernel_over_leading_axes():
    # Random rotations (trace mostly positive), then turns of 2pi/3 to pi
    # either way about x, y, z and the (1, -1, 0) axis: trace at most 0,
    # each diagonal branch, and w < 0 before the flip on the negative
    # turns.  A batch equals its rows one by one bit for bit; each row
    # has w >= 0, unit norm, and the oracle matrix of its quaternion
    # gives back the rotation.
    rng = np.random.default_rng(37)
    rots = [quat_matrix(random_quat(rng)) for _ in range(40)]
    rots += [quat_matrix(quat_from_axis_angle(axis, sign * angle))
             for axis in _HALF_TURN_AXES for sign in (1.0, -1.0)
             for angle in np.linspace(2.0 * math.pi / 3.0, math.pi, 5)]
    rots = np.array(rots)
    quats = geo.rot_to_quat(rots.reshape(2, -1, 3, 3))
    assert quats.shape == (2, len(rots) // 2, 4)
    quats = quats.reshape(-1, 4)
    for r, q in zip(rots, quats):
        assert np.array_equal(geo.rot_to_quat(r), q)
        assert q[0] >= 0.0
        assert math.sqrt(float(np.sum(q * q))) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(quat_matrix(q), r, rtol=0, atol=1e-15)
    assert geo.rot_to_quat(np.zeros((0, 3, 3))).shape == (0, 4)


def test_quat_to_rot_rejects_zero_quaternion():
    assert np.allclose(geo.quat_to_rot([2.0, 0.0, 0.0, 0.0]), np.eye(3))
    with pytest.raises(geo.ZeroVectorError):
        geo.quat_to_rot([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(geo.ZeroVectorError):
        geo.quat_to_rot([1e-13, 0.0, 0.0, 0.0])


def test_quat_to_rot_is_one_kernel_over_leading_axes():
    # A batch equals its rows one by one, each a scaled quaternion
    # oracle matrix; a zero anywhere in the batch raises.
    rng = np.random.default_rng(30)
    quats = np.stack([random_quat(rng) * rng.uniform(0.5, 2.0)
                      for _ in range(12)]).reshape(3, 4, 4)
    rots = geo.quat_to_rot(quats)
    assert rots.shape == (3, 4, 3, 3)
    for q, r in zip(quats.reshape(-1, 4), rots.reshape(-1, 3, 3)):
        assert np.array_equal(geo.quat_to_rot(q), r)
        assert np.allclose(r, quat_matrix(q / np.linalg.norm(q)), atol=1e-12)
    quats[1, 2] = 0.0
    with pytest.raises(geo.ZeroVectorError):
        geo.quat_to_rot(quats)
