import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quat_from_rpy, quat_matrix, quat_mul, quat_rotate, random_quat
from tetherplan import geometry as geo


def test_rotate_identity():
    v = np.array([0.0, 0.0, 1.0])
    assert np.allclose(geo.rotate(np.eye(3), v), v)


def test_rotate_half_turn_x():
    r = geo.rot_x(math.pi)
    assert np.allclose(geo.rotate(r, np.array([0.0, 0.0, 1.0])), [0, 0, -1], atol=1e-12)


def test_rotate_matches_quaternion_oracle():
    r = geo.rot_x(math.radians(30)) @ geo.rot_y(math.radians(40))
    q = quat_mul(
        quat_from_rpy(math.radians(30), 0, 0),
        quat_from_rpy(0, math.radians(40), 0),
    )
    v = np.array([0.0, 0.0, 1.0])
    assert np.allclose(geo.rotate(r, v), quat_rotate(q, v), atol=1e-12)


def test_angle_between_basic():
    z = np.array([0.0, 0.0, 1.0])
    assert geo.angle_between(z, z) == pytest.approx(0.0, abs=1e-12)
    assert geo.angle_between(z, np.array([1.0, 0.0, 0.0])) == pytest.approx(math.pi / 2)
    a = math.radians(100)
    tilted = np.array([0.0, math.sin(a), math.cos(a)])
    assert geo.angle_between(z, tilted) == pytest.approx(a, abs=1e-12)


def test_angle_between_rejects_zero_vector():
    with pytest.raises(geo.ZeroVectorError):
        geo.angle_between(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(geo.ZeroVectorError):
        geo.angle_between(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e-13]))


def test_angle_between_clamps_collinear_drift():
    # Nearly identical unit vectors can push the cosine past 1.0.
    a = geo.unit(np.array([0.123, -0.456, 0.789]))
    b = a * (1.0 + 1e-16)
    assert geo.angle_between(a, b) == 0.0


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_angle_between_symmetric_and_scale_invariant(sa, sb, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    th = geo.angle_between(a, b)
    assert geo.angle_between(b, a) == pytest.approx(th, abs=1e-12)
    assert geo.angle_between(sa * a, sb * b) == pytest.approx(th, abs=1e-12)
    assert 0.0 <= th <= math.pi


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


def test_rotate_preserves_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = quat_matrix(random_quat(rng))
        v = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        assert np.linalg.norm(geo.rotate(r, v)) == pytest.approx(
            np.linalg.norm(v), abs=1e-9)


def test_compose_identity_and_inverse():
    ident = geo.Pose.identity()
    q = geo.Pose.from_rpy([0.1, -0.2, 0.3], [0.4, 0.5, 0.6])
    got = geo.compose(ident, q)
    assert np.allclose(got.r, q.r) and np.allclose(got.t, q.t)
    inv_i = geo.inverse(ident)
    assert np.allclose(inv_i.r, np.eye(3)) and np.allclose(inv_i.t, 0)
    round_trip = geo.compose(q, geo.inverse(q))
    assert np.allclose(round_trip.r, np.eye(3), atol=1e-9)
    assert np.allclose(round_trip.t, 0, atol=1e-9)


def test_compose_associative_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        poses = [geo.Pose(quat_matrix(random_quat(rng)), rng.normal(size=3))
                 for _ in range(3)]
        p, q, r = poses
        left = geo.compose(geo.compose(p, q), r)
        right = geo.compose(p, geo.compose(q, r))
        assert np.allclose(left.r, right.r, atol=1e-9)
        assert np.allclose(left.t, right.t, atol=1e-9)


def test_pose_apply_matches_matrix():
    rng = np.random.default_rng(17)
    p = geo.Pose(quat_matrix(random_quat(rng)), rng.normal(size=3))
    x = rng.normal(size=3)
    hom = p.as_matrix() @ np.array([*x, 1.0])
    assert np.allclose(p.apply(x), hom[:3], atol=1e-12)


def test_rot_axis_angle_agrees_with_quaternion():
    rng = np.random.default_rng(19)
    for _ in range(100):
        axis = rng.normal(size=3)
        if np.linalg.norm(axis) < 1e-6:
            continue
        angle = rng.uniform(-math.pi, math.pi)
        from oracles import quat_from_axis_angle
        assert np.allclose(geo.rot_axis_angle(axis, angle),
                           quat_matrix(quat_from_axis_angle(axis, angle)),
                           atol=1e-12)


def test_rot_to_rotvec_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        axis = geo.unit(rng.normal(size=3))
        angle = rng.uniform(1e-6, math.pi - 1e-6)
        w = geo.rot_to_rotvec(geo.rot_axis_angle(axis, angle))
        assert np.linalg.norm(w) == pytest.approx(angle, abs=1e-8)
        assert np.allclose(w / np.linalg.norm(w), axis, atol=1e-6)


def test_quat_serialization_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(200):
        r = quat_matrix(random_quat(rng))
        assert np.allclose(geo.quat_to_rot(geo.rot_to_quat(r)), r, atol=1e-9)


def test_quat_to_rot_rejects_zero_quaternion():
    assert np.allclose(geo.quat_to_rot([2.0, 0.0, 0.0, 0.0]), np.eye(3))
    with pytest.raises(geo.ZeroVectorError):
        geo.quat_to_rot([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(geo.ZeroVectorError):
        geo.quat_to_rot([1e-13, 0.0, 0.0, 0.0])
