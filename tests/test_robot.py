import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (central_difference_jacobian, fk_matrix_chain, fk_matrix_product,
                     homogeneous, in_limits, lone_attempt_schedule, quat_matrix,
                     random_quat, rot_axis_angle, sequential_ik_batch)
from tetherplan.geometry import Pose, rot_to_rotvec, rot_z
from tetherplan import planner
from tetherplan import robot as rb
from tetherplan.scene import default_scene


@pytest.fixture
def arm():
    return Pose()


def test_fk_zero_config_hand_composed_chain(arm):
    # Chain offsets sum plus the TCP offset, orientation = TCP rotation.
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t, np.zeros(6))
    expected_t = np.array([
        0.0 - 0.24365 - 0.21325,
        0.0 - 0.11235 - 0.0819,
        0.1519 - 0.08535,
    ])
    assert np.allclose(tcp[0], expected_t, atol=1e-12)
    assert np.allclose(rot[0], [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-12)


def test_fk_single_joint_rotation_spins_about_base_axis(arm):
    delta = 0.7
    rot, tcp, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, np.array([[0.0] * 6, [delta, 0, 0, 0, 0, 0]]))
    spin = rot_z(delta)
    assert np.allclose(tcp[1], spin @ tcp[0], atol=1e-12)
    assert np.allclose(rot[1], spin @ rot[0], atol=1e-12)


def test_fk_matches_matrix_product_oracle(arm):
    rng = np.random.default_rng(42)
    base_m = homogeneous(arm.r, arm.t)
    tcp_m = homogeneous(rb._UR3_TCP.r, rb._UR3_TCP.t)
    qs = np.stack([rng.uniform(-math.pi, math.pi, size=6) for _ in range(50)])
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    for q, r, t in zip(qs, rot, tcp):
        expected = fk_matrix_product(base_m, rb._UR3_AXES, rb._UR3_OFFSETS, tcp_m, q)
        assert np.allclose(homogeneous(r, t), expected, atol=1e-9)


def _random_bases(rng, w):
    """(W, 3, 3) random rotations and (W, 3) translations."""
    rot = np.array([quat_matrix(random_quat(rng)) for _ in range(w)]).reshape(w, 3, 3)
    return rot, rng.uniform(-1.0, 1.0, (w, 3))


@pytest.mark.parametrize("per_row", [False, True], ids=["shared_base", "row_bases"])
@pytest.mark.parametrize("w", [0, 1, 2, 7, 500])
def test_fk_chain_batch_matches_matrix_chain_oracle(w, per_row):
    rng = np.random.default_rng(1000 * w + per_row)
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (w, 6))
    if per_row:
        base_r, base_t = _random_bases(rng, w)
    else:
        base_r = rot_axis_angle(np.array([0.3, -0.5, 0.8]), 0.9)
        base_t = np.array([0.2, -0.4, 0.1])
    rot, tcp, origins, axes = rb.fk_chain_batch(base_r, base_t, qs)
    assert (rot.shape, tcp.shape, origins.shape, axes.shape) == (
        (w, 3, 3), (w, 3), (w, 8, 3), (w, 6, 3))
    tcp_m = homogeneous(rb._UR3_TCP.r, rb._UR3_TCP.t)
    for i in range(w):
        base = homogeneous(base_r[i] if per_row else base_r,
                           base_t[i] if per_row else base_t)
        m, pts, ax = fk_matrix_chain(base, rb._UR3_AXES, rb._UR3_OFFSETS, tcp_m, qs[i])
        assert np.allclose(rot[i], m[:3, :3], rtol=0, atol=1e-12)
        assert np.allclose(tcp[i], m[:3, 3], rtol=0, atol=1e-12)
        assert np.allclose(origins[i], pts, rtol=0, atol=1e-12)
        assert np.allclose(axes[i], ax, rtol=0, atol=1e-12)


def test_fk_chain_batch_row_equals_the_row_alone():
    rng = np.random.default_rng(77)
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (500, 6))
    base_r, base_t = _random_bases(rng, 500)
    batch = rb.fk_chain_batch(base_r, base_t, qs)
    for i in range(500):
        alone = rb.fk_chain_batch(base_r[i], base_t[i], qs[i])
        assert all(np.array_equal(b[i], a[0]) for b, a in zip(batch, alone))


def test_dual_arm_bases_serve_each_arm_in_one_call():
    # Rows of both arms, interleaved, in one fk_chain_batch call on the
    # per-row bases, against fk_chain_batch of each arm's rows.
    rng = np.random.default_rng(78)
    (r_left, r_right), (t_left, t_right) = _random_bases(rng, 2)
    robot = rb.DualArm(Pose(r_left, t_left), Pose(r_right, t_right))
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (60, 6))
    right = rng.random(60) < 0.5
    both = rb.fk_chain_batch(*robot.bases(right), qs)
    for arm, rows in ((robot.left, ~right), (robot.right, right)):
        alone = rb.fk_chain_batch(arm.r, arm.t, qs[rows])
        assert all(np.array_equal(b[rows], a) for b, a in zip(both, alone))


# A fixed FK block, built without LAPACK (rot_z), hashed byte for byte.
_FK_DIGEST = """\
import hashlib
import numpy as np
from tetherplan import robot as rb
from tetherplan.geometry import rot_z
rng = np.random.default_rng(2024)
qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (64, 6))
base_r = np.stack([rot_z(a) for a in rng.uniform(-3.0, 3.0, 64)])
base_t = rng.uniform(-1.0, 1.0, (64, 3))
out = rb.fk_chain_batch(base_r, base_t, qs) + rb.fk_chain_batch(base_r[0], base_t[0], qs)
digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
"""


def test_fk_does_not_depend_on_the_blas_kernel():
    # Prescott is an OpenBLAS kernel without FMA.  OPENBLAS_CORETYPE
    # only takes effect in an OpenBLAS built with DYNAMIC_ARCH; elsewhere
    # both sides run the same kernel and the test passes trivially.
    src = str(Path(rb.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    prescott = subprocess.run([sys.executable, "-c", _FK_DIGEST + "print(digest)"],
                              env=env, capture_output=True, text=True, check=True)
    here: dict = {}
    exec(_FK_DIGEST, here)
    assert prescott.stdout.strip() == here["digest"]


def test_fk_matches_published_dh_table(arm):
    # Same robot written in the standard DH convention; independent of
    # the chain representation used by the library.
    dh = [  # (a, alpha, d)
        (0.0, math.pi / 2, 0.1519),
        (-0.24365, 0.0, 0.0),
        (-0.21325, 0.0, 0.0),
        (0.0, math.pi / 2, 0.11235),
        (0.0, -math.pi / 2, 0.08535),
        (0.0, 0.0, 0.0819),
    ]

    def dh_fk(q):
        t = np.eye(4)
        for (a, al, d), th in zip(dh, q):
            ct, st = math.cos(th), math.sin(th)
            ca, sa = math.cos(al), math.sin(al)
            t = t @ np.array([
                [ct, -st * ca, st * sa, a * ct],
                [st, ct * ca, -ct * sa, a * st],
                [0.0, sa, ca, d],
                [0.0, 0.0, 0.0, 1.0],
            ])
        return t

    rng = np.random.default_rng(7)
    qs = np.stack([rng.uniform(-math.pi, math.pi, size=6) for _ in range(50)])
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    for q, r, t in zip(qs, rot, tcp):
        assert np.allclose(homogeneous(r, t), dh_fk(q), atol=1e-9)


def test_fk_deterministic(arm):
    q = np.array([0.3, -1.1, 0.7, 0.2, -0.4, 1.9])
    a = rb.fk_chain_batch(arm.r, arm.t, q)
    b = rb.fk_chain_batch(arm.r, arm.t, q)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _pose_function(arm):
    def f(q):
        return rb.fk_chain_batch(arm.r, arm.t, q)[1][0]
    return f


def _orientation_columns_ok(arm, q):
    _, tcp, origins, axes = rb.fk_chain_batch(arm.r, arm.t, q)
    jac = rb._chain_jacobian(tcp, origins, axes)[0]
    return np.allclose(jac[3:, :], axes[0].T, atol=1e-12)


def test_jacobian_zero_config_finite_difference(arm):
    q = np.zeros(6)
    jac = rb._chain_jacobian(*rb.fk_chain_batch(arm.r, arm.t, q)[1:])[0]
    fd = central_difference_jacobian(_pose_function(arm), q)
    scale = max(1.0, np.abs(fd).max())
    assert np.max(np.abs(jac[:3] - fd)) / scale < 1e-4


def test_jacobian_angular_rows_are_world_axes(arm):
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert _orientation_columns_ok(arm, rng.uniform(-math.pi, math.pi, 6))


def test_jacobian_random_configs_vs_finite_difference(arm):
    rng = np.random.default_rng(17)
    qs = np.stack([rng.uniform(-math.pi, math.pi, size=6) for _ in range(100)])
    rot, tcp, origins, axes = rb.fk_chain_batch(arm.r, arm.t, qs)
    worst = 0.0
    for q, jac, base in zip(qs, rb._chain_jacobian(tcp, origins, axes), rot):
        fd_lin = central_difference_jacobian(_pose_function(arm), q)

        def rotvec_about(qq, base=base):
            return rot_to_rotvec(rb.fk_chain_batch(arm.r, arm.t, qq)[0][0] @ base.T)

        fd_ang = central_difference_jacobian(rotvec_about, q)
        fd = np.vstack([fd_lin, fd_ang])
        scale = max(1.0, np.abs(fd).max())
        worst = max(worst, float(np.max(np.abs(jac - fd)) / scale))
    assert worst < 1e-4


def test_ik_fixed_point_returns_seed(arm):
    q0 = np.array([0.4, -1.2, 1.0, -0.5, 0.8, 0.1])
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t, q0)
    got, ok = rb.ik_batch((arm.r, arm.t), rot, tcp, q0)
    assert ok[0]
    assert np.allclose(got[0], q0, atol=1e-12)


def test_ik_round_trip_random_targets(arm):
    rng = np.random.default_rng(2024)
    opts = rb.IKOptions(seed=9)
    hits = 0
    trials = 40
    for _ in range(trials):
        q0 = rng.uniform(-math.pi, math.pi, size=6)
        target_r, target_t, _, _ = rb.fk_chain_batch(arm.r, arm.t, q0)
        seed = rng.uniform(-math.pi, math.pi, size=6)
        q, ok = rb.ik_batch((arm.r, arm.t), target_r, target_t, seed, opts)
        if not ok[0]:
            continue
        got_r, got_t, _, _ = rb.fk_chain_batch(arm.r, arm.t, q)
        assert np.linalg.norm(got_t[0] - target_t[0]) < 1e-4
        assert np.linalg.norm(rot_to_rotvec(target_r[0] @ got_r[0].T)) < 1e-3
        assert in_limits(q[0])
        hits += 1
    assert hits >= int(0.95 * trials)


def test_ik_unreachable_target_returns_none(arm):
    opts = rb.IKOptions(restarts=2, max_iters=50)
    q, ok = rb.ik_batch((arm.r, arm.t), np.eye(3), np.array([10.0, 0.0, 0.0]),
                        np.zeros(6), opts)
    assert not ok[0] and not q.any()


def test_dual_arm_requires_distinct_bases(arm):
    with pytest.raises(ValueError):
        rb.DualArm(left=arm, right=arm)
    other = Pose(np.eye(3), np.array([0.0, -0.4, 0.0]))
    rb.DualArm(left=arm, right=other)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("part", ["r", "t"])
def test_dual_arm_rejects_a_non_finite_base(side, part):
    bases = {"left": Pose(np.eye(3), [0.0, 0.25, 0.0]),
             "right": Pose(np.eye(3), [0.0, -0.25, 0.0])}
    bad = getattr(bases[side], part).copy()
    bad.flat[0] = math.nan
    bases[side] = replace(bases[side], **{part: bad})
    with pytest.raises(ValueError, match="arm base poses must be finite"):
        rb.DualArm(**bases)


def test_fk_chain_batch_returns_unit_joint_axes(arm):
    rng = np.random.default_rng(40)
    qs = rng.uniform(-2.0, 2.0, (20, 6))
    _, _, _, axes = rb.fk_chain_batch(arm.r, arm.t, qs)
    assert axes.shape == (20, 6, 3)
    assert np.allclose(np.linalg.norm(axes, axis=2), 1.0)


def test_fk_at_a_base_is_the_base_composed_with_fk_at_the_origin(arm):
    # The chain is shared by every arm: an arm's base enters FK only as
    # a rigid transform applied after the chain.
    rng = np.random.default_rng(39)
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (50, 6))
    rot0, tcp0, origins0, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    for _ in range(10):
        moved = _random_base_ur3(rng)
        r, t = moved.r, moved.t
        rot, tcp, origins, _ = rb.fk_chain_batch(moved.r, moved.t, qs)
        assert np.allclose(rot, r @ rot0, rtol=0, atol=1e-12)
        assert np.allclose(tcp, tcp0 @ r.T + t, rtol=0, atol=1e-12)
        assert np.allclose(origins, origins0 @ r.T + t, rtol=0, atol=1e-12)


def test_rotvec_batch_matches_scalar():
    from tetherplan.geometry import rot_to_rotvec, rpy_to_rot
    rng = np.random.default_rng(42)
    rots = [rpy_to_rot(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(60)]
    # Identity, small angles and every band near a half turn.
    rots.append(np.eye(3))
    for angle in (1e-7, 2e-6, math.pi - 5e-4, math.pi - 1e-7, math.pi):
        rots.append(rot_axis_angle(rng.normal(size=3), angle))
    rots.append(rot_axis_angle(np.array([1.0, 1.0, 0.0]) / math.sqrt(2), math.pi))
    rots = np.stack(rots)
    batch = rot_to_rotvec(rots)
    assert batch.shape == (rots.shape[0], 3)
    assert np.array_equal(rot_to_rotvec(rots[:, None]), batch[:, None])
    for i in range(rots.shape[0]):
        v = rot_to_rotvec(rots[i])
        assert v.shape == (3,)
        assert np.array_equal(batch[i], v)
        # Rebuilding the rotation from the vector checks the log map
        # without its half-turn sign ambiguity.
        angle = np.linalg.norm(v)
        if angle > 0.0:
            assert np.allclose(rot_axis_angle(v, angle), rots[i], atol=1e-6)
        else:
            assert np.allclose(rots[i], np.eye(3))


def test_ik_batch_solves_reachable_targets(arm):
    rng = np.random.default_rng(43)
    qs = rng.uniform(-1.2, 1.2, (30, 6))
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    opts = rb.IKOptions(seed=5)
    sol, ok = rb.ik_batch((arm.r, arm.t), rots, ts, np.zeros(6), opts)
    assert ok.sum() >= 28
    sol_r, sol_t, _, _ = rb.fk_chain_batch(arm.r, arm.t, sol)
    for i in np.nonzero(ok)[0]:
        assert np.linalg.norm(sol_t[i] - ts[i]) < opts.pos_tol
        assert np.linalg.norm(rot_to_rotvec(rots[i] @ sol_r[i].T)) < opts.ori_tol
        assert in_limits(sol[i])


def test_ik_batch_is_deterministic(arm):
    rng = np.random.default_rng(44)
    qs = rng.uniform(-1.0, 1.0, (10, 6))
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    s1, ok1 = rb.ik_batch((arm.r, arm.t), rots, ts, np.zeros(6), rb.IKOptions(seed=9))
    s2, ok2 = rb.ik_batch((arm.r, arm.t), rots, ts, np.zeros(6), rb.IKOptions(seed=9))
    assert np.array_equal(ok1, ok2)
    assert np.array_equal(s1, s2)


def test_ik_batch_flags_unreachable(arm):
    rots = np.stack([np.eye(3), np.eye(3)])
    ts = np.array([[10.0, 0.0, 0.0], [0.3, 0.1, 0.4]])
    sol, ok = rb.ik_batch((arm.r, arm.t), rots, ts, np.zeros(6),
                          rb.IKOptions(restarts=2, max_iters=60, seed=1))
    assert not ok[0]


def test_ik_batch_per_target_seed_rows(arm):
    rng = np.random.default_rng(45)
    qs = rng.uniform(-1.0, 1.0, (6, 6))
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    sol, ok = rb.ik_batch((arm.r, arm.t), rots, ts, qs, rb.IKOptions(seed=2))
    assert ok.all()
    # Seeding each row with its own exact solution must return it unchanged.
    assert np.allclose(sol, qs)


def _mixed_targets(arm):
    """14 targets: rows 0-10 reachable, rows 11-13 far out of reach."""
    rng = np.random.default_rng(46)
    qs = rng.uniform(-1.5, 1.5, (14, 6))
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    ts[11:] += [2.0, 0.0, 0.0]
    seeds = rng.uniform(-1.0, 1.0, (14, 6))
    return rots, ts, seeds


@pytest.mark.parametrize("split_seed", range(4))
def test_grouped_ik_batch_equals_per_group_calls(arm, split_seed):
    rots, ts, seeds = _mixed_targets(arm)
    rng = np.random.default_rng(split_seed)
    # A group of 1, a random split of rows 1-10, and an unreachable group.
    cuts = np.sort(rng.choice(np.arange(2, 11), size=rng.integers(1, 5),
                              replace=False))
    sizes = [1] + np.diff([1, *cuts, 11]).tolist() + [3]
    opts = rb.IKOptions(restarts=3, max_iters=50, seed=7)
    q, ok = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, sizes)
    lo = 0
    for n in sizes:
        qg, okg = rb.ik_batch((arm.r, arm.t), rots[lo:lo + n], ts[lo:lo + n],
                              seeds[lo:lo + n], opts)
        assert np.array_equal(q[lo:lo + n], qg)
        assert np.array_equal(ok[lo:lo + n], okg)
        lo += n
    assert ok[:11].any()
    assert not ok[11:].any()


def test_ik_batch_default_is_one_group(arm):
    rots, ts, seeds = _mixed_targets(arm)
    opts = rb.IKOptions(restarts=2, max_iters=40, seed=3)
    q1, ok1 = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts)
    q2, ok2 = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [14])
    assert np.array_equal(q1, q2)
    assert np.array_equal(ok1, ok2)
    with pytest.raises(ValueError):
        rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [10, 3])


def test_ik_batch_unsolved_rows_are_zero(arm):
    rots, ts, seeds = _mixed_targets(arm)
    q, ok = rb.ik_batch((arm.r, arm.t), rots, ts, seeds,
                        rb.IKOptions(restarts=2, max_iters=30, seed=1))
    assert not ok.all()
    assert np.all(q[~ok] == 0.0)


def test_filtered_chain_jacobian_equals_jacobian_batch(arm):
    rng = np.random.default_rng(47)
    qs = rng.uniform(-2.0, 2.0, (25, 6))
    keep = rng.random(25) < 0.6
    _, tcp_t, origins, axes = rb.fk_chain_batch(arm.r, arm.t, qs)
    jac = rb._chain_jacobian(tcp_t[keep], origins[keep], axes[keep])
    _, tcp_t, origins, axes = rb.fk_chain_batch(arm.r, arm.t, qs[keep])
    assert np.array_equal(jac, rb._chain_jacobian(tcp_t, origins, axes))


# UR3 wrist reach from the published link lengths: the three link
# lengths normal to the shoulder-lift axis, and the 0.11235 m offset
# along it.
_UR3_WRIST_REACH = math.hypot(0.24365 + 0.21325 + 0.08535, 0.11235)


def _random_base_ur3(rng):
    axis = rng.normal(size=3)
    rot = rot_axis_angle(axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi))
    return Pose(rot, rng.uniform(-1.0, 1.0, 3))


def _stretched_configs(rng, n):
    """In-limit configs with the elbow straight and the wrist offset in
    line with the forearm (joints 3 and 4 near 0 and -pi/2)."""
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (n, 6))
    qs[:, 2:4] = [0.0, -math.pi / 2] + rng.uniform(-0.03, 0.03, (n, 2))
    return qs


def _shoulder_and_wrist(arm, qs):
    """FK joint-2 and joint-6 origins (W, 3) of each configuration."""
    _, _, origins, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    return origins[:, 2], origins[:, 6]


def _wrist_distance(arm, qs):
    shoulder, wrist = _shoulder_and_wrist(arm, qs)
    return np.linalg.norm(wrist - shoulder, axis=1)


def _elbow_configs(rng, n):
    """In-limit configs of five kinds, n each: uniform; stretched (q3 near
    0) and folded (q3 near pi) elbows; q5 near 0, where joint 6 lines up
    with joints 2-4; and the wrist on the shoulder cylinder, at |d4| from
    the joint-1 axis."""
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (5, n, 6))
    noise = rng.uniform(-0.03, 0.03, (5, n))
    noise[:, : n // 4] = 0.0
    qs[1, :, 2] = noise[1]
    qs[2, :, 2] = rng.choice([-math.pi, math.pi], n) + noise[2]
    qs[3, :, 4] = noise[3]
    qs[4, :, 1:4] = [-math.pi / 2, 0.0, -math.pi / 2]
    qs[4, :, 1:4] += noise[4, :, None]
    return qs.reshape(-1, 6)


@pytest.mark.parametrize("arm_seed", range(4))
def test_reach_prune_never_flags_a_reachable_target(arm_seed):
    rng = np.random.default_rng(60 + arm_seed)
    arm = _random_base_ur3(rng)
    opts = rb.IKOptions()
    stretched = _stretched_configs(rng, 200)
    qs = np.vstack([_elbow_configs(rng, 200), stretched])
    assert np.all(_wrist_distance(arm, stretched) > _UR3_WRIST_REACH - 1e-3)
    assert np.all(_wrist_distance(arm, qs) <= _UR3_WRIST_REACH + 1e-12)
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    assert not rb._beyond_reach(arm.r, arm.t, rots, ts, opts).any()
    # Targets moved and turned by just under the acceptance tolerances:
    # some leave the bare bounds, none may be flagged.
    steps = rng.normal(size=ts.shape)
    steps *= 0.99 * opts.pos_tol / np.linalg.norm(steps, axis=1, keepdims=True)
    turns = np.stack([rot_axis_angle(a / np.linalg.norm(a), 0.99 * opts.ori_tol)
                      for a in rng.normal(size=ts.shape)])
    moved_r, moved_t = turns @ rots, ts + steps
    exact = rb.IKOptions(pos_tol=0.0, ori_tol=0.0)
    assert rb._beyond_reach(arm.r, arm.t, moved_r, moved_t, exact).any()
    assert not rb._beyond_reach(arm.r, arm.t, moved_r, moved_t, opts).any()


def test_reach_prune_bound_is_tight():
    rng = np.random.default_rng(64)
    arm = _random_base_ur3(rng)
    opts = rb.IKOptions()
    slack = opts.pos_tol + opts.ori_tol * np.linalg.norm(rb._UR3_TCP.t)
    qs = _stretched_configs(rng, 50)
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    shoulder, wrist = _shoulder_and_wrist(arm, qs)
    dist = np.linalg.norm(wrist - shoulder, axis=1, keepdims=True)
    outward = (wrist - shoulder) / dist
    # Translating a target moves its wrist point by the same vector.
    for margin, flagged in ((-1e-6, False), (1e-6, True)):
        push = (_UR3_WRIST_REACH + slack + margin - dist) * outward
        assert np.all(rb._beyond_reach(arm.r, arm.t, rots, ts + push, opts) == flagged)


def test_pruned_target_costs_no_fk_rows(arm, monkeypatch):
    rng = np.random.default_rng(48)
    q0 = rng.uniform(-1.5, 1.5, 6)
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t, q0)
    rows = []
    chain = rb.fk_chain_batch

    def counted(base_r, base_t, qs):
        rows.append(np.asarray(qs).reshape(-1, 6).shape[0])
        return chain(base_r, base_t, qs)

    monkeypatch.setattr(rb, "fk_chain_batch", counted)
    q1, ok1 = rb.ik_batch((arm.r, arm.t), rot, tcp, q0 + 0.1)
    alone = sum(rows)
    rows.clear()
    q2, ok2 = rb.ik_batch((arm.r, arm.t), np.concatenate([rot, rot]),
                          np.concatenate([tcp, tcp + [2.0, 0.0, 0.0]]),
                          q0 + 0.1, groups=[1, 1])
    assert ok1[0] and alone > 0
    assert sum(rows) == alone
    assert np.array_equal(q2[:1], q1)
    assert ok2.tolist() == [True, False]


def test_ur3_chain_has_the_ur_layout():
    # The facts _beyond_reach's two existence tests rest on, exactly.
    axes, offsets = rb._UR3_AXES, rb._UR3_OFFSETS
    u = axes[1]
    assert np.array_equal(np.linalg.norm(axes, axis=1), np.ones(6))
    for a, b in ((axes[2], u), (axes[3], u), (offsets[1], axes[0]),
                 (offsets[4], u), (offsets[5], axes[4])):
        assert not np.cross(a, b).any()
    for a, b in ((axes[0], u), (axes[4], u), (offsets[2], u),
                 (offsets[3], u), (axes[5], axes[4])):
        assert a @ b == 0.0
    # The facts fk_chain_batch's column plan rests on: every axis is a
    # signed coordinate unit vector, every offset has at most one nonzero
    # entry, and the TCP rotation is a signed permutation.
    assert np.array_equal(np.abs(axes).sum(axis=1), np.ones(6))
    assert np.all(np.count_nonzero(axes, axis=1) == 1)
    assert np.all(np.count_nonzero(offsets, axis=1) <= 1)
    assert np.count_nonzero(rb._UR3_TCP.t) <= 1
    tcp_r = rb._UR3_TCP.r
    assert set(np.unique(tcp_r)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.abs(tcp_r).sum(axis=0), np.ones(3))
    assert np.array_equal(np.abs(tcp_r).sum(axis=1), np.ones(3))


def _ik_call(case):
    """A random grouped ik_batch call on a random-base UR3.

    Rows are reachable (FK of a random config, some seeded at or near it),
    near-reachable (a stretched config's target pushed outward by up to
    1 mm) or unreachable (a random rotation at a random point within
    0.6 m of the base, where the elbow test rejects most, or a point
    2 m out).  Group sizes run over 0-4, restarts over 1-8 and
    max_iters over 0-80; half the calls seed every row on its own.
    Case 16 has unequal groups and restarts 0: an empty restart table.
    """
    rng = np.random.default_rng(500 + case)
    arm = _random_base_ur3(rng)
    sizes = rng.integers(0, 5, size=rng.integers(1, 6)).tolist()
    if case in (0, 16):
        sizes = [0, 1, 4, 0, 3]
    b = sum(sizes)
    qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (b, 6))
    near = rng.random(b) < 0.25
    qs[near] = _stretched_configs(rng, int(near.sum()))
    rots, ts, origins, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    outward = origins[:, 6] - origins[:, 2]
    outward /= np.linalg.norm(outward, axis=1, keepdims=True)
    ts[near] += rng.uniform(0.0, 1e-3, (int(near.sum()), 1)) * outward[near]
    far = ~near & (rng.random(b) < 0.35)
    rots[far] = np.array([rot_axis_angle(a / np.linalg.norm(a),
                                         rng.uniform(-math.pi, math.pi))
                          for a in rng.normal(size=(int(far.sum()), 3))]).reshape(-1, 3, 3)
    ts[far] = arm.t + rng.uniform(-0.6, 0.6, (int(far.sum()), 3))
    ts[far & (rng.random(b) < 0.3)] += [2.0, 0.0, 0.0]
    seeds = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (b, 6))
    exact = rng.random(b) < 0.3
    seeds[exact] = qs[exact] + rng.choice([0.0, 0.05], (int(exact.sum()), 1)) * rng.normal(
        size=(int(exact.sum()), 6))
    if case % 2:
        seeds = seeds[0] if b else np.zeros(6)
    opts = rb.IKOptions(max_iters=[0, 1, 5, 12, 30, 50, 80, 80][case % 8],
                        restarts=1 + case % 8, seed=int(rng.integers(1000)))
    if case == 16:
        opts = replace(opts, max_iters=50, restarts=0)
    return arm, rots, ts, seeds, opts, sizes


@pytest.mark.parametrize("case", range(17))
def test_ik_batch_equals_sequential_restarts(case):
    arm, rots, ts, seeds, opts, sizes = _ik_call(case)
    q, ok = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, sizes)
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rots, ts, seeds, opts, sizes)
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)


def test_ik_batch_equals_sequential_restarts_on_late_solves(arm):
    # Random far seeds and a short iteration budget: most targets are
    # solved by a restart, often by more than one of them.
    rng = np.random.default_rng(50)
    rots, ts, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, rng.uniform(-math.pi, math.pi, (40, 6)))
    seeds = rng.uniform(-math.pi, math.pi, (40, 6))
    opts = rb.IKOptions(max_iters=25, restarts=8, seed=11)
    q, ok = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [10, 30])
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [10, 30])
    assert ok_ref.sum() >= 10
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)


def _fk_calls(monkeypatch, call):
    """(result of call(), the row count of each fk_chain_batch call it made)."""
    rows = []
    chain = rb.fk_chain_batch

    def counted(base_r, base_t, qs):
        rows.append(len(qs))
        return chain(base_r, base_t, qs)

    monkeypatch.setattr(rb, "fk_chain_batch", counted)
    result = call()
    monkeypatch.undo()
    return result, rows


def test_ik_rows_that_revisit_a_configuration_stop_early(arm, monkeypatch):
    # Zero tolerances: no row converges, and the rows that reach their
    # target settle on fixed points that no step leaves.  The oracle runs
    # every row to max_iters; the batch stops a row at its first repeat.
    rng = np.random.default_rng(51)
    qs = rng.uniform(-math.pi, math.pi, (20, 6))
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
    seeds = qs + 0.05 * rng.normal(size=qs.shape)
    opts = rb.IKOptions(pos_tol=0.0, ori_tol=0.0, restarts=1)
    (q, ok), rows = _fk_calls(monkeypatch,
                              lambda: rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts))
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rots, ts, seeds, opts)
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)
    assert sum(rows) < (opts.max_iters + 1) * len(qs)


def test_ik_batch_fk_calls_end_max_iters_after_the_join(arm, monkeypatch):
    # With max_iters 5 the restarts join right after the seeds' last
    # iteration; with 60 they join at _IK_RESTART_AFTER, the seeds still
    # running.  Either way every row stops after max_iters steps of its own.
    rng = np.random.default_rng(49)
    rots, ts, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, rng.uniform(-math.pi, math.pi, (12, 6)))
    for max_iters in (5, 60):
        opts = rb.IKOptions(max_iters=max_iters, restarts=8, seed=4)
        join = min(rb._IK_RESTART_AFTER, max_iters + 1)
        (_, ok), rows = _fk_calls(
            monkeypatch, lambda: rb.ik_batch((arm.r, arm.t), rots, ts, np.zeros(6), opts))
        # A target left unsolved has run all 8 attempts.
        assert not ok.all()
        assert join < len(rows) <= join + max_iters + 1


@pytest.mark.parametrize("opts", [
    rb.IKOptions(max_iters=200, restarts=8, seed=11),
    rb.IKOptions(max_iters=20, restarts=8, seed=11),
    rb.IKOptions(max_iters=0, restarts=8, seed=11),
    rb.IKOptions(pos_tol=0.0, ori_tol=0.0, max_iters=100, restarts=3, seed=2),
], ids=["both_classes_refresh_at_63", "join_after_the_seeds", "no_steps",
        "no_row_converges"])
def test_ik_batch_schedule_equals_lone_attempts(arm, monkeypatch, opts):
    # The loop stops and refreshes each attempt class by the iteration
    # number; each fk_chain_batch call must hold the rows that the
    # attempts, run alone and laid out on the loop's iterations, have
    # active there.  With 200 iterations seeds are still active at
    # iteration 63, where they take step 64 and the restarts step 32;
    # with 20 the restarts join at 21, right after the seeds' last
    # iteration; with 0 seeds and restarts are measured once each; with
    # zero tolerances no row converges, and every row ends by a cycle or
    # by max_iters.
    rng = np.random.default_rng(52)
    rots, ts, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, rng.uniform(-math.pi, math.pi, (40, 6)))
    seeds = rng.uniform(-math.pi, math.pi, (40, 6))
    (q, ok), rows = _fk_calls(
        monkeypatch, lambda: rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [10, 30]))
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rots, ts, seeds, opts, [10, 30])
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)
    active = lone_attempt_schedule((arm.r, arm.t), rots, ts, seeds, opts, [10, 30])
    per_iteration = active.sum(axis=0)
    assert rows == per_iteration[per_iteration > 0].tolist()
    join = min(rb._IK_RESTART_AFTER, opts.max_iters + 1)
    assert not active[0, opts.max_iters + 1:].any() and not active[1, :join].any()
    assert active[1, join] > 0
    if opts.max_iters > 63:
        assert active[:, 63].all()


def _single_attempt(arm, rot, t, start, opts, monkeypatch):
    """(solved, q, fk_chain_batch calls) of one attempt from start, run as
    ik_batch without restarts; a row that converges at its step s makes
    s + 1 calls, one per iteration."""
    (q, ok), rows = _fk_calls(monkeypatch, lambda: rb.ik_batch(
        (arm.r, arm.t), rot, t, start, replace(opts, restarts=1)))
    return bool(ok[0]), q[0], len(rows)


def _restart_starts(opts):
    """The restart starts of a one-target call, attempt 1 first."""
    rng = np.random.default_rng(opts.seed)
    return [rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (1, 6))[0]
            for _ in range(opts.restarts - 1)]


def _one_target(arm, case):
    """A reachable target (FK of a random configuration) and a random seed."""
    rng = np.random.default_rng(case)
    rot, t, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, rng.uniform(-math.pi, math.pi, (1, 6)))
    return rot, t, rng.uniform(-math.pi, math.pi, 6)


def test_seed_converging_after_an_earlier_restart_still_wins(arm, monkeypatch):
    # Across the join: the seed converges after 99 steps, while restarts
    # that joined at _IK_RESTART_AFTER converge sooner.  The seed is
    # attempt 0, so its configuration is the result.
    opts = rb.IKOptions(seed=0)
    join = rb._IK_RESTART_AFTER
    rot, t, seed = _one_target(arm, 45)
    seed_ok, seed_q, seed_its = _single_attempt(arm, rot, t, seed, opts, monkeypatch)
    assert seed_ok and seed_its > join
    attempts = [_single_attempt(arm, rot, t, start, opts, monkeypatch)
                for start in _restart_starts(opts)]
    # Restarts that converge before the seed, counting from iteration 0.
    assert sum(ok and join + its < seed_its for ok, _, its in attempts) >= 2
    q, ok = rb.ik_batch((arm.r, arm.t), rot, t, seed, opts)
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rot, t, seed, opts)
    assert ok[0] and np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)
    assert np.array_equal(q[0], seed_q)


def test_restart_solves_a_target_whose_seed_cycles_before_the_join(arm, monkeypatch):
    # Across the join: the seed stops unsolved after 10 steps, a cycle
    # (fewer than max_iters), so no row is active until the restarts
    # join.  Attempts 1 and 6 both converge at their 14th step; attempt
    # 1 is the result.
    opts = rb.IKOptions(seed=0)
    rot, t, seed = _one_target(arm, 466)
    seed_ok, _, seed_its = _single_attempt(arm, rot, t, seed, opts, monkeypatch)
    assert not seed_ok and seed_its < rb._IK_RESTART_AFTER
    attempts = [_single_attempt(arm, rot, t, start, opts, monkeypatch)
                for start in _restart_starts(opts)]
    assert attempts[0][0] and attempts[5][0] and attempts[0][2] == attempts[5][2]
    q, ok = rb.ik_batch((arm.r, arm.t), rot, t, seed, opts)
    q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rot, t, seed, opts)
    assert ok[0] and np.array_equal(ok, ok_ref)
    assert np.array_equal(q, q_ref)
    assert np.array_equal(q[0], attempts[0][1])


def _arm_share(rng, arm, n_groups):
    """Targets, seeds and group sizes of one arm's share of a call:
    FK of random configs, a fifth pushed 2 m out of reach, seeded far
    from their solutions so that restarts solve many of them."""
    sizes = rng.integers(1, 5, size=n_groups).tolist()
    b = sum(sizes)
    rots, ts, _, _ = rb.fk_chain_batch(
        arm.r, arm.t, rng.uniform(-math.pi, math.pi, (b, 6)))
    ts[rng.random(b) < 0.2] += [2.0, 0.0, 0.0]
    seeds = rng.uniform(-math.pi, math.pi, (b, 6))
    return rots, ts, seeds, sizes


@pytest.mark.parametrize("case", range(6))
def test_two_arm_ik_batch_equals_one_call_per_arm(case):
    # Two UR3s at random bases in one call, their groups interleaved;
    # odd cases give each arm a single group (the ungrouped call).
    rng = np.random.default_rng(700 + case)
    arms = [_random_base_ur3(rng), _random_base_ur3(rng)]
    n_groups = 1 if case % 2 else 3
    shares = [_arm_share(rng, arm, n_groups) for arm in arms]
    opts = rb.IKOptions(max_iters=25, restarts=1 + case % 4 * 2,
                        seed=int(rng.integers(1000)))
    # (arm, that arm's rows) of each group of the call, in call order.
    bounds = [np.cumsum([0] + share[3]) for share in shares]
    parts = [(a, np.arange(bounds[a][g], bounds[a][g + 1]))
             for g in range(n_groups) for a in (0, 1)]

    def stacked(k):
        return np.concatenate([shares[a][k][rows] for a, rows in parts])

    owner = np.concatenate([[a] * len(rows) for a, rows in parts])
    q, ok = rb.ik_batch(rb.DualArm(*arms).bases(owner == 1), stacked(0), stacked(1),
                        stacked(2), opts, [len(rows) for _, rows in parts])
    for a, (arm, (rots, ts, seeds, sizes)) in enumerate(zip(arms, shares)):
        mine = owner == a
        groups = None if n_groups == 1 else sizes
        q_own, ok_own = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, groups)
        assert np.array_equal(q[mine], q_own)
        assert np.array_equal(ok[mine], ok_own)
        q_ref, ok_ref = sequential_ik_batch((arm.r, arm.t), rots, ts, seeds, opts, groups)
        assert np.array_equal(q_own, q_ref)
        assert np.array_equal(ok_own, ok_ref)
    assert ok.any() and not ok.all()


@pytest.mark.parametrize("case", range(4))
def test_ik_batch_mixing_bases_in_a_group_equals_one_base_per_call(case):
    # Two UR3s at random bases, the arm of each row drawn at random, so
    # that every group holds rows of both; odd cases make all rows one
    # group (the ungrouped call).  Each row must get what a call that
    # gives every row its arm's base gives it.
    rng = np.random.default_rng(720 + case)
    robot = rb.DualArm(_random_base_ur3(rng), _random_base_ur3(rng))
    right = rng.permutation(24) % 2 == 1
    bases = robot.bases(right)
    rots, ts, _, _ = rb.fk_chain_batch(*bases, rng.uniform(-math.pi, math.pi, (24, 6)))
    ts[rng.random(24) < 0.2] += [2.0, 0.0, 0.0]
    seeds = rng.uniform(-math.pi, math.pi, (24, 6))
    sizes = None if case % 2 else [6, 10, 8]
    assert all(0 < r.sum() < r.size for r in np.split(right, [6, 16]))
    opts = rb.IKOptions(max_iters=25, restarts=1 + case * 2, seed=int(rng.integers(1000)))
    q, ok = rb.ik_batch(bases, rots, ts, seeds, opts, sizes)
    for arm, mine in ((robot.left, ~right), (robot.right, right)):
        q_arm, ok_arm = rb.ik_batch((arm.r, arm.t), rots, ts, seeds, opts, sizes)
        assert np.array_equal(q[mine], q_arm[mine])
        assert np.array_equal(ok[mine], ok_arm[mine])
    q_ref, ok_ref = sequential_ik_batch(bases, rots, ts, seeds, opts, sizes)
    assert np.array_equal(q, q_ref)
    assert np.array_equal(ok, ok_ref)
    assert ok.any() and not ok.all()


def test_ik_batch_takes_one_base_or_one_per_target(arm):
    rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, np.zeros((2, 6)))
    moved = Pose(np.eye(3), [0.3, -0.2, 0.1])
    _, ok = rb.ik_batch((np.stack([arm.r, moved.r]), np.stack([arm.t, moved.t])),
                        rots, ts, np.zeros(6), rb.IKOptions(), [1, 1])
    assert ok[0]
    with pytest.raises(ValueError, match="broadcast"):
        rb.ik_batch((np.stack([arm.r] * 3), np.stack([arm.t] * 3)), rots, ts,
                    np.zeros(6), rb.IKOptions(), [1, 1])


def _wrist_targets(arm, rng, rad, height, z6):
    """Targets whose wrist (the joint-6 origin) is at rad from the joint-1
    axis and height along it from the joint-2 origin, at random
    azimuths, with the joint-6 axis along the base-frame z6 and a random
    turn about it.  Returns (rots, ts, wrist - joint-2 origin)."""
    axes, offsets, tcp = rb._UR3_AXES, rb._UR3_OFFSETS, rb._UR3_TCP
    a0 = axes[0]
    ex = np.cross(a0, [1.0, 0.0, 0.0] if abs(a0[0]) < 0.9 else [0.0, 1.0, 0.0])
    ex /= np.linalg.norm(ex)
    ey = np.cross(a0, ex)
    azimuth = rng.uniform(-math.pi, math.pi, len(rad))
    w = (np.outer(np.cos(azimuth) * rad, ex) + np.outer(np.sin(azimuth) * rad, ey)
         + np.outer(height, a0))
    tilt = np.cross(axes[5], z6)
    to_z6 = rot_axis_angle(tilt / np.linalg.norm(tilt), math.acos(axes[5] @ z6))
    flange = np.stack([arm.r @ rot_axis_angle(z6, g) @ to_z6
                       for g in rng.uniform(-math.pi, math.pi, len(rad))])
    shoulder = arm.t + arm.r @ (offsets[0] + offsets[1])
    wrist = shoulder + w @ arm.r.T
    return flange @ tcp.r, wrist + flange @ tcp.t, wrist - shoulder


def _elbow_targets(arm, rng, n, margin):
    """n targets whose four elbow candidates all miss the outer annulus
    edge by their slack plus margin, with the wrist well inside the
    wrist reach.

    The joint-6 axis points along the joint-1 axis a0, so u x z6 is a
    unit vector and z5 = +-(u x a0) on both shoulder branches.  With
    the wrist at height h over the joint-2 origin and at R from the
    joint-1 axis, both branches then put the joint-4 origin at
    hypot(h, L +- d5) from the joint-2 origin, L = sqrt(R^2 - d4^2).
    """
    offsets = rb._UR3_OFFSETS
    d4, d5 = offsets[4] @ rb._UR3_AXES[1], np.linalg.norm(offsets[5])
    outer = np.linalg.norm(offsets[2]) + np.linalg.norm(offsets[3])
    opts = rb.IKOptions()
    s = opts.pos_tol + opts.ori_tol * np.linalg.norm(rb._UR3_TCP.t)
    lat = d5 + rng.uniform(-0.05, 0.05, n)
    rad = np.hypot(lat, d4)
    du = s / (rad - s) + abs(d4) * s / ((rad - s) * np.sqrt((rad - s) ** 2 - d4 ** 2))
    slack = s + d5 * 2.0 * (du + opts.ori_tol) + abs(d4) * du
    h = rng.choice([-1.0, 1.0], n) * np.sqrt((outer + slack + margin) ** 2 - (lat - d5) ** 2)
    return _wrist_targets(arm, rng, rad, h, rb._UR3_AXES[0])


def test_elbow_prune_bound_is_tight():
    rng = np.random.default_rng(71)
    arm = _random_base_ur3(rng)
    opts = rb.IKOptions()
    for margin, flagged in ((-1e-6, False), (1e-6, True), (1e-3, True)):
        rots, ts, w = _elbow_targets(arm, rng, 50, margin)
        assert np.all(np.linalg.norm(w, axis=1) < _UR3_WRIST_REACH - 0.05)
        assert np.all(rb._beyond_reach(arm.r, arm.t, rots, ts, opts) == flagged)


def test_wrist_inside_the_shoulder_cylinder_is_flagged():
    rng = np.random.default_rng(73)
    arm = _random_base_ur3(rng)
    opts = rb.IKOptions()
    s = opts.pos_tol + opts.ori_tol * np.linalg.norm(rb._UR3_TCP.t)
    d4 = abs(rb._UR3_OFFSETS[4] @ rb._UR3_AXES[1])
    z6 = rng.normal(size=3)
    for margin, flagged in ((-1e-6, True), (1e-6, False)):
        rad = np.full(40, d4 - s + margin)
        rots, ts, _ = _wrist_targets(arm, rng, rad, rng.uniform(-0.4, 0.4, 40),
                                     z6 / np.linalg.norm(z6))
        assert np.all(rb._beyond_reach(arm.r, arm.t, rots, ts, opts) == flagged)


def _exact_branches(arm, rots, ts):
    """closed_form_ik's branches (B, 8, 6) at arm's base and the (B, 8)
    mask of those whose FK meets their target within 1e-9 (m, and per
    rotation entry)."""
    branches = oracles.closed_form_ik(arm, rots, ts)
    b = branches.shape[0]
    rot, tcp, _, _ = rb.fk_chain_batch(arm.r, arm.t,
                                       np.nan_to_num(branches).reshape(-1, 6))
    err = np.maximum(
        np.abs(rot.reshape(b, 8, 3, 3) - rots[:, None]).max(axis=(2, 3)),
        np.abs(tcp.reshape(b, 8, 3) - ts[:, None]).max(axis=2))
    return branches, (err <= 1e-9) & ~np.isnan(branches).any(axis=2)


def test_closed_form_ik_branches_reproduce_fk_targets():
    # Every branch that exists reaches the target, in limits, and one
    # of them is the configuration the target came from.
    assert np.array_equal(oracles.UR_AXES, rb._UR3_AXES)
    rng = np.random.default_rng(80)
    for _ in range(4):
        arm = _random_base_ur3(rng)
        qs = rng.uniform(-rb._UR3_LIMIT, rb._UR3_LIMIT, (250, 6))
        rots, ts, _, _ = rb.fk_chain_batch(arm.r, arm.t, qs)
        branches, exact = _exact_branches(arm, rots, ts)
        assert np.array_equal(exact, ~np.isnan(branches).any(axis=2))
        assert all(in_limits(q) for q in branches[exact])
        turns = (branches - qs[:, None] + math.pi) % (2.0 * math.pi) - math.pi
        assert np.all(np.nanmin(np.abs(turns).max(axis=2), axis=1) < 1e-9)
        assert exact.sum() > 6 * len(qs)


@pytest.fixture(scope="module")
def station_ik():
    """The default sweep's one station IK call: (base rotations and base
    points, one per target, target rotations, target points, q, solved),
    captured from solve_stations."""
    scene = default_scene()
    calls = []

    def captured(base, rots, ts, seeds, opts, groups):
        out = rb.ik_batch(base, rots, ts, seeds, opts, groups)
        calls.append((*base, rots, ts, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "ik_batch", captured)
        planner.solve_stations([scene.problem(pitch=p, roll=r) for p in scene.pitch_rows
                                for r in scene.roll_cols], scene.options,
                               planner.PlanCache())
    (call,) = calls
    return call


def _per_base(test, base_r, base_t, rots, ts):
    """(B,) mask of test(base, rots, ts) on the targets of each distinct
    base pose among the (B, 3, 3), (B, 3) per-target ones."""
    keys, owner = np.unique(np.hstack([base_r.reshape(-1, 9), base_t]), axis=0,
                            return_inverse=True)
    out = np.zeros(len(rots), dtype=bool)
    for k, key in enumerate(keys):
        mine = owner.ravel() == k
        out[mine] = test(Pose(key[:9].reshape(3, 3), key[9:]), rots[mine], ts[mine])
    return out


def _exactly_reachable(arm, rots, ts):
    return _exact_branches(arm, rots, ts)[1].any(axis=1)


def _beyond(base_r, base_t, rots, ts):
    return rb._beyond_reach(base_r, base_t, rots, ts, rb.IKOptions())


def test_reach_prune_flags_no_target_with_an_exact_solution(station_ik):
    # Random targets around the shoulder, inside and beyond reach, and
    # the default sweep's 1,680 station targets.
    rng = np.random.default_rng(81)
    for _ in range(4):
        arm = _random_base_ur3(rng)
        rots = np.array([quat_matrix(random_quat(rng)) for _ in range(500)])
        shoulder = arm.t + arm.r @ rb._UR3_OFFSETS[1]
        ts = shoulder + rng.normal(size=(500, 3)) * rng.uniform(0.0, 0.3, (500, 1))
        exact, beyond = _exactly_reachable(arm, rots, ts), _beyond(arm.r, arm.t, rots, ts)
        assert exact.any() and beyond.any()
        assert not (exact & beyond).any()
    base_r, base_t, rots, ts, _, _ = station_ik
    assert base_r.shape == (1680, 3, 3) and base_t.shape == (1680, 3)
    assert not (_per_base(_exactly_reachable, base_r, base_t, rots, ts)
                & _beyond(base_r, base_t, rots, ts)).any()


def test_reach_prune_flags_per_row_what_it_flags_per_base():
    # Targets of two arms in one call on per-row bases, against one call
    # per arm on its own base.
    rng = np.random.default_rng(82)
    robot = rb.DualArm(_random_base_ur3(rng), _random_base_ur3(rng))
    right = rng.random(2000) < 0.5
    base_r, base_t = robot.bases(right)
    rots = np.array([quat_matrix(random_quat(rng)) for _ in range(2000)])
    ts = base_t + rng.normal(size=(2000, 3)) * rng.uniform(0.0, 0.6, (2000, 1))
    flags = _beyond(base_r, base_t, rots, ts)
    assert flags.any() and not flags.all()
    for arm, mine in ((robot.left, ~right), (robot.right, right)):
        assert np.array_equal(flags[mine], _beyond(arm.r, arm.t, rots[mine], ts[mine]))


def test_every_station_target_ik_solves_has_an_exact_solution(station_ik):
    base_r, base_t, rots, ts, _, solved = station_ik
    assert solved.sum() == 726
    assert np.all(_per_base(_exactly_reachable, base_r, base_t, rots, ts)[solved])


def test_point_jacobian_equals_the_cross_product_form(arm):
    # The linear rows of the one Jacobian kernel, at points of their
    # own, equal np.cross of the joint axes and levers bit for bit.
    rng = np.random.default_rng(53)
    qs = rng.uniform(-2.0, 2.0, (40, 6))
    points = rng.uniform(-0.5, 0.5, (40, 3))
    _, _, origins, axes = rb.fk_chain_batch(arm.r, arm.t, qs)
    want = np.cross(axes, points[:, None, :] - origins[:, 1:7]).transpose(0, 2, 1)
    got = rb.point_jacobian(arm.r, arm.t, qs, points)
    assert got.shape == (40, 3, 6)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
