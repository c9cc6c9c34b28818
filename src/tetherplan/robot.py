"""Dual-arm kinematics: forward kinematics, Jacobian, numerical IK.

Every arm is a UR3: its chain is a module constant, and an ArmModel is
only the base pose it stands at.  The chain has six revolute joints,
each an offset and an axis written in the frame left by the joint
before (so they are world values in the zero configuration), closed
by a fixed flange-to-TCP pose.  Every axis is a signed coordinate unit
vector, every offset has at most one nonzero entry, and the TCP
rotation is a signed permutation.  So a joint's offset moves the
origin along one column of the running rotation, its axis is a signed
column, and its turn mixes the other two columns: fk_chain_batch
evaluates the chain that way, elementwise, with no 3x3 products.

There is one chain kernel, fk_chain_batch, which evaluates the chain
for a batch of configurations, each from its own base.  Every other
call is built on it, and the scalar calls (fk, fk_frames, jacobian,
ik) are batches of one.

ik_batch runs damped least squares (_dls) in two stacked passes: the
seeds of all targets, then every random restart of the targets still
unsolved at once, keeping each target's first restart that converges.
That is exactly what running the restarts one after another returns.
One call may serve arms at different bases, so both arms of a DualArm
iterate in one loop; each row carries its own arm's base through FK.
Before either pass, _beyond_reach drops the targets that two UR
existence tests (wrist reach, elbow plane) prove unreachable within
the acceptance tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from tetherplan.geometry import Pose, rot_to_rotvec

N_JOINTS = 6
_IK_DAMPING = 0.05        # ik_batch's damped-least-squares damping
_IK_STEP_CLAMP = 0.2      # ik_batch's joint step bound per iteration, rad


@dataclass(frozen=True)
class ArmModel:
    """One UR3 arm: the module's chain at its base pose."""

    base: Pose = Pose.identity()


@dataclass(frozen=True)
class DualArm:
    left: ArmModel
    right: ArmModel

    def __post_init__(self):
        if np.allclose(self.left.base.t, self.right.base.t):
            raise ValueError("left and right arm bases must be distinct")

    def arm(self, side: str) -> ArmModel:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise KeyError(f"unknown arm {side!r}")


# UR3 published link dimensions (standard DH d/a values), written as
# zero-configuration offsets and unit axes for the chain convention above.
_UR3_OFFSETS = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.1519],
    [-0.24365, 0.0, 0.0],
    [-0.21325, 0.0, 0.0],
    [0.0, -0.11235, 0.0],
    [0.0, 0.0, -0.08535],
])
_UR3_AXES = np.array([
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, -1.0, 0.0],
])
_UR3_TCP = Pose(
    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([0.0, -0.0819, 0.0]),
)
_UR3_LIMIT = 2.0 * math.pi    # every joint's range is [-_UR3_LIMIT, _UR3_LIMIT]
# fk_chain_batch's column plan, read off the chain: the column and sign of
# each joint axis, each offset's nonzero entry and each TCP column's source.
_UR3_AXIS_COL = np.abs(_UR3_AXES).argmax(axis=1).tolist()
_UR3_AXIS_SIGN = _UR3_AXES.sum(axis=1, keepdims=True)
_UR3_STEP_COL = np.abs(np.vstack([_UR3_OFFSETS, _UR3_TCP.t])).argmax(axis=1).tolist()
_UR3_STEP = np.vstack([_UR3_OFFSETS, _UR3_TCP.t]).sum(axis=1)
_UR3_TCP_COL = np.abs(_UR3_TCP.r).argmax(axis=0).tolist()
_UR3_TCP_SIGN = _UR3_TCP.r.sum(axis=0)

def fk_chain_batch(base_r: np.ndarray, base_t: np.ndarray, qs: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward kinematics of a (W, 6) block of configurations.

    The one chain loop; every FK, Jacobian and IK call runs through it.
    base_r (3, 3) or (W, 3, 3) and base_t (3,) or (W, 3) are one base
    pose for all rows or one per row; a row's arithmetic is the same
    either way.  Returns (rot (W,3,3), tcp (W,3), origins (W,8,3),
    axes (W,6,3)): the TCP pose, the chain origin points (base origin,
    the six joint origins, the TCP point) and the world-frame joint axes.

    The running rotation is kept as three (3, W) column blocks.  Joint
    i, about column k with sign s_k, adds its offset's one scaled column
    to the origin and turns columns a = k+1 and b = k+2 (mod 3):
    x_a' = x_a c + x_b s, x_b' = x_b c - x_a s, with c = cos q_i and
    s = s_k sin q_i; the TCP adds one more column and signs and permutes
    the columns.  Every step is elementwise, so a row depends neither on
    another row nor on the BLAS kernel.
    """
    qs = np.asarray(qs, dtype=float).reshape(-1, N_JOINTS).T.copy()
    w = qs.shape[1]
    cols = np.empty((3, 3, w))
    cols[...] = np.atleast_3d(np.asarray(base_r, dtype=float).T)
    cols = list(cols)
    origins = np.empty((N_JOINTS + 2, 3, w))
    origins[0] = np.asarray(base_t, dtype=float).T.reshape(3, -1)
    axes = np.empty((N_JOINTS, 3, w))
    for i, (k, j, c, s) in enumerate(zip(_UR3_AXIS_COL, _UR3_STEP_COL, np.cos(qs),
                                         _UR3_AXIS_SIGN * np.sin(qs))):
        np.add(origins[i], _UR3_STEP[i] * cols[j], out=origins[i + 1])
        np.multiply(cols[k], _UR3_AXIS_SIGN[i], out=axes[i])
        a, b = (k + 1) % 3, (k + 2) % 3
        cols[a], cols[b] = cols[a] * c + cols[b] * s, cols[b] * c - cols[a] * s
    np.add(origins[N_JOINTS], _UR3_STEP[-1] * cols[_UR3_STEP_COL[-1]], out=origins[-1])
    rot = np.empty((w, 3, 3))
    for m, k in enumerate(_UR3_TCP_COL):
        np.multiply(cols[k].T, _UR3_TCP_SIGN[m], out=rot[:, :, m])
    origins = np.ascontiguousarray(origins.transpose(2, 0, 1))
    axes = np.ascontiguousarray(axes.transpose(2, 0, 1))
    return rot, origins[:, -1].copy(), origins, axes


def fk_batch(arm: ArmModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rot (W,3,3), tcp (W,3), origins (W,8,3)) of fk_chain_batch."""
    return fk_chain_batch(arm.base.r, arm.base.t, qs)[:3]


def fk_frames(arm: ArmModel, q: np.ndarray) -> tuple[Pose, np.ndarray]:
    """TCP pose plus the chain origin points (8, 3) for joint angles q."""
    rot, tcp, origins = fk_batch(arm, q)
    return Pose(rot[0], tcp[0]), origins[0]


def fk(arm: ArmModel, q: np.ndarray) -> Pose:
    """TCP pose for joint angles q."""
    return fk_frames(arm, q)[0]


def jacobian_batch(arm: ArmModel, qs: np.ndarray) -> np.ndarray:
    """Geometric TCP Jacobians (W, 6, 6) of a block of configurations."""
    _, tcp_t, origins, axes = fk_chain_batch(arm.base.r, arm.base.t, qs)
    return _chain_jacobian(tcp_t, origins, axes)


def _chain_jacobian(tcp_t: np.ndarray, origins: np.ndarray,
                    axes: np.ndarray) -> np.ndarray:
    """Jacobians (W, 6, 6) from the fk_chain_batch outputs of W rows."""
    lever = tcp_t[:, None, :] - origins[:, 1:N_JOINTS + 1, :]
    linear = np.cross(axes, lever)
    jac = np.empty((linear.shape[0], 6, N_JOINTS))
    jac[:, :3, :] = linear.transpose(0, 2, 1)
    jac[:, 3:, :] = axes.transpose(0, 2, 1)
    return jac


def jacobian(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """Geometric TCP Jacobian, rows 0-2 linear (m/rad), rows 3-5 angular."""
    return jacobian_batch(arm, q)[0]


def point_jacobian(arm: ArmModel, qs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(W, 3, 6) Jacobians of world points rigidly attached to the TCP body.

    qs is (W, 6) and points (W, 3), one point per configuration.
    """
    _, _, origins, axes = fk_chain_batch(arm.base.r, arm.base.t, qs)
    points = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    linear = np.cross(axes, points - origins[:, 1:N_JOINTS + 1, :])
    return linear.transpose(0, 2, 1)


def _beyond_reach(arm: ArmModel, target_r: np.ndarray, target_t: np.ndarray,
                  opts: IKOptions) -> np.ndarray:
    """(B,) mask of the targets no configuration reaches within tolerance.

    Two existence tests of Hawkins 2013 ("Analytic Inverse Kinematics
    for the Universal Robots UR-5/UR-10 Arms"), each widened by the
    slack that ik_batch's acceptance test allows.  A pose accepted for a
    target is within ori_tol of its rotation and moves the joint-6
    origin (the wrist w) by at most s = pos_tol + ori_tol * |tcp.t|.
    Joint limits only shrink the reachable set, so neither test depends
    on them.

    The UR3 chain has the UR layout both tests rest on: joints 2-4
    share one axis u; offsets[1] lies on axes[0], offsets[4] on u and
    offsets[5] on axes[4]; axes[0], axes[4], offsets[2] and offsets[3]
    are normal to u, and axes[5] is normal to axes[4].

    Wrist reach.  The joint-2 origin does not move, and every offset
    after joint 2 keeps its component along u and only turns its part
    normal to u, so w is at most the hypot of the summed normal lengths
    and the summed u components from it.  Flagged beyond that plus s.

    Elbow plane.  Let a2 = |offsets[2]|, a3 = |offsets[3]|,
    d4 = offsets[4] . u and d5 = |offsets[5]|.  In the base frame,
    relative to the joint-2 origin, with z6 = R_flange @ axes[5] the
    joint-6 axis that the target fixes: the joint-2 axis u(q1) turns
    in the plane normal to axes[0] and must satisfy u . w = d4, which
    gives two shoulder branches.  For each, z5 = +-(u x z6) / |u x z6|,
    and the joint-4 origin is w - d5 z5 - d4 u; it must lie in the
    annulus [|a2 - a3|, a2 + a3] around the joint-2 origin.  A target
    is flagged when all 4 candidates miss the annulus by more than
    their slack s + d5 * 2 (du + a) / |u x z6| + |d4| du, where a =
    ori_tol and du = s / (R - s) + |d4| s / ((R - s) sqrt((R - s)^2 -
    d4^2)) bounds how far u turns when w moves by s, R being w's
    distance from the joint-1 axis; 2 (du + a) / |u x z6| bounds how
    far z5 turns.  The slack is infinite near the singularities, where
    R - s <= |d4| or |u x z6| <= du + a.  A wrist with R + s < |d4| is
    inside the shoulder cylinder and is flagged.
    """
    axes, offsets, tcp = _UR3_AXES, _UR3_OFFSETS, _UR3_TCP
    u0 = axes[1]
    along = offsets[2:] @ u0
    normal_len = np.linalg.norm(offsets[2:] - along[:, None] * u0, axis=1)
    reach = math.hypot(normal_len.sum(), along.sum())
    flange = target_r @ tcp.r.T
    wrist = target_t - flange @ tcp.t
    shoulder = arm.base.t + arm.base.r @ (offsets[0] + offsets[1])
    s = opts.pos_tol + opts.ori_tol * np.linalg.norm(tcp.t)
    beyond = np.linalg.norm(wrist - shoulder, axis=1) > reach + s

    a0, a = axes[0], opts.ori_tol
    d4, d5 = offsets[4] @ u0, np.linalg.norm(offsets[5])
    a2, a3 = np.linalg.norm(offsets[2]), np.linalg.norm(offsets[3])
    w = (wrist - shoulder) @ arm.base.r
    z6 = (flange @ axes[5]) @ arm.base.r
    w_perp = w - np.outer(w @ a0, a0)
    rad = np.linalg.norm(w_perp, axis=1)
    inner = rad - s
    elbow = np.ones_like(beyond)
    # Singular rows come out inf or nan; a nan comparison flags nothing.
    with np.errstate(divide="ignore", invalid="ignore"):
        du = s / inner + abs(d4) * s / (inner * np.sqrt(inner * inner - d4 * d4))
        du = np.where(inner > abs(d4), du, np.inf)
        w_hat = w_perp / rad[:, None]
        cos = d4 / rad
        sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
        for branch in (1.0, -1.0):
            u = cos[:, None] * w_hat + (branch * sin)[:, None] * np.cross(a0, w_hat)
            cross = np.cross(u, z6)
            norm = np.linalg.norm(cross, axis=1)
            slack = np.where(norm > du + a,
                             s + d5 * 2.0 * (du + a) / norm + abs(d4) * du, np.inf)
            for z5 in (cross, -cross):
                rho = np.linalg.norm(w - d5 * z5 / norm[:, None] - d4 * u, axis=1)
                elbow &= np.maximum(rho - (a2 + a3), abs(a2 - a3) - rho) > slack
    return beyond | elbow | (rad + s < abs(d4))


@dataclass(frozen=True)
class IKOptions:
    pos_tol: float = 1e-4
    ori_tol: float = 1e-3
    max_iters: int = 200
    restarts: int = 8
    seed: int = 0


def ik(arm: ArmModel, target: Pose, seed_config: np.ndarray,
       opts: IKOptions = IKOptions()) -> np.ndarray | None:
    """Damped-least-squares IK.  Returns an in-limit solution or None.

    ik_batch on the one target, so results are reproducible.
    """
    q, solved = ik_batch(arm, target.r, target.t, seed_config, opts)
    return q[0] if solved[0] else None


def ik_batch(arm: ArmModel | Sequence[ArmModel], target_r: np.ndarray,
             target_t: np.ndarray, seed_config: np.ndarray,
             opts: IKOptions = IKOptions(),
             groups: Sequence[int] | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Damped-least-squares IK over a batch of B targets at once.

    Every target first starts from seed_config (a single configuration
    or one row per target); the remaining opts.restarts - 1 attempts of
    unsolved targets start from uniform in-limit samples.  groups
    splits the B targets into consecutive groups of the given sizes
    (default: one group of all B).  arm is one arm for every group or a
    sequence of one arm per group.  Each group draws its restart samples
    from its own np.random.default_rng(opts.seed), (group size, 6) per
    restart, so a target's result depends only on its own group and
    arm: a grouped call returns exactly what one call per group would.
    Returns (q (B, 6), solved (B,)); rows with solved False are zeros.
    A target's result is the first attempt that converges.

    The attempts run in two passes of _dls: the seeds, then every
    restart of every target the seeds leave unsolved, stacked into one
    batch.  This returns what running the restarts one after another
    would: a row's iterates depend only on its start, its target and
    its arm's base, and the restart starts are the same draws in the
    same order, drawn whether or not an earlier attempt succeeds.  So
    the first restart that converges in the stacked pass is the one a
    sequential loop would have stopped at.  A call makes at most
    2 * (max_iters + 1) fk_chain_batch calls, however many arms it
    serves.

    Targets that _beyond_reach proves unreachable for their arm have no
    solution at any configuration.  They are never iterated and return
    unsolved; their rows still use up their group's restart draws, so
    every other target sees the samples it would see without them.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b = target_r.shape[0]
    sizes = [b] if groups is None else [int(g) for g in groups]
    if sum(sizes) != b or min(sizes, default=0) < 0:
        raise ValueError(f"group sizes {sizes} do not split {b} targets")
    arms = [arm] * len(sizes) if isinstance(arm, ArmModel) else list(arm)
    if len(arms) != len(sizes):
        raise ValueError(f"{len(arms)} arms for {len(sizes)} groups")
    solution = np.zeros((b, N_JOINTS))
    solved = np.zeros(b, dtype=bool)
    if b == 0:
        return solution, solved
    owner = np.repeat(np.arange(len(arms)), sizes)
    beyond = np.zeros(b, dtype=bool)
    for a in {id(a): a for a in arms}.values():
        mine = np.isin(owner, [i for i, x in enumerate(arms) if x is a])
        beyond[mine] = _beyond_reach(a, target_r[mine], target_t[mine], opts)
    base_r = np.stack([a.base.r for a in arms])[owner]
    base_t = np.stack([a.base.t for a in arms])[owner]
    seeds = np.broadcast_to(np.asarray(seed_config, dtype=float), (b, N_JOINTS))
    rows = np.nonzero(~beyond)[0]
    starts = np.clip(seeds[rows], -_UR3_LIMIT, _UR3_LIMIT)[None]
    q, ok = _dls(starts, base_r[rows], base_t[rows], target_r[rows],
                 target_t[rows], opts)
    solution[rows[ok]] = q[ok]
    solved[rows[ok]] = True
    rows = rows[~ok]
    if opts.restarts > 1 and rows.size:
        rngs = [np.random.default_rng(opts.seed) for _ in sizes]
        starts = np.stack([
            np.concatenate([rng.uniform(-_UR3_LIMIT, _UR3_LIMIT, (g, N_JOINTS))
                            for rng, g in zip(rngs, sizes)])
            for _ in range(opts.restarts - 1)])
        q, ok = _dls(starts[:, rows], base_r[rows], base_t[rows],
                     target_r[rows], target_t[rows], opts)
        solution[rows[ok]] = q[ok]
        solved[rows[ok]] = True
    return solution, solved


def _dls(q0: np.ndarray, base_r: np.ndarray, base_t: np.ndarray,
         target_r: np.ndarray, target_t: np.ndarray,
         opts: IKOptions) -> tuple[np.ndarray, np.ndarray]:
    """Damped least squares from K starts (K, U, 6) of U targets at once.

    Start k of target j is attempt k of that target, at the target's
    base (base_r[j], base_t[j]).  A row stops when it meets the
    tolerances, after opts.max_iters steps, or as soon as an earlier
    attempt of its target has met them.  Returns (q (U, 6),
    solved (U,)): each solved target's configuration from its first
    attempt that converged; unsolved rows are zeros.
    """
    k, u = q0.shape[:2]
    q = q0.reshape(k * u, N_JOINTS).copy()
    target = np.tile(np.arange(u), k)
    attempt = np.repeat(np.arange(k), u)
    first = np.full(u, k)          # first converged attempt; k while none has
    active = np.ones(k * u, dtype=bool)
    eye = _IK_DAMPING * _IK_DAMPING * np.eye(6)
    for it in range(opts.max_iters + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        qa = q[idx]
        tj = target[idx]
        cur_r, cur_t, origins, axes = fk_chain_batch(base_r[tj], base_t[tj], qa)
        e_pos = target_t[tj] - cur_t
        e_rot = rot_to_rotvec(target_r[tj] @ cur_r.transpose(0, 2, 1))
        done = ((np.linalg.norm(e_pos, axis=1) < opts.pos_tol)
                & (np.linalg.norm(e_rot, axis=1) < opts.ori_tol))
        if np.any(done):
            hit = idx[done]
            np.minimum.at(first, target[hit], attempt[hit])
            active[hit] = False
            active &= attempt < first[target]
            keep = active[idx]
            idx = idx[keep]
            if idx.size == 0:
                break
            qa, e_pos, e_rot = qa[keep], e_pos[keep], e_rot[keep]
            cur_t, origins, axes = cur_t[keep], origins[keep], axes[keep]
        if it == opts.max_iters:
            break
        jac = _chain_jacobian(cur_t, origins, axes)
        err = np.concatenate([e_pos, e_rot], axis=1)
        gram = jac @ jac.transpose(0, 2, 1) + eye
        y = np.linalg.solve(gram, err[..., None])[..., 0]
        dq = np.einsum("wji,wj->wi", jac, y)
        dq = np.clip(dq, -_IK_STEP_CLAMP, _IK_STEP_CLAMP)
        q[idx] = np.clip(qa + dq, -_UR3_LIMIT, _UR3_LIMIT)
    solved = first < k
    out = np.zeros((u, N_JOINTS))
    out[solved] = q[first[solved] * u + np.nonzero(solved)[0]]
    return out, solved
