"""Dual-arm kinematics: forward kinematics, Jacobian, numerical IK.

There is one chain kernel, fk_chain_batch, which evaluates the chain
for a batch of configurations.  Every other call is built on it, and
the scalar calls (fk, fk_frames, jacobian, ik) are batches of one.

An arm is a serial chain of six revolute joints.  Joint i contributes
Trans(offset_i) @ Rot(axis_i, q_i), with offset and axis expressed in
the frame left by joint i-1; a fixed flange-to-TCP pose closes the
chain.  Axes and offsets therefore equal their world values in the
zero configuration, which is how the default UR3-sized chain below is
written down.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from tetherplan.geometry import Pose, rot_to_rotvec

N_JOINTS = 6
_IK_DAMPING = 0.05        # ik_batch's damped-least-squares damping
_IK_STEP_CLAMP = 0.2      # ik_batch's joint step bound per iteration, rad
_PARALLEL_TOL = 1e-12     # |a x b| at or below which two chain vectors are parallel


@dataclass(frozen=True)
class ArmModel:
    """Kinematic description of one 6-DOF arm."""

    base: Pose
    axes: np.ndarray      # (6, 3) unit joint axes, zero-config frame
    offsets: np.ndarray   # (6, 3) origin offsets, m
    lower: np.ndarray     # (6,) joint lower limits, rad
    upper: np.ndarray     # (6,) joint upper limits, rad
    tcp: Pose             # flange-to-TCP transform

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=float).reshape(N_JOINTS, 3)
        axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "offsets",
                           np.asarray(self.offsets, dtype=float).reshape(N_JOINTS, 3))
        lower = np.asarray(self.lower, dtype=float).reshape(N_JOINTS)
        upper = np.asarray(self.upper, dtype=float).reshape(N_JOINTS)
        if np.any(lower >= upper):
            raise ValueError("joint lower limits must be strictly below upper limits")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def with_base(self, base: Pose) -> "ArmModel":
        return replace(self, base=base)

    def in_limits(self, q: np.ndarray) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.lower - 1e-12) and np.all(q <= self.upper + 1e-12))


@dataclass(frozen=True)
class DualArm:
    left: ArmModel
    right: ArmModel

    def __post_init__(self):
        if np.allclose(self.left.base.t, self.right.base.t):
            raise ValueError("left and right arm bases must be distinct")

    @property
    def shoulder_separation(self) -> float:
        return float(np.linalg.norm(self.left.base.t - self.right.base.t))

    def arm(self, side: str) -> ArmModel:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise KeyError(f"unknown arm {side!r}")


# UR3 published link dimensions (standard DH d/a values), written as
# zero-configuration offsets and axes for the chain convention above.
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
_UR3_LIMIT = 2.0 * math.pi


def ur3_arm(base: Pose = Pose.identity()) -> ArmModel:
    """UR3-sized arm with symmetric +-2 pi joint ranges."""
    lim = np.full(N_JOINTS, _UR3_LIMIT)
    return ArmModel(base=base, axes=_UR3_AXES.copy(), offsets=_UR3_OFFSETS.copy(),
                    lower=-lim, upper=lim, tcp=_UR3_TCP)


def fk_chain_batch(arm: ArmModel, qs: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward kinematics of a (W, 6) block of configurations.

    The one chain loop; every FK, Jacobian and IK call runs through it.
    Returns (rot (W,3,3), tcp (W,3), origins (W,8,3), axes (W,6,3)):
    the TCP pose, the chain origin points (base origin, the six joint
    origins, the TCP point) and the world-frame joint axes.
    """
    qs = np.asarray(qs, dtype=float).reshape(-1, N_JOINTS)
    w = qs.shape[0]
    origins = np.empty((w, N_JOINTS + 2, 3))
    axes = np.empty((w, N_JOINTS, 3))
    r = np.broadcast_to(arm.base.r, (w, 3, 3)).copy()
    t = np.broadcast_to(arm.base.t, (w, 3)).copy()
    origins[:, 0] = t
    for i in range(N_JOINTS):
        t = t + r @ arm.offsets[i]
        origins[:, i + 1] = t
        axes[:, i] = r @ arm.axes[i]
        r = r @ _axis_rot_batch(arm.axes[i], qs[:, i])
    tcp_t = t + r @ arm.tcp.t
    tcp_r = r @ arm.tcp.r
    origins[:, -1] = tcp_t
    return tcp_r, tcp_t, origins, axes


def fk_batch(arm: ArmModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rot (W,3,3), tcp (W,3), origins (W,8,3)) of fk_chain_batch."""
    return fk_chain_batch(arm, qs)[:3]


def fk_frames(arm: ArmModel, q: np.ndarray) -> tuple[Pose, np.ndarray]:
    """TCP pose plus the chain origin points (8, 3) for joint angles q."""
    rot, tcp, origins = fk_batch(arm, q)
    return Pose(rot[0], tcp[0]), origins[0]


def fk(arm: ArmModel, q: np.ndarray) -> Pose:
    """TCP pose for joint angles q."""
    return fk_frames(arm, q)[0]


def jacobian_batch(arm: ArmModel, qs: np.ndarray) -> np.ndarray:
    """Geometric TCP Jacobians (W, 6, 6) of a block of configurations."""
    _, tcp_t, origins, axes = fk_chain_batch(arm, qs)
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
    _, _, origins, axes = fk_chain_batch(arm, qs)
    points = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    linear = np.cross(axes, points - origins[:, 1:N_JOINTS + 1, :])
    return linear.transpose(0, 2, 1)


def _rotvec_batch(rots: np.ndarray) -> np.ndarray:
    """Rotation log map for a (W, 3, 3) batch."""
    trace = np.clip(np.einsum("wii->w", rots), -1.0, 3.0)
    theta = np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))
    skew = 0.5 * np.stack([rots[:, 2, 1] - rots[:, 1, 2],
                           rots[:, 0, 2] - rots[:, 2, 0],
                           rots[:, 1, 0] - rots[:, 0, 1]], axis=1)
    sin = np.sin(theta)
    small = theta < 1e-5
    near_pi = theta > math.pi - 1e-3
    scale = np.where(small | near_pi, 1.0, theta / np.where(sin == 0.0, 1.0, sin))
    out = scale[:, None] * skew
    for idx in np.nonzero(near_pi)[0]:
        out[idx] = rot_to_rotvec(rots[idx])
    return out


def _beyond_reach(arm: ArmModel, target_r: np.ndarray, target_t: np.ndarray,
                  opts: IKOptions) -> np.ndarray:
    """(B,) mask of the targets no configuration reaches within tolerance.

    For the UR layout (joints 2-4 share one axis u, offsets[1] lies on
    axes[0] and offsets[5] on axes[4]) the joint-2 origin does not move,
    and the joint-6 origin is fixed by the target pose.  Every offset
    after joint 2 keeps its component along u and only turns its part
    normal to u, so the two origins are at most the hypot of the summed
    normal lengths and the summed u components apart (the existence
    test of Hawkins 2013, "Analytic Inverse Kinematics for the Universal
    Robots UR-5/UR-10 Arms").  A pose that passes ik_batch's acceptance
    test moves the joint-6 origin by less than pos_tol + ori_tol *
    |tcp.t|, which is added as slack.  Joint limits only shrink the
    reachable set.  Any other chain gets an infinite reach: no target is
    flagged.
    """
    def parallel(a, b):
        return np.linalg.norm(np.cross(a, b)) <= _PARALLEL_TOL

    u = arm.axes[1]
    reach = math.inf
    if (parallel(u, arm.axes[2]) and parallel(u, arm.axes[3])
            and parallel(arm.offsets[1], arm.axes[0])
            and parallel(arm.offsets[5], arm.axes[4])):
        along = arm.offsets[2:] @ u
        normal = np.linalg.norm(arm.offsets[2:] - along[:, None] * u, axis=1)
        reach = math.hypot(normal.sum(), along.sum())
    wrist = target_t - (target_r @ arm.tcp.r.T) @ arm.tcp.t
    shoulder = arm.base.t + arm.base.r @ (arm.offsets[0] + arm.offsets[1])
    slack = opts.pos_tol + opts.ori_tol * np.linalg.norm(arm.tcp.t)
    return np.linalg.norm(wrist - shoulder, axis=1) > reach + slack


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


def ik_batch(arm: ArmModel, target_r: np.ndarray, target_t: np.ndarray,
             seed_config: np.ndarray, opts: IKOptions = IKOptions(),
             groups: Sequence[int] | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Damped-least-squares IK over a batch of B targets at once.

    Every target first starts from seed_config (a single configuration
    or one row per target); the remaining opts.restarts - 1 attempts of
    unsolved targets start from uniform in-limit samples.  groups
    splits the B targets into consecutive groups of the given sizes
    (default: one group of all B).  Each group draws its restart
    samples from its own np.random.default_rng(opts.seed), (group
    size, 6) per restart, so a target's result depends only on its own
    group: a grouped call returns exactly what one call per group
    would.  Returns (q (B, 6), solved (B,)); rows with solved False are
    zeros.

    Targets beyond the arm's wrist reach (_beyond_reach) have no
    solution at any configuration.  They are never iterated and return
    unsolved, but their rows still use up their group's restart draws,
    so every other target sees the samples it would see without them.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b = target_r.shape[0]
    sizes = [b] if groups is None else [int(g) for g in groups]
    if sum(sizes) != b or min(sizes, default=0) < 0:
        raise ValueError(f"group sizes {sizes} do not split {b} targets")
    beyond = _beyond_reach(arm, target_r, target_t, opts)
    rngs = [np.random.default_rng(opts.seed) for _ in sizes]
    lam2 = _IK_DAMPING * _IK_DAMPING
    eye = lam2 * np.eye(6)
    seeds = np.asarray(seed_config, dtype=float)
    if seeds.ndim == 1:
        seeds = np.broadcast_to(seeds, (b, N_JOINTS))
    q = np.clip(seeds.copy(), arm.lower, arm.upper)
    solution = np.zeros((b, N_JOINTS))
    solved = np.zeros(b, dtype=bool)
    for attempt in range(max(1, opts.restarts)):
        if attempt > 0:
            fresh = np.concatenate(
                [rng.uniform(arm.lower, arm.upper, (g, N_JOINTS))
                 for rng, g in zip(rngs, sizes)])
            q = np.where(solved[:, None], q, fresh)
        active = ~solved & ~beyond
        for it in range(opts.max_iters + 1):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            qa = q[idx]
            cur_r, cur_t, origins, axes = fk_chain_batch(arm, qa)
            e_pos = target_t[idx] - cur_t
            e_rot = _rotvec_batch(target_r[idx] @ cur_r.transpose(0, 2, 1))
            done = ((np.linalg.norm(e_pos, axis=1) < opts.pos_tol)
                    & (np.linalg.norm(e_rot, axis=1) < opts.ori_tol))
            if np.any(done):
                hit = idx[done]
                solution[hit] = qa[done]
                solved[hit] = True
                active[hit] = False
                keep = ~done
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
            q[idx] = np.clip(qa + dq, arm.lower, arm.upper)
        if np.all(solved | beyond):
            break
    return solution, solved


def _axis_rot_batch(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    kx, ky, kz = axis
    khat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    khat2 = khat @ khat
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    return np.eye(3)[None] + s * khat[None] + (1.0 - c) * khat2[None]

