"""Independent oracles used by the test suite.

Everything here is deliberately written against first principles
(quaternion algebra, dense sampling, finite differences, homogeneous
matrix products) and never calls into the library code paths it is used
to check.  The one exception is sequential_ik_batch, the reference for
ik_batch's restart schedule: ik_batch must match it bit for bit, so it
runs the library's own FK, log-map and Jacobian kernels.
"""

from __future__ import annotations

import math

import numpy as np

from tetherplan import robot as rb
from tetherplan.geometry import rot_to_rotvec


# --- quaternion oracle (Hamilton convention, [w, x, y, z]) ---

def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    h = 0.5 * angle
    return np.array([math.cos(h), *(math.sin(h) * axis)])


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def quat_rotate(q: np.ndarray, v) -> np.ndarray:
    """Rotate v by q via q * (0, v) * conj(q)."""
    v = np.asarray(v, dtype=float)
    qv = np.array([0.0, *v])
    qc = np.array([q[0], -q[1], -q[2], -q[3]])
    return quat_mul(quat_mul(q, qv), qc)[1:]


def quat_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Extrinsic X-Y-Z composition via quaternion products."""
    qx = quat_from_axis_angle([1, 0, 0], roll)
    qy = quat_from_axis_angle([0, 1, 0], pitch)
    qz = quat_from_axis_angle([0, 0, 1], yaw)
    return quat_mul(qz, quat_mul(qy, qx))


def random_quat(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix whose columns are the quat-rotated basis vectors."""
    return np.column_stack([quat_rotate(q, e) for e in np.eye(3)])


# --- dense-sampling segment-segment distance oracle ---

def segment_distance_sampled(p1, p2, q1, q2, coarse: int = 200, refine: int = 3) -> float:
    """Min distance between segments by grid sampling plus local refinement.

    Evaluates a coarse x coarse parameter grid, then repeatedly re-grids
    a shrinking window around the best cell.  Accurate to well below
    1e-6 for unit-scale segments.
    """
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    q1 = np.asarray(q1, float)
    q2 = np.asarray(q2, float)

    lo_s, hi_s, lo_t, hi_t = 0.0, 1.0, 0.0, 1.0
    best = math.inf
    for level in range(refine + 1):
        s = np.linspace(lo_s, hi_s, coarse)
        t = np.linspace(lo_t, hi_t, coarse)
        a = p1[None, :] + s[:, None] * (p2 - p1)[None, :]
        b = q1[None, :] + t[:, None] * (q2 - q1)[None, :]
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        best = min(best, float(d[i, j]))
        ws = (hi_s - lo_s) / (coarse - 1)
        wt = (hi_t - lo_t) / (coarse - 1)
        lo_s = max(0.0, s[i] - 2 * ws)
        hi_s = min(1.0, s[i] + 2 * ws)
        lo_t = max(0.0, t[j] - 2 * wt)
        hi_t = min(1.0, t[j] + 2 * wt)
    return best


def segment_box_distance_sampled(p1, p2, rot, center, half_extents,
                                 samples: int = 4001) -> float:
    """Min distance from a segment to a box (rotation rot, center, half
    extents) over evenly spaced points; zero inside.  Never below the
    exact distance, and within 1e-5 of it for unit-scale inputs."""
    p1 = np.asarray(p1, float)
    ts = np.linspace(0.0, 1.0, samples)
    pts = p1 + ts[:, None] * (np.asarray(p2, float) - p1)
    local = (pts - np.asarray(center, float)) @ np.asarray(rot, float)
    excess = np.maximum(np.abs(local) - np.asarray(half_extents, float), 0.0)
    return float(np.linalg.norm(excess, axis=1).min())


# --- finite differences ---

def central_difference_jacobian(f, q: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Column-wise central finite difference of vector function f at q."""
    q = np.asarray(q, dtype=float)
    cols = []
    for i in range(q.size):
        dq = np.zeros_like(q)
        dq[i] = h
        cols.append((f(q + dq) - f(q - dq)) / (2.0 * h))
    return np.column_stack(cols)


# --- homogeneous matrix-product forward kinematics oracle ---

def _axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues via quaternion to stay independent of the library."""
    return quat_matrix(quat_from_axis_angle(axis, angle))


def fk_matrix_product(base_matrix: np.ndarray, axes, offsets, tcp_matrix: np.ndarray,
                      q: np.ndarray) -> np.ndarray:
    """Chain of per-joint 4x4 products: base * prod(Trans(off) Rot(axis, q)) * tcp."""
    m = np.asarray(base_matrix, dtype=float).copy()
    for axis, off, angle in zip(axes, offsets, q):
        trans = np.eye(4)
        trans[:3, 3] = off
        rot = np.eye(4)
        rot[:3, :3] = _axis_angle_matrix(axis, angle)
        m = m @ trans @ rot
    return m @ tcp_matrix


# --- joint limits and the sequential-restart IK reference ---

def in_limits(q) -> bool:
    """True when every joint of q lies within the UR3's +-2 pi range
    (1e-12 slack)."""
    return bool(np.all(np.abs(np.asarray(q, dtype=float)) <= 2.0 * math.pi + 1e-12))


def sequential_ik_batch(arm, target_r, target_t, seed_config, opts, groups=None):
    """ik_batch as one loop over the attempts, run one after another.

    Attempt 0 starts every target from its seed; each later attempt
    draws a (group size, 6) block from each group's own
    np.random.default_rng(opts.seed) and restarts the targets still
    unsolved, until all are solved or opts.restarts attempts have run.
    No target is pruned, so a target that the reach tests wrongly
    flag but the loop solves shows up as a difference.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b = target_r.shape[0]
    sizes = [b] if groups is None else list(groups)
    rngs = [np.random.default_rng(opts.seed) for _ in sizes]
    eye = rb._IK_DAMPING * rb._IK_DAMPING * np.eye(6)
    lim = rb._UR3_LIMIT
    q = np.clip(np.broadcast_to(np.asarray(seed_config, dtype=float), (b, 6)),
                -lim, lim)
    solution = np.zeros((b, 6))
    solved = np.zeros(b, dtype=bool)
    for attempt in range(max(1, opts.restarts)):
        if attempt > 0:
            fresh = np.concatenate([rng.uniform(-lim, lim, (g, 6))
                                    for rng, g in zip(rngs, sizes)])
            q = np.where(solved[:, None], q, fresh)
        for it in range(opts.max_iters + 1):
            idx = np.nonzero(~solved)[0]
            if idx.size == 0:
                break
            cur_r, cur_t, origins, axes = rb.fk_chain_batch(arm.base.r, arm.base.t,
                                                            q[idx])
            e_pos = target_t[idx] - cur_t
            e_rot = rot_to_rotvec(target_r[idx] @ cur_r.transpose(0, 2, 1))
            done = ((np.linalg.norm(e_pos, axis=1) < opts.pos_tol)
                    & (np.linalg.norm(e_rot, axis=1) < opts.ori_tol))
            solution[idx[done]] = q[idx[done]]
            solved[idx[done]] = True
            keep = ~done
            idx = idx[keep]
            if idx.size == 0 or it == opts.max_iters:
                break
            jac = rb._chain_jacobian(cur_t[keep], origins[keep], axes[keep])
            err = np.concatenate([e_pos[keep], e_rot[keep]], axis=1)
            y = np.linalg.solve(jac @ jac.transpose(0, 2, 1) + eye, err[..., None])[..., 0]
            dq = np.clip(np.einsum("wji,wj->wi", jac, y),
                         -rb._IK_STEP_CLAMP, rb._IK_STEP_CLAMP)
            q[idx] = np.clip(q[idx] + dq, -lim, lim)
        if solved.all():
            break
    return solution, solved
