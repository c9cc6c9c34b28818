"""Dual-arm kinematics: forward kinematics, joint torques, numerical IK.

Every arm is a UR3: its chain is a module constant, and an arm is only
the base Pose it stands at.  The chain has six revolute joints, each
an offset and an axis written in the frame left by the joint before
(so they are world values in the zero configuration), closed by a
fixed flange-to-TCP pose.  Every axis is a signed coordinate unit
vector, every offset has at most one nonzero entry, and the TCP
rotation is a signed permutation.  So a joint's offset moves the
origin along one column of the running rotation, its axis is a signed
column, and its turn mixes the other two columns: fk_chain_batch
evaluates the chain that way, elementwise, with no 3x3 products.

There is one chain kernel, fk_chain_batch, which evaluates the chain
for a batch of configurations, each from its own base; an arm's FK is
fk_chain_batch(base.r, base.t, qs).  Every other call (joint_torques,
ik_batch) is built on it, takes a batch, and takes one base for all
rows or one per row as it does; one configuration or one target is a
batch of one row.  With the per-row bases of DualArm.bases, one call
serves rows of both arms.

ik_batch runs damped least squares (_dls) in one loop: every seed
starts at iteration 0, and the random restarts of the targets still
unsolved join at iteration _IK_RESTART_AFTER (or right after the seeds'
last iteration, if that is sooner) while the slow seeds still run.
The restart starts are one table, sampled up front.  A row carries only
its target index, attempt, configuration and cycle-test state; its
target and its base are gathered by that index when the row set
changes.  Every seed has taken as many steps as every other, and so has
every restart, so stops and cycle-test refreshes are decided per
attempt class from the iteration number.  The loop returns exactly what
running the restarts one after another returns (_dls says why), in at most
min(_IK_RESTART_AFTER, max_iters + 1) + max_iters + 1 fk_chain_batch
calls.  One call may serve arms at different bases, so both arms of a
DualArm iterate in one loop.  Before the loop, _beyond_reach drops the
targets that two UR existence tests (wrist reach, elbow plane) prove
unreachable within the acceptance tolerances.
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
_IK_RESTART_AFTER = 32    # iteration at which ik_batch's restarts join the seeds


@dataclass(frozen=True)
class DualArm:
    left: Pose
    right: Pose

    def __post_init__(self):
        if not all(np.isfinite(p.r).all() and np.isfinite(p.t).all()
                   for p in (self.left, self.right)):
            raise ValueError("arm base poses must be finite")
        if np.allclose(self.left.t, self.right.t):
            raise ValueError("left and right arm bases must be distinct")

    def bases(self, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row base poses (W, 3, 3) and (W, 3) for fk_chain_batch:
        the right arm's on the rows where the (W,) mask right is set,
        the left arm's elsewhere."""
        right = np.asarray(right, dtype=bool)
        return (np.where(right[:, None, None], self.right.r, self.left.r),
                np.where(right[:, None], self.right.t, self.left.t))


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


def joint_config(q, name: str) -> np.ndarray:
    """q as one arm's N_JOINTS joint angles within [-2 pi, 2 pi], the range
    ik_batch clamps to; a ValueError names the first joint of name outside it."""
    q = np.asarray(q, dtype=float).reshape(N_JOINTS)
    out = np.flatnonzero(~(np.abs(q) <= _UR3_LIMIT))
    if out.size:
        j = out[0]
        raise ValueError(f"{name} joint {j + 1} is {q[j]:.6g} rad "
                         f"({math.degrees(q[j]):.6g} deg), outside [-2 pi, 2 pi]")
    return q


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


def _chain_jacobian(points: np.ndarray, origins: np.ndarray,
                    axes: np.ndarray) -> np.ndarray:
    """Geometric Jacobians (W, 6, 6) of W world points (W, 3) rigidly
    attached to the TCP body, from the fk_chain_batch outputs of W rows:
    rows 0-2 linear (m/rad), rows 3-5 angular."""
    lever = points[:, None, :] - origins[:, 1:N_JOINTS + 1, :]
    ax, ay, az = axes[..., 0], axes[..., 1], axes[..., 2]
    lx, ly, lz = lever[..., 0], lever[..., 1], lever[..., 2]
    jac = np.empty((lever.shape[0], 6, N_JOINTS))
    # axes x lever, by components as np.cross computes it.
    jac[:, 0] = ay * lz - az * ly
    jac[:, 1] = az * lx - ax * lz
    jac[:, 2] = ax * ly - ay * lx
    jac[:, 3:] = axes.transpose(0, 2, 1)
    return jac


def joint_torques(base_r: np.ndarray, base_t: np.ndarray, qs: np.ndarray,
                  points: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """Joint torques (W, 6) balancing forces (W, 3) at points (W, 3).

    qs is (W, 6); base_r and base_t are one base for all rows or one per
    row, as fk_chain_batch takes them.  Each point is rigidly attached to
    the TCP body and its force has no moment, so the torque is the linear
    Jacobian's transpose times the force, elementwise: no BLAS kernel.
    """
    _, _, origins, axes = fk_chain_batch(base_r, base_t, qs)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    jac = _chain_jacobian(points, origins, axes)
    f = np.asarray(forces, dtype=float).reshape(-1, 3)
    return (jac[:, 0] * f[:, 0, None] + jac[:, 1] * f[:, 1, None]
            + jac[:, 2] * f[:, 2, None])


def _beyond_reach(base_r: np.ndarray, base_t: np.ndarray, target_r: np.ndarray,
                  target_t: np.ndarray, opts: IKOptions) -> np.ndarray:
    """(B,) mask of the targets no configuration reaches within tolerance
    from base_r, base_t: one base for all targets or one per target.

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
    shoulder = base_t + np.einsum("...ij,j->...i", base_r, offsets[0] + offsets[1])
    s = opts.pos_tol + opts.ori_tol * np.linalg.norm(tcp.t)
    beyond = np.linalg.norm(wrist - shoulder, axis=1) > reach + s

    a0, a = axes[0], opts.ori_tol
    d4, d5 = offsets[4] @ u0, np.linalg.norm(offsets[5])
    a2, a3 = np.linalg.norm(offsets[2]), np.linalg.norm(offsets[3])
    w = np.einsum("...i,...ij->...j", wrist - shoulder, base_r)
    z6 = np.einsum("...i,...ij->...j", flange @ axes[5], base_r)
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

    def __post_init__(self):
        if not (0.0 <= self.pos_tol < math.inf and 0.0 <= self.ori_tol < math.inf):
            raise ValueError("pos_tol and ori_tol must be finite and at least 0")
        if not (self.max_iters >= 0 and self.restarts >= 0 and self.seed >= 0):
            raise ValueError("max_iters, restarts and seed must be at least 0")


def ik_batch(base: tuple[np.ndarray, np.ndarray], target_r: np.ndarray,
             target_t: np.ndarray, seed_config: np.ndarray,
             opts: IKOptions = IKOptions(),
             groups: Sequence[int] | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Damped-least-squares IK over a batch of B targets at once.

    Every target first starts from seed_config (a single configuration
    or one row per target); the remaining opts.restarts - 1 attempts of
    unsolved targets start from uniform in-limit samples.  groups
    splits the B targets into consecutive groups of the given sizes
    (default: one group of all B).  base is (base_r, base_t), one base
    for every target or one per target, as fk_chain_batch takes them.
    Each group takes its restart samples from its own
    np.random.default_rng(opts.seed), (group size, 6) per restart, so a
    target's result depends only on its own group and base: a grouped
    call returns exactly what one call per group would.
    Returns (q (B, 6), solved (B,)): each target's first attempt that
    converges, as if the attempts ran one after another (_dls), or zeros.

    Targets that _beyond_reach proves unreachable from their base have no
    solution at any configuration.  They are never iterated and return
    unsolved; their rows still use up their group's restart samples, so
    every other target sees the samples it would see without them.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b = target_r.shape[0]
    sizes = [b] if groups is None else [int(g) for g in groups]
    if sum(sizes) != b or min(sizes, default=0) < 0:
        raise ValueError(f"group sizes {sizes} do not split {b} targets")
    solution = np.zeros((b, N_JOINTS))
    solved = np.zeros(b, dtype=bool)
    if b == 0:
        return solution, solved
    base_r = np.broadcast_to(np.asarray(base[0], dtype=float), (b, 3, 3))
    base_t = np.broadcast_to(np.asarray(base[1], dtype=float), (b, 3))
    live = np.nonzero(~_beyond_reach(base_r, base_t, target_r, target_t, opts))[0]
    seeds = np.broadcast_to(np.asarray(seed_config, dtype=float), (b, N_JOINTS))
    # A Generator fills C order: one (K - 1, g, 6) block is K - 1 successive (g, 6) ones.
    starts = np.concatenate([
        np.random.default_rng(opts.seed).uniform(
            -_UR3_LIMIT, _UR3_LIMIT, (max(opts.restarts - 1, 0), g, N_JOINTS))
        for g in sizes], axis=1)[:, live]
    q, ok = _dls(np.clip(seeds[live], -_UR3_LIMIT, _UR3_LIMIT), starts,
                 base_r[live], base_t[live], target_r[live], target_t[live], opts)
    solution[live[ok]] = q[ok]
    solved[live[ok]] = True
    return solution, solved


def _dls(seeds: np.ndarray, starts: np.ndarray, base_r: np.ndarray,
         base_t: np.ndarray, target_r: np.ndarray, target_t: np.ndarray,
         opts: IKOptions) -> tuple[np.ndarray, np.ndarray]:
    """Damped least squares for U targets, every attempt in one loop.

    Attempt 0 of target j starts from seeds[j] at iteration 0.  Attempts
    a = 1 ... K - 1 (K = max(opts.restarts, 1)) of the targets still
    unsolved start from starts[a - 1, j], (K - 1, U, 6), and join at
    iteration J = min(_IK_RESTART_AFTER, opts.max_iters + 1).  An
    iteration with no active row does nothing, so once every seed has
    stopped the loop goes straight on to J.  Every row works at its
    target's base (base_r[j], base_t[j]), gathered when the row set
    changes, and steps once per iteration: at iteration it, every seed
    has taken it steps and every restart it - J, so the max_iters stop
    and the cycle test's refreshes are decided per attempt class from
    it.  A row stops when it meets the tolerances, after opts.max_iters
    steps, as soon as an earlier attempt of its target has met them, or when a
    step takes it back to a configuration it held before.  So a call
    makes at most J + opts.max_iters + 1 fk_chain_batch calls.  Returns
    (q (U, 6), solved (U,)): each solved target's configuration from its
    first attempt that converged; unsolved rows are zeros.

    This is what running the attempts one after another returns.  A
    row's iterates depend only on its start, its target and its base, so
    the join moves when a row runs, not what it computes; the restart
    starts are the same whether or not an earlier attempt succeeds; and
    a restart that converges first does not stop the attempts before it,
    so the attempt kept is the first that converges.

    The last stop is Brent's cycle test (Brent 1980): each row saves
    its start, then its configuration after its steps 1, 2, 4, 8, ...,
    and is dropped when a later step lands on the saved one bit for bit.
    The saved state has already failed the tolerances, and a row's next
    state is a function of its state, target and base alone, so such a
    row would only cycle through failed states until max_iters; dropping
    it changes no result.
    """
    k, u = max(opts.restarts, 1), seeds.shape[0]
    join = min(_IK_RESTART_AFTER, opts.max_iters + 1)
    first = np.full(u, k)          # first converged attempt; k while none has
    out = np.zeros((u, N_JOINTS))
    eye = _IK_DAMPING * _IK_DAMPING * np.eye(6)
    # The active rows: their target, attempt and configuration, and the
    # saved configuration of the cycle test as int64 bit patterns.  They
    # are filtered only when rows stop, and a winning row is written out.
    tj, attempt, qa = np.arange(u), np.zeros(u, dtype=int), seeds
    saved, gathered = qa.view(np.int64).copy(), None
    for it in range(join + opts.max_iters + 1):
        if it == join and k > 1 and (rows := np.nonzero(first == k)[0]).size:
            new = starts[:, rows].reshape(-1, N_JOINTS)
            tj = np.concatenate([tj, np.tile(rows, k - 1)])
            attempt = np.concatenate([attempt, np.repeat(np.arange(1, k), rows.size)])
            qa, saved = np.concatenate([qa, new]), np.concatenate([saved, new.view(np.int64)])
        if tj.size == 0:
            continue
        if tj is not gathered:
            gathered = tj
            br, bt, tr, tt = base_r[tj], base_t[tj], target_r[tj], target_t[tj]
        cur_r, cur_t, origins, axes = fk_chain_batch(br, bt, qa)
        e_pos = tt - cur_t
        e_rot = rot_to_rotvec(tr @ cur_r.transpose(0, 2, 1))
        # Row norms as np.linalg.norm computes them.
        done = ((np.sqrt(np.add.reduce(e_pos * e_pos, axis=1)) < opts.pos_tol)
                & (np.sqrt(np.add.reduce(e_rot * e_rot, axis=1)) < opts.ori_tol))
        # Seeds stop at it == max_iters and restarts at join + max_iters.
        stop = (done | (attempt == 0) if it == opts.max_iters
                else done | (it == join + opts.max_iters))
        if stop.any():
            if done.any():
                np.minimum.at(first, tj[done], attempt[done])
                wins = done & (attempt == first[tj])
                out[tj[wins]] = qa[wins]
            keep = ~stop & (attempt < first[tj])
            tj, attempt, qa, saved = (a[keep] for a in (tj, attempt, qa, saved))
            if tj.size == 0:
                continue
            e_pos, e_rot = e_pos[keep], e_rot[keep]
            cur_t, origins, axes = cur_t[keep], origins[keep], axes[keep]
        jac = _chain_jacobian(cur_t, origins, axes)
        err = np.concatenate([e_pos, e_rot], axis=1)
        gram = jac @ jac.transpose(0, 2, 1) + eye
        y = np.linalg.solve(gram, err[..., None])[..., 0]
        dq = np.einsum("wji,wj->wi", jac, y)
        dq = np.minimum(np.maximum(dq, -_IK_STEP_CLAMP), _IK_STEP_CLAMP)
        qa = np.minimum(np.maximum(qa + dq, -_UR3_LIMIT), _UR3_LIMIT)
        # The cycle test of the docstring: compare, then refresh.
        cycling = (qa.view(np.int64) == saved).all(axis=1)
        if cycling.any():
            tj, attempt, qa, saved = (a[~cycling] for a in (tj, attempt, qa, saved))
        seed_fresh, restart_fresh = (s > 0 and (s & (s - 1)) == 0
                                     for s in (it + 1, it + 1 - join))
        if seed_fresh or restart_fresh:
            fresh = np.where(attempt > 0, restart_fresh, seed_fresh)
            saved = np.where(fresh[:, None], qa.view(np.int64), saved)
    return out, first < k
