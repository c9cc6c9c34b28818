"""Independent oracles used by the test suite.

Everything here is deliberately written against first principles
(quaternion algebra, dense sampling, finite differences, homogeneous
matrix products) and never calls into the library code paths it is used
to check.  rot_axis_angle and compose are the Rodrigues rotation and the
pose product written out in full; the planner's stacked grasp table and
IK targets must equal them bit for bit.  closed_form_ik, the analytic
UR3 IK, reads only the chain's offsets and TCP from the library; the
tests that use it check its branches by FK.  There are nine exceptions.
stacked_rot_to_rotvec, the reference for the log map's elementwise
trace and one-gather skew part: rot_to_rotvec must equal it bit for
bit, so it shares the library's near-pi branch, _rotvec_near_pi.
sequential_ik_batch, the reference for ik_batch's restart schedule:
ik_batch must match it bit for bit, so it runs the library's own FK,
log-map and Jacobian kernels.  lone_attempt_schedule, the reference
for the rows of each FK call of ik_batch's joined loop, runs every
attempt alone with the same kernels, so that each stops where it
stops in the loop.  pop_and_check_search, the reference for
the planner's path-first search: plan() must return its plan, so it
drives a planner _Search's own successors, validate_edge and _assemble.
per_pair_successors, the reference for the search's edge costs: it
prices each (node, successor) pair of a _Search from its station
configs with 1-D norms of its own, and the costs that the search reads
from its reach table must equal them bit for bit.
row_by_row_parse_plan_csv, the reference for the whole-array plan
parser: it shares the file format's header, preamble parsers and holding
parser, converts each row on its own and fills its own (W, 2) grasp-id
array row by row.  per_grasp_sample_grasps and
per_pair_station_solve, the references for the whole-array grasp table
and station set-up: they build each grasp with rot_axis_angle and each
IK target with compose, prune stations by bend_angle_batch themselves,
and call ik_batch and motion_clearances, one clearance call per
(station, arm) pair, since the stacked forms must match these kernels
bit for bit.  loop_pair_table, the reference for the masked pair table:
it returns the library's _PairTable record, named by link_names.
dense_pair_clearances, the reference for motion_clearances's bounded
minimum: it measures every entry with the library's own query and
distance kernels, since the minimum must match it bit for bit.
einsum_seg_seg_batch, einsum_seg_box_batch and einsum_pair_bounds, the
references for the component-major clearance kernels and midpoint
bounds: they are those routines in their einsum form, which the
library's must equal bit for bit, so they share its _DEG_EPS.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from tetherplan import robot as rb
from tetherplan.cable import bend_angle_batch
from tetherplan.collision import _DEG_EPS, Box, _PairTable, _measure, \
    _query, arm_link_segments, link_names, motion_clearances
from tetherplan.planner import ROOT, MotionPlan, PlanResult, _solve_stations, \
    _stations
from tetherplan.geometry import Pose, _rotvec_near_pi, rot_to_rotvec, unit
from tetherplan.plan_io import _PREAMBLE, PLAN_HEADER, parse_holding


# --- Rodrigues rotation and pose composition, term by term ---

def rot_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (non-zero) axis."""
    kx, ky, kz = unit(axis)
    khat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * khat + (1.0 - math.cos(angle)) * (khat @ khat)


def compose(p: Pose, q: Pose) -> Pose:
    """Pose composition: the transform applying q first, then p."""
    return Pose(p.r @ q.r, p.r @ q.t + p.t)


def stacked_rot_to_rotvec(r: np.ndarray) -> np.ndarray:
    """rot_to_rotvec with the trace taken by np.einsum, the clamps by
    np.clip and the skew part built by np.stack."""
    r = np.asarray(r, dtype=float)
    rots = r.reshape(-1, 3, 3)
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
        out[idx] = _rotvec_near_pi(rots[idx])
    return out.reshape(r.shape[:-1])


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


def homogeneous(r, t) -> np.ndarray:
    """The 4x4 homogeneous matrix of rotation r and translation t."""
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


def fk_matrix_product(base_matrix: np.ndarray, axes, offsets, tcp_matrix: np.ndarray,
                      q: np.ndarray) -> np.ndarray:
    """Chain of per-joint 4x4 products: base * prod(Trans(off) Rot(axis, q)) * tcp."""
    return fk_matrix_chain(base_matrix, axes, offsets, tcp_matrix, q)[0]


def fk_matrix_chain(base_matrix: np.ndarray, axes, offsets, tcp_matrix: np.ndarray,
                    q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """fk_matrix_product with its frame chain: (TCP 4x4, origins (n+2, 3),
    world axes (n, 3)).

    The origins are the base origin, each joint's origin (its frame
    after Trans(off)) and the TCP point; joint i's world axis is that
    frame's rotation applied to axis i.
    """
    m = np.asarray(base_matrix, dtype=float).copy()
    origins, world_axes = [m[:3, 3].copy()], []
    for axis, off, angle in zip(axes, offsets, q):
        trans = np.eye(4)
        trans[:3, 3] = off
        m = m @ trans
        origins.append(m[:3, 3].copy())
        world_axes.append(m[:3, :3] @ np.asarray(axis, dtype=float))
        rot = np.eye(4)
        rot[:3, :3] = _axis_angle_matrix(axis, angle)
        m = m @ rot
    m = m @ tcp_matrix
    origins.append(m[:3, 3].copy())
    return m, np.array(origins), np.array(world_axes)


# --- joint limits and the sequential-restart IK reference ---

def in_limits(q) -> bool:
    """True when every joint of q lies within the UR3's +-2 pi range
    (1e-12 slack)."""
    return bool(np.all(np.abs(np.asarray(q, dtype=float)) <= 2.0 * math.pi + 1e-12))


# --- closed-form UR3 inverse kinematics (Hawkins 2013) ---

# The chain layout closed_form_ik is derived for: joint 1 turns about z,
# joints 2-4 and 6 about -y and joint 5 about -z, each in the frame the
# joint before leaves.
UR_AXES = np.array([[0, 0, 1], [0, -1, 0], [0, -1, 0], [0, -1, 0], [0, 0, -1],
                    [0, -1, 0]], dtype=float)


def closed_form_ik(base: Pose, target_r, target_t) -> np.ndarray:
    """All 8 analytic branches (B, 8, 6) of the UR3 at base for B TCP
    targets, NaN where a branch does not exist; angles in [-pi, pi).

    Hawkins 2013 ("Analytic Inverse Kinematics for the Universal Robots
    UR-5/UR-10 Arms"), written for this chain's axes (UR_AXES) and its
    offsets d1 (joint 2 above joint 1), a2, a3 (the two arm links), d4
    (joint 5 off the arm plane) and d5 (joint 6 off joint 5).  In the
    base frame, with R_i the rotation after joint i and u = R_1 y:
    - the flange pose F (the target less the TCP) puts the joint-6
      origin at w = F_t, and w . u = -d4, which gives q1 (2 branches);
    - joint 5's axis z4 = R_4 z is normal to u and to joint 6's axis
      F_r y, so z4 = +-(u x F_r y) / |u x F_r y| (2 branches);
    - the joint-4 origin w + d5 z4 + d4 u is a planar 2R problem in the
      arm plane for q2 and q3 (2 branches);
    - q4, q5 and q6 follow by atan2 from z4, F_r y and F_r x.
    A branch is returned as computed: its FK meets the target only where
    the target is reachable, which the caller checks.
    """
    offsets, tcp = rb._UR3_OFFSETS, rb._UR3_TCP
    d1, a2, a3 = offsets[1, 2], -offsets[2, 0], -offsets[3, 0]
    d4, d5 = -offsets[4, 1], -offsets[5, 2]
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    f_r = np.einsum("ji,wjk,lk->wil", base.r, target_r, tcp.r)
    w = np.einsum("ji,wj->wi", base.r, target_t - base.t) - f_r @ tcp.t
    x6, y6 = f_r[:, :, 0], f_r[:, :, 1]
    z = np.array([0.0, 0.0, 1.0])
    out = np.full((w.shape[0], 8, 6), np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        for b1, s1 in enumerate((1.0, -1.0)):
            q1 = s1 * np.arccos(-d4 / np.hypot(w[:, 0], w[:, 1])) \
                - np.arctan2(w[:, 0], w[:, 1])
            zero = np.zeros_like(q1)
            x1 = np.stack([np.cos(q1), np.sin(q1), zero], axis=1)
            u = np.stack([-np.sin(q1), np.cos(q1), zero], axis=1)
            cross = np.cross(u, y6)
            cross /= np.linalg.norm(cross, axis=1, keepdims=True)
            for b5, s5 in enumerate((1.0, -1.0)):
                z4 = s5 * cross
                arm = w + d5 * z4 + d4 * u - d1 * z
                reach_x, reach_z = -np.sum(arm * x1, axis=1), -arm[:, 2]
                c3 = (reach_x ** 2 + reach_z ** 2 - a2 ** 2 - a3 ** 2) / (2.0 * a2 * a3)
                theta = np.arctan2(-np.sum(z4 * x1, axis=1), z4[:, 2])
                x4 = np.cos(theta)[:, None] * x1 + np.sin(theta)[:, None] * z
                q5 = np.arctan2(np.sum(y6 * x4, axis=1), np.sum(y6 * u, axis=1))
                x5 = np.cos(q5)[:, None] * x4 - np.sin(q5)[:, None] * u
                q6 = np.arctan2(np.sum(x6 * z4, axis=1), np.sum(x6 * x5, axis=1))
                for b3, s3 in enumerate((1.0, -1.0)):
                    q3 = s3 * np.arccos(c3)
                    q2 = np.arctan2(reach_z, reach_x) - np.arctan2(
                        a3 * np.sin(q3), a2 + a3 * np.cos(q3))
                    q = np.stack([q1, q2, q3, theta - q2 - q3, q5, q6], axis=1)
                    out[:, 4 * b1 + 2 * b5 + b3] = (q + math.pi) % (2.0 * math.pi) - math.pi
    return out


def sequential_ik_batch(base, target_r, target_t, seed_config, opts, groups=None):
    """ik_batch as one loop over the attempts, run one after another.

    base is (base_r, base_t), one base for every target or one per
    target, as ik_batch takes it.  Attempt 0 starts every target from
    its seed; each later attempt draws a (group size, 6) block from each
    group's own np.random.default_rng(opts.seed) and restarts the
    targets still unsolved, until all are solved or opts.restarts
    attempts have run.  No target is pruned, so a target that the reach
    tests wrongly flag but the loop solves shows up as a difference.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b = target_r.shape[0]
    base_r = np.broadcast_to(np.asarray(base[0], dtype=float), (b, 3, 3))
    base_t = np.broadcast_to(np.asarray(base[1], dtype=float), (b, 3))
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
            cur_r, cur_t, origins, axes = rb.fk_chain_batch(base_r[idx], base_t[idx],
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


def lone_attempt_schedule(base, target_r, target_t, seed_config, opts, groups=None):
    """Active (seed, restart) rows (2, J + max_iters + 1) at each
    iteration of ik_batch's joined loop, from each attempt run alone.

    Every attempt of every target, with sequential_ik_batch's starts,
    runs as a row of its own from step 0.  It stops when it meets the
    tolerances, after opts.max_iters steps, or when a step lands bit for
    bit on the configuration saved at its start and after its steps 1,
    2, 4, 8, ... (Brent).  Then the rows are laid out on the loop's
    iterations: seeds from 0; the restarts of a target whose seed has
    not met the tolerances before J = min(_IK_RESTART_AFTER, max_iters
    + 1) from J, each up to the iteration at which an earlier attempt of
    its target meets them.  No target may be beyond reach.  base is as
    sequential_ik_batch takes it.
    """
    target_r = np.asarray(target_r, dtype=float).reshape(-1, 3, 3)
    target_t = np.asarray(target_t, dtype=float).reshape(-1, 3)
    b, k = target_r.shape[0], max(1, opts.restarts)
    sizes = [b] if groups is None else list(groups)
    rngs = [np.random.default_rng(opts.seed) for _ in sizes]
    lim, eye = rb._UR3_LIMIT, rb._IK_DAMPING * rb._IK_DAMPING * np.eye(6)
    q = np.concatenate([np.clip(np.broadcast_to(np.asarray(seed_config, dtype=float),
                                                (b, 6)), -lim, lim)]
                       + [np.concatenate([rng.uniform(-lim, lim, (g, 6))
                                          for rng, g in zip(rngs, sizes)])
                          for _ in range(k - 1)])
    tr, tt = np.tile(target_r, (k, 1, 1)), np.tile(target_t, (k, 1))
    br = np.tile(np.broadcast_to(np.asarray(base[0], dtype=float), (b, 3, 3)), (k, 1, 1))
    bt = np.tile(np.broadcast_to(np.asarray(base[1], dtype=float), (b, 3)), (k, 1))
    steps, met = np.zeros(k * b, dtype=int), np.zeros(k * b, dtype=bool)
    alive, saved = np.ones(k * b, dtype=bool), q.copy()
    for step in range(opts.max_iters + 1):
        idx = np.nonzero(alive)[0]
        steps[idx] += 1
        cur_r, cur_t, origins, axes = rb.fk_chain_batch(br[idx], bt[idx], q[idx])
        e_pos = tt[idx] - cur_t
        e_rot = rot_to_rotvec(tr[idx] @ cur_r.transpose(0, 2, 1))
        done = ((np.linalg.norm(e_pos, axis=1) < opts.pos_tol)
                & (np.linalg.norm(e_rot, axis=1) < opts.ori_tol))
        met[idx[done]], alive[idx[done]] = True, False
        idx = idx[~done]
        if idx.size == 0 or step == opts.max_iters:
            break
        jac = rb._chain_jacobian(cur_t[~done], origins[~done], axes[~done])
        err = np.concatenate([e_pos[~done], e_rot[~done]], axis=1)
        y = np.linalg.solve(jac @ jac.transpose(0, 2, 1) + eye, err[..., None])[..., 0]
        dq = np.clip(np.einsum("wji,wj->wi", jac, y), -rb._IK_STEP_CLAMP, rb._IK_STEP_CLAMP)
        q[idx] = np.clip(q[idx] + dq, -lim, lim)
        alive[idx[(q[idx].view(np.int64) == saved[idx].view(np.int64)).all(axis=1)]] = False
        if ((step + 1) & step) == 0:      # step + 1 is a power of two
            saved[idx] = q[idx]
    join = min(rb._IK_RESTART_AFTER, opts.max_iters + 1)
    begin = np.where(np.arange(k) > 0, join, 0)[:, None] + np.zeros(b, dtype=int)
    last = begin + steps.reshape(k, b) - 1
    met_at = np.where(met.reshape(k, b), last, np.iinfo(int).max)
    earlier = np.minimum.accumulate(np.vstack([np.full(b, np.iinfo(int).max), met_at[:-1]]))
    last = np.minimum(last, earlier)
    runs = np.vstack([np.ones(b, dtype=bool)] + [met_at[0] >= join] * (k - 1))
    active = np.zeros((2, join + opts.max_iters + 1), dtype=int)
    for a, j in zip(*np.nonzero(runs)):
        active[int(a > 0), begin[a, j]:last[a, j] + 1] += 1
    return active


# --- the pop-and-check uniform-cost search reference ---

def pop_and_check_search(search) -> PlanResult:
    """Uniform-cost search that validates an edge when its heap entry is
    popped, run on a planner _Search.

    Heap keys are ((edge count, joint distance), push counter) and
    successors come in search.successors order, as in plan().  Every
    popped entry of an unsettled node costs one validation, so the
    budget and stats.edges_validated count those; nodes_settled counts
    the nodes reached over a valid edge.  With no validation at all the
    failure is no_feasible_start.
    """
    t0 = time.monotonic()
    _solve_stations(search.pb, search.stations, search.grasps, search.opt.ik,
                    search.cache)
    stats = search.stats
    counter = 0
    heap: list[tuple] = []
    settled: dict = {ROOT: (0, 0.0)}
    parents: dict = {}
    goal_node = None
    for succ, spec, dist in search.successors(ROOT):
        counter += 1
        heapq.heappush(heap, ((1, dist), counter, succ, ROOT, spec))
    failure = "exhausted"
    while heap:
        if stats.edges_validated >= search.opt.max_edges or \
                time.monotonic() - t0 > search.opt.time_budget:
            failure = "budget"
            break
        (edges, dist), _, node, parent, spec = heapq.heappop(heap)
        if node in settled:
            continue
        stats.edges_validated += 1
        block = search.validate_edge(spec)
        if isinstance(block, str):
            stats.reject(block)
            continue
        settled[node] = (edges, dist)
        parents[node] = (parent, block)
        stats.nodes_settled += 1
        if node[1] == search.goal:
            goal_node = node
            break
        for succ, succ_spec, succ_dist in search.successors(node):
            if succ in settled:
                continue
            counter += 1
            heapq.heappush(heap, ((edges + 1, dist + succ_dist), counter,
                                  succ, node, succ_spec))
    if goal_node is None:
        if stats.edges_validated == 0 and failure == "exhausted":
            failure = "no_feasible_start"
        return PlanResult(plan=None, failure=failure, stats=stats)
    blocks = []
    node = goal_node
    while node != ROOT:
        node, block = parents[node]
        blocks.append(block)
    plan = search._assemble(blocks[::-1], settled[goal_node][1])
    return PlanResult(plan=plan, failure=None, stats=stats)


def per_pair_successors(search, node) -> list[tuple[tuple, tuple, float]]:
    """search.successors(node) with every cost its own 1-D norm: an
    approach's grasp from home, a transfer's between its two configs, a
    handover's receiver grasp from home plus home from the giver's."""
    out = []
    feasible = search.cache.node_feasible
    if node == ROOT:
        if search.start not in search.stations:
            return out
        for side in ("left", "right"):
            home = search.pb.home(side)
            for gid, q in sorted(feasible[(search.start, side)].items()):
                dist = float(np.linalg.norm(q - home))
                out.append((("node", search.start, side, gid),
                            ("approach", search.start, side, gid), dist))
        return out
    _, station, side, gid = node
    if station == search.goal:
        return out
    q_here = feasible[(station, side)][gid]
    if station == search.start:
        targets = list(search.stations)[1:]
    else:
        targets = [search.goal] if search.goal in search.stations else []
    for dst in targets:
        q_dst = feasible[(dst, side)].get(gid)
        if q_dst is None:
            continue
        dist = float(np.linalg.norm(q_dst - q_here))
        out.append((("node", dst, side, gid),
                    ("transfer", station, dst, side, gid), dist))
    if station != search.start:
        recv = "right" if side == "left" else "left"
        my_axial = search.grasps.axial[gid]
        for rgid, q_recv in sorted(feasible[(station, recv)].items()):
            if abs(search.grasps.axial[rgid] - my_axial) < \
                    search.opt.min_handover_separation:
                continue
            dist = (float(np.linalg.norm(q_recv - search.pb.home(recv)))
                    + float(np.linalg.norm(search.pb.home(side) - q_here)))
            out.append((("node", station, recv, rgid),
                        ("handover", station, side, gid, recv, rgid), dist))
    return out


# --- the per-grasp station set-up reference ---

def per_grasp_sample_grasps(tool, axial_samples: int, roll_samples: int,
                            inset: float):
    """sample_grasps one grasp at a time: a rot_axis_angle and a
    column_stack per grasp.  Returns r (G, 3, 3), t (G, 3), axial (G,)."""
    span = tool.handle_b - tool.handle_a
    length = float(np.linalg.norm(span))
    axis = span / length
    probe = np.array([1.0, 0.0, 0.0])
    if abs(float(axis @ probe)) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    normal = unit(probe - (probe @ axis) * axis)
    rots, points, axial = [], [], []
    for pos in np.linspace(inset, length - inset, axial_samples):
        for j in range(roll_samples):
            approach = rot_axis_angle(axis, 2.0 * math.pi * j / roll_samples) @ normal
            rots.append(np.column_stack([np.cross(axis, approach), axis, approach]))
            points.append(tool.handle_a + pos * axis)
            axial.append(float(pos))
    return np.stack(rots), np.stack(points), np.array(axial)


def per_pair_station_solve(problems, options, constrained: bool = False):
    """solve_stations on a fresh cache, one (station, arm) pair at a time.

    In constrained mode a station is kept while its bend_angle_batch
    angle is below the limit, and no station of a problem whose start
    is over it.  Each pair samples its own grasps
    (per_grasp_sample_grasps) and composes its targets grasp by grasp;
    the targets of all pairs go to one grouped ik_batch call, one group
    per pair, as in solve_stations.
    Each pair's solved grasps then get a motion_clearances call of their
    own, the other arm at home and the tool resting at the pair's
    station.  Returns (target_r, target_t, node_feasible).
    """
    jobs = []
    for problem in problems:
        stations = _stations(problem, False)[0]
        keys, poses = list(stations), list(stations.values())
        thetas = bend_angle_batch(np.stack([p.r for p in poses]),
                                  np.stack([p.t for p in poses]),
                                  problem.balancer, problem.tool)
        keep = (thetas < problem.constraint.theta_max if constrained
                else np.ones(len(poses), dtype=bool))
        if not keep[0]:
            continue
        for key, pose, kept in zip(keys, poses, keep):
            for side in ("left", "right"):
                if kept and (key, side) not in [job[:2] for job in jobs]:
                    jobs.append((key, side, problem, pose))
    if not jobs:
        return np.empty((0, 3, 3)), np.empty((0, 3)), {}
    targets, bases, sizes = [], [], []
    for _, side, problem, pose in jobs:
        rots, points, _ = per_grasp_sample_grasps(
            problem.tool, options.axial_samples, options.roll_samples,
            options.grasp_inset)
        targets += [compose(pose, Pose(r, t)) for r, t in zip(rots, points)]
        bases += [getattr(problem.robot, side)] * len(rots)
        sizes.append(len(rots))
    target_r = np.stack([t.r for t in targets])
    target_t = np.stack([t.t for t in targets])
    sols, ok = rb.ik_batch(
        (np.stack([p.r for p in bases]), np.stack([p.t for p in bases])),
        target_r, target_t,
        np.repeat([problem.home(side) for _, side, problem, _ in jobs],
                  sizes, axis=0),
        options.ik, sizes)
    feasible = {}
    lo = 0
    for (key, side, problem, pose), n in zip(jobs, sizes):
        configs = {}
        idx = np.nonzero(ok[lo:lo + n])[0]
        if idx.size:
            q = problem.one_arm_moves(side, sols[lo + idx])
            segs, radii, names = problem.tool.bodies(pose.r[None], pose.t[None])
            clear, _, _ = motion_clearances(
                problem.world,
                arm_link_segments(problem.robot, problem.world.link_spec, q)[0],
                np.broadcast_to(segs, (idx.size,) + segs.shape[1:]),
                radii, names)
            for j, gid in enumerate(idx):
                if clear[j] >= 0.0:
                    configs[int(gid)] = sols[lo + gid]
        feasible[(key, side)] = configs
        lo += n
    return target_r, target_t, feasible


# --- the row-by-row plan CSV parser reference ---

def _row_quat_to_rot(q: np.ndarray) -> np.ndarray:
    """One quaternion [w, x, y, z], normalized first by the square root
    of w*w + x*x + y*y + z*z, summed in that order as
    geometry.quat_to_rot sums it, with no BLAS call."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError(f"cannot normalize near-zero quaternion {q!r}")
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def row_by_row_parse_plan_csv(text: str) -> MotionPlan:
    """plan_io.parse_plan_csv one row at a time: float() per field and
    one quaternion per row, each error raised on its own line's turn."""
    meta, meta_lns = {}, {}
    nums, row_lns, ids = [], [], []
    header_seen = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header_seen:
                raise ValueError(f"line {ln}: preamble line after the header")
            key, _, value = (p.strip() for p in line.lstrip("# ").partition(":"))
            if key in meta_lns:
                raise ValueError(f"line {ln}: '# {key}:' repeats line "
                                 f"{meta_lns[key]}")
            meta_lns[key] = ln
            if key not in _PREAMBLE:
                raise ValueError(f"line {ln}: unknown preamble key {key!r}")
            try:
                meta[key] = _PREAMBLE[key](value)
            except ValueError as e:
                raise ValueError(f"line {ln}: {key}: {e}") from e
            continue
        if not header_seen:
            if line.split(",") != PLAN_HEADER:
                raise ValueError(f"line {ln}: unexpected plan CSV header")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != len(PLAN_HEADER):
            raise ValueError(f"line {ln}: expected {len(PLAN_HEADER)} "
                             f"fields, got {len(fields)}")
        if fields[0] != str(len(row_lns)):
            raise ValueError(f"line {ln}: waypoint {fields[0]!r}, "
                             f"expected {len(row_lns)}")
        try:
            ids.append(parse_holding(fields[20]))
            nums.append([float(v) for v in fields[1:20] + fields[21:]])
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
        row_lns.append(ln)
    if not header_seen or not row_lns:
        raise ValueError("plan CSV has no waypoint rows")
    for key in _PREAMBLE:
        if key not in meta:
            raise ValueError(f"plan CSV preamble is missing '# {key}:'")
    nums = np.array(nums)
    bad = np.nonzero(~np.isfinite(nums[:, :19]).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"line {row_lns[bad[0]]}: joint, quaternion and "
                         "position fields must be finite")
    grasp = np.full((len(row_lns), 2), -1, dtype=np.int64)
    for i, row in enumerate(ids):
        grasp[i] = row
    tool_rot = np.empty((len(row_lns), 3, 3))
    for i, ln in enumerate(row_lns):
        try:
            tool_rot[i] = _row_quat_to_rot(nums[i, 12:16])
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
    return MotionPlan(
        mode=meta["mode"], q=np.stack([nums[:, 0:6], nums[:, 6:12]], axis=1),
        tool_rot=tool_rot,
        tool_t=nums[:, 16:19].copy(), grasp=grasp,
        theta=nums[:, 19].copy(), clearance=nums[:, 20].copy(),
        edge_kinds=meta["edge_kinds"], joint_distance=meta["joint_distance_rad"])


# --- pair-by-pair pair table ---

def loop_pair_table(world, attached_names, attached_radii) -> _PairTable:
    """The clearance pair table, one candidate pair at a time.

    Reads the statics in world.statics order and tells adjacent links
    of one arm by the link numbers in their names.
    """
    names, radii, group = [], [], []
    for side in ("left", "right"):
        names += link_names(side)
        radii += world.link_spec.radii.tolist()
        group += [side] * len(link_names(side))
    for name, shape in world.statics.items():
        if not isinstance(shape, Box):
            names.append(name)
            radii.append(shape.radius)
            group.append("static")
    for name, radius in zip(attached_names, attached_radii, strict=True):
        names.append(name)
        radii.append(float(radius))
        group.append("attached")

    def skipped(i, j):
        if group[i] == group[j] and group[i] in ("static", "attached"):
            return True
        if group[i] == group[j] and abs(int(names[i].rsplit("link", 1)[1])
                                        - int(names[j].rsplit("link", 1)[1])) <= 1:
            return True
        return frozenset((names[i], names[j])) in world.excluded

    n = len(names)
    first, second, box, pair_names = [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if not skipped(i, j):
                first.append(i)
                second.append(j)
                box.append(-1)
                pair_names.append((names[i], names[j]))
    boxes = [name for name, shape in world.statics.items() if isinstance(shape, Box)]
    for bi, bname in enumerate(boxes):
        for i in range(n):
            if group[i] != "static" and frozenset((names[i], bname)) not in world.excluded:
                first.append(i)
                second.append(n)
                box.append(bi)
                pair_names.append((names[i], bname))
    first, second, box = (np.asarray(v, dtype=int) for v in (first, second, box))
    radii = np.append(radii, 0.0)
    return _PairTable(first=first, second=second, box=box,
                      radius=radii[first] + radii[second],
                      pair_names=tuple(pair_names))


# --- the dense clearance matrix ---

def dense_pair_clearances(world, links, attached_segments, attached_radii,
                          attached_names):
    """Clearance of every active pair at every waypoint: ((W, P), table).

    The arguments are motion_clearances's; columns follow
    table.pair_names.
    """
    caps, table = _query(world, links, attached_segments, attached_radii,
                         attached_names)
    w, p = caps.shape[-1], len(table.pair_names)
    cols, rows = np.divmod(np.arange(p * w), w)
    return _measure(caps, world.boxes, table, rows, cols).reshape(p, w).T, table


# --- the clearance kernels in their einsum form ---
#
# Verbatim copies of the kernels as they were before the clearance query
# went component-major, renamed only; (..., 3) rows in, and (W, N, 2, 3)
# capsules for einsum_pair_bounds, which returns (W, P) bounds.

def einsum_seg_seg_batch(p1, p2, q1, q2) -> np.ndarray:
    """Vectorized closest-distance between segment batches of shape (..., 3)."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = np.einsum("...i,...i", d1, d1)
    e = np.einsum("...i,...i", d2, d2)
    f = np.einsum("...i,...i", d2, r)
    c = np.einsum("...i,...i", d1, r)
    b = np.einsum("...i,...i", d1, d2)

    a_deg = a <= _DEG_EPS
    e_deg = e <= _DEG_EPS
    a_safe = np.where(a_deg, 1.0, a)
    e_safe = np.where(e_deg, 1.0, e)

    denom = a * e - b * b
    denom_ok = denom > _DEG_EPS * a_safe * e_safe
    s = np.where(denom_ok,
                 np.clip((b * f - c * e) / np.where(denom_ok, denom, 1.0), 0.0, 1.0),
                 0.0)
    t = (b * s + f) / e_safe
    t_low = t < 0.0
    t_high = t > 1.0
    t = np.clip(t, 0.0, 1.0)
    s = np.where(t_low, np.clip(-c / a_safe, 0.0, 1.0), s)
    s = np.where(t_high, np.clip((b - c) / a_safe, 0.0, 1.0), s)

    # Degenerate segments override the general solution.
    s = np.where(a_deg, 0.0, s)
    t = np.where(a_deg, np.clip(f / e_safe, 0.0, 1.0), t)
    t = np.where(e_deg, 0.0, t)
    s = np.where(e_deg & ~a_deg, np.clip(-c / a_safe, 0.0, 1.0), s)

    diff = (p1 + s[..., None] * d1) - (q1 + t[..., None] * d2)
    return np.linalg.norm(diff, axis=-1)


def einsum_seg_box_batch(p1, p2, box: Box) -> np.ndarray:
    """Exact segment-box distance, vectorized over leading axes of p1/p2.

    Along the segment the squared distance is a convex quadratic on each
    piece between face-plane crossings; take each piece's clamped vertex.
    No step calls BLAS, so a row's distance depends neither on the rows
    that share the call nor on the BLAS kernel.
    """
    a = np.einsum("...j,ji->...i", p1 - box.pose.t, box.pose.r)
    d = np.einsum("...j,ji->...i", p2 - box.pose.t, box.pose.r) - a
    half = box.half_extents
    dd = np.concatenate([d, d], axis=-1)
    cross = np.divide(np.concatenate([half - a, -half - a], axis=-1), dd,
                      out=np.zeros_like(dd), where=dd != 0.0)
    ends = np.broadcast_to([0.0, 1.0], a.shape[:-1] + (2,))
    knots = np.sort(np.concatenate([ends, np.clip(cross, 0.0, 1.0)], axis=-1), axis=-1)
    s0, s1 = knots[..., :-1], knots[..., 1:]
    a, d = a[..., None, :], d[..., None, :]
    mid = a + (0.5 * (s0 + s1))[..., None] * d
    side = (mid > half).astype(float) - (mid < -half)
    c, e = side * (a - side * half), side * d     # excess is c + s * e
    curv = np.einsum("...i,...i", e, e)
    s = np.clip(np.divide(-np.einsum("...i,...i", c, e), curv,
                          out=s0.copy(), where=curv > 0.0), s0, s1)
    excess = np.maximum(np.abs(a + s[..., None] * d) - half, 0.0)
    return np.linalg.norm(excess, axis=-1).min(axis=-1)


def einsum_pair_bounds(caps: np.ndarray, boxes: Sequence[Box],
                 table: _PairTable) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds (W, P) on the clearance matrix from each
    capsule's midpoint and half-length (module docstring); the midpoints
    are (3, N, W), so that a column gathers whole rows.
    """
    mid = np.ascontiguousarray((0.5 * (caps[:, :, 0] + caps[:, :, 1])).T)
    half = 0.5 * np.linalg.norm(caps[:, :, 1] - caps[:, :, 0], axis=-1).T
    upper, slack = np.empty((2, len(table.pair_names), caps.shape[0]))
    # The box columns follow the capsule pairs, box by box.
    edges = np.searchsorted(table.box, np.arange(len(boxes) + 1))
    first, second = table.first[:edges[0]], table.second[:edges[0]]
    gap = mid[:, first] - mid[:, second]
    upper[:edges[0]] = np.sqrt(np.einsum("ipw,ipw->pw", gap, gap))
    slack[:edges[0]] = half[first] + half[second]
    for box, lo, hi in zip(boxes, edges, edges[1:]):
        first = table.first[lo:hi]
        rel = mid[:, first] - box.pose.t[:, None, None]
        local = np.abs(np.einsum("jpw,ji->ipw", rel, box.pose.r))
        excess = np.maximum(local - box.half_extents[:, None, None], 0.0)
        upper[lo:hi] = np.sqrt(np.einsum("ipw,ipw->pw", excess, excess))
        slack[lo:hi] = half[first]
    upper -= table.radius[:, None]
    return (upper - slack).T, upper.T
