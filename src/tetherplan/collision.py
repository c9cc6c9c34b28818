"""Primitive-shape distance queries and the dual-arm collision world.

Shapes are capsules and boxes; a sphere is a capsule whose two
endpoints coincide, so the only distance kernels are
segment-segment and segment-box, both exact closed forms (the latter
minimizes the piecewise-quadratic squared distance along the segment
one piece at a time).  Touching counts as free everywhere: a pair
collides only when its clearance is strictly negative.

A query assembles the arm, static and attached capsules (the tool's
shapes and its cable) of a batch of waypoints (an arm that keeps one
configuration on every row gets FK once) and a pair table, memoized on
the names, kinds and radii it reads.  _pair_clearances measures the dense (W, P) matrix of pair
clearances, the reference that motion_clearances is tested against.

motion_clearances returns the same matrix's minimum and first argmin
per row but measures only the entries that can decide them.  It
measures every _COARSE_STRIDE-th row and the last in full.  Moving a
segment's endpoints by at most d moves each of its points by at most
d, so its distance to another segment changes by at most d plus the
other's displacement, and boxes do not move.  On any other row k a
pair of capsules i, j therefore lies within c[a] +- (d_i + d_j) of its
clearance c[a] at each coarse neighbour a, with d the largest endpoint
displacement of a capsule between rows a and k (the distance bound of
Schwarzer, Saha and Latombe's adaptive collision checking, IEEE T-RO
2005, read off the capsules rather than the joint steps, so it holds
for rows that are not a motion).  An entry is measured only if its
lower bound is not above the row's least upper bound plus
_BOUND_MARGIN, which covers the float rounding of the bounds.  Every
skipped entry is then above the row's minimum, so the minimum and the
first column that attains it are measured, by the same kernels on the
same segments as in the dense matrix: the outputs equal the dense
min and np.argmin bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from tetherplan.geometry import Pose
from tetherplan.robot import N_JOINTS, ArmModel, DualArm, fk_batch

_DEG_EPS = 1e-14          # squared-length threshold for degenerate segments
_COARSE_STRIDE = 8        # motion_clearances measures every 8th row in full
_BOUND_MARGIN = 1e-9      # m; float rounding allowance of the displacement bound


@dataclass(frozen=True)
class Capsule:
    """Segment from a to b swept by a sphere of the given radius."""

    a: np.ndarray
    b: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if not (self.radius > 0.0):
            raise ValueError("capsule radius must be positive")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("capsule endpoints must be finite")


@dataclass(frozen=True)
class Box:
    pose: Pose
    half_extents: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=float)
        if not np.all(he > 0.0):
            raise ValueError("box half extents must be positive")
        object.__setattr__(self, "half_extents", he)


Shape = Capsule | Box


def _seg_seg_batch(p1, p2, q1, q2) -> np.ndarray:
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


def _seg_box_batch(p1, p2, box: Box) -> np.ndarray:
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


def capsule_segments(capsules: Iterable[Capsule]) -> tuple[np.ndarray, np.ndarray]:
    """Segments (K, 2, 3) and radii (K,) of capsules."""
    caps = list(capsules)
    segs = np.array([(c.a, c.b) for c in caps], dtype=float)
    return segs.reshape(-1, 2, 3), np.array([c.radius for c in caps], dtype=float)


@dataclass(frozen=True)
class ArmLinkSpec:
    """Capsule radii for the six links plus the gripper palm geometry.

    The last link capsule runs from the wrist joint to a palm point set
    back from the TCP along the tool axis, leaving the finger span
    uncovered so a closed grasp does not self-report contact.
    """

    radii: np.ndarray
    palm_setback: float = 0.07

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float).reshape(6)
        if not np.all(r > 0.0):
            raise ValueError("link radii must be positive")
        if not self.palm_setback > 0.0:
            # At or past the TCP the palm capsule reaches into the held
            # handle, and every grasp collides.
            raise ValueError("palm_setback must be positive")
        object.__setattr__(self, "radii", r)


_LINK_COUNT = 6
# Pairs of origin-array indices spanned by each link capsule; slot 7 is
# rewritten to the palm point before use.
_LINK_SPANS = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def link_names(side: str) -> list[str]:
    return [f"{side}/link{i + 1}" for i in range(_LINK_COUNT)]


class CollisionWorld:
    """Immutable scene of what never moves, plus the link geometry both
    arms share.

    Whatever moves with the tool (its shapes and its cable) is attached
    per query, one row per waypoint, and attached bodies are never
    measured against one another.
    """

    def __init__(self, statics: Mapping[str, Shape],
                 link_spec: ArmLinkSpec,
                 excluded_pairs: Iterable[tuple[str, str]] = ()):
        self.statics: dict[str, Shape] = dict(statics)
        self.link_spec = link_spec
        self.excluded = frozenset(frozenset(p) for p in excluded_pairs)


def arm_link_segments(arm: ArmModel, spec: ArmLinkSpec, qs: np.ndarray) -> np.ndarray:
    """Link capsule segments for a batch of configurations: (W, 6, 2, 3).

    An arm that keeps one configuration on every row gets FK of that
    row once, broadcast to every row (a read-only view).
    """
    qs = np.asarray(qs, dtype=float).reshape(-1, N_JOINTS)
    still = len(qs) > 1 and np.all(qs == qs[0])
    rot, tcp, origins = fk_batch(arm, qs[:1] if still else qs)
    pts = origins.copy()
    pts[:, 7] = tcp - spec.palm_setback * rot[:, :, 2]
    segs = np.empty((pts.shape[0], _LINK_COUNT, 2, 3))
    for k, (i, j) in enumerate(_LINK_SPANS):
        segs[:, k, 0] = pts[:, i]
        segs[:, k, 1] = pts[:, j]
    return np.broadcast_to(segs, (len(qs),) + segs.shape[1:]) if still else segs


@dataclass(frozen=True)
class _PairTable:
    """Precomputed query plan: which capsule/box pairs to measure.

    One entry per column, capsule pairs first, then capsule-box pairs.
    A capsule-box column has second == the capsule count, a slot that
    holds no capsule, and box >= 0; a capsule pair has box == -1.
    """

    first: np.ndarray             # capsule index
    second: np.ndarray            # capsule index, or the capsule count
    box: np.ndarray               # box index, or -1
    radius: np.ndarray            # radius sum of the pair
    pair_names: tuple[tuple[str, str], ...]


def _build_pair_table(world: CollisionWorld,
                      attached_names: Sequence[str],
                      attached_radii: Sequence[float]) -> _PairTable:
    """The pair table, memoized on everything it reads."""
    statics = tuple((n, None if isinstance(s, Box) else s.radius)
                    for n, s in world.statics.items())
    links = tuple(world.link_spec.radii.tolist())
    attached = tuple(zip(attached_names, map(float, attached_radii)))
    return _pair_table(statics, world.excluded, links, attached)


@functools.lru_cache(maxsize=64)
def _pair_table(statics: tuple[tuple[str, float | None], ...],
                excluded_pairs: frozenset,
                link_radii: tuple[float, ...],
                attached: tuple[tuple[str, float], ...]) -> _PairTable:
    names: list[str] = []
    radii: list[float] = []
    group: list[str] = []        # "left", "right", "static", "attached"
    for side in ("left", "right"):
        names += link_names(side)
        radii += link_radii
        group += [side] * _LINK_COUNT
    for n, r in statics:
        if r is not None:
            names.append(n)
            radii.append(r)
            group.append("static")
    for n, r in attached:
        names.append(n)
        radii.append(r)
        group.append("attached")

    def excluded(i: int, j: int) -> bool:
        gi, gj = group[i], group[j]
        if gi == gj and gi in ("static", "attached"):
            return True
        if gi == gj:  # same arm: skip adjacent links
            li = int(names[i].rsplit("link", 1)[1])
            lj = int(names[j].rsplit("link", 1)[1])
            if abs(li - lj) <= 1:
                return True
        if frozenset((names[i], names[j])) in excluded_pairs:
            return True
        return False

    n = len(names)
    first, second, box, pair_names = [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if excluded(i, j):
                continue
            first.append(i)
            second.append(j)
            box.append(-1)
            pair_names.append((names[i], names[j]))
    boxes = [name for name, r in statics if r is None]
    for bi, bname in enumerate(boxes):
        for i in range(n):
            if group[i] == "static":
                continue
            if frozenset((names[i], bname)) in excluded_pairs:
                continue
            first.append(i)
            second.append(n)
            box.append(bi)
            pair_names.append((names[i], bname))

    first_arr, second_arr, box_arr = (np.asarray(v, dtype=int)
                                      for v in (first, second, box))
    radii_arr = np.append(radii, 0.0)
    radius = radii_arr[first_arr] + radii_arr[second_arr]
    for arr in (first_arr, second_arr, box_arr, radius):
        arr.flags.writeable = False      # shared by every caller of the memo
    return _PairTable(first=first_arr, second=second_arr, box=box_arr,
                      radius=radius, pair_names=tuple(pair_names))


def _query(world: CollisionWorld, robot: DualArm,
           q_left: np.ndarray, q_right: np.ndarray,
           attached_segments: np.ndarray | None,
           attached_radii: Sequence[float],
           attached_names: Sequence[str]) -> tuple[np.ndarray, list[Box], _PairTable]:
    """Capsule segments (W, N, 2, 3), static boxes and the pair table."""
    q_left = np.asarray(q_left, dtype=float).reshape(-1, 6)
    q_right = np.asarray(q_right, dtype=float).reshape(-1, 6)
    w = q_left.shape[0]
    parts = [
        arm_link_segments(robot.left, world.link_spec, q_left),
        arm_link_segments(robot.right, world.link_spec, q_right),
    ]
    stat, _ = capsule_segments(s for s in world.statics.values()
                               if not isinstance(s, Box))
    parts.append(np.broadcast_to(stat, (w,) + stat.shape))
    if attached_segments is not None and len(attached_names):
        parts.append(np.asarray(attached_segments, dtype=float))
    boxes = [s for s in world.statics.values() if isinstance(s, Box)]
    table = _build_pair_table(world, attached_names, attached_radii)
    return np.concatenate(parts, axis=1), boxes, table


def _measure(caps: np.ndarray, boxes: Sequence[Box], table: _PairTable,
             rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Clearance of the entries (rows[m], cols[m]) of the (W, P) matrix."""
    out = np.empty(rows.size)
    box = table.box[cols]
    for bi in range(-1, len(boxes)):
        sel = np.nonzero(box == bi)[0]
        if not sel.size:
            continue
        r, c = rows[sel], cols[sel]
        a = caps[r, table.first[c]]
        if bi < 0:
            b = caps[r, table.second[c]]
            d = _seg_seg_batch(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        else:
            d = _seg_box_batch(a[:, 0], a[:, 1], boxes[bi])
        out[sel] = d - table.radius[c]
    return out


def _pair_clearances(world: CollisionWorld, robot: DualArm,
                     q_left: np.ndarray, q_right: np.ndarray,
                     attached_segments: np.ndarray | None,
                     attached_radii: Sequence[float],
                     attached_names: Sequence[str]) -> tuple[np.ndarray, _PairTable]:
    """Clearance of every active pair at every waypoint: ((W, P), table).

    The dense matrix; see motion_clearances for the arguments.  Columns
    follow table.pair_names.
    """
    caps, boxes, table = _query(world, robot, q_left, q_right,
                                attached_segments, attached_radii,
                                attached_names)
    w, p = caps.shape[0], len(table.pair_names)
    rows, cols = np.divmod(np.arange(w * p), p)
    return _measure(caps, boxes, table, rows, cols).reshape(w, p), table


def motion_clearances(world: CollisionWorld, robot: DualArm,
                      q_left: np.ndarray, q_right: np.ndarray,
                      attached_segments: np.ndarray | None = None,
                      attached_radii: Sequence[float] = (),
                      attached_names: Sequence[str] = ()) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Minimum clearance per waypoint over every active collision pair.

    q_left/q_right are (W, 6).  attached_segments, when given, is
    (W, K, 2, 3) world-frame segments of the capsule-like attached
    shapes named attached_names.

    Returns (clearance (W,), argmin pair index (W,), pair name table),
    equal bit for bit to the min and np.argmin of the dense matrix of
    _pair_clearances.  Only the entries that can decide a row's minimum
    are measured: every _COARSE_STRIDE-th row and the last in full, and
    on each other row the pairs that the displacement bound (module
    docstring) cannot place above the row's least upper bound plus
    _BOUND_MARGIN.  The rows need not form a motion.
    """
    caps, boxes, table = _query(world, robot, q_left, q_right,
                                attached_segments, attached_radii,
                                attached_names)
    w, p = caps.shape[0], len(table.pair_names)
    if not p:
        return np.full(w, np.inf), np.zeros(w, dtype=int), table.pair_names
    clear = np.full((w, p), np.inf)
    is_coarse = np.zeros(w, dtype=bool)
    is_coarse[::_COARSE_STRIDE] = is_coarse[-1:] = True
    coarse, fine = np.flatnonzero(is_coarse), np.flatnonzero(~is_coarse)
    rows, cols = np.divmod(np.arange(coarse.size * p), p)
    clear[coarse] = _measure(caps, boxes, table, coarse[rows], cols
                             ).reshape(coarse.size, p)
    if fine.size:
        lower = np.full((fine.size, p), -np.inf)
        upper = np.full((fine.size, p), np.inf)
        # Largest endpoint displacement of each capsule from a coarse
        # neighbour; the slot past the last capsule stays 0 for boxes.
        moved = np.zeros((fine.size, caps.shape[1] + 1))
        before = fine - fine % _COARSE_STRIDE
        for near in (before, np.minimum(before + _COARSE_STRIDE, w - 1)):
            step = caps[fine] - caps[near]
            moved[:, :-1] = np.sqrt(
                np.einsum("wnei,wnei->wne", step, step).max(axis=-1))
            slack = moved[:, table.first] + moved[:, table.second]
            lower = np.maximum(lower, clear[near] - slack)
            upper = np.minimum(upper, clear[near] + slack)
        rows, cols = np.nonzero(lower <= upper.min(axis=1, keepdims=True)
                                + _BOUND_MARGIN)
        clear[fine[rows], cols] = _measure(caps, boxes, table, fine[rows], cols)
    idx = np.argmin(clear, axis=1)
    return clear[np.arange(w), idx], idx, table.pair_names

