"""Primitive-shape distance queries and the dual-arm collision world.

Shapes are capsules and boxes; a sphere is a capsule whose two
endpoints coincide, so the only distance kernels are
segment-segment and segment-box, both exact closed forms (the latter
minimizes the piecewise-quadratic squared distance along the segment
one piece at a time).  Touching counts as free everywhere: a pair
collides only when its clearance is strictly negative.

A query assembles the arm, static and attached capsules (the tool's
shapes and its cable) of a batch of waypoints and the world's pair
table for the attached set, built once per world and attached set.
FK does not run inside the clearance routine: the caller hands it both
arms' link segments from arm_link_segments, whose one FK call also
returns the TCP poses that a caller's other checks read.
tests/oracles.py's dense_pair_clearances measures the dense (W, P)
matrix of pair clearances, the reference motion_clearances is tested on.

motion_clearances returns the same matrix's minimum and first argmin
per row but measures only the entries that can decide them.  A
segment's midpoint m lies on it, and each of its points within h, half
its length, of m.  So two segments lie between |m_i - m_j| - h_i - h_j
and |m_i - m_j| apart, and a segment and a box between
d(m_i, box) - h_i and d(m_i, box): a bounding-sphere broad phase per
row (Quinlan, ICRA 1994).  An entry is measured only if its lower bound
is not above the row's least upper bound plus _BOUND_MARGIN, which
covers the float rounding of the bounds.  Every skipped entry is then
above the row's minimum, so the minimum and the first column that
attains it are measured, by the same kernels on the same segments as
in the dense matrix: the outputs equal the dense min and np.argmin bit
for bit, and no row's result depends on another row.

A query keeps its capsules component-major, (2 endpoints, 3 xyz, N
capsules, W rows) in one contiguous array, so that the bounds and both
kernels run on contiguous (W,), (n,) or (7, n) planes instead of
strided length-3 rows.  The kernels keep their (..., 3) signature and
move xyz to the front.  Each length-3 contraction is an explicit sum in
the order that numpy (2.4) takes for the contiguous rows of the einsum
form these kernels replace: _dot3 sums (x0 y0 + x2 y2) + x1 y1, as
einsum("...i,...i") does, and _norm3 (x0² + x1²) + x2², as
np.linalg.norm(axis=-1) does.  Pinning the orders keeps every distance
bit for bit what it was, whatever the layout; einsum itself sums a
strided row in the other order.  tests/oracles.py holds the einsum
forms that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from tetherplan import robot as rb
from tetherplan.geometry import Pose
from tetherplan.robot import N_JOINTS, DualArm

_DEG_EPS = 1e-14          # squared-length threshold for degenerate segments
_BOUND_MARGIN = 1e-9      # m; float rounding allowance of the midpoint bounds


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
        if not (np.isfinite(he).all() and np.isfinite(self.pose.r).all()
                and np.isfinite(self.pose.t).all()):
            raise ValueError("box pose and half extents must be finite")
        object.__setattr__(self, "half_extents", he)


Shape = Capsule | Box


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over axis 0 of (3, ...) planes, summed in np.einsum's order
    for a contiguous length-3 row (module docstring)."""
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _norm3(x: np.ndarray) -> np.ndarray:
    """|x| over axis 0 of (3, ...) planes, summed in np.linalg.norm's
    order (module docstring)."""
    return np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])


def _seg_seg_batch(p1, p2, q1, q2) -> np.ndarray:
    """Vectorized closest-distance between segment batches of shape (..., 3)."""
    points = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in (p1, p2, q1, q2)))
    p1, p2, q1, q2 = (np.moveaxis(p, -1, 0) for p in points)
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = _dot3(d1, d1)
    e = _dot3(d2, d2)
    f = _dot3(d2, r)
    c = _dot3(d1, r)
    b = _dot3(d1, d2)

    a_deg = a <= _DEG_EPS
    e_deg = e <= _DEG_EPS
    a_safe = np.where(a_deg, 1.0, a)
    e_safe = np.where(e_deg, 1.0, e)

    denom = a * e - b * b
    denom_ok = denom > _DEG_EPS * a_safe * e_safe
    s = np.where(denom_ok,
                 ((b * f - c * e) / np.where(denom_ok, denom, 1.0)).clip(0.0, 1.0),
                 0.0)
    t = (b * s + f) / e_safe
    t_low = t < 0.0
    t_high = t > 1.0
    t = t.clip(0.0, 1.0)
    s = np.where(t_low, (-c / a_safe).clip(0.0, 1.0), s)
    s = np.where(t_high, ((b - c) / a_safe).clip(0.0, 1.0), s)

    # Degenerate segments override the general solution.
    s = np.where(a_deg, 0.0, s)
    t = np.where(a_deg, (f / e_safe).clip(0.0, 1.0), t)
    t = np.where(e_deg, 0.0, t)
    s = np.where(e_deg & ~a_deg, (-c / a_safe).clip(0.0, 1.0), s)

    return _norm3((p1 + s * d1) - (q1 + t * d2))


def _seg_box_batch(p1, p2, box: Box) -> np.ndarray:
    """Exact segment-box distance, vectorized over leading axes of p1/p2.

    Along the segment the squared distance is a convex quadratic on each
    piece between face-plane crossings; take each piece's clamped vertex.
    No step calls BLAS, so a row's distance depends neither on the rows
    that share the call nor on the BLAS kernel.
    """
    p1, p2 = np.broadcast_arrays(np.asarray(p1, dtype=float),
                                 np.asarray(p2, dtype=float))
    lead = p1.shape[:-1]
    # Contiguous (3, n) planes, whatever the layout of the rows.
    p1, p2 = (np.ascontiguousarray(np.moveaxis(p, -1, 0).reshape(3, -1))
              for p in (p1, p2))
    t = box.pose.t[:, None]
    a = np.einsum("jn,ji->in", p1 - t, box.pose.r)
    d = np.einsum("jn,ji->in", p2 - t, box.pose.r) - a
    half = box.half_extents[:, None]
    dd = np.concatenate([d, d])
    cross = np.divide(np.concatenate([half - a, -half - a]), dd,
                      out=np.zeros_like(dd), where=dd != 0.0)
    knots = np.empty((a.shape[1], 8))
    knots[:, :2] = 0.0, 1.0
    knots[:, 2:] = cross.clip(0.0, 1.0).T
    knots.sort(axis=-1)
    knots = np.ascontiguousarray(knots.T)
    s0, s1 = knots[:-1], knots[1:]
    a, d, half = a[:, None], d[:, None], half[:, None]
    mid = a + (0.5 * (s0 + s1)) * d
    side = (mid > half).astype(float) - (mid < -half)
    c, e = side * (a - side * half), side * d     # excess is c + s * e
    curv = _dot3(e, e)
    s = np.divide(-_dot3(c, e), curv, out=s0.copy(), where=curv > 0.0).clip(s0, s1)
    excess = np.maximum(np.abs(a + s * d) - half, 0.0)
    return _norm3(excess).min(axis=0).reshape(lead)[()]


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
# Origin-array indices spanned by each link capsule; slot 7 is
# rewritten to the palm point before use.
_LINK_SPANS = np.array([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])


def link_names(side: str) -> list[str]:
    return [f"{side}/link{i + 1}" for i in range(_LINK_COUNT)]


class CollisionWorld:
    """Immutable scene of what never moves, plus the link geometry both
    arms share, split once into what a clearance query reads.

    Whatever moves with the tool (its shapes and its cable) is attached
    per query, one row per waypoint, and attached bodies are never
    measured against one another.  pair_tables holds the pair table of
    each attached set that a query has named (_pair_table).
    """

    def __init__(self, statics: Mapping[str, Shape],
                 link_spec: ArmLinkSpec,
                 excluded_pairs: Iterable[tuple[str, str]] = ()):
        self.statics: Mapping[str, Shape] = MappingProxyType(dict(statics))
        self.link_spec = link_spec
        self.excluded = frozenset(frozenset(p) for p in excluded_pairs)
        caps = {n: s for n, s in self.statics.items() if not isinstance(s, Box)}
        self.capsule_names = tuple(caps)
        self.capsule_segments, self.capsule_radii = capsule_segments(caps.values())
        self.box_names = tuple(n for n in self.statics if n not in caps)
        self.boxes = tuple(self.statics[n] for n in self.box_names)
        self.pair_tables: dict[tuple, _PairTable] = {}


def arm_link_segments(robot: DualArm, spec: ArmLinkSpec, q_left: np.ndarray,
                      q_right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both arms' link segments (W, 12, 2, 3), the left arm's six links
    first, and TCP poses tcp_r (2, W, 3, 3) and tcp_t (2, W, 3), arm 0
    the left, of their (W, 6) configurations, from one fk_chain_batch
    call on 2W rows; ValueError unless their rows agree."""
    q_left, q_right = (np.asarray(q, dtype=float).reshape(-1, N_JOINTS)
                       for q in (q_left, q_right))
    w = len(q_left)
    if w != len(q_right):
        raise ValueError(f"q_left has {w} rows and q_right {len(q_right)}; "
                         "they must agree")
    rot, tcp, origins = rb.fk_chain_batch(
        *robot.bases(np.arange(2 * w) >= w), np.concatenate([q_left, q_right]))[:3]
    origins[:, 7] = tcp - spec.palm_setback * rot[:, :, 2]
    left, right = np.split(origins[:, _LINK_SPANS], 2)
    return (np.concatenate([left, right], axis=1), rot.reshape(2, w, 3, 3),
            tcp.reshape(2, w, 3))


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


def _pair_table(world: CollisionWorld, attached_names: Sequence[str],
                attached_radii: Sequence[float]) -> _PairTable:
    """The pair table of world with these bodies attached, built once
    per world and attached set.

    Capsules are numbered left links, right links, static capsules,
    attached bodies.  Capsule pairs come in np.triu_indices order, then
    each box with every capsule that moves, box by box.  No pair joins
    two statics, two attached bodies, adjacent links of one arm or two
    names that world.excluded pairs.
    """
    key = (tuple(attached_names), tuple(map(float, attached_radii)))
    if key in world.pair_tables:
        return world.pair_tables[key]
    names = [*link_names("left"), *link_names("right"), *world.capsule_names, *key[0]]
    n, n_box = len(names), len(world.boxes)
    # 0 and 1: an arm's links in chain order; 2: static; 3: attached.
    group = np.repeat([0, 1, 2, 3], [_LINK_COUNT, _LINK_COUNT,
                                     len(world.capsule_names), len(key[0])])
    i, j = np.triu_indices(n, 1)
    keep = (group[i] != group[j]) | ((group[i] < 2) & (j - i > 1))
    moving = np.flatnonzero(group != 2)
    # A pair's other body indexes names, and past them the boxes.
    first = np.concatenate([i[keep], np.tile(moving, n_box)])
    other = np.concatenate([j[keep], np.repeat(n + np.arange(n_box), moving.size)])
    every = names + list(world.box_names)
    pairs = [(every[a], every[b]) for a, b in zip(first.tolist(), other.tolist())]
    named = np.array([frozenset(p) not in world.excluded for p in pairs], dtype=bool)
    first, other = first[named], other[named]
    radius = np.concatenate([world.link_spec.radii, world.link_spec.radii,
                             world.capsule_radii, key[1], [0.0]])
    second = np.minimum(other, n)
    table = _PairTable(first=first, second=second, box=np.maximum(other - n, -1),
                       radius=radius[first] + radius[second],
                       pair_names=tuple(p for p, ok in zip(pairs, named) if ok))
    for arr in (table.first, table.second, table.box, table.radius):
        arr.flags.writeable = False      # shared by every query of world
    world.pair_tables[key] = table
    return table


def _query(world: CollisionWorld, links: np.ndarray,
           attached_segments: np.ndarray | None,
           attached_radii: Sequence[float],
           attached_names: Sequence[str]) -> tuple[np.ndarray, _PairTable]:
    """Capsule segments, component-major (2, 3, N, W), and the pair table.

    Raises ValueError unless links is (W, 12, 2, 3) and
    attached_segments has one row per waypoint, and attached_segments,
    attached_names and attached_radii one entry per attached body, and
    unless every link and attached segment is finite.
    """
    links = np.asarray(links, dtype=float)
    if links.ndim != 4 or links.shape[1:] != (2 * _LINK_COUNT, 2, 3):
        raise ValueError(f"links must be (W, {2 * _LINK_COUNT}, 2, 3), "
                         f"not {links.shape}")
    w = len(links)
    segs = np.asarray(np.empty((w, 0, 2, 3)) if attached_segments is None
                      else attached_segments, dtype=float)
    if segs.ndim != 4 or segs.shape[2:] != (2, 3):
        raise ValueError(f"attached_segments must be (W, K, 2, 3), not {segs.shape}")
    if w != len(segs):
        raise ValueError(f"links has {w} rows and attached_segments "
                         f"{len(segs)}; they must agree")
    if not segs.shape[1] == len(attached_names) == len(attached_radii):
        raise ValueError(f"attached_segments holds {segs.shape[1]} bodies, "
                         f"attached_names {len(attached_names)} and "
                         f"attached_radii {len(attached_radii)}; they must agree")
    if not (np.isfinite(links).all() and np.isfinite(segs).all()):
        raise ValueError("link and attached segments must be finite")
    n_link, n_static = 2 * _LINK_COUNT, len(world.capsule_segments)
    caps = np.empty((2, 3, n_link + n_static + segs.shape[1], w))
    caps[:, :, :n_link] = links.transpose(2, 3, 1, 0)
    caps[:, :, n_link:n_link + n_static] = world.capsule_segments.transpose(1, 2, 0)[..., None]
    caps[:, :, n_link + n_static:] = segs.transpose(2, 3, 1, 0)
    return caps, _pair_table(world, attached_names, attached_radii)


def _measure(caps: np.ndarray, boxes: Sequence[Box], table: _PairTable,
             rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Clearance of the entries (cols[m], rows[m]) of the (P, W) matrix,
    cols ascending.

    Each kernel call takes the (n, 3) views of its entries' endpoints,
    gathered from caps as contiguous (3, n) planes, so that the kernels
    run on contiguous planes.
    """
    w = caps.shape[-1]
    flat = caps.reshape(2, 3, -1)
    out = np.empty(rows.size)
    # The box columns follow the capsule pairs, box by box.
    edges = np.searchsorted(cols, np.searchsorted(table.box, np.arange(-1, len(boxes) + 1)))
    for bi, lo, hi in zip(range(-1, len(boxes)), edges, edges[1:]):
        if lo == hi:
            continue
        r, c = rows[lo:hi], cols[lo:hi]
        a = np.take(flat, table.first[c] * w + r, axis=2)
        if bi < 0:
            b = np.take(flat, table.second[c] * w + r, axis=2)
            d = _seg_seg_batch(a[0].T, a[1].T, b[0].T, b[1].T)
        else:
            d = _seg_box_batch(a[0].T, a[1].T, boxes[bi])
        out[lo:hi] = d - table.radius[c]
    return out


def _pair_bounds(caps: np.ndarray, boxes: Sequence[Box],
                 table: _PairTable) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds (P, W) on the clearance matrix from each
    capsule's midpoint and half-length (module docstring).

    The midpoints are (3, N, W) planes, so that a column gathers whole
    rows and each bound is one contiguous (W,) row.
    """
    mid = 0.5 * (caps[0] + caps[1])
    half = 0.5 * _norm3(caps[1] - caps[0])
    upper, slack = np.empty((2, len(table.pair_names), caps.shape[-1]))
    # The box columns follow the capsule pairs, box by box.
    edges = np.searchsorted(table.box, np.arange(len(boxes) + 1))
    first, second = table.first[:edges[0]], table.second[:edges[0]]
    upper[:edges[0]] = _norm3(np.take(mid, first, axis=1) - np.take(mid, second, axis=1))
    slack[:edges[0]] = np.take(half, first, axis=0) + np.take(half, second, axis=0)
    for box, lo, hi in zip(boxes, edges, edges[1:]):
        first = table.first[lo:hi]
        rel = np.take(mid, first, axis=1) - box.pose.t[:, None, None]
        local = np.abs(np.einsum("jpw,ji->ipw", rel, box.pose.r))
        upper[lo:hi] = _norm3(np.maximum(local - box.half_extents[:, None, None], 0.0))
        slack[lo:hi] = np.take(half, first, axis=0)
    upper -= table.radius[:, None]
    return upper - slack, upper


def motion_clearances(world: CollisionWorld, links: np.ndarray,
                      attached_segments: np.ndarray | None = None,
                      attached_radii: Sequence[float] = (),
                      attached_names: Sequence[str] = ()) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Minimum clearance per waypoint over every active collision pair.

    links is both arms' (W, 12, 2, 3) link segments (arm_link_segments).
    attached_segments, when given, is (W, K, 2, 3) world-frame segments
    of the capsule-like attached shapes named attached_names.

    Returns (clearance (W,), argmin pair index (W,), pair name table),
    equal bit for bit to the min and np.argmin of the dense matrix
    (tests/oracles.py's dense_pair_clearances).  Only the entries that
    can decide a row's minimum are measured: those whose midpoint lower
    bound (module docstring) is not above the row's least upper bound
    plus _BOUND_MARGIN, all in one _measure call.  The rows need not
    form a motion.
    """
    caps, table = _query(world, links, attached_segments, attached_radii,
                         attached_names)
    p, w = len(table.pair_names), caps.shape[-1]
    if not p:
        return np.full(w, np.inf), np.zeros(w, dtype=int), table.pair_names
    lower, upper = _pair_bounds(caps, world.boxes, table)
    cols, rows = np.nonzero(lower <= upper.min(axis=0) + _BOUND_MARGIN)
    clear = np.full((p, w), np.inf)
    clear[cols, rows] = _measure(caps, world.boxes, table, rows, cols)
    idx = np.argmin(clear, axis=0)
    return clear[idx, np.arange(w)], idx, table.pair_names
