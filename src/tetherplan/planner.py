"""Regrasp planning for a cable-suspended tool shared by two arms.

The planner searches a grasp graph.  Nodes are "arm X holds the tool
with grasp g while the tool rests at station S"; stations are the start
pose, a fixed set of handover poses and the goal pose, each named by a
content key (its name and pose bytes).  Edges are

  * approach: an arm moves from home to its grasp on the resting tool,
  * transfer: the holding arm carries the tool between two stations,
  * handover: at a handover station the second arm grasps the held
    tool, then the first arm withdraws to home.

Node feasibility is solved up front: before the search starts,
solve_stations runs IK for each grasp of one table, shared by both
arms, at every station the plan may visit, both arms in one grouped
batch, then clears each arm's solutions against the resting tool in one
call (a sweep does this once for all of its cells).  Which stations a
plan may visit is decided once per plan, by _stations.  Uniform-cost
search then orders paths by (edge count, summed joint distance).  Edge
feasibility is expensive, so the search is path-first (LazySP, Dellin
and Srinivasa 2016): it finds the best path with every unchecked edge
taken as valid, checks that path's edges in order, and searches again
without the first that fails.  Costs never change with validation, so
the first path whose edges all pass is the best valid one.  An edge
makes one FK call, both arms at every row: its link segments and a
carried tool's track come from it.  A valid edge keeps the rows it
checked with their bend angles and clearances, and the plan joins
those blocks, so each waypoint is measured once.  In constrained mode
every waypoint must keep the cable bend angle below the limit, and the
hanging cable is an obstacle until the tool is first grasped: a
constrained approach edge attaches it beside the tool shapes.  So an
edge's measurement (rows, bend angles, clearances) is kept apart from
the verdict a mode and a bend limit draw from it, and a cache shared by
both modes measures each transfer and handover once.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tetherplan.cable import CABLE, BalancerSpec, BendConstraint, ToolSpec, \
    bend_angle_batch
from tetherplan.collision import CollisionWorld, arm_link_segments, motion_clearances
from tetherplan.geometry import Pose, unit
from tetherplan.robot import DualArm, IKOptions, N_JOINTS, ik_batch

ROOT = "root"
ARMS = ("left", "right")        # the column order of MotionPlan.grasp


class EmptyGraspSet(Exception):
    """Grasp sampling produced no candidates."""


@dataclass(frozen=True)
class GraspSet:
    """Read-only gripper TCP frames r (G, 3, 3), t (G, 3) on the tool
    handle, in the tool frame; row g is grasp id g.  The TCP sits on the
    handle axis, y runs along the handle and z is the approach
    direction.  axial (G,) is the distance from the handle start, used
    to keep handover grasps apart."""

    r: np.ndarray
    t: np.ndarray
    axial: np.ndarray


def sample_grasps(tool: ToolSpec, axial_samples: int, roll_samples: int,
                  inset: float) -> GraspSet:
    """Evenly sampled side-on grasps along the tool handle, the rolls of
    each axial position in turn."""
    if axial_samples < 1 or roll_samples < 1:
        raise EmptyGraspSet("axial_samples and roll_samples must be at least 1")
    span = tool.handle_b - tool.handle_a
    length = float(np.linalg.norm(span))
    if length - 2.0 * inset <= 0.0:
        raise EmptyGraspSet(
            f"handle of length {length:.3f} m leaves no room inside "
            f"an inset of {inset:.3f} m")
    axis = span / length
    probe = np.array([1.0, 0.0, 0.0])
    if abs(float(axis @ probe)) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    normal = unit(probe - (probe @ axis) * axis)
    # Each roll's Rodrigues matrix, term by term as oracles.rot_axis_angle does.
    kx, ky, kz = unit(axis)
    khat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    psi = [2.0 * math.pi * j / roll_samples for j in range(roll_samples)]
    sin = np.array([math.sin(a) for a in psi])[:, None, None]
    versin = np.array([1.0 - math.cos(a) for a in psi])[:, None, None]
    approach = (np.eye(3) + sin * khat + versin * (khat @ khat)) @ normal
    frames = np.stack([np.cross(axis, approach),
                       np.broadcast_to(axis, approach.shape), approach], axis=2)
    positions = np.linspace(inset, length - inset, axial_samples)
    grasps = GraspSet(
        r=np.tile(frames, (axial_samples, 1, 1)),
        t=np.repeat(tool.handle_a + positions[:, None] * axis, roll_samples, axis=0),
        axial=np.repeat(positions, roll_samples))
    for arr in (grasps.r, grasps.t, grasps.axial):
        arr.flags.writeable = False
    return grasps


@dataclass(frozen=True)
class PlannerOptions:
    axial_samples: int = 5
    roll_samples: int = 12
    grasp_inset: float = 0.02
    interp_step: float = 0.05
    min_handover_separation: float = 0.065
    max_edges: int = 20000
    time_budget: float = 60.0
    ik: IKOptions = IKOptions()

    def __post_init__(self):
        if not 0.0 < self.interp_step < math.inf:
            raise ValueError("interp_step must be positive and finite")
        if not 0.0 < self.grasp_inset < math.inf:
            raise ValueError("grasp_inset must be positive and finite")
        if not 0.0 <= self.min_handover_separation < math.inf:
            raise ValueError("min_handover_separation must be finite and at least 0")
        if self.max_edges < 0:
            raise ValueError("max_edges must be at least 0")


@dataclass(frozen=True)
class PlanningProblem:
    """One pick-regrasp-place instance in a fixed scene.

    world holds the static obstacles; the planner attaches the cable
    where it applies.
    """

    robot: DualArm
    world: CollisionWorld
    balancer: BalancerSpec
    tool: ToolSpec
    constraint: BendConstraint
    start_pose: Pose
    goal_pose: Pose
    handover_poses: tuple[Pose, ...]
    home_left: np.ndarray
    home_right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "home_left",
                           np.asarray(self.home_left, dtype=float).reshape(N_JOINTS))
        object.__setattr__(self, "home_right",
                           np.asarray(self.home_right, dtype=float).reshape(N_JOINTS))
        if not (np.isfinite(self.home_left).all() and np.isfinite(self.home_right).all()):
            raise ValueError("home_left and home_right must be finite")
        if not self.handover_poses:
            raise ValueError("at least one handover pose is required")
        poses = (self.start_pose, self.goal_pose, *self.handover_poses)
        if not all(np.isfinite(p.r).all() and np.isfinite(p.t).all() for p in poses):
            raise ValueError("start, goal and handover poses must be finite")

    def home(self, side: str) -> np.ndarray:
        return self.home_left if side == "left" else self.home_right

    def one_arm_moves(self, side: str, qs: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(q_left, q_right) waypoints: side follows qs, the other arm
        stays home."""
        other = np.tile(self.home("right" if side == "left" else "left"),
                        (qs.shape[0], 1))
        return (qs, other) if side == "left" else (other, qs)


@dataclass(frozen=True)
class MotionPlan:
    """A validated waypoint path for both arms plus the carried tool.
    grasp (W, 2) is each waypoint's grasp id of each arm, columns in
    ARMS order (left, right), -1 where that arm does not hold the tool;
    theta and clearance are the bend angle and clearance validated per
    waypoint, the cable counted on constrained approach rows."""

    mode: str
    q_left: np.ndarray
    q_right: np.ndarray
    tool_rot: np.ndarray
    tool_t: np.ndarray
    grasp: np.ndarray
    theta: np.ndarray
    clearance: np.ndarray
    edge_kinds: tuple[str, ...]
    n_edges: int
    joint_distance: float

    def __post_init__(self):
        for name in ("q_right", "tool_rot", "tool_t", "grasp", "theta", "clearance"):
            if len(getattr(self, name)) != len(self.q_left):
                raise ValueError(f"{name} has {len(getattr(self, name))} rows, "
                                 f"q_left has {len(self.q_left)}")

    @property
    def n_waypoints(self) -> int:
        return self.q_left.shape[0]


@dataclass
class PlannerStats:
    """Counters of one plan() call.

    edges_validated: path edges checked, cache hits included.
    edges_rejected: failed checks per reason.
    nodes_settled: nodes settled, summed over every search pass.
    stations_pruned: stations over the bend limit (constrained only).
    """

    edges_validated: int = 0
    edges_rejected: dict = field(default_factory=dict)
    nodes_settled: int = 0
    stations_pruned: int = 0

    def reject(self, reason: str):
        self.edges_rejected[reason] = self.edges_rejected.get(reason, 0) + 1


@dataclass(frozen=True)
class PlanResult:
    plan: MotionPlan | None
    failure: str | None
    stats: PlannerStats


@dataclass
class PlanCache:
    """A sweep's memo of one scene: the grasp table, station grasp
    configs and edges.  bench.sweep shares one across its cells, each
    planned in both modes.

    claim's first call records the problem's scene (world, robot, tool
    and balancer by identity; the homes by value, as each
    PlanningProblem holds its own copy) and the options the planner
    tables depend on (bound: axial_samples, roll_samples, grasp_inset,
    interp_step and ik), and samples grasp_table, which both arms read;
    a later claim for another scene or under other values raises
    ValueError.  max_edges, time_budget and min_handover_separation
    enter no table, so they stay free.  node_feasible maps (station key,
    arm) to the collision-free grasp configs there, reach to their joint
    distances from the arm's home; solve_stations fills both up front,
    one grouped IK call for both arms, and the search only reads them.
    The edge tables fill lazily, keyed by edge specs that name stations
    by key: ("approach", start, arm, grasp), ("transfer", from, to, arm,
    grasp) and ("handover", station, giver, grasp, receiver, grasp).
    edge_measure maps (spec, cable attached) to the edge's measured block
    (rows, bend angles, clearances) and each row's nearest pair; only a
    constrained approach attaches the cable, so both modes share every
    transfer and handover measurement.  edge_verdict maps (spec,
    constrained, bend limit) to the block if the edge passes there, else
    the reason it fails.
    """

    node_feasible: dict = field(default_factory=dict)
    reach: dict = field(default_factory=dict)
    edge_measure: dict = field(default_factory=dict)
    edge_verdict: dict = field(default_factory=dict)
    bodies: tuple = field(default=(), init=False)
    homes: bytes = field(default=b"", init=False)
    bound: dict | None = field(default=None, init=False)
    grasp_table: GraspSet | None = field(default=None, init=False)
    _BOUND_FIELDS = ("axial_samples", "roll_samples", "grasp_inset", "interp_step", "ik")

    def claim(self, problem: PlanningProblem, options: PlannerOptions) -> GraspSet:
        """The grasp table; raises ValueError if another scene filled the
        cache or options differ from the first claim's in a bound value."""
        bodies = (problem.world, problem.robot, problem.tool, problem.balancer)
        homes = problem.home_left.tobytes() + problem.home_right.tobytes()
        if not self.bodies:
            self.bodies, self.homes = bodies, homes
        elif any(a is not b for a, b in zip(bodies, self.bodies)) or homes != self.homes:
            raise ValueError("a PlanCache serves only the scene that filled it")
        bound = {k: getattr(options, k) for k in self._BOUND_FIELDS}
        if self.bound is None:
            self.bound, self.grasp_table = bound, sample_grasps(
                problem.tool, options.axial_samples, options.roll_samples,
                options.grasp_inset)
        elif bound != self.bound:
            name = next(k for k in bound if bound[k] != self.bound[k])
            raise ValueError("a PlanCache serves only the options that filled "
                             f"it; {name} differs")
        return self.grasp_table


def _pose_key(pose: Pose) -> bytes:
    # Adding 0.0 turns -0.0 into +0.0, so equal poses get equal keys.
    return ((np.round(pose.r, 12) + 0.0).tobytes()
            + (np.round(pose.t, 12) + 0.0).tobytes())


def _stations(problem: PlanningProblem, constrained: bool,
              ) -> tuple[dict[bytes, Pose], bytes, bytes, int]:
    """Key -> pose of the stations a search may visit (start, handovers,
    goal), the start's and goal's keys, and the count pruned.  This is
    the planner's one pruning decision: in constrained mode a station
    stays while its cable bend angle is below the limit, and none stays
    if the start does not, since the search never leaves it then."""
    names = ["start", *(f"hover{k}" for k in range(len(problem.handover_poses))),
             "goal"]
    poses = [problem.start_pose, *problem.handover_poses, problem.goal_pose]
    keys = [name.encode() + _pose_key(pose) for name, pose in zip(names, poses)]
    live = np.ones(len(poses), dtype=bool)
    if constrained:
        live = bend_angle_batch(np.stack([p.r for p in poses]),
                                np.stack([p.t for p in poses]), problem.balancer,
                                problem.tool) < problem.constraint.theta_max
    visits = {key: pose for key, pose, ok in zip(keys, poses, live) if ok and live[0]}
    return visits, keys[0], keys[-1], int(np.count_nonzero(~live))


def solve_stations(problems, options: PlannerOptions, cache: PlanCache) -> None:
    """Fill cache.node_feasible for every station of the problems.

    Collects the (station key, arm) pairs of all problems that the cache
    lacks and solves them in one grouped ik_batch call, one group per
    pair at its arm's base, so every pair gets exactly the configs a
    call of its own would give.  Each arm's solved grasps then pass the
    static clearance check, the tool resting at their station, in one
    motion_clearances call.  Each station is solved at the first pose
    its key names.  Every problem is claimed, so all share the cache's
    scene, and the first one's robot, world, tool and homes serve them
    all; a problem of another scene raises ValueError.
    """
    stations: dict[bytes, Pose] = {}
    for problem in problems:
        grasps = cache.claim(problem, options)
        for key, pose in _stations(problem, False)[0].items():
            stations.setdefault(key, pose)
    if problems:
        _solve_stations(problems[0], stations, grasps, options.ik, cache)


def _solve_stations(problem: PlanningProblem, stations: dict[bytes, Pose],
                    grasps: GraspSet, ik: IKOptions, cache: PlanCache) -> None:
    """solve_stations on one key -> pose table, with problem's claimed grasps."""
    jobs = [(key, side, pose) for key, pose in stations.items()
            for side in ARMS if (key, side) not in cache.node_feasible]
    if not jobs:
        return
    g = grasps.axial.size
    right = np.array([side == "right" for _, side, _ in jobs])
    rot = np.stack([pose.r for *_, pose in jobs])
    t = np.stack([pose.t for *_, pose in jobs])
    # Grasp by grasp, these products are the ones oracles.compose forms.
    sols, ok = ik_batch(problem.robot.bases(np.repeat(right, g)),
                        np.concatenate([r @ grasps.r for r in rot]),
                        np.concatenate([(r @ grasps.t[..., None])[..., 0] + v
                                        for r, v in zip(rot, t)]),
                        np.repeat([problem.home(side) for _, side, _ in jobs], g, axis=0),
                        ik, [g] * len(jobs))
    sols = sols.reshape(len(jobs), g, N_JOINTS)
    feasible: list[dict[int, np.ndarray]] = [{} for _ in jobs]
    for side, mine in (("left", ~right), ("right", right)):
        rows, gids = np.nonzero(ok.reshape(len(jobs), g) & mine[:, None])
        if rows.size:
            ql, qr = problem.one_arm_moves(side, sols[rows, gids])
            clear, _, _ = motion_clearances(
                problem.world, arm_link_segments(problem.robot, problem.world.link_spec,
                                                 ql, qr)[0],
                *problem.tool.bodies(rot[rows], t[rows]))
            for row, gid in zip(rows[clear >= 0.0].tolist(),
                                gids[clear >= 0.0].tolist()):
                feasible[row][gid] = sols[row, gid]
    for (key, side, _), configs in zip(jobs, feasible):
        cache.node_feasible[(key, side)] = configs
        home = problem.home(side)
        cache.reach[(key, side)] = {gid: float(np.linalg.norm(q - home))
                                    for gid, q in configs.items()}


def interp_joints(qa: np.ndarray, qb: np.ndarray, step: float) -> np.ndarray:
    """Linear joint interpolation, per-joint increments at most step."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    widest = float(np.max(np.abs(qb - qa)))
    n = max(2, int(math.ceil(widest / step)) + 1)
    return np.linspace(qa, qb, n)


@dataclass
class _EdgeData:
    """One edge's waypoint rows; validation adds each row's bend angle
    and its clearance, the minimum over every pair it measured."""

    q_left: np.ndarray
    q_right: np.ndarray
    tool_rot: np.ndarray
    tool_t: np.ndarray
    grasp: np.ndarray
    kind: str
    theta: np.ndarray | None = None
    clearance: np.ndarray | None = None


class _Search:
    """Planner internals for one plan() call.  A station is named by its
    content key in nodes, edge specs and the cache; stations is the
    table _stations returns, start and goal its end keys."""

    def __init__(self, problem: PlanningProblem, constrained: bool,
                 options: PlannerOptions, cache: PlanCache):
        self.pb = problem
        self.constrained = constrained
        self.opt = options
        self.cache = cache
        self.grasps = cache.claim(problem, options)
        self.axial = self.grasps.axial.tolist()
        self.stations, self.start, self.goal, pruned = _stations(problem, constrained)
        self.stats = PlannerStats(stations_pruned=pruned)

    # ----- edge construction ------------------------------------------------

    def build_edge(self, spec: tuple) -> tuple[_EdgeData, np.ndarray]:
        """The edge's rows and its (W, 12, 2, 3) link segments, from one
        arm_link_segments call over its (q_left, q_right) rows.  A carried
        tool follows its holder's TCP poses from that call; a resting
        tool sits at the station on every row."""
        kind, feasible, step = spec[0], self.cache.node_feasible, self.opt.interp_step
        if kind == "transfer":
            _, src, dst, side, gid = spec
            qs = interp_joints(feasible[(src, side)][gid], feasible[(dst, side)][gid], step)
            ql, qr = self.pb.one_arm_moves(side, qs)
            holds = [(side, gid, slice(None))]
        elif kind == "approach":
            _, station, side, gid = spec
            qs = interp_joints(self.pb.home(side), feasible[(station, side)][gid], step)
            ql, qr = self.pb.one_arm_moves(side, qs)
            holds = [(side, gid, slice(-1, None))]
        elif kind == "handover":
            _, station, giver, ggid, recv, rgid = spec
            q_give = feasible[(station, giver)][ggid]
            q_recv = feasible[(station, recv)][rgid]
            seg1 = interp_joints(self.pb.home(recv), q_recv, step)
            seg2 = interp_joints(q_give, self.pb.home(giver), step)
            w1, w2 = seg1.shape[0], seg2.shape[0]
            give = np.vstack([np.tile(q_give, (w1, 1)), seg2[1:]])
            take = np.vstack([seg1, np.tile(q_recv, (w2 - 1, 1))])
            ql, qr = (give, take) if giver == "left" else (take, give)
            holds = [(giver, ggid, slice(w1)), (recv, rgid, slice(w1 - 1, None))]
        else:
            raise ValueError(f"unknown edge kind {kind!r}")
        grasp = np.full((len(ql), len(ARMS)), -1)
        for holder, grasp_id, rows in holds:
            grasp[rows, ARMS.index(holder)] = grasp_id
        links, rot, tcp = arm_link_segments(self.pb.robot, self.pb.world.link_spec,
                                            ql, qr)
        if kind == "transfer":
            arm = ARMS.index(side)
            tool_rot = rot[arm] @ self.grasps.r[gid].T
            tool_t = tcp[arm] - np.einsum("wij,j->wi", tool_rot, self.grasps.t[gid])
        else:
            pose = self.stations[station]
            tool_rot = np.broadcast_to(pose.r, (len(links), 3, 3))
            tool_t = np.broadcast_to(pose.t, (len(links), 3))
        return _EdgeData(ql, qr, tool_rot, tool_t, grasp, kind), links

    # ----- edge validation --------------------------------------------------

    def validate_edge(self, spec: tuple) -> _EdgeData | str:
        key = (spec, self.constrained, self.pb.constraint.theta_max)
        if key not in self.cache.edge_verdict:
            self.cache.edge_verdict[key] = self._validate_edge_uncached(spec)
        return self.cache.edge_verdict[key]

    def _validate_edge_uncached(self, spec: tuple) -> _EdgeData | str:
        """The edge's block with its bend angles and clearances, or the
        reason its first bad row fails; bend wins a tie with contact."""
        attached = self.constrained and spec[0] == "approach"
        key = (spec, attached)
        if key not in self.cache.edge_measure:
            self.cache.edge_measure[key] = self._measure_edge(spec, attached)
        data, pair_idx, pair_names = self.cache.edge_measure[key]
        # Only a transfer moves the tool away from a checked station.
        bent = (data.theta >= self.pb.constraint.theta_max) & (
            self.constrained and data.kind == "transfer")
        bad = bent | (data.clearance < 0.0)
        if not bad.any():
            return data
        first = int(np.argmax(bad))
        if bent[first]:
            return "bend"
        pair = pair_names[pair_idx[first]]
        return "cable_collision" if CABLE in pair else "collision"

    def _measure_edge(self, spec: tuple, attached: bool,
                      ) -> tuple[_EdgeData, np.ndarray, list[str]]:
        """The edge's block with its bend angles and clearances, the
        cable among the tool shapes if attached, and each row's nearest
        pair (index, pair names)."""
        data, links = self.build_edge(spec)
        data.theta = bend_angle_batch(data.tool_rot, data.tool_t,
                                      self.pb.balancer, self.pb.tool)
        data.clearance, pair_idx, pair_names = motion_clearances(
            self.pb.world, links,
            *self.pb.tool.bodies(data.tool_rot, data.tool_t,
                                 self.pb.balancer if attached else None))
        return data, pair_idx, pair_names

    # ----- search -----------------------------------------------------------

    def successors(self, node) -> list[tuple[tuple, tuple, float]]:
        """(successor node, edge spec, edge joint distance), in fixed order.
        An approach costs its reach, a handover the receiver's plus the giver's."""
        feasible, reach = self.cache.node_feasible, self.cache.reach
        if node == ROOT:
            return [(("node", self.start, side, gid), ("approach", self.start, side, gid),
                     dist) for side in ARMS if self.start in self.stations
                    for gid, dist in sorted(reach[(self.start, side)].items())]
        out = []
        _, station, side, gid = node
        if station == self.goal:
            return out
        q_here = feasible[(station, side)][gid]
        # From the start: the live hovers, then the goal; from a hover: the goal.
        if station == self.start:
            targets = list(self.stations)[1:]
        else:
            targets = [self.goal] if self.goal in self.stations else []
        for dst in targets:
            q_dst = feasible[(dst, side)].get(gid)
            if q_dst is None:
                continue
            dist = float(np.linalg.norm(q_dst - q_here))
            out.append((("node", dst, side, gid),
                        ("transfer", station, dst, side, gid), dist))
        if station != self.start:
            recv = "right" if side == "left" else "left"
            my_axial, withdraw = self.axial[gid], reach[(station, side)][gid]
            for rgid, dist in sorted(reach[(station, recv)].items()):
                if abs(self.axial[rgid] - my_axial) < \
                        self.opt.min_handover_separation:
                    continue
                out.append((("node", station, recv, rgid),
                            ("handover", station, side, gid, recv, rgid),
                            dist + withdraw))
        return out

    def _shortest_path(self, succ: dict, bad: set,
                       ) -> tuple[list[tuple] | None, tuple[int, float] | None]:
        """Uniform-cost search from ROOT to the first goal node settled,
        every edge not in bad taken as valid: the path's edge specs and
        its (edge count, joint distance), or (None, None).  succ memoizes
        successors across the passes of one run."""
        counter = 0
        heap: list[tuple] = [((0, 0.0), counter, ROOT, None, None)]
        parents: dict = {}
        while heap:
            cost, _, node, parent, spec = heapq.heappop(heap)
            if node in parents:
                continue
            parents[node] = (parent, spec)
            if node != ROOT:
                self.stats.nodes_settled += 1
                if node[1] == self.goal:
                    path = []
                    while node != ROOT:
                        node, spec = parents[node]
                        path.append(spec)
                    return path[::-1], cost
            if node not in succ:
                succ[node] = self.successors(node)
            edges, dist = cost
            for nxt, nxt_spec, nxt_dist in succ[node]:
                if nxt in parents or nxt_spec in bad:
                    continue
                counter += 1
                heapq.heappush(heap, ((edges + 1, dist + nxt_dist), counter,
                                      nxt, node, nxt_spec))
        return None, None

    def run(self) -> PlanResult:
        t0 = time.monotonic()
        _solve_stations(self.pb, self.stations, self.grasps, self.opt.ik, self.cache)
        succ: dict = {}
        bad: set = set()
        blocks: dict = {}
        while True:
            path, cost = self._shortest_path(succ, bad)
            if path is None:
                failure = "exhausted" if succ[ROOT] else "no_feasible_start"
                return PlanResult(plan=None, failure=failure, stats=self.stats)
            # Forward selector: check the path's unchecked edges in order
            # and search again after the first that fails.
            for spec in path:
                if spec in blocks:
                    continue
                if self.stats.edges_validated >= self.opt.max_edges or \
                        time.monotonic() - t0 > self.opt.time_budget:
                    return PlanResult(plan=None, failure="budget",
                                      stats=self.stats)
                self.stats.edges_validated += 1
                block = self.validate_edge(spec)
                if isinstance(block, str):
                    self.stats.reject(block)
                    bad.add(spec)
                    break
                blocks[spec] = block
            else:
                return PlanResult(
                    plan=self._assemble([blocks[spec] for spec in path], cost),
                    failure=None, stats=self.stats)

    # ----- plan assembly ----------------------------------------------------

    def _assemble(self, blocks: list[_EdgeData],
                  cost: tuple[int, float]) -> MotionPlan:
        # Consecutive edges share a waypoint; keep it once.
        q_left, q_right, tool_rot, tool_t, grasp, theta, clearance = (
            np.concatenate([getattr(b, f)[min(i, 1):] for i, b in enumerate(blocks)])
            for f in ("q_left", "q_right", "tool_rot", "tool_t", "grasp", "theta",
                      "clearance"))
        edges, dist = cost
        return MotionPlan(
            mode="constrained" if self.constrained else "unconstrained",
            q_left=q_left, q_right=q_right, tool_rot=tool_rot, tool_t=tool_t,
            grasp=grasp, theta=theta, clearance=clearance,
            edge_kinds=tuple(b.kind for b in blocks), n_edges=edges,
            joint_distance=dist)


def plan(problem: PlanningProblem, constrained: bool = True,
         options: PlannerOptions = PlannerOptions(),
         cache: PlanCache | None = None) -> PlanResult:
    """Plan a pick-(regrasp-)place motion; see the module docstring."""
    search = _Search(problem, constrained, options, cache or PlanCache())
    return search.run()
