"""Regrasp planning for a cable-suspended tool shared by two arms.

The planner searches a grasp graph.  Nodes are "arm X holds the tool
with grasp g while the tool rests at station S"; stations are the start
pose, a fixed set of handover poses, and the goal pose.  Edges are

  * approach: an arm moves from home to its grasp on the resting tool,
  * transfer: the holding arm carries the tool between two stations,
  * handover: at a handover station the second arm grasps the held
    tool, then the first arm withdraws to home.

Node feasibility is solved up front: before the search starts,
solve_stations runs IK for every station the plan may visit, the
stations of both arms in one grouped batch (a sweep does this once for
all of its cells).  Uniform-cost search then orders paths by (edge
count, summed joint distance).  Edge feasibility is expensive, so the
search is path-first (LazySP, Dellin and Srinivasa 2016): it finds the
best path with every unchecked edge taken as valid, checks that path's
edges in order, and searches again without the first that fails.
Costs never change with validation, so the first path whose edges all
pass is the best valid one.  A valid edge keeps the rows it checked
with their bend angles and clearances, and the plan joins those
blocks, so each waypoint is measured once.  In constrained mode every
waypoint must keep the cable bend angle below the limit, and the
hanging cable is an obstacle until the tool is first grasped: a
constrained approach edge attaches it beside the tool shapes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tetherplan.cable import CABLE, BalancerSpec, BendConstraint, ToolSpec, \
    bend_angle_batch, cable_segments
from tetherplan.collision import CollisionWorld, motion_clearances
from tetherplan.geometry import Pose, compose, rot_axis_angle, unit
from tetherplan.robot import DualArm, IKOptions, N_JOINTS, fk_batch, ik_batch

ROOT = "root"


class EmptyGraspSet(Exception):
    """Grasp sampling produced no candidates."""


@dataclass(frozen=True)
class GraspCandidate:
    """A gripper TCP pose on the tool handle, in the tool frame.

    The TCP sits on the handle axis; the frame's y axis runs along the
    handle and its z axis is the approach direction.  axial is the
    distance of the grasp point from the handle start, used to keep
    handover grasps apart.
    """

    side: str
    grasp_id: int
    pose_tool: Pose
    axial: float


def sample_grasps(tool: ToolSpec, side: str, axial_samples: int = 5,
                  roll_samples: int = 12, inset: float = 0.02,
                  ) -> tuple[GraspCandidate, ...]:
    """Evenly sampled side-on grasps along the tool handle."""
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
    positions = np.linspace(inset, length - inset, axial_samples)
    out = []
    for i, pos in enumerate(positions):
        point = tool.handle_a + pos * axis
        for j in range(roll_samples):
            psi = 2.0 * math.pi * j / roll_samples
            approach = rot_axis_angle(axis, psi) @ normal
            rot = np.column_stack([np.cross(axis, approach), axis, approach])
            out.append(GraspCandidate(side=side,
                                      grasp_id=i * roll_samples + j,
                                      pose_tool=Pose(rot, point),
                                      axial=float(pos)))
    return tuple(out)


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
        if not self.handover_poses:
            raise ValueError("at least one handover pose is required")

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
    """A validated waypoint path for both arms plus the carried tool;
    theta and clearance are the bend angle and clearance validated per
    waypoint, the cable counted on constrained approach rows."""

    mode: str
    q_left: np.ndarray
    q_right: np.ndarray
    tool_rot: np.ndarray
    tool_t: np.ndarray
    holding: tuple[tuple[tuple[str, int], ...], ...]
    theta: np.ndarray
    clearance: np.ndarray
    edge_kinds: tuple[str, ...]
    n_edges: int
    joint_distance: float

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

    @property
    def success(self) -> bool:
        return self.plan is not None


@dataclass
class PlanCache:
    """Cross-call memo for grasp sets, station grasp configs and edge
    verdicts.

    grasps maps (handle end bytes, arm, sampling options) to the
    sample_grasps result, so a sweep samples each arm's grasps once.
    node_feasible maps (station key, arm) to the collision-free grasp
    configs there; solve_stations fills it up front, one grouped IK
    call for both arms, and the search only reads it.  edge_verdict fills
    lazily as edges are validated: it holds a passing edge's block
    (rows, bend angles, clearances) and a failing edge's reason.  Keys
    are content-addressed (station name and pose bytes), so a cache
    shared across a parameter sweep of one scene is safe: identical
    queries recur whenever rows share a goal pose or columns share a
    start pose, and the handover stations never change.
    """

    grasps: dict = field(default_factory=dict)
    node_feasible: dict = field(default_factory=dict)
    edge_verdict: dict = field(default_factory=dict)

    def grasp_set(self, tool: ToolSpec, side: str,
                  options: PlannerOptions) -> tuple[GraspCandidate, ...]:
        """sample_grasps(tool, side, ...) under options, memoized."""
        key = (tool.handle_a.tobytes(), tool.handle_b.tobytes(), side,
               options.axial_samples, options.roll_samples,
               options.grasp_inset)
        if key not in self.grasps:
            self.grasps[key] = sample_grasps(
                tool, side, options.axial_samples, options.roll_samples,
                options.grasp_inset)
        return self.grasps[key]


def _pose_key(pose: Pose) -> bytes:
    # Adding 0.0 turns -0.0 into +0.0, so equal poses get equal keys.
    return ((np.round(pose.r, 12) + 0.0).tobytes()
            + (np.round(pose.t, 12) + 0.0).tobytes())


def _stations(problem: PlanningProblem,
              ) -> tuple[list[Pose], list[bytes], np.ndarray]:
    """Poses, content keys and cable bend angles of the stations: the
    start, every handover, then the goal."""
    names = ["start", *(f"hover{k}" for k in range(len(problem.handover_poses))),
             "goal"]
    poses = [problem.start_pose, *problem.handover_poses, problem.goal_pose]
    keys = [name.encode() + _pose_key(pose) for name, pose in zip(names, poses)]
    thetas = bend_angle_batch(np.stack([p.r for p in poses]),
                              np.stack([p.t for p in poses]),
                              problem.balancer, problem.tool)
    return poses, keys, thetas


def solve_stations(problems, options: PlannerOptions, cache: PlanCache,
                   constrained: bool = False) -> None:
    """Fill cache.node_feasible for every station a plan may visit.

    Collects the (station, arm) pairs of all problems that the cache
    lacks and solves them in one grouped ik_batch call, one group per
    pair on that pair's arm, so every pair gets exactly the configs a
    call of its own would give.  Solved grasps then pass the static
    clearance check at their station.  In constrained mode stations that
    break the bend limit are skipped, and so are all stations of a
    problem whose start breaks it, since its search never leaves the
    start.  Problems sharing a cache must share a scene; see PlanCache.
    """
    jobs = []
    seen = set(cache.node_feasible)
    for problem in problems:
        poses, keys, thetas = _stations(problem)
        stations = list(zip(keys, poses))
        if constrained:
            ok = thetas < problem.constraint.theta_max
            if not ok[0]:
                continue
            stations = [st for st, keep in zip(stations, ok) if keep]
        for key, pose in stations:
            for side in ("left", "right"):
                if (key, side) in seen:
                    continue
                seen.add((key, side))
                jobs.append((key, side, problem, pose))
    if not jobs:
        return
    grasps = [cache.grasp_set(problem.tool, side, options)
              for _, side, problem, _ in jobs]
    targets = [compose(pose, g.pose_tool)
               for (*_, pose), gs in zip(jobs, grasps) for g in gs]
    sizes = [len(gs) for gs in grasps]
    seeds = np.repeat([problem.home(side) for _, side, problem, _ in jobs],
                      sizes, axis=0)
    arms = [problem.robot.arm(side) for _, side, problem, _ in jobs]
    sols, ok = ik_batch(arms, np.stack([t.r for t in targets]),
                        np.stack([t.t for t in targets]),
                        seeds, options.ik, sizes)
    lo = 0
    for (key, side, problem, pose), n in zip(jobs, sizes):
        cache.node_feasible[(key, side)] = _clear_grasps(
            problem, side, pose, sols[lo:lo + n], ok[lo:lo + n])
        lo += n


def _clear_grasps(problem: PlanningProblem, side: str, pose: Pose,
                  sols: np.ndarray, ok: np.ndarray) -> dict[int, np.ndarray]:
    """gid -> config of the solved grasps that clear the resting tool."""
    feasible: dict[int, np.ndarray] = {}
    idx = np.nonzero(ok)[0]
    if idx.size:
        ql, qr = problem.one_arm_moves(side, sols[idx])
        _, radii, names = problem.tool.shape_segments()
        segs = problem.tool.segments_world(pose.r[None], pose.t[None])
        att = np.broadcast_to(segs, (idx.size,) + segs.shape[1:])
        clear, _, _ = motion_clearances(problem.world, problem.robot, ql, qr,
                                        att, radii, names)
        for j, gid in enumerate(idx):
            if clear[j] >= 0.0:
                feasible[int(gid)] = sols[gid]
    return feasible


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
    holding: tuple
    kind: str
    theta: np.ndarray | None = None
    clearance: np.ndarray | None = None


class _Search:
    """Planner internals for one plan() call."""

    def __init__(self, problem: PlanningProblem, constrained: bool,
                 options: PlannerOptions, cache: PlanCache):
        self.pb = problem
        self.constrained = constrained
        self.opt = options
        self.cache = cache
        self.stats = PlannerStats()
        self.grasps = {side: cache.grasp_set(problem.tool, side, options)
                       for side in ("left", "right")}
        self.station_poses, self.station_keys, self.theta_station = _stations(problem)
        self.goal_idx = len(self.station_poses) - 1
        _, self.tool_radii, self.tool_names = problem.tool.shape_segments()
        if constrained:
            self.stats.stations_pruned = sum(
                1 for th in self.theta_station
                if th >= problem.constraint.theta_max)

    # ----- node feasibility -------------------------------------------------

    def node_configs(self, station: int, side: str) -> dict[int, np.ndarray]:
        """Feasible grasp configs at a station: gid -> joint vector.

        Reads the cache that solve_stations filled.
        """
        return self.cache.node_feasible[(self.station_keys[station], side)]

    def station_ok(self, station: int) -> bool:
        if not self.constrained:
            return True
        return self.theta_station[station] < self.pb.constraint.theta_max

    # ----- edge construction ------------------------------------------------

    def _tool_track(self, side: str, grasp: GraspCandidate, qs: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Tool pose per waypoint while side holds it with grasp."""
        tcp_r, tcp_t, _ = fk_batch(self.pb.robot.arm(side), qs)
        tool_rot = tcp_r @ grasp.pose_tool.r.T
        tool_t = tcp_t - np.einsum("wij,j->wi", tool_rot, grasp.pose_tool.t)
        return tool_rot, tool_t

    def build_edge(self, spec: tuple) -> _EdgeData:
        kind = spec[0]
        if kind == "approach":
            _, side, gid = spec
            q_grasp = self.node_configs(0, side)[gid]
            qs = interp_joints(self.pb.home(side), q_grasp, self.opt.interp_step)
            w = qs.shape[0]
            ql, qr = self.pb.one_arm_moves(side, qs)
            pose = self.station_poses[0]
            rot = np.broadcast_to(pose.r, (w, 3, 3))
            t = np.broadcast_to(pose.t, (w, 3))
            holding = tuple(() if i < w - 1 else ((side, gid),) for i in range(w))
            return _EdgeData(ql, qr, rot, t, holding, kind)
        if kind == "transfer":
            _, src, dst, side, gid = spec
            q_from = self.node_configs(src, side)[gid]
            q_to = self.node_configs(dst, side)[gid]
            qs = interp_joints(q_from, q_to, self.opt.interp_step)
            w = qs.shape[0]
            ql, qr = self.pb.one_arm_moves(side, qs)
            grasp = self.grasps[side][gid]
            rot, t = self._tool_track(side, grasp, qs)
            holding = tuple((((side, gid),),) * w)
            return _EdgeData(ql, qr, rot, t, holding, kind)
        if kind == "handover":
            _, station, giver, ggid, recv, rgid = spec
            q_give = self.node_configs(station, giver)[ggid]
            q_recv = self.node_configs(station, recv)[rgid]
            seg1 = interp_joints(self.pb.home(recv), q_recv, self.opt.interp_step)
            seg2 = interp_joints(q_give, self.pb.home(giver), self.opt.interp_step)
            w1, w2 = seg1.shape[0], seg2.shape[0]
            w = w1 + w2 - 1
            give = np.vstack([np.tile(q_give, (w1, 1)), seg2[1:]])
            take = np.vstack([seg1, np.tile(q_recv, (w2 - 1, 1))])
            ql, qr = (give, take) if giver == "left" else (take, give)
            pose = self.station_poses[station]
            rot = np.broadcast_to(pose.r, (w, 3, 3))
            t = np.broadcast_to(pose.t, (w, 3))
            holding = ((((giver, ggid),),) * (w1 - 1)
                       + (((giver, ggid), (recv, rgid)),)
                       + (((recv, rgid),),) * (w2 - 1))
            return _EdgeData(ql, qr, rot, t, holding, kind)
        raise ValueError(f"unknown edge kind {kind!r}")

    # ----- edge validation --------------------------------------------------

    def edge_key(self, spec: tuple) -> tuple:
        kind = spec[0]
        if kind == "approach":
            return (kind, spec[1], spec[2], self.station_keys[0])
        if kind == "transfer":
            return (kind, spec[3], spec[4],
                    self.station_keys[spec[1]], self.station_keys[spec[2]])
        _, station, giver, ggid, recv, rgid = spec
        return (kind, giver, ggid, recv, rgid, self.station_keys[station])

    def validate_edge(self, spec: tuple) -> _EdgeData | str:
        key = (self.edge_key(spec), self.constrained)
        if key not in self.cache.edge_verdict:
            self.cache.edge_verdict[key] = self._validate_edge_uncached(spec)
        return self.cache.edge_verdict[key]

    def _validate_edge_uncached(self, spec: tuple) -> _EdgeData | str:
        """The edge's block with its bend angles and clearances, or the
        reason its first bad row fails; bend wins a tie with contact."""
        data = self.build_edge(spec)
        data.theta = bend_angle_batch(data.tool_rot, data.tool_t,
                                      self.pb.balancer, self.pb.tool)
        segs = self.pb.tool.segments_world(data.tool_rot, data.tool_t)
        radii, names = self.tool_radii, self.tool_names
        if self.constrained and data.kind == "approach":
            segs = np.concatenate([segs, cable_segments(
                data.tool_rot, data.tool_t, self.pb.balancer, self.pb.tool)], axis=1)
            radii = np.append(radii, self.pb.balancer.cable_radius)
            names = names + [CABLE]
        data.clearance, pair_idx, pair_names = motion_clearances(
            self.pb.world, self.pb.robot, data.q_left, data.q_right,
            segs, radii, names)
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

    # ----- search -----------------------------------------------------------

    def successors(self, node) -> list[tuple[tuple, tuple, float]]:
        """(successor node, edge spec, edge joint distance), in fixed order."""
        out = []
        if node == ROOT:
            if not self.station_ok(0):
                return out
            for side in ("left", "right"):
                home = self.pb.home(side)
                for gid, q in sorted(self.node_configs(0, side).items()):
                    dist = float(np.linalg.norm(q - home))
                    out.append((("node", 0, side, gid),
                                ("approach", side, gid), dist))
            return out
        _, station, side, gid = node
        if station == self.goal_idx:
            return out
        q_here = self.node_configs(station, side)[gid]
        if station == 0:
            targets = range(1, len(self.station_poses))
        else:
            targets = [self.goal_idx]
        for dst in targets:
            if not self.station_ok(dst):
                continue
            q_dst = self.node_configs(dst, side).get(gid)
            if q_dst is None:
                continue
            dist = float(np.linalg.norm(q_dst - q_here))
            out.append((("node", dst, side, gid),
                        ("transfer", station, dst, side, gid), dist))
        if 0 < station < self.goal_idx:
            recv = "right" if side == "left" else "left"
            my_axial = self.grasps[side][gid].axial
            for rgid, q_recv in sorted(self.node_configs(station, recv).items()):
                if abs(self.grasps[recv][rgid].axial - my_axial) < \
                        self.opt.min_handover_separation:
                    continue
                dist = (float(np.linalg.norm(q_recv - self.pb.home(recv)))
                        + float(np.linalg.norm(self.pb.home(side) - q_here)))
                out.append((("node", station, recv, rgid),
                            ("handover", station, side, gid, recv, rgid), dist))
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
                if node[1] == self.goal_idx:
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
        solve_stations([self.pb], self.opt, self.cache, self.constrained)
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
        q_left, q_right, tool_rot, tool_t, theta, clearance = (
            np.concatenate([getattr(b, f)[min(i, 1):] for i, b in enumerate(blocks)])
            for f in ("q_left", "q_right", "tool_rot", "tool_t", "theta",
                      "clearance"))
        holding = [h for i, b in enumerate(blocks) for h in b.holding[min(i, 1):]]
        edges, dist = cost
        return MotionPlan(
            mode="constrained" if self.constrained else "unconstrained",
            q_left=q_left, q_right=q_right, tool_rot=tool_rot, tool_t=tool_t,
            holding=tuple(holding), theta=theta, clearance=clearance,
            edge_kinds=tuple(b.kind for b in blocks), n_edges=edges,
            joint_distance=dist)


def plan(problem: PlanningProblem, constrained: bool = True,
         options: PlannerOptions = PlannerOptions(),
         cache: PlanCache | None = None) -> PlanResult:
    """Plan a pick-(regrasp-)place motion; see the module docstring."""
    search = _Search(problem, constrained, options, cache or PlanCache())
    return search.run()
