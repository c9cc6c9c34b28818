"""Benchmark sweep: plan a grid of start/goal variations in both modes.

Each grid cell is one pick-and-place task: the row pitches the start
pose, the column rolls the goal pose, and both planner modes run on it.
Finished plans are re-checked from their raw waypoint arrays and sorted
into four outcomes:

    o  success          plan found, bend limit respected, no contacts
    x  bend_violation   some waypoint bends the cable past the limit
    *  cable_collision  an arm or obstacle touches the cable
    F  no_plan          the planner found no motion

A bend violation outranks a cable collision when both occur.  The
re-check carries the taut cable, anchor to connector, on every
waypoint.  The constrained planner keeps every waypoint under the bend
limit, so it never emits x, but it checks the cable only until the
first grasp: a later * is an entanglement the constraint did not
prevent.  A sweep builds each cell's problem once and plans it in both
modes, sharing one PlanCache across its cells, so it solves each
station once and measures each edge once (an approach once with the
cable attached, once without).  It audits a cell's unconstrained plan
only where it differs from the constrained one, which it often equals.
A re-check makes one arm_link_segments call, both arms at every row,
for its clearance query and its grip check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .cable import CABLE, bend_angle_batch
from .collision import arm_link_segments, motion_clearances
from .planner import MotionPlan, PlanCache, PlanResult, PlanningProblem, \
    plan, solve_stations
from .scene import Scene
from .torque import trace_plan

LABEL_SYMBOLS = {
    "success": "o",
    "bend_violation": "x",
    "cable_collision": "*",
    "no_plan": "F",
}

# How far (m) any point of the tool's shape may drift, in its holder's
# TCP frame, from where it sat when that hold began.  It must be at
# least the IK acceptance tolerance: a resting tool sits at the exact
# station pose while the gripper on it is at FK of an IK solution, and
# a carried tool follows that FK exactly.  IK accepts a TCP pose that
# moves a tool point r from the TCP by up to pos_tol + ori_tol r, so
# two poses of one hold differ there by up to twice that: 1.2e-3 m
# under the default IKOptions for a tool within 0.5 m of the TCP.
_GRIP_TOL = 5e-3


@dataclass(frozen=True)
class Recheck:
    """Independent post-hoc audit of a finished plan's waypoint arrays."""

    theta_max: float
    bend_waypoint: int | None
    cable_waypoint: int | None
    collision_waypoint: int | None
    grip_waypoint: int | None
    min_clearance: float

    @property
    def clean(self) -> bool:
        return (self.bend_waypoint is None and self.cable_waypoint is None
                and self.collision_waypoint is None
                and self.grip_waypoint is None)


@dataclass(frozen=True)
class Outcome:
    """One classified cell result."""

    label: str
    theta_max_deg: float | None = None
    first_violation: int | None = None
    failure: str | None = None

    @property
    def symbol(self) -> str:
        return LABEL_SYMBOLS[self.label]


def recheck_plan(motion: MotionPlan, problem: PlanningProblem) -> Recheck:
    """Re-derive bend, cable-contact, collision and grip facts from
    waypoints.

    Trusts nothing the planner recorded beyond the joint trajectories,
    tool track, and holding labels, and checks the tool track against
    the joints of the arms holding it (_grip_waypoint).  It reads only
    motion and problem.  One arm_link_segments call, both arms at every
    row, serves the clearance query (one motion_clearances call over
    every row) and the grip check (the TCP poses).
    """
    theta = bend_angle_batch(motion.tool_rot, motion.tool_t,
                             problem.balancer, problem.tool)
    over = np.nonzero(theta >= problem.constraint.theta_max)[0]
    bend_wp = int(over[0]) if over.size else None

    links, tcp_r, tcp_t = arm_link_segments(problem.robot, problem.world.link_spec,
                                            motion.q_left, motion.q_right)
    # The tool shapes and the taut cable ride on every waypoint.
    clear, pair_idx, pair_names = motion_clearances(
        problem.world, links,
        *problem.tool.bodies(motion.tool_rot, motion.tool_t, problem.balancer))
    # With no pair at all every index is 0 and every clearance inf.
    cable = np.array([CABLE in pair for pair in pair_names] or [False])[pair_idx]
    first_bad = {}      # is the row's nearest pair the cable's -> first such row
    for i in np.nonzero(clear < 0.0)[0]:
        first_bad.setdefault(bool(cable[i]), int(i))

    return Recheck(
        theta_max=float(theta.max()),
        bend_waypoint=bend_wp,
        cable_waypoint=first_bad.get(True),
        collision_waypoint=first_bad.get(False),
        grip_waypoint=_grip_waypoint(motion, problem, tcp_r, tcp_t),
        min_clearance=float(clear.min()),
    )


def _grip_waypoint(motion: MotionPlan, problem: PlanningProblem,
                   tcp_r: np.ndarray, tcp_t: np.ndarray) -> int | None:
    """First held waypoint where the tool has left its holder's grip.

    An arm's TCP pose at a waypoint (FK of its joints) is
    tcp_r[arm, waypoint] and tcp_t[arm, waypoint], from recheck_plan's
    arm_link_segments call, arm 0 the left and 1 the right.  A hold is
    a run of consecutive waypoints on which one arm holds the tool.
    Along it the grasp id must not change, and the tool's pose relative
    to that arm's TCP must stay where the run's first waypoint put it,
    to within _GRIP_TOL at every shape endpoint.
    """
    ids = {h: [dict(h).get(side, -1) for side in ("left", "right")]
           for h in set(motion.holding)}
    # Each waypoint's grasp id of each arm, -1 where that arm does not hold.
    gid = np.array(list(map(ids.__getitem__, motion.holding)),
                   dtype=int).reshape(-1, 2)
    first = None
    for arm in (0, 1):
        held = np.nonzero(gid[:, arm] >= 0)[0]
        if held.size == 0:
            continue
        step = np.diff(held) == 1
        begins = np.concatenate([[True], ~step])
        regrasp = np.concatenate([[False], step & (np.diff(gid[held, arm]) != 0)])
        run_start = np.maximum.accumulate(
            np.where(begins, np.arange(held.size), 0))
        r, t = tcp_r[arm, held], tcp_t[arm, held]
        rel_r = np.einsum("wji,wjk->wik", r, motion.tool_rot[held])
        rel_t = np.einsum("wji,wj->wi", r, motion.tool_t[held] - t)
        local = problem.tool.bodies(rel_r, rel_t)[0]
        drift = np.linalg.norm(local - local[run_start], axis=3).max(axis=(1, 2))
        bad = held[(drift > _GRIP_TOL) | regrasp]
        if bad.size and (first is None or bad[0] < first):
            first = int(bad[0])
    return first


def classify(result: PlanResult, recheck: Recheck | None) -> Outcome:
    """Four-outcome classification; bend outranks cable contact."""
    if result.plan is None:
        return Outcome(label="no_plan", failure=result.failure)
    if recheck is None:
        raise ValueError("a finished plan requires a recheck to classify")
    if recheck.grip_waypoint is not None:
        # The tool track is not the tool the arms carry, so no label
        # read from it would mean anything.
        raise RuntimeError(
            "re-check found the held tool away from its gripper at waypoint "
            f"{recheck.grip_waypoint}; the planner should never emit one")
    theta_deg = math.degrees(recheck.theta_max)
    if recheck.bend_waypoint is not None:
        return Outcome(label="bend_violation", theta_max_deg=theta_deg,
                       first_violation=recheck.bend_waypoint)
    if recheck.cable_waypoint is not None:
        return Outcome(label="cable_collision", theta_max_deg=theta_deg,
                       first_violation=recheck.cable_waypoint)
    if recheck.collision_waypoint is not None:
        # Both modes validate every motion against the environment, so a
        # residual contact means the planner itself is unsound; surface
        # that instead of mislabeling the cell.
        raise RuntimeError(
            "re-check found an environment collision at waypoint "
            f"{recheck.collision_waypoint}; the planner should never emit one")
    return Outcome(label="success", theta_max_deg=theta_deg)


@dataclass(frozen=True)
class SweepCell:
    row: int
    col: int
    pitch: float
    roll: float
    mode: str
    outcome: Outcome
    recheck: Recheck | None
    n_edges: int | None
    n_waypoints: int | None
    joint_distance: float | None
    peak_torque: dict


@dataclass(frozen=True)
class TorqueSummary:
    """Constrained-vs-unconstrained peak-torque reductions.

    Aggregated over cells where both modes produced a plan (the
    unconstrained plan may carry a bend or cable violation; a missing
    plan contributes nothing).  Reduction is the percentage drop of the
    constrained peak relative to the unconstrained peak, per arm that
    appears in both plans.
    """

    n_cells: int
    mean_reduction_pct: float | None
    per_arm_mean_pct: dict


@dataclass(frozen=True)
class SweepReport:
    scene_name: str
    pitch_rows: tuple[float, ...]
    roll_cols: tuple[float, ...]
    cells: tuple[SweepCell, ...]

    def cell(self, row: int, col: int, mode: str) -> SweepCell:
        for c in self.cells:
            if (c.row, c.col, c.mode) == (row, col, mode):
                return c
        raise KeyError((row, col, mode))

    def grid(self, mode: str) -> list[list[str]]:
        rows = [[" "] * len(self.roll_cols) for _ in self.pitch_rows]
        for c in self.cells:
            if c.mode == mode:
                rows[c.row][c.col] = c.outcome.symbol
        return rows

    def outcome_counts(self, mode: str) -> dict:
        counts = {label: 0 for label in LABEL_SYMBOLS}
        for c in self.cells:
            if c.mode == mode:
                counts[c.outcome.label] += 1
        return counts

    def torque_summary(self) -> TorqueSummary:
        # Reversed, so that each (row, col, mode) keeps its first cell, as cell().
        first = {(c.row, c.col, c.mode): c for c in reversed(self.cells)}
        reductions = []
        per_arm: dict[str, list[float]] = {"left": [], "right": []}
        n_cells = 0
        for i, j in product(range(len(self.pitch_rows)), range(len(self.roll_cols))):
            con, unc = (first.get((i, j, m)) for m in ("constrained", "unconstrained"))
            if any(c is None or c.outcome.label == "no_plan" for c in (con, unc)):
                continue
            shared = sorted(set(con.peak_torque) & set(unc.peak_torque))
            n_cells += bool(shared)
            for arm in shared:
                pu = unc.peak_torque[arm]
                if pu <= 0.0:
                    continue
                red = 100.0 * (pu - con.peak_torque[arm]) / pu
                reductions.append(red)
                per_arm[arm].append(red)
        mean = float(np.mean(reductions)) if reductions else None
        per_arm_mean = {arm: float(np.mean(v)) for arm, v in per_arm.items() if v}
        return TorqueSummary(n_cells=n_cells, mean_reduction_pct=mean,
                             per_arm_mean_pct=per_arm_mean)


def sweep(scene: Scene) -> SweepReport:
    """Run the full grid in both modes, cells in (row, col, mode) order.

    Each cell is one problem.  Station IK for every cell is solved first,
    both arms in one grouped batch (solve_stations).  Each cell then plans
    its constrained mode, then its unconstrained one, against that shared
    plan cache.  A cell's result depends neither on which cells ran before
    it nor on their mode: the cache is content-addressed, holds an edge's
    measurement apart from each mode's verdict on it, and the planner
    budget counts the path edges it checks, cache hits included.  The
    unconstrained plan is re-checked and traced only if its joint and tool
    arrays (by bytes) or its holding differ from the constrained plan's;
    else it takes that plan's record and peak torques, since a re-check
    and a trace read nothing but the plan and the cell's problem.
    The report holds no timings, so two sweeps of one scene compare equal.
    """
    cache = PlanCache()
    options = replace(scene.options, time_budget=math.inf)
    grid = list(product(enumerate(scene.pitch_rows), enumerate(scene.roll_cols)))
    problems = [scene.problem(pitch=pitch, roll=roll)
                for (_, pitch), (_, roll) in grid]
    solve_stations(problems, scene.options, cache)
    cells = []
    for ((i, pitch), (j, roll)), problem in zip(grid, problems):
        audited = None      # the cell's plan that recheck and peaks belong to
        for mode in ("constrained", "unconstrained"):
            result = plan(problem, constrained=(mode == "constrained"),
                          options=options, cache=cache)
            motion = result.plan
            if motion is None:
                recheck, peaks = None, {}
            elif audited is None or motion.holding != audited.holding or any(
                    getattr(motion, f).tobytes() != getattr(audited, f).tobytes()
                    for f in ("q_left", "q_right", "tool_rot", "tool_t")):
                audited, recheck = motion, recheck_plan(motion, problem)
                trace = trace_plan(motion, problem.robot, problem.balancer, problem.tool)
                peaks = {arm: trace.peak(arm) for arm in trace.arms()}
            cells.append(SweepCell(
                row=i, col=j, pitch=pitch, roll=roll, mode=mode,
                outcome=classify(result, recheck), recheck=recheck,
                n_edges=motion.n_edges if motion else None,
                n_waypoints=motion.n_waypoints if motion else None,
                joint_distance=motion.joint_distance if motion else None,
                peak_torque=dict(peaks)))
    return SweepReport(scene_name=scene.name, pitch_rows=scene.pitch_rows,
                       roll_cols=scene.roll_cols, cells=tuple(cells))


def _fmt(value, digits: int = 9) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


CSV_HEADER = ("row,col,pitch_deg,roll_deg,mode,outcome,symbol,theta_max_deg,"
              "first_violation_waypoint,planner_failure,n_edges,n_waypoints,"
              "joint_distance_rad,peak_torque_left_nm,peak_torque_right_nm,"
              "min_clearance_m")


def cells_csv(report: SweepReport) -> str:
    """The sweep as CSV; stable byte-for-byte for a fixed seed."""
    lines = [CSV_HEADER]
    for c in report.cells:
        o = c.outcome
        lines.append(",".join([
            str(c.row), str(c.col),
            _fmt(math.degrees(c.pitch)), _fmt(math.degrees(c.roll)),
            c.mode, o.label, o.symbol,
            _fmt(o.theta_max_deg),
            _fmt(o.first_violation),
            o.failure or "",
            _fmt(c.n_edges), _fmt(c.n_waypoints), _fmt(c.joint_distance),
            _fmt(c.peak_torque.get("left")), _fmt(c.peak_torque.get("right")),
            _fmt(c.recheck.min_clearance if c.recheck else None),
        ]))
    return "\n".join(lines) + "\n"


def render_grid(report: SweepReport) -> str:
    """Both mode grids as fixed-width text with success rates."""
    col_heads = [f"{math.degrees(r):+.0f}" for r in report.roll_cols]
    width = max([5] + [len(h) + 2 for h in col_heads])
    out = []
    for mode in ("constrained", "unconstrained"):
        out.append(f"{mode}  (pitch rows x roll columns)")
        out.append("pitch".ljust(7) + "".join(h.rjust(width) for h in col_heads))
        grid = report.grid(mode)
        for i, pitch in enumerate(report.pitch_rows):
            head = f"{math.degrees(pitch):.0f}".ljust(7)
            out.append(head + "".join(s.rjust(width) for s in grid[i]))
        counts = report.outcome_counts(mode)
        total = sum(counts.values())
        shown = f"{100.0 * (counts['success'] / total):.1f}%" if total else "n/a"
        out.append(f"success rate: {shown}  "
                   + "  ".join(f"{LABEL_SYMBOLS[k]}={v}"
                               for k, v in counts.items()))
        out.append("")
    ts = report.torque_summary()
    if ts.mean_reduction_pct is None:
        out.append("torque reduction: n/a (no cell planned in both modes)")
    else:
        per_arm = "  ".join(f"{arm}={v:.1f}%"
                            for arm, v in sorted(ts.per_arm_mean_pct.items()))
        out.append(f"torque reduction (constrained vs unconstrained, "
                   f"{ts.n_cells} cells planned in both modes): "
                   f"mean={ts.mean_reduction_pct:.1f}%  {per_arm}")
    out.append("legend: o=success  x=bend_violation  *=cable_collision  F=no_plan")
    return "\n".join(out) + "\n"
