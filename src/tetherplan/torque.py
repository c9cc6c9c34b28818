"""Cable-induced joint torque along a planned motion.

The balancer cable pulls the held tool toward the anchor with a tension
set by the balancer's rated load.  For every waypoint where an arm
holds the tool, robot.joint_torques maps the pull at the connector
through that arm's Jacobian to a six-vector of joint torques.
trace_plan, the one entry point, collects them over a plan's
waypoints, reading its joint, tool-pose and holding arrays, into a
TorqueTrace of three arrays: the waypoint and arm of each entry and its
(E, 6) torques.  One FK call serves the entries of both arms, each row
from its own arm's base.  bench.SweepReport.torque_summary compares the
peaks of the two planner modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetherplan.cable import BalancerSpec, ToolSpec, cable_vectors
from tetherplan.robot import DualArm, joint_torques

GRAVITY = 9.81  # m/s^2


class EmptyTrace(Exception):
    """No waypoint in the plan had an arm holding the tool."""


def cable_tension(balancer: BalancerSpec) -> float:
    """Cable tension in newtons at the balancer's rated load."""
    return balancer.max_load * GRAVITY


@dataclass(frozen=True)
class TorqueTrace:
    """Torques (E, 6) of E entries, each a (waypoint, arm) pair."""

    waypoint: np.ndarray
    arm: np.ndarray
    entries: np.ndarray

    def arms(self) -> tuple[str, ...]:
        """The arms with entries, in order of first appearance."""
        return tuple(dict.fromkeys(self.arm.tolist()))

    def peak(self, arm: str) -> float:
        """Largest joint-torque magnitude over the arm's entries."""
        mine = self.arm == arm
        if not mine.any():
            raise EmptyTrace(f"no entries for arm {arm!r}")
        return float(np.abs(self.entries[mine]).max())


def trace_plan(plan, robot: DualArm, balancer: BalancerSpec,
               tool: ToolSpec) -> TorqueTrace:
    """Torque trace for a planned motion.

    plan is a MotionPlan or anything with its q_left, q_right,
    tool_rot, tool_t and holding fields.  holding gives, per waypoint,
    the (arm side, grasp id) pairs of the arms currently gripping the
    tool; each such arm gets one entry, in waypoint order and then
    holder order.  The connector points, cable forces and torques of all
    entries are computed at once, both arms in one FK call.  Raises
    cable.DegenerateCable, a ZeroVectorError, when a held waypoint puts
    the connector within 1e-9 m of the anchor.
    """
    rows = [(w, side) for w, holders in enumerate(plan.holding)
            for side, _grasp in holders]
    ws = np.array([w for w, _ in rows], dtype=int)
    connector, cable, norms = cable_vectors(
        np.asarray(plan.tool_rot, float)[ws], np.asarray(plan.tool_t, float)[ws],
        balancer, tool)
    force = cable_tension(balancer) * (cable / norms[:, None])
    sides = np.array([side for _, side in rows], dtype=str)
    right = sides == "right"
    qs = np.where(right[:, None], np.asarray(plan.q_right, dtype=float)[ws],
                  np.asarray(plan.q_left, dtype=float)[ws])
    tau = joint_torques(*robot.bases(right), qs, connector, force)
    return TorqueTrace(waypoint=ws, arm=sides, entries=tau)
