"""Cable-induced joint torque along a planned motion.

The balancer cable pulls the held tool toward the anchor with a tension
set by the balancer's rated load.  For every waypoint where an arm
holds the tool, robot.joint_torques maps the pull at the connector
through that arm's Jacobian to a six-vector of joint torques.
trace_plan, the one entry point, collects them over a plan's
waypoints, reading its joint, tool-pose and grasp arrays, into a
TorqueTrace of three arrays: each entry's waypoint and arm, by waypoint
and then the left arm first, and the (E, 6) torques.  One FK call
serves the entries of both arms, each row from its own arm's base.
bench.SweepReport.torque_summary compares the peaks of the two modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetherplan.cable import BalancerSpec, ToolSpec, cable_vectors
from tetherplan.planner import ARMS
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

    plan is a MotionPlan or anything with its q (W, 2, 6), tool_rot, tool_t
    and grasp (W, 2) fields, arms in ARMS order.  Each waypoint and arm with
    a grasp id of 0 or more (an arm gripping the tool) gets one entry, in
    waypoint order and then ARMS order.  The connector points, cable forces
    and torques of all entries are computed at once, both arms in one FK
    call.  Raises cable.DegenerateCable, a ZeroVectorError, when a held
    waypoint puts the connector within 1e-9 m of the anchor.
    """
    ws, arm = np.nonzero(np.asarray(plan.grasp) >= 0)
    connector, cable, norms = cable_vectors(
        np.asarray(plan.tool_rot, float)[ws], np.asarray(plan.tool_t, float)[ws],
        balancer, tool)
    force = cable_tension(balancer) * (cable / norms[:, None])
    tau = joint_torques(*robot.bases(arm == ARMS.index("right")),
                        np.asarray(plan.q, float)[ws, arm], connector, force)
    return TorqueTrace(waypoint=ws, arm=np.array(ARMS)[arm], entries=tau)
