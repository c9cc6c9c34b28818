"""Cable-induced joint torque along a planned motion.

The balancer cable pulls the held tool toward the anchor with a tension
set by the balancer's rated load.  For every waypoint where an arm
holds the tool, the pull at the connector maps through that arm's
point Jacobian to a six-vector of joint torques.  trace_plan, the one
entry point, collects them over a plan's waypoints, reading its joint,
tool-pose and holding arrays, into a TorqueTrace of three arrays: the
waypoint and arm of each entry and its (E, 6) torques.
bench.SweepReport.torque_summary compares the peaks of the two planner
modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetherplan.cable import BalancerSpec, ToolSpec, cable_vectors
from tetherplan.robot import DualArm, point_jacobian

GRAVITY = 9.81  # m/s^2


class EmptyTrace(Exception):
    """No waypoint in the plan had an arm holding the tool."""


def cable_tension(balancer: BalancerSpec) -> float:
    """Cable tension in newtons at the balancer's rated load."""
    return balancer.max_load * GRAVITY


def joint_torques(arm, qs: np.ndarray, points: np.ndarray,
                  forces: np.ndarray) -> np.ndarray:
    """Joint torques (W, 6) balancing forces (W, 3) at points (W, 3).

    Each point is rigidly attached to the last link and its force has no
    moment, so the torque is the transpose point Jacobian times the
    force, written elementwise so that no BLAS kernel enters it.
    """
    jp = point_jacobian(arm, qs, points)
    f = np.asarray(forces, dtype=float).reshape(-1, 3)
    return (jp[:, 0] * f[:, 0, None] + jp[:, 1] * f[:, 1, None]
            + jp[:, 2] * f[:, 2, None])


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
    holder order.  The connector points and cable forces of all entries
    are computed at once, and each arm's torques in one batch.  Raises
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
    tau = np.empty((len(rows), 6))
    for side, qs in (("left", plan.q_left), ("right", plan.q_right)):
        sel = np.nonzero(sides == side)[0]
        if sel.size:
            tau[sel] = joint_torques(
                robot.arm(side), np.asarray(qs, dtype=float)[ws[sel]],
                connector[sel], force[sel])
    return TorqueTrace(waypoint=ws, arm=sides, entries=tau)
