"""Cable-induced joint torque along a planned motion.

The balancer cable pulls the held tool toward the anchor with a tension
set by the balancer's rated load.  For every waypoint where an arm
holds the tool, the pull at the connector maps through that arm's
point Jacobian to a six-vector of joint torques, and a trace collects
them over a plan.  bench.SweepReport.torque_summary compares the peaks
of the two planner modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from tetherplan.cable import BalancerSpec, ToolSpec, cable_vectors
from tetherplan.robot import DualArm, point_jacobian

GRAVITY = 9.81  # m/s^2


class EmptyTrace(Exception):
    """No waypoint in the plan had an arm holding the tool."""


def cable_tension(balancer: BalancerSpec) -> float:
    """Cable tension in newtons at the balancer's rated load."""
    return balancer.max_load * GRAVITY


def joint_torques(arm, q: np.ndarray, point_world: np.ndarray,
                  force_world: np.ndarray) -> np.ndarray:
    """Joint torques that balance a pure force applied at a point.

    The point is rigidly attached to the last link; the force carries
    no moment, so the torque is the transpose point Jacobian applied to
    the force.  A batch of one of _joint_torques_batch.
    """
    return _joint_torques_batch(arm, q, point_world, force_world)[0]


def _joint_torques_batch(arm, qs: np.ndarray, points: np.ndarray,
                         forces: np.ndarray) -> np.ndarray:
    """joint_torques for W rows of (qs, points, forces): (W, 6)."""
    jp = point_jacobian(arm, qs, points)
    forces = np.asarray(forces, dtype=float).reshape(-1, 3, 1)
    return (jp.transpose(0, 2, 1) @ forces)[..., 0]


@dataclass(frozen=True)
class TorqueEntry:
    """Cable-induced torques on one arm at one waypoint."""

    waypoint: int
    arm: str
    torques: np.ndarray

    @property
    def magnitude(self) -> float:
        """Largest joint-torque magnitude in the entry."""
        return float(np.max(np.abs(self.torques)))


@dataclass(frozen=True)
class TorqueTrace:
    entries: tuple[TorqueEntry, ...]

    def arms(self) -> tuple[str, ...]:
        seen = []
        for e in self.entries:
            if e.arm not in seen:
                seen.append(e.arm)
        return tuple(seen)

    def peak(self, arm: str) -> float:
        mags = [e.magnitude for e in self.entries if e.arm == arm]
        if not mags:
            raise EmptyTrace(f"no entries for arm {arm!r}")
        return max(mags)


def trace_arrays(robot: DualArm, balancer: BalancerSpec, tool: ToolSpec,
                 q_left: np.ndarray, q_right: np.ndarray,
                 tool_rot: np.ndarray, tool_t: np.ndarray,
                 holding: Iterable[Iterable[tuple[str, int]]]) -> TorqueTrace:
    """Torque trace over waypoint arrays.

    holding gives, per waypoint, the (arm side, grasp id) pairs of the
    arms currently gripping the tool; each such arm gets one entry, in
    waypoint order and then holder order.  The connector points and
    cable forces of all entries are computed at once, and each arm's
    torques in one batch.  Raises cable.DegenerateCable, a
    ZeroVectorError, when a held waypoint puts the connector within
    1e-9 m of the anchor.
    """
    rows = [(w, side) for w, holders in enumerate(holding)
            for side, _grasp in holders]
    ws = np.array([w for w, _ in rows], dtype=int)
    connector, cable, norms = cable_vectors(
        np.asarray(tool_rot, float)[ws], np.asarray(tool_t, float)[ws], balancer, tool)
    force = cable_tension(balancer) * (cable / norms[:, None])
    sides = np.array([side for _, side in rows], dtype=str)
    tau = np.empty((len(rows), 6))
    for side, qs in (("left", q_left), ("right", q_right)):
        sel = np.nonzero(sides == side)[0]
        if sel.size:
            tau[sel] = _joint_torques_batch(
                robot.arm(side), np.asarray(qs, dtype=float)[ws[sel]],
                connector[sel], force[sel])
    return TorqueTrace(entries=tuple(
        TorqueEntry(waypoint=w, arm=side, torques=tau[k])
        for k, (w, side) in enumerate(rows)))


def trace_plan(plan, robot: DualArm, balancer: BalancerSpec,
               tool: ToolSpec) -> TorqueTrace:
    """Torque trace for a planned motion (see trace_arrays)."""
    return trace_arrays(robot, balancer, tool, plan.q_left, plan.q_right,
                        plan.tool_rot, plan.tool_t, plan.holding)
