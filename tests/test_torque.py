import math
from types import SimpleNamespace

import numpy as np
import pytest

from tetherplan.bench import Outcome, SweepCell, SweepReport
from tetherplan.cable import BalancerSpec, ToolSpec
from tetherplan.collision import Capsule
from tetherplan.geometry import Pose, ZeroVectorError, rot_z, rpy_to_rot
from tetherplan.robot import DualArm, fk, ur3_arm
from tetherplan.torque import (
    EmptyTrace,
    TorqueEntry,
    TorqueTrace,
    cable_tension,
    joint_torques,
    trace_arrays,
    trace_plan,
)

from oracles import central_difference_jacobian


def make_tool():
    return ToolSpec(connector_point=[0.0, 0.0, 0.09], cable_dir=[0, 0, 1],
                    handle_a=[0, 0, -0.10], handle_b=[0, 0, 0.05],
                    handle_radius=0.018,
                    shapes=(("tool/body", Capsule([0, 0, -0.1], [0, 0, 0.05], 0.018)),))


def make_robot():
    left = ur3_arm(Pose(np.eye(3), [0.0, 0.25, 0.0]))
    right = ur3_arm(Pose(np.eye(3), [0.0, -0.25, 0.0]))
    return DualArm(left=left, right=right)


class TestTension:
    def test_two_kilogram_load(self):
        assert cable_tension(BalancerSpec(anchor=[0, 0, 2], max_load=2.0)) == \
            pytest.approx(19.62)

    def test_light_load(self):
        assert cable_tension(BalancerSpec(anchor=[0, 0, 2], max_load=0.8)) == \
            pytest.approx(7.848)

    def test_scales_linearly(self):
        t1 = cable_tension(BalancerSpec(anchor=[0, 0, 2], max_load=1.0))
        t3 = cable_tension(BalancerSpec(anchor=[0, 0, 2], max_load=3.0))
        assert t3 == pytest.approx(3.0 * t1)


class TestJointTorques:
    def test_matches_virtual_work(self):
        arm = ur3_arm()
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = rng.uniform(-1.5, 1.5, 6)
            local = rng.uniform(-0.1, 0.1, 3)
            force = rng.uniform(-20, 20, 3)
            pose = fk(arm, q)
            point = pose.apply(local)
            tau = joint_torques(arm, q, point, force)

            def attached_point(qq, _local=local):
                return fk(arm, qq).apply(_local)

            jp = central_difference_jacobian(attached_point, q)
            assert np.allclose(tau, jp.T @ force, atol=1e-5)

    def test_linearity_in_force(self):
        arm = ur3_arm()
        rng = np.random.default_rng(32)
        q = rng.uniform(-1.0, 1.0, 6)
        point = fk(arm, q).apply([0.0, 0.0, 0.05])
        f1 = rng.uniform(-10, 10, 3)
        f2 = rng.uniform(-10, 10, 3)
        tau = joint_torques(arm, q, point, 2.0 * f1 - 0.5 * f2)
        assert np.allclose(tau, 2.0 * joint_torques(arm, q, point, f1)
                           - 0.5 * joint_torques(arm, q, point, f2), atol=1e-12)

    def test_zero_force_zero_torque(self):
        arm = ur3_arm()
        q = np.array([0.3, -0.8, 1.1, 0.2, -0.4, 0.9])
        point = fk(arm, q).t
        assert np.allclose(joint_torques(arm, q, point, np.zeros(3)), 0.0)

    def test_vertical_force_exerts_no_base_torque(self):
        # Joint 1 spins about the vertical, so a vertical pull has no
        # moment about it regardless of configuration.
        arm = ur3_arm()
        rng = np.random.default_rng(33)
        for _ in range(20):
            q = rng.uniform(-2.0, 2.0, 6)
            point = fk(arm, q).apply(rng.uniform(-0.1, 0.1, 3))
            tau = joint_torques(arm, q, point, [0.0, 0.0, -19.62])
            assert abs(tau[0]) < 1e-9

    def test_rotating_the_whole_problem_preserves_torques(self):
        base = Pose(np.eye(3), [0.1, -0.2, 0.3])
        arm = ur3_arm(base)
        rng = np.random.default_rng(34)
        q = rng.uniform(-1.0, 1.0, 6)
        point = fk(arm, q).apply([0.02, 0.0, 0.05])
        force = rng.uniform(-15, 15, 3)
        tau = joint_torques(arm, q, point, force)
        r = rpy_to_rot(0.4, -0.7, 1.2)
        moved = ur3_arm(Pose(r @ base.r, r @ base.t))
        tau2 = joint_torques(moved, q, r @ point, r @ force)
        assert np.allclose(tau, tau2, atol=1e-9)


class TestTrace:
    def make_inputs(self, holders):
        robot = make_robot()
        rng = np.random.default_rng(35)
        w = len(holders)
        q_left = rng.uniform(-1.0, 1.0, (w, 6))
        q_right = rng.uniform(-1.0, 1.0, (w, 6))
        rots = np.stack([rot_z(0.1 * i) for i in range(w)])
        ts = np.tile([0.3, 0.0, 0.6], (w, 1))
        bal = BalancerSpec(anchor=[0.3, 0.0, 1.6], max_load=2.0)
        return robot, bal, make_tool(), q_left, q_right, rots, ts, holders

    def test_entries_follow_holding(self):
        holders = [(), (("left", 3),), (("left", 3),),
                   (("left", 3), ("right", 7)), (("right", 7),)]
        robot, bal, tool, ql, qr, rots, ts, h = self.make_inputs(holders)
        trace = trace_arrays(robot, bal, tool, ql, qr, rots, ts, h)
        assert [(e.waypoint, e.arm) for e in trace.entries] == \
            [(1, "left"), (2, "left"), (3, "left"), (3, "right"), (4, "right")]
        assert trace.arms() == ("left", "right")
        for e in trace.entries:
            assert e.torques.shape == (6,)
            assert e.magnitude == pytest.approx(np.max(np.abs(e.torques)))

    def test_trace_plan_reads_plan_fields(self):
        holders = [(("left", 0),), (("left", 0),)]
        robot, bal, tool, ql, qr, rots, ts, h = self.make_inputs(holders)
        plan = SimpleNamespace(q_left=ql, q_right=qr, tool_rot=rots,
                               tool_t=ts, holding=h)
        via_plan = trace_plan(plan, robot, bal, tool)
        direct = trace_arrays(robot, bal, tool, ql, qr, rots, ts, h)
        assert len(via_plan.entries) == len(direct.entries)
        for a, b in zip(via_plan.entries, direct.entries):
            assert np.allclose(a.torques, b.torques)

    def test_entries_match_the_finite_difference_oracle(self):
        # Each entry is J_fd.T @ f: J_fd differentiates the connector
        # point rigidly attached to the holding arm's TCP, f pulls from
        # the connector toward the anchor with the cable tension.
        holders = [(("right", 7),), (), (("left", 3), ("right", 7)),
                   (("left", 3),), (("right", 7), ("left", 3))]
        robot, bal, tool, ql, qr, rots, ts, h = self.make_inputs(holders)
        trace = trace_arrays(robot, bal, tool, ql, qr, rots, ts, h)
        assert [(e.waypoint, e.arm) for e in trace.entries] == \
            [(0, "right"), (2, "left"), (2, "right"), (3, "left"),
             (4, "right"), (4, "left")]
        for e in trace.entries:
            arm = robot.arm(e.arm)
            q = (ql if e.arm == "left" else qr)[e.waypoint]
            connector = Pose(rots[e.waypoint], ts[e.waypoint]).apply(
                tool.connector_point)
            local = fk(arm, q).r.T @ (connector - fk(arm, q).t)

            def attached_point(qq, _arm=arm, _local=local):
                return fk(_arm, qq).apply(_local)

            jp = central_difference_jacobian(attached_point, q)
            pull = bal.anchor - connector
            force = cable_tension(bal) * pull / np.linalg.norm(pull)
            assert np.allclose(e.torques, jp.T @ force, atol=1e-5)

    def test_connector_at_the_anchor_raises(self):
        holders = [(("left", 3),), (("left", 3),), ()]
        robot, bal, tool, ql, qr, rots, ts, h = self.make_inputs(holders)
        at_anchor = ts.copy()
        # Waypoint 2 is not held, so its degenerate cable is never used.
        at_anchor[2] = bal.anchor - rots[2] @ tool.connector_point
        assert len(trace_arrays(robot, bal, tool, ql, qr, rots, at_anchor,
                                h).entries) == 2
        at_anchor[1] = bal.anchor - rots[1] @ tool.connector_point
        with pytest.raises(ZeroVectorError):
            trace_arrays(robot, bal, tool, ql, qr, rots, at_anchor, h)

    def test_peak_requires_entries(self):
        trace = TorqueTrace(entries=())
        with pytest.raises(EmptyTrace):
            trace.peak("left")


class TestComparison:
    """Peak-torque comparison of the two planner modes, read through
    SweepReport.torque_summary on one synthetic cell."""

    def entry(self, w, arm, mag):
        tau = np.zeros(6)
        tau[2] = mag
        return TorqueEntry(waypoint=w, arm=arm, torques=tau)

    @staticmethod
    def summary(constrained: TorqueTrace, unconstrained: TorqueTrace):
        # Peaks per arm as bench.run_cell records them.
        cells = tuple(
            SweepCell(row=0, col=0, pitch=0.0, roll=0.0, mode=mode,
                      outcome=Outcome(label="success"), recheck=None,
                      n_edges=2, n_waypoints=5, joint_distance=1.0,
                      peak_torque={arm: trace.peak(arm) for arm in trace.arms()})
            for mode, trace in (("constrained", constrained),
                                ("unconstrained", unconstrained)))
        return SweepReport(scene_name="fake", pitch_rows=(0.0,),
                           roll_cols=(0.0,), cells=cells).torque_summary()

    def test_reduction_formula(self):
        a = TorqueTrace(entries=(self.entry(0, "left", 1.0),
                                 self.entry(1, "left", 3.0)))
        b = TorqueTrace(entries=(self.entry(0, "left", 4.0),
                                 self.entry(1, "left", 2.0)))
        ts = self.summary(a, b)
        assert ts.n_cells == 1
        assert ts.mean_reduction_pct == pytest.approx(25.0)
        assert ts.per_arm_mean_pct == {"left": pytest.approx(25.0)}

    def test_negative_reduction_allowed(self):
        a = TorqueTrace(entries=(self.entry(0, "right", 5.0),))
        b = TorqueTrace(entries=(self.entry(0, "right", 4.0),))
        ts = self.summary(a, b)
        assert ts.per_arm_mean_pct == {"right": pytest.approx(-25.0)}

    def test_arms_present_in_both_only(self):
        a = TorqueTrace(entries=(self.entry(0, "left", 1.0),
                                 self.entry(0, "right", 1.0)))
        b = TorqueTrace(entries=(self.entry(0, "left", 2.0),))
        ts = self.summary(a, b)
        assert set(ts.per_arm_mean_pct) == {"left"}
        assert ts.mean_reduction_pct == pytest.approx(50.0)

    def test_cells_without_a_shared_arm_are_skipped(self):
        one = TorqueTrace(entries=(self.entry(0, "left", 1.0),))
        for a, b in ((TorqueTrace(entries=()), one),
                     (one, TorqueTrace(entries=(self.entry(0, "right", 1.0),)))):
            ts = self.summary(a, b)
            assert ts.n_cells == 0
            assert ts.mean_reduction_pct is None
            assert ts.per_arm_mean_pct == {}
