import math
from types import SimpleNamespace

import numpy as np
import pytest

from tetherplan.bench import Outcome, SweepCell, SweepReport
from tetherplan.cable import BalancerSpec, ToolSpec
from tetherplan.collision import Capsule
from tetherplan.geometry import Pose, ZeroVectorError, rot_z, rpy_to_rot
from tetherplan.plan_io import TORQUE_HEADER, torque_csv
from tetherplan.robot import DualArm, fk_chain_batch, joint_torques
from tetherplan.torque import EmptyTrace, TorqueTrace, cable_tension, trace_plan

from oracles import central_difference_jacobian


def make_tool():
    return ToolSpec(connector_point=[0.0, 0.0, 0.09], cable_dir=[0, 0, 1],
                    handle_a=[0, 0, -0.10], handle_b=[0, 0, 0.05],
                    shapes=(("tool/body", Capsule([0, 0, -0.1], [0, 0, 0.05], 0.018)),))


def make_robot():
    left = Pose(np.eye(3), [0.0, 0.25, 0.0])
    right = Pose(np.eye(3), [0.0, -0.25, 0.0])
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
        arm = Pose()
        rng = np.random.default_rng(31)
        qs, locals_, forces = (np.stack(a) for a in zip(*(
            (rng.uniform(-1.5, 1.5, 6), rng.uniform(-0.1, 0.1, 3),
             rng.uniform(-20, 20, 3)) for _ in range(50))))
        rot, tcp, _, _ = fk_chain_batch(arm.r, arm.t, qs)
        points = np.einsum("wij,wj->wi", rot, locals_) + tcp
        taus = joint_torques(arm.r, arm.t, qs, points, forces)
        assert taus.shape == (50, 6)
        for q, local, force, tau in zip(qs, locals_, forces, taus):

            def attached_point(qq, _local=local):
                r, t, _, _ = fk_chain_batch(arm.r, arm.t, qq)
                return r[0] @ _local + t[0]

            jp = central_difference_jacobian(attached_point, q)
            assert np.allclose(tau, jp.T @ force, atol=1e-5)

    def test_linearity_in_force(self):
        arm = Pose()
        rng = np.random.default_rng(32)
        q = rng.uniform(-1.0, 1.0, 6)
        rot, tcp, _, _ = fk_chain_batch(arm.r, arm.t, q)
        point = rot[0] @ [0.0, 0.0, 0.05] + tcp[0]
        f1 = rng.uniform(-10, 10, 3)
        f2 = rng.uniform(-10, 10, 3)
        qs, points = np.stack([q] * 3), np.stack([point] * 3)
        tau, tau1, tau2 = joint_torques(arm.r, arm.t, qs, points,
                                        np.stack([2.0 * f1 - 0.5 * f2, f1, f2]))
        assert np.allclose(tau, 2.0 * tau1 - 0.5 * tau2, atol=1e-12)

    def test_zero_force_zero_torque(self):
        arm = Pose()
        q = np.array([0.3, -0.8, 1.1, 0.2, -0.4, 0.9])
        _, tcp, _, _ = fk_chain_batch(arm.r, arm.t, q)
        assert np.allclose(joint_torques(arm.r, arm.t, q[None], tcp,
                                         np.zeros((1, 3))), 0.0)

    def test_vertical_force_exerts_no_base_torque(self):
        # Joint 1 spins about the vertical, so a vertical pull has no
        # moment about it regardless of configuration.
        arm = Pose()
        rng = np.random.default_rng(33)
        qs, locals_ = (np.stack(a) for a in zip(*(
            (rng.uniform(-2.0, 2.0, 6), rng.uniform(-0.1, 0.1, 3)) for _ in range(20))))
        rot, tcp, _, _ = fk_chain_batch(arm.r, arm.t, qs)
        points = np.einsum("wij,wj->wi", rot, locals_) + tcp
        taus = joint_torques(arm.r, arm.t, qs, points,
                             np.tile([0.0, 0.0, -19.62], (20, 1)))
        assert np.all(np.abs(taus[:, 0]) < 1e-9)

    def test_rotating_the_whole_problem_preserves_torques(self):
        base = Pose(np.eye(3), [0.1, -0.2, 0.3])
        rng = np.random.default_rng(34)
        q = rng.uniform(-1.0, 1.0, 6)
        rot, tcp, _, _ = fk_chain_batch(base.r, base.t, q)
        point = rot[0] @ [0.02, 0.0, 0.05] + tcp[0]
        force = rng.uniform(-15, 15, 3)
        tau = joint_torques(base.r, base.t, q[None], point[None], force[None])
        r = rpy_to_rot(0.4, -0.7, 1.2)
        moved = Pose(r @ base.r, r @ base.t)
        tau2 = joint_torques(moved.r, moved.t, q[None], (r @ point)[None],
                             (r @ force)[None])
        assert np.allclose(tau, tau2, atol=1e-9)


class TestTrace:
    def make_inputs(self, holders):
        """Robot, balancer, tool and a plan stand-in with the fields
        that trace_plan reads."""
        robot = make_robot()
        rng = np.random.default_rng(35)
        w = len(holders)
        plan = SimpleNamespace(
            q_left=rng.uniform(-1.0, 1.0, (w, 6)),
            q_right=rng.uniform(-1.0, 1.0, (w, 6)),
            tool_rot=np.stack([rot_z(0.1 * i) for i in range(w)]),
            tool_t=np.tile([0.3, 0.0, 0.6], (w, 1)),
            holding=holders)
        bal = BalancerSpec(anchor=[0.3, 0.0, 1.6], max_load=2.0)
        return robot, bal, make_tool(), plan

    def test_entries_follow_holding(self):
        holders = [(), (("left", 3),), (("left", 3),),
                   (("left", 3), ("right", 7)), (("right", 7),)]
        robot, bal, tool, plan = self.make_inputs(holders)
        trace = trace_plan(plan, robot, bal, tool)
        assert list(zip(trace.waypoint.tolist(), trace.arm.tolist())) == \
            [(1, "left"), (2, "left"), (3, "left"), (3, "right"), (4, "right")]
        assert trace.arms() == ("left", "right")
        assert trace.entries.shape == (5, 6)
        for row, torques in zip(torque_csv(trace).splitlines()[1:],
                                trace.entries):
            assert float(row.split(",")[8]) == \
                pytest.approx(np.max(np.abs(torques)))

    def test_entries_match_the_finite_difference_oracle(self):
        # Each entry is J_fd.T @ f: J_fd differentiates the connector
        # point rigidly attached to the holding arm's TCP, f pulls from
        # the connector toward the anchor with the cable tension.
        holders = [(("right", 7),), (), (("left", 3), ("right", 7)),
                   (("left", 3),), (("right", 7), ("left", 3))]
        robot, bal, tool, plan = self.make_inputs(holders)
        trace = trace_plan(plan, robot, bal, tool)
        assert list(zip(trace.waypoint.tolist(), trace.arm.tolist())) == \
            [(0, "right"), (2, "left"), (2, "right"), (3, "left"),
             (4, "right"), (4, "left")]
        for w, side, torques in zip(trace.waypoint, trace.arm, trace.entries):
            arm = getattr(robot, side)
            q = (plan.q_left if side == "left" else plan.q_right)[w]
            connector = plan.tool_rot[w] @ tool.connector_point + plan.tool_t[w]
            rot, tcp, _, _ = fk_chain_batch(arm.r, arm.t, q)
            local = rot[0].T @ (connector - tcp[0])

            def attached_point(qq, _arm=arm, _local=local):
                r, t, _, _ = fk_chain_batch(_arm.r, _arm.t, qq)
                return r[0] @ _local + t[0]

            jp = central_difference_jacobian(attached_point, q)
            pull = bal.anchor - connector
            force = cable_tension(bal) * pull / np.linalg.norm(pull)
            assert np.allclose(torques, jp.T @ force, atol=1e-5)

    def test_connector_at_the_anchor_raises(self):
        holders = [(("left", 3),), (("left", 3),), ()]
        robot, bal, tool, plan = self.make_inputs(holders)
        rots = plan.tool_rot
        # Waypoint 2 is not held, so its degenerate cable is never used.
        plan.tool_t[2] = bal.anchor - rots[2] @ tool.connector_point
        assert len(trace_plan(plan, robot, bal, tool).entries) == 2
        plan.tool_t[1] = bal.anchor - rots[1] @ tool.connector_point
        with pytest.raises(ZeroVectorError):
            trace_plan(plan, robot, bal, tool)

    def test_peak_is_the_largest_entry_magnitude_per_arm(self):
        holders = [(("right", 7),), (("left", 3), ("right", 7)),
                   (("right", 7), ("left", 3)), (("left", 3),), (),
                   (("left", 3), ("right", 7))]
        robot, bal, tool, plan = self.make_inputs(holders)
        trace = trace_plan(plan, robot, bal, tool)
        for arm in ("left", "right"):
            mags = [np.abs(torques).max()
                    for side, torques in zip(trace.arm, trace.entries)
                    if side == arm]
            assert len(mags) == 4
            assert trace.peak(arm) == max(mags)

    def test_peak_requires_entries(self):
        trace = TorqueTrace(waypoint=np.zeros(0, dtype=int),
                            arm=np.zeros(0, dtype=str), entries=np.zeros((0, 6)))
        with pytest.raises(EmptyTrace):
            trace.peak("left")

    def test_a_plan_with_no_held_waypoint_gives_an_empty_trace(self):
        robot, bal, tool, plan = self.make_inputs([(), (), ()])
        trace = trace_plan(plan, robot, bal, tool)
        assert len(trace.entries) == 0
        assert torque_csv(trace) == ",".join(TORQUE_HEADER) + "\n"
        assert trace.arms() == ()
        for arm in ("left", "right"):
            with pytest.raises(EmptyTrace):
                trace.peak(arm)


class TestComparison:
    """Peak-torque comparison of the two planner modes, read through
    SweepReport.torque_summary on one synthetic cell."""

    @staticmethod
    def trace(*entries):
        """A TorqueTrace of (waypoint, arm, magnitude) entries, each
        magnitude on joint 3."""
        tau = np.zeros((len(entries), 6))
        tau[:, 2] = [mag for _, _, mag in entries]
        return TorqueTrace(waypoint=np.array([w for w, _, _ in entries], dtype=int),
                           arm=np.array([arm for _, arm, _ in entries], dtype=str),
                           entries=tau)

    @staticmethod
    def summary(constrained: TorqueTrace, unconstrained: TorqueTrace):
        # Peaks per arm as bench.sweep records them.
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
        a = self.trace((0, "left", 1.0), (1, "left", 3.0))
        b = self.trace((0, "left", 4.0), (1, "left", 2.0))
        ts = self.summary(a, b)
        assert ts.n_cells == 1
        assert ts.mean_reduction_pct == pytest.approx(25.0)
        assert ts.per_arm_mean_pct == {"left": pytest.approx(25.0)}

    def test_negative_reduction_allowed(self):
        a = self.trace((0, "right", 5.0))
        b = self.trace((0, "right", 4.0))
        ts = self.summary(a, b)
        assert ts.per_arm_mean_pct == {"right": pytest.approx(-25.0)}

    def test_arms_present_in_both_only(self):
        a = self.trace((0, "left", 1.0), (0, "right", 1.0))
        b = self.trace((0, "left", 2.0))
        ts = self.summary(a, b)
        assert set(ts.per_arm_mean_pct) == {"left"}
        assert ts.mean_reduction_pct == pytest.approx(50.0)

    def test_cells_without_a_shared_arm_are_skipped(self):
        one = self.trace((0, "left", 1.0))
        for a, b in ((self.trace(), one), (one, self.trace((0, "right", 1.0)))):
            ts = self.summary(a, b)
            assert ts.n_cells == 0
            assert ts.mean_reduction_pct is None
            assert ts.per_arm_mean_pct == {}
