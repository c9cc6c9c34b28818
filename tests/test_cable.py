import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import HOME_LEFT, HOME_RIGHT, make_problem

from tetherplan.bench import recheck_plan
from tetherplan.cable import (
    DEFAULT_MAX_BEND,
    BalancerSpec,
    BendConstraint,
    DegenerateCable,
    ToolSpec,
    bend_angle,
    bend_angle_batch,
    cable_capsule,
)
from tetherplan.collision import Box, Capsule, Sphere
from tetherplan.geometry import Pose, rot_y, rot_z, rpy_to_rot
from tetherplan.planner import MotionPlan

from oracles import quat_matrix, quat_rotate, random_quat

ANCHOR = np.array([0.0, 0.0, 1.6])


def make_balancer(**kw):
    kw.setdefault("anchor", ANCHOR)
    kw.setdefault("max_load", 2.0)
    return BalancerSpec(**kw)


def make_tool(connector=(0.0, 0.0, 0.09)):
    return ToolSpec(
        connector_point=connector,
        cable_dir=[0.0, 0.0, 1.0],
        handle_a=[0.0, 0.0, -0.10],
        handle_b=[0.0, 0.0, 0.05],
        handle_radius=0.018,
        shapes=(("tool/body", Capsule([0, 0, -0.10], [0, 0, 0.05], 0.018)),
                ("tool/tip", Sphere([0, 0, -0.13], 0.02))),
    )


class TestBendAngle:
    def test_hanging_at_rest_is_zero(self):
        pose = Pose(np.eye(3), [0.0, 0.0, 0.65])
        assert bend_angle(pose, make_balancer(), make_tool()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi", np.linspace(0.0, math.pi * 0.9, 7).tolist())
    def test_pitch_equals_bend_for_centered_connector(self, phi):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        pose = Pose(rot_y(phi), [0.0, 0.0, 0.65])
        assert bend_angle(pose, make_balancer(), tool) == pytest.approx(phi, abs=1e-12)

    def test_spin_about_vertical_leaves_bend_unchanged(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        base = rot_y(0.7)
        pose = Pose(base, [0.0, 0.0, 0.65])
        ref = bend_angle(pose, make_balancer(), tool)
        for psi in np.linspace(-math.pi, math.pi, 9):
            spun = Pose(rot_z(psi) @ base, [0.0, 0.0, 0.65])
            assert bend_angle(spun, make_balancer(), tool) == pytest.approx(ref, abs=1e-9)

    def test_matches_quaternion_arithmetic(self):
        rng = np.random.default_rng(21)
        tool = make_tool()
        bal = make_balancer()
        for _ in range(200):
            q = random_quat(rng)
            t = rng.uniform(-0.5, 0.5, 3)
            t[2] = rng.uniform(0.3, 0.9)
            pose = Pose(quat_matrix(q), t)
            theta = bend_angle(pose, bal, tool)
            conn = quat_rotate(q, tool.connector_point) + t
            cable = ANCHOR - conn
            boom = quat_rotate(q, tool.cable_dir)
            cos = float(np.dot(cable, boom) /
                        (np.linalg.norm(cable) * np.linalg.norm(boom)))
            expected = math.acos(max(-1.0, min(1.0, cos)))
            assert theta == pytest.approx(expected, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(22)
        tool = make_tool()
        bal = make_balancer()
        rots = np.stack([rpy_to_rot(*rng.uniform(-2, 2, 3)) for _ in range(40)])
        ts = rng.uniform(-0.4, 0.4, (40, 3))
        ts[:, 2] = rng.uniform(0.3, 0.9, 40)
        thetas = bend_angle_batch(rots, ts, bal, tool)
        for w in range(40):
            assert thetas[w] == pytest.approx(
                bend_angle(Pose(rots[w], ts[w]), bal, tool), abs=1e-12)

    def test_connector_at_anchor_raises(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        pose = Pose(np.eye(3), ANCHOR)
        with pytest.raises(DegenerateCable):
            bend_angle(pose, make_balancer(), tool)
        with pytest.raises(DegenerateCable):
            bend_angle_batch(np.eye(3)[None], ANCHOR[None], make_balancer(), tool)


class TestConstraint:
    def test_default_limit(self):
        assert BendConstraint().theta_max == pytest.approx(math.radians(95.0))
        assert DEFAULT_MAX_BEND == pytest.approx(math.radians(95.0))

    def test_reaching_the_limit_violates(self):
        # The audit flags a waypoint whose bend equals the limit and
        # passes it once the limit is one ulp higher.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        pose = Pose(rot_y(1.2), problem.start_pose.t)
        motion = MotionPlan(
            mode="constrained", q_left=HOME_LEFT[None], q_right=HOME_RIGHT[None],
            tool_rot=pose.r[None], tool_t=pose.t[None], holding=((),),
            theta=np.zeros(1), clearance=np.zeros(1), edge_kinds=(),
            n_edges=0, joint_distance=0.0)
        theta = bend_angle(pose, problem.balancer, problem.tool)
        for limit, flagged in ((theta, 0), (np.nextafter(theta, np.inf), None)):
            tight = replace(problem, constraint=BendConstraint(theta_max=float(limit)))
            assert recheck_plan(motion, tight).bend_waypoint == flagged

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.pi, 4.0])
    def test_limit_must_be_interior(self, bad):
        with pytest.raises(ValueError):
            BendConstraint(theta_max=bad)


class TestCableCapsule:
    def test_runs_anchor_to_connector(self):
        pose = Pose(np.eye(3), [0.0, 0.0, 0.65])
        cap = cable_capsule(make_balancer(), pose, make_tool())
        assert np.allclose(cap.a, ANCHOR)
        assert np.allclose(cap.b, [0.0, 0.0, 0.74])
        assert cap.radius == pytest.approx(0.01)

    def test_degenerate_raises(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        with pytest.raises(DegenerateCable):
            cable_capsule(make_balancer(), Pose(np.eye(3), ANCHOR), tool)


class TestSpecs:
    def test_balancer_validation(self):
        with pytest.raises(ValueError):
            make_balancer(max_load=0.0)
        with pytest.raises(ValueError):
            make_balancer(cable_radius=-0.01)

    def test_tool_rejects_boxes(self):
        with pytest.raises(ValueError):
            ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                     handle_a=[0, 0, -0.1], handle_b=[0, 0, 0.05],
                     handle_radius=0.02,
                     shapes=(("tool/head", Box(Pose.identity(), [0.1, 0.1, 0.1])),))

    def test_tool_rejects_zero_handle(self):
        with pytest.raises(ValueError):
            ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                     handle_a=[0, 0, 0.02], handle_b=[0, 0, 0.02],
                     handle_radius=0.02)

    def test_cable_dir_is_normalized(self):
        tool = ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 5.0],
                        handle_a=[0, 0, -0.1], handle_b=[0, 0, 0.05],
                        handle_radius=0.02)
        assert np.allclose(tool.cable_dir, [0, 0, 1])

    def test_shape_segments_and_world_transform(self):
        tool = make_tool()
        segs, radii, names = tool.shape_segments()
        assert segs.shape == (2, 2, 3)
        assert names == ["tool/body", "tool/tip"]
        assert radii == pytest.approx([0.018, 0.02])
        poses = [Pose(rot_y(0.5), [0.1, -0.2, 0.8]), Pose(rot_z(2.0), [0.0, 0.3, 0.5])]
        world = tool.segments_world(np.stack([p.r for p in poses]),
                                    np.stack([p.t for p in poses]))
        assert world.shape == (2, 2, 2, 3)
        for w, pose in enumerate(poses):
            assert np.allclose(world[w, 0, 0], pose.apply([0, 0, -0.10]))
            assert np.allclose(world[w, 0, 1], pose.apply([0, 0, 0.05]))
            assert np.allclose(world[w, 1, 0], pose.apply([0, 0, -0.13]))
            assert np.allclose(world[w, 1, 1], world[w, 1, 0])
