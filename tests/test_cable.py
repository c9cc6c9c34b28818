import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import HOME_LEFT, HOME_RIGHT, make_problem

from tetherplan.bench import recheck_plan
from tetherplan.cable import (
    CABLE,
    DEFAULT_MAX_BEND,
    BalancerSpec,
    BendConstraint,
    DegenerateCable,
    ToolSpec,
    bend_angle_batch,
    cable_segments,
)
from tetherplan.collision import Box, Capsule
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
        shapes=(("tool/body", Capsule([0, 0, -0.10], [0, 0, 0.05], 0.018)),
                ("tool/tip", Capsule([0, 0, -0.13], [0, 0, -0.13], 0.02))),
    )


class TestBendAngle:
    HANGING = np.array([[0.0, 0.0, 0.65]])

    def test_hanging_at_rest_is_zero(self):
        theta = bend_angle_batch(np.eye(3)[None], self.HANGING, make_balancer(), make_tool())
        assert theta[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi", np.linspace(0.0, math.pi * 0.9, 7).tolist())
    def test_pitch_equals_bend_for_centered_connector(self, phi):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        theta = bend_angle_batch(rot_y(phi)[None], self.HANGING, make_balancer(), tool)
        assert theta[0] == pytest.approx(phi, abs=1e-12)

    def test_spin_about_vertical_leaves_bend_unchanged(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        base = rot_y(0.7)
        ref = bend_angle_batch(base[None], self.HANGING, make_balancer(), tool)
        spun = np.stack([rot_z(psi) @ base for psi in np.linspace(-math.pi, math.pi, 9)])
        thetas = bend_angle_batch(spun, np.repeat(self.HANGING, 9, axis=0),
                                  make_balancer(), tool)
        np.testing.assert_allclose(thetas, ref[0], rtol=0, atol=1e-9)

    def test_matches_quaternion_arithmetic(self):
        rng = np.random.default_rng(21)
        tool = make_tool()
        bal = make_balancer()
        quats, ts = [], []
        for _ in range(200):
            quats.append(random_quat(rng))
            ts.append(rng.uniform(-0.5, 0.5, 3))
            ts[-1][2] = rng.uniform(0.3, 0.9)
        thetas = bend_angle_batch(np.stack([quat_matrix(q) for q in quats]),
                                  np.stack(ts), bal, tool)
        for q, t, theta in zip(quats, ts, thetas):
            conn = quat_rotate(q, tool.connector_point) + t
            cable = ANCHOR - conn
            boom = quat_rotate(q, tool.cable_dir)
            cos = float(np.dot(cable, boom) /
                        (np.linalg.norm(cable) * np.linalg.norm(boom)))
            expected = math.acos(max(-1.0, min(1.0, cos)))
            assert theta == pytest.approx(expected, abs=1e-9)

    def test_batch_matches_scalar(self):
        # A W-row batch equals its W rows, each a batch of one.
        rng = np.random.default_rng(22)
        tool = make_tool()
        bal = make_balancer()
        rots = np.stack([rpy_to_rot(*rng.uniform(-2, 2, 3)) for _ in range(40)])
        ts = rng.uniform(-0.4, 0.4, (40, 3))
        ts[:, 2] = rng.uniform(0.3, 0.9, 40)
        thetas = bend_angle_batch(rots, ts, bal, tool)
        for w in range(40):
            one = bend_angle_batch(rots[w:w + 1], ts[w:w + 1], bal, tool)
            assert one.shape == (1,)
            assert thetas[w] == pytest.approx(one[0], abs=1e-12)

    def test_connector_at_anchor_raises(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        with pytest.raises(DegenerateCable):
            bend_angle_batch(np.eye(3)[None], ANCHOR[None], make_balancer(), tool)
        # One degenerate row fails the whole batch.
        with pytest.raises(DegenerateCable):
            bend_angle_batch(np.stack([np.eye(3)] * 2), np.stack([self.HANGING[0], ANCHOR]),
                             make_balancer(), tool)


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
            mode="constrained", q=np.stack([HOME_LEFT, HOME_RIGHT])[None],
            tool_rot=pose.r[None], tool_t=pose.t[None], grasp=np.full((1, 2), -1),
            theta=np.zeros(1), clearance=np.zeros(1), edge_kinds=(),
            joint_distance=0.0)
        theta = bend_angle_batch(pose.r[None], pose.t[None], problem.balancer,
                                 problem.tool)[0]
        for limit, flagged in ((theta, 0), (np.nextafter(theta, np.inf), None)):
            tight = replace(problem, constraint=BendConstraint(theta_max=float(limit)))
            assert recheck_plan(motion, tight).bend_waypoint == flagged

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.pi, 4.0])
    def test_limit_must_be_interior(self, bad):
        with pytest.raises(ValueError):
            BendConstraint(theta_max=bad)


class TestCableCapsule:
    def test_runs_anchor_to_connector(self):
        # One attached segment per tool pose: the hanging tool, then the
        # tool turned a quarter about z and moved, which swings the
        # off-axis connector with it.
        rot = np.stack([np.eye(3), rot_z(math.pi / 2)])
        t = np.array([[0.0, 0.0, 0.65], [0.2, 0.1, 0.5]])
        segs = cable_segments(rot, t, make_balancer(), make_tool((0.1, 0.0, 0.09)))
        assert segs.shape == (2, 1, 2, 3)
        assert np.array_equal(segs[:, 0, 0], [ANCHOR, ANCHOR])
        assert np.allclose(segs[:, 0, 1], [[0.1, 0.0, 0.74], [0.2, 0.2, 0.59]])

    def test_degenerate_raises(self):
        tool = make_tool(connector=(0.0, 0.0, 0.0))
        with pytest.raises(DegenerateCable):
            cable_segments(np.eye(3)[None], ANCHOR[None], make_balancer(), tool)


class TestSpecs:
    def test_balancer_validation(self):
        with pytest.raises(ValueError):
            make_balancer(max_load=0.0)
        with pytest.raises(ValueError):
            make_balancer(cable_radius=-0.01)

    @pytest.mark.parametrize("name", ["max_load", "cable_radius"])
    def test_balancer_rejects_an_infinite_load_or_radius(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            make_balancer(**{name: math.inf})

    @pytest.mark.parametrize("anchor", [[math.nan, 0.0, 1.6], [0.0, 0.0, math.inf]])
    def test_balancer_rejects_a_non_finite_anchor(self, anchor):
        with pytest.raises(ValueError, match="anchor must be finite"):
            make_balancer(anchor=anchor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["connector_point", "cable_dir", "handle_a", "handle_b"])
    def test_tool_rejects_non_finite_vectors(self, name, bad):
        fields = dict(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                      handle_a=[0, 0, -0.1], handle_b=[0, 0, 0.05])
        fields[name] = [0.0, bad, 0.05]
        with pytest.raises(ValueError, match=f"tool {name} must be finite"):
            ToolSpec(**fields)

    def test_tool_rejects_boxes(self):
        with pytest.raises(ValueError):
            ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                     handle_a=[0, 0, -0.1], handle_b=[0, 0, 0.05],
                     shapes=(("tool/head", Box(Pose(), [0.1, 0.1, 0.1])),))

    def test_tool_rejects_zero_handle(self):
        with pytest.raises(ValueError):
            ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                     handle_a=[0, 0, 0.02], handle_b=[0, 0, 0.02])

    def test_cable_dir_is_normalized(self):
        tool = ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 5.0],
                        handle_a=[0, 0, -0.1], handle_b=[0, 0, 0.05])
        assert np.allclose(tool.cable_dir, [0, 0, 1])

    def test_shape_segments_and_world_transform(self):
        tool = make_tool()
        segs, radii, names = tool.shape_segments()
        assert segs.shape == (2, 2, 3)
        assert names == ["tool/body", "tool/tip"]
        assert radii == pytest.approx([0.018, 0.02])
        poses = [Pose(rot_y(0.5), [0.1, -0.2, 0.8]), Pose(rot_z(2.0), [0.0, 0.3, 0.5])]
        world, world_radii, world_names = tool.bodies(np.stack([p.r for p in poses]),
                                                      np.stack([p.t for p in poses]))
        assert world.shape == (2, 2, 2, 3)
        assert np.array_equal(world_radii, radii) and world_names == names
        for w, pose in enumerate(poses):
            assert np.allclose(world[w, 0, 0], pose.r @ [0, 0, -0.10] + pose.t)
            assert np.allclose(world[w, 0, 1], pose.r @ [0, 0, 0.05] + pose.t)
            assert np.allclose(world[w, 1, 0], pose.r @ [0, 0, -0.13] + pose.t)
            assert np.allclose(world[w, 1, 1], world[w, 1, 0])


def test_bodies_equal_the_elementwise_transform():
    # The shapes move by sum_j rot[:, :, j] * p[j] + t, element by element,
    # and the cable is cable_segments', both bit for bit: no BLAS kernel
    # enters the bodies that ride with the tool.
    rng = np.random.default_rng(29)
    tool, balancer = make_tool((0.1, 0.0, 0.09)), make_balancer()
    rot = np.stack([quat_matrix(random_quat(rng)) for _ in range(50)])
    t = rng.uniform(-0.5, 0.5, (50, 3))
    local, radii, names = tool.shape_segments()
    want = (rot[:, None, None, :, 0] * local[None, :, :, None, 0]
            + rot[:, None, None, :, 1] * local[None, :, :, None, 1]
            + rot[:, None, None, :, 2] * local[None, :, :, None, 2]
            ) + t[:, None, None, :]
    segs, got_radii, got_names = tool.bodies(rot, t)
    assert segs.tobytes() == want.tobytes()
    assert np.array_equal(got_radii, radii) and got_names == names
    segs, got_radii, got_names = tool.bodies(rot, t, balancer)
    k = len(names)
    assert segs.shape == (50, k + 1, 2, 3)
    assert segs[:, :k].tobytes() == want.tobytes()
    assert segs[:, k:].tobytes() == cable_segments(rot, t, balancer, tool).tobytes()
    assert np.array_equal(got_radii, [*radii, balancer.cable_radius])
    assert got_names == names + [CABLE]
