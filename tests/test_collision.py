import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetherplan
from tetherplan.collision import (
    ArmLinkSpec,
    Box,
    Capsule,
    CollisionWorld,
    _pair_bounds,
    _pair_table,
    _query,
    _seg_box_batch,
    _seg_seg_batch,
    arm_link_segments,
    capsule_segments,
    link_names,
    motion_clearances,
)
from tetherplan.cable import CABLE
from tetherplan.geometry import Pose, rpy_to_rot
from tetherplan.robot import DualArm, fk_chain_batch
from tetherplan.scene import default_scene

from helpers import HOME_LEFT, HOME_RIGHT, make_problem
from oracles import dense_pair_clearances, einsum_pair_bounds, \
    einsum_seg_box_batch, einsum_seg_seg_batch, loop_pair_table, rot_axis_angle, \
    segment_box_distance_sampled, segment_distance_sampled


def random_segment(rng, scale=1.0):
    return rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3)


class TestSegmentSegment:
    # Each known answer is one pair, p1, p2, q1, q2 stacked in a (4, 3)
    # array; the kernel takes any leading axes, none included.
    def test_parallel_segments(self):
        d = _seg_seg_batch(*np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_crossing_segments(self):
        d = _seg_seg_batch(*np.array([[-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1]], float))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_intersecting_segments(self):
        d = _seg_seg_batch(*np.array([[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0]], float))
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_collinear_gap(self):
        d = _seg_seg_batch(*np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], float))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_point_vs_point(self):
        d = _seg_seg_batch(*np.array([[1, 2, 3], [1, 2, 3], [1, 2, 7], [1, 2, 7]], float))
        assert d == pytest.approx(4.0, abs=1e-12)

    def test_point_vs_segment(self):
        d = _seg_seg_batch(*np.array([[0, 0, 2], [0, 0, 2], [-1, 0, 0], [1, 0, 0]], float))
        assert d == pytest.approx(2.0, abs=1e-12)
        d = _seg_seg_batch(*np.array([[-1, 0, 0], [1, 0, 0], [5, 0, 2], [5, 0, 2]], float))
        assert d == pytest.approx(np.hypot(4.0, 2.0), abs=1e-12)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(7)
        pairs = np.array([(*random_segment(rng), *random_segment(rng))
                          for _ in range(200)])
        exact = _seg_seg_batch(*pairs.transpose(1, 0, 2))
        for pair, d in zip(pairs, exact):
            sampled = segment_distance_sampled(*pair)
            assert d <= sampled + 1e-12
            assert d == pytest.approx(sampled, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        p1, p2, q1, q2 = np.array([(*random_segment(rng), *random_segment(rng))
                                   for _ in range(50)]).transpose(1, 0, 2)
        np.testing.assert_allclose(_seg_seg_batch(p1, p2, q1, q2),
                                   _seg_seg_batch(q1, q2, p1, p2), rtol=0, atol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p1, p2 = random_segment(rng)
            q1, q2 = random_segment(rng)
            r = rpy_to_rot(*rng.uniform(-np.pi, np.pi, 3))
            t = rng.uniform(-5, 5, 3)
            d0 = _seg_seg_batch(p1, p2, q1, q2)
            d1 = _seg_seg_batch(r @ p1 + t, r @ p2 + t, r @ q1 + t, r @ q2 + t)
            assert d1 == pytest.approx(d0, abs=1e-9)


class TestCapsules:
    # A pair's clearance is its segment distance less the radius sum, as
    # a query measures it; touching is 0.0, and only < 0.0 is a hit.
    def test_touching_is_free(self):
        segs, radii = capsule_segments([Capsule([0, 0, 0], [1, 0, 0], 0.5),
                                        Capsule([0, 1.0, 0], [1, 1.0, 0], 0.5)])
        assert _seg_seg_batch(*segs.reshape(4, 3)) - radii.sum() == 0.0

    def test_overlap_is_hit(self):
        segs, radii = capsule_segments([Capsule([0, 0, 0], [1, 0, 0], 0.5),
                                        Capsule([0, 0.999, 0], [1, 0.999, 0], 0.5)])
        assert _seg_seg_batch(*segs.reshape(4, 3)) - radii.sum() < 0.0

    def test_radius_growth_never_clears_a_hit(self):
        rng = np.random.default_rng(10)
        rows = [(*random_segment(rng), *random_segment(rng), rng.uniform(0.05, 0.5, 2))
                for _ in range(100)]
        p1, p2, q1, q2, radii = (np.array(c) for c in zip(*rows))
        dist = _seg_seg_batch(p1, p2, q1, q2)
        hit = dist - radii.sum(axis=1) < 0.0
        assert hit.any()
        for grown in (radii + [0.1, 0.0], radii + [0.0, 0.1]):
            assert np.all(dist[hit] - grown[hit].sum(axis=1) < 0.0)

    def test_sphere_is_degenerate_capsule(self):
        segs, radii = capsule_segments([Capsule([0, 0, 2], [0, 0, 2], 0.5),
                                        Capsule([-1, 0, 0], [1, 0, 0], 0.25)])
        assert np.array_equal(segs[0], [[0, 0, 2], [0, 0, 2]])
        d = _seg_seg_batch(segs[:, 0], segs[:, 1], segs[::-1, 0], segs[::-1, 1])
        np.testing.assert_allclose(d - radii.sum(), 2.0 - 0.75, rtol=0, atol=1e-12)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            Capsule([0, 0, 0], [1, 0, 0], 0.0)
        with pytest.raises(ValueError):
            Capsule([0, 0, 0], [0, 0, 0], -1.0)


class TestSegmentBox:
    BOX = Box(Pose(), [1.0, 1.0, 1.0])

    def test_point_facing_a_face(self):
        d = _seg_box_batch([2, 0, 0], [2, 0, 0], self.BOX)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_point_facing_an_edge(self):
        d = _seg_box_batch([2, 2, 0], [2, 2, 0], self.BOX)
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_point_facing_a_corner(self):
        d = _seg_box_batch([2, 2, 2], [2, 2, 2], self.BOX)
        assert d == pytest.approx(np.sqrt(3.0), abs=1e-9)

    def test_point_inside(self):
        d = _seg_box_batch([0.5, -0.25, 0.1], [0.5, -0.25, 0.1], self.BOX)
        assert d == 0.0

    def test_segment_through_box(self):
        d = _seg_box_batch([-3, 0, 0], [3, 0, 0], self.BOX)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_segment_passing_beside(self):
        d = _seg_box_batch([-3, 1.5, 0], [3, 1.5, 0], self.BOX)
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_exact_known_answers(self):
        d = _seg_box_batch(np.array([[2, 0, 0], [3, 3, 3], [1, 3, 0], [1, -3, 2]]),
                           np.array([[0, 2, 0], [1.5, 1.5, 1.5], [1, 3, 0], [1, 3, 2]]),
                           self.BOX)
        # Touches the edge x = y = 1 at its midpoint.
        assert d[0] == 0.0
        # Nearest at the end point, off the corner (1, 1, 1).
        assert d[1] == pytest.approx(np.sqrt(0.75), abs=1e-15)
        # A point and a segment lying in the face plane x = 1.
        assert d[2] == 2.0
        assert d[3] == 1.0

    def test_skew_segment_matches_dense_sampling(self):
        rng = np.random.default_rng(11)
        box = Box(Pose.from_rpy([0.3, 0.2, 0.5], [0.4, -0.3, 1.1]),
                  [0.5, 0.3, 0.8])
        p1, p2 = np.array([random_segment(rng, scale=2.0)
                           for _ in range(100)]).transpose(1, 0, 2)
        for a, b, exact in zip(p1, p2, _seg_box_batch(p1, p2, box)):
            sampled = segment_box_distance_sampled(
                a, b, box.pose.r, box.pose.t, box.half_extents)
            assert exact <= sampled + 1e-9
            assert exact == pytest.approx(sampled, abs=1e-5)

    def test_batch_with_points_and_axis_parallel_segments(self):
        rng = np.random.default_rng(13)
        boxes = (Box(Pose(np.eye(3), [0.2, -0.1, 0.3]), [0.5, 0.3, 0.8]),
                 Box(Pose.from_rpy([0.3, 0.2, 0.5], [0.4, -0.3, 1.1]),
                     [0.5, 0.3, 0.8]))
        for box in boxes:
            p1 = rng.uniform(-2.0, 2.0, (6, 9, 3))
            p2 = rng.uniform(-2.0, 2.0, (6, 9, 3))
            # Columns 0-2 are points, columns 3-8 run along a box axis.
            p2[:, :3] = p1[:, :3]
            for k, axis in zip(range(3, 9), (0, 1, 2, 0, 1, 2)):
                length = rng.uniform(-2.0, 2.0, (6, 1))
                p2[:, k] = p1[:, k] + length * box.pose.r[:, axis]
            batch = _seg_box_batch(p1, p2, box)
            assert batch.shape == (6, 9)
            for w, k in np.ndindex(6, 9):
                assert batch[w, k] == _seg_box_batch(p1[w, k], p2[w, k], box)
                sampled = segment_box_distance_sampled(
                    p1[w, k], p2[w, k], box.pose.r, box.pose.t, box.half_extents)
                assert batch[w, k] <= sampled + 1e-9
                assert batch[w, k] == pytest.approx(sampled, abs=1e-5)

    def test_rotating_box_and_segment_together_preserves_distance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p1, p2 = random_segment(rng, scale=2.0)
            r = rpy_to_rot(*rng.uniform(-np.pi, np.pi, 3))
            t = rng.uniform(-2, 2, 3)
            box = Box(Pose(np.eye(3), [0, 0, 0]), [0.4, 0.6, 0.2])
            moved = Box(Pose(r, t), [0.4, 0.6, 0.2])
            d0 = _seg_box_batch(p1, p2, box)
            d1 = _seg_box_batch(r @ p1 + t, r @ p2 + t, moved)
            assert d1 == pytest.approx(d0, abs=1e-7)

    def test_sphere_vs_box_clearance(self):
        segs, radii = capsule_segments([Capsule([3, 0, 0], [3, 0, 0], 0.5)])
        clear = _seg_box_batch(segs[:, 0], segs[:, 1], self.BOX) - radii
        np.testing.assert_allclose(clear, [1.5], rtol=0, atol=1e-9)


def make_robot():
    left = Pose(np.eye(3), [0.0, 0.25, 0.0])
    right = Pose(np.eye(3), [0.0, -0.25, 0.0])
    return DualArm(left=left, right=right)


def make_world(statics=None, excluded=()):
    spec = ArmLinkSpec(radii=[0.045, 0.045, 0.04, 0.035, 0.035, 0.03])
    return CollisionWorld(statics or {}, spec, excluded)


# Its top is at z = 0.1 m, into the arms at home.
RAISED_TABLE = Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4])


def overlaps(world, robot, q_left, q_right):
    """Strictly overlapping pairs of the bare arms at one configuration
    pair, read off the dense matrix's single row."""
    clear, table = dense_pair_clearances(
        world, arm_link_segments(robot, world.link_spec, q_left, q_right)[0], None, (), ())
    return [table.pair_names[k] for k in np.nonzero(clear[0] < 0.0)[0]]


class TestWorld:
    def test_home_pose_is_free(self):
        robot = make_robot()
        world = make_world()
        q = np.zeros((1, 6))
        clear, _, _ = motion_clearances(world, arm_link_segments(robot, world.link_spec, q, q)[0])
        assert clear[0] > 0.0
        assert not overlaps(world, robot, q, q)

    def test_static_capsule_through_arm_is_named(self):
        robot = make_robot()
        q = np.zeros(6)
        pts = fk_chain_batch(robot.left.r, robot.left.t, q)[2][0]
        elbow = 0.5 * (pts[2] + pts[3])
        bar = Capsule(elbow + [0, 0, 0.5], elbow - [0, 0, 0.5], 0.02)
        world = make_world({"bar": bar})
        pairs = overlaps(world, robot, q, q)
        assert pairs
        assert any("bar" in pair for pair in pairs)
        assert any(pair[0].startswith("left/link") for pair in pairs)

    def test_excluded_pair_is_ignored(self):
        robot = make_robot()
        q = np.zeros(6)
        pts = fk_chain_batch(robot.left.r, robot.left.t, q)[2][0]
        elbow = 0.5 * (pts[2] + pts[3])
        bar = Capsule(elbow + [0, 0, 0.5], elbow - [0, 0, 0.5], 0.02)
        world = make_world({"bar": bar},
                           excluded=[("bar", f"left/link{i}") for i in range(1, 7)])
        assert not overlaps(world, robot, q, q)

    def test_table_box_under_arms(self):
        robot = make_robot()
        table = Box(Pose(np.eye(3), [0.0, 0.0, -0.5]), [1.0, 1.0, 0.4])
        world = make_world({"table": table})
        q = np.zeros(6)
        assert not overlaps(world, robot, q, q)
        world2 = make_world({"table": RAISED_TABLE})
        pairs = overlaps(world2, robot, q, q)
        assert pairs
        assert any("table" in pair for pair in pairs)

    def test_batch_matches_scalar(self):
        # Two inputs: the bare arms, then a capsule held by the left arm
        # along its approach axis in a world with a box.  Every pair is
        # checked against an independent per-pair clearance.
        robot = make_robot()
        post = Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04)
        table = Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4])
        rng = np.random.default_rng(13)
        qs_l = rng.uniform(-1.0, 1.0, (5, 6))
        qs_r = rng.uniform(-1.0, 1.0, (5, 6))
        rot, tcp, _, _ = fk_chain_batch(robot.left.r, robot.left.t, qs_l)
        held = [Capsule(t - 0.05 * r[:, 2], t + 0.25 * r[:, 2], 0.02)
                for r, t in zip(rot, tcp)]
        tool_hits = 0
        for world, tools in ((make_world({"post": post}), None),
                             (make_world({"post": post, "table": table}), held)):
            attach = (None, (), ()) if tools is None else (
                np.array([[[c.a, c.b]] for c in tools]), [0.02], ["tool"])
            links = arm_link_segments(robot, world.link_spec, qs_l, qs_r)[0]
            clear, _, names = motion_clearances(world, links, *attach)
            dense, pairs = dense_pair_clearances(world, links, *attach)
            assert pairs.pair_names == names
            for w in range(5):
                shapes = dict(world.statics)
                if tools is not None:
                    shapes["tool"] = tools[w]
                spec = world.link_spec
                row = arm_link_segments(robot, spec, qs_l[w], qs_r[w])[0][0]
                for side, segs in (("left", row[:6]), ("right", row[6:])):
                    for name, (a, b), r in zip(link_names(side), segs, spec.radii):
                        shapes[name] = Capsule(a, b, r)
                pair_clear = []
                for i, j in names:
                    # The first of a pair is capsule-like; boxes come second.
                    if isinstance(shapes[j], Box):
                        segs, radii = capsule_segments([shapes[i]])
                        d = _seg_box_batch(segs[0, 0], segs[0, 1], shapes[j])
                    else:
                        segs, radii = capsule_segments([shapes[i], shapes[j]])
                        d = _seg_seg_batch(*segs.reshape(4, 3))
                    pair_clear.append(d - radii.sum())
                assert min(pair_clear) == pytest.approx(clear[w], abs=1e-9)
                np.testing.assert_allclose(dense[w], pair_clear, rtol=0, atol=1e-9)
                tool_hits += sum("tool" in p and c < 0.0
                                 for p, c in zip(names, pair_clear))
        assert tool_hits > 0

    @pytest.mark.parametrize("setback", [-0.2, 0.0, math.nan])
    def test_palm_setback_must_be_positive(self, setback):
        with pytest.raises(ValueError, match="palm_setback"):
            ArmLinkSpec(radii=[0.04] * 6, palm_setback=setback)

    def test_link_segments_shape(self):
        robot = make_robot()
        spec = ArmLinkSpec(radii=[0.04] * 6)
        segs = arm_link_segments(robot, spec, np.zeros((3, 6)), np.ones((3, 6)))[0]
        assert segs.shape == (3, 12, 2, 3)
        # Consecutive links of one arm share an endpoint.
        for k in (*range(4), *range(6, 10)):
            assert np.allclose(segs[0, k, 1], segs[0, k + 1, 0])

    def test_one_fk_call_gives_both_arms_links_and_tcp_poses(self, monkeypatch):
        robot = make_robot()
        spec = ArmLinkSpec(radii=[0.04] * 6, palm_setback=0.07)
        rng = np.random.default_rng(38)
        q_left, q_right = rng.uniform(-3.0, 3.0, (2, 7, 6))
        rows, chain = [], fk_chain_batch
        monkeypatch.setattr("tetherplan.robot.fk_chain_batch",
                            lambda *a: rows.append(len(a[2])) or chain(*a))
        links, tcp_r, tcp_t = arm_link_segments(robot, spec, q_left, q_right)
        assert rows == [14]
        assert links.shape == (7, 12, 2, 3)
        assert tcp_r.shape == (2, 7, 3, 3) and tcp_t.shape == (2, 7, 3)
        for arm, (base, q) in enumerate(((robot.left, q_left), (robot.right, q_right))):
            # Each arm's poses are its FK alone, bit for bit.
            rot, tcp, _, _ = chain(base.r, base.t, q)
            assert np.array_equal(tcp_r[arm], rot) and np.array_equal(tcp_t[arm], tcp)
            # Its last link ends at the palm point, set back from the TCP.
            palm = tcp_t[arm] - spec.palm_setback * tcp_r[arm][:, :, 2]
            assert np.array_equal(links[:, 6 * arm + 5, 1], palm)


def dense_minimum(world, robot, q_left, q_right, *attach):
    """Row minimum and first-index argmin of the dense pair matrix."""
    clear, table = dense_pair_clearances(
        world, arm_link_segments(robot, world.link_spec, q_left, q_right)[0],
        *(attach or (None, (), ())))
    idx = np.argmin(clear, axis=1)
    return clear[np.arange(clear.shape[0]), idx], idx, table.pair_names


def assert_matches_dense(world, robot, q_left, q_right, *attach):
    got = motion_clearances(
        world, arm_link_segments(robot, world.link_spec, q_left, q_right)[0], *attach)
    want = dense_minimum(world, robot, q_left, q_right, *attach)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    return got


def held_tool(robot, q_left):
    """A capsule held along the left arm's approach axis: the attach args."""
    rot, tcp, _, _ = fk_chain_batch(robot.left.r, robot.left.t, q_left)
    axis = rot[:, :, 2]
    segs = np.stack([tcp - 0.05 * axis, tcp + 0.25 * axis], axis=1)[:, None]
    return segs, [0.02], ["tool"]


def cluttered_world():
    """A post, a static cable excluded against the tool, a table and a
    tilted box."""
    return make_world({
        "post": Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04),
        "table": Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4]),
        "crate": Box(Pose(rpy_to_rot(0.3, 0.2, 0.5), [0.35, -0.2, 0.45]),
                     [0.1, 0.15, 0.05]),
        "cable": Capsule([0.2, 0.1, 1.5], [0.2, 0.1, 0.6], 0.01),
    }, excluded=[("cable", "tool")])


class TestBoundedClearances:
    """motion_clearances against the min and argmin of the dense matrix."""

    @pytest.mark.parametrize("w", [1, 2, 5, 8, 9, 16, 17, 40])
    def test_interpolated_edges(self, w):
        robot = make_robot()
        world = cluttered_world()
        rng = np.random.default_rng(100 + w)
        for step in (0.02, 0.3):
            qa_l, qa_r = rng.uniform(-np.pi, np.pi, (2, 6))
            ql = np.linspace(qa_l, qa_l + rng.uniform(-step, step, 6) * w, w)
            qr = np.linspace(qa_r, qa_r + rng.uniform(-step, step, 6) * w, w)
            assert_matches_dense(world, robot, ql, qr)
            assert_matches_dense(world, robot, ql, qr, *held_tool(robot, ql))

    def test_unrelated_rows(self):
        robot = make_robot()
        world = cluttered_world()
        rng = np.random.default_rng(21)
        for w in (3, 23):
            ql, qr = rng.uniform(-np.pi, np.pi, (2, w, 6))
            assert_matches_dense(world, robot, ql, qr, *held_tool(robot, ql))

    def test_one_idle_arm(self):
        robot = make_robot()
        world = cluttered_world()
        rng = np.random.default_rng(22)
        for w in (5, 30):
            moving = np.linspace(HOME_LEFT, HOME_LEFT + rng.uniform(-1, 1, 6), w)
            idle = np.tile(HOME_RIGHT, (w, 1))
            assert_matches_dense(world, robot, moving, idle,
                                 *held_tool(robot, moving))
            # Every row gets the segments of a call of its own.
            spec = world.link_spec
            segs = arm_link_segments(robot, spec, moving, idle)[0]
            assert np.array_equal(segs, np.concatenate(
                [arm_link_segments(robot, spec, m, q)[0] for m, q in zip(moving, idle)]))

    def test_exact_touch(self):
        # A capsule of radius 0.25 slides 0.25 above the top face of a
        # block: every row touches with clearance exactly 0.0.
        robot = make_robot()
        world = make_world({"block": Box(Pose(np.eye(3), [3.0, 0.0, -0.5]),
                                         [1.0, 1.0, 0.5])})
        w = 19
        x = np.linspace(2.2, 3.4, w)
        segs = np.zeros((w, 1, 2, 3))
        segs[:, 0, :, 0] = np.stack([x, x + 0.3], axis=1)
        segs[:, 0, :, 2] = 0.25
        ql = np.linspace(HOME_LEFT, HOME_LEFT + 0.5, w)
        qr = np.tile(HOME_RIGHT, (w, 1))
        clear, idx, names = assert_matches_dense(world, robot, ql, qr, segs,
                                                 [0.25], ["tool"])
        assert np.all(clear == 0.0)
        assert {names[k] for k in idx} == {("tool", "block")}

    def test_tie_between_identical_statics(self):
        robot = make_robot()
        post = Capsule([0.2, 0.2, -0.2], [0.2, 0.2, 0.8], 0.05)
        world = make_world({"post_a": post, "post_b": post})
        w = 25
        ql = np.linspace(HOME_LEFT, HOME_LEFT + 0.6, w)
        qr = np.tile(HOME_RIGHT, (w, 1))
        clear, idx, names = assert_matches_dense(world, robot, ql, qr)
        on_post = [names[k] for k in idx if "post_a" in names[k]]
        assert on_post and not any("post_b" in names[k] for k in idx)

    def test_tight_bound(self):
        # A point held inside a static sphere moves straight at its
        # centre, so its entry's bounds meet its clearance with equality.
        # In the second pass a rod on the same line points end to end at
        # the centre from the other side, as far from it as the point:
        # the rod's midpoint lower bound equals its clearance and the
        # point's upper bound, so only the margin keeps the rod's entry
        # when rounding lifts that lower bound above the point's.
        robot = make_robot()
        centre = np.array([2.0, 0.0, 0.5])
        world = make_world({"ball": Capsule(centre, centre, 0.5)})
        rng = np.random.default_rng(23)
        for rod in (False, True):
            for _ in range(20):
                w = 33
                heading = rng.normal(size=3)
                heading /= np.linalg.norm(heading)
                dist = np.linspace(0.45, 0.05, w) + rng.uniform(0.0, 0.04)
                point = centre + dist[:, None] * heading
                segs = np.repeat(point[:, None, None], 2, axis=2)
                radii, names = [0.01], ["tool"]
                if rod:
                    far = centre - (dist + rng.uniform(0.05, 0.5))[:, None] * heading
                    near = centre - dist[:, None] * heading
                    segs = np.concatenate(
                        [segs, np.stack([far, near], axis=1)[:, None]], axis=1)
                    radii, names = [0.01, 0.01], ["tool", "rod"]
                ql = np.tile(HOME_LEFT, (w, 1))
                qr = np.tile(HOME_RIGHT, (w, 1))
                clear, idx, pairs = assert_matches_dense(
                    world, robot, ql, qr, segs, radii, names)
                assert {pairs[k] for k in idx} <= {("ball", n) for n in names}

    def test_empty_batch_returns_empty(self):
        # Zero rows give empty (W,) arrays and the pair names, with and
        # without attached bodies, as every other batch kernel does.
        robot = make_robot()
        world = cluttered_world()
        empty = np.zeros((0, 6))
        for k in (0, 1):
            radii, names = [0.02] * k, ["tool"] * k
            clear, idx, pairs = motion_clearances(
                world, arm_link_segments(robot, world.link_spec, empty, empty)[0],
                np.zeros((0, k, 2, 3)), radii, names)
            assert clear.shape == idx.shape == (0,)
            assert pairs == motion_clearances(
                world, arm_link_segments(robot, world.link_spec, HOME_LEFT, HOME_RIGHT)[0],
                np.zeros((1, k, 2, 3)), radii, names)[2]
            assert any("tool" in pair for pair in pairs) == bool(k)


def test_pair_bounds_enclose_the_exact_clearance():
    # Seeded configurations of the cluttered world, whose crate is
    # turned, with the held tool and a sphere attached.  A sphere has no
    # half-length, so its box bounds are its exact clearance.
    robot = make_robot()
    world = cluttered_world()
    rng = np.random.default_rng(31)
    w = 200
    ql, qr = rng.uniform(-np.pi, np.pi, (2, w, 6))
    tool, _, _ = held_tool(robot, ql)
    ball = np.repeat(rng.uniform([0.1, -0.5, 0.0], [0.6, 0.5, 0.7], (w, 1, 1, 3)),
                     2, axis=2)
    attach = (np.concatenate([tool, ball], axis=1), [0.02, 0.03], ["tool", "ball"])
    links = arm_link_segments(robot, world.link_spec, ql, qr)[0]
    caps, table = _query(world, links, *attach)
    lower, upper = (b.T for b in _pair_bounds(caps, world.boxes, table))
    exact, _ = dense_pair_clearances(world, links, *attach)
    assert lower.shape == upper.shape == exact.shape
    assert np.all(lower <= exact + 1e-12) and np.all(exact <= upper + 1e-12)
    on_box = (table.box >= 0) & np.array([a == "ball" for a, _ in table.pair_names])
    assert on_box.sum() == len(world.boxes)
    assert np.allclose(lower[:, on_box], exact[:, on_box], rtol=0.0, atol=1e-12)
    assert np.allclose(upper[:, on_box], exact[:, on_box], rtol=0.0, atol=1e-12)


class TestEinsumForms:
    """The component-major kernels against verbatim copies of their
    einsum forms (tests/oracles.py), bit for bit, on seeded batches of
    12,000 rows: flat, with leading shape (W, K) = (40, 300), and as the
    (n, 3) views of contiguous (3, n) planes that _measure passes.  The
    einsum forms read contiguous (n, 3) rows, as they did in the library;
    an einsum sums a row in another order when its rows are strided."""

    N = 12_000

    @classmethod
    def segments(cls, rng):
        """(4, N, 3) endpoints p1, p2, q1, q2: general segments over five
        scales, then zero-length, parallel, collinear and touching ones,
        and a quarter on a coarse dyadic grid, where such cases are exact."""
        n, k = cls.N, cls.N // 8
        p1, p2, q1, q2 = rng.uniform(-1.0, 1.0, (4, n, 3)) * 10.0 ** rng.integers(-3, 2, (n, 1))
        p2[:k] = p1[:k]                                  # p is a point,
        q2[k // 2:2 * k] = q1[k // 2:2 * k]              # q is, or both are
        u = rng.uniform(-2.0, 2.0, (3, k, 1))
        d = p2[2 * k:3 * k] - p1[2 * k:3 * k]
        q2[2 * k:3 * k] = q1[2 * k:3 * k] + u[0] * d     # parallel
        d = p2[3 * k:4 * k] - p1[3 * k:4 * k]
        q1[3 * k:4 * k] = p1[3 * k:4 * k] + u[1] * d     # collinear
        q2[3 * k:4 * k] = p1[3 * k:4 * k] + u[2] * d
        d = p2[4 * k:5 * k] - p1[4 * k:5 * k]
        q1[4 * k:5 * k] = p1[4 * k:5 * k] + np.abs(u[0]) / 2.0 * d   # touching or crossing
        q1[4 * k:4 * k + k // 4] = p2[4 * k:4 * k + k // 4]          # a shared endpoint
        grid = rng.integers(-3, 4, (4, n - 6 * k, 3)) / 4.0
        p1[6 * k:], p2[6 * k:], q1[6 * k:], q2[6 * k:] = grid
        return np.stack([p1, p2, q1, q2])

    @staticmethod
    def boxes(rng):
        """An axis-aligned box and one turned about a random axis."""
        turn = rot_axis_angle(rng.normal(size=3), rng.uniform(0.3, 3.0))
        return (Box(Pose(np.eye(3), [0.25, -0.5, 0.0]), [0.5, 0.25, 0.75]),
                Box(Pose(turn, [0.1, 0.2, -0.3]), [0.3, 0.5, 0.2]))

    @classmethod
    def box_segments(cls, rng, box):
        """(2, N, 3) segments about box: general ones, points (a quarter
        of them inside), segments along the box axes, and a quarter on a
        dyadic grid in the box frame, which puts endpoints on the faces of
        an axis-aligned box."""
        n, k = cls.N, cls.N // 8
        span = 2.0 * box.half_extents
        local = rng.uniform(-span, span, (2, n, 3))
        local[1, :2 * k] = local[0, :2 * k]
        local[:, :k // 2] *= 0.4                               # points inside
        along = rng.integers(0, 3, 2 * k)
        local[1, 2 * k:4 * k] = local[0, 2 * k:4 * k]
        local[1, 2 * k + np.arange(2 * k), along] += rng.uniform(-2.0, 2.0, 2 * k)
        local[:, 6 * k:] = rng.integers(-4, 5, (2, n - 6 * k, 3)) / 4.0 * box.half_extents
        return local @ box.pose.r.T + box.pose.t

    @staticmethod
    def forms(x):
        """Kernel and einsum-form arguments from x (K, N, 3): flat, with
        leading shape (40, 300), and, for the kernel, as (N, 3) views of
        contiguous (3, N) planes."""
        planes = np.ascontiguousarray(np.moveaxis(x, -1, -2))
        return {"flat": (x, x),
                "lead": (x.reshape(x.shape[:-2] + (40, 300, 3)),) * 2,
                "views": (np.moveaxis(planes, -2, -1), x)}

    @pytest.mark.parametrize("form", ["flat", "lead", "views"])
    def test_seg_seg_equals_the_einsum_form(self, form):
        segs = self.segments(np.random.default_rng(71))
        got, want = self.forms(segs)[form]
        assert got.shape == want.shape
        assert np.array_equal(_seg_seg_batch(*got), einsum_seg_seg_batch(*want))

    @pytest.mark.parametrize("form", ["flat", "lead", "views"])
    def test_seg_box_equals_the_einsum_form(self, form):
        rng = np.random.default_rng(72)
        for box in self.boxes(rng):
            segs = self.box_segments(rng, box)
            got, want = self.forms(segs)[form]
            inside = np.all(np.abs((segs - box.pose.t) @ box.pose.r)
                            < 0.9 * box.half_extents, axis=(0, 2))
            assert inside.sum() > 100
            dist = _seg_box_batch(*got, box)
            assert np.array_equal(dist, einsum_seg_box_batch(*want, box))
            assert np.all(dist.reshape(-1)[inside] == 0.0)

    def test_pair_bounds_and_dense_matrix_equal_the_einsum_forms(self):
        # The cluttered world, whose crate is turned, with the held tool
        # and a sphere attached; the einsum forms read the capsules in
        # their (W, N, 2, 3) layout.
        robot = make_robot()
        world = cluttered_world()
        rng = np.random.default_rng(73)
        w = 120
        ql, qr = rng.uniform(-np.pi, np.pi, (2, w, 6))
        tool, _, _ = held_tool(robot, ql)
        ball = np.repeat(rng.uniform([0.1, -0.5, 0.0], [0.6, 0.5, 0.7], (w, 1, 1, 3)),
                         2, axis=2)
        attach = (np.concatenate([tool, ball], axis=1), [0.02, 0.03], ["tool", "ball"])
        links = arm_link_segments(robot, world.link_spec, ql, qr)[0]
        caps, table = _query(world, links, *attach)
        rows = np.ascontiguousarray(caps.transpose(3, 2, 0, 1))
        lower, upper = _pair_bounds(caps, world.boxes, table)
        assert lower.size >= 10**4
        want = einsum_pair_bounds(rows, world.boxes, table)
        assert np.array_equal(lower, want[0].T) and np.array_equal(upper, want[1].T)
        dense, _ = dense_pair_clearances(world, links, *attach)
        first = rows[:, table.first]
        want = np.empty_like(dense)
        pairs = table.box < 0
        second = rows[:, table.second[pairs]]
        want[:, pairs] = einsum_seg_seg_batch(first[:, pairs, 0], first[:, pairs, 1],
                                              second[:, :, 0], second[:, :, 1])
        for k, box in enumerate(world.boxes):
            on = table.box == k
            want[:, on] = einsum_seg_box_batch(first[:, on, 0], first[:, on, 1], box)
        assert np.array_equal(dense, want - table.radius)


# The tool shapes and the cable, attached as a constrained approach edge
# and the re-check attach them.
ATTACHED = ["tool/handle", "tool/head", CABLE]
ATTACHED_RADII = [0.018, 0.03, 0.01]


class TestPairTableMemo:
    def test_one_world_builds_each_table_once(self):
        first, second = (make_problem([0.3, 0.0, 0.3], [0.3, 0.1, 0.3]).world
                         for _ in range(2))
        tables = [_pair_table(first, ATTACHED[:k], ATTACHED_RADII[:k])
                  for k in (2, 3)]
        assert tables[0] is not tables[1]
        for k, table in zip((2, 3), tables):
            assert _pair_table(first, ATTACHED[:k], ATTACHED_RADII[:k]) is table
            assert _pair_table(first, tuple(ATTACHED[:k]),
                               np.array(ATTACHED_RADII[:k])) is table
        assert len(first.pair_tables) == 2
        # An equal but separate world builds its own.
        other = _pair_table(second, ATTACHED, ATTACHED_RADII)
        assert other is not tables[1] and other.pair_names == tables[1].pair_names
        # The statics are read-only, so neither the split nor a table
        # goes stale.
        with pytest.raises(TypeError):
            first.statics["post"] = Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04)

    def test_a_changed_input_gets_its_own_table(self):
        world = make_problem([0.3, 0.0, 0.3], [0.3, 0.1, 0.3]).world
        table = _pair_table(world, ATTACHED, ATTACHED_RADII)
        thicker = _pair_table(world, ATTACHED, ATTACHED_RADII[:2] + [0.02])
        assert thicker is not table
        assert not np.array_equal(thicker.radius, table.radius)
        excluded = CollisionWorld(world.statics, world.link_spec,
                                  [*map(tuple, world.excluded),
                                   (CABLE, "left/link1")])
        other = _pair_table(excluded, ATTACHED, ATTACHED_RADII)
        assert ("left/link1", CABLE) in table.pair_names
        assert set(other.pair_names) == set(table.pair_names) - {("left/link1", CABLE)}


def pair_table_worlds():
    """The default world; it with two static capsules, a second turned
    box and two more exclusions; a world with no box; one with no
    statics at all."""
    base = default_scene().base.world
    cluttered = CollisionWorld(
        {**base.statics, "post": Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04),
         "ball": Capsule([0.0, 0.3, 0.3], [0.0, 0.3, 0.3], 0.05),
         "crate": Box(Pose(rpy_to_rot(0.3, 0.2, 0.5), [0.35, -0.2, 0.45]),
                      [0.1, 0.15, 0.05])},
        base.link_spec, [*map(tuple, base.excluded), (CABLE, "left/link1"),
                         ("crate", "right/link6")])
    no_box = CollisionWorld({"post": cluttered.statics["post"]}, base.link_spec,
                            [("post", "tool/head")])
    return {"default": base, "cluttered": cluttered, "no_box": no_box,
            "bare": CollisionWorld({}, base.link_spec)}


@pytest.mark.parametrize("world", ["default", "cluttered", "no_box", "bare"])
@pytest.mark.parametrize("k", [0, 2, 3])
def test_pair_table_equals_the_loop_reference(world, k):
    world = pair_table_worlds()[world]
    got = _pair_table(world, ATTACHED[:k], ATTACHED_RADII[:k])
    want = loop_pair_table(world, ATTACHED[:k], ATTACHED_RADII[:k])
    assert got.pair_names == want.pair_names
    for name in ("first", "second", "box", "radius"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


def test_pair_table_pairs_no_two_statics_and_no_two_attached_bodies():
    # The default world with the tool shapes and the cable attached, and
    # the same world with two static capsules and a second box added.
    worlds = pair_table_worlds()
    for world in (worlds["default"], worlds["cluttered"]):
        table = _pair_table(world, ATTACHED, ATTACHED_RADII)
        boxes = {n for n, s in world.statics.items() if isinstance(s, Box)}
        statics = set(world.statics) - boxes
        links = set(link_names("left") + link_names("right"))
        capsules = 2 * len(link_names("left")) + len(statics) + len(ATTACHED)
        assert boxes and table.box.max() >= 0
        for (a, b), box, second in zip(table.pair_names, table.box, table.second):
            assert not {a, b} <= statics | boxes
            assert not {a, b} <= set(ATTACHED)
            if box >= 0:
                assert b in boxes and second == capsules
                assert a in links or a in ATTACHED
            else:
                assert a not in boxes and b not in boxes


@pytest.mark.parametrize("edit, message", [
    # The first two were dropped without a word: the last body left
    # every pair, or zip left the last name out of the table.
    (lambda a: a.update(attached_names=ATTACHED[:-1], attached_radii=ATTACHED_RADII[:-1]),
     "attached_segments holds 3 bodies, attached_names 2 and attached_radii 2"),
    (lambda a: a.update(attached_radii=ATTACHED_RADII[:-1]),
     "attached_segments holds 3 bodies, attached_names 3 and attached_radii 2"),
    (lambda a: a.update(attached_segments=a["attached_segments"][:, :-1]),
     "attached_segments holds 2 bodies, attached_names 3 and attached_radii 3"),
    (lambda a: a.update(attached_segments=None),
     "attached_segments holds 0 bodies, attached_names 3 and attached_radii 3"),
    (lambda a: a.update(q_right=a["q_right"][:-1]),
     "q_left has 4 rows and q_right 3"),
    (lambda a: a.update(attached_segments=a["attached_segments"][:-1]),
     "links has 4 rows and attached_segments 3"),
    (lambda a: a.update(attached_segments=a["attached_segments"][0]),
     r"attached_segments must be \(W, K, 2, 3\), not \(3, 2, 3\)"),
], ids=["one_segment_too_many", "one_radius_short", "one_segment_short",
        "names_without_segments", "q_right_short", "segment_rows_short",
        "segments_without_rows"])
def test_mismatched_attached_inputs_raise(edit, message):
    w = 4
    args = dict(q_left=np.tile(HOME_LEFT, (w, 1)), q_right=np.tile(HOME_RIGHT, (w, 1)),
                attached_segments=np.tile([[0.3, 0.0, 0.3], [0.3, 0.0, 0.5]], (w, 3, 1, 1)),
                attached_radii=ATTACHED_RADII, attached_names=ATTACHED)

    def clearances(q_left, q_right, **attach):
        world = cluttered_world()
        return motion_clearances(world, arm_link_segments(
            make_robot(), world.link_spec, q_left, q_right)[0], **attach)

    clearances(**args)
    edit(args)
    with pytest.raises(ValueError, match=message):
        clearances(**args)


def test_links_of_another_shape_raise():
    world, robot = cluttered_world(), make_robot()
    links = arm_link_segments(robot, world.link_spec, np.tile(HOME_LEFT, (4, 1)),
                              np.tile(HOME_RIGHT, (4, 1)))[0]
    motion_clearances(world, links)
    with pytest.raises(ValueError, match=r"links must be \(W, 12, 2, 3\), not \(4, 6, 2, 3\)"):
        motion_clearances(world, links[:, :6])


@pytest.mark.parametrize("pose, half", [
    (Pose(np.eye(3), [np.nan, 0.0, 0.5]), [0.1, 0.1, 0.1]),
    (Pose(np.eye(3), [0.0, -np.inf, 0.5]), [0.1, 0.1, 0.1]),
    (Pose(np.where(np.eye(3) > 0, np.nan, 0.0), [0.0, 0.0, 0.5]), [0.1, 0.1, 0.1]),
    (Pose(np.eye(3), [0.0, 0.0, 0.5]), [0.1, np.inf, 0.1]),
    (Pose(np.eye(3), [0.0, 0.0, 0.5]), [0.1, np.nan, 0.1]),
], ids=["nan_centre", "inf_centre", "nan_rotation", "inf_half_extent",
        "nan_half_extent"])
def test_a_non_finite_box_is_rejected(pose, half):
    # The two arms at home sink into the raised table.  A box at a NaN
    # centre used to make each row's least upper bound NaN, so that no
    # entry was measured and the row read +inf instead.
    robot, world = make_robot(), make_world({"table": RAISED_TABLE})
    links = arm_link_segments(robot, world.link_spec, HOME_LEFT, HOME_RIGHT)[0]
    assert motion_clearances(world, links)[0][0] < 0.0
    with pytest.raises(ValueError, match="box"):
        Box(pose, half)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("body", ["links", "attached"])
def test_non_finite_segments_are_rejected(body, value):
    robot, world = make_robot(), make_world({"table": RAISED_TABLE})
    links = arm_link_segments(robot, world.link_spec, np.tile(HOME_LEFT, (4, 1)),
                              np.tile(HOME_RIGHT, (4, 1)))[0]
    held = np.tile([[0.3, 0.0, 0.3], [0.3, 0.0, 0.5]], (4, 1, 1, 1))
    assert np.all(motion_clearances(world, links, held, [0.02], ["tool"])[0] < 0.0)
    (links if body == "links" else held)[2, 0, 1, 1] = value
    with pytest.raises(ValueError, match="link and attached segments must be finite"):
        motion_clearances(world, links, held, [0.02], ["tool"])


# motion_clearances of 64 rows by a tilted arm base and a rotated crate,
# with a capsule tossed about the crate, and again on a seeded subset of the rows and on a
# permutation of that subset; the rotations come from rot_x, rot_y, rot_z
# and einsum, so no BLAS call builds them.  Hashed byte for byte.
_ROWS_DIGEST = """\
import hashlib
import numpy as np
from tetherplan.collision import (ArmLinkSpec, Box, Capsule, CollisionWorld,
                                  arm_link_segments, motion_clearances)
from tetherplan.geometry import Pose, rot_x, rot_y, rot_z
from tetherplan.robot import DualArm
tilt = np.einsum("ij,jk->ik", rot_x(0.4), rot_y(-0.3))
robot = DualArm(left=Pose(tilt, [0.0, 0.25, 0.0]),
                right=Pose(rot_z(0.2), [0.0, -0.25, 0.0]))
crate = Box(Pose(np.einsum("ij,jk->ik", rot_z(0.5), rot_x(0.3)),
                 [0.3, 0.0, 0.3]), [0.1, 0.15, 0.05])
world = CollisionWorld(
    {"crate": crate, "post": Capsule([0.3, 0.4, 0.0], [0.3, 0.4, 1.0], 0.04)},
    ArmLinkSpec(radii=[0.045, 0.045, 0.04, 0.035, 0.035, 0.03]))
rng = np.random.default_rng(41)
home = np.array([[2.435, -0.529, -1.542, 0.5, -1.571, 2.435],
                 [2.795, -0.529, -1.543, 0.501, -1.571, 2.795]])
ql, qr = home[:, None] + rng.uniform(-0.3, 0.3, (2, 64, 6))
held = crate.pose.t + rng.uniform(-0.25, 0.25, (64, 1, 2, 3))
links = arm_link_segments(robot, world.link_spec, ql, qr)[0]
full = motion_clearances(world, links, held, [0.02], ["tool"])
subset = np.sort(rng.choice(64, 23, replace=False))
perm = rng.permutation(subset)
parts = [motion_clearances(world, arm_link_segments(robot, world.link_spec, ql[k], qr[k])[0],
                           held[k], [0.02], ["tool"]) for k in (subset, perm)]
digest = hashlib.sha256(b"".join(
    a.tobytes() for out in (full, *parts) for a in out[:2])).hexdigest()
"""



def test_a_row_does_not_depend_on_the_rows_beside_it():
    here: dict = {}
    exec(_ROWS_DIGEST, here)
    full = here["full"]
    # The crate is the nearest body on some rows, so its kernel decides them.
    assert any("crate" in full[2][k] for k in full[1])
    for rows, (clear, idx, names) in zip((here["subset"], here["perm"]),
                                         here["parts"]):
        assert np.array_equal(clear, full[0][rows])
        assert np.array_equal(idx, full[1][rows])
        assert names == full[2]


def test_clearances_do_not_depend_on_the_blas_kernel():
    # As test_fk_does_not_depend_on_the_blas_kernel: Prescott is an
    # OpenBLAS kernel without FMA, and OPENBLAS_CORETYPE only takes
    # effect in an OpenBLAS built with DYNAMIC_ARCH.
    src = str(Path(tetherplan.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    prescott = subprocess.run([sys.executable, "-c", _ROWS_DIGEST + "print(digest)"],
                              env=env, capture_output=True, text=True, check=True)
    here: dict = {}
    exec(_ROWS_DIGEST, here)
    assert prescott.stdout.strip() == here["digest"]
