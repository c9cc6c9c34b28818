import numpy as np
import pytest

from tetherplan.collision import (
    ArmLinkSpec,
    Box,
    Capsule,
    CollisionWorld,
    Sphere,
    _arm_segments,
    _build_pair_table,
    _pair_clearances,
    _seg_box_batch,
    arm_link_segments,
    link_names,
    motion_clearances,
    robot_in_collision,
    segment_box_distance,
    segment_segment_distance,
    shape_clearance,
)
from tetherplan.cable import with_cable
from tetherplan.geometry import Pose, rpy_to_rot
from tetherplan.robot import DualArm, fk_batch, fk_frames, ur3_arm

from helpers import HOME_LEFT, HOME_RIGHT, make_problem
from oracles import segment_box_distance_sampled, segment_distance_sampled


def random_segment(rng, scale=1.0):
    return rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3)


class TestSegmentSegment:
    def test_parallel_segments(self):
        d = segment_segment_distance([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_crossing_segments(self):
        d = segment_segment_distance([-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1])
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_intersecting_segments(self):
        d = segment_segment_distance([-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0])
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_collinear_gap(self):
        d = segment_segment_distance([0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0])
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_point_vs_point(self):
        d = segment_segment_distance([1, 2, 3], [1, 2, 3], [1, 2, 7], [1, 2, 7])
        assert d == pytest.approx(4.0, abs=1e-12)

    def test_point_vs_segment(self):
        d = segment_segment_distance([0, 0, 2], [0, 0, 2], [-1, 0, 0], [1, 0, 0])
        assert d == pytest.approx(2.0, abs=1e-12)
        d = segment_segment_distance([-1, 0, 0], [1, 0, 0], [5, 0, 2], [5, 0, 2])
        assert d == pytest.approx(np.hypot(4.0, 2.0), abs=1e-12)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p1, p2 = random_segment(rng)
            q1, q2 = random_segment(rng)
            exact = segment_segment_distance(p1, p2, q1, q2)
            sampled = segment_distance_sampled(p1, p2, q1, q2)
            assert exact <= sampled + 1e-12
            assert exact == pytest.approx(sampled, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p1, p2 = random_segment(rng)
            q1, q2 = random_segment(rng)
            assert segment_segment_distance(p1, p2, q1, q2) == pytest.approx(
                segment_segment_distance(q1, q2, p1, p2), abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p1, p2 = random_segment(rng)
            q1, q2 = random_segment(rng)
            r = rpy_to_rot(*rng.uniform(-np.pi, np.pi, 3))
            t = rng.uniform(-5, 5, 3)
            d0 = segment_segment_distance(p1, p2, q1, q2)
            d1 = segment_segment_distance(r @ p1 + t, r @ p2 + t,
                                          r @ q1 + t, r @ q2 + t)
            assert d1 == pytest.approx(d0, abs=1e-9)


class TestCapsules:
    def test_touching_is_free(self):
        a = Capsule([0, 0, 0], [1, 0, 0], 0.5)
        b = Capsule([0, 1.0, 0], [1, 1.0, 0], 0.5)
        assert shape_clearance(a, b) == 0.0

    def test_overlap_is_hit(self):
        a = Capsule([0, 0, 0], [1, 0, 0], 0.5)
        b = Capsule([0, 0.999, 0], [1, 0.999, 0], 0.5)
        assert shape_clearance(a, b) < 0.0

    def test_radius_growth_never_clears_a_hit(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p1, p2 = random_segment(rng)
            q1, q2 = random_segment(rng)
            r1, r2 = rng.uniform(0.05, 0.5, 2)
            a = Capsule(p1, p2, r1)
            b = Capsule(q1, q2, r2)
            if shape_clearance(a, b) < 0.0:
                assert shape_clearance(Capsule(p1, p2, r1 + 0.1), b) < 0.0
                assert shape_clearance(a, Capsule(q1, q2, r2 + 0.1)) < 0.0

    def test_sphere_is_degenerate_capsule(self):
        s = Sphere([0, 0, 2], 0.5)
        c = Capsule([-1, 0, 0], [1, 0, 0], 0.25)
        assert shape_clearance(s, c) == pytest.approx(2.0 - 0.75, abs=1e-12)
        assert shape_clearance(c, s) == pytest.approx(2.0 - 0.75, abs=1e-12)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            Capsule([0, 0, 0], [1, 0, 0], 0.0)
        with pytest.raises(ValueError):
            Sphere([0, 0, 0], -1.0)


class TestSegmentBox:
    BOX = Box(Pose.identity(), [1.0, 1.0, 1.0])

    def test_point_facing_a_face(self):
        d = segment_box_distance([2, 0, 0], [2, 0, 0], self.BOX)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_point_facing_an_edge(self):
        d = segment_box_distance([2, 2, 0], [2, 2, 0], self.BOX)
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_point_facing_a_corner(self):
        d = segment_box_distance([2, 2, 2], [2, 2, 2], self.BOX)
        assert d == pytest.approx(np.sqrt(3.0), abs=1e-9)

    def test_point_inside(self):
        d = segment_box_distance([0.5, -0.25, 0.1], [0.5, -0.25, 0.1], self.BOX)
        assert d == 0.0

    def test_segment_through_box(self):
        d = segment_box_distance([-3, 0, 0], [3, 0, 0], self.BOX)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_segment_passing_beside(self):
        d = segment_box_distance([-3, 1.5, 0], [3, 1.5, 0], self.BOX)
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_exact_known_answers(self):
        # Touches the edge x = y = 1 at its midpoint.
        assert segment_box_distance([2, 0, 0], [0, 2, 0], self.BOX) == 0.0
        # Nearest at the end point, off the corner (1, 1, 1).
        d = segment_box_distance([3, 3, 3], [1.5, 1.5, 1.5], self.BOX)
        assert d == pytest.approx(np.sqrt(0.75), abs=1e-15)
        # A point and a segment lying in the face plane x = 1.
        assert segment_box_distance([1, 3, 0], [1, 3, 0], self.BOX) == 2.0
        assert segment_box_distance([1, -3, 2], [1, 3, 2], self.BOX) == 1.0

    def test_skew_segment_matches_dense_sampling(self):
        rng = np.random.default_rng(11)
        box = Box(Pose.from_rpy([0.3, 0.2, 0.5], [0.4, -0.3, 1.1]),
                  [0.5, 0.3, 0.8])
        for _ in range(100):
            p1, p2 = random_segment(rng, scale=2.0)
            exact = segment_box_distance(p1, p2, box)
            sampled = segment_box_distance_sampled(
                p1, p2, box.pose.r, box.pose.t, box.half_extents)
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
                assert batch[w, k] == segment_box_distance(p1[w, k], p2[w, k], box)
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
            d0 = segment_box_distance(p1, p2, box)
            d1 = segment_box_distance(r @ p1 + t, r @ p2 + t, moved)
            assert d1 == pytest.approx(d0, abs=1e-7)

    def test_sphere_vs_box_clearance(self):
        s = Sphere([3, 0, 0], 0.5)
        assert shape_clearance(s, self.BOX) == pytest.approx(1.5, abs=1e-9)
        assert shape_clearance(self.BOX, s) == pytest.approx(1.5, abs=1e-9)

    def test_box_box_unsupported(self):
        with pytest.raises(TypeError):
            shape_clearance(self.BOX, Box(Pose.identity(), [1, 1, 1]))


def make_robot():
    left = ur3_arm(Pose(np.eye(3), [0.0, 0.25, 0.0]))
    right = ur3_arm(Pose(np.eye(3), [0.0, -0.25, 0.0]))
    return DualArm(left=left, right=right)


def make_world(statics=None, excluded=()):
    spec = ArmLinkSpec(radii=[0.045, 0.045, 0.04, 0.035, 0.035, 0.03])
    return CollisionWorld(statics or {}, {"left": spec, "right": spec}, excluded)


class TestWorld:
    def test_home_pose_is_free(self):
        robot = make_robot()
        world = make_world()
        q = np.zeros(6)
        report = robot_in_collision(world, robot, q, q)
        assert not report.pairs
        assert report.min_clearance > 0.0

    def test_static_capsule_through_arm_is_named(self):
        robot = make_robot()
        q = np.zeros(6)
        _, pts = fk_frames(robot.left, q)
        elbow = 0.5 * (pts[2] + pts[3])
        bar = Capsule(elbow + [0, 0, 0.5], elbow - [0, 0, 0.5], 0.02)
        world = make_world({"bar": bar})
        report = robot_in_collision(world, robot, q, q)
        assert report.pairs
        assert any("bar" in pair for pair in report.pairs)
        assert any(pair[0].startswith("left/link") for pair in report.pairs)

    def test_excluded_pair_is_ignored(self):
        robot = make_robot()
        q = np.zeros(6)
        _, pts = fk_frames(robot.left, q)
        elbow = 0.5 * (pts[2] + pts[3])
        bar = Capsule(elbow + [0, 0, 0.5], elbow - [0, 0, 0.5], 0.02)
        world = make_world({"bar": bar},
                           excluded=[("bar", f"left/link{i}") for i in range(1, 7)])
        report = robot_in_collision(world, robot, q, q)
        assert not report.pairs

    def test_held_shape_ignores_the_holding_wrist_only(self):
        robot = make_robot()
        world = make_world()
        q = np.zeros(6)
        tcp, _ = fk_frames(robot.left, q)
        axis = tcp.r[:, 2]
        handle = Capsule(tcp.t - 0.05 * axis, tcp.t + 0.05 * axis, 0.02)
        held = robot_in_collision(world, robot, q, q,
                                  attached={"left": [("tool", handle)]})
        assert all({"tool", "left/link6"} != set(p) for p in held.pairs)
        loose = robot_in_collision(world, robot, q, q,
                                   attached={"right": [("tool", handle)]})
        assert ("left/link6", "tool") in loose.pairs or \
            ("tool", "left/link6") in loose.pairs

    def test_table_box_under_arms(self):
        robot = make_robot()
        table = Box(Pose(np.eye(3), [0.0, 0.0, -0.5]), [1.0, 1.0, 0.4])
        world = make_world({"table": table})
        q = np.zeros(6)
        assert not robot_in_collision(world, robot, q, q).pairs
        raised = Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4])
        world2 = make_world({"table": raised})
        report = robot_in_collision(world2, robot, q, q)
        assert report.pairs
        assert any("table" in pair for pair in report.pairs)

    def test_with_static_is_a_copy(self):
        world = make_world()
        bigger = world.with_static("post", Capsule([0, 0, 0], [0, 0, 1], 0.05))
        assert "post" not in world.statics
        assert "post" in bigger.statics

    def test_batch_matches_scalar(self):
        # Two inputs: the bare arms, then a capsule held by the left arm
        # along its approach axis in a world with a box.  Every reported
        # pair is checked against an independent per-pair clearance.
        robot = make_robot()
        post = Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04)
        table = Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4])
        rng = np.random.default_rng(13)
        qs_l = rng.uniform(-1.0, 1.0, (5, 6))
        qs_r = rng.uniform(-1.0, 1.0, (5, 6))
        held = []
        for q in qs_l:
            tcp, _ = fk_frames(robot.left, q)
            held.append(Capsule(tcp.t - 0.05 * tcp.r[:, 2],
                                tcp.t + 0.25 * tcp.r[:, 2], 0.02))
        tool_hits = 0
        for world, tools in ((make_world({"post": post}), None),
                             (make_world({"post": post, "table": table}), held)):
            attach = () if tools is None else (
                np.array([[[c.a, c.b]] for c in tools]), [0.02], ["tool"], ("left",))
            clear, _, names = motion_clearances(world, robot, qs_l, qs_r, *attach)
            assert not any({"tool", "left/link6"} == set(p) for p in names)
            for w in range(5):
                shapes = dict(world.statics)
                attached = None
                if tools is not None:
                    shapes["tool"] = tools[w]
                    attached = {"left": [("tool", tools[w])]}
                report = robot_in_collision(world, robot, qs_l[w], qs_r[w], attached)
                assert clear[w] == pytest.approx(report.min_clearance, abs=1e-9)
                for side, q in (("left", qs_l[w]), ("right", qs_r[w])):
                    spec = world.link_specs[side]
                    links = arm_link_segments(robot.arm(side), spec, q)[0]
                    for name, (a, b), r in zip(link_names(side), links, spec.radii):
                        shapes[name] = Capsule(a, b, r)
                pair_clear = [shape_clearance(shapes[i], shapes[j]) for i, j in names]
                assert min(pair_clear) == pytest.approx(clear[w], abs=1e-9)
                assert report.pairs == tuple(
                    p for p, c in zip(names, pair_clear) if c < 0.0)
                tool_hits += sum("tool" in p for p in report.pairs)
        assert tool_hits > 0

    def test_link_segments_shape(self):
        robot = make_robot()
        spec = ArmLinkSpec(radii=[0.04] * 6)
        segs = arm_link_segments(robot.left, spec, np.zeros((3, 6)))
        assert segs.shape == (3, 6, 2, 3)
        # Consecutive links share an endpoint.
        for k in range(4):
            assert np.allclose(segs[0, k, 1], segs[0, k + 1, 0])


def dense_minimum(world, robot, q_left, q_right, *attach):
    """Row minimum and first-index argmin of the dense pair matrix."""
    clear, table = _pair_clearances(world, robot, q_left, q_right,
                                    *(attach or (None, (), (), ())))
    idx = np.argmin(clear, axis=1)
    return clear[np.arange(clear.shape[0]), idx], idx, table.pair_names


def assert_matches_dense(world, robot, q_left, q_right, *attach):
    got = motion_clearances(world, robot, q_left, q_right, *attach)
    want = dense_minimum(world, robot, q_left, q_right, *attach)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    return got


def held_tool(robot, q_left):
    """A capsule held along the left arm's approach axis: the attach args."""
    rot, tcp, _ = fk_batch(robot.left, q_left)
    axis = rot[:, :, 2]
    segs = np.stack([tcp - 0.05 * axis, tcp + 0.25 * axis], axis=1)[:, None]
    return segs, [0.02], ["tool"], ("left",)


def cluttered_world():
    """A post, a cable excluded against the tool, a table and a tilted box."""
    return make_world({
        "post": Capsule([0.3, 0.0, 0.0], [0.3, 0.0, 1.0], 0.04),
        "table": Box(Pose(np.eye(3), [0.0, 0.0, -0.3]), [1.0, 1.0, 0.4]),
        "crate": Box(Pose(rpy_to_rot(0.3, 0.2, 0.5), [0.35, -0.2, 0.45]),
                     [0.1, 0.15, 0.05]),
    }).with_static("cable", Capsule([0.2, 0.1, 1.5], [0.2, 0.1, 0.6], 0.01),
                   exclude_against=["tool"])


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
            # The idle arm's one-row FK, broadcast, is the FK of every row.
            spec = world.link_specs["right"]
            assert np.array_equal(_arm_segments(robot.right, spec, idle),
                                  arm_link_segments(robot.right, spec, idle))

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
                                                 [0.25], ["tool"], ("left",))
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
        # centre, so each row's clearance meets its coarse neighbours'
        # bounds with equality: only the margin keeps the row's entry.
        robot = make_robot()
        world = make_world({"ball": Sphere([2.0, 0.0, 0.5], 0.5)})
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = 33
            heading = rng.normal(size=3)
            heading /= np.linalg.norm(heading)
            dist = np.linspace(0.45, 0.05, w) + rng.uniform(0.0, 0.04)
            point = np.array([2.0, 0.0, 0.5]) + dist[:, None] * heading
            segs = np.repeat(point[:, None, None], 2, axis=2)
            ql = np.tile(HOME_LEFT, (w, 1))
            qr = np.tile(HOME_RIGHT, (w, 1))
            clear, idx, names = assert_matches_dense(
                world, robot, ql, qr, segs, [0.01], ["tool"], ("left",))
            assert {names[k] for k in idx} == {("ball", "tool")}


class TestPairTableMemo:
    def test_equal_worlds_share_one_table(self):
        pb = make_problem([0.3, 0.0, 0.3], [0.3, 0.1, 0.3])
        names = [name for name, _ in pb.tool.shapes]
        radii = [0.018, 0.03]
        first, second = (with_cable(pb.world, pb.balancer, pb.start_pose, pb.tool)
                         for _ in range(2))
        assert first is not second
        table = _build_pair_table(first, names, radii, ("left",))
        assert _build_pair_table(second, names, radii, ("left",)) is table

    def test_a_changed_input_gets_its_own_table(self):
        pb = make_problem([0.3, 0.0, 0.3], [0.3, 0.1, 0.3])
        names = [name for name, _ in pb.tool.shapes]
        radii = [0.018, 0.03]
        world = with_cable(pb.world, pb.balancer, pb.start_pose, pb.tool)
        table = _build_pair_table(world, names, radii, ("left",))
        thicker = make_problem([0.3, 0.0, 0.3], [0.3, 0.1, 0.3], cable_radius=0.02)
        variants = [
            (with_cable(thicker.world, thicker.balancer, thicker.start_pose,
                        thicker.tool), ("left",)),
            (world.with_static("cable", world.statics["cable"],
                               exclude_against=["left/link1"]), ("left",)),
            (world, ()),
        ]
        for other, holding in variants:
            assert _build_pair_table(other, names, radii, holding) is not table
        assert not np.array_equal(
            _build_pair_table(variants[0][0], names, radii, ("left",)).radius,
            table.radius)
