import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import QUICK, make_problem, make_tool
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import pop_and_check_search

from tetherplan import planner, robot
from tetherplan.cable import CABLE, BendConstraint, ToolSpec, bend_angle_batch, \
    cable_segments
from tetherplan.collision import Capsule, CollisionWorld, _pair_clearances, \
    motion_clearances
from tetherplan.geometry import Pose, rot_x
from tetherplan.planner import (
    EmptyGraspSet,
    PlanCache,
    PlannerOptions,
    PlanningProblem,
    _EdgeData,
    _Search,
    _pose_key,
    interp_joints,
    plan,
    sample_grasps,
    solve_stations,
)
from tetherplan.robot import fk
from tetherplan.scene import default_scene


class TestSampleGrasps:
    def test_count_and_ids(self):
        grasps = sample_grasps(make_tool(), "left", 5, 12)
        assert len(grasps) == 60
        assert [g.grasp_id for g in grasps] == list(range(60))
        assert all(g.side == "left" for g in grasps)

    def test_frames_are_valid(self):
        tool = make_tool()
        axis = np.array([0.0, 0.0, 1.0])
        for g in sample_grasps(tool, "right", 4, 6):
            r = g.pose_tool.r
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)
            # y column runs along the handle.
            assert np.allclose(r[:, 1], axis, atol=1e-12)
            # Grasp point lies on the handle axis, inside the inset band.
            assert g.pose_tool.t[0] == pytest.approx(0.0, abs=1e-12)
            assert g.pose_tool.t[1] == pytest.approx(0.0, abs=1e-12)
            assert -0.10 + 0.02 - 1e-9 <= g.pose_tool.t[2] <= 0.08 - 0.02 + 1e-9
            assert g.axial == pytest.approx(g.pose_tool.t[2] + 0.10)

    def test_rolls_cover_the_circle(self):
        grasps = sample_grasps(make_tool(), "left", 1, 8)
        dirs = np.stack([g.pose_tool.r[:, 2] for g in grasps])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert np.linalg.norm(dirs.sum(axis=0)) < 1e-9

    def test_empty_parameterizations_raise(self):
        with pytest.raises(EmptyGraspSet):
            sample_grasps(make_tool(), "left", 0, 12)
        with pytest.raises(EmptyGraspSet):
            sample_grasps(make_tool(), "left", 5, 0)
        short = ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                         handle_a=[0, 0, 0.0], handle_b=[0, 0, 0.03],
                         handle_radius=0.02)
        with pytest.raises(EmptyGraspSet):
            sample_grasps(short, "left", 3, 4)

    def test_cache_samples_each_content_key_once(self, monkeypatch):
        calls = []
        sample = planner.sample_grasps

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(planner, "sample_grasps", counted)
        cache = PlanCache()
        opts = PlannerOptions(axial_samples=3, roll_samples=4)
        first = cache.grasp_set(make_tool(), "left", opts)
        assert cache.grasp_set(make_tool(), "left", opts) is first
        fresh = sample(make_tool(), "left", 3, 4, opts.grasp_inset)
        assert [(g.grasp_id, g.axial) for g in first] == \
            [(g.grasp_id, g.axial) for g in fresh]
        assert all(np.array_equal(a.pose_tool.r, b.pose_tool.r)
                   and np.array_equal(a.pose_tool.t, b.pose_tool.t)
                   for a, b in zip(first, fresh))
        cache.grasp_set(make_tool(), "right", opts)
        cache.grasp_set(make_tool(), "left", replace(opts, roll_samples=5))
        assert len(calls) == 3


class TestInterp:
    def test_endpoints_exact(self):
        qa = np.array([0.0, 1.0, -0.5, 0.2, 0.0, 0.3])
        qb = np.array([0.4, 0.9, 0.5, 0.2, -1.0, 0.3])
        qs = interp_joints(qa, qb, 0.05)
        assert np.array_equal(qs[0], qa)
        assert np.array_equal(qs[-1], qb)

    def test_step_bound(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            qa = rng.uniform(-3, 3, 6)
            qb = rng.uniform(-3, 3, 6)
            qs = interp_joints(qa, qb, 0.05)
            steps = np.abs(np.diff(qs, axis=0))
            assert steps.max() <= 0.05 + 1e-12

    def test_zero_motion(self):
        q = np.ones(6)
        qs = interp_joints(q, q, 0.05)
        assert qs.shape == (2, 6)


class TestPlanning:
    def test_direct_transfer(self):
        # Goal within easy reach of the same arm: no handover needed.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        result = plan(problem, constrained=True, options=QUICK)
        assert result.success, result.stats
        p = result.plan
        assert p.mode == "constrained"
        assert p.edge_kinds[0] == "approach"
        assert p.n_edges == len(p.edge_kinds)
        assert p.n_edges == 2
        # Starts pre-grasp, ends holding.
        assert p.holding[0] == ()
        assert len(p.holding[-1]) == 1
        # Tool ends at the goal pose within IK tolerance.
        assert np.linalg.norm(p.tool_t[-1] - [0.3, 0.1, 0.45]) < 5e-4
        # Constrained plans respect the bend limit everywhere.
        assert p.theta.max() < problem.constraint.theta_max
        assert p.clearance.min() >= 0.0
        assert p.n_waypoints == p.q_left.shape[0] == len(p.holding)

    def test_handover_when_one_arm_cannot_complete(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        # Precondition: neither arm can serve both ends alone.  The
        # right arm has no feasible grasp at the start and the left
        # none at the goal, so any plan must change hands.
        cache = PlanCache()
        solve_stations([problem], QUICK, cache)
        probe = _Search(problem, True, QUICK, cache)
        assert not probe.node_configs(0, "right")
        assert not probe.node_configs(2, "left")
        result = plan(problem, constrained=True, options=QUICK)
        assert result.success, result.stats
        p = result.plan
        assert "handover" in p.edge_kinds
        assert p.edge_kinds == ("approach", "transfer", "handover", "transfer")
        holders = [h for h in p.holding if h]
        assert holders[0][0][0] == "left"
        assert holders[-1][0][0] == "right"
        assert any(len(h) == 2 for h in p.holding)
        # Exactly one waypoint has both hands on the tool, and the grasps
        # there are distinct and well separated along the handle.
        dual = [h for h in p.holding if len(h) == 2]
        assert len(dual) == 1
        (s1, g1), (s2, g2) = dual[0]
        assert {s1, s2} == {"left", "right"}

    def test_deterministic_replans(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        a = plan(problem, constrained=True, options=QUICK).plan
        b = plan(problem, constrained=True, options=QUICK).plan
        assert np.array_equal(a.q_left, b.q_left)
        assert np.array_equal(a.q_right, b.q_right)
        assert np.array_equal(a.tool_t, b.tool_t)
        assert a.holding == b.holding

    def test_shared_cache_does_not_change_the_answer(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        cache = PlanCache()
        warm = plan(problem, constrained=True, options=QUICK, cache=cache)
        again = plan(problem, constrained=True, options=QUICK, cache=cache)
        cold = plan(problem, constrained=True, options=QUICK)
        assert np.array_equal(warm.plan.q_left, cold.plan.q_left)
        assert np.array_equal(again.plan.q_left, cold.plan.q_left)
        assert cache.edge_verdict  # the cache actually filled

    def test_budget_exhaustion_reported(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        result = plan(problem, constrained=True,
                      options=PlannerOptions(axial_samples=3, roll_samples=8,
                                             max_edges=0))
        assert not result.success
        assert result.failure == "budget"

    def test_tight_bend_limit_blocks_constrained_only(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        tight = PlanningProblem(
            robot=problem.robot, world=problem.world, balancer=problem.balancer,
            tool=problem.tool, constraint=BendConstraint(theta_max=0.05),
            start_pose=problem.start_pose, goal_pose=problem.goal_pose,
            handover_poses=problem.handover_poses,
            home_left=problem.home_left, home_right=problem.home_right)
        constrained = plan(tight, constrained=True, options=QUICK)
        unconstrained = plan(tight, constrained=False, options=QUICK)
        assert not constrained.success
        # Goal and hover poses already exceed the limit, so the search
        # prunes those stations up front rather than rejecting edges.
        assert constrained.stats.stations_pruned > 0
        assert unconstrained.success
        assert unconstrained.plan.theta.max() > 0.05

    def test_fat_cable_blocks_constrained_approach_only(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45],
                               cable_radius=0.45)
        constrained = plan(problem, constrained=True, options=QUICK)
        unconstrained = plan(problem, constrained=False, options=QUICK)
        assert unconstrained.success
        assert not constrained.success
        assert constrained.stats.edges_rejected.get("cable_collision", 0) > 0

    def test_unreachable_start_reports_no_feasible_start(self):
        problem = make_problem([2.0, 0.0, 0.5], [0.3, -0.35, 0.45])
        result = plan(problem, constrained=True, options=QUICK)
        assert not result.success
        assert result.failure == "no_feasible_start"

    def test_unreachable_goal_reports_exhausted(self):
        # The start has grasps, so the failure is not the start's.
        problem = make_problem([0.3, 0.35, 0.45], [2.0, 0.0, 0.5])
        result = plan(problem, constrained=True, options=QUICK)
        assert not result.success
        assert result.failure == "exhausted"

    def test_edge_budget_of_one_stops_after_one_check(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        result = plan(problem, constrained=True,
                      options=replace(QUICK, max_edges=1))
        assert result.failure == "budget"
        assert result.stats.edges_validated == 1

    def test_unconstrained_succeeds_whenever_constrained_does(self):
        for start, goal in [([0.3, 0.35, 0.45], [0.3, -0.35, 0.45]),
                            ([0.25, 0.3, 0.5], [0.35, -0.2, 0.45]),
                            ([0.2, 0.62, 0.4], [0.2, -0.62, 0.4])]:
            problem = make_problem(start, goal)
            if plan(problem, constrained=True, options=QUICK).success:
                assert plan(problem, constrained=False, options=QUICK).success


def _same_result(got, want):
    assert got.failure == want.failure
    if want.plan is None:
        assert got.plan is None
        return
    for name in ("q_left", "q_right", "tool_rot", "tool_t", "theta",
                 "clearance"):
        assert np.array_equal(getattr(got.plan, name), getattr(want.plan, name))
    for name in ("holding", "edge_kinds", "n_edges", "joint_distance"):
        assert getattr(got.plan, name) == getattr(want.plan, name)


def _reference(problem, constrained, options, cache):
    """The pop-and-check search on the stations of cache, with edge
    verdicts of its own."""
    own = PlanCache(grasps=cache.grasps, node_feasible=cache.node_feasible)
    return pop_and_check_search(_Search(problem, constrained, options, own))


class TestPathFirstSearch:
    """plan() checks only the edges of its candidate paths and returns
    the plan of the search that checks every popped edge."""

    def test_handover_plan_checks_fewer_edges_than_the_reference(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        cache = PlanCache()
        got = plan(problem, constrained=True, options=QUICK, cache=cache)
        want = _reference(problem, True, QUICK, cache)
        assert "handover" in got.plan.edge_kinds
        _same_result(got, want)
        assert got.stats.edges_validated < want.stats.edges_validated

    def test_no_path_to_the_goal_checks_no_edge(self):
        problem = make_problem([0.3, 0.35, 0.45], [2.0, 0.0, 0.5])
        result = plan(problem, constrained=True, options=QUICK)
        assert result.stats.edges_validated == 0

    def test_successors_are_listed_once_per_node(self, monkeypatch):
        listed = []
        successors = _Search.successors

        def counted(self, node):
            listed.append(node)
            return successors(self, node)

        monkeypatch.setattr(_Search, "successors", counted)
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        result = plan(problem, constrained=True, options=QUICK)
        # More than one pass ran, and none listed a node again.
        assert sum(result.stats.edges_rejected.values()) > 0
        assert len(listed) == len(set(listed))

    # Each example solves station IK, so a failure is reported as found
    # instead of shrunk through hundreds of plans.
    @settings(derandomize=True, deadline=None, max_examples=25,
              phases=(Phase.explicit, Phase.generate))
    @given(start=st.tuples(st.integers(15, 45), st.integers(-60, 60),
                           st.integers(30, 60)),
           goal=st.tuples(st.integers(15, 45), st.integers(-60, 60),
                          st.integers(30, 60)),
           theta_max=st.integers(5, 170), cable_radius=st.integers(1, 30),
           constrained=st.booleans())
    def test_plan_equals_the_pop_and_check_reference(
            self, start, goal, theta_max, cable_radius, constrained):
        # Positions in cm, the bend limit in centiradians, the cable
        # radius in cm.
        problem = replace(
            make_problem([v / 100 for v in start], [v / 100 for v in goal],
                         cable_radius=cable_radius / 100),
            constraint=BendConstraint(theta_max=theta_max / 100))
        cache = PlanCache()
        got = plan(problem, constrained=constrained, options=QUICK, cache=cache)
        _same_result(got, _reference(problem, constrained, QUICK, cache))


class TestAssembly:
    """A plan is its validated edge blocks joined end to end."""

    @pytest.mark.parametrize("constrained, goal, cable_radius", [
        (True, [0.3, -0.35, 0.45], 0.01),
        (False, [0.3, -0.35, 0.45], 0.01),
        # The thick cable of the attached-cable test is the nearest body
        # on some approach rows, so leaving it out would change them.
        (True, [0.3, 0.1, 0.45], 0.05),
    ])
    def test_plan_values_equal_a_dense_remeasure(self, constrained, goal,
                                                 cable_radius):
        problem = make_problem([0.3, 0.35, 0.45], goal,
                               cable_radius=cable_radius)
        p = plan(problem, constrained=constrained, options=QUICK).plan
        rot, t = p.tool_rot, p.tool_t
        assert np.array_equal(
            p.theta, bend_angle_batch(rot, t, problem.balancer, problem.tool))
        # The approach ends on the first held waypoint.
        approach = next(i for i, h in enumerate(p.holding) if h) + 1
        _, radii, names = problem.tool.shape_segments()
        segs = problem.tool.segments_world(rot, t)
        dense, _ = _pair_clearances(problem.world, problem.robot, p.q_left,
                                    p.q_right, segs, radii, names)
        want = dense.min(axis=1)
        with_cable, table = _pair_clearances(
            problem.world, problem.robot, p.q_left, p.q_right,
            np.concatenate([segs, cable_segments(rot, t, problem.balancer,
                                                 problem.tool)], axis=1),
            np.append(radii, problem.balancer.cable_radius), names + [CABLE])
        if constrained:
            want[:approach] = with_cable[:approach].min(axis=1)
        assert np.array_equal(p.clearance, want)
        if cable_radius > 0.01:
            nearest = with_cable[:approach].argmin(axis=1)
            assert any(CABLE in table.pair_names[i] for i in nearest)

    def test_warm_cache_replans_without_measuring(self, monkeypatch):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        cache = PlanCache()
        first = plan(problem, constrained=True, options=QUICK, cache=cache).plan
        calls = []
        monkeypatch.setattr(planner, "motion_clearances",
                            lambda *a: calls.append(a) or motion_clearances(*a))
        again = plan(problem, constrained=True, options=QUICK, cache=cache).plan
        assert calls == []
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "theta",
                     "clearance"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.holding == first.holding
        assert again.edge_kinds == first.edge_kinds


class TestEdgeValidation:
    """Validator semantics, checked on hand-built edges.

    Stubbing build_edge lets each test pin the exact waypoint rows the
    validator sees, which end-to-end planning cannot control.
    """

    def _search(self, start=(0.3, 0.35, 0.45)):
        problem = make_problem(list(start), [0.3, 0.1, 0.45])
        return problem, _Search(problem, True, QUICK, PlanCache())

    def _fabricate(self, problem, rots, ts):
        w = len(rots)
        return _EdgeData(
            q_left=np.tile(problem.home_left, (w, 1)),
            q_right=np.tile(problem.home_right, (w, 1)),
            tool_rot=np.stack(rots),
            tool_t=np.stack([np.asarray(t, dtype=float) for t in ts]),
            holding=((("left", 0),),) * w,
            kind="transfer",
        )

    def test_mid_edge_bend_rejected(self):
        problem, search = self._search()
        start = problem.start_pose
        # Endpoints hang straight; the middle row pitches the tool far
        # past the limit, as joint interpolation can.
        edge = self._fabricate(
            problem,
            [start.r, rot_x(math.radians(120.0)), start.r],
            [start.t, start.t, start.t])
        search.build_edge = lambda spec: edge
        reason = search._validate_edge_uncached(("transfer", 0, 1, "left", 0))
        assert reason == "bend"

    def test_collision_before_bend_wins(self):
        problem, search = self._search()
        start = problem.start_pose
        palm = fk(problem.robot.left, problem.home_left).t
        edge = self._fabricate(
            problem,
            [start.r, start.r, rot_x(math.radians(120.0))],
            [palm, start.t, start.t])
        search.build_edge = lambda spec: edge
        reason = search._validate_edge_uncached(("transfer", 0, 1, "left", 0))
        assert reason == "collision"

    def test_bend_at_same_row_outranks_collision(self):
        problem, search = self._search()
        start = problem.start_pose
        palm = fk(problem.robot.left, problem.home_left).t
        edge = self._fabricate(
            problem,
            [start.r, rot_x(math.radians(120.0)), start.r],
            [start.t, palm, start.t])
        search.build_edge = lambda spec: edge
        reason = search._validate_edge_uncached(("transfer", 0, 1, "left", 0))
        assert reason == "bend"

    def test_attached_cable_equals_a_static_cable_on_approach_edges(self,
                                                                    monkeypatch):
        # The tool rests during an approach, so its cable is one fixed
        # capsule.  As a static excluded against the tool shapes, the
        # design the attached cable replaced, it gives the same
        # clearance bit for bit on every row of every constrained
        # approach edge, and the same nearest pair.  A thick cable makes
        # it the nearest body on some rows.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45],
                               cable_radius=0.05)
        search = _Search(problem, True, QUICK, PlanCache())
        solve_stations([problem], QUICK, search.cache, True)
        pose, world = problem.start_pose, problem.world
        cable = Capsule(problem.balancer.anchor,
                        pose.t + pose.r @ problem.tool.connector_point,
                        problem.balancer.cable_radius)
        static = CollisionWorld(
            {**world.statics, CABLE: cable}, world.link_spec,
            [*map(tuple, world.excluded),
             *((CABLE, name) for name, _ in problem.tool.shapes)])
        calls = []
        monkeypatch.setattr(planner, "motion_clearances",
                            lambda *a: calls.append(a) or motion_clearances(*a))
        k = len(problem.tool.shapes)
        nearest_cable = 0
        for side in ("left", "right"):
            for gid in sorted(search.node_configs(0, side)):
                search._validate_edge_uncached(("approach", side, gid))
                args = calls.pop()
                _, robot, ql, qr, segs, radii, names = args
                assert names[k:] == [CABLE]
                clear, idx, pairs = motion_clearances(*args)
                want, want_idx, want_pairs = motion_clearances(
                    static, robot, ql, qr, segs[:, :k], radii[:k], names[:k])
                assert np.array_equal(clear, want)
                assert [pairs[i] for i in idx] == [want_pairs[i] for i in want_idx]
                nearest_cable += sum(CABLE in pairs[i] for i in idx)
        assert nearest_cable > 0


class TestStationSolve:
    def test_negative_zero_pose_shares_the_key(self):
        r = np.eye(3)
        r_neg = r.copy()
        r_neg[0, 1] = -0.0
        t_neg = np.array([0.3, -0.0, 0.45])
        assert np.signbit(r_neg[0, 1]) and np.signbit(t_neg[1])
        assert _pose_key(Pose(r_neg, t_neg)) == \
            _pose_key(Pose(r, np.array([0.3, 0.0, 0.45])))

    def test_prefilled_cache_gives_the_same_plan_without_ik(self, monkeypatch):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        other = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        cold = plan(problem, constrained=True, options=QUICK).plan
        cache = PlanCache()
        solve_stations([other, problem], QUICK, cache)

        def no_ik(*args, **kwargs):
            raise AssertionError("plan() ran IK on a pre-filled cache")

        monkeypatch.setattr(planner, "ik_batch", no_ik)
        warm = plan(problem, constrained=True, options=QUICK, cache=cache).plan
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "theta",
                     "clearance"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        assert warm.holding == cold.holding
        assert warm.edge_kinds == cold.edge_kinds

    @pytest.mark.parametrize("constrained", [False, True])
    def test_station_configs_do_not_depend_on_the_batch(self, constrained):
        p = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        q = make_problem([0.25, 0.3, 0.4], [0.3, 0.1, 0.45],
                         hover_t=(0.3, 0.05, 0.5))
        alone, shared = PlanCache(), PlanCache()
        solve_stations([p], QUICK, alone, constrained)
        solve_stations([q, p], QUICK, shared, constrained)
        assert len(shared.node_feasible) > len(alone.node_feasible) == 6
        for key, configs in alone.node_feasible.items():
            assert configs.keys() == shared.node_feasible[key].keys()
            for gid, config in configs.items():
                assert np.array_equal(config, shared.node_feasible[key][gid])
        assert any(alone.node_feasible.values())

    def test_default_sweep_stations_take_one_ik_loop(self, monkeypatch):
        # Both arms of every cell share one ik_batch call, so its two
        # passes bound the FK calls of the whole up-front solve.
        scene = default_scene()
        fk_calls, fk_calls_per_ik = [], []
        ik, chain = planner.ik_batch, robot.fk_chain_batch

        def counted_ik(*args, **kwargs):
            before = len(fk_calls)
            result = ik(*args, **kwargs)
            fk_calls_per_ik.append(len(fk_calls) - before)
            return result

        def counted_fk(*args, **kwargs):
            fk_calls.append(1)
            return chain(*args, **kwargs)

        monkeypatch.setattr(planner, "ik_batch", counted_ik)
        monkeypatch.setattr(robot, "fk_chain_batch", counted_fk)
        cache = PlanCache()
        solve_stations([scene.problem(p, r) for p in scene.pitch_rows
                        for r in scene.roll_cols], scene.options, cache)
        assert len(fk_calls_per_ik) == 1
        assert 0 < fk_calls_per_ik[0] <= 2 * (scene.options.ik.max_iters + 1)
        assert len(cache.node_feasible) == 28

    def test_bent_start_fails_without_ik(self, monkeypatch):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        bent = replace(problem, start_pose=Pose(rot_x(math.radians(120.0)),
                                                problem.start_pose.t))
        calls = []
        monkeypatch.setattr(planner, "ik_batch",
                            lambda *a, **k: calls.append(a))
        result = plan(bent, constrained=True, options=QUICK)
        assert result.failure == "no_feasible_start"
        assert calls == []
