import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import QUICK, make_problem, make_tool
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import dense_pair_clearances, per_grasp_sample_grasps, \
    per_pair_station_solve, per_pair_successors, pop_and_check_search

from tetherplan import planner, robot
from tetherplan.cable import CABLE, BendConstraint, ToolSpec, bend_angle_batch
from tetherplan.collision import Box, Capsule, CollisionWorld, arm_link_segments, \
    motion_clearances
from tetherplan.geometry import Pose, rot_x, rpy_to_rot
from tetherplan.planner import (
    ROOT,
    EmptyGraspSet,
    PlanCache,
    PlannerOptions,
    PlanningProblem,
    _EdgeData,
    _Search,
    _pose_key,
    _solve_stations,
    _stations,
    interp_joints,
    plan,
    sample_grasps,
    solve_stations,
)
from tetherplan.robot import DualArm, fk_chain_batch
from tetherplan.scene import default_scene


class TestSampleGrasps:
    def test_count_and_ids(self):
        grasps = sample_grasps(make_tool(), 5, 12, 0.02)
        # Row g is grasp id g: the rolls of each axial position in turn.
        assert grasps.r.shape == (60, 3, 3)
        assert grasps.t.shape == (60, 3)
        assert grasps.axial.shape == (60,)
        assert np.array_equal(grasps.axial[::12], np.unique(grasps.axial))

    def test_frames_are_valid(self):
        tool = make_tool()
        axis = np.array([0.0, 0.0, 1.0])
        grasps = sample_grasps(tool, 4, 6, 0.02)
        for r, t, axial in zip(grasps.r, grasps.t, grasps.axial):
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)
            # y column runs along the handle.
            assert np.allclose(r[:, 1], axis, atol=1e-12)
            # Grasp point lies on the handle axis, inside the inset band.
            assert t[0] == pytest.approx(0.0, abs=1e-12)
            assert t[1] == pytest.approx(0.0, abs=1e-12)
            assert -0.10 + 0.02 - 1e-9 <= t[2] <= 0.08 - 0.02 + 1e-9
            assert axial == pytest.approx(t[2] + 0.10)

    def test_rolls_cover_the_circle(self):
        dirs = sample_grasps(make_tool(), 1, 8, 0.02).r[:, :, 2]
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert np.linalg.norm(dirs.sum(axis=0)) < 1e-9

    def test_empty_parameterizations_raise(self):
        with pytest.raises(EmptyGraspSet):
            sample_grasps(make_tool(), 0, 12, 0.02)
        with pytest.raises(EmptyGraspSet):
            sample_grasps(make_tool(), 5, 0, 0.02)
        short = ToolSpec(connector_point=[0, 0, 0.1], cable_dir=[0, 0, 1],
                         handle_a=[0, 0, 0.0], handle_b=[0, 0, 0.03])
        with pytest.raises(EmptyGraspSet):
            sample_grasps(short, 3, 4, 0.02)

    def test_cache_samples_one_read_only_table(self, monkeypatch):
        calls = []
        sample = planner.sample_grasps
        monkeypatch.setattr(planner, "sample_grasps",
                            lambda *a: calls.append(a) or sample(*a))
        cache = PlanCache()
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        opts = PlannerOptions(axial_samples=3, roll_samples=4)
        first = cache.claim(problem, opts)
        # Options that enter no table, and other stations, leave a claim free.
        free = replace(opts, max_edges=5, time_budget=1.0,
                       min_handover_separation=0.2)
        assert cache.claim(replace(problem, goal_pose=Pose()), free) is first
        fresh = sample(make_tool(), 3, 4, opts.grasp_inset)
        for name in ("r", "t", "axial"):
            assert np.array_equal(getattr(first, name), getattr(fresh, name))
            # Both arms and every problem read the one table.
            assert not getattr(first, name).flags.writeable
        with pytest.raises(ValueError, match="roll_samples differs"):
            cache.claim(problem, replace(opts, roll_samples=5))
        with pytest.raises(ValueError, match="only the scene"):
            cache.claim(replace(problem, tool=replace(
                make_tool(), handle_b=np.array([0.0, 0.0, 0.09]))), opts)
        assert len(calls) == 1 and cache.grasp_table is first


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

    @pytest.mark.parametrize("step", [0.0, -0.05, math.inf, math.nan])
    def test_options_reject_a_step_that_is_not_positive_and_finite(self, step):
        # A negative or infinite step would make every edge its two end
        # rows, and the motion between them would go unchecked.
        with pytest.raises(ValueError, match="interp_step must be positive and finite"):
            PlannerOptions(interp_step=step)

    @pytest.mark.parametrize("inset", [0.0, -0.01, math.inf, math.nan])
    def test_options_reject_an_inset_that_is_not_positive_and_finite(self, inset):
        with pytest.raises(ValueError, match="grasp_inset must be positive and finite"):
            PlannerOptions(grasp_inset=inset)

    @pytest.mark.parametrize("separation", [-0.01, math.inf, math.nan])
    def test_options_reject_a_separation_that_is_negative_or_not_finite(self, separation):
        # A NaN separation compares false with every distance, so no
        # handover pair would be kept apart.
        with pytest.raises(ValueError, match="min_handover_separation must be finite"):
            PlannerOptions(min_handover_separation=separation)
        PlannerOptions(min_handover_separation=0.0)

    def test_options_reject_a_negative_edge_budget(self):
        # Every plan() under a negative budget would stop before its
        # first edge and report "budget"; the scene file rejects it too.
        with pytest.raises(ValueError, match="max_edges must be at least 0"):
            PlannerOptions(max_edges=-5)
        PlannerOptions(max_edges=0)


@pytest.mark.parametrize("home", ["home_left", "home_right"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_a_non_finite_home(home, bad):
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    q = np.where(np.arange(6) == 2, bad, getattr(problem, home))
    with pytest.raises(ValueError, match="home_left and home_right must be finite"):
        replace(problem, **{home: q})


@pytest.mark.parametrize("pose", ["start_pose", "goal_pose", "handover_poses"])
@pytest.mark.parametrize("part", ["r", "t"])
def test_problem_rejects_a_non_finite_pose(pose, part):
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    good = problem.handover_poses[0]
    bad = replace(good, **{part: np.where([True, False, False], math.nan, getattr(good, part))})
    with pytest.raises(ValueError, match="poses must be finite"):
        replace(problem, **{pose: (bad,) if pose == "handover_poses" else bad})


class TestPlanning:
    def test_direct_transfer(self):
        # Goal within easy reach of the same arm: no handover needed.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        result = plan(problem, constrained=True, options=QUICK)
        assert result.plan is not None, result.stats
        p = result.plan
        assert p.mode == "constrained"
        assert p.edge_kinds[0] == "approach"
        assert p.n_edges == len(p.edge_kinds)
        assert p.n_edges == 2
        # Starts pre-grasp, ends with one arm holding.
        assert (p.grasp[0] == -1).all()
        assert np.count_nonzero(p.grasp[-1] >= 0) == 1
        # Tool ends at the goal pose within IK tolerance.
        assert np.linalg.norm(p.tool_t[-1] - [0.3, 0.1, 0.45]) < 5e-4
        # Constrained plans respect the bend limit everywhere.
        assert p.theta.max() < problem.constraint.theta_max
        assert p.clearance.min() >= 0.0
        assert p.n_waypoints == p.q_left.shape[0] == len(p.grasp)

    def test_handover_when_one_arm_cannot_complete(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        # Precondition: neither arm can serve both ends alone.  The
        # right arm has no feasible grasp at the start and the left
        # none at the goal, so any plan must change hands.
        cache = PlanCache()
        solve_stations([problem], QUICK, cache)
        probe = _Search(problem, True, QUICK, cache)
        assert not cache.node_feasible[(probe.start, "right")]
        assert not cache.node_feasible[(probe.goal, "left")]
        result = plan(problem, constrained=True, options=QUICK)
        assert result.plan is not None, result.stats
        p = result.plan
        assert "handover" in p.edge_kinds
        assert p.edge_kinds == ("approach", "transfer", "handover", "transfer")
        held = p.grasp >= 0
        rows = np.nonzero(held.any(axis=1))[0]
        assert held[rows[0]].tolist() == [True, False]      # the left arm
        assert held[rows[-1]].tolist() == [False, True]     # the right arm
        # Exactly one waypoint has both hands on the tool, and the grasps
        # there are distinct and well separated along the handle.
        dual = np.nonzero(held.all(axis=1))[0]
        assert len(dual) == 1
        left, right = p.grasp[dual[0]]
        axial = cache.grasp_table.axial
        assert abs(axial[left] - axial[right]) >= QUICK.min_handover_separation

    def test_deterministic_replans(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        a = plan(problem, constrained=True, options=QUICK).plan
        b = plan(problem, constrained=True, options=QUICK).plan
        assert np.array_equal(a.q_left, b.q_left)
        assert np.array_equal(a.q_right, b.q_right)
        assert np.array_equal(a.tool_t, b.tool_t)
        assert np.array_equal(a.grasp, b.grasp)

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
        assert result.plan is None
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
        assert constrained.plan is None
        # Goal and hover poses already exceed the limit, so the search
        # prunes those stations up front rather than rejecting edges.
        assert constrained.stats.stations_pruned > 0
        assert unconstrained.plan is not None
        assert unconstrained.plan.theta.max() > 0.05

    def test_fat_cable_blocks_constrained_approach_only(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45],
                               cable_radius=0.45)
        constrained = plan(problem, constrained=True, options=QUICK)
        unconstrained = plan(problem, constrained=False, options=QUICK)
        assert unconstrained.plan is not None
        assert constrained.plan is None
        assert constrained.stats.edges_rejected.get("cable_collision", 0) > 0

    def test_unreachable_start_reports_no_feasible_start(self):
        problem = make_problem([2.0, 0.0, 0.5], [0.3, -0.35, 0.45])
        result = plan(problem, constrained=True, options=QUICK)
        assert result.plan is None
        assert result.failure == "no_feasible_start"

    def test_unreachable_goal_reports_exhausted(self):
        # The start has grasps, so the failure is not the start's.
        problem = make_problem([0.3, 0.35, 0.45], [2.0, 0.0, 0.5])
        result = plan(problem, constrained=True, options=QUICK)
        assert result.plan is None
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
            if plan(problem, constrained=True, options=QUICK).plan is not None:
                assert plan(problem, constrained=False, options=QUICK).plan is not None


def _same_result(got, want):
    assert got.failure == want.failure
    if want.plan is None:
        assert got.plan is None
        return
    for name in ("q_left", "q_right", "tool_rot", "tool_t", "grasp", "theta",
                 "clearance"):
        assert np.array_equal(getattr(got.plan, name), getattr(want.plan, name))
    for name in ("edge_kinds", "n_edges", "joint_distance"):
        assert getattr(got.plan, name) == getattr(want.plan, name)


def _reference(problem, constrained, options, cache):
    """The pop-and-check search on the stations of cache and their reach,
    with a grasp table and edge verdicts of its own."""
    own = PlanCache(node_feasible=cache.node_feasible, reach=cache.reach)
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


class TestSearchCosts:
    """successors prices every edge as oracles.per_pair_successors does,
    bit for bit, though it reads approach and handover costs from the
    cache's reach table."""

    @pytest.mark.parametrize("case", ["default", "handover", "separation",
                                      "pruned"])
    def test_successors_equal_the_per_pair_reference(self, case):
        options, constrained = QUICK, True
        if case == "default":
            scene = default_scene()
            problem = scene.problem(scene.pitch_rows[0], scene.roll_cols[0])
            options = scene.options
        elif case == "pruned":
            # The start's cable hangs straight; every other station is
            # over this limit, so the search keeps the start alone.
            problem = replace(
                make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45]),
                constraint=BendConstraint(theta_max=0.01))
        else:
            # Only the handle's two end grasps are 0.1 m apart.
            if case == "separation":
                options = replace(QUICK, min_handover_separation=0.1)
            problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
            constrained = False
        search = _Search(problem, constrained, options, PlanCache())
        _solve_stations(problem, search.stations, search.grasps, options.ik,
                        search.cache)
        feasible = search.cache.node_feasible
        nodes = [ROOT] + [("node", key, side, gid) for key in search.stations
                          for side in ("left", "right")
                          for gid in feasible[(key, side)]]
        kinds = set()
        for node in nodes:
            got = search.successors(node)
            want = per_pair_successors(search, node)
            assert [(n, spec, d.hex()) for n, spec, d in got] == \
                [(n, spec, d.hex()) for n, spec, d in want], node
            kinds.update(spec[0] for _, spec, _ in got)
        assert kinds == ({"approach"} if case == "pruned"
                         else {"approach", "transfer", "handover"})


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
        approach = int(np.argmax((p.grasp >= 0).any(axis=1))) + 1
        links = arm_link_segments(problem.robot, problem.world.link_spec,
                                  p.q_left, p.q_right)[0]
        dense, _ = dense_pair_clearances(problem.world, links,
                                         *problem.tool.bodies(rot, t))
        want = dense.min(axis=1)
        with_cable, table = dense_pair_clearances(
            problem.world, links, *problem.tool.bodies(rot, t, problem.balancer))
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
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "grasp", "theta",
                     "clearance"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.edge_kinds == first.edge_kinds


class TestEdgeMemo:
    """Both modes, and any bend limit, share an edge's measurement."""

    @pytest.mark.parametrize("order", [(True, False), (False, True)])
    def test_modes_share_each_transfer_and_handover_measurement(
            self, monkeypatch, order):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        fresh = {}
        for constrained in order:
            own = PlanCache()
            fresh[constrained] = (plan(problem, constrained, QUICK, own),
                                  set(own.edge_measure))
        cache = PlanCache()
        solve_stations([problem], QUICK, cache)
        calls = []
        monkeypatch.setattr(planner, "motion_clearances",
                            lambda *a: calls.append(a) or motion_clearances(*a))
        for constrained in order:
            got = plan(problem, constrained, QUICK, cache)
            want = fresh[constrained][0]
            _same_result(got, want)
            assert got.stats == want.stats
        # Each call measures a different edge, and only the edges a
        # fresh run of either mode measures.
        rows = {(links.tobytes(), tuple(names))
                for _, links, _, _, names in calls}
        assert len(rows) == len(calls)
        both = fresh[True][1] & fresh[False][1]
        assert len(calls) == len(fresh[True][1] | fresh[False][1])
        assert {kind for (kind, *_), _ in both} == {"transfer", "handover"}

    def test_verdicts_under_another_bend_limit_are_not_reused(self):
        # At 45 degrees the default scene's 30-degree pitch row rejects a
        # transfer for bend that passes at its own limit of 95.
        scene = default_scene()
        problem = scene.problem(scene.pitch_rows[3], scene.roll_cols[0])
        opts = replace(scene.options, time_budget=math.inf)
        tight = replace(problem, constraint=BendConstraint(math.radians(45.0)))
        cache = PlanCache()
        assert plan(tight, True, opts, cache).stats.edges_rejected["bend"] > 0
        got = plan(problem, True, opts, cache)
        want = plan(problem, True, opts)
        _same_result(got, want)
        assert got.stats == want.stats


class TestOneCacheAcrossBendLimits:
    """One PlanCache serves several bend limits in turn: each limit
    plans as it does with a fresh cache, whichever limit came first.
    Pitch 30 and 45 deg by roll -20, -10 and 0 deg of the default sweep
    holds constrained cells whose plan changes between these limits."""

    LIMITS = (95.0, 75.0, 60.0, 45.0)

    @pytest.fixture(scope="class")
    def cut(self):
        scene = default_scene()
        return scene.options, [scene.problem(p, r) for p in scene.pitch_rows[3:5]
                               for r in scene.roll_cols[:3]]

    @staticmethod
    def _under(problems, deg):
        return [replace(p, constraint=BendConstraint(math.radians(deg)))
                for p in problems]

    @pytest.fixture(scope="class")
    def fresh(self, cut):
        options, problems = cut
        out = {}
        for deg in self.LIMITS:
            cache = PlanCache()
            out[deg] = [plan(p, True, options, cache) for p in self._under(problems, deg)]
        return out

    @pytest.mark.parametrize("order", [LIMITS, LIMITS[::-1]],
                             ids=["descending", "ascending"])
    def test_a_shared_cache_plans_each_limit_as_a_fresh_one(self, cut, fresh,
                                                            order):
        options, problems = cut
        cache = PlanCache()
        for deg in order:
            for problem, want in zip(self._under(problems, deg), fresh[deg]):
                got = plan(problem, True, options, cache)
                _same_result(got, want)
                assert got.stats == want.stats
                if got.plan is not None:
                    assert got.plan.theta.max() < math.radians(deg)
        # No edge fails at 95 deg and some fail for bend at 45 deg, so a
        # verdict kept across limits could change a plan here.
        assert not any(r.stats.edges_rejected for r in fresh[95.0])
        assert any(r.stats.edges_rejected.get("bend") for r in fresh[45.0])

    def test_a_higher_limit_plans_every_cell_a_lower_one_does_no_dearer(self, fresh):
        # A higher limit prunes a subset of the stations and rejects a
        # subset of the edges that a lower one does, so it keeps every
        # path the lower limit keeps and its best one costs no more.
        pairs = cheaper = 0
        for high, low in zip(self.LIMITS, self.LIMITS[1:]):
            for hi, lo in zip(fresh[high], fresh[low]):
                if lo.plan is None:
                    continue
                assert hi.plan is not None
                cost_hi = (hi.plan.n_edges, hi.plan.joint_distance)
                cost_lo = (lo.plan.n_edges, lo.plan.joint_distance)
                assert cost_hi <= cost_lo
                pairs += 1
                cheaper += cost_hi < cost_lo
        assert (pairs, cheaper) == (15, 6)

    def test_a_constrained_plan_is_the_unconstrained_one_where_that_keeps_the_limit(
            self, cut, fresh):
        # Both modes order the same paths by the same cost; a limit the
        # unconstrained best path keeps rejects none of its edges, and
        # the constrained search finds that path too.
        options, problems = cut
        cache = PlanCache()
        unconstrained = [plan(p, False, options, cache) for p in problems]
        pairs = 0
        for deg in self.LIMITS:
            for free, bound in zip(unconstrained, fresh[deg]):
                if free.plan is None or free.plan.theta.max() >= math.radians(deg):
                    continue
                for name in ("q_left", "q_right", "tool_rot", "tool_t", "grasp"):
                    assert (getattr(bound.plan, name).tobytes()
                            == getattr(free.plan, name).tobytes())
                pairs += 1
        assert pairs == 15


class TestCacheBinding:
    """A PlanCache serves only the scene and options that filled it."""

    @pytest.mark.parametrize("change, bound", [
        (dict(axial_samples=3), True),
        (dict(interp_step=3 * PlannerOptions().interp_step), True),
        (dict(ik=robot.IKOptions(restarts=1, max_iters=20)), True),
        (dict(max_edges=500), False),
        (dict(time_budget=math.inf), False),
        (dict(min_handover_separation=0.2), False),
    ], ids=["axial_samples", "interp_step", "ik", "max_edges", "time_budget",
            "min_handover_separation"])
    def test_reuse_under_other_options(self, change, bound):
        # Sampled grasps, station configs and edge rows depend on the
        # bound options, so a reuse would read tables filled under others.
        scene = default_scene()
        problem = scene.problem(scene.pitch_rows[0], scene.roll_cols[0])
        cache = PlanCache()
        plan(problem, True, scene.options, cache)
        other = replace(scene.options, **change)
        if bound:
            with pytest.raises(ValueError, match=f"only the options that filled "
                                                 f"it; {next(iter(change))} differs"):
                plan(problem, True, other, cache)
            return
        got = plan(problem, True, other, cache)
        want = plan(problem, True, other)
        _same_result(got, want)
        assert got.stats == want.stats

    def test_reuse_in_a_world_with_a_wall_raises(self):
        # Reused, the cache would return a plan through the wall: its
        # station configs and edge verdicts were drawn without it.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        cache = PlanCache()
        plan(problem, True, QUICK, cache)
        wall = Box(Pose(np.eye(3), [0.3, 0.0, 0.3]), [0.05, 0.05, 0.3])
        world = problem.world
        walled = replace(problem, world=CollisionWorld(
            {"wall": wall}, world.link_spec, world.excluded))
        with pytest.raises(ValueError, match="only the scene"):
            plan(walled, True, QUICK, cache)
        with pytest.raises(ValueError, match="only the scene"):
            solve_stations([walled], QUICK, cache)
        assert plan(walled, True, QUICK).failure == "exhausted"

    @pytest.mark.parametrize("change, bound", [
        ("robot", True), ("tool", True), ("balancer", True), ("homes", True),
        ("start", False), ("goal", False), ("bend_limit", False),
    ])
    def test_reuse_in_another_scene(self, change, bound):
        scene = default_scene()
        problem = scene.problem(scene.pitch_rows[0], scene.roll_cols[0])
        cache = PlanCache()
        plan(problem, True, scene.options, cache)
        left = problem.robot.left
        other = {
            "robot": lambda: replace(problem, robot=DualArm(
                left=Pose(left.r, left.t + [0.0, 0.05, 0.0]),
                right=problem.robot.right)),
            "tool": lambda: replace(problem, tool=replace(
                problem.tool, handle_b=problem.tool.handle_b + [0.0, 0.0, 0.01])),
            "balancer": lambda: replace(problem, balancer=replace(
                problem.balancer, anchor=problem.balancer.anchor + [0.1, 0.0, 0.0])),
            "homes": lambda: replace(problem, home_left=problem.home_left + 0.1),
            "start": lambda: scene.problem(scene.pitch_rows[1], scene.roll_cols[0]),
            "goal": lambda: scene.problem(scene.pitch_rows[0], scene.roll_cols[1]),
            "bend_limit": lambda: replace(
                problem, constraint=BendConstraint(math.radians(50.0))),
        }[change]()
        if bound:
            with pytest.raises(ValueError, match="only the scene"):
                plan(other, True, scene.options, cache)
            with pytest.raises(ValueError, match="only the scene"):
                solve_stations([other], scene.options, cache)
            return
        got = plan(other, True, scene.options, cache)
        want = plan(other, True, scene.options)
        _same_result(got, want)
        assert got.stats == want.stats


class TestEdgeValidation:
    """Validator semantics, checked on hand-built edges.

    Stubbing build_edge lets each test pin the exact waypoint rows the
    validator sees, which end-to-end planning cannot control.
    """

    def _search(self, start=(0.3, 0.35, 0.45)):
        problem = make_problem(list(start), [0.3, 0.1, 0.45])
        return problem, _Search(problem, True, QUICK, PlanCache())

    def _fabricate(self, problem, rots, ts):
        """What build_edge returns for these tool poses, both arms home:
        the rows and their link segments."""
        w = len(rots)
        edge = _EdgeData(
            q_left=np.tile(problem.home_left, (w, 1)),
            q_right=np.tile(problem.home_right, (w, 1)),
            tool_rot=np.stack(rots),
            tool_t=np.stack([np.asarray(t, dtype=float) for t in ts]),
            grasp=np.tile([0, -1], (w, 1)),
            kind="transfer",
        )
        return edge, arm_link_segments(problem.robot, problem.world.link_spec,
                                       edge.q_left, edge.q_right)[0]

    def test_mid_edge_bend_rejected(self):
        problem, search = self._search()
        start = problem.start_pose
        # Endpoints hang straight; the middle row pitches the tool far
        # past the limit, as joint interpolation can.
        built = self._fabricate(
            problem,
            [start.r, rot_x(math.radians(120.0)), start.r],
            [start.t, start.t, start.t])
        search.build_edge = lambda spec: built
        reason = search._validate_edge_uncached(("transfer", 0, 1, "left", 0))
        assert reason == "bend"

    def test_collision_before_bend_wins(self):
        problem, search = self._search()
        start = problem.start_pose
        palm = fk_chain_batch(problem.robot.left.r, problem.robot.left.t,
                              problem.home_left)[1][0]
        built = self._fabricate(
            problem,
            [start.r, start.r, rot_x(math.radians(120.0))],
            [palm, start.t, start.t])
        search.build_edge = lambda spec: built
        reason = search._validate_edge_uncached(("transfer", 0, 1, "left", 0))
        assert reason == "collision"

    def test_bend_at_same_row_outranks_collision(self):
        problem, search = self._search()
        start = problem.start_pose
        palm = fk_chain_batch(problem.robot.left.r, problem.robot.left.t,
                              problem.home_left)[1][0]
        built = self._fabricate(
            problem,
            [start.r, rot_x(math.radians(120.0)), start.r],
            [start.t, palm, start.t])
        search.build_edge = lambda spec: built
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
        _solve_stations(problem, search.stations, search.grasps, QUICK.ik,
                        search.cache)
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
            for gid in sorted(search.cache.node_feasible[(search.start, side)]):
                search._validate_edge_uncached(("approach", search.start, side, gid))
                args = calls.pop()
                _, links, segs, radii, names = args
                assert names[k:] == [CABLE]
                clear, idx, pairs = motion_clearances(*args)
                want, want_idx, want_pairs = motion_clearances(
                    static, links, segs[:, :k], radii[:k], names[:k])
                assert np.array_equal(clear, want)
                assert [pairs[i] for i in idx] == [want_pairs[i] for i in want_idx]
                nearest_cable += sum(CABLE in pairs[i] for i in idx)
        assert nearest_cable > 0

    def test_one_fk_call_per_measured_edge(self, monkeypatch):
        # An edge's link segments and a carried tool's track come from
        # one FK call over both arms' rows.
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        search = _Search(problem, True, QUICK, PlanCache())
        _solve_stations(problem, search.stations, search.grasps, QUICK.ik,
                        search.cache)
        feasible = search.cache.node_feasible
        dst, side, gid = next((dst, side, gid) for dst in list(search.stations)[1:]
                              for side in ("left", "right")
                              for gid in sorted(feasible[(search.start, side)])
                              if gid in feasible[(dst, side)])
        rows = []
        chain = robot.fk_chain_batch
        monkeypatch.setattr(robot, "fk_chain_batch",
                            lambda *a: rows.append(len(a[2])) or chain(*a))
        for spec in (("transfer", search.start, dst, side, gid),
                     ("approach", search.start, side, gid)):
            rows.clear()
            search._validate_edge_uncached(spec)
            data = search.cache.edge_measure[(spec, spec[0] == "approach")][0]
            assert rows == [2 * data.q_left.shape[0]], spec[0]

    def test_the_edge_cache_keeps_no_link_segments(self):
        # build_edge hands its link segments to the clearance query
        # only, so the cache, which keeps every edge it measured, holds
        # none of them.
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, _EdgeData):
                yield from arrays(tuple(vars(value).values()))

        cache = PlanCache()
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        assert plan(problem, True, QUICK, cache).plan is not None
        assert any(kind == "transfer" for (kind, *_), _ in cache.edge_measure)
        shapes = {a.shape[1:] for a in arrays(list(cache.edge_measure.values()))}
        assert (12, 2, 3) not in shapes and shapes


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
        other = replace(problem, goal_pose=Pose(np.eye(3), [0.3, 0.1, 0.45]))
        cold = plan(problem, constrained=True, options=QUICK).plan
        cache = PlanCache()
        solve_stations([other, problem], QUICK, cache)

        def no_ik(*args, **kwargs):
            raise AssertionError("plan() ran IK on a pre-filled cache")

        monkeypatch.setattr(planner, "ik_batch", no_ik)
        warm = plan(problem, constrained=True, options=QUICK, cache=cache).plan
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "grasp", "theta",
                     "clearance"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        assert warm.edge_kinds == cold.edge_kinds

    def test_station_configs_do_not_depend_on_the_batch(self):
        p = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        q = replace(p, start_pose=Pose(np.eye(3), [0.25, 0.3, 0.4]),
                    goal_pose=Pose(np.eye(3), [0.3, 0.1, 0.45]),
                    handover_poses=(Pose(np.eye(3), [0.3, 0.05, 0.5]),))
        alone, shared = PlanCache(), PlanCache()
        solve_stations([p], QUICK, alone)
        solve_stations([q, p], QUICK, shared)
        assert len(shared.node_feasible) > len(alone.node_feasible) == 6
        for key, configs in alone.node_feasible.items():
            assert configs.keys() == shared.node_feasible[key].keys()
            for gid, config in configs.items():
                assert np.array_equal(config, shared.node_feasible[key][gid])
        assert any(alone.node_feasible.values())

    def test_problems_of_two_scenes_raise(self):
        # make_problem builds every body anew, so these are two scenes.
        p = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        q = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        cache = PlanCache()
        with pytest.raises(ValueError, match="only the scene"):
            solve_stations([p, q], QUICK, cache)
        assert cache.node_feasible == {}

    def test_default_sweep_stations_take_one_ik_loop(self, monkeypatch):
        # Both arms of every cell share one ik_batch call, so one DLS loop,
        # its restarts joining at _IK_RESTART_AFTER, bounds the FK calls of
        # the whole up-front solve: 233 for the default options.
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
        assert 0 < fk_calls_per_ik[0] <= (robot._IK_RESTART_AFTER
                                          + scene.options.ik.max_iters + 1)
        assert len(cache.node_feasible) == 28

    @pytest.mark.parametrize("constrained", [False, True])
    def test_one_plan_builds_its_station_table_once(self, monkeypatch,
                                                    constrained):
        calls = []
        stations = planner._stations
        monkeypatch.setattr(planner, "_stations",
                            lambda *a: calls.append(a) or stations(*a))
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        assert plan(problem, constrained=constrained, options=QUICK).plan is not None
        assert len(calls) == 1

    def test_each_problem_claims_the_cache_once(self, monkeypatch):
        # plan() claims in _Search.__init__ and hands that grasp table to
        # its station solve; solve_stations claims each problem once.
        claims = []
        claim = PlanCache.claim
        monkeypatch.setattr(PlanCache, "claim",
                            lambda cache, *a: claims.append(a) or claim(cache, *a))
        p = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45])
        q = replace(p, goal_pose=Pose(np.eye(3), [0.3, 0.1, 0.45]))
        assert plan(p, constrained=True, options=QUICK).plan is not None
        assert len(claims) == 1
        solve_stations([p, q], QUICK, PlanCache())
        assert len(claims) == 3

    def test_unconstrained_stations_are_all_live_without_a_bend_check(
            self, monkeypatch):
        def no_bend(*args):
            raise AssertionError("an unconstrained station table checked the bend")

        monkeypatch.setattr(planner, "bend_angle_batch", no_bend)
        bent = replace(make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45]),
                       start_pose=Pose(rot_x(math.radians(120.0)), [0.3, 0.35, 0.45]))
        stations, start, goal, pruned = planner._stations(bent, False)
        assert len(stations) == 3 and pruned == 0
        assert [start, goal] == [list(stations)[0], list(stations)[-1]]
        assert stations[start] is bent.start_pose

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


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestStationArrays:
    """The whole-array station set-up equals the per-grasp, per-(station,
    arm) construction bit for bit (tests/oracles.py)."""

    @pytest.mark.parametrize("case", ["default", "x-handle", "3x7"])
    def test_grasp_table_equals_the_per_grasp_construction(self, case):
        scene = default_scene()
        tool, opts = scene.base.tool, scene.options
        samples = (opts.axial_samples, opts.roll_samples, opts.grasp_inset)
        if case == "x-handle":
            # Nearly along x, so the roll reference turns from y instead.
            tool = replace(tool, handle_a=[-0.1, 0.01, 0.0],
                           handle_b=[0.12, 0.0, 0.005])
        if case == "3x7":
            samples = (3, 7, 0.02)
        got = sample_grasps(tool, *samples)
        want = per_grasp_sample_grasps(tool, *samples)
        for name, ref in zip(("r", "t", "axial"), want):
            assert _same_bits(getattr(got, name), ref)

    def test_ik_targets_equal_compose_per_grasp(self, monkeypatch):
        calls = []
        ik = planner.ik_batch

        def recorded(*args, **kwargs):
            calls.append(args)
            return ik(*args, **kwargs)

        monkeypatch.setattr(planner, "ik_batch", recorded)
        problem = make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45],
                               goal_rot=rpy_to_rot(0.2, -0.3, 0.5),
                               hover_rot=rot_x(-0.4))
        solve_stations([problem], QUICK, PlanCache())
        want_r, want_t, _ = per_pair_station_solve([problem], QUICK)
        (_, target_r, target_t, *_), = calls
        assert target_r.shape == (6 * 24, 3, 3)
        assert _same_bits(target_r, want_r)
        assert _same_bits(target_t, want_t)

    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["default-sweep", "constrained-cold-cell"])
    def test_node_feasible_equals_the_per_pair_reference(self, monkeypatch,
                                                         constrained):
        scene = default_scene()
        if constrained:
            # Under a 50 deg limit this cell keeps its start (41 deg) and
            # handover (15 deg) and prunes its goal (56 deg).
            problems = [replace(scene.problem(scene.pitch_rows[3],
                                              scene.roll_cols[3]),
                                constraint=BendConstraint(math.radians(50.0)))]
        else:
            problems = [scene.problem(p, r) for p in scene.pitch_rows
                        for r in scene.roll_cols]
        calls = []
        clearances = planner.motion_clearances

        def counted(*args, **kwargs):
            calls.append(args)
            return clearances(*args, **kwargs)

        monkeypatch.setattr(planner, "motion_clearances", counted)
        cache = PlanCache()
        if constrained:
            # A constrained plan solves its own pruned table, as run() does.
            (problem,) = problems
            _solve_stations(problem, _stations(problem, True)[0],
                            cache.claim(problem, scene.options), scene.options.ik,
                            cache)
        else:
            solve_stations(problems, scene.options, cache)
        # One call per arm; one per (station, arm) pair would be 4 or 28.
        assert 0 < len(calls) <= 2
        _, _, want = per_pair_station_solve(problems, scene.options,
                                            constrained)
        assert list(cache.node_feasible) == list(want)
        assert len(want) == (4 if constrained else 28)
        for key, configs in want.items():
            got = cache.node_feasible[key]
            assert list(got) == list(configs)
            assert all(_same_bits(got[gid], q) for gid, q in configs.items())
        assert any(want.values())

    def test_no_solved_grasp_makes_no_clearance_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(planner, "motion_clearances",
                            lambda *a, **k: calls.append(a))
        far = make_problem([2.0, 0.0, 0.5], [2.2, 0.0, 0.5],
                           hover_t=(2.1, 0.0, 0.5))
        cache = PlanCache()
        solve_stations([far], QUICK, cache)
        assert calls == []
        assert len(cache.node_feasible) == 6
        assert all(configs == {} for configs in cache.node_feasible.values())
