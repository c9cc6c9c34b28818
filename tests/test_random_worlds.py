"""The planner's claims against the independent re-check in random clutter.

Each world puts one to three boxes of random size and orientation around
the handover task of helpers.make_problem, and plans it in both modes
through one PlanCache.  Turned boxes drive the box-frame clearance
kernels and bounds, and the cable often touches an arm after the first
grasp, where the planner does not look for it, so the re-check's cable
label is driven too.
"""

import math

import numpy as np
from helpers import QUICK, make_problem
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import dense_pair_clearances

from tetherplan.bench import classify, recheck_plan
from tetherplan.collision import Box, arm_link_segments
from tetherplan.geometry import Pose, rpy_to_rot
from tetherplan.planner import PlanCache, plan

# Centre (x, y, z) and half extents in cm, roll, pitch and yaw in
# degrees.  The boxes reach up to the balancer anchor 1 m above the
# start, so that some cross the cable.
BOXES = st.lists(st.tuples(st.integers(-10, 60), st.integers(-60, 60),
                           st.integers(0, 140),
                           st.tuples(*[st.integers(2, 15)] * 3),
                           st.tuples(*[st.integers(-180, 180)] * 3)),
                 min_size=1, max_size=3)


def _problem(boxes, cable_radius):
    statics = {f"box{i}": Box(Pose(rpy_to_rot(*map(math.radians, rpy)),
                                   np.array([x, y, z]) / 100),
                              np.array(half, dtype=float) / 100)
               for i, (x, y, z, half, rpy) in enumerate(boxes)}
    return make_problem([0.3, 0.35, 0.45], [0.3, -0.35, 0.45], statics=statics,
                        cable_radius=cable_radius / 100)


def _check_clearances(motion, problem, cabled_rows, recheck):
    """Stored clearances against a dense re-measure with the bodies the
    planner attached, the cable on the first cabled_rows rows, and the
    re-check's minimum against one with the cable on every row."""
    rot, t = motion.tool_rot, motion.tool_t
    links = arm_link_segments(problem.robot, problem.world.link_spec,
                              motion.q_left, motion.q_right)[0]
    bare, _ = dense_pair_clearances(problem.world, links,
                                    *problem.tool.bodies(rot, t))
    cabled, _ = dense_pair_clearances(
        problem.world, links, *problem.tool.bodies(rot, t, problem.balancer))
    want = bare.min(axis=1)
    want[:cabled_rows] = cabled[:cabled_rows].min(axis=1)
    assert np.array_equal(motion.clearance, want)
    assert recheck.min_clearance == cabled.min()


# Each example solves station IK, so a failure is reported as found
# instead of shrunk through hundreds of plans.
@settings(derandomize=True, deadline=None, max_examples=25,
          phases=(Phase.explicit, Phase.generate))
@given(boxes=BOXES, cable_radius=st.integers(1, 6))
def test_random_worlds_agree_with_the_recheck(boxes, cable_radius):
    # The cable radius in cm: a thick cable is the nearest body on some
    # approach rows.
    problem = _problem(boxes, cable_radius)
    cache = PlanCache()
    for constrained in (True, False):
        result = plan(problem, constrained, QUICK, cache)
        if result.plan is None:
            assert result.failure in ("exhausted", "no_feasible_start")
            assert classify(result, None).label == "no_plan"
            continue
        recheck = recheck_plan(result.plan, problem, cache)
        assert recheck.collision_waypoint is None
        assert recheck.grip_waypoint is None
        # A constrained approach, which ends on the first held waypoint,
        # carries the cable.
        grasp = next(i for i, h in enumerate(result.plan.holding) if h)
        _check_clearances(result.plan, problem, grasp + 1 if constrained else 0,
                          recheck)
        if constrained:
            assert recheck.bend_waypoint is None
            assert recheck.cable_waypoint is None or recheck.cable_waypoint > grasp
        implied = ("bend_violation" if recheck.bend_waypoint is not None
                   else "cable_collision" if recheck.cable_waypoint is not None
                   else "success")
        assert classify(result, recheck).label == implied
