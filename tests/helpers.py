"""Shared scenario builders for the planner and benchmark tests."""

from dataclasses import replace

import numpy as np

from tetherplan.cable import BalancerSpec, BendConstraint, ToolSpec
from tetherplan.collision import ArmLinkSpec, Box, Capsule, CollisionWorld
from tetherplan.geometry import Pose
from tetherplan.planner import PlannerOptions, PlanningProblem
from tetherplan.robot import ArmModel, DualArm, IKOptions
from tetherplan.scene import Scene

QUICK = PlannerOptions(axial_samples=3, roll_samples=8,
                       ik=IKOptions(restarts=4, max_iters=120))

HOME_LEFT = np.array([2.435, -0.529, -1.542, 0.5, -1.571, 2.435])
HOME_RIGHT = np.array([2.795, -0.529, -1.543, 0.501, -1.571, 2.795])

# The folded wrist packs link4 and link6 close together by construction;
# the pair can never truly touch, so it is excluded like adjacent links.
WRIST_EXCLUDES = [(f"{s}/link4", f"{s}/link6") for s in ("left", "right")]


def make_tool():
    return ToolSpec(
        connector_point=[0.0, 0.0, 0.12],
        cable_dir=[0.0, 0.0, 1.0],
        handle_a=[0.0, 0.0, -0.10],
        handle_b=[0.0, 0.0, 0.08],
        shapes=(("tool/handle", Capsule([0, 0, -0.10], [0, 0, 0.08], 0.018)),
                ("tool/head", Capsule([0, 0, -0.135], [0, 0, -0.135], 0.03))),
    )


def make_problem(start_t, goal_t, hover_t=(0.32, 0.0, 0.5), goal_rot=None,
                 hover_rot=None, cable_radius=0.01, statics=None):
    robot = DualArm(left=ArmModel(Pose(np.eye(3), [0.0, 0.25, 0.0])),
                    right=ArmModel(Pose(np.eye(3), [0.0, -0.25, 0.0])))
    spec = ArmLinkSpec(radii=[0.045, 0.045, 0.04, 0.035, 0.035, 0.03])
    world = CollisionWorld(statics or {}, spec, WRIST_EXCLUDES)
    anchor = np.asarray(start_t, dtype=float) + [0.0, 0.0, 1.0]
    return PlanningProblem(
        robot=robot,
        world=world,
        balancer=BalancerSpec(anchor=anchor, max_load=2.0,
                              cable_radius=cable_radius),
        tool=make_tool(),
        constraint=BendConstraint(),
        start_pose=Pose(np.eye(3), start_t),
        goal_pose=Pose(goal_rot if goal_rot is not None else np.eye(3), goal_t),
        handover_poses=(Pose(hover_rot if hover_rot is not None else np.eye(3),
                             hover_t),),
        home_left=HOME_LEFT,
        home_right=HOME_RIGHT,
    )


def scene_from(problem: PlanningProblem, options: PlannerOptions = QUICK,
               pitch_rows=(0.0,), roll_cols=(0.0,),
               name: str = "test-scene") -> Scene:
    """Wrap a single planning problem as a (possibly 1x1) benchmark scene."""
    return Scene(name=name, base=problem, options=options,
                 pitch_rows=tuple(pitch_rows), roll_cols=tuple(roll_cols))


def moved_scene(scene: Scene, rot: np.ndarray, shift) -> Scene:
    """scene under the rigid motion x -> rot x + shift.

    The arm bases, the balancer anchor, the station poses and the
    statics move.  What is written in a body's own frame (the tool, the
    link radii, the grid's pitch and roll offsets) and the joint-space
    homes stay as they are.
    """
    shift = np.asarray(shift, dtype=float)

    def pose(p: Pose) -> Pose:
        return Pose(rot @ p.r, rot @ p.t + shift)

    def shape(s):
        if isinstance(s, Box):
            return Box(pose(s.pose), s.half_extents)
        return Capsule(rot @ s.a + shift, rot @ s.b + shift, s.radius)

    b = scene.base
    world = CollisionWorld({name: shape(s) for name, s in b.world.statics.items()},
                           b.world.link_spec, b.world.excluded)
    return replace(scene, base=replace(
        b, world=world,
        robot=DualArm(left=ArmModel(pose(b.robot.left.base)),
                      right=ArmModel(pose(b.robot.right.base))),
        balancer=replace(b.balancer, anchor=rot @ b.balancer.anchor + shift),
        start_pose=pose(b.start_pose), goal_pose=pose(b.goal_pose),
        handover_poses=tuple(map(pose, b.handover_poses))))
