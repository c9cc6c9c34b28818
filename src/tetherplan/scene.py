"""Scene files: a strict YAML schema describing one planning environment.

A scene bundles the robot placement, balancer, tool, obstacles, baseline
start/goal poses, and planner settings.  Angles are degrees in the file
and radians in memory; lengths are meters throughout.  Unknown keys are
rejected so typos fail loudly instead of silently falling back to
defaults.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
import yaml

from .cable import CABLE, BalancerSpec, BendConstraint, ToolSpec, bend_angle_batch
from .collision import ArmLinkSpec, Box, Capsule, CollisionWorld, Shape, Sphere, link_names
from .geometry import Pose, rot_x, rot_y
from .planner import PlannerOptions, PlanningProblem
from .robot import ArmModel, DualArm, IKOptions

log = logging.getLogger(__name__)

DEFAULT_PITCH_ROWS_DEG = (0.0, 10.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
DEFAULT_ROLL_COLS_DEG = (-20.0, -10.0, 0.0, 10.0, 20.0)


class ParseError(Exception):
    """Malformed scene file: syntax error or schema mismatch.

    The message names the offending location (line/column for syntax,
    dotted key path for schema problems).
    """


class ValidationError(Exception):
    """Well-formed scene file with an out-of-range or inconsistent value."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_REQUIRED = object()


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ParseError(f"{path}.{unknown[0]}: unknown key")


def _get(node: dict, key: str, path: str, default=_REQUIRED):
    if key in node:
        return node[key]
    if default is _REQUIRED:
        raise ParseError(f"{path}.{key}: missing required key")
    return default


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValidationError(path, f"must be finite, got {value}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _numbers(value, n: int, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ParseError(f"{path}: expected a list of {n} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _pose(node, path: str) -> Pose:
    node = _mapping(node, path)
    _check_keys(node, ("xyz_m", "rpy_deg"), path)
    xyz = _numbers(_get(node, "xyz_m", path), 3, f"{path}.xyz_m")
    rpy = _numbers(_get(node, "rpy_deg", path, [0.0, 0.0, 0.0]), 3,
                   f"{path}.rpy_deg")
    return Pose.from_rpy(xyz, np.radians(rpy))


def _shape(node, path: str) -> tuple[str, Shape]:
    node = _mapping(node, path)
    kind = _string(_get(node, "kind", path), f"{path}.kind")
    name = _string(_get(node, "name", path), f"{path}.name")
    try:
        if kind == "capsule":
            _check_keys(node, ("kind", "name", "a_xyz_m", "b_xyz_m", "radius_m"),
                        path)
            return name, Capsule(
                _numbers(_get(node, "a_xyz_m", path), 3, f"{path}.a_xyz_m"),
                _numbers(_get(node, "b_xyz_m", path), 3, f"{path}.b_xyz_m"),
                _number(_get(node, "radius_m", path), f"{path}.radius_m"))
        if kind == "sphere":
            _check_keys(node, ("kind", "name", "center_xyz_m", "radius_m"), path)
            return name, Sphere(
                _numbers(_get(node, "center_xyz_m", path), 3,
                         f"{path}.center_xyz_m"),
                _number(_get(node, "radius_m", path), f"{path}.radius_m"))
        if kind == "box":
            _check_keys(node, ("kind", "name", "center_xyz_m", "rpy_deg",
                               "half_extents_m"), path)
            center = _numbers(_get(node, "center_xyz_m", path), 3,
                              f"{path}.center_xyz_m")
            rpy = _numbers(_get(node, "rpy_deg", path, [0.0, 0.0, 0.0]), 3,
                           f"{path}.rpy_deg")
            half = _numbers(_get(node, "half_extents_m", path), 3,
                            f"{path}.half_extents_m")
            return name, Box(Pose.from_rpy(center, np.radians(rpy)), half)
    except ValueError as e:
        raise ValidationError(path, str(e)) from e
    raise ParseError(f"{path}.kind: unknown shape kind {kind!r}")


@dataclass(frozen=True)
class Scene:
    """A validated planning problem, its planner options and the
    benchmark grid of (pitch, roll) offsets.

    base is the problem of the baseline cell, with no offset; problem()
    derives every other cell from it.
    """

    name: str
    base: PlanningProblem
    options: PlannerOptions
    pitch_rows: tuple[float, ...]
    roll_cols: tuple[float, ...]

    def problem(self, pitch: float = 0.0, roll: float = 0.0) -> PlanningProblem:
        """Planning problem for one benchmark cell.

        The pitch offset turns the start pose about the tool's own y
        axis and the roll offset turns the goal pose about the tool's
        own x axis, so offsets are expressed in the tool frame.
        """
        start = self.base.start_pose
        goal = self.base.goal_pose
        if pitch:
            start = Pose(start.r @ rot_y(pitch), start.t)
        if roll:
            goal = Pose(goal.r @ rot_x(roll), goal.t)
        return replace(self.base, start_pose=start, goal_pose=goal)

    def describe(self) -> str:
        """Effective configuration, one setting per line."""
        b, o = self.base, self.options
        lines = [
            f"scene: {self.name}",
            f"anchor_xyz_m: {b.balancer.anchor.tolist()}",
            f"max_load_kg: {b.balancer.max_load}",
            f"cable_radius_m: {b.balancer.cable_radius}",
            f"theta_max_deg: {math.degrees(b.constraint.theta_max):.6g}",
            f"start_xyz_m: {b.start_pose.t.tolist()}",
            f"goal_xyz_m: {b.goal_pose.t.tolist()}",
            f"handover_count: {len(b.handover_poses)}",
            f"statics: {sorted(b.world.statics)}",
            f"link_radii_m: {b.world.link_spec.radii.tolist()}",
            f"palm_standoff_m: {b.world.link_spec.palm_setback}",
            f"axial_samples: {o.axial_samples}",
            f"roll_samples: {o.roll_samples}",
            f"grasp_inset_m: {o.grasp_inset}",
            f"interp_step_deg: {math.degrees(o.interp_step):.6g}",
            f"min_handover_separation_m: {o.min_handover_separation}",
            f"max_edges: {o.max_edges}",
            f"ik_restarts: {o.ik.restarts}",
            f"ik_max_iters: {o.ik.max_iters}",
            f"ik_seed: {o.ik.seed}",
            f"ik_pos_tol_m: {o.ik.pos_tol}",
            f"ik_ori_tol_rad: {o.ik.ori_tol}",
            f"pitch_rows_deg: {[round(math.degrees(p), 6) for p in self.pitch_rows]}",
            f"roll_cols_deg: {[round(math.degrees(r), 6) for r in self.roll_cols]}",
        ]
        return "\n".join(lines)


# Optional keys: file key -> (field name, parser, least value); None as
# the least value means the value must be positive, and -inf leaves any
# range check to the spec that takes the value.  A key the file omits
# takes the field's default.
_STANDOFF_KEY = {"palm_standoff_m": ("palm_setback", _number, None)}
_CABLE_RADIUS_KEY = {"cable_radius_m": ("cable_radius", _number, -math.inf)}
_PLANNER_KEYS = {
    "axial_samples": ("axial_samples", _integer, 1),
    "roll_samples": ("roll_samples", _integer, 1),
    "grasp_inset_m": ("grasp_inset", _number, None),
    "interp_step_deg": ("interp_step", _number, None),
    "min_handover_separation_m": ("min_handover_separation", _number, 0.0),
    "max_edges": ("max_edges", _integer, 0),
}
_IK_KEYS = {
    "restarts": ("restarts", _integer, 1),
    "max_iters": ("max_iters", _integer, 0),
    "pos_tol_m": ("pos_tol", _number, None),
    "ori_tol_rad": ("ori_tol", _number, None),
    "seed": ("seed", _integer, 0),
}


def _options(node: dict, path: str, schema: dict) -> dict:
    """Keyword arguments for the keys of node that schema lists, checked."""
    kwargs = {}
    for key, (name, parse, least) in schema.items():
        if key not in node:
            continue
        value = parse(node[key], f"{path}.{key}")
        if least is None and not value > 0:
            raise ValidationError(f"{path}.{key}", "must be positive")
        if least is not None and value < least:
            raise ValidationError(f"{path}.{key}", f"must be at least {least}")
        kwargs[name] = value
    return kwargs


def _parse_robot(node, path: str):
    node = _mapping(node, path)
    _check_keys(node, ("left_base", "right_base", "home_left_deg",
                       "home_right_deg", "link_radii_m", "palm_standoff_m"),
                path)
    left_base = _pose(_get(node, "left_base", path), f"{path}.left_base")
    right_base = _pose(_get(node, "right_base", path), f"{path}.right_base")
    home_left = np.radians(_numbers(_get(node, "home_left_deg", path), 6,
                                    f"{path}.home_left_deg"))
    home_right = np.radians(_numbers(_get(node, "home_right_deg", path), 6,
                                     f"{path}.home_right_deg"))
    radii = _numbers(_get(node, "link_radii_m", path), 6, f"{path}.link_radii_m")
    standoff = _options(node, path, _STANDOFF_KEY)
    try:
        robot = DualArm(left=ArmModel(left_base), right=ArmModel(right_base))
        spec = ArmLinkSpec(radii=radii, **standoff)
    except ValueError as e:
        raise ValidationError(path, str(e)) from e
    return robot, spec, home_left, home_right


def _claim(known: set, name: str, path: str) -> None:
    """Add name to the known body names.  Clearance pairs go by name, so
    the cable, the arm links, the statics and the tool shapes each need
    their own."""
    if name in known:
        raise ValidationError(path, f"duplicate body name {name!r}")
    known.add(name)


def _parse_tool(node, path: str, known: set) -> ToolSpec:
    node = _mapping(node, path)
    _check_keys(node, ("connector_xyz_m", "cable_dir", "handle_a_xyz_m",
                       "handle_b_xyz_m", "handle_radius_m", "shapes"), path)
    shapes_node = _get(node, "shapes", path)
    if not isinstance(shapes_node, list) or not shapes_node:
        raise ParseError(f"{path}.shapes: expected a non-empty list")
    shapes = tuple(_shape(s, f"{path}.shapes[{i}]")
                   for i, s in enumerate(shapes_node))
    for i, (name, _) in enumerate(shapes):
        _claim(known, name, f"{path}.shapes[{i}].name")
    try:
        return ToolSpec(
            connector_point=_numbers(_get(node, "connector_xyz_m", path), 3,
                                     f"{path}.connector_xyz_m"),
            cable_dir=_numbers(_get(node, "cable_dir", path, [0.0, 0.0, 1.0]),
                               3, f"{path}.cable_dir"),
            handle_a=_numbers(_get(node, "handle_a_xyz_m", path), 3,
                              f"{path}.handle_a_xyz_m"),
            handle_b=_numbers(_get(node, "handle_b_xyz_m", path), 3,
                              f"{path}.handle_b_xyz_m"),
            handle_radius=_number(_get(node, "handle_radius_m", path),
                                  f"{path}.handle_radius_m"),
            shapes=shapes,
        )
    except ValueError as e:
        raise ValidationError(path, str(e)) from e


def _parse_planner(node, path: str) -> PlannerOptions:
    if node is None:
        return PlannerOptions()
    node = _mapping(node, path)
    _check_keys(node, [*_PLANNER_KEYS, "ik"], path)
    kwargs = _options(node, path, _PLANNER_KEYS)
    if "interp_step" in kwargs:
        kwargs["interp_step"] = math.radians(kwargs["interp_step"])
    if "ik" in node:
        ik_node = _mapping(node["ik"], f"{path}.ik")
        _check_keys(ik_node, _IK_KEYS, f"{path}.ik")
        kwargs["ik"] = IKOptions(**_options(ik_node, f"{path}.ik", _IK_KEYS))
    return PlannerOptions(**kwargs)


def _parse_sweep(node, path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    grid = {"pitch_rows_deg": DEFAULT_PITCH_ROWS_DEG,
            "roll_cols_deg": DEFAULT_ROLL_COLS_DEG}
    if node is not None:
        node = _mapping(node, path)
        _check_keys(node, grid, path)
        for key in grid.keys() & node.keys():
            raw = node[key]
            if not isinstance(raw, list):
                raise ParseError(f"{path}.{key}: expected a list")
            grid[key] = [_number(v, f"{path}.{key}[{i}]")
                         for i, v in enumerate(raw)]
    rows_deg, cols_deg = grid.values()
    return (tuple(math.radians(v) for v in rows_deg),
            tuple(math.radians(v) for v in cols_deg))


_TOP_KEYS = ("name", "robot", "balancer", "tool", "constraint", "start_pose",
             "goal_pose", "handover_poses", "statics", "collision_exclude",
             "planner", "sweep")


def parse_scene(text: str, source: str = "<string>") -> Scene:
    """Parse and validate scene YAML text."""
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" \
            if mark is not None else ""
        raise ParseError(f"{source}: invalid YAML{where}: {e}") from e
    root = _mapping(root, "scene")
    _check_keys(root, _TOP_KEYS, "scene")

    name = _string(_get(root, "name", "scene", "unnamed"), "name")
    robot, link_spec, home_left, home_right = _parse_robot(
        _get(root, "robot", "scene"), "robot")

    bal_node = _mapping(_get(root, "balancer", "scene"), "balancer")
    _check_keys(bal_node, ("anchor_xyz_m", "max_load_kg", "cable_radius_m"),
                "balancer")
    try:
        balancer = BalancerSpec(
            anchor=_numbers(_get(bal_node, "anchor_xyz_m", "balancer"), 3,
                            "balancer.anchor_xyz_m"),
            max_load=_number(_get(bal_node, "max_load_kg", "balancer"),
                             "balancer.max_load_kg"),
            **_options(bal_node, "balancer", _CABLE_RADIUS_KEY))
    except ValueError as e:
        raise ValidationError("balancer", str(e)) from e

    con_node = _mapping(_get(root, "constraint", "scene", {}), "constraint")
    _check_keys(con_node, ("theta_max_deg",), "constraint")
    constraint = BendConstraint()
    if "theta_max_deg" in con_node:
        theta_max_deg = _number(con_node["theta_max_deg"],
                                "constraint.theta_max_deg")
        if not 0.0 < theta_max_deg < 180.0:
            raise ValidationError("constraint.theta_max_deg",
                                  f"must be in (0, 180), got {theta_max_deg}")
        constraint = BendConstraint(theta_max=math.radians(theta_max_deg))

    start_pose = _pose(_get(root, "start_pose", "scene"), "start_pose")
    goal_pose = _pose(_get(root, "goal_pose", "scene"), "goal_pose")
    hovers_node = _get(root, "handover_poses", "scene", [])
    if not isinstance(hovers_node, list):
        raise ParseError("handover_poses: expected a list")
    handover_poses = tuple(_pose(p, f"handover_poses[{i}]")
                           for i, p in enumerate(hovers_node))

    statics_node = _get(root, "statics", "scene", [])
    if not isinstance(statics_node, list):
        raise ParseError("statics: expected a list")
    statics = {}
    known = {CABLE, *link_names("left"), *link_names("right")}
    for i, s in enumerate(statics_node):
        sname, shape = _shape(s, f"statics[{i}]")
        _claim(known, sname, f"statics[{i}].name")
        statics[sname] = shape
    tool = _parse_tool(_get(root, "tool", "scene"), "tool", known)

    exclude_node = _get(root, "collision_exclude", "scene", [])
    if not isinstance(exclude_node, list):
        raise ParseError("collision_exclude: expected a list")
    excluded = []
    for i, pair in enumerate(exclude_node):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"collision_exclude[{i}]: expected a pair of names")
        a = _string(pair[0], f"collision_exclude[{i}][0]")
        b = _string(pair[1], f"collision_exclude[{i}][1]")
        for name_ in (a, b):
            if name_ not in known:
                raise ValidationError(f"collision_exclude[{i}]",
                                      f"unknown body name {name_!r}")
        excluded.append((a, b))

    options = _parse_planner(root.get("planner"), "planner")
    handle = float(np.linalg.norm(tool.handle_b - tool.handle_a))
    if not 2.0 * options.grasp_inset < handle:   # as sample_grasps needs
        raise ValidationError(
            "planner.grasp_inset_m",
            f"an inset of {options.grasp_inset} m at both ends leaves no "
            f"room on a handle of length {handle:.3f} m")
    pitch_rows, roll_cols = _parse_sweep(root.get("sweep"), "sweep")

    world = CollisionWorld(statics, link_spec, excluded)
    try:
        base = PlanningProblem(
            robot=robot, world=world, balancer=balancer, tool=tool,
            constraint=constraint, start_pose=start_pose, goal_pose=goal_pose,
            handover_poses=handover_poses, home_left=home_left,
            home_right=home_right)
    except ValueError as e:
        raise ValidationError("handover_poses", str(e)) from e
    scene = Scene(name=name, base=base, options=options,
                  pitch_rows=pitch_rows, roll_cols=roll_cols)

    theta0 = bend_angle_batch(start_pose.r[None], start_pose.t[None], balancer, tool)[0]
    if theta0 > 1e-6:
        raise ValidationError(
            "start_pose",
            f"tool must hang straight at the baseline start "
            f"(bend {math.degrees(theta0):.3f} deg, expected 0); "
            f"place the balancer anchor directly above the connector")
    log.info("loaded scene %s from %s\n%s", name, source, scene.describe())
    return scene


def load_scene(path: str) -> Scene:
    """Load and validate a scene file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), source=path)


def default_scene() -> Scene:
    """The bundled benchmark scene."""
    text = resources.files("tetherplan").joinpath(
        "data/default_scene.yaml").read_text(encoding="utf-8")
    return parse_scene(text, source="tetherplan/data/default_scene.yaml")
