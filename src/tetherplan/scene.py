"""Scene files: a strict YAML schema describing one planning environment.

A scene bundles the robot placement, balancer, tool, obstacles, baseline
start/goal poses, and planner settings.  Angles are degrees in the file
and radians in memory; lengths are meters throughout.  Unknown keys and
keys repeated within one mapping are rejected, so typos fail loudly
instead of silently falling back to defaults or overriding an earlier
value.  Each mapping is read through a _Section, whose typed reads name
a bad value by its dotted key path; describe() prints the planner
settings from the same key table that parses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
import yaml

from .cable import CABLE, BalancerSpec, BendConstraint, ToolSpec, bend_angle_batch
from .collision import ArmLinkSpec, Box, Capsule, CollisionWorld, Shape, link_names
from .geometry import Pose, rot_x, rot_y
from .planner import PlannerOptions, PlanningProblem
from .robot import DualArm, joint_config

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


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping; plain
    safe_load keeps the last of the two without a word.  An integer
    Python cannot read (more than 4,300 digits) is a YAML error at its
    mark, not the bare ValueError of SafeLoader's int constructor."""

    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError as e:
            raise yaml.constructor.ConstructorError(
                None, None, f"unreadable integer: {e}", node.start_mark) from e

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:int",
                                 _UniqueKeyLoader.construct_yaml_int)


# The Python types a scalar kind accepts, and its name in messages.
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string")}


def _scalar(value, path: str, kind: type):
    """value as a finite float, an int or a str; a bool is none of them."""
    accepts, what = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise ParseError(f"{path}: expected {what}, got {type(value).__name__}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:       # an int beyond the float range
            raise ValidationError(path, "must be finite, got an integer "
                                  "beyond the float range") from None
        if not math.isfinite(value):
            raise ValidationError(path, f"must be finite, got {value}")
    return kind(value)


def _entries(value, path: str) -> list[tuple[str, object]]:
    """(path, value) of each entry of a list."""
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    return [(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _numbers(value, path: str, n: int | None) -> np.ndarray:
    """A list of n numbers, or of any length if n is None."""
    if n is not None and not (isinstance(value, list) and len(value) == n):
        raise ParseError(f"{path}: expected a list of {n} numbers")
    return np.array([_scalar(v, p, float) for p, v in _entries(value, path)])


_REQUIRED = object()
_ROOT = "scene"


class _Section:
    """One mapping of the scene file at a dotted path, built with the keys
    it allows (None: the caller checks them).  Each typed read names a bad
    value by its key's path, so a key is written once; an absent key with
    a default gives that default, unchecked."""

    def __init__(self, node, path: str, keys):
        if not isinstance(node, dict):
            raise ParseError(f"{path}: expected a mapping, got {type(node).__name__}")
        unknown = [] if keys is None else sorted(set(node) - set(keys))
        if unknown:
            raise ParseError(f"{path}.{unknown[0]}: unknown key")
        self.node, self.path = node, path

    def at(self, key: str) -> str:
        """Dotted path of key; the root's keys are named bare."""
        return key if self.path == _ROOT else f"{self.path}.{key}"

    def _read(self, key: str, default, check, *args):
        """check(value, path, *args) of the value under key."""
        if key in self.node:
            return check(self.node[key], self.at(key), *args)
        if default is _REQUIRED:
            raise ParseError(f"{self.path}.{key}: missing required key")
        return default

    def number(self, key: str, default=_REQUIRED) -> float:
        return self._read(key, default, _scalar, float)

    def string(self, key: str, default=_REQUIRED) -> str:
        return self._read(key, default, _scalar, str)

    def vector(self, key: str, n: int | None = 3, default=_REQUIRED) -> np.ndarray:
        return self._read(key, default, _numbers, n)

    def items(self, key: str, default=_REQUIRED) -> list[tuple[str, object]]:
        return self._read(key, default, _entries)

    def child(self, key: str, keys, default=_REQUIRED) -> _Section:
        """The mapping under key; a default of None lets it be absent or
        null, and reads it as empty."""
        node = self._read(key, default, lambda v, path: v)
        return _Section({} if node is None and default is None else node,
                        self.at(key), keys)

    def options(self, schema: dict) -> dict:
        """Keyword arguments for the keys of schema that this section
        holds, range-checked; a "_deg" key's value becomes radians."""
        kwargs = {}
        for key, (name, kind, least) in schema.items():
            value = self._read(key, None, _scalar, kind)
            if value is None:
                continue
            if least is None and not value > 0:
                raise ValidationError(self.at(key), "must be positive")
            if least is not None and value < least:
                raise ValidationError(self.at(key), f"must be at least {least}")
            kwargs[name] = math.radians(value) if key.endswith("_deg") else value
        return kwargs


def _build(path: str, spec, **fields):
    """spec(**fields); a ValueError it raises is a ValidationError at path."""
    try:
        return spec(**fields)
    except ValueError as e:
        raise ValidationError(path, str(e)) from e


def _pose(s: _Section, xyz: str = "xyz_m") -> Pose:
    t = s.vector(xyz)
    return Pose.from_rpy(t, np.radians(s.vector("rpy_deg", default=(0.0, 0.0, 0.0))))


_POSE_KEYS = ("xyz_m", "rpy_deg")
# Keys of each shape kind besides kind and name.  A sphere is a capsule
# whose two endpoints are its center.
_SHAPE_KEYS = {"capsule": ("a_xyz_m", "b_xyz_m", "radius_m"),
               "sphere": ("center_xyz_m", "radius_m"),
               "box": ("center_xyz_m", "rpy_deg", "half_extents_m")}


def _shape(node, path: str, known: set) -> tuple[str, Shape]:
    """A named shape.  Its name joins known, which must not hold it yet:
    clearance pairs go by name, so the cable, the arm links, the statics
    and the tool shapes each need their own."""
    head = _Section(node, path, None)   # the keys allowed depend on kind
    kind, name = head.string("kind"), head.string("name")
    if kind not in _SHAPE_KEYS:
        raise ParseError(f"{head.at('kind')}: unknown shape kind {kind!r}")
    s = _Section(node, path, ("kind", "name", *_SHAPE_KEYS[kind]))
    if kind == "box":
        shape = _build(path, Box, pose=_pose(s, "center_xyz_m"),
                       half_extents=s.vector("half_extents_m"))
    else:
        a, b = ((s.vector("a_xyz_m"), s.vector("b_xyz_m")) if kind == "capsule"
                else (s.vector("center_xyz_m"),) * 2)
        shape = _build(path, Capsule, a=a, b=b, radius=s.number("radius_m"))
    if name in known:
        raise ValidationError(head.at("name"), f"duplicate body name {name!r}")
    known.add(name)
    return name, shape


def _shown(key: str, value) -> str:
    """A setting as the file writes it under key: degrees for "_deg"."""
    return f"{math.degrees(value):.6g}" if key.endswith("_deg") else f"{value}"


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
        """Effective configuration, one setting per line; the planner
        settings under their file keys."""
        b, o = self.base, self.options
        lines = [
            f"scene: {self.name}",
            f"anchor_xyz_m: {b.balancer.anchor.tolist()}",
            f"max_load_kg: {b.balancer.max_load}",
            f"cable_radius_m: {b.balancer.cable_radius}",
            f"theta_max_deg: {_shown('theta_max_deg', b.constraint.theta_max)}",
            f"start_xyz_m: {b.start_pose.t.tolist()}",
            f"goal_xyz_m: {b.goal_pose.t.tolist()}",
            f"handover_count: {len(b.handover_poses)}",
            f"statics: {sorted(b.world.statics)}",
            f"link_radii_m: {b.world.link_spec.radii.tolist()}",
            f"palm_standoff_m: {b.world.link_spec.palm_setback}",
            *(f"{key}: {_shown(key, getattr(o, field))}"
              for key, (field, _, _) in _PLANNER_KEYS.items()),
            f"pitch_rows_deg: {[round(math.degrees(p), 6) for p in self.pitch_rows]}",
            f"roll_cols_deg: {[round(math.degrees(r), 6) for r in self.roll_cols]}",
        ]
        return "\n".join(lines)


# Optional keys: file key -> (field name, type, least value); None as
# the least value means the value must be positive, and -inf leaves any
# range check to the spec that takes the value.  A key the file omits
# takes the field's default.  describe() prints the planner table in
# this order.
_PLANNER_KEYS = {
    "axial_samples": ("axial_samples", int, 1),
    "roll_samples": ("roll_samples", int, 1),
    "grasp_inset_m": ("grasp_inset", float, None),
    "interp_step_deg": ("interp_step", float, None),
    "min_handover_separation_m": ("min_handover_separation", float, 0.0),
    "max_edges": ("max_edges", int, 0),
}


def parse_scene(text: str) -> Scene:
    """Parse and validate scene YAML text."""
    try:
        root = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" \
            if mark is not None else ""
        raise ParseError(f"invalid YAML{where}: {e}") from e
    root = _Section(root, _ROOT, (
        "name", "robot", "balancer", "tool", "constraint", "start_pose", "goal_pose",
        "handover_poses", "statics", "collision_exclude", "planner", "sweep"))

    name = root.string("name", "unnamed")
    rob = root.child("robot", ("left_base", "right_base", "home_left_deg",
                               "home_right_deg", "link_radii_m", "palm_standoff_m"))
    left = _pose(rob.child("left_base", _POSE_KEYS))
    right = _pose(rob.child("right_base", _POSE_KEYS))
    home_left, home_right = (
        _build(rob.at(key), joint_config, q=np.radians(rob.vector(key, 6)),
               name=key.removesuffix("_deg")) for key in ("home_left_deg", "home_right_deg"))
    radii = rob.vector("link_radii_m", 6)
    standoff = rob.options({"palm_standoff_m": ("palm_setback", float, None)})
    robot = _build(rob.path, DualArm, left=left, right=right)
    link_spec = _build(rob.path, ArmLinkSpec, radii=radii, **standoff)

    bal = root.child("balancer", ("anchor_xyz_m", "max_load_kg", "cable_radius_m"))
    balancer = _build(
        bal.path, BalancerSpec, anchor=bal.vector("anchor_xyz_m"),
        max_load=bal.number("max_load_kg"),
        **bal.options({"cable_radius_m": ("cable_radius", float, -math.inf)}))

    con = root.child("constraint", ("theta_max_deg",), {})
    theta_max_deg = con.number("theta_max_deg", math.degrees(BendConstraint().theta_max))
    constraint = _build(con.at("theta_max_deg"), BendConstraint,
                        theta_max=math.radians(theta_max_deg))

    start_pose = _pose(root.child("start_pose", _POSE_KEYS))
    goal_pose = _pose(root.child("goal_pose", _POSE_KEYS))
    handover_poses = tuple(_pose(_Section(node, path, _POSE_KEYS))
                           for path, node in root.items("handover_poses", []))

    known = {CABLE, *link_names("left"), *link_names("right")}
    statics = dict(_shape(node, path, known)
                   for path, node in root.items("statics", []))
    tl = root.child("tool", ("connector_xyz_m", "cable_dir", "handle_a_xyz_m",
                             "handle_b_xyz_m", "shapes"))
    entries = tl.items("shapes")
    if not entries:
        raise ParseError(f"{tl.at('shapes')}: expected a non-empty list")
    shapes = tuple(_shape(node, path, known) for path, node in entries)
    tool = _build(tl.path, ToolSpec, connector_point=tl.vector("connector_xyz_m"),
                  cable_dir=tl.vector("cable_dir", default=(0.0, 0.0, 1.0)),
                  handle_a=tl.vector("handle_a_xyz_m"),
                  handle_b=tl.vector("handle_b_xyz_m"), shapes=shapes)

    excluded = []
    for path, pair in root.items("collision_exclude", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{path}: expected a pair of names")
        names = tuple(_scalar(v, p, str) for p, v in _entries(pair, path))
        for name_ in names:
            if name_ not in known:
                raise ValidationError(path, f"unknown body name {name_!r}")
        if names[0] == names[1]:
            raise ValidationError(path, f"names body {names[0]!r} twice")
        excluded.append(names)

    planner = root.child("planner", _PLANNER_KEYS, None)
    options = PlannerOptions(**planner.options(_PLANNER_KEYS))
    handle = float(np.linalg.norm(tool.handle_b - tool.handle_a))
    if not 2.0 * options.grasp_inset < handle:   # as sample_grasps needs
        raise ValidationError(planner.at("grasp_inset_m"),
                              f"an inset of {options.grasp_inset} m at both ends "
                              f"leaves no room on a handle of length {handle:.3f} m")
    sweep = root.child("sweep", ("pitch_rows_deg", "roll_cols_deg"), None)
    rows_deg = sweep.vector("pitch_rows_deg", None, DEFAULT_PITCH_ROWS_DEG)
    cols_deg = sweep.vector("roll_cols_deg", None, DEFAULT_ROLL_COLS_DEG)

    world = CollisionWorld(statics, link_spec, excluded)
    base = _build(
        "handover_poses", PlanningProblem, robot=robot, world=world,
        balancer=balancer, tool=tool, constraint=constraint, start_pose=start_pose,
        goal_pose=goal_pose, handover_poses=handover_poses, home_left=home_left,
        home_right=home_right)
    scene = Scene(name=name, base=base, options=options,
                  pitch_rows=tuple(map(math.radians, rows_deg)),
                  roll_cols=tuple(map(math.radians, cols_deg)))

    theta0 = bend_angle_batch(start_pose.r[None], start_pose.t[None], balancer, tool)[0]
    if theta0 > 1e-6:
        raise ValidationError(
            "start_pose",
            f"tool must hang straight at the baseline start "
            f"(bend {math.degrees(theta0):.3f} deg, expected 0); "
            f"place the balancer anchor directly above the connector")
    return scene


def load_scene(path: str) -> Scene:
    """Load and validate a scene file; each error names path once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except (ParseError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    except ValidationError as e:
        raise ValidationError(path, str(e)) from e


def default_scene() -> Scene:
    """The bundled benchmark scene."""
    text = resources.files("tetherplan").joinpath(
        "data/default_scene.yaml").read_text(encoding="utf-8")
    return parse_scene(text)
