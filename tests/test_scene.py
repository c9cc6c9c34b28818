import math
import re

import numpy as np
import pytest
import yaml
from importlib import resources

from tetherplan.cable import CABLE, BendConstraint, bend_angle_batch
from tetherplan.collision import Capsule, _pair_table, arm_link_segments, \
    motion_clearances
from tetherplan.geometry import rot_y
from tetherplan.planner import sample_grasps
from tetherplan.scene import (
    _PLANNER_KEYS,
    ParseError,
    ValidationError,
    default_scene,
    load_scene,
    parse_scene,
)


def default_text() -> str:
    return resources.files("tetherplan").joinpath(
        "data/default_scene.yaml").read_text(encoding="utf-8")


def mutated(**edits) -> str:
    """Default scene text with dotted-path overrides applied."""
    doc = yaml.safe_load(default_text())
    for path, value in edits.items():
        keys = path.split("__")
        node = doc
        for k in keys[:-1]:
            node = node[k]
        if value is _DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return yaml.safe_dump(doc)


_DELETE = object()


def _slot(doc, path: str):
    """The mapping holding a dotted path's last key (list entries as
    [i]), and that key."""
    steps = [int(p) if p.isdigit() else p
             for p in re.split(r"\.|\[|\]\.?", path) if p]
    node = doc
    for step in steps[:-1]:
        node = node[step]
    return node, steps[-1]


def _key_paths(node, path: str = ""):
    """Dotted path of every mapping key in node, entries of lists of
    mappings included."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            yield sub
            yield from _key_paths(value, sub)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, f"{path}[{i}]")


class TestDefaultScene:
    def test_loads_and_hangs_straight(self):
        sc = default_scene()
        assert sc.name == "default"
        start = sc.base.start_pose
        theta = bend_angle_batch(start.r[None], start.t[None], sc.base.balancer, sc.base.tool)
        assert theta[0] < 1e-6

    def test_grid_dimensions(self):
        sc = default_scene()
        assert len(sc.pitch_rows) == 8
        assert len(sc.roll_cols) == 5
        assert sc.pitch_rows[0] == 0.0
        assert math.isclose(sc.pitch_rows[-1], math.pi / 2)
        assert math.isclose(sc.roll_cols[0], math.radians(-20.0))

    def test_home_configuration_is_collision_free(self):
        sc = default_scene()
        b = sc.base
        clear, _, _ = motion_clearances(b.world, arm_link_segments(
            b.robot, b.world.link_spec, np.stack([b.home_left, b.home_right])[None])[0])
        assert clear[0] >= 0.0

    def test_angles_are_radians_internally(self):
        sc = default_scene()
        assert math.isclose(sc.base.constraint.theta_max, math.radians(95.0))
        assert sc.options.interp_step < 0.1  # 2.9 degrees, not 2.9 radians
        assert np.all(np.abs(sc.base.home_left) < 2 * math.pi)

    def test_omitted_constraint_takes_the_default_limit(self):
        sc = parse_scene(mutated(constraint=_DELETE))
        assert sc.base.constraint.theta_max == BendConstraint().theta_max

    def test_describe_mentions_effective_settings(self):
        text = default_scene().describe()
        assert "theta_max_deg: 95" in text
        assert "link_radii_m: [0.045, 0.045, 0.04, 0.035, 0.035, 0.03]" in text
        assert "palm_standoff_m: 0.07" in text

    def test_describe_prints_every_planner_key(self):
        # describe() walks the key table that parses the planner block, so
        # each file key prints under its own name with the file's value.
        planner = {"axial_samples": 4, "roll_samples": 6, "grasp_inset_m": 0.03,
                   "interp_step_deg": 3.5, "min_handover_separation_m": 0.05,
                   "max_edges": 1000}
        assert set(planner) == set(_PLANNER_KEYS)
        lines = parse_scene(mutated(planner=planner)).describe().splitlines()
        for key, value in planner.items():
            assert f"{key}: {value}" in lines

    def test_sphere_is_a_capsule_with_equal_endpoints(self):
        shapes = dict(default_scene().base.tool.shapes)
        head = shapes["tool/head"]
        assert isinstance(head, Capsule)
        assert np.array_equal(head.a, [0.0, 0.0, -0.135])
        assert np.array_equal(head.b, head.a) and head.radius == 0.03

    def test_load_scene_from_file(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(default_text())
        sc = load_scene(str(path))
        assert sc.name == "default"


class TestCellProblems:
    def test_baseline_problem_matches_scene(self):
        sc = default_scene()
        p = sc.problem()
        assert np.array_equal(p.start_pose.r, sc.base.start_pose.r)
        assert np.array_equal(p.goal_pose.t, sc.base.goal_pose.t)

    def test_pitch_turns_start_in_tool_frame(self):
        sc = default_scene()
        pitch = math.radians(30.0)
        p = sc.problem(pitch=pitch)
        assert np.allclose(p.start_pose.r, sc.base.start_pose.r @ rot_y(pitch))
        assert np.array_equal(p.start_pose.t, sc.base.start_pose.t)
        assert np.array_equal(p.goal_pose.r, sc.base.goal_pose.r)

    def test_roll_turns_goal_only(self):
        sc = default_scene()
        roll = math.radians(-20.0)
        p = sc.problem(roll=roll)
        assert np.array_equal(p.start_pose.r, sc.base.start_pose.r)
        assert not np.array_equal(p.goal_pose.r, sc.base.goal_pose.r)

    def test_pitched_start_bend_matches_planar_trig(self):
        # Pitching the start tilts the tool axis by the pitch and also
        # swings the connector sideways, tilting the cable line a bit
        # further.  In the pitch plane, with the anchor a height h above
        # the tool origin and connector offset d along the tool axis:
        #   cable u = (-d sin p, h - d cos p), tool axis v = (sin p, cos p).
        sc = default_scene()
        h = sc.base.balancer.anchor[2] - sc.base.start_pose.t[2]
        d = sc.base.tool.connector_point[2]
        for deg in (10.0, 45.0, 75.0, 90.0):
            p = math.radians(deg)
            u = np.array([-d * math.sin(p), h - d * math.cos(p)])
            v = np.array([math.sin(p), math.cos(p)])
            expected = math.acos(u @ v / np.linalg.norm(u))
            start = sc.problem(pitch=p).start_pose
            theta = bend_angle_batch(start.r[None], start.t[None], sc.base.balancer,
                                     sc.base.tool)[0]
            assert math.isclose(theta, expected, abs_tol=1e-9)
            assert theta > p  # the cable tilt always adds to the pitch


class TestParseErrors:
    def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(default_text().replace("name: default", "name: caf\xe9")
                         .encode("latin-1"))
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}: 'utf-8' codec"):
            load_scene(str(path))

    def test_invalid_yaml_reports_position(self):
        with pytest.raises(ParseError, match=r"^invalid YAML at line 2, column 1"):
            parse_scene("robot: [unclosed\n")

    @pytest.mark.parametrize("text, error, message", [
        ("robot: [unclosed\n", ParseError, "invalid YAML at line 2, column 1"),
        (mutated(robot__left_base=_DELETE), ParseError,
         "robot.left_base: missing required key"),
        (mutated(constraint__theta_max_deg=-5.0), ValidationError,
         "constraint.theta_max_deg: ")], ids=["yaml", "missing_key", "invalid_value"])
    def test_a_file_error_names_the_path_once(self, tmp_path, text, error, message):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(error) as raised:
            load_scene(str(path))
        assert str(raised.value).startswith(f"{path}: {message}")
        assert str(raised.value).count(str(path)) == 1

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ParseError, match="scene.gripper"):
            parse_scene(mutated(gripper={"width": 0.1}))

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ParseError, match="balancer.cable_radius_mm"):
            parse_scene(mutated(balancer__cable_radius_mm=10.0))

    def test_missing_required_key_is_named(self):
        with pytest.raises(ParseError, match="balancer.anchor_xyz_m"):
            parse_scene(mutated(balancer__anchor_xyz_m=_DELETE))

    def test_wrong_type_is_reported(self):
        with pytest.raises(ParseError, match="max_load_kg"):
            parse_scene(mutated(balancer__max_load_kg="heavy"))

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError, match="anchor_xyz_m"):
            parse_scene(mutated(balancer__anchor_xyz_m=[0.0, 1.0]))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ParseError, match="max_load_kg"):
            parse_scene(mutated(balancer__max_load_kg=True))

    def test_repeated_nested_key_is_rejected_with_its_line(self):
        # Plain YAML loading keeps the last of two equal keys: this file
        # would load with a 45 degree limit.
        text = default_text().replace("  theta_max_deg: 95.0\n",
                                      "  theta_max_deg: 95.0\n  theta_max_deg: 45.0\n")
        line = text.splitlines().index("  theta_max_deg: 45.0") + 1
        with pytest.raises(ParseError, match=rf"(?s)line {line}, column 3: .*"
                           r"duplicate key 'theta_max_deg'"):
            parse_scene(text)

    def test_repeated_top_level_key_is_rejected_with_its_line(self):
        # A second planner block would replace the first one entirely.
        text = default_text() + "\nplanner:\n  max_edges: 5\n"
        line = len(default_text().splitlines()) + 2
        with pytest.raises(ParseError, match=rf"(?s)line {line}, column 1: .*"
                           r"duplicate key 'planner'"):
            parse_scene(text)

    def test_integer_too_long_to_read_is_reported_with_its_line(self):
        # Python refuses int() of more than 4,300 decimal digits.
        text = default_text().replace("  max_load_kg: 2.0\n",
                                      "  max_load_kg: 1" + "0" * 5000 + "\n")
        line = text.splitlines().index("  max_load_kg: 1" + "0" * 5000) + 1
        with pytest.raises(ParseError, match=rf"(?s)line {line}, column 16: "
                           r"unreadable integer"):
            parse_scene(text)

    def test_merge_key_is_not_a_repeat(self):
        text = default_text().replace("start_pose:\n", "start_pose: &start\n")
        text = text.replace("goal_pose:\n", "goal_pose:\n  <<: *start\n")
        goal = parse_scene(text).base.goal_pose
        assert np.array_equal(goal.t, [0.3, -0.3, 0.45])

    @pytest.mark.parametrize("path", [
        "robot", "balancer", "tool", "start_pose", "goal_pose",
        "robot.left_base", "robot.left_base.xyz_m", "robot.right_base",
        "robot.right_base.xyz_m", "robot.home_left_deg", "robot.home_right_deg",
        "robot.link_radii_m", "balancer.anchor_xyz_m", "balancer.max_load_kg",
        "tool.connector_xyz_m", "tool.handle_a_xyz_m", "tool.handle_b_xyz_m",
        "tool.shapes", "tool.shapes[0].kind", "tool.shapes[0].name",
        "tool.shapes[0].a_xyz_m", "tool.shapes[0].b_xyz_m", "tool.shapes[0].radius_m",
        "tool.shapes[1].center_xyz_m", "tool.shapes[1].radius_m",
        "start_pose.xyz_m", "goal_pose.xyz_m", "handover_poses[0].xyz_m",
        "statics[0].kind", "statics[0].name", "statics[0].center_xyz_m",
        "statics[0].half_extents_m",
    ])
    def test_missing_required_key_names_its_path(self, path):
        doc = yaml.safe_load(default_text())
        node, key = _slot(doc, path)
        del node[key]
        named = path if "." in path else f"scene.{path}"
        with pytest.raises(ParseError, match=re.escape(f"{named}: missing required key")):
            parse_scene(yaml.safe_dump(doc))

    @pytest.mark.parametrize("path", list(_key_paths(yaml.safe_load(default_text()))))
    def test_wrongly_typed_key_names_its_path(self, path):
        # A list where a mapping belongs, a number where a string
        # belongs, and a string where a number, an integer or a list
        # belongs.
        doc = yaml.safe_load(default_text())
        node, key = _slot(doc, path)
        old = node.get(key, 1.0)
        node[key] = [1] if isinstance(old, dict) else 7 if isinstance(old, str) else "x"
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}: expected "):
            parse_scene(yaml.safe_dump(doc))

    def test_ik_block_is_an_unknown_key(self):
        # IK settings are IKOptions' defaults, set through the API only; a
        # file that still sets them fails rather than have them ignored.
        ik = {"restarts": 8, "max_iters": 200, "seed": 0}
        with pytest.raises(ParseError, match=r"^planner\.ik: unknown key"):
            parse_scene(mutated(planner__ik=ik))

    def test_unknown_shape_kind(self):
        doc = yaml.safe_load(default_text())
        doc["statics"].append({"name": "blob", "kind": "mesh"})
        with pytest.raises(ParseError, match="kind"):
            parse_scene(yaml.safe_dump(doc))


class TestValidationErrors:
    def test_zero_bend_threshold_rejected(self):
        with pytest.raises(ValidationError, match="theta_max_deg"):
            parse_scene(mutated(constraint__theta_max_deg=0.0))

    def test_threshold_at_180_rejected(self):
        with pytest.raises(ValidationError, match="theta_max_deg"):
            parse_scene(mutated(constraint__theta_max_deg=180.0))

    def test_threshold_that_rounds_to_zero_radians_rejected(self):
        # The smallest positive double is above 0 deg but 0 rad.
        with pytest.raises(ValidationError, match="theta_max_deg"):
            parse_scene(mutated(constraint__theta_max_deg=5e-324))

    def test_negative_shape_radius_rejected(self):
        doc = yaml.safe_load(default_text())
        doc["statics"].append({"name": "bad", "kind": "sphere",
                               "center_xyz_m": [0, 0, 0], "radius_m": -0.1})
        with pytest.raises(ValidationError):
            parse_scene(yaml.safe_dump(doc))

    def test_tilted_start_rejected(self):
        with pytest.raises(ValidationError, match="start_pose"):
            parse_scene(mutated(start_pose__rpy_deg=[0.0, 20.0, 0.0]))

    def test_offset_anchor_rejected(self):
        # Anchor no longer above the connector: hanging bend is nonzero.
        with pytest.raises(ValidationError, match="start_pose"):
            parse_scene(mutated(balancer__anchor_xyz_m=[0.6, 0.3, 1.45]))

    def test_duplicate_static_name_rejected(self):
        doc = yaml.safe_load(default_text())
        doc["statics"].append(dict(doc["statics"][0]))
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scene(yaml.safe_dump(doc))

    @pytest.mark.parametrize("name", [CABLE, "left/link3", "table",
                                      "tool/handle"])
    def test_tool_shape_may_not_shadow_another_body(self, name):
        # Clearance pairs go by name: a tool shape named like the cable,
        # a link, a static or another shape could not be told apart.
        doc = yaml.safe_load(default_text())
        doc["tool"]["shapes"][1]["name"] = name
        with pytest.raises(ValidationError, match=r"tool\.shapes\[1\]\.name"):
            parse_scene(yaml.safe_dump(doc))
        doc["tool"]["shapes"][1]["name"] = "tool/tip"
        assert parse_scene(yaml.safe_dump(doc)).base.tool.shapes[1][0] == "tool/tip"

    @pytest.mark.parametrize("name", [CABLE, "right/link6"])
    def test_static_may_not_shadow_the_cable_or_a_link(self, name):
        doc = yaml.safe_load(default_text())
        doc["statics"][0]["name"] = name
        with pytest.raises(ValidationError, match=r"statics\[0\]\.name"):
            parse_scene(yaml.safe_dump(doc))
        doc["statics"][0]["name"] = "bench"
        assert set(parse_scene(yaml.safe_dump(doc)).base.world.statics) == {"bench"}

    def test_unknown_exclusion_name_rejected(self):
        doc = yaml.safe_load(default_text())
        doc["collision_exclude"].append(["left/link4", "left/link99"])
        with pytest.raises(ValidationError, match="link99"):
            parse_scene(yaml.safe_dump(doc))

    def test_an_exclusion_naming_one_body_twice_is_rejected(self):
        # Such an entry is no pair, so it matched no pair and excluded
        # nothing.
        doc = yaml.safe_load(default_text())
        doc["collision_exclude"].append(["table", "table"])
        with pytest.raises(ValidationError,
                           match=r"^collision_exclude\[2\]: names body 'table' twice$"):
            parse_scene(yaml.safe_dump(doc))

    @pytest.mark.parametrize("key, bad, least", [
        ("planner__max_edges", -1, 0),
        ("planner__min_handover_separation_m", -1.0, 0.0),
        ("planner__min_handover_separation_m", math.nan, 0.0),
    ])
    def test_out_of_range_planner_option_rejected(self, key, bad, least):
        with pytest.raises(ValidationError, match=key.rsplit("__", 1)[1]):
            parse_scene(mutated(**{key: bad}))
        parse_scene(mutated(**{key: least}))  # the least legal value loads

    @pytest.mark.parametrize("key, bad, legal", [
        ("balancer__anchor_xyz_m", [0.3, 0.18, math.nan], [0.3, 0.18, 1.15]),
        ("goal_pose__xyz_m", [0.3, -0.3, math.inf], [0.3, -0.3, 1e300]),
        ("sweep__roll_cols_deg", [0.0, -math.inf], [0.0, -1e300]),
        ("handover_poses", [], [{"xyz_m": [0.32, 0.05, 0.45]}]),
        ("handover_poses", _DELETE, [{"xyz_m": [0.32, 0.05, 0.45]}]),
        # A home joint must lie in [-360, 360] deg, the range IK clamps
        # to; the error names the home's own key.
        ("robot__home_left_deg", [488.0, -47.5, -99.8, 28.6, -90.0, 139.5],
         [360.0, -360.0, -99.8, 28.6, -90.0, 139.5]),
        ("robot__home_right_deg", [160.1, -30.3, -88.4, 28.7, -90.0, -400.0],
         [160.1, -30.3, -88.4, 28.7, -90.0, -360.0]),
        # float() of an int beyond the float range overflows, not inf.
        pytest.param("balancer__max_load_kg", 10 ** 400, 2.0,
                     id="balancer__max_load_kg-int_beyond_float"),
        pytest.param("balancer__anchor_xyz_m", [0.3, 0.18, -10 ** 400],
                     [0.3, 0.18, 1.15], id="balancer__anchor_xyz_m-int_beyond_float"),
    ])
    def test_unusable_value_rejected(self, key, bad, legal):
        with pytest.raises(ValidationError, match=key.replace("__", ".")):
            parse_scene(mutated(**{key: bad}))
        parse_scene(mutated(**{key: legal}))  # the nearest legal value loads

    def test_grasp_inset_must_leave_room_on_the_handle(self):
        tool = default_scene().problem().tool
        half = float(np.linalg.norm(tool.handle_b - tool.handle_a)) / 2.0
        for bad in (5.0, half):
            with pytest.raises(ValidationError, match="grasp_inset_m"):
                parse_scene(mutated(planner__grasp_inset_m=bad))
        widest = float(np.nextafter(half, 0.0))
        sc = parse_scene(mutated(planner__grasp_inset_m=widest))
        opts = sc.options
        assert sample_grasps(sc.base.tool, opts.axial_samples, opts.roll_samples,
                             opts.grasp_inset).axial.size

    @pytest.mark.parametrize("bad", [-0.2, 0.0])
    def test_palm_standoff_must_be_positive(self, bad):
        with pytest.raises(ValidationError,
                           match=r"robot\.palm_standoff_m: must be positive"):
            parse_scene(mutated(robot__palm_standoff_m=bad))
        sc = parse_scene(mutated(robot__palm_standoff_m=1e-6))
        assert sc.base.world.link_spec.palm_setback == 1e-6

    def test_cable_is_a_known_exclusion_name(self):
        # Excluding the cable against a link removes that pair from every
        # clearance query that attaches the cable.
        doc = yaml.safe_load(default_text())
        doc["collision_exclude"] += [["cable", "tool/head"], ["cable", "left/link3"]]
        base = parse_scene(yaml.safe_dump(doc)).base
        _, radii, names = base.tool.shape_segments()
        pairs = _pair_table(base.world, names + [CABLE],
                            [*radii, base.balancer.cable_radius]).pair_names
        assert ("left/link2", CABLE) in pairs
        assert ("left/link3", CABLE) not in pairs
