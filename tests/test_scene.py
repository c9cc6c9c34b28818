import math

import numpy as np
import pytest
import yaml
from importlib import resources

from tetherplan.cable import bend_angle
from tetherplan.collision import robot_in_collision
from tetherplan.geometry import rot_y
from tetherplan.scene import (
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


class TestDefaultScene:
    def test_loads_and_hangs_straight(self):
        sc = default_scene()
        assert sc.name == "default"
        assert bend_angle(sc.start_pose, sc.balancer, sc.tool) < 1e-6

    def test_grid_dimensions(self):
        sc = default_scene()
        assert len(sc.pitch_rows) == 8
        assert len(sc.roll_cols) == 5
        assert sc.pitch_rows[0] == 0.0
        assert math.isclose(sc.pitch_rows[-1], math.pi / 2)
        assert math.isclose(sc.roll_cols[0], math.radians(-20.0))

    def test_home_configuration_is_collision_free(self):
        sc = default_scene()
        rep = robot_in_collision(sc.world, sc.robot, sc.home_left, sc.home_right)
        assert not rep.pairs

    def test_angles_are_radians_internally(self):
        sc = default_scene()
        assert math.isclose(sc.constraint.theta_max, math.radians(95.0))
        assert sc.options.interp_step < 0.1  # 2.9 degrees, not 2.9 radians
        assert np.all(np.abs(sc.home_left) < 2 * math.pi)

    def test_describe_mentions_effective_settings(self):
        text = default_scene().describe()
        assert "theta_max_deg: 95" in text
        assert "ik_seed: 0" in text

    def test_load_scene_from_file(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(default_text())
        sc = load_scene(str(path))
        assert sc.name == "default"


class TestCellProblems:
    def test_baseline_problem_matches_scene(self):
        sc = default_scene()
        p = sc.problem()
        assert np.array_equal(p.start_pose.r, sc.start_pose.r)
        assert np.array_equal(p.goal_pose.t, sc.goal_pose.t)

    def test_pitch_turns_start_in_tool_frame(self):
        sc = default_scene()
        pitch = math.radians(30.0)
        p = sc.problem(pitch=pitch)
        assert np.allclose(p.start_pose.r, sc.start_pose.r @ rot_y(pitch))
        assert np.array_equal(p.start_pose.t, sc.start_pose.t)
        assert np.array_equal(p.goal_pose.r, sc.goal_pose.r)

    def test_roll_turns_goal_only(self):
        sc = default_scene()
        roll = math.radians(-20.0)
        p = sc.problem(roll=roll)
        assert np.array_equal(p.start_pose.r, sc.start_pose.r)
        assert not np.array_equal(p.goal_pose.r, sc.goal_pose.r)

    def test_pitched_start_bend_matches_planar_trig(self):
        # Pitching the start tilts the tool axis by the pitch and also
        # swings the connector sideways, tilting the cable line a bit
        # further.  In the pitch plane, with the anchor a height h above
        # the tool origin and connector offset d along the tool axis:
        #   cable u = (-d sin p, h - d cos p), tool axis v = (sin p, cos p).
        sc = default_scene()
        h = sc.balancer.anchor[2] - sc.start_pose.t[2]
        d = sc.tool.connector_point[2]
        for deg in (10.0, 45.0, 75.0, 90.0):
            p = math.radians(deg)
            u = np.array([-d * math.sin(p), h - d * math.cos(p)])
            v = np.array([math.sin(p), math.cos(p)])
            expected = math.acos(u @ v / np.linalg.norm(u))
            cell = sc.problem(pitch=p)
            theta = bend_angle(cell.start_pose, sc.balancer, sc.tool)
            assert math.isclose(theta, expected, abs_tol=1e-9)
            assert theta > p  # the cable tilt always adds to the pitch


class TestParseErrors:
    def test_invalid_yaml_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_scene("robot: [unclosed\n", source="broken.yaml")

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

    def test_unknown_exclusion_name_rejected(self):
        doc = yaml.safe_load(default_text())
        doc["collision_exclude"].append(["left/link4", "left/link99"])
        with pytest.raises(ValidationError, match="link99"):
            parse_scene(yaml.safe_dump(doc))

    @pytest.mark.parametrize("key, bad, least", [
        ("planner__ik__restarts", -2, 1),
        ("planner__ik__restarts", 0, 1),
        ("planner__ik__max_iters", -3, 0),
        ("planner__ik__seed", -1, 0),
        ("planner__ik__pos_tol_m", -1.0, 1e-9),
        ("planner__ik__pos_tol_m", 0.0, 1e-9),
        ("planner__ik__ori_tol_rad", 0.0, 1e-9),
        ("planner__max_edges", -1, 0),
    ])
    def test_out_of_range_planner_option_rejected(self, key, bad, least):
        with pytest.raises(ValidationError, match=key.rsplit("__", 1)[1]):
            parse_scene(mutated(**{key: bad}))
        parse_scene(mutated(**{key: least}))  # the least legal value loads

    def test_cable_is_a_known_exclusion_name(self):
        doc = yaml.safe_load(default_text())
        doc["collision_exclude"].append(["cable", "tool/head"])
        parse_scene(yaml.safe_dump(doc))  # does not raise
