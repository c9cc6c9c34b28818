import re
from pathlib import Path

import numpy as np
import pytest
from helpers import QUICK, make_problem
from oracles import row_by_row_parse_plan_csv

from tetherplan.plan_io import (
    PLAN_HEADER,
    TORQUE_HEADER,
    format_holding,
    parse_holding,
    parse_plan_csv,
    plan_csv,
    read_plan_csv,
    torque_csv,
    write_plan_csv,
)
from tetherplan.planner import plan
from tetherplan.torque import trace_plan

# Stored plans of the default sweep, read only.
AUDIT_PLANS = Path(__file__).parents[1] / "perfbench" / "audit_plans"


@pytest.fixture(scope="module")
def solved():
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    result = plan(problem, constrained=True, options=QUICK)
    assert result.plan is not None
    return problem, result.plan


def _line_of(error: ValueError) -> str | None:
    found = re.match(r"line \d+:", str(error))
    return found.group() if found else None


def _rejected_on_one_line(text: str, match: str) -> None:
    """parse_plan_csv rejects text, and the row-by-row oracle rejects it
    at the same line."""
    with pytest.raises(ValueError, match=match) as fast:
        parse_plan_csv(text)
    with pytest.raises(ValueError, match=match) as oracle:
        row_by_row_parse_plan_csv(text)
    assert _line_of(fast.value) == _line_of(oracle.value)


class TestHoldingFormat:
    def test_round_trip(self):
        for ids, text in (((-1, -1), ""), ((3, -1), "left:3"), ((-1, 41), "right:41"),
                          ((3, 41), "left:3+right:41")):
            assert format_holding(ids) == text
            assert parse_holding(text) == ids
        assert parse_holding("right:41+left:3") == (3, 41)

    def test_malformed_entries_rejected(self):
        for text in ("left", "left:", "up:3", "left:x", "left:3+r", "left:\u00b2"):
            with pytest.raises(ValueError, match="malformed holding entry"):
                parse_holding(text)

    def test_an_arm_named_twice_is_rejected(self):
        for text in ("left:3+left:5", "right:1+left:2+right:1"):
            with pytest.raises(ValueError, match="twice"):
                parse_holding(text)


class TestPlanRoundTrip:
    def test_full_fidelity(self, solved):
        _, motion = solved
        back = parse_plan_csv(plan_csv(motion))
        assert back.mode == motion.mode
        assert back.edge_kinds == motion.edge_kinds
        assert back.n_edges == motion.n_edges
        assert back.grasp.tobytes() == motion.grasp.tobytes()
        assert back.joint_distance == pytest.approx(motion.joint_distance)
        np.testing.assert_allclose(back.q_left, motion.q_left, atol=1e-7)
        np.testing.assert_allclose(back.q_right, motion.q_right, atol=1e-7)
        np.testing.assert_allclose(back.tool_rot, motion.tool_rot, atol=1e-7)
        np.testing.assert_allclose(back.tool_t, motion.tool_t, atol=1e-7)
        np.testing.assert_allclose(back.theta, motion.theta, atol=1e-7)
        np.testing.assert_allclose(back.clearance, motion.clearance,
                                   atol=1e-7)

    def test_file_round_trip(self, solved, tmp_path):
        _, motion = solved
        path = tmp_path / "plan.csv"
        write_plan_csv(path, motion)
        back = read_plan_csv(path)
        assert back.n_waypoints == motion.n_waypoints

    def test_header_line_present(self, solved):
        _, motion = solved
        lines = plan_csv(motion).splitlines()
        assert lines[0] == f"# mode: {motion.mode}"
        assert ",".join(PLAN_HEADER) in lines
        assert len(lines) == 4 + motion.n_waypoints


class TestParserMatchesTheRowByRowOracle:
    """parse_plan_csv converts whole arrays; the oracle converts each
    row.  Every array is equal byte for byte, tool_rot included: both
    sum the quaternion norm elementwise in the same order."""

    @staticmethod
    def assert_same_plan(text):
        fast, oracle = parse_plan_csv(text), row_by_row_parse_plan_csv(text)
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "grasp", "theta",
                     "clearance"):
            assert getattr(fast, name).dtype == getattr(oracle, name).dtype, name
            assert getattr(fast, name).shape == getattr(oracle, name).shape, name
            assert getattr(fast, name).tobytes() == getattr(oracle, name).tobytes(), name
        for name in ("mode", "edge_kinds", "n_edges", "joint_distance"):
            assert getattr(fast, name) == getattr(oracle, name), name

    def test_stored_plans(self):
        # Written back, each plan spells its holding column as the file
        # does, the left arm first.  Only that column is compared: the
        # quaternions' last digits differ in most of the files.
        paths = sorted(AUDIT_PLANS.glob("r*c*_*.csv"))
        assert len(paths) == 30
        holding = PLAN_HEADER.index("holding")
        for path in paths:
            text = path.read_text(encoding="utf-8")
            self.assert_same_plan(text)
            column = [[row.split(",")[holding] for row in t.splitlines()[4:]]
                      for t in (text, plan_csv(parse_plan_csv(text)))]
            assert column[1] == column[0], path.name

    def test_round_tripped_plan(self, solved):
        _, motion = solved
        self.assert_same_plan(plan_csv(motion))


class TestPlanParseErrors:
    def test_a_file_that_is_not_utf8_is_rejected_by_its_path(self, solved, tmp_path):
        _, motion = solved
        path = tmp_path / "latin1.csv"
        path.write_bytes(plan_csv(motion).replace("# mode:", "# mod\xe9:", 1)
                         .encode("latin-1"))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: 'utf-8' codec"):
            read_plan_csv(path)

    def test_a_broken_header_is_rejected_by_its_path(self, solved, tmp_path):
        _, motion = solved
        path = tmp_path / "broken.csv"
        path.write_text(plan_csv(motion).replace("waypoint,", "wp,", 1))
        with pytest.raises(ValueError) as error:
            read_plan_csv(path)
        assert str(error.value) == f"{path}: line 4: unexpected plan CSV header"

    def test_missing_preamble(self, solved):
        _, motion = solved
        text = "\n".join(line for line in plan_csv(motion).splitlines()
                         if not line.startswith("#"))
        _rejected_on_one_line(text, "preamble")

    def test_unexpected_header(self):
        _rejected_on_one_line("# mode: constrained\n"
                              "# edge_kinds: approach\n"
                              "# joint_distance_rad: 1\n"
                              "a,b,c\n", "header")

    def test_wrong_field_count(self, solved):
        _, motion = solved
        text = plan_csv(motion) + "1,2,3\n"
        _rejected_on_one_line(text, "fields")

    def test_no_rows(self):
        _rejected_on_one_line("# mode: constrained\n", "no waypoint rows")

    @staticmethod
    def _edit_waypoint_1(motion, **values):
        # Three preamble lines and the header put waypoint 1 on line 6.
        lines = plan_csv(motion).splitlines()
        fields = lines[5].split(",")
        assert fields[0] == "1"
        for column, value in values.items():
            fields[PLAN_HEADER.index(column)] = value
        lines[5] = ",".join(fields)
        return "\n".join(lines)

    @pytest.mark.parametrize("column, value", [
        *((c, v) for c in ("ql1", "qr6", "tool_qw", "tool_qz", "tool_x", "tool_z")
          for v in ("nan", "inf", "-inf", "abc")),
        ("theta_rad", "abc"), ("min_clearance_m", "1.2.3"),
        ("joint_distance_rad", "abc")])
    def test_non_finite_field_names_its_line(self, solved, column, value):
        # A non-numeric field names its line like a non-finite one; the
        # joint distance is the third preamble line.
        _, motion = solved
        if column == "joint_distance_rad":
            lines = plan_csv(motion).splitlines()
            lines[2] = f"# {column}: {value}"
            text, line = "\n".join(lines), 3
        else:
            text, line = self._edit_waypoint_1(motion, **{column: value}), 6
        _rejected_on_one_line(text, f"line {line}:")

    @pytest.mark.parametrize("line, key, value, bad", [
        (1, "mode", "sideways", "sideways"),
        (2, "edge_kinds", "teleport,approach,transfer,handover,approach",
         "teleport")])
    def test_unknown_mode_or_edge_kind_is_rejected(self, solved, line, key,
                                                   value, bad):
        _, motion = solved
        lines = plan_csv(motion).splitlines()
        lines[line - 1] = f"# {key}: {value}"
        _rejected_on_one_line("\n".join(lines),
                              f"line {line}: {key}: '{bad}' is not one of")

    def test_repeated_preamble_key_names_both_lines(self, solved):
        # The plan is constrained; a second mode line must not win.
        _, motion = solved
        text = "# mode: unconstrained\n" + plan_csv(motion)
        _rejected_on_one_line(text, "line 2: '# mode:' repeats line 1")

    @pytest.mark.parametrize("edit", ["key_moved_to_the_end", "note_between_rows"])
    def test_preamble_line_after_the_header_names_its_line(self, solved, edit):
        # The third preamble line moves past the last waypoint, or a
        # note goes in on line 6, between waypoints 0 and 1.
        _, motion = solved
        lines = plan_csv(motion).splitlines()
        if edit == "key_moved_to_the_end":
            lines.append(lines.pop(2))
            line = len(lines)
        else:
            lines.insert(5, "# note: hello")
            line = 6
        _rejected_on_one_line("\n".join(lines),
                              f"line {line}: preamble line after the header")

    @pytest.mark.parametrize("holding, message", [
        ("left:x", "malformed"), ("left:\u00b2", "malformed"),
        ("left:3+left:5", "twice"),
        ("left:9999999999999999999999999", "does not fit int64")])
    def test_bad_holding_names_its_line(self, solved, holding, message):
        _, motion = solved
        _rejected_on_one_line(self._edit_waypoint_1(motion, holding=holding),
                              f"line 6: .*{message}")

    @pytest.mark.parametrize("edit", ["swap", "delete"])
    def test_out_of_sequence_waypoint_names_its_line(self, solved, edit):
        # Waypoints 2 and 3 sit on lines 7 and 8; either edit puts
        # waypoint 3 first.
        _, motion = solved
        lines = plan_csv(motion).splitlines()
        if edit == "swap":
            lines[6], lines[7] = lines[7], lines[6]
        else:
            del lines[6]
        _rejected_on_one_line("\n".join(lines), "line 7: waypoint '3', expected 2")

    def test_zero_quaternion_names_its_line(self, solved):
        _, motion = solved
        zero = {c: "0" for c in ("tool_qw", "tool_qx", "tool_qy", "tool_qz")}
        _rejected_on_one_line(self._edit_waypoint_1(motion, **zero), "line 6")


class TestPlanParseParity:
    """The parser converts every numeric field in one loadtxt call and
    redoes them with float() when that call raises; either way it
    agrees with the row-by-row oracle."""

    @pytest.mark.parametrize("column, field", [("theta_rad", "theta"),
                                               ("min_clearance_m", "clearance")])
    @pytest.mark.parametrize("value", ["1_000", " 1.5 ", "Infinity", "+1e-3"])
    def test_spellings_float_takes_parse_as_the_oracle(self, solved, column,
                                                       field, value):
        # loadtxt rejects 1_000, which float() takes.
        _, motion = solved
        text = TestPlanParseErrors._edit_waypoint_1(motion, **{column: value})
        got, want = parse_plan_csv(text), row_by_row_parse_plan_csv(text)
        for name in ("q_left", "q_right", "tool_rot", "tool_t", "theta",
                     "clearance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.grasp.tobytes() == want.grasp.tobytes()
        assert getattr(got, field)[1] == float(value)

    @pytest.mark.parametrize("at", [2, 23])
    def test_a_24th_field_names_its_line(self, solved, at):
        # loadtxt would read the selected columns of the shifted row and
        # drop the rest; inserted before the holding field, the extra
        # field leaves the three last fields where they were.
        _, motion = solved
        lines = plan_csv(motion).splitlines()
        fields = lines[5].split(",")
        fields.insert(at, "0")
        lines[5] = ",".join(fields)
        _rejected_on_one_line("\n".join(lines), "line 6: expected 23 fields, got 24")

    def test_a_non_numeric_joint_after_a_fallback_spelling_names_its_line(
            self, solved):
        # 1_000 on waypoint 1 sends every row through float(); the last
        # row's joint field still fails there, on its own line.
        _, motion = solved
        lines = TestPlanParseErrors._edit_waypoint_1(
            motion, theta_rad="1_000").splitlines()
        fields = lines[-1].split(",")
        fields[PLAN_HEADER.index("ql3")] = "1_000x"
        lines[-1] = ",".join(fields)
        _rejected_on_one_line("\n".join(lines), f"line {len(lines)}:")


class TestTorqueCsv:
    def test_shape_and_magnitude(self, solved):
        problem, motion = solved
        trace = trace_plan(motion, problem.robot, problem.balancer,
                           problem.tool)
        lines = torque_csv(trace).strip().splitlines()
        assert lines[0] == ",".join(TORQUE_HEADER)
        assert len(lines) == 1 + len(trace.entries)
        first = lines[1].split(",")
        taus = [abs(float(v)) for v in first[2:8]]
        assert float(first[8]) == pytest.approx(max(taus))
