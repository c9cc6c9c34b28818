import numpy as np
import pytest
from helpers import QUICK, make_problem

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


@pytest.fixture(scope="module")
def solved():
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    result = plan(problem, constrained=True, options=QUICK)
    assert result.success
    return problem, result.plan


class TestHoldingFormat:
    def test_round_trip(self):
        for holding in ((), (("left", 3),), (("left", 3), ("right", 41))):
            assert parse_holding(format_holding(holding)) == holding

    def test_malformed_entries_rejected(self):
        for text in ("left", "left:", "up:3", "left:x", "left:3+r"):
            with pytest.raises(ValueError):
                parse_holding(text)


class TestPlanRoundTrip:
    def test_full_fidelity(self, solved):
        _, motion = solved
        back = parse_plan_csv(plan_csv(motion))
        assert back.mode == motion.mode
        assert back.edge_kinds == motion.edge_kinds
        assert back.n_edges == motion.n_edges
        assert back.holding == motion.holding
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


class TestPlanParseErrors:
    def test_missing_preamble(self, solved):
        _, motion = solved
        text = "\n".join(line for line in plan_csv(motion).splitlines()
                         if not line.startswith("#"))
        with pytest.raises(ValueError, match="preamble"):
            parse_plan_csv(text)

    def test_unexpected_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_plan_csv("# mode: constrained\n"
                           "# edge_kinds: approach\n"
                           "# joint_distance_rad: 1\n"
                           "a,b,c\n")

    def test_wrong_field_count(self, solved):
        _, motion = solved
        text = plan_csv(motion) + "1,2,3\n"
        with pytest.raises(ValueError, match="fields"):
            parse_plan_csv(text)

    def test_no_rows(self):
        with pytest.raises(ValueError, match="no waypoint rows"):
            parse_plan_csv("# mode: constrained\n")

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["ql1", "qr6", "tool_qw", "tool_qz",
                                        "tool_x", "tool_z"])
    def test_non_finite_field_names_its_line(self, solved, column, value):
        _, motion = solved
        with pytest.raises(ValueError, match="line 6"):
            parse_plan_csv(self._edit_waypoint_1(motion, **{column: value}))

    def test_zero_quaternion_names_its_line(self, solved):
        _, motion = solved
        zero = {c: "0" for c in ("tool_qw", "tool_qx", "tool_qy", "tool_qz")}
        with pytest.raises(ValueError, match="line 6"):
            parse_plan_csv(self._edit_waypoint_1(motion, **zero))


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
