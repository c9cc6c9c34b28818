import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import HOME_LEFT, HOME_RIGHT, QUICK, make_problem, scene_from

from tetherplan.bench import (
    CSV_HEADER,
    Outcome,
    Recheck,
    SweepCell,
    SweepReport,
    cells_csv,
    classify,
    recheck_plan,
    render_grid,
    sweep,
)
from tetherplan.cable import BendConstraint
from tetherplan.collision import arm_link_segments
from tetherplan.planner import MotionPlan, PlannerStats, PlanResult, plan
from tetherplan.scene import default_scene

GOLDEN_SWEEP = Path(__file__).parent / "data" / "default_sweep.csv"
# Columns of cells_csv compared exactly; every other column is a float
# compared to 1e-9 relative.
EXACT_COLUMNS = ("row", "col", "mode", "outcome", "symbol",
                 "first_violation_waypoint", "planner_failure", "n_edges",
                 "n_waypoints")


def fake_recheck(**kw):
    base = dict(theta_max=0.5, bend_waypoint=None, cable_waypoint=None,
                collision_waypoint=None, min_clearance=0.02)
    base.update(kw)
    return Recheck(**base)


def fake_result(found=True, failure=None):
    return PlanResult(plan=object() if found else None, failure=failure,
                      stats=PlannerStats())


class TestClassify:
    def test_no_plan(self):
        out = classify(fake_result(found=False, failure="exhausted"), None)
        assert out.label == "no_plan"
        assert out.symbol == "F"
        assert out.failure == "exhausted"
        assert out.theta_max_deg is None

    def test_clean_success(self):
        out = classify(fake_result(), fake_recheck())
        assert out.label == "success"
        assert out.symbol == "o"
        assert out.theta_max_deg == pytest.approx(math.degrees(0.5))
        assert out.first_violation is None

    def test_bend_violation(self):
        out = classify(fake_result(), fake_recheck(bend_waypoint=3))
        assert out.label == "bend_violation"
        assert out.symbol == "x"
        assert out.first_violation == 3

    def test_cable_collision(self):
        out = classify(fake_result(), fake_recheck(cable_waypoint=2))
        assert out.label == "cable_collision"
        assert out.symbol == "*"
        assert out.first_violation == 2

    def test_bend_outranks_cable_regardless_of_order(self):
        out = classify(fake_result(),
                       fake_recheck(bend_waypoint=7, cable_waypoint=2))
        assert out.label == "bend_violation"
        assert out.first_violation == 7

    def test_plan_without_recheck_rejected(self):
        with pytest.raises(ValueError):
            classify(fake_result(), None)

    def test_environment_collision_is_a_hard_error(self):
        with pytest.raises(RuntimeError, match="environment collision"):
            classify(fake_result(), fake_recheck(collision_waypoint=1))


@pytest.fixture(scope="module")
def solved():
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    result = plan(problem, constrained=False, options=QUICK)
    assert result.success
    return problem, result.plan


class TestRecheckPlan:
    def test_clean_plan_audits_clean(self, solved):
        problem, motion = solved
        rc = recheck_plan(motion, problem)
        assert rc.clean
        assert rc.theta_max == pytest.approx(float(motion.theta.max()))
        # The audit adds the cable to the pre-grasp window, so its
        # minimum clearance can only be tighter than the planner's
        # cable-free record.
        assert 0.0 < rc.min_clearance <= float(motion.clearance.min()) + 1e-12

    def test_tight_limit_flags_first_bend_waypoint(self, solved):
        problem, motion = solved
        limit = 0.5 * float(motion.theta.max())
        tight = replace(problem, constraint=BendConstraint(theta_max=limit))
        rc = recheck_plan(motion, tight)
        expected = int(np.nonzero(motion.theta >= limit)[0][0])
        assert rc.bend_waypoint == expected
        out = classify(PlanResult(motion, None, PlannerStats()), rc)
        assert out.label == "bend_violation"
        assert out.first_violation == expected

    @staticmethod
    def _cable_crossing_setup():
        """Problem plus a config/tool-pose pair that puts the hanging
        cable straight through the swung-out arm's upper link while the
        home config stays clear of it."""
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        q_probe = HOME_LEFT + np.array([1.5, 0, 0, 0, 0, 0])
        spec = problem.world.link_specs["left"]
        crossing = arm_link_segments(problem.robot.left, spec,
                                     q_probe[None])[0][1].mean(axis=0)
        # Hang the tool so the cable's midpoint-to-anchor line passes
        # through the crossing point, with the tool itself far below.
        connector = crossing - 0.5 * (problem.balancer.anchor - crossing)
        tool_t = connector - np.asarray(problem.tool.connector_point)
        return problem, q_probe, tool_t

    def _fabricate(self, problem, tool_t, q_rows, holding):
        w = len(q_rows)
        return MotionPlan(
            mode="unconstrained",
            q_left=np.stack(q_rows),
            q_right=np.tile(HOME_RIGHT, (w, 1)),
            tool_rot=np.tile(np.eye(3), (w, 1, 1)),
            tool_t=np.tile(tool_t, (w, 1)),
            holding=holding,
            theta=np.zeros(w),
            clearance=np.zeros(w),
            edge_kinds=("approach",),
            n_edges=1,
            joint_distance=0.0,
        )

    def test_arm_through_cable_flags_cable_contact(self):
        problem, q_probe, tool_t = self._cable_crossing_setup()
        motion = self._fabricate(problem, tool_t, [HOME_LEFT, q_probe],
                                 ((), ()))
        rc = recheck_plan(motion, problem)
        assert rc.cable_waypoint == 1
        assert rc.bend_waypoint is None
        assert rc.collision_waypoint is None
        assert rc.min_clearance < 0.0
        out = classify(PlanResult(motion, None, PlannerStats()), rc)
        assert out.label == "cable_collision"
        assert out.first_violation == 1

    def test_cable_checked_only_before_the_grasp(self):
        # The same cable-crossing configuration after the tool is in
        # hand must not count: the hanging-cable window has closed.
        problem, q_probe, tool_t = self._cable_crossing_setup()
        motion = self._fabricate(problem, tool_t, [HOME_LEFT, q_probe],
                                 ((("right", 0),), (("right", 0),)))
        rc = recheck_plan(motion, problem)
        assert rc.cable_waypoint is None
        assert rc.clean


@pytest.fixture(scope="module")
def benign_scene():
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    return scene_from(problem)


@pytest.fixture(scope="module")
def report(benign_scene):
    return sweep(benign_scene)


class TestSweep:
    def test_both_modes_succeed(self, report):
        assert len(report.cells) == 2
        assert {c.mode for c in report.cells} == {"constrained",
                                                  "unconstrained"}
        assert all(c.outcome.label == "success" for c in report.cells)
        assert report.grid("constrained") == [["o"]]
        assert report.grid("unconstrained") == [["o"]]
        assert report.success_rate("constrained") == 1.0
        assert report.outcome_counts("unconstrained")["success"] == 1

    def test_cells_carry_plan_facts(self, report):
        cell = report.cell(0, 0, "constrained")
        assert cell.n_edges >= 2
        assert cell.n_waypoints > cell.n_edges
        assert cell.joint_distance > 0.0
        assert cell.peak_torque
        assert all(v > 0.0 for v in cell.peak_torque.values())
        assert cell.recheck.clean

    def test_sweep_is_a_pure_function_of_the_scene(self, benign_scene, report):
        # No wall-clock value reaches the report, so a second sweep of
        # the same scene compares equal field for field.
        assert sweep(benign_scene) == report

    def test_torque_summary_covers_the_shared_cell(self, report):
        ts = report.torque_summary()
        assert ts.n_cells == 1
        assert ts.mean_reduction_pct is not None

    @staticmethod
    def _fake_cell(col, mode, label, peak):
        outcome = Outcome(label=label, theta_max_deg=80.0,
                          first_violation=0 if label != "success" else None,
                          failure="exhausted" if label == "no_plan" else None)
        return SweepCell(row=0, col=col, pitch=0.0, roll=0.0, mode=mode,
                         outcome=outcome, recheck=None, n_edges=4,
                         n_waypoints=9, joint_distance=1.0, peak_torque=peak)

    def test_torque_summary_counts_planned_violations(self):
        # A cell whose unconstrained plan violates the bend limit still
        # has a plan, so it contributes to the torque comparison; a cell
        # with no plan on either side cannot.
        cells = (
            self._fake_cell(0, "constrained", "success",
                            {"left": 50.0, "right": 40.0}),
            self._fake_cell(0, "unconstrained", "bend_violation",
                            {"left": 100.0, "right": 50.0}),
            self._fake_cell(1, "constrained", "no_plan", {}),
            self._fake_cell(1, "unconstrained", "success",
                            {"left": 10.0, "right": 10.0}),
        )
        report = SweepReport(scene_name="fake", pitch_rows=(0.0,),
                             roll_cols=(0.0, 0.1), cells=cells)
        ts = report.torque_summary()
        assert ts.n_cells == 1
        assert ts.mean_reduction_pct == pytest.approx((50.0 + 20.0) / 2)
        assert ts.per_arm_mean_pct == {"left": pytest.approx(50.0),
                                       "right": pytest.approx(20.0)}

    def test_csv_shape_and_content(self, report):
        text = cells_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        con = lines[1].split(",")
        assert con[4] == "constrained"
        assert con[5] == "success"
        assert con[6] == "o"
        assert float(con[7]) > 0.0  # recomputed peak bend, degrees

    def test_render_mentions_rates_and_legend(self, report):
        text = render_grid(report)
        assert "constrained" in text and "unconstrained" in text
        assert "success rate: 100.0%" in text
        assert "legend: o=success" in text

    def test_bend_row_fails_constrained_and_marks_unconstrained(self):
        problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
        tight = replace(problem, constraint=BendConstraint(theta_max=0.3))
        scene = scene_from(tight, pitch_rows=(0.6,), roll_cols=(0.0,))
        report = sweep(scene)
        con = report.cell(0, 0, "constrained")
        unc = report.cell(0, 0, "unconstrained")
        # Pitching the start tilts the cable past the 0.3 rad limit, so
        # the constrained planner refuses while the unconstrained one
        # delivers a plan that the audit marks as a bend violation.
        assert con.outcome.label == "no_plan"
        assert unc.outcome.label == "bend_violation"
        assert unc.outcome.first_violation == 0
        assert report.grid("constrained") == [["F"]]
        assert report.grid("unconstrained") == [["x"]]

    def test_empty_report_renders_na(self):
        empty = SweepReport(scene_name="void", pitch_rows=(), roll_cols=(),
                            cells=())
        assert empty.success_rate("constrained") is None
        ts = empty.torque_summary()
        assert ts.n_cells == 0
        assert ts.mean_reduction_pct is None
        text = render_grid(empty)
        assert "n/a" in text
        assert cells_csv(empty).strip() == CSV_HEADER


def test_default_sweep_matches_golden_csv():
    """The default scene's sweep against the committed cells_csv.

    Pins every cell's outcome, symbol, counts, peak torques and proven
    minimum clearance, so a change that moves any of them, a clearance
    that errs toward clear included, shows here.
    """
    got = list(csv.DictReader(io.StringIO(cells_csv(sweep(default_scene())))))
    want = list(csv.DictReader(io.StringIO(GOLDEN_SWEEP.read_text())))
    assert [r.keys() for r in got] == [r.keys() for r in want]
    assert len(got) == 80
    for g, w in zip(got, want):
        for key in w:
            if key in EXACT_COLUMNS or w[key] == "" or g[key] == "":
                assert g[key] == w[key], (w["row"], w["col"], w["mode"], key)
            else:
                assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9), (
                    w["row"], w["col"], w["mode"], key)
