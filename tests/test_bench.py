import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import HOME_LEFT, HOME_RIGHT, QUICK, make_problem, moved_scene, \
    scene_from
from oracles import dense_pair_clearances, rot_axis_angle

import tetherplan
from tetherplan import bench
from tetherplan.bench import (
    CSV_HEADER,
    Outcome,
    Recheck,
    SweepCell,
    SweepReport,
    cells_csv,
    classify,
    _GRIP_TOL,
    recheck_plan,
    render_grid,
    sweep,
)
from tetherplan.cable import CABLE, BendConstraint
from tetherplan.collision import Box, CollisionWorld, arm_link_segments
from tetherplan.geometry import Pose, rot_z
from tetherplan.plan_io import read_plan_csv
from tetherplan.planner import MotionPlan, PlannerStats, \
    PlanResult, plan
from tetherplan.scene import default_scene
from tetherplan.torque import trace_plan

GOLDEN_SWEEP = Path(__file__).parent / "data" / "default_sweep.csv"
# Stored plans of the default sweep, named r<row>c<col>_<mode>.csv.
AUDIT_PLANS = Path(__file__).parents[1] / "perfbench" / "audit_plans"
# Columns of cells_csv compared exactly; every other column is a float
# compared to 1e-9 relative.
EXACT_COLUMNS = ("row", "col", "mode", "outcome", "symbol",
                 "first_violation_waypoint", "planner_failure", "n_edges",
                 "n_waypoints")


def fake_recheck(**kw):
    base = dict(theta_max=0.5, bend_waypoint=None, cable_waypoint=None,
                collision_waypoint=None, grip_waypoint=None,
                min_clearance=0.02)
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

    def test_lost_grip_is_a_hard_error(self):
        rc = fake_recheck(grip_waypoint=4)
        assert not rc.clean
        with pytest.raises(RuntimeError, match="away from its gripper"):
            classify(fake_result(), rc)


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
        # The audit carries the cable on every waypoint, so its minimum
        # clearance can only be tighter than the planner's cable-free
        # record.
        assert 0.0 < rc.min_clearance <= float(motion.clearance.min()) + 1e-12

    @pytest.mark.parametrize("shift, flagged", [(0.5 * _GRIP_TOL, False),
                                                 (2.0 * _GRIP_TOL, True)])
    def test_tool_leaving_the_grip_mid_hold_is_flagged(self, solved, shift,
                                                        flagged):
        problem, motion = solved
        held = np.nonzero([bool(h) for h in motion.holding])[0]
        k = int(held[len(held) // 2])
        assert motion.holding[k - 1] == motion.holding[k]  # inside one hold
        tool_t = motion.tool_t.copy()
        tool_t[k:] += [0.0, shift, 0.0]
        rc = recheck_plan(replace(motion, tool_t=tool_t), problem)
        assert rc.grip_waypoint == (k if flagged else None)
        assert rc.clean is not flagged

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
        spec = problem.world.link_spec
        crossing = arm_link_segments(problem.robot, spec, q_probe,
                                     HOME_RIGHT)[0][0][1].mean(axis=0)
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

    def test_carried_cable_through_a_link_flags_cable_contact(self):
        # The same crossing while the right arm holds the tool: the
        # carried cable is checked on every waypoint, not only until the
        # first grasp.
        problem, q_probe, tool_t = self._cable_crossing_setup()
        motion = self._fabricate(problem, tool_t, [HOME_LEFT, q_probe],
                                 ((("right", 0),), (("right", 0),)))
        rc = recheck_plan(motion, problem)
        assert (rc.cable_waypoint, rc.collision_waypoint) == (1, None)
        assert rc.grip_waypoint is None
        out = classify(PlanResult(motion, None, PlannerStats()), rc)
        assert (out.label, out.first_violation) == ("cable_collision", 1)

    def test_cable_through_a_static_box_is_cable_contact(self):
        # A shelf across the cable's path, clear of the tool and of both
        # arms at home: only the cable touches it.
        shelf = Box(Pose(np.eye(3), [0.3, 0.35, 1.0]), [0.1, 0.1, 0.02])
        bare, shelved = (make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45],
                                      statics=statics)
                         for statics in (None, {"shelf": shelf}))
        motion = self._fabricate(bare, bare.start_pose.t, [HOME_LEFT] * 2,
                                 ((), ()))
        assert recheck_plan(motion, bare).clean
        rc = recheck_plan(motion, shelved)
        assert (rc.cable_waypoint, rc.collision_waypoint) == (0, None)
        out = classify(PlanResult(motion, None, PlannerStats()), rc)
        assert (out.label, out.first_violation) == ("cable_collision", 0)


@pytest.fixture(scope="module")
def benign_scene():
    problem = make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45])
    return scene_from(problem)


@pytest.fixture(scope="module")
def report(benign_scene):
    return sweep(benign_scene)


def _audit_plans():
    """(name, default-scene problem, stored plan) of each audit plan."""
    scene = default_scene()
    for path in sorted(AUDIT_PLANS.glob("r*c*_*.csv")):
        row, col = (int(v) for v in path.stem[1:].split("_")[0].split("c"))
        problem = scene.problem(scene.pitch_rows[row], scene.roll_cols[col])
        yield path.name, problem, read_plan_csv(path)


# Parse, re-check and torque-trace every stored plan; hash the plan
# arrays, the re-check records, the torque CSVs and the peaks.
_AUDIT_DIGEST = """\
import hashlib
from pathlib import Path
from tetherplan import plan_io
from tetherplan.bench import recheck_plan
from tetherplan.scene import default_scene
from tetherplan.torque import trace_plan
scene = default_scene()
h = hashlib.sha256()
for path in sorted(Path(AUDIT_PLANS).glob("r*c*_*.csv")):
    row, col = (int(v) for v in path.stem[1:].split("_")[0].split("c"))
    problem = scene.problem(scene.pitch_rows[row], scene.roll_cols[col])
    motion = plan_io.read_plan_csv(path)
    for name in ("q_left", "q_right", "tool_rot", "tool_t", "theta", "clearance"):
        h.update(getattr(motion, name).tobytes())
    h.update(repr(recheck_plan(motion, problem)).encode())
    trace = trace_plan(motion, problem.robot, problem.balancer, problem.tool)
    h.update(plan_io.torque_csv(trace).encode())
    h.update(repr([trace.peak(arm) for arm in trace.arms()]).encode())
digest = h.hexdigest()
"""


def test_audit_does_not_depend_on_the_blas_kernel():
    # As test_fk_does_not_depend_on_the_blas_kernel: Prescott is an
    # OpenBLAS kernel without FMA, and OPENBLAS_CORETYPE only takes
    # effect in an OpenBLAS built with DYNAMIC_ARCH.
    code = f"AUDIT_PLANS = {str(AUDIT_PLANS)!r}\n" + _AUDIT_DIGEST
    src = str(Path(tetherplan.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    prescott = subprocess.run([sys.executable, "-c", code + "print(digest)"],
                              env=env, capture_output=True, text=True, check=True)
    here: dict = {}
    exec(code, here)
    assert prescott.stdout.strip() == here["digest"]


def test_recheck_runs_one_fk_and_one_clearance_call_and_trace_one_fk_call(
        monkeypatch):
    # The re-check's clearance and grip check share one FK call of both
    # arms at every row, and its clearance query is one call over every
    # row with the tool's shapes and the cable attached; the torque
    # trace makes one FK call of its own.
    _, problem, motion = next(a for a in _audit_plans()
                              if a[0] == "r0c0_constrained.csv")
    rows, clearance_calls = [], []
    chain = tetherplan.robot.fk_chain_batch
    clearances = tetherplan.bench.motion_clearances

    def counted(base_r, base_t, qs):
        rows.append(len(qs))
        return chain(base_r, base_t, qs)

    def counted_clearances(world, links, segs, radii, names):
        clearance_calls.append((len(links), segs.shape[:2], list(names)))
        return clearances(world, links, segs, radii, names)

    monkeypatch.setattr(tetherplan.robot, "fk_chain_batch", counted)
    monkeypatch.setattr(tetherplan.bench, "motion_clearances", counted_clearances)
    recheck_plan(motion, problem)
    recheck_rows, rows[:] = list(rows), []
    trace_plan(motion, problem.robot, problem.balancer, problem.tool)
    assert len(recheck_rows) == len(rows) == 1
    assert recheck_rows[0] == 2 * motion.n_waypoints
    assert rows[0] == sum(map(len, motion.holding))
    shapes = problem.tool.shape_segments()[2]
    assert clearance_calls == [(motion.n_waypoints,
                                (motion.n_waypoints, len(shapes) + 1),
                                shapes + [CABLE])]


def _with_copies(motion, rows):
    """motion with each waypoint of rows repeated right after itself."""
    order = np.sort(np.concatenate([np.arange(motion.n_waypoints), rows]))
    return replace(motion, q_left=motion.q_left[order],
                   q_right=motion.q_right[order],
                   tool_rot=motion.tool_rot[order], tool_t=motion.tool_t[order],
                   holding=tuple(motion.holding[i] for i in order),
                   theta=motion.theta[order],
                   clearance=motion.clearance[order])


@pytest.mark.parametrize("regrasp", [False, True], ids=["stored", "regrasp"])
def test_recheck_of_a_plan_with_repeated_rows(regrasp):
    # A free and a held waypoint, each followed by a copy of itself.
    # The regrasp case relabels the hold after the copies (as in
    # TestGrip), so that the grip waypoint must move past both copies.
    _, problem, motion = next(a for a in _audit_plans()
                              if a[0] == "r0c0_constrained.csv")
    free, held = 10, 39
    assert not motion.holding[free] and motion.holding[held]
    if regrasp:
        motion = replace(motion, holding=motion.holding[:40]
                         + ((("left", 5),),) * 62 + motion.holding[102:])
    copied = _with_copies(motion, [free, held])
    assert copied.n_waypoints == motion.n_waypoints + 2

    record = recheck_plan(motion, problem)
    got = recheck_plan(copied, problem)
    assert (record.grip_waypoint == 40) == regrasp
    shift = {f: None if i is None else i + (i > free) + (i > held)
             for f in ("bend_waypoint", "cable_waypoint",
                       "collision_waypoint", "grip_waypoint")
             for i in [getattr(record, f)]}
    assert got == replace(record, **shift)

    links = arm_link_segments(problem.robot, problem.world.link_spec,
                              copied.q_left, copied.q_right)[0]
    dense, table = dense_pair_clearances(
        problem.world, links, *problem.tool.bodies(
            copied.tool_rot, copied.tool_t, problem.balancer))
    assert got.min_clearance == dense.min()
    cable = [CABLE in table.pair_names[j] for j in dense.argmin(axis=1)]
    bad = np.nonzero(dense.min(axis=1) < 0.0)[0]
    assert got.cable_waypoint == next((i for i in bad if cable[i]), None)
    assert got.collision_waypoint == next((i for i in bad if not cable[i]),
                                          None)


@pytest.mark.parametrize("name, extra", [
    *((name, -1) for name in ("q_left", "q_right", "tool_rot", "tool_t",
                              "holding", "theta", "clearance")),
    ("holding", 1)], ids=lambda v: {-1: "short", 1: "long"}.get(v, v))
def test_plan_rows_must_agree(name, extra):
    # A holding cut short would leave the rows past it unaudited (the
    # grip check would miss the raised tool of TestGrip), and one entry
    # too many would fail inside the re-check.
    _, _, motion = next(a for a in _audit_plans()
                        if a[0] == "r0c0_constrained.csv")
    rows = getattr(motion, name)
    rows = rows[:extra] if extra < 0 else rows + rows[-extra:]
    with pytest.raises(ValueError, match="rows, q_left has"):
        replace(motion, **{name: rows})


class TestGrip:
    def test_stored_plans_keep_their_grip(self):
        names = []
        for name, problem, motion in _audit_plans():
            assert recheck_plan(motion, problem).grip_waypoint is None, name
            names.append(name)
        assert len(names) == 30

    def test_raised_tool_is_flagged(self):
        # Raising the tool 0.10 m on every held waypoint keeps the bend
        # and clearance checks clean; only the grip check sees it.
        _, problem, motion = next(a for a in _audit_plans()
                                  if a[0] == "r0c0_constrained.csv")
        held = np.array([bool(h) for h in motion.holding])
        assert held.sum() == 141
        tool_t = motion.tool_t.copy()
        tool_t[held] += [0.0, 0.0, 0.10]
        rc = recheck_plan(replace(motion, tool_t=tool_t), problem)
        assert rc.bend_waypoint is None and rc.collision_waypoint is None
        assert rc.grip_waypoint is not None and held[rc.grip_waypoint]
        with pytest.raises(RuntimeError, match="away from its gripper"):
            classify(PlanResult(motion, None, PlannerStats()), rc)

    def test_grasp_change_mid_hold_is_flagged(self):
        # Relabelling part of a hold with another grasp id leaves the
        # motion as it is; the label change alone breaks the hold.
        _, problem, motion = next(a for a in _audit_plans()
                                  if a[0] == "r0c0_constrained.csv")
        assert motion.holding[39:102] == ((("left", 0),),) * 63
        holding = list(motion.holding)
        holding[40:102] = [(("left", 5),)] * 62
        rc = recheck_plan(replace(motion, holding=tuple(holding)), problem)
        assert rc.grip_waypoint == 40

    def test_new_hold_after_a_release_may_change_grasp(self):
        # Releasing the tool for one waypoint ends the left arm's hold;
        # the hold that follows may use another grasp to its end.
        _, problem, motion = next(a for a in _audit_plans()
                                  if a[0] == "r0c0_constrained.csv")
        holding = motion.holding[:40] + ((),) + tuple(
            tuple(("left", 5) if e == ("left", 0) else e for e in h)
            for h in motion.holding[41:])
        rc = recheck_plan(replace(motion, holding=holding), problem)
        assert rc.grip_waypoint is None


@pytest.fixture(scope="module")
def default_cut():
    """Rows 75 and 90 deg by columns -10 and 0 deg of the default scene:
    successes, a bend violation and a failure, in both modes."""
    scene = default_scene()
    return replace(scene, pitch_rows=scene.pitch_rows[-2:],
                   roll_cols=scene.roll_cols[1:3])


def _sweep_recording(scene, monkeypatch):
    """sweep(scene), with the (motion, problem, record) of each re-check,
    the plan of each planned cell, in cell order, and how many traces
    ran."""
    rechecks, plans, traces = [], [], []

    def recording_recheck(motion, problem):
        record = real_recheck(motion, problem)
        rechecks.append((motion, problem, record))
        return record

    def recording_plan(problem, **kw):
        result = real_plan(problem, **kw)
        if result.plan is not None:
            plans.append((result.plan, problem))
        return result

    def recording_trace(motion, *bodies):
        traces.append(motion)
        return real_trace(motion, *bodies)

    real_recheck = recheck_plan
    real_plan = tetherplan.bench.plan
    real_trace = trace_plan
    monkeypatch.setattr(tetherplan.bench, "recheck_plan", recording_recheck)
    monkeypatch.setattr(tetherplan.bench, "plan", recording_plan)
    monkeypatch.setattr(tetherplan.bench, "trace_plan", recording_trace)
    return sweep(scene), rechecks, plans, len(traces)


def _plan_key(motion):
    return tuple(a.tobytes() for a in (motion.q_left, motion.q_right,
                                       motion.tool_rot, motion.tool_t)
                 ) + (motion.holding,)


class TestOneAuditPerPlan:
    """A sweep audits each cell's unconstrained plan only where it differs
    from the cell's constrained plan."""

    def test_sweep_records_equal_fresh_rechecks(self, default_cut,
                                                monkeypatch):
        report, rechecks, plans, _ = _sweep_recording(default_cut, monkeypatch)
        cells = [c for c in report.cells if c.recheck]
        assert {c.outcome.label for c in report.cells} == {
            "success", "bend_violation", "no_plan"}
        assert len(cells) == len(plans) == 6
        # Recheck equality compares every field, floats by ==.
        for cell, (motion, problem) in zip(cells, plans):
            assert recheck_plan(motion, problem) == cell.recheck
            trace = trace_plan(motion, problem.robot, problem.balancer,
                               problem.tool)
            assert cell.peak_torque == {arm: trace.peak(arm)
                                        for arm in trace.arms()}
        for motion, problem, record in rechecks:
            assert recheck_plan(motion, problem) == record

    def test_each_distinct_plan_is_audited_once(self, default_cut,
                                                monkeypatch):
        _, rechecks, plans, n_traces = _sweep_recording(default_cut, monkeypatch)
        # Both modes of a 75-deg cell return the same plan.
        distinct = {_plan_key(motion) for motion, _ in plans}
        assert len(rechecks) == n_traces == len(distinct) < len(plans)

    def test_a_cell_whose_modes_plan_differently_audits_both(self,
                                                            monkeypatch):
        """At 60 deg the unconstrained plans of pitch 45 deg by roll -10
        and 0 deg bend the cable past the limit, and the constrained
        plans take another path under it."""
        scene = default_scene()
        cut = replace(scene, pitch_rows=scene.pitch_rows[4:5],
                      roll_cols=scene.roll_cols[1:3],
                      base=replace(scene.base, constraint=BendConstraint(
                          math.radians(60.0))))
        report, rechecks, plans, n_traces = _sweep_recording(cut, monkeypatch)
        assert len(rechecks) == n_traces == len(plans) == 4
        assert [(c.outcome.symbol, c.outcome.first_violation)
                for c in report.cells] == [("o", None), ("x", 58),
                                           ("o", None), ("x", 56)]
        assert [round(c.peak_torque["right"], 2) for c in report.cells] == [
            7.92, 14.26, 8.42, 14.44]
        for cell, (motion, problem) in zip(report.cells, plans):
            assert recheck_plan(motion, problem) == cell.recheck
            trace = trace_plan(motion, problem.robot, problem.balancer,
                               problem.tool)
            assert cell.peak_torque == {arm: trace.peak(arm)
                                        for arm in trace.arms()}


class TestSweep:
    def test_both_modes_succeed(self, report):
        assert len(report.cells) == 2
        assert {c.mode for c in report.cells} == {"constrained",
                                                  "unconstrained"}
        assert all(c.outcome.label == "success" for c in report.cells)
        assert report.grid("constrained") == [["o"]]
        assert report.grid("unconstrained") == [["o"]]
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

    def test_torque_summary_reads_the_grid_whatever_the_cell_order(self):
        # The summary walks the grid in (row, col) order, so shuffling the
        # cells keeps every reduction's place in the means, bit for bit.
        # A key that appears twice is read from its first cell.
        rng = np.random.default_rng(61)
        labels = ("success", "bend_violation", "cable_collision", "no_plan")
        cells = []
        for row in range(3):
            for col in range(4):
                for mode in ("constrained", "unconstrained"):
                    if (row, col, mode) == (2, 3, "unconstrained"):
                        continue  # a cell whose other mode is missing
                    label = labels[rng.integers(4)] if mode == "unconstrained" \
                        else "success"
                    arms = ("left",) if (row, col) == (1, 1) else ("left", "right")
                    peaks = {} if label == "no_plan" else {
                        arm: float(rng.uniform(1.0, 100.0)) for arm in arms}
                    cells.append(replace(self._fake_cell(col, mode, label, peaks),
                                         row=row))
        later = [replace(c, peak_torque={arm: 2.0 * v for arm, v in
                                         c.peak_torque.items()})
                 for c in cells[:6] if c.mode == "constrained"]

        def summary(cs):
            return SweepReport(scene_name="fake", pitch_rows=(0.0, 0.1, 0.2),
                               roll_cols=(0.0, 0.1, 0.2, 0.3),
                               cells=tuple(cs)).torque_summary()

        want = summary(cells)
        assert want.n_cells > 3 and set(want.per_arm_mean_pct) == {"left", "right"}
        shuffled = [cells[k] for k in rng.permutation(len(cells))]
        assert summary(shuffled) == want
        assert summary(shuffled + later) == want
        assert summary(later + shuffled) != want

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
        ts = empty.torque_summary()
        assert ts.n_cells == 0
        assert ts.mean_reduction_pct is None
        text = render_grid(empty)
        assert "n/a" in text
        assert cells_csv(empty).strip() == CSV_HEADER

    def test_empty_grid_sweeps_to_an_empty_report(self):
        scene = scene_from(make_problem([0.3, 0.35, 0.45], [0.3, 0.1, 0.45]),
                           pitch_rows=())
        report = sweep(scene)
        assert report.cells == ()
        assert cells_csv(report).strip() == CSV_HEADER


@pytest.fixture(scope="module")
def default_report():
    return sweep(default_scene())


def test_default_sweep_matches_golden_csv(default_report):
    """The default scene's sweep against the committed cells_csv.

    Pins every cell's outcome, symbol, counts, peak torques and proven
    minimum clearance, so a change that moves any of them, a clearance
    that errs toward clear included, shows here.
    """
    got = list(csv.DictReader(io.StringIO(cells_csv(default_report))))
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


def test_a_rigid_motion_of_the_scene_moves_every_plan_with_it(monkeypatch):
    """A plan depends on the scene's geometry, not on the frame it is
    written in: moved by a rigid motion, a cut of the default sweep
    writes the same CSV, and every plan moves with the scene."""
    scene = default_scene()
    cut = replace(scene, pitch_rows=scene.pitch_rows[::7],
                  roll_cols=scene.roll_cols[::4])
    assert [round(math.degrees(v)) for v in cut.pitch_rows + cut.roll_cols] \
        == [0, 90, -20, 20]
    rot, shift = rot_axis_angle([1.0, 2.0, 3.0], math.radians(23.0)), [0.3, -0.2, 0.1]
    results = []
    run = bench.plan
    monkeypatch.setattr(bench, "plan",
                        lambda *a, **k: results.append(run(*a, **k)) or results[-1])
    here, there = sweep(cut), sweep(moved_scene(cut, rot, shift))
    assert cells_csv(there) == cells_csv(here)
    assert "".join(c.outcome.symbol for c in here.cells) == "ooooFxFx"
    for got, want in zip(results[8:], results[:8], strict=True):
        assert got.failure == want.failure and got.stats == want.stats
        if want.plan is None:
            assert got.plan is None
            continue
        g, w = got.plan, want.plan
        assert (g.holding, g.edge_kinds) == (w.holding, w.edge_kinds)
        for name in ("q_left", "q_right"):
            assert np.abs(getattr(g, name) - getattr(w, name)).max() <= 1e-12
        assert np.abs(g.tool_rot - rot @ w.tool_rot).max() <= 1e-12
        assert np.abs(g.tool_t - (w.tool_t @ rot.T + shift)).max() <= 1e-12



def test_an_obstacle_far_from_every_plan_changes_no_cell():
    """A 0.1 m box turned 30 deg about z at (3, 3, 3) m, out of reach of
    the arms, the tool and its cable, leaves a cut of the default sweep's
    CSV byte-identical.  It is listed before the table, so the table's
    box index, pair columns and bounds all shift."""
    scene = default_scene()
    cut = replace(scene, pitch_rows=scene.pitch_rows[::7],
                  roll_cols=scene.roll_cols[::4])
    world = cut.base.world
    far = Box(Pose(rot_z(math.radians(30.0)), np.array([3.0, 3.0, 3.0])),
              np.full(3, 0.05))
    crowded = CollisionWorld({"far": far, **world.statics}, world.link_spec,
                             world.excluded)
    assert crowded.box_names == ("far", "table")
    with_far = replace(cut, base=replace(cut.base, world=crowded))
    assert cells_csv(sweep(with_far)) == cells_csv(sweep(cut))


def test_the_bend_limit_acts_only_on_constrained_plans(monkeypatch):
    """On pitch rows 3-4 by roll columns 0-1 of the default sweep, at
    95, 75, 60 and 45 deg: a constrained cell that plans (o) under a
    limit plans under every looser one, and every unconstrained plan is
    byte-identical under every limit, since only its label reads it."""
    scene = default_scene()
    cut = replace(scene, pitch_rows=scene.pitch_rows[3:5],
                  roll_cols=scene.roll_cols[:2])
    run = bench.plan
    grids, free = [], []
    for deg in (95.0, 75.0, 60.0, 45.0):
        results = []
        monkeypatch.setattr(bench, "plan", lambda *a, **k: results.append(
            (k["constrained"], run(*a, **k))) or results[-1][1])
        limited = replace(cut, base=replace(
            cut.base, constraint=BendConstraint(math.radians(deg))))
        grids.append(sum(sweep(limited).grid("constrained"), []))
        free.append([None if r.plan is None else (
            [getattr(r.plan, name).tobytes() for name in
             ("q_left", "q_right", "tool_rot", "tool_t", "theta", "clearance")],
            r.plan.holding, r.plan.edge_kinds, r.plan.joint_distance)
            for constrained, r in results if not constrained])
    assert len(free[0]) == 4 and all(free[0])
    assert all(plans == free[0] for plans in free[1:])
    # The limit changes some outcome here, so the relation is not vacuous.
    assert grids[0] != grids[-1]
    for i, looser in enumerate(grids):
        for tighter in grids[i + 1:]:
            assert all(a == "o" for a, b in zip(looser, tighter) if b == "o")


def test_default_sweep_plans_keep_their_grip(default_report):
    rechecks = [c.recheck for c in default_report.cells if c.recheck]
    assert len(rechecks) == 75
    assert all(rc.grip_waypoint is None for rc in rechecks)
