"""The benchmark's workloads: committed inputs, timed operations, checks.

Each workload is a stream of batches; a batch is a list of operations,
and each operation is one call into tetherplan's public API.  Every call
goes through a module attribute (``bench.sweep``, ``planner.plan``, ...)
at call time, so the call-site tracer in tracer.py sees it.

Why these workloads:

- sweep_default: the north-star batch job.  One ``sweep(default_scene())``
  runs 8 x 5 cells in two modes against one shared PlanCache, so cells
  share most station IK and edge verdicts.  It ignores the seed: its
  reference grid is the one the project gates on.
- plan_cold: the interactive single-task call.  The seed picks cells of
  the pitch rows 0-75 deg, where every constrained cell has a plan, and
  each runs ``plan(problem, constrained=True, options=scene.options)``
  with the fresh cache plan() makes itself.  Nothing is shared, so it
  shows whether a sweep-level gain helps or costs a lone plan() call.
- audit_plans: 30 stored plans from the default sweep (the 25 constrained
  plans with a handover and the 5 unconstrained bend-violation plans of
  the 90 deg row), each parsed, re-checked, torque-traced and written back
  as torque CSV.  It runs no IK and no search, so IK work should not move
  it; it magnifies the clearance and torque kernels.  The seed sets the
  audit order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from tetherplan import bench, plan_io, planner
from tetherplan import scene as tp_scene
from tetherplan.planner import PlannerStats, PlanResult

from paths import AUDIT_DIR, REFERENCE_DIR

MODES = ("constrained", "unconstrained")
# Pitch rows 0-75 deg: every constrained cell there has a plan.
COLD_ROWS = range(7)
# Pitch 90 deg: its unconstrained plans break the bend limit.
AUDIT_ROW = 7
# Peak torques of stored plans may drift by float rounding when a kernel
# is rewritten (for example a vectorized torque trace); anything beyond
# this relative tolerance is a wrong torque.
TORQUE_RTOL = 1e-6
VIOLATION_FIELDS = ("bend_waypoint", "cable_waypoint", "collision_waypoint")
# Two cold plans take 15-26 s on a 2-core x86-64 box, about one run's
# measuring time.
COLD_PLANS_PER_BATCH = 2


def cell_name(row: int, col: int) -> str:
    return f"r{row}c{col}"


def outcome_symbol(result: PlanResult, problem) -> str:
    """The sweep's o/x/*/F symbol for one plan() result."""
    recheck = None
    if result.plan is not None:
        recheck = bench.recheck_plan(result.plan, problem)
    return bench.classify(result, recheck).symbol


def audit_outcome(motion, problem, recheck=None, trace=None):
    """(Recheck, peak torque per arm, symbol) of one stored plan."""
    if recheck is None:
        recheck = bench.recheck_plan(motion, problem)
    if trace is None:
        trace = bench.trace_plan(motion, problem.robot, problem.balancer,
                                 problem.tool)
    peaks = {arm: trace.peak(arm) for arm in trace.arms()}
    symbol = bench.classify(PlanResult(motion, None, PlannerStats()),
                            recheck).symbol
    return recheck, peaks, symbol


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    check returns how many of the op's `units` outputs disagree with the
    reference; an op that raises counts all of its units as failed.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    units: int = 1


class SweepDefault:
    name = "sweep_default"

    def setup(self) -> None:
        self.scene = tp_scene.default_scene()
        self.grids = load_reference("sweep_default.json")["grids"]

    def _check(self, report) -> int:
        failed = 0
        for mode in MODES:
            got = ["".join(row) for row in report.grid(mode)]
            want = self.grids[mode]
            if [len(r) for r in got] != [len(r) for r in want]:
                return self.units
            failed += sum(a != b for g, w in zip(got, want)
                          for a, b in zip(g, w))
        return failed

    @property
    def units(self) -> int:
        return sum(len(row) for mode in MODES for row in self.grids[mode])

    def batches(self, seed: int) -> Iterator[list[Op]]:
        while True:
            yield [Op("sweep", lambda: bench.sweep(self.scene), self._check,
                      self.units)]


class PlanCold:
    name = "plan_cold"

    def setup(self) -> None:
        self.scene = tp_scene.default_scene()
        self.cells = load_reference("plan_cold.json")["cells"]
        self.problems = {
            (c["row"], c["col"]): self.scene.problem(
                self.scene.pitch_rows[c["row"]], self.scene.roll_cols[c["col"]])
            for c in self.cells}

    def _op(self, cell: dict) -> Op:
        problem = self.problems[cell["row"], cell["col"]]

        def run():
            return planner.plan(problem, constrained=True,
                                options=self.scene.options)

        def check(result) -> int:
            return int(outcome_symbol(result, problem) != cell["symbol"])

        return Op(cell_name(cell["row"], cell["col"]), run, check)

    def batches(self, seed: int) -> Iterator[list[Op]]:
        order = list(self.cells)
        random.Random(seed).shuffle(order)
        for i in itertools.count(0, COLD_PLANS_PER_BATCH):
            yield [self._op(order[(i + k) % len(order)])
                   for k in range(COLD_PLANS_PER_BATCH)]


@dataclass(frozen=True)
class AuditInput:
    name: str
    text: str
    problem: object
    reference: dict


class AuditPlans:
    name = "audit_plans"

    def setup(self) -> None:
        self.scene = tp_scene.default_scene()
        self.inputs = []
        for ref in load_reference("audit_plans.json")["plans"]:
            raw = (AUDIT_DIR / ref["file"]).read_bytes()
            if hashlib.sha256(raw).hexdigest() != ref["sha256"]:
                raise ValueError(f"{ref['file']}: checksum mismatch")
            problem = self.scene.problem(self.scene.pitch_rows[ref["row"]],
                                         self.scene.roll_cols[ref["col"]])
            self.inputs.append(AuditInput(ref["file"], raw.decode("utf-8"),
                                          problem, ref))

    @staticmethod
    def _op(item: AuditInput) -> Op:
        def run():
            motion = plan_io.parse_plan_csv(item.text)
            p = item.problem
            recheck = bench.recheck_plan(motion, p)
            trace = bench.trace_plan(motion, p.robot, p.balancer, p.tool)
            plan_io.torque_csv(trace)
            return motion, recheck, trace

        def check(output) -> int:
            motion, recheck, trace = output
            _, peaks, symbol = audit_outcome(motion, item.problem, recheck,
                                             trace)
            ref = item.reference
            indices = [getattr(recheck, k) for k in VIOLATION_FIELDS]
            want = [ref["recheck"][k] for k in VIOLATION_FIELDS]
            torques_ok = (sorted(peaks) == sorted(ref["peak_torque_nm"]) and all(
                math.isclose(peaks[arm], value, rel_tol=TORQUE_RTOL)
                for arm, value in ref["peak_torque_nm"].items()))
            return int(symbol != ref["symbol"] or indices != want
                       or not torques_ok)

        return Op(item.name, run, check)

    def batches(self, seed: int) -> Iterator[list[Op]]:
        order = list(self.inputs)
        random.Random(seed).shuffle(order)
        ops = [self._op(item) for item in order]
        while True:
            yield ops


WORKLOADS = {w.name: w for w in (AuditPlans, PlanCold, SweepDefault)}
