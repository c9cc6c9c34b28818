"""Call-site tracer for tetherplan's layers.

``from module import name`` binds ``name`` in the importing module when
it is imported, so wrapping ``tetherplan.robot.ik_batch`` records nothing:
the planner calls its own binding, ``tetherplan.planner.ik_batch``.  The
tracer therefore replaces the names that callers look up, in the calling
modules, and restores them on exit.  Nothing under src/ changes.

For every wrapped call it adds the call's duration to its layer, and its
self time (duration minus the wrapped calls made inside it).  Each wrapper
also times itself: what it adds around the call (its clock reads, stack
and counter updates) sums to the tracing overhead.  Pairing a traced run
with an untraced one would measure the same thing far less exactly, as the
difference of two long times on a host whose speed drifts.  Counters
come from the call's arguments and result: IK targets and solves, clearance
waypoints, bend poses, torque entries, CSV bytes.  The PlannerStats of each
plan are read from the PlanResult that passes through a wrapped ``plan``,
because ``sweep`` discards them; cache sizes are read from the PlanCache
instances the wrapped ``PlanCache`` constructors hand out.

The tracer keeps one span stack, so it assumes a single calling thread;
the benchmark leaves TETHERPLAN_THREADS unset for that reason.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

REJECT_REASONS = ("collision", "bend", "cable_collision")


def _count_ik(counts, args, result):
    counts["targets"] += len(args[1])
    counts["solved"] += int(result[1].sum())


def _count_clearances(counts, args, result):
    counts["waypoints"] += len(result[0])


def _count_bend(counts, args, result):
    counts["poses"] += len(result)


def _count_plan(counts, args, result):
    stats = result.stats
    counts["edges_validated"] += stats.edges_validated
    counts["nodes_settled"] += stats.nodes_settled
    for reason, n in stats.edges_rejected.items():
        counts["rejected." + reason] += n


def _count_trace(counts, args, result):
    counts["entries"] += len(result.entries)


def _count_parse(counts, args, result):
    counts["bytes"] += len(args[0].encode("utf-8"))


# (module, name the caller looks up, layer, counter).  Several sites may
# feed one layer.  planner.plan is the benchmark's own call site for a
# lone plan(); planner.PlanCache builds the cache such a call makes itself.
SITES = (
    ("tetherplan.planner", "ik_batch", "robot.ik_batch", _count_ik),
    ("tetherplan.planner", "motion_clearances",
     "collision.motion_clearances.planner", _count_clearances),
    ("tetherplan.planner", "bend_angle_batch", "cable.bend_angle_batch",
     _count_bend),
    ("tetherplan.planner", "plan", "planner.plan", _count_plan),
    ("tetherplan.planner", "PlanCache", None, None),
    ("tetherplan.bench", "plan", "planner.plan", _count_plan),
    ("tetherplan.bench", "recheck_plan", "bench.recheck_plan", None),
    ("tetherplan.bench", "trace_plan", "torque.trace_plan", _count_trace),
    ("tetherplan.bench", "motion_clearances",
     "collision.motion_clearances.bench", _count_clearances),
    ("tetherplan.bench", "bend_angle_batch", "cable.bend_angle_batch",
     _count_bend),
    ("tetherplan.bench", "PlanCache", None, None),
    ("tetherplan.plan_io", "parse_plan_csv", "plan_io.parse_plan_csv",
     _count_parse),
    ("tetherplan.plan_io", "torque_csv", "plan_io.torque_csv", None),
    ("tetherplan.scene", "default_scene", "scene.default_scene", None),
)

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYER_MAP = {
    "robot.ik_batch": "wall_s on sweep_default, op_p50_s on plan_cold; "
                      "reads 0 on audit_plans",
    "collision.motion_clearances.planner": "wall_s on sweep_default, "
                                           "op_p50_s on plan_cold",
    "collision.motion_clearances.bench": "op_p50_s on audit_plans, "
                                         "wall_s on sweep_default",
    "cable.bend_angle_batch": "op_p50_s on audit_plans, wall_s on "
                              "sweep_default",
    "planner.plan": "wall_s on sweep_default, op_p50_s on plan_cold",
    "planner.edges_*, planner.nodes_settled": "wall_s and op_p50_s through "
                                              "the edges each plan validates",
    "planner.cache, planner.edge_hit_ratio": "wall_s on sweep_default, the "
                                             "only workload whose hit ratio "
                                             "is above 0",
    "bench.recheck_plan": "op_p50_s on audit_plans, wall_s on sweep_default",
    "torque.trace_plan": "op_p50_s on audit_plans, wall_s on sweep_default",
    "plan_io": "op_p50_s on audit_plans",
    "scene.default_scene": "setup_s on every workload",
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [(f"robot.ik_batch.{k}", u) for k, u in
     (("calls", "count"), ("s", "s"), ("targets", "count"),
      ("solved", "count"))]
    + [(f"collision.motion_clearances.{caller}.{k}", u)
       for caller in ("planner", "bench") for k, u in
       (("calls", "count"), ("s", "s"), ("waypoints", "count"))]
    + [(f"cable.bend_angle_batch.{k}", u) for k, u in
       (("calls", "count"), ("s", "s"), ("poses", "count"))]
    + [("planner.plan.calls", "count"), ("planner.plan.s", "s"),
       ("planner.plan.self_s", "s"), ("planner.edges_validated", "count")]
    + [(f"planner.edges_rejected.{r}", "count") for r in REJECT_REASONS]
    + [("planner.nodes_settled", "count"),
       ("planner.cache.node_entries", "count"),
       ("planner.cache.edge_entries", "count"),
       ("planner.edge_hit_ratio", "ratio"),
       ("bench.recheck_plan.calls", "count"), ("bench.recheck_plan.s", "s"),
       ("torque.trace_plan.calls", "count"), ("torque.trace_plan.s", "s"),
       ("torque.trace_plan.entries", "count"),
       ("plan_io.parse_plan_csv.s", "s"),
       ("plan_io.parse_plan_csv.bytes", "B"),
       ("plan_io.torque_csv.s", "s"),
       ("scene.default_scene.s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.covered_share", "ratio"),
       ("trace.uncovered_s", "s")]
)


class Tracer:
    """Per-layer call counts, busy and self times, and work counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: dict[str, Counter] = {}
        self.fired: Counter = Counter()
        self.caches: list = []
        self.root_seconds = 0.0
        self.overhead_seconds = 0.0
        self._stack: list[float] = []

    def _wrap_call(self, site: str, layer: str, fn, count):
        counts = self.counts.setdefault(layer, Counter())

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                else:
                    self.root_seconds += duration
                self.fired[site] += 1
                self.calls[layer] += 1
                self.seconds[layer] += duration
                self.self_seconds[layer] += duration - inner
            if count is not None:
                count(counts, args, result)
            self.overhead_seconds += time.perf_counter() - entered - duration
            return result

        return traced

    def _wrap_cache(self, site: str, cls):
        def capture(*args, **kwargs):
            cache = cls(*args, **kwargs)
            self.fired[site] += 1
            self.caches.append(cache)
            return cache

        return capture

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        originals = []
        try:
            for module_name, attr, layer, count in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                site = f"{module_name}.{attr}"
                if layer is None:
                    wrapper = self._wrap_cache(site, original)
                else:
                    wrapper = self._wrap_call(site, layer, original, count)
                originals.append((module, attr, original))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def metrics(self, traced_wall_s: float, covered_s: float,
                overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric.

        covered_s is the time the outermost wrapped calls of the traced
        phase took, which equals the sum of all layers' self times there.
        """
        def get(layer, key):
            return self.counts.get(layer, Counter())[key]

        out: dict[str, float] = {}
        for layer in ("robot.ik_batch", "collision.motion_clearances.planner",
                      "collision.motion_clearances.bench",
                      "cable.bend_angle_batch", "planner.plan",
                      "bench.recheck_plan", "torque.trace_plan"):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.seconds[layer]
        out["planner.plan.self_s"] = self.self_seconds["planner.plan"]
        out["robot.ik_batch.targets"] = get("robot.ik_batch", "targets")
        out["robot.ik_batch.solved"] = get("robot.ik_batch", "solved")
        for caller in ("planner", "bench"):
            layer = f"collision.motion_clearances.{caller}"
            out[f"{layer}.waypoints"] = get(layer, "waypoints")
        out["cable.bend_angle_batch.poses"] = get("cable.bend_angle_batch",
                                                  "poses")
        validated = get("planner.plan", "edges_validated")
        out["planner.edges_validated"] = validated
        for reason in REJECT_REASONS:
            out[f"planner.edges_rejected.{reason}"] = get(
                "planner.plan", "rejected." + reason)
        out["planner.nodes_settled"] = get("planner.plan", "nodes_settled")
        edge_entries = sum(len(c.edge_verdict) for c in self.caches)
        out["planner.cache.node_entries"] = sum(len(c.node_feasible)
                                                for c in self.caches)
        out["planner.cache.edge_entries"] = edge_entries
        # Each validated edge either hits the cache or adds one verdict.
        out["planner.edge_hit_ratio"] = (
            (validated - edge_entries) / validated if validated else 0.0)
        out["torque.trace_plan.entries"] = get("torque.trace_plan", "entries")
        out["plan_io.parse_plan_csv.s"] = self.seconds["plan_io.parse_plan_csv"]
        out["plan_io.parse_plan_csv.bytes"] = get("plan_io.parse_plan_csv",
                                                  "bytes")
        out["plan_io.torque_csv.s"] = self.seconds["plan_io.torque_csv"]
        out["scene.default_scene.s"] = self.seconds["scene.default_scene"]
        out["trace.overhead_s"] = overhead_s
        out["trace.covered_share"] = covered_s / traced_wall_s
        out["trace.uncovered_s"] = traced_wall_s - covered_s
        return out
