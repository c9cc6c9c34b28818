"""Tests of the benchmark's own tracer and checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The tracer patches tetherplan names by module and attribute.  If a
refactor moves or renames one of them, these tests fail instead of the
traced benchmark quietly reporting zeros.
"""

import importlib
import json
import math
from dataclasses import replace

import pytest
from paths import ROOT, use_checkout_sources

use_checkout_sources()

from tetherplan import bench, plan_io, planner  # noqa: E402
from tetherplan import scene as tp_scene  # noqa: E402
from tetherplan.robot import IKOptions  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, SITES, Tracer  # noqa: E402

# Short IK keeps one plan of the small scene near 2 s; it still finds one.
SMALL_OPTIONS = dict(ik=IKOptions(restarts=2, max_iters=100))


def traced_small_run():
    """Sweep, plan and audit a 2 x 1 cut of the default scene, traced."""
    tracer = Tracer()
    with tracer.installed():
        scene = tp_scene.default_scene()
        small = replace(scene, options=replace(scene.options, **SMALL_OPTIONS),
                        pitch_rows=(0.0, math.radians(90.0)), roll_cols=(0.0,))
        report = bench.sweep(small)
        problem = small.problem()
        result = planner.plan(problem, constrained=True, options=small.options)
        assert result.plan is not None
        motion = plan_io.parse_plan_csv(plan_io.plan_csv(result.plan))
        bench.recheck_plan(motion, problem)
        trace = bench.trace_plan(motion, problem.robot, problem.balancer,
                                 problem.tool)
        plan_io.torque_csv(trace)
    return tracer, report


@pytest.fixture(scope="module")
def two_runs():
    return traced_small_run(), traced_small_run()


def counters(tracer):
    """The metrics that count work, leaving out every time."""
    units = dict(PER_LAYER)
    return {name: value
            for name, value in tracer.metrics(1.0, 1.0, 1.0).items()
            if units[name] in ("count", "B") or name == "planner.edge_hit_ratio"}


def test_every_site_exists_and_fires(two_runs):
    (tracer, report), _ = two_runs
    sites = {f"{module}.{attr}" for module, attr, _, _ in SITES}
    assert {site for site in sites if tracer.fired[site] == 0} == set()
    assert report.grid("constrained") == [["o"], ["F"]]


def test_sites_are_restored_after_tracing(two_runs):
    for module_name, attr, _, _ in SITES:
        value = getattr(importlib.import_module(module_name), attr)
        assert value.__module__.startswith("tetherplan."), (module_name, attr)


def test_counters_repeat_exactly(two_runs):
    (first, _), (second, _) = two_runs
    a, b = counters(first), counters(second)
    assert a == b
    assert a["robot.ik_batch.targets"] > a["robot.ik_batch.solved"] > 0
    assert a["planner.edges_validated"] > 0
    assert a["planner.cache.edge_entries"] > 0
    assert a["planner.cache.node_entries"] > 0


def test_metric_names_match_benchmark_json(two_runs):
    (tracer, _), _ = two_runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert set(tracer.metrics(1.0, 1.0, 1.0)) == {n for n, _ in PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_audit_check_flags_a_wrong_output():
    audit = workloads.AuditPlans()
    audit.setup()
    item = next(i for i in audit.inputs if i.reference["symbol"] == "x")
    op = audit._op(item)
    output = op.run()
    assert op.check(output) == 0
    wrong = replace(item, reference={**item.reference, "symbol": "o"})
    assert audit._op(wrong).check(output) == 1
    off = {arm: 1.001 * v for arm, v in item.reference["peak_torque_nm"].items()}
    wrong = replace(item, reference={**item.reference, "peak_torque_nm": off})
    assert audit._op(wrong).check(output) == 1


def test_speed_scaling_takes_out_a_steady_slowdown():
    """Kernel samples at half the reference speed halve an op's time, after
    the samples that ran inside it are taken out; one slow sample does not
    move the result."""
    sampler = speed.SpeedSampler()
    kernel_s = 2 * speed.REFERENCE_S
    for i in range(20):
        sampler.starts.append(i * 0.25)
        sampler.ends.append(i * 0.25 + (10 if i == 6 else 1) * kernel_s)
    inside = 8 * kernel_s + 9 * kernel_s  # samples 4-11; sample 6 is slow
    assert sampler.reference_seconds(1.0, 3.0) == pytest.approx(
        (2.0 - inside) / 2)
    # An op between two samples takes the speed of the nearer one, and
    # loses only the part of a sample that overlaps it.
    assert sampler.reference_seconds(1.004, 1.2) == pytest.approx(
        (1.2 - 1.004 - (1.0 + kernel_s - 1.004)) / 2)


def test_speed_sampler_samples_on_its_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    with sampler.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * speed.INTERVAL_S:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    timed = [s for s in sampler.starts if t0 <= s <= t1]
    assert len(sampler.starts) >= 2 * speed.EDGE_SAMPLES + 3
    assert len(timed) >= 3
    assert 0 < sampler.reference_seconds(t0, t1) < 100 * (t1 - t0)
