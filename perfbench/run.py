"""Run one workload of the tetherplan benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload audit_plans --seed 1 --seconds 10 --trace 0

With --trace 0 it times SETUP_REPEATS set-ups, each in a fresh
interpreter, sets the workload up once itself, then runs batches of
operations until --seconds have passed (always at least one batch),
checks every output against the committed reference, and prints the
end-to-end metrics; wall_s is the median batch time.  Every end-to-end
time is in seconds at a fixed reference machine speed (speed.py), which
takes out the drift of a shared host; the raw medians and the speed
factor are printed on the lines before the result.  With --trace 1 it
runs the first batch under the call-site tracer, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Workloads, inputs and checks are in workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
from paths import HERE, ROOT, SRC, use_checkout_sources

SETUP_REPEATS = 5
# Imports alone vary by about 20% from one interpreter to the next, so each
# set-up is timed in a fresh one: import tetherplan, then set the workload up.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[2:]
import speed
sampler = speed.SpeedSampler()
with sampler.running():
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[sys.argv[1]]().setup()
    t1 = time.perf_counter()
print(sampler.reference_seconds(t0, t1), t1 - t0)
"""
THREADS_ENV = "TETHERPLAN_THREADS"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def run_op(op):
    """Time one op; return (start, end, (op, output, raised))."""
    t = time.perf_counter()
    try:
        outcome = (op, op.run(), False)
    except Exception:
        print(f"{op.label} raised:", file=sys.stderr)
        traceback.print_exc()
        outcome = (op, None, True)
    return t, time.perf_counter(), outcome


def check(outcome) -> int:
    """How many output units of one op are wrong; a raised op fails whole."""
    op, output, raised = outcome
    if raised:
        return op.units
    try:
        wrong = min(op.units, op.check(output))
    except Exception:
        traceback.print_exc()
        wrong = op.units
    if wrong:
        print(f"{op.label}: {wrong} of {op.units} outputs differ from the "
              "reference", file=sys.stderr)
    return wrong


def set_up_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh interpreters, at
    reference speed and raw."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append([float(x) for x in probe.stdout.split()])
    return tuple(statistics.median(column) for column in zip(*times))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tetherplan").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(tracer) -> dict:
    import numpy
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "tetherplan_threads_unset": THREADS_ENV not in os.environ,
        "workload_why": {w["name"]: w["why"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["workloads"]},
        "layer_map": tracer.LAYER_MAP,
        "speed_reference_s": speed.REFERENCE_S,
        "speed_interval_s": speed.INTERVAL_S,
    }


def print_metrics(metrics: dict, samples: dict) -> None:
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"{name:40s} {value:.6g} {unit}{tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if THREADS_ENV in os.environ:
        # The tracer keeps one span stack, and the thread pool is due to
        # be removed; measure the default single-threaded sweep only.
        parser.error(f"{THREADS_ENV} must be unset")

    use_checkout_sources()
    import numpy as np
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    if args.trace:
        # Outputs are checked after tracing ends: the checks call traced
        # names themselves.
        tracer = tracing.Tracer()
        with tracer.installed():
            workload.setup()
            covered_before = tracer.root_seconds
            overhead_before = tracer.overhead_seconds
            traced = [run_op(op) for op in next(workload.batches(args.seed))]
        # Set-up is traced for scene.default_scene.s; coverage and overhead
        # are those of the timed batch alone.
        covered = tracer.root_seconds - covered_before
        overhead = tracer.overhead_seconds - overhead_before
        outcomes = [outcome for _, _, outcome in traced]
        attempted = sum(op.units for op, _, _ in outcomes)
        failed = sum(check(outcome) for outcome in outcomes)
        values = tracer.metrics(sum(t1 - t0 for t0, t1, _ in traced), covered,
                                overhead)
        metrics = {name: (values[name], unit)
                   for name, unit in tracing.PER_LAYER}
        samples = {}
    else:
        setup_s, raw_setup_s = set_up_seconds(args.workload)
        workload.setup()
        # A batch's wall time is the sum of its op latencies; each output
        # is checked and dropped between ops, outside the timing, so peak
        # memory does not grow with the number of ops a run fits in.
        # Each op's span is scaled to reference speed once the run is over,
        # when the kernel samples after it are in too.
        spans = []
        attempted = failed = 0
        sampler = speed.SpeedSampler()
        with sampler.running():
            start = time.perf_counter()
            for batch, ops in enumerate(workload.batches(args.seed)):
                for op in ops:
                    t0, t1, outcome = run_op(op)
                    spans.append((batch, op.label, t0, t1))
                    attempted += op.units
                    failed += check(outcome)
                if time.perf_counter() - start >= args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [0.0] * (spans[-1][0] + 1)
        raw_walls = [0.0] * len(walls)
        repeats: dict[str, list[float]] = {}
        for batch, label, t0, t1 in spans:
            seconds = sampler.reference_seconds(t0, t1)
            walls[batch] += seconds
            raw_walls[batch] += t1 - t0
            repeats.setdefault(label, []).append(seconds)
        # An op that ran in several batches counts once, with the median
        # of its repeats.
        latencies = [statistics.median(times) for times in repeats.values()]
        print(f"raw (unscaled) medians: setup_s {raw_setup_s:.6g} s  "
              f"wall_s {statistics.median(raw_walls):.6g} s  speed factor "
              f"{statistics.median(walls) / statistics.median(raw_walls):.4g}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (float(np.percentile(latencies, 50)), "s"),
            "op_p90_s": (float(np.percentile(latencies, 90)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        samples = {"setup_s": SETUP_REPEATS, "wall_s": len(walls),
                   "op_p50_s": len(latencies), "op_p90_s": len(latencies),
                   "pass_ratio": attempted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.6g}")
    print_metrics(metrics, samples)
    print(json.dumps({"environment": environment(tracing)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
