"""One SHA-256 over every output a bit-identical change must keep.

digest() hashes, in this order:

  * the default sweep's CSV (bench.cells_csv);
  * each of the sweep's 80 plan() results, in call order: the plan's
    arrays, holdings, edge kinds, edge count and joint distance, the
    failure and the PlannerStats, each followed by its cell's Recheck
    record and peak torques;
  * for each stored plan under perfbench/audit_plans, in file-name order,
    its Recheck record and its torque CSV.  Those files are only read.

Floats enter by their exact bits, dict items in key order.  Run as a
script, it prints the digest of the checkout it sits in:

    python tests/identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
AUDIT_DIR = ROOT / "perfbench" / "audit_plans"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tetherplan import bench, plan_io  # noqa: E402
from tetherplan.scene import default_scene  # noqa: E402


def _encode(value) -> bytes:
    """value as tagged, length-prefixed bytes: equal bytes, equal values."""
    if isinstance(value, np.ndarray):
        head = repr((value.dtype.str, value.shape)).encode()
        body = b"a" + head + np.ascontiguousarray(value).tobytes()
    elif dataclasses.is_dataclass(value):
        body = b"d" + type(value).__name__.encode() + b"".join(
            _encode((f.name, getattr(value, f.name)))
            for f in dataclasses.fields(value))
    elif isinstance(value, dict):
        body = b"m" + b"".join(_encode(item)
                               for item in sorted(value.items(), key=repr))
    elif isinstance(value, (tuple, list)):
        body = b"t" + b"".join(map(_encode, value))
    elif isinstance(value, (str, int, float, type(None))):
        # repr round-trips a float exactly and keeps -0.0 apart from 0.0.
        body = b"s" + type(value).__name__.encode() + b":" + repr(value).encode()
    else:
        raise TypeError(f"no encoding for {type(value).__name__}")
    return len(body).to_bytes(8, "little") + body


def digest() -> str:
    """The hex SHA-256 of the outputs listed in the module docstring."""
    results = []
    plan = bench.plan

    def recorded(*args, **kwargs):
        results.append(plan(*args, **kwargs))
        return results[-1]

    scene = default_scene()
    with mock.patch.object(bench, "plan", recorded):
        report = bench.sweep(scene)
    h = hashlib.sha256(_encode(bench.cells_csv(report)))
    for result, cell in zip(results, report.cells, strict=True):
        h.update(_encode((result, cell.recheck, cell.peak_torque)))
    for path in sorted(AUDIT_DIR.glob("*.csv")):
        row, col = map(int, re.fullmatch(r"r(\d+)c(\d+)_\w+", path.stem).groups())
        problem = scene.problem(scene.pitch_rows[row], scene.roll_cols[col])
        motion = plan_io.read_plan_csv(path)
        trace = bench.trace_plan(motion, problem.robot, problem.balancer,
                                 problem.tool)
        h.update(_encode((path.name, bench.recheck_plan(motion, problem),
                          plan_io.torque_csv(trace))))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
