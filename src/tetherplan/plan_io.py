"""Plain-text serialization for planned motions and torque traces.

A plan file is a CSV with one row per waypoint, preceded by a short
``# key: value`` preamble carrying whole-plan facts (mode, edge kinds,
joint distance), each key at most once and none after the header.
Floats are written with nine significant digits, which round-trips
joint angles and poses to well below actuator resolution.  The writer
formats whole arrays, with all quaternions from one rot_to_quat call,
which makes no BLAS call.

The holding column spells a row of MotionPlan.grasp, the left arm first
(``left:3+right:41``), and is empty where neither arm holds the tool.  The
theta_rad and min_clearance_m columns hold the values the planner
validated: the cable bend angle and the least clearance of each
waypoint, with the tool shapes attached and, on a constrained plan's
approach rows, the cable too.  bench.recheck_plan ignores them and
recomputes its own.

The reader checks the structure of each row in one pass over the rows,
then converts the numeric fields of all rows in one np.loadtxt call and
their quaternions in one array step.  Only when loadtxt raises are the
numeric fields converted row by row with float(), which also takes
spellings that loadtxt rejects (1_000), so that an error names its line.
"""

from __future__ import annotations

import operator

import numpy as np

from .geometry import ZeroVectorError, quat_to_rot, rot_to_quat
from .planner import ARMS, MotionPlan

PLAN_HEADER = (
    ["waypoint"]
    + [f"ql{i}" for i in range(1, 7)]
    + [f"qr{i}" for i in range(1, 7)]
    + ["tool_qw", "tool_qx", "tool_qy", "tool_qz",
       "tool_x", "tool_y", "tool_z", "holding",
       "theta_rad", "min_clearance_m"]
)

TORQUE_HEADER = (["waypoint", "arm"]
                 + [f"tau{i}_nm" for i in range(1, 7)] + ["magnitude_nm"])
# Waypoint, arm, six torques and their magnitude.
_TORQUE_ROW = ",".join(["{}", "{}"] + ["{:.9g}"] * 7)
# Waypoint, twelve joints, quaternion, position, holding, theta, clearance.
_PLAN_ROW = ",".join(["{}"] + ["{:.9g}"] * 19 + ["{}"] + ["{:.9g}"] * 2)


def format_holding(grasp) -> str:
    """A (left, right) grasp-id row as text, -1s left out: ``left:3+right:41``."""
    return "+".join(f"{side}:{gid}" for side, gid in zip(ARMS, grasp) if gid >= 0)


def parse_holding(text: str) -> tuple[int, int]:
    """Inverse of format_holding, -1 for an arm not named; each arm may
    appear once, with an id that fits int64."""
    ids = [-1, -1]
    for part in text.split("+") if text else ():
        side, _, digits = part.partition(":")
        if side not in ARMS or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed holding entry {part!r}")
        arm, gid = ARMS.index(side), int(digits)
        if ids[arm] >= 0:
            raise ValueError(f"holding {text!r} names arm {side!r} twice")
        if gid >= 2**63:
            raise ValueError(f"grasp id in {part!r} does not fit int64")
        ids[arm] = gid
    return tuple(ids)


def plan_csv(motion: MotionPlan) -> str:
    nums = np.concatenate([motion.q_left, motion.q_right,
                           rot_to_quat(motion.tool_rot), motion.tool_t], axis=1)
    rows = zip(nums.tolist(), map(format_holding, motion.grasp.tolist()),
               motion.theta.tolist(), motion.clearance.tolist(), strict=True)
    lines = [
        f"# mode: {motion.mode}",
        f"# edge_kinds: {','.join(motion.edge_kinds)}",
        f"# joint_distance_rad: {float(motion.joint_distance):.9g}",
        ",".join(PLAN_HEADER),
    ] + [_PLAN_ROW.format(w, *v, holding, theta, clearance)
         for w, (v, holding, theta, clearance) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def write_plan_csv(path, motion: MotionPlan) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(plan_csv(motion))


def _one_of(value: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:
        raise ValueError(f"{value!r} is not one of {', '.join(allowed)}")
    return value


# The parser of each preamble value; an unknown key is kept as text.
_PREAMBLE = {
    "mode": lambda v: _one_of(v, ("constrained", "unconstrained")),
    "edge_kinds": lambda v: tuple(_one_of(k, ("approach", "transfer", "handover"))
                                  for k in v.split(",") if k),
    "joint_distance_rad": float,
}


# Joints, quaternion and position (columns 1-19), then theta and
# clearance (columns 21-22).
_NUMERIC = (*range(1, 20), 21, 22)


def _raise_with_line(convert, rows, row_lns) -> None:
    """Convert rows one by one; re-raise the first ValueError with its line."""
    for row, ln in zip(rows, row_lns):
        try:
            convert(row)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e


def _holdings(rows: list[str], row_lns: list[int]) -> list[tuple[int, int]]:
    """Each row's (left, right) grasp ids after checking its structure;
    the first malformed row raises its error with its line."""
    parsed, out = {}, []
    for k, (row, ln) in enumerate(zip(rows, row_lns)):
        if row.startswith("#"):
            raise ValueError(f"line {ln}: preamble line after the header")
        fields = row.split(",")
        if len(fields) != len(PLAN_HEADER):
            raise ValueError(f"line {ln}: expected {len(PLAN_HEADER)} "
                             f"fields, got {len(fields)}")
        if fields[0] != str(k):
            raise ValueError(f"line {ln}: waypoint {fields[0]!r}, expected {k}")
        text = fields[20]
        if text not in parsed:
            try:
                parsed[text] = parse_holding(text)
            except ValueError as e:
                raise ValueError(f"line {ln}: {e}") from e
        out.append(parsed[text])
    return out


def _numbers(rows: list[str], row_lns: list[int]) -> np.ndarray:
    """The _NUMERIC fields of rows as a (W, 21) array, in one loadtxt call.

    loadtxt rejects some spellings that float() takes, such as 1_000;
    then the rows go through float() one at a time, and the first row
    that it rejects raises with its line.
    """
    try:
        return np.loadtxt(rows, delimiter=",", usecols=_NUMERIC,
                          comments=None, ndmin=2)
    except ValueError:
        pass
    pick = operator.itemgetter(*_NUMERIC)
    out = []
    for row, ln in zip(rows, row_lns):
        try:
            out.append(list(map(float, pick(row.split(",")))))
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
    return np.array(out)


def parse_plan_csv(text: str) -> MotionPlan:
    lines = text.splitlines()
    meta, meta_lns = {}, {}
    header = len(lines)
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            if line.split(",") != PLAN_HEADER:
                raise ValueError(f"line {ln}: unexpected plan CSV header")
            header = ln
            break
        key, _, value = (p.strip() for p in line.lstrip("# ").partition(":"))
        if key in meta_lns:
            raise ValueError(f"line {ln}: '# {key}:' repeats line "
                             f"{meta_lns[key]}")
        meta_lns[key] = ln
        try:
            meta[key] = _PREAMBLE.get(key, str)(value)
        except ValueError as e:
            raise ValueError(f"line {ln}: {key}: {e}") from e
    body = [raw.strip() for raw in lines[header:]]
    row_lns = [ln for ln, line in enumerate(body, start=header + 1) if line]
    rows = [line for line in body if line]
    if not rows:
        raise ValueError("plan CSV has no waypoint rows")
    holdings = _holdings(rows, row_lns)
    for key in _PREAMBLE:
        if key not in meta:
            raise ValueError(f"plan CSV preamble is missing '# {key}:'")
    nums = _numbers(rows, row_lns)
    bad = np.nonzero(~np.isfinite(nums[:, :19]).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"line {row_lns[bad[0]]}: joint, quaternion and "
                         "position fields must be finite")
    try:
        tool_rot = quat_to_rot(nums[:, 12:16])
    except ZeroVectorError:
        _raise_with_line(quat_to_rot, nums[:, 12:16], row_lns)
        raise
    q_left, q_right, tool_t = (nums[:, lo:hi].copy()
                               for lo, hi in ((0, 6), (6, 12), (16, 19)))
    return MotionPlan(
        mode=meta["mode"], q_left=q_left, q_right=q_right,
        tool_rot=tool_rot, tool_t=tool_t, grasp=np.array(holdings, dtype=np.int64),
        theta=nums[:, 19].copy(), clearance=nums[:, 20].copy(),
        edge_kinds=meta["edge_kinds"], n_edges=len(meta["edge_kinds"]),
        joint_distance=meta["joint_distance_rad"])


def read_plan_csv(path) -> MotionPlan:
    """The plan in the file at path; each error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_plan_csv(f.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def torque_csv(trace) -> str:
    """Torque trace as CSV, one row per (waypoint, holding arm)."""
    rows = zip(trace.waypoint.tolist(), trace.arm.tolist(), trace.entries.tolist(),
               np.abs(trace.entries).max(axis=1).tolist())
    lines = [",".join(TORQUE_HEADER)] + [
        _TORQUE_ROW.format(w, arm, *tau, magnitude) for w, arm, tau, magnitude in rows]
    return "\n".join(lines) + "\n"
