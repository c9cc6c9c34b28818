"""Plain-text serialization for planned motions and torque traces.

A plan file is a CSV with one row per waypoint, preceded by a short
``# key: value`` preamble carrying whole-plan facts (mode, edge kinds,
joint distance).  Floats are written with nine significant digits, which
round-trips joint angles and poses to well below actuator resolution.
"""

from __future__ import annotations

import numpy as np

from .geometry import ZeroVectorError, quat_to_rot, rot_to_quat
from .planner import MotionPlan

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


def _f(x: float) -> str:
    return f"{float(x):.9g}"


def format_holding(holding: tuple) -> str:
    """Serialize one waypoint's grasp set, e.g. ``left:3+right:41``."""
    return "+".join(f"{side}:{gid}" for side, gid in holding)


def parse_holding(text: str) -> tuple:
    if not text:
        return ()
    out = []
    for part in text.split("+"):
        side, _, gid = part.partition(":")
        if side not in ("left", "right") or not gid.isdigit():
            raise ValueError(f"malformed holding entry {part!r}")
        out.append((side, int(gid)))
    return tuple(out)


def plan_csv(motion: MotionPlan) -> str:
    lines = [
        f"# mode: {motion.mode}",
        f"# edge_kinds: {','.join(motion.edge_kinds)}",
        f"# joint_distance_rad: {_f(motion.joint_distance)}",
        ",".join(PLAN_HEADER),
    ]
    for w in range(motion.n_waypoints):
        quat = rot_to_quat(motion.tool_rot[w])
        row = ([str(w)]
               + [_f(v) for v in motion.q_left[w]]
               + [_f(v) for v in motion.q_right[w]]
               + [_f(v) for v in quat]
               + [_f(v) for v in motion.tool_t[w]]
               + [format_holding(motion.holding[w]),
                  _f(motion.theta[w]), _f(motion.clearance[w])])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_plan_csv(path, motion: MotionPlan) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(plan_csv(motion))


def parse_plan_csv(text: str) -> MotionPlan:
    meta = {}
    rows = []
    header_seen = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition(":")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line.split(",") != PLAN_HEADER:
                raise ValueError(f"line {ln}: unexpected plan CSV header")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != len(PLAN_HEADER):
            raise ValueError(f"line {ln}: expected {len(PLAN_HEADER)} "
                             f"fields, got {len(fields)}")
        rows.append((ln, fields))
    if not header_seen or not rows:
        raise ValueError("plan CSV has no waypoint rows")
    for key in ("mode", "edge_kinds", "joint_distance_rad"):
        if key not in meta:
            raise ValueError(f"plan CSV preamble is missing '# {key}:'")

    # Joints, quaternion and position (columns 1-19), then theta and
    # clearance (columns 21-22).
    nums = np.array([[float(v) for v in fields[1:20] + fields[21:]]
                     for _, fields in rows])
    bad = np.nonzero(~np.isfinite(nums[:, :19]).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"line {rows[bad[0]][0]}: joint, quaternion and "
                         "position fields must be finite")
    tool_rot = np.empty((len(rows), 3, 3))
    for i, (ln, _) in enumerate(rows):
        try:
            tool_rot[i] = quat_to_rot(nums[i, 12:16])
        except ZeroVectorError as e:
            raise ValueError(f"line {ln}: {e}") from e
    q_left, q_right, tool_t = (nums[:, lo:hi].copy()
                               for lo, hi in ((0, 6), (6, 12), (16, 19)))
    kinds = tuple(k for k in meta["edge_kinds"].split(",") if k)
    return MotionPlan(
        mode=meta["mode"], q_left=q_left, q_right=q_right,
        tool_rot=tool_rot, tool_t=tool_t,
        holding=tuple(parse_holding(fields[20]) for _, fields in rows),
        theta=nums[:, 19].copy(), clearance=nums[:, 20].copy(),
        edge_kinds=kinds, n_edges=len(kinds),
        joint_distance=float(meta["joint_distance_rad"]))


def read_plan_csv(path) -> MotionPlan:
    with open(path, "r", encoding="utf-8") as f:
        return parse_plan_csv(f.read())


def torque_csv(trace) -> str:
    """Torque trace as CSV, one row per (waypoint, holding arm)."""
    lines = [",".join(TORQUE_HEADER)]
    for e in trace.entries:
        lines.append(",".join([str(e.waypoint), e.arm]
                              + [_f(v) for v in e.torques]
                              + [_f(e.magnitude)]))
    return "\n".join(lines) + "\n"
