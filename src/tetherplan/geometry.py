"""Rigid-body math: vectors, rotation matrices, poses.

Vectors are length-3 float64 numpy arrays, rotations are 3x3 float64
numpy arrays (world_from_local convention: columns are the local frame
axes expressed in the parent frame).  All angles are radians; degrees
appear only at file/CLI boundaries.

Euler convention used throughout: extrinsic X(roll)-Y(pitch)-Z(yaw),
i.e. rpy_to_rot(r, p, y) = Rz(y) @ Ry(p) @ Rx(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ZeroVectorError(ValueError):
    """Raised when a direction is requested from a (near-)zero vector."""


_EPS = 1e-12


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize v to unit length.  Raises ZeroVectorError below 1e-12."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < _EPS:
        raise ZeroVectorError(f"cannot normalize near-zero vector {v!r}")
    return v / n


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_to_rot(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from extrinsic X-Y-Z (roll, pitch, yaw) angles."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rot_to_rotvec(r: np.ndarray) -> np.ndarray:
    """SO(3) log map: rotations (..., 3, 3) -> axis * angle vectors (..., 3).

    Vectorized over the leading axes.  Below 1e-5 rad the vector is the
    antisymmetric part itself; rows within 1e-3 rad of pi are redone
    one at a time by _rotvec_near_pi.
    """
    r = np.asarray(r, dtype=float)
    rots = r.reshape(-1, 3, 3)
    # Clamping the trace to [-1, 3] first would change nothing: 0.5 * (t - 1)
    # is monotone in t and exact at t = -1 and t = 3.
    cos = 0.5 * (rots[:, 0, 0] + rots[:, 1, 1] + rots[:, 2, 2] - 1.0)
    theta = np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0))
    # r21 - r12, r02 - r20, r10 - r01, from one gather of the flat rows.
    pairs = rots.reshape(-1, 9)[:, [7, 2, 3, 5, 6, 1]]
    skew = 0.5 * (pairs[:, :3] - pairs[:, 3:])
    sin = np.sin(theta)
    small = theta < 1e-5
    near_pi = theta > math.pi - 1e-3
    scale = np.where(small | near_pi, 1.0, theta / np.where(sin == 0.0, 1.0, sin))
    out = scale[:, None] * skew
    if near_pi.any():
        for idx in np.nonzero(near_pi)[0]:
            out[idx] = _rotvec_near_pi(rots[idx])
    return out.reshape(r.shape[:-1])


def _rotvec_near_pi(r: np.ndarray) -> np.ndarray:
    """Log map of one rotation by nearly pi, in scalar arithmetic."""
    th = math.acos(min(1.0, max(-1.0, (float(np.trace(r)) - 1.0) * 0.5)))
    if math.pi - th < 1e-6:
        # Near pi the antisymmetric part vanishes; recover the axis from
        # the symmetric part instead.
        b = 0.5 * (r + np.eye(3))
        k = np.sqrt(np.maximum(np.diag(b), 0.0))
        i = int(np.argmax(k))
        if k[i] > 0.0:
            k = b[:, i] / k[i]
            k = k / np.linalg.norm(k)
        else:
            k = np.array([0.0, 0.0, 1.0])
        return k * th
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w * (th / (2.0 * math.sin(th)))


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotations (..., 3, 3) -> unit quaternions [w, x, y, z] (..., 4), w >= 0.

    Elementwise, with no BLAS call.  Each row takes Shepperd's branch
    (J. Guidance and Control 1(3), 1978): w from a positive trace, else
    the component of the largest diagonal entry.  Serialization helper
    for the plan file format; quaternions are not part of the rotation
    API otherwise.
    """
    r = np.asarray(r, dtype=float)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r.reshape(-1, 9).T
    tr = r00 + r11 + r22
    k = np.select([tr > 0.0, (r00 > r11) & (r00 > r22), r11 > r22], [0, 1, 2], 3)
    s = 2.0 * np.sqrt(np.choose(k, [tr + 1.0, 1.0 + r00 - r11 - r22,
                                    1.0 - r00 + r11 - r22, 1.0 - r00 - r11 + r22]))
    # Row j of branch j's numerators; its own slot j is 0.25 * s instead.
    a, b, c = r21 - r12, r02 - r20, r10 - r01
    d, e, f, z = r01 + r10, r02 + r20, r12 + r21, np.zeros_like(tr)
    rows = np.arange(k.size)
    q = np.stack([z, a, b, c, a, z, d, e, b, d, z, f, c, e, f, z],
                 axis=-1).reshape(-1, 4, 4)[rows, k] / s[:, None]
    q[rows, k] = 0.25 * s
    q /= np.sqrt(np.einsum("...i,...i", q, q))[:, None]
    return np.where(q[:, :1] < 0.0, -q, q).reshape(r.shape[:-2] + (4,))


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Quaternions [w, x, y, z] (..., 4), normalized first -> (..., 3, 3).

    Elementwise, with no BLAS call.  Raises ZeroVectorError if any norm
    is below 1e-12.
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    if np.any(n < _EPS):
        raise ZeroVectorError("cannot normalize a near-zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(w.shape + (3, 3))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation r (3x3) plus translation t (m).

    Treated as immutable; do not write into the arrays after creation.
    """

    r: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))

    @staticmethod
    def from_rpy(xyz, rpy) -> "Pose":
        return Pose(rpy_to_rot(*rpy), np.asarray(xyz, dtype=float))
