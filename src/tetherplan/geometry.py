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


def vec(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize v to unit length.  Raises ZeroVectorError below 1e-12."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < _EPS:
        raise ZeroVectorError(f"cannot normalize near-zero vector {v!r}")
    return v / n


def rotate(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply rotation matrix r to vector v."""
    return np.asarray(r, dtype=float) @ np.asarray(v, dtype=float)


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in [0, pi] between two vectors, scale invariant.

    The cosine argument is clamped to [-1, 1] to guard float drift at 0
    and pi.  Raises ZeroVectorError if either vector has norm < 1e-12.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < _EPS or nb < _EPS:
        raise ZeroVectorError("angle_between requires nonzero vectors")
    c = float(np.dot(a, b)) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


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


def rot_to_rpy(r: np.ndarray) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) from a rotation matrix.

    Inverse of rpy_to_rot away from the pitch = +-pi/2 gimbal band; in
    the band roll is fixed to 0 and yaw absorbs the remaining rotation.
    """
    r = np.asarray(r, dtype=float)
    sp = -r[2, 0]
    sp = min(1.0, max(-1.0, sp))
    cp = math.sqrt(max(0.0, 1.0 - sp * sp))
    pitch = math.atan2(sp, cp)
    if cp > 1e-9:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-r[0, 1], r[1, 1])
    return roll, pitch, yaw


def rot_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (non-zero) axis."""
    k = unit(axis)
    kx, ky, kz = k
    khat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * khat + (1.0 - math.cos(angle)) * (khat @ khat)


def rot_to_rotvec(r: np.ndarray) -> np.ndarray:
    """SO(3) log map: rotation matrix -> axis * angle vector."""
    r = np.asarray(r, dtype=float)
    c = (float(np.trace(r)) - 1.0) * 0.5
    c = min(1.0, max(-1.0, c))
    th = math.acos(c)
    if th < 1e-9:
        return np.zeros(3)
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


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff r is orthonormal with det +1 within tol per entry."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= tol


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrix -> unit quaternion [w, x, y, z], w >= 0.

    Serialization helper for the plan file format; quaternions are not
    part of the rotation API otherwise.
    """
    r = np.asarray(r, dtype=float)
    tr = float(np.trace(r))
    if tr > 0.0:
        s = 2.0 * math.sqrt(tr + 1.0)
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = 2.0 * math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s,
                      (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = 2.0 * math.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2])
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s,
                      0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = 2.0 * math.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2])
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Unit quaternion [w, x, y, z] -> rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


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
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_rpy(xyz, rpy) -> "Pose":
        return Pose(rpy_to_rot(*rpy), np.asarray(xyz, dtype=float))

    def apply(self, point: np.ndarray) -> np.ndarray:
        """Map a point from this pose's local frame to the parent frame."""
        return self.r @ np.asarray(point, dtype=float) + self.t

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.r
        m[:3, 3] = self.t
        return m


def compose(p: Pose, q: Pose) -> Pose:
    """Pose composition: the transform applying q first, then p."""
    return Pose(p.r @ q.r, p.r @ q.t + p.t)


def inverse(p: Pose) -> Pose:
    rt = p.r.T
    return Pose(rt, -(rt @ p.t))
