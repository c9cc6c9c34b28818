"""Overhead-balancer cable model and the bend-angle constraint.

The tool hangs from a balancer anchored above the workspace.  A short
connector boom leaves the tool body along a fixed tool-frame direction;
the cable runs from the boom tip straight to the anchor.  The bend
angle is measured between the boom direction and the cable at the
connector: zero when the tool hangs at rest, growing as the tool tips
over.  Orientations whose bend angle reaches the limit would kink the
cable against the connector, so they are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tetherplan.collision import Box, Capsule, CollisionWorld, Shape, \
    capsule_segments
from tetherplan.geometry import Pose, ZeroVectorError, unit

DEFAULT_MAX_BEND = math.radians(95.0)
_EPS = 1e-9


class DegenerateCable(ZeroVectorError):
    """The connector coincides with the anchor; no cable direction exists."""


@dataclass(frozen=True)
class BalancerSpec:
    """Spring balancer hanging over the workspace.

    anchor is the cable exit point in world coordinates; max_load is the
    supported mass in kilograms, which sets the cable tension.
    """

    anchor: np.ndarray
    max_load: float
    cable_radius: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float).reshape(3))
        if not (self.max_load > 0.0):
            raise ValueError("balancer max_load must be positive")
        if not (self.cable_radius > 0.0):
            raise ValueError("cable_radius must be positive")


@dataclass(frozen=True)
class ToolSpec:
    """Suspended tool: collision bodies, grasp handle, cable connector.

    All geometry lives in the tool frame.  handle_a/handle_b span the
    graspable cylinder axis; shapes are the capsule-like collision
    bodies (boxes are rejected because attached bodies must stay
    capsule-like for the pairwise distance kernels).
    """

    connector_point: np.ndarray
    cable_dir: np.ndarray
    handle_a: np.ndarray
    handle_b: np.ndarray
    handle_radius: float
    shapes: tuple[tuple[str, Shape], ...] = ()

    def __post_init__(self):
        for name in ("connector_point", "handle_a", "handle_b"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float).reshape(3))
        object.__setattr__(self, "cable_dir", unit(self.cable_dir))
        if not (self.handle_radius > 0.0):
            raise ValueError("handle_radius must be positive")
        if np.linalg.norm(self.handle_b - self.handle_a) < _EPS:
            raise ValueError("handle axis must have nonzero length")
        for name, shape in self.shapes:
            if isinstance(shape, Box):
                raise ValueError(f"tool shape {name!r}: boxes are not supported "
                                 "for attached bodies, use capsules or spheres")

    def shape_segments(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Tool-frame segments (K, 2, 3), radii (K,), and names."""
        segs, radii = capsule_segments(shape for _, shape in self.shapes)
        return segs, radii, [name for name, _ in self.shapes]

    def segments_world(self, rot: np.ndarray, t: np.ndarray) -> np.ndarray:
        """World-frame segments (W, K, 2, 3) of the shapes at W tool poses."""
        segs, _, _ = self.shape_segments()
        return (np.einsum("wij,kpj->wkpi", np.ascontiguousarray(rot), segs)
                + np.asarray(t)[:, None, None, :])


@dataclass(frozen=True)
class BendConstraint:
    """Upper bound on the cable bend angle; the bound itself violates."""

    theta_max: float = DEFAULT_MAX_BEND

    def __post_init__(self):
        if not (0.0 < self.theta_max < math.pi):
            raise ValueError("theta_max must lie strictly between 0 and pi radians")


def bend_angle(pose: Pose, balancer: BalancerSpec, tool: ToolSpec) -> float:
    """Angle between the connector boom and the cable, in radians."""
    return float(bend_angle_batch(pose.r[None], pose.t[None], balancer, tool)[0])


def cable_vectors(rot: np.ndarray, t: np.ndarray, balancer: BalancerSpec,
                  tool: ToolSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connector points (W, 3), connector-to-anchor cables (W, 3) and
    cable lengths (W,) at poses rot (W,3,3), t (W,3).  Raises
    DegenerateCable when a connector lies within 1e-9 m of the anchor."""
    connector = t + rot @ tool.connector_point
    cable = balancer.anchor - connector
    norms = np.linalg.norm(cable, axis=1)
    if np.any(norms < _EPS):
        raise DegenerateCable("tool connector sits at the balancer anchor")
    return connector, cable, norms


def bend_angle_batch(rot: np.ndarray, t: np.ndarray,
                     balancer: BalancerSpec, tool: ToolSpec) -> np.ndarray:
    """Vectorized bend angle for pose batches rot (W,3,3), t (W,3)."""
    _, cable, norms = cable_vectors(rot, t, balancer, tool)
    boom = rot @ tool.cable_dir
    cos = np.einsum("wi,wi->w", cable, boom) / norms
    return np.arccos(np.clip(cos, -1.0, 1.0))


def cable_capsule(balancer: BalancerSpec, pose: Pose, tool: ToolSpec) -> Capsule:
    """The taut cable, anchor to connector, as a collision capsule."""
    connector, _, _ = cable_vectors(pose.r[None], pose.t[None], balancer, tool)
    return Capsule(balancer.anchor, connector[0], balancer.cable_radius)


def with_cable(world: CollisionWorld, balancer: BalancerSpec, pose: Pose,
               tool: ToolSpec) -> CollisionWorld:
    """world plus the cable of the tool resting at pose, as a static.

    The cable hangs off the tool itself, so its proximity to the tool's
    shapes is structural, not a collision: they are excluded against it.
    """
    return world.with_static("cable", cable_capsule(balancer, pose, tool),
                             exclude_against=[name for name, _ in tool.shapes])
