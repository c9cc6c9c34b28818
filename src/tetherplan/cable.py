"""Overhead-balancer cable model and the bend-angle constraint.

The tool hangs from a balancer anchored above the workspace.  A short
connector boom leaves the tool body along a fixed tool-frame direction;
the cable runs from the boom tip straight to the anchor.  The bend
angle is measured between the boom direction and the cable at the
connector: zero when the tool hangs at rest, growing as the tool tips
over.  Orientations whose bend angle reaches the limit would kink the
cable against the connector, so they are rejected.

The taut cable is also a collision body: cable_segments gives it at
each waypoint's tool pose, and ToolSpec.bodies attaches it beside the
tool shapes, which it is never measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tetherplan.collision import Box, Shape, capsule_segments
from tetherplan.geometry import ZeroVectorError, unit

DEFAULT_MAX_BEND = math.radians(95.0)
CABLE = "cable"            # collision name of the cable body
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
        if not np.isfinite(self.anchor).all():
            raise ValueError("balancer anchor must be finite")
        if not 0.0 < self.max_load < math.inf:
            raise ValueError("balancer max_load must be positive and finite")
        if not 0.0 < self.cable_radius < math.inf:
            raise ValueError("cable_radius must be positive and finite")


@dataclass(frozen=True)
class ToolSpec:
    """Suspended tool: collision bodies, grasp handle, cable connector.

    All geometry lives in the tool frame.  handle_a/handle_b span the
    graspable axis; shapes are the collision bodies, the handle's among
    them (boxes are rejected because attached bodies must be capsules
    for the pairwise distance kernels).
    """

    connector_point: np.ndarray
    cable_dir: np.ndarray
    handle_a: np.ndarray
    handle_b: np.ndarray
    shapes: tuple[tuple[str, Shape], ...] = ()

    def __post_init__(self):
        for name in ("connector_point", "cable_dir", "handle_a", "handle_b"):
            value = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.isfinite(value).all():
                raise ValueError(f"tool {name} must be finite")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cable_dir", unit(self.cable_dir))
        if np.linalg.norm(self.handle_b - self.handle_a) < _EPS:
            raise ValueError("handle axis must have nonzero length")
        for name, shape in self.shapes:
            if isinstance(shape, Box):
                raise ValueError(f"tool shape {name!r}: boxes are not supported "
                                 "for attached bodies, use capsules")

    def shape_segments(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Tool-frame segments (K, 2, 3), radii (K,), and names."""
        segs, radii = capsule_segments(shape for _, shape in self.shapes)
        return segs, radii, [name for name, _ in self.shapes]

    def bodies(self, rot: np.ndarray, t: np.ndarray,
               balancer: BalancerSpec | None = None,
               ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """World segments (W, K, 2, 3), radii (K,) and names of the bodies
        that ride with the tool at W poses rot (W,3,3), t (W,3): the
        shapes, then the taut cable (CABLE) when a balancer is given."""
        segs, radii, names = self.shape_segments()
        segs = (np.einsum("wij,kpj->wkpi", np.ascontiguousarray(rot), segs)
                + np.asarray(t)[:, None, None, :])
        if balancer is None:
            return segs, radii, names
        return (np.concatenate([segs, cable_segments(rot, t, balancer, self)], axis=1),
                np.append(radii, balancer.cable_radius), names + [CABLE])


@dataclass(frozen=True)
class BendConstraint:
    """Upper bound on the cable bend angle; the bound itself violates."""

    theta_max: float = DEFAULT_MAX_BEND

    def __post_init__(self):
        if not (0.0 < self.theta_max < math.pi):
            raise ValueError("theta_max must lie strictly between 0 and pi radians")


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


def cable_segments(rot: np.ndarray, t: np.ndarray, balancer: BalancerSpec,
                   tool: ToolSpec) -> np.ndarray:
    """World segments (W, 1, 2, 3) of the taut cable, anchor to
    connector, at tool poses rot (W,3,3), t (W,3): the attached body
    named CABLE, of radius balancer.cable_radius."""
    connector, _, _ = cable_vectors(rot, t, balancer, tool)
    anchor = np.broadcast_to(balancer.anchor, connector.shape)
    return np.stack([anchor, connector], axis=1)[:, None]
