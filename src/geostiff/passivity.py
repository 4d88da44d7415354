"""Energy audit of stiffness fields over closed displacement loops.

An antisymmetric stiffness component does net work around a closed orbit
(a virtual perpetual motion machine); a symmetric one does none.  Loops are
specified counterclockwise in the (i, j) coordinate plane with i < j, and the
reported work follows the line integral of K x along that orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotSquare, OpenPath

PASSIVE_TOLERANCE = 1e-9  # J, for the default unit-scale loop


@dataclass(frozen=True)
class LoopPath:
    """Closed polygonal path of displacement waypoints (first == last)."""

    waypoints: np.ndarray  # (N, d)

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[0] < 4:
            raise OpenPath("need at least 4 waypoints")
        if not np.array_equal(w[0], w[-1]):
            raise OpenPath("first and last waypoints must coincide exactly")
        object.__setattr__(self, "waypoints", w)

    @property
    def dimension(self) -> int:
        return self.waypoints.shape[1]

    def reversed(self) -> "LoopPath":
        return LoopPath(self.waypoints[::-1].copy())


@dataclass(frozen=True)
class EnergyAudit:
    """Net work of a spring field around a loop; passive if within tolerance."""

    net_work: float            # J
    passive: bool


def circle_path(dimension: int, plane: tuple, radius: float = 1.0,
                segments: int = 3600) -> LoopPath:
    """Counterclockwise circle in coordinate plane (i, j), 0-based, i < j."""
    i, j = plane
    theta = np.linspace(0.0, 2.0 * np.pi, segments + 1)
    w = np.zeros((segments + 1, dimension))
    w[:, i] = radius * np.cos(theta)
    w[:, j] = radius * np.sin(theta)
    w[-1] = w[0]  # exact closure
    return LoopPath(w)


def loop_work(k, path: LoopPath, tolerance: float = PASSIVE_TOLERANCE) -> EnergyAudit:
    """Net work of the spring force F(x) = K x around a closed path.

    Trapezoidal quadrature per segment, which is exact for the linear field
    along straight segments; only the polygonal approximation of a curved
    orbit contributes error.  audit_stiffness does not call it: this is the
    general-path quadrature that checks the closed form.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {k.shape}")
    w = path.waypoints
    if k.shape[0] != w.shape[1]:
        raise DimensionMismatch(
            f"matrix is {k.shape[0]}x{k.shape[0]} but path has dimension {w.shape[1]}"
        )
    forces = w @ k.T
    deltas = np.diff(w, axis=0)
    net = float(np.sum(0.5 * (forces[:-1] + forces[1:]) * deltas))
    return EnergyAudit(net, abs(net) <= tolerance)


def audit_stiffness(k, radius: float = 1.0, segments: int = 3600,
                    tolerance: float = PASSIVE_TOLERANCE) -> EnergyAudit:
    """Worst-case loop work over circles in every coordinate plane.

    Each plane (i, j), i < j, is audited on the same counterclockwise
    regular polygon that circle_path(d, (i, j), radius, segments) walks.
    By Green's theorem the work of F = K x around it is

        W_ij = A_poly * (K_ji - K_ij),   A_poly = (N/2) r^2 sin(2 pi / N),

    which is what loop_work's trapezoid sum computes exactly, up to
    rounding, since only the antisymmetric part of K does work around a
    closed loop.  The reported net_work is the first W_ij of largest
    magnitude in row-major plane order.  loop_work over circle_path stays
    the general-path oracle.  Non-finite entries, and finite ones whose
    work overflows, raise NonFinite.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise NonFinite("stiffness matrix has non-finite entries")
    if segments < 3:
        raise OpenPath("need at least 3 segments")
    area = 0.5 * segments * radius * radius * np.sin(2.0 * np.pi / segments)
    with np.errstate(over="ignore"):    # an overflowing work is the NonFinite case
        work = area * np.triu(k.T - k, 1)
    worst = float(work.flat[np.argmax(np.abs(work))]) if k.size else 0.0
    if not math.isfinite(worst):
        raise NonFinite(f"loop work overflows: {worst}")
    return EnergyAudit(worst, abs(worst) <= tolerance)
