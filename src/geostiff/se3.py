"""SE(3) transforms, twists, wrenches and the structure constants of se(3).

Component ordering is linear-first everywhere: entries 1-3 of a twist are the
linear part (m or m/s), entries 4-6 the angular part (rad or rad/s).  Wrenches
pair with twists componentwise, so entries 1-3 are force (N) and 4-6 moment
(N*m).  Indices in error messages are 1-based; storage is 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadAxis, IndexOutOfRange, MalformedMatrix

_SMALL_ANGLE = 1e-8


def skew(v) -> np.ndarray:
    """3x3 cross-product matrix: skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass(frozen=True)
class Transform:
    """Rigid-body pose: rotation (3x3, det +1) and translation (m)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(3), np.zeros(3))

    def compose(self, other: "Transform") -> "Transform":
        return Transform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Transform":
        rt = self.rotation.T
        return Transform(rt, -rt @ self.translation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m) -> "Transform":
        m = np.asarray(m, dtype=float)
        return Transform(m[:3, :3].copy(), m[:3, 3].copy())

    def orthogonality_defect(self) -> float:
        return float(np.linalg.norm(self.rotation.T @ self.rotation - np.eye(3)))

    def renormalized(self) -> "Transform":
        """Project the rotation back onto SO(3) via SVD."""
        u, _, vt = np.linalg.svd(self.rotation)
        r = u @ vt
        if np.linalg.det(r) < 0:
            r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
        return Transform(r, self.translation)


def hat(xi) -> np.ndarray:
    """Map a 6-twist (v, w) to its 4x4 matrix form [[skew(w), v], [0, 0]]."""
    xi = np.asarray(xi, dtype=float)
    m = np.zeros((4, 4))
    m[:3, :3] = skew(xi[3:6])
    m[:3, 3] = xi[0:3]
    return m


def vee(m) -> np.ndarray:
    """Inverse of hat.  Raises MalformedMatrix if m lacks the hat structure."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise MalformedMatrix(f"expected 4x4 matrix, got shape {m.shape}")
    if np.max(np.abs(m[3, :])) > 1e-12:
        raise MalformedMatrix("bottom row must be zero")
    if np.max(np.abs(m[:3, :3] + m[:3, :3].T)) > 1e-12:
        raise MalformedMatrix("upper-left 3x3 block must be skew-symmetric")
    return np.concatenate([m[:3, 3], m[[2, 0, 1], [1, 2, 0]]])   # w from skew(w)


def exp_twist(axis, angle: float) -> Transform:
    """Exponential of a unit screw axis scaled by angle.

    The axis must have a unit angular part (revolute) or a zero angular part
    with unit linear part (prismatic); otherwise BadAxis is raised.
    """
    axis = np.asarray(axis, dtype=float)
    v, w = axis[0:3], axis[3:6]
    wn = np.linalg.norm(w)
    if abs(wn - 1.0) > 1e-9:
        if wn > 1e-9 or abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise BadAxis(
                "axis must have unit angular part, or zero angular part "
                "with unit linear part"
            )
        return Transform(np.eye(3), v * angle)

    theta = angle
    wh = skew(w)
    if abs(theta) < _SMALL_ANGLE:
        # second-order series; avoids 0/0 in the closed form
        r = np.eye(3) + wh * theta + wh @ wh * (theta**2 / 2.0)
        p = (np.eye(3) * theta + wh * (theta**2 / 2.0)) @ v
        return Transform(r, p)
    s, c = np.sin(theta), np.cos(theta)
    r = np.eye(3) + s * wh + (1.0 - c) * (wh @ wh)
    g = np.eye(3) * theta + (1.0 - c) * wh + (theta - s) * (wh @ wh)
    return Transform(r, g @ v)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint of a transform, [[R, skew(p) R], [0, R]] (linear-first)."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = t.rotation
    ad[:3, 3:] = skew(t.translation) @ t.rotation
    ad[3:, 3:] = t.rotation
    return ad


def ad(xi) -> np.ndarray:
    """6x6 little adjoint: ad(x) @ y == bracket(x, y)."""
    xi = np.asarray(xi, dtype=float)
    m = np.zeros((6, 6))
    vh, wh = skew(xi[0:3]), skew(xi[3:6])
    m[:3, :3] = wh
    m[:3, 3:] = vh
    m[3:, 3:] = wh
    return m


def _build_structure_constants() -> np.ndarray:
    """Dense C[k][i][j] table (0-based) of the se(3) structure constants."""
    c = np.zeros((6, 6, 6))
    plus = [
        (3, 1, 5), (1, 2, 6), (2, 3, 4), (6, 4, 5), (4, 5, 6),
        (2, 6, 1), (3, 4, 2), (1, 5, 3), (5, 6, 4),
    ]
    for k, i, j in plus:
        c[k - 1, i - 1, j - 1] = 1.0
        c[k - 1, j - 1, i - 1] = -1.0
    return c


STRUCTURE_CONSTANTS = _build_structure_constants()
STRUCTURE_CONSTANTS.setflags(write=False)


def structure_constant(k: int, i: int, j: int) -> float:
    """Structure constant C^k_ij of se(3); indices are 1-based."""
    for name, idx in (("k", k), ("i", i), ("j", j)):
        if not 1 <= idx <= 6:
            raise IndexOutOfRange(f"index {name}={idx} outside 1..6")
    return float(STRUCTURE_CONSTANTS[k - 1, i - 1, j - 1])
