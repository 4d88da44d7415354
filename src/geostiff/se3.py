"""The cross-product matrix and the structure constants of se(3).

Component ordering is linear-first everywhere: entries 1-3 of a twist are the
linear part (m or m/s), entries 4-6 the angular part (rad or rad/s).  Wrenches
pair with twists componentwise, so entries 1-3 are force (N) and 4-6 moment
(N*m).  Indices in error messages are 1-based; storage is 0-based numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange


def skew(v) -> np.ndarray:
    """3x3 cross-product matrix: skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


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
