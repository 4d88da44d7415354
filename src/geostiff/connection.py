"""Christoffel symbols of the kinematic connection and the wrench correction.

Three coordinate conventions are supported:

* BODY      -- left-invariant connection, paired with the body Jacobian.
* INERTIAL  -- right-invariant connection (full index swap of the body
               table), paired with the spatial Jacobian.
* HYBRID    -- connection for the hybrid Jacobian (end-effector origin
               velocity in inertial axes): the rotational symbols are the
               index-swapped ones, the translational symbols vanish because
               the hybrid linear coordinate is genuinely Cartesian.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ValidationError


class Frame(enum.Enum):
    BODY = "body"
    INERTIAL = "inertial"
    HYBRID = "hybrid"

    @staticmethod
    def parse(name: str) -> "Frame":
        return Frame(name.lower())


def _build_body_table() -> np.ndarray:
    """Dense Gamma[m][i][j] table (0-based) of the body-frame connection."""
    g = np.zeros((6, 6, 6))
    entries = {
        # translational symbols
        (3, 2, 4): 1.0, (1, 3, 5): 1.0, (2, 1, 6): 1.0,
        (2, 3, 4): -1.0, (3, 1, 5): -1.0, (1, 2, 6): -1.0,
        # rotational symbols (the +/-0.5 split)
        (4, 6, 5): 0.5, (4, 5, 6): -0.5,
        (5, 4, 6): 0.5, (5, 6, 4): -0.5,
        (6, 5, 4): 0.5, (6, 4, 5): -0.5,
    }
    for (m, i, j), val in entries.items():
        g[m - 1, i - 1, j - 1] = val
    return g


_BODY = _build_body_table()
_INERTIAL = _BODY.transpose(0, 2, 1).copy()
_HYBRID = np.zeros((6, 6, 6))
_HYBRID[3:, 3:, 3:] = _INERTIAL[3:, 3:, 3:]
for _t in (_BODY, _INERTIAL, _HYBRID):
    _t.setflags(write=False)

_TABLES = {Frame.BODY: _BODY, Frame.INERTIAL: _INERTIAL, Frame.HYBRID: _HYBRID}


def christoffel_table(frame: Frame) -> np.ndarray:
    """Dense 6x6x6 array Gamma[m][i][j] (0-based indices) for the frame."""
    try:
        table = _TABLES.get(frame)
    except TypeError:           # unhashable
        table = None
    if table is None:
        raise ValidationError(f"frame must be a Frame, got {frame!r}")
    return table


def christoffel(frame: Frame, m: int, i: int, j: int) -> float:
    """Christoffel symbol Gamma^m_ij for the frame; indices are 1-based."""
    for name, idx in (("m", m), ("i", i), ("j", j)):
        if not 1 <= idx <= 6:
            raise IndexOutOfRange(f"index {name}={idx} outside 1..6")
    return float(christoffel_table(frame)[m - 1, i - 1, j - 1])


def correction_matrix(frame: Frame, wrench) -> np.ndarray:
    """Contract the Christoffel table of the frame with a wrench: the 6x6
    array C[i][j] = Gamma^m_ij F_m.

    For the BODY frame the result matches the standard printed pattern:
    nonzeros only in columns 4-6, with the force block skew(f) and the
    moment block skew(m)/2.
    """
    f = np.asarray(wrench, dtype=float)
    if f.shape != (6,):
        raise DimensionMismatch(f"wrench must have 6 components, got {f.shape}")
    return (f @ christoffel_table(frame).reshape(6, 36)).reshape(6, 6)
