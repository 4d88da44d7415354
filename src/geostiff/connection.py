"""Christoffel symbols of the kinematic connection and the wrench correction.

Three coordinate conventions are supported:

* BODY      -- left-invariant connection, paired with the body Jacobian.
* INERTIAL  -- right-invariant connection (full index swap of the body
               table), paired with the spatial Jacobian.
* HYBRID    -- connection for the hybrid Jacobian (end-effector origin
               velocity in inertial axes): the rotational symbols are the
               index-swapped ones, the translational symbols vanish because
               the hybrid linear coordinate is genuinely Cartesian.

These are the symbols of the chart x = (translation, SO(3) log) of the pose
T relative to the current pose T_s: T_s^-1 T for BODY, T T_s^-1 for
INERTIAL, and (p - p_s, log(R R_s^T)) for HYBRID.  In it the corrected
joint stiffness is the Hessian of the potential 1/2 x^T H x + F^T x.

The joint stiffness is frame-local: with the frame's own Jacobian J, and
W(F) = F . C the wrench contracted with the se(3) structure constants,

    K = J^T (H + Gamma F + kappa_f(F)) J + s_f tri_f(J^T W(F) J),

where tri_f is the strict upper triangle with s_f = +1 for BODY and HYBRID
and the strict lower one with s_f = -1 for INERTIAL, and
kappa_HYBRID(F) = -W(F) diag(0, 0, 0, 1, 1, 1) is the only nonzero kappa.
So a frame contributes Gamma F and W(F) alone, and no derivative of J is
needed (stiffness.assemble_joint_stiffness).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ValidationError, as_array
from .se3 import table_index


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


def check_frame(frame) -> Frame:
    """frame itself, or ValidationError unless it is a Frame."""
    if not isinstance(frame, Frame):
        raise ValidationError(f"frame must be a Frame, got {frame!r}")
    return frame


def christoffel_table(frame: Frame) -> np.ndarray:
    """Dense 6x6x6 array Gamma[m][i][j] (0-based indices) for the frame."""
    return _TABLES[check_frame(frame)]


def christoffel(frame: Frame, m: int, i: int, j: int) -> float:
    """Christoffel symbol Gamma^m_ij for the frame; indices are 1-based."""
    index = table_index("mij", m, i, j)
    return float(christoffel_table(frame)[index])


def correction_matrix(frame: Frame, wrench) -> np.ndarray:
    """Contract the Christoffel table of the frame with a wrench: the 6x6
    array C[i][j] = Gamma^m_ij F_m.

    For the BODY frame the result matches the standard printed pattern:
    nonzeros only in columns 4-6, with the force block skew(f) and the
    moment block skew(m)/2.
    """
    f = as_array(wrench, "wrench", (6,), finite=False)
    table = christoffel_table(frame).reshape(6, 36)
    return (as_array(f, "wrench") @ table).reshape(6, 6)     # errors: shape, frame, finite
