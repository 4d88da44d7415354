"""Joint-space stiffness with Christoffel correction, and symmetry diagnostics.

The joint stiffness is assembled in the d(tau)/dq layout: entry (i, j) is the
sensitivity of torque i to joint displacement j.  It is the kinematic term,
whose columns are dJ^T/dq_j F, plus the task-space sandwich J^T (H + Gamma F) J.
With the correction the result is symmetric; without it, external moments
make it asymmetric.

The kinematic term needs no (n, 6, n) derivative of J: the frame's own
Jacobian gives it once the wrench is contracted first.  Let
W(F)_ab = sum_k F_k C^k_ab, with C the se(3) structure constants, so that
F . [x, y] = x^T W(F) y.  The columns of J move by Lie brackets of each
other (robot.jacobian_transpose_derivative), so

    K_kin = s_f tri_f(J^T W(F) J) + J^T kappa_f(F) J

where tri_f is the strict upper triangle with s_f = +1 for BODY and HYBRID,
the strict lower triangle with s_f = -1 for INERTIAL, and
kappa_HYBRID(F) = -W(F) diag(0, 0, 0, 1, 1, 1) carries the rotation of the
hybrid axes (kappa is zero in the other frames).  One product f @ table
gives H's companions Gamma F + kappa_f(F) and W(F), one stacked sandwich
the two n x n terms, and a cached signed mask s_f tri_f adds the second.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import robot as robot_mod
from . import se3
# correction_matrix stays importable from here, where perfbench/tracing.py wraps it
from .connection import Frame, christoffel_table, correction_matrix  # noqa: F401
from .errors import DimensionMismatch, FrameMismatch, NonFinite, NotSquare, ValidationError

_TINY = float(np.finfo(float).tiny)     # the scale of a zero matrix in _sigma_max


def _contraction_table(frame: Frame, with_correction: bool) -> np.ndarray:
    """(6, 72) table: f @ table is [Gamma F + kappa_f(F), W(F)], flattened."""
    bracket = se3.STRUCTURE_CONSTANTS                  # W(F) = F @ bracket
    task = christoffel_table(frame) if with_correction else np.zeros((6, 6, 6))
    if frame == Frame.HYBRID:
        task = task - bracket * [0, 0, 0, 1, 1, 1]     # kappa_HYBRID
    table = np.concatenate((task.reshape(6, 36), bracket.reshape(6, 36)), axis=1)
    table.setflags(write=False)
    return table


_CONTRACTIONS = {(frame, corrected): _contraction_table(frame, corrected)
                 for frame in Frame for corrected in (False, True)}


@functools.cache
def _bracket_triangle(n: int, frame: Frame) -> np.ndarray:
    """s_f tri_f as an (n, n) mask: +1 strictly above the diagonal for BODY
    and HYBRID, -1 strictly below it for INERTIAL."""
    lower = np.tri(n, k=-1)
    mask = -lower if frame == Frame.INERTIAL else lower.T.copy()
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class TaskStiffness:
    """Designed task-space spring: symmetric 6x6 Hessian of the potential."""

    hessian: np.ndarray
    frame: Frame

    def __post_init__(self):
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (6, 6):
            raise DimensionMismatch(f"task stiffness must be 6x6, got {h.shape}")
        # Frobenius norm in Python floats, whose overflow gives inf, not a warning
        flat = h.ravel().tolist()
        scale = math.sqrt(sum(map(operator.mul, flat, flat)))
        if not math.isfinite(scale):
            raise NonFinite(f"task stiffness must be finite, its norm is {scale}")
        if np.linalg.norm(h - h.T) > 1e-9 * max(1.0, scale):
            raise DimensionMismatch("task stiffness must be symmetric")
        object.__setattr__(self, "hessian", h)

    @staticmethod
    def from_numbers(values, frame: Frame) -> "TaskStiffness":
        """Spring from 6 numbers (the diagonal) or 36 (the matrix, row-major)."""
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 6:
            return TaskStiffness(np.diag(v), frame)
        if v.size == 36:
            return TaskStiffness(v.reshape(6, 6), frame)
        raise DimensionMismatch(
            f"task stiffness takes 6 (diagonal) or 36 numbers, got {v.size}")

    @staticmethod
    def diagonal(k_translation: float, k_rotation: float, frame: Frame) -> "TaskStiffness":
        """Block-diagonal spring diag(k_t I3, k_r I3)."""
        h = np.diag([k_translation] * 3 + [k_rotation] * 3).astype(float)
        return TaskStiffness(h, frame)


@dataclass(frozen=True)
class JointStiffness:
    matrix: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    sigma_max_sym: float
    sigma_max_asym: float
    asym_ratio: float


def kinematic_stiffness(model, q, wrench, frame: Frame) -> np.ndarray:
    """Configuration-dependence of the torque map: columns dJ^T/dq_j * F."""
    f = np.asarray(wrench, dtype=float)
    if f.shape != (6,):
        raise DimensionMismatch(f"wrench must have 6 components, got {f.shape}")
    robot_mod._require_finite("wrench", f)
    jac = robot_mod._jacobians(model, q, frame).jacobian
    return assemble_joint_stiffness(jac, np.zeros((6, 6)), f, frame, False)


def assemble_joint_stiffness(jac, hessian_matrix, wrench, frame: Frame,
                             with_correction: bool) -> np.ndarray:
    """dtau/dq from the Jacobian in frame, the task Hessian and the wrench:
    J^T (H + Gamma F + kappa_f(F)) J + s_f tri_f(J^T W(F) J)."""
    f = np.asarray(wrench, dtype=float)
    try:
        table = _CONTRACTIONS[frame, bool(with_correction)]
    except (KeyError, TypeError):       # unknown or unhashable
        raise ValidationError(f"frame must be a Frame, got {frame!r}") from None
    stack = (f @ table).reshape(2, 6, 6)
    stack[0] += hessian_matrix
    task, bracket = jac.T @ stack @ jac
    return task + bracket * _bracket_triangle(len(bracket), frame)


def joint_stiffness(model, q, hessian: TaskStiffness, wrench, frame: Frame,
                    with_correction: bool = True) -> JointStiffness:
    """Joint-space stiffness dtau/dq under a task spring and external wrench.

    With the correction the assembly is K_kin + J^T (H + Gamma F) J and is
    symmetric; without it (the conventional baseline) the Gamma F term is
    dropped and moments leave an antisymmetric residue.
    """
    if hessian.frame != frame:
        raise FrameMismatch(
            f"task stiffness is {hessian.frame.value}, requested frame {frame.value}"
        )
    f = np.asarray(wrench, dtype=float)
    if f.shape != (6,):
        raise DimensionMismatch(f"wrench must have 6 components, got {f.shape}")
    robot_mod._require_finite("wrench", f)
    jac = robot_mod._jacobians(model, q, frame).jacobian     # no mass matrix needed
    return JointStiffness(assemble_joint_stiffness(jac, hessian.hessian, f, frame,
                                                   with_correction))


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {m.shape}")
    return m


def symmetry_decompose(m) -> tuple:
    """Split a square matrix into (symmetric, antisymmetric) parts."""
    m = _square(m)
    sym = 0.5 * (m + m.T)
    return sym, m - sym


def symmetry_report(m) -> SymmetryReport:
    """Largest singular values of the symmetric and antisymmetric parts.

    The simulator logs the same two values for a whole run at once: both
    come from _sigma_max, here on a stack of one matrix.  Raises NonFinite
    for a non-finite matrix, or when sigma itself overflows the float range.
    """
    m = _square(m)
    if m.size == 0:
        return SymmetryReport(0.0, 0.0, 0.0)
    robot_mod._require_finite("matrix", m)
    try:
        peak, s_sym, s_asym = (float(s[0]) for s in _sigma_max(m[None]))
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"sigma_max has no solution for this matrix: {exc}") from exc
    s_sym, s_asym = peak * s_sym, peak * s_asym     # floats: inf, not a warning
    if not math.isfinite(s_sym + s_asym):
        raise NonFinite(f"sigma_max overflows for this matrix: {s_sym}, {s_asym}")
    return SymmetryReport(s_sym, s_asym, s_asym / max(s_sym, 1e-12))


def _sigma_max(stack) -> tuple:
    """sigma_max of the symmetric and of the antisymmetric part of each
    matrix in a (c, n, n) stack, as (peak, sym, asym): three (c,) arrays,
    the two sigma in units of peak, the largest absolute entry of each
    matrix (or the least normal float, for a zero matrix).

    Both sigma are positively homogeneous, so each matrix is divided by its
    peak first, which keeps its Gram matrix from overflowing or
    underflowing; the caller scales sigma back.  For the symmetric part the
    singular values are the absolute eigenvalues; for the antisymmetric
    part they are the roots of the eigenvalues of its Gram matrix.  One
    stacked eigvalsh gives both spectra of every matrix (no SVD).
    """
    peak = np.abs(stack).max(axis=(1, 2), keepdims=True, initial=_TINY)
    scaled = stack / peak
    sym = 0.5 * (scaled + scaled.transpose(0, 2, 1))
    asym = scaled - sym
    eig = np.linalg.eigvalsh(np.concatenate((sym, asym @ asym.transpose(0, 2, 1))))
    c = len(stack)
    return (peak.ravel(), np.maximum(np.abs(eig[:c, 0]), np.abs(eig[:c, -1])),
            np.sqrt(np.maximum(eig[c:, -1], 0.0)))
