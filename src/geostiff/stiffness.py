"""Joint-space stiffness with Christoffel correction, and symmetry diagnostics.

The joint stiffness is assembled in the d(tau)/dq layout: entry (i, j) is the
sensitivity of torque i to joint displacement j, so the kinematic term has
columns dJ^T/dq_j * F and the task-space term is the sandwich J^T (K + GF) J.
With the correction the result is symmetric; without it, external moments
make it asymmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import robot as robot_mod
from .connection import Frame, correction_matrix
from .errors import DimensionMismatch, FrameMismatch, NonFinite, NotSquare


@dataclass(frozen=True)
class TaskStiffness:
    """Designed task-space spring: symmetric 6x6 Hessian of the potential."""

    hessian: np.ndarray
    frame: Frame

    def __post_init__(self):
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (6, 6):
            raise DimensionMismatch(f"task stiffness must be 6x6, got {h.shape}")
        scale = np.linalg.norm(h)
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
    # entry (i, j) = sum_k dJ[k][i]/dq_j * F_k
    return (f @ robot_mod._jacobians(model, q, frame).derivative).T


def assemble_joint_stiffness(jac, d_tensor, hessian_matrix, wrench, frame: Frame,
                             with_correction: bool) -> np.ndarray:
    """Assemble dtau/dq from precomputed Jacobian and derivative tensor."""
    f = np.asarray(wrench, dtype=float)
    k_kin = (f @ d_tensor).T
    task = hessian_matrix
    if with_correction:
        task = task + correction_matrix(frame, f)
    return k_kin + jac.T @ task @ jac


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
    kin = robot_mod._jacobians(model, q, frame)     # no mass matrix needed
    matrix = assemble_joint_stiffness(
        kin.jacobian, kin.derivative, hessian.hessian, f, frame, with_correction
    )
    return JointStiffness(matrix)


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
    come from _sigma_max, here on a stack of one matrix.
    """
    m = _square(m)
    if m.size == 0:
        return SymmetryReport(0.0, 0.0, 0.0)
    s_sym, s_asym = (float(s[0]) for s in _sigma_max(m[None]))
    return SymmetryReport(s_sym, s_asym, s_asym / max(s_sym, 1e-12))


def _sigma_max(stack) -> tuple:
    """sigma_max of the symmetric and of the antisymmetric part of each
    matrix in a (c, n, n) stack, as two (c,) arrays.

    For the symmetric part the singular values are the absolute
    eigenvalues; for the antisymmetric part they are the roots of the
    eigenvalues of its Gram matrix.  One stacked eigvalsh gives both
    spectra of every matrix (no SVD).
    """
    sym = 0.5 * (stack + stack.transpose(0, 2, 1))
    asym = stack - sym
    eig = np.linalg.eigvalsh(np.concatenate((sym, asym @ asym.transpose(0, 2, 1))))
    c = len(stack)
    return (np.maximum(np.abs(eig[:c, 0]), np.abs(eig[:c, -1])),
            np.sqrt(np.maximum(eig[c:, -1], 0.0)))
