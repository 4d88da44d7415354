"""Joint-space impedance-control simulation with stiffness diagnostics.

The plant is M(q) qdd = tau + J^T F_ext (gravity and Coriolis terms are
assumed perfectly compensated), integrated with fixed-step semi-implicit
Euler at the controller rate.  The controller is tau = K (q0 - q) - B qdot,
with K the (optionally corrected) joint-space stiffness recomputed every
step and B designed by double diagonalization of (K, M), applied through
the modal factor of (K, M) without forming B.

Wrench profiles are expressed in the hybrid convention: force along base
axes, moment about the end-effector origin in base axes.  They are converted
to the configured frame with the current forward-kinematics pose: rotated
into end-effector axes for BODY, and with the moment taken about the base
origin for INERTIAL.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import robot as robot_mod
from . import se3
from . import stiffness as st
from .connection import Frame
from .errors import (
    DimensionMismatch,
    GeostiffError,
    IntegrationDiverged,
    NegativeEigenvalue,
    NonPositiveDefinite,
    ValidationError,
)

DIVERGENCE_SPEED = 1e3  # rad/s
_DIAGNOSTIC_CHUNK = 1024  # steps per batched eigvalsh of the logged sigma columns
_EPS = float(np.finfo(float).eps)
_PSD_FLOOR = -1e-9   # the least eigenvalue a stiffness's symmetric part may have


@dataclass(frozen=True)
class ControllerConfig:
    task_hessian: st.TaskStiffness
    damping_ratio: float
    frame: Frame
    with_correction: bool
    rate: float  # Hz

    def __post_init__(self):
        if not 0.0 < self.damping_ratio <= 2.0:
            raise ValidationError("damping_ratio must be in (0, 2]")
        if not 100.0 <= self.rate <= 10000.0:
            raise ValidationError("rate must be in [100, 10000] Hz")
        if self.task_hessian.frame != self.frame:
            raise ValidationError("task_hessian frame must match controller frame")


class _SampledPath:
    """Time-sampled vector path with linear interpolation and end clamping."""

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.ndim != 2 or len(times) != len(values):
            raise DimensionMismatch("times and samples must have matching lengths")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValidationError("sample times must be finite and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("samples must be finite")
        self.times = times
        self.values = values

    def evaluate(self, t) -> np.ndarray:
        """Interpolated sample at time t; t may also be an array of times."""
        out = np.stack([
            np.interp(t, self.times, self.values[:, c])
            for c in range(self.values.shape[1])
        ], axis=-1)
        return out

    @classmethod
    def from_csv(cls, path):
        """Samples from a CSV headed t,PREFIX1,PREFIX2,..., as to_csv writes
        it; a malformed file raises a GeostiffError naming it."""
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                rows = [[float(x) for x in row] for row in reader if row]
            if header != ["t"] + [f"{cls.PREFIX}{c}" for c in range(1, len(header))]:
                raise ValidationError(f"header must be t,{cls.PREFIX}1,..., got {header}")
            if not rows or any(len(row) != len(header) for row in rows):
                raise ValidationError(f"need one or more rows of {len(header)} numbers")
            data = np.array(rows)
            return cls(data[:, 0], data[:, 1:])
        except ValueError as exc:       # undecodable text or a non-numeric cell
            raise ValidationError(f"{path}: {exc}") from exc
        except GeostiffError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    def to_csv(self, path):
        header = ["t"] + [f"{self.PREFIX}{c + 1}" for c in range(self.values.shape[1])]
        _write_csv(path, header, np.column_stack([self.times, self.values]))


class WrenchProfile(_SampledPath):
    """Time series of external wrenches, columns F1..F6."""

    PREFIX = "F"

    def __init__(self, times, wrenches):
        super().__init__(times, wrenches)
        if self.values.shape[1] != 6:
            raise DimensionMismatch("wrench samples must have 6 components")

    @staticmethod
    def zero(duration: float) -> "WrenchProfile":
        return WrenchProfile([0.0, duration], np.zeros((2, 6)))

    @staticmethod
    def ramp(duration: float, final_wrench) -> "WrenchProfile":
        """Linear ramp from zero to final_wrench over the full duration."""
        return WrenchProfile([0.0, duration], np.vstack([np.zeros(6), final_wrench]))


class JointPath(_SampledPath):
    """Time series of equilibrium joint configurations, columns q1..qn."""

    PREFIX = "q"

    @staticmethod
    def constant(q, duration: float) -> "JointPath":
        q = np.asarray(q, dtype=float)
        return JointPath([0.0, duration], np.vstack([q, q]))


@dataclass(frozen=True)
class SimTrace:
    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    tau: np.ndarray
    f_ext: np.ndarray
    sigma_max_sym: np.ndarray
    sigma_max_asym: np.ndarray

    def to_csv(self, path):
        n = self.q.shape[1]
        header = (
            ["t"]
            + [f"q{i + 1}" for i in range(n)]
            + [f"qd{i + 1}" for i in range(n)]
            + [f"tau{i + 1}" for i in range(n)]
            + [f"F{i + 1}" for i in range(6)]
            + ["sigma_max_sym", "sigma_max_asym"]
        )
        data = np.column_stack([
            self.t, self.q, self.qdot, self.tau, self.f_ext,
            self.sigma_max_sym, self.sigma_max_asym,
        ])
        _write_csv(path, header, data)


def _write_csv(path, header, data):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def design_damping(k_joint, m_inertia, damping_ratio: float) -> np.ndarray:
    """Double-diagonalization damping: B = 2 zeta M^1/2 (M^-1/2 K M^-1/2)^1/2 M^1/2.

    M and K must be finite (NonFinite) and M must be SPD (NonPositiveDefinite);
    M is checked first, so a bad M wins over a bad K.  Then this is the
    simulator step's own design, _damping_from_factor, with its PSD rule for
    the symmetric part of K (NegativeEigenvalue below -1e-9; smaller
    negative eigenvalues are clamped to zero), and B = 2 zeta Z Z^T with
    Z = M X diag(mu)^1/4.
    """
    k = np.asarray(k_joint, dtype=float)
    m = np.asarray(m_inertia, dtype=float)
    if k.shape != m.shape or k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionMismatch("stiffness and inertia must be square and same size")
    robot_mod._require_finite("inertia", m)
    robot_mod._require_finite("stiffness", k)
    m_sym = 0.5 * (m + m.T)
    m_vals, m_vecs = np.linalg.eigh(m_sym)
    if m_vals[0] <= 0:
        raise NonPositiveDefinite("inertia matrix must be positive definite")
    x, mu = _damping_from_factor(0.5 * (k + k.T), m_vals, m_vecs)
    z = (m_sym @ x) * mu ** 0.25
    return (2.0 * damping_ratio) * (z @ z.T)


def _check_psd(k_min: float) -> None:
    """Reject a stiffness whose symmetric part has eigenvalue k_min < -1e-9."""
    if k_min < _PSD_FLOOR:
        raise NegativeEigenvalue(f"stiffness has negative eigenvalue {k_min:.3e}")


def _check_psd_congruent(k_sym, mu_min: float, m_vals) -> None:
    """_check_psd of K_sym, decided where it can be from the smallest
    eigenvalue mu_min of A^T K_sym A, A = V diag(m_vals)^-1/2.

    The two matrices are congruent, so by Ostrowski's theorem (Horn &
    Johnson, Matrix Analysis, Thm 4.5.9) lambda_min(K_sym) = mu_min phi
    with phi in [m_min, m_max].  K_sym passes without a further solve when
    (mu_min - margin) m_max >= -1e-9.  The margin bounds, in units of mu,
    the rounding of forming A^T K_sym A (at most ~2 n^2 eps ||K||_F / m_min
    with ||A||_F^2 <= n / m_min), of its eigh, and of the eigvalsh of K_sym
    that this check stands in for.  Every other case, each rejection
    included, is decided by that eigvalsh.
    """
    n = len(m_vals)
    k_flat = k_sym.ravel()
    margin = 4 * n * n * _EPS * math.sqrt(k_flat @ k_flat) / m_vals[0]
    if (mu_min - margin) * m_vals[-1] < _PSD_FLOOR:
        _check_psd(np.linalg.eigvalsh(k_sym)[0])


def _damping_from_factor(k_sym, m_vals, m_vecs) -> tuple:
    """Modal factor (X, mu) of symmetric PSD K and SPD M = V diag(m_vals) V^T.

    With A = V diag(m_vals)^-1/2 and A^T K A = U diag(mu) U^T, X = A U
    diagonalises both: X^T M X = I and X^T K X = diag(mu).  So M^-1 = X X^T,
    and the damping B = 2 zeta M^1/2 (M^-1/2 K M^-1/2)^1/2 M^1/2 is
    2 zeta Z Z^T with Z = M X diag(mu)^1/4.  mu decides the PSD check of K
    (_check_psd_congruent, NegativeEigenvalue if K fails), with eigvalsh(K)
    where it cannot; the returned mu has negative values clamped to zero.
    """
    a = m_vecs / np.sqrt(m_vals)
    mu, u = np.linalg.eigh(a.T @ k_sym @ a)    # reads the lower triangle only
    _check_psd_congruent(k_sym, mu[0], m_vals)
    return a @ u, np.maximum(mu, 0.0)


def _wrench_in_frame(f_hybrid, pose, frame: Frame) -> np.ndarray:
    """The hybrid wrench in the controller frame at end-effector pose `pose`."""
    if frame == Frame.HYBRID:
        return f_hybrid
    if frame == Frame.INERTIAL:
        # same force; moment about the base origin, m + p x f
        f = f_hybrid[:3]
        return np.concatenate((f, f_hybrid[3:] + se3.skew(pose[:3, 3]) @ f))
    # body: force and moment rows f^T R are (R^T f)^T
    return (f_hybrid.reshape(2, 3) @ pose[:3, :3]).ravel()


def simulate(model, controller: ControllerConfig, q0_trajectory: JointPath,
             wrench: WrenchProfile, duration: float, q_init=None) -> SimTrace:
    """Run the impedance-control simulation and log stiffness diagnostics.

    The state starts at rest at q_init (default: the trajectory's first
    sample, so the run begins at equilibrium).  A GeostiffError raised by a
    step keeps its class and names the step, its time t and q.  The logged
    sigma columns are computed after the loop from the stored stiffness of
    every step, in batches of _DIAGNOSTIC_CHUNK steps.
    """
    span = duration * controller.rate
    steps = int(round(span)) if math.isfinite(span) else 0
    if steps <= 0:
        raise ValidationError(
            f"duration {duration} s gives no step at {controller.rate:g} Hz")
    n = model.n
    if q0_trajectory.values.shape[1] != n:
        raise DimensionMismatch(
            f"trajectory has {q0_trajectory.values.shape[1]} columns, model has {n} joints"
        )
    dt = 1.0 / controller.rate
    frame = controller.frame
    hessian, with_correction = controller.task_hessian.hessian, controller.with_correction
    two_zeta = 2.0 * controller.damping_ratio

    times = np.arange(steps) * dt
    q0_samples = q0_trajectory.evaluate(times)
    f_samples = wrench.evaluate(times)

    if q_init is None:
        q = q0_samples[0].copy()
    else:
        q = np.asarray(q_init, dtype=float).copy()
        if q.shape != (n,):
            raise DimensionMismatch(f"q_init must have {n} components")
    qd = np.zeros(n)
    out_q = np.empty((steps, n))
    out_qd = np.empty((steps, n))
    out_tau = np.empty((steps, n))
    out_k = np.empty((steps, n, n))

    for k in range(steps):
        try:
            kin = robot_mod.full_kinematics(model, q, frame)
            f = _wrench_in_frame(f_samples[k], kin.pose, frame)
            k_joint = st.assemble_joint_stiffness(kin.jacobian, hessian, f, frame,
                                                  with_correction)
            k_sym = 0.5 * (k_joint + k_joint.T)
            x, mu = _damping_from_factor(k_sym, kin.mass_eigvals, kin.mass_eigvecs)
            z = (kin.mass @ x) * mu ** 0.25       # B = 2 zeta Z Z^T, never formed
            tau = k_joint @ (q0_samples[k] - q) - two_zeta * (z @ (qd @ z))

            out_q[k] = q
            out_qd[k] = qd
            out_tau[k] = tau
            out_k[k] = k_joint

            qdd = x @ ((tau + kin.jacobian.T @ f) @ x)     # M^-1 = X X^T
            qd = qd + dt * qdd
            speed = math.sqrt(qd @ qd)
            if speed > DIVERGENCE_SPEED:
                raise IntegrationDiverged(f"joint speed {speed:.1f} rad/s")
            q = q + dt * qd
        except GeostiffError as exc:
            raise type(exc)(
                f"{exc} at step {k}, t={times[k]:.3f} s, q={q.tolist()}"
            ) from exc

    out_sym = np.empty(steps)
    out_asym = np.empty(steps)
    for s in range(0, steps, _DIAGNOSTIC_CHUNK):
        chunk = slice(s, s + _DIAGNOSTIC_CHUNK)
        peak, s_sym, s_asym = st._sigma_max(out_k[chunk])
        out_sym[chunk], out_asym[chunk] = peak * s_sym, peak * s_asym
    return SimTrace(times, out_q, out_qd, out_tau, f_samples, out_sym, out_asym)


def semicircle_trajectory(model, q_start, duration: float, radius: float = 0.1,
                          samples: int = 201, damping: float = 0.01,
                          max_iters: int = 200, tol: float = 1e-8) -> JointPath:
    """Equilibrium trajectory wiping a semicircular arc with the end-effector.

    The arc lies in the base x-y plane through the starting end-effector
    position; joint samples come from damped-least-squares inverse kinematics
    seeded with the previous sample.
    """
    q = np.asarray(q_start, dtype=float).copy()
    p_start = robot_mod.forward_kinematics(model, q)[:3, 3]
    center = p_start - np.array([radius, 0.0, 0.0])
    angles = np.linspace(0.0, np.pi, samples)
    times = np.linspace(0.0, duration, samples)
    qs = np.empty((samples, model.n))
    lam2 = damping * damping
    for s, ang in enumerate(angles):
        target = center + radius * np.array([np.cos(ang), np.sin(ang), 0.0])
        for _ in range(max_iters):
            err = target - robot_mod.forward_kinematics(model, q)[:3, 3]
            if np.linalg.norm(err) < tol:
                break
            jp = robot_mod.jacobian(model, q, Frame.HYBRID)[:3]
            q = q + jp.T @ np.linalg.solve(jp @ jp.T + lam2 * np.eye(3), err)
        else:
            raise ValidationError(
                f"inverse kinematics did not converge at sample {s}"
            )
        qs[s] = q
    return JointPath(times, qs)
