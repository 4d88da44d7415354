"""Independent reference implementations the tests compare the library with.

Each oracle is built from the raw model data with plain per-joint loops and
shares no code with the batched kinematics pass of geostiff.robot; the
Transform type, hat/vee, the adjoints and exp_twist exist for them alone.
"""

from dataclasses import dataclass

import numpy as np

from geostiff import robot
from geostiff.connection import Frame
from geostiff.errors import GeostiffError
from geostiff.se3 import skew

_SMALL_ANGLE = 1e-8


class MalformedMatrix(GeostiffError):
    """A 4x4 matrix does not have the hat structure."""


class BadAxis(GeostiffError):
    """A joint axis is neither a unit-rotation nor a unit-translation screw."""


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


def basis_twist(i):
    """Standard basis twist e_i (1-based)."""
    e = np.zeros(6)
    e[i - 1] = 1.0
    return e


def wrench_pairing(wrench, twist):
    """Duality pairing <F, xi>: the power of a wrench on a twist."""
    return float(np.dot(np.asarray(wrench, dtype=float), np.asarray(twist, dtype=float)))


def brute_force_fk(model, q):
    """Independent 4x4 chain product, rebuilt from the raw joint data."""
    t = np.eye(4)
    for joint, qi in zip(model.joints, q):
        t = t @ joint.home
        h = hat(joint.axis) * qi
        # matrix exponential by scaling and squaring of the truncated series
        e = np.eye(4)
        term = np.eye(4)
        for k in range(1, 25):
            term = term @ (h / 8.0) / k
            e = e + term
        for _ in range(3):
            e = e @ e
        t = t @ e
    return t @ model.end_effector


def link_frames(model, q):
    """Poses T_0i of every link frame (after joint motion), joint by joint."""
    out = []
    t = Transform.identity()
    for joint, qi in zip(model.joints, q):
        t = t.compose(Transform.from_matrix(joint.home)).compose(exp_twist(joint.axis, qi))
        out.append(t)
    return out


def link_jacobian(model, q, link_index):
    """Body Jacobian of link link_index's frame (6xn, zero past the link)."""
    frames = link_frames(model, q)
    t_inv = frames[link_index].inverse()
    jac = np.zeros((6, model.n))
    for i in range(link_index + 1):
        jac[:, i] = adjoint(t_inv.compose(frames[i])) @ model.joints[i].axis
    return jac


def spatial_inertia(link):
    """6x6 spatial inertia in the link frame, linear-first ordering."""
    ch = skew(link.com)
    g = np.zeros((6, 6))
    g[:3, :3] = link.mass * np.eye(3)
    g[:3, 3:] = -link.mass * ch
    g[3:, :3] = link.mass * ch
    g[3:, 3:] = link.inertia - link.mass * ch @ ch
    return g


def crba_mass_matrix(model, q):
    """Joint-space inertia by composite-rigid-body accumulation (Featherstone).

    Per-link spatial inertias are mapped to the base frame, accumulated from
    the tip inward, and contracted with the spatial joint screws.
    """
    n = model.n
    frames = link_frames(model, q)
    s = np.empty((6, n))          # spatial joint screws, base frame
    g0 = np.empty((n, 6, 6))      # link inertias, base frame
    prev = Transform.identity()
    for i, joint in enumerate(model.joints):
        s[:, i] = adjoint(prev.compose(Transform.from_matrix(joint.home))) @ joint.axis
        prev = frames[i]
        ad_inv = adjoint(frames[i].inverse())
        g0[i] = ad_inv.T @ spatial_inertia(model.links[i]) @ ad_inv
    # composite inertia seen by joint i: everything from link i outward
    composite = np.cumsum(g0[::-1], axis=0)[::-1]
    m = np.empty((n, n))
    for i in range(n):
        fi = composite[i] @ s[:, i]
        for j in range(i + 1):
            m[i, j] = m[j, i] = s[:, j] @ fi
    return m


def jacobian_central_difference(model, q, frame, step=1e-6):
    """(n,6,n) central differences of robot.jacobian: [alpha] = dJ/dq_alpha."""
    out = np.empty((model.n, 6, model.n))
    for a in range(model.n):
        dq = np.zeros(model.n)
        dq[a] = step
        out[a] = (robot.jacobian(model, q + dq, frame)
                  - robot.jacobian(model, q - dq, frame)) / (2 * step)
    return out


def twist_jacobian_central_difference(model, q, frame, step=1e-6):
    """6xn Jacobian in `frame` from central differences of brute_force_fk.

    Column a is the twist of dT/dq_a: vee(T^-1 dT) in BODY, vee(dT T^-1) in
    INERTIAL, and (dp, vee(dR R^T)) in HYBRID.
    """
    t = brute_force_fk(model, q)
    jac = np.empty((6, model.n))
    for a in range(model.n):
        dq = np.zeros(model.n)
        dq[a] = step
        dt = (brute_force_fk(model, q + dq) - brute_force_fk(model, q - dq)) / (2 * step)
        if frame == Frame.BODY:
            g = np.linalg.solve(t, dt)
        elif frame == Frame.INERTIAL:
            g = dt @ np.linalg.inv(t)
        else:
            g = np.zeros((4, 4))
            g[:3, :3] = dt[:3, :3] @ t[:3, :3].T
            g[:3, 3] = dt[:3, 3]
        # finite differencing leaves the rotation part only approximately
        # skew, so vee() would reject it
        w = 0.5 * (g[:3, :3] - g[:3, :3].T)
        jac[:, a] = [g[0, 3], g[1, 3], g[2, 3], w[2, 1], w[0, 2], w[1, 0]]
    return jac


def so3_log(r):
    """Rotation vector w, |w| < pi, with exp(skew(w)) = r, in closed form.

    The vee of r - r^T is 2 sin(theta) times the unit axis, and the angle
    comes from atan2, which stays accurate near theta = 0.
    """
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = np.linalg.norm(v)
    theta = np.arctan2(0.5 * s, 0.5 * (np.trace(r) - 1.0))
    return v * (0.5 if s == 0.0 else theta / s)


def chart_coordinates(t, t_s, frame):
    """Chart x = (translation, SO(3) log) of the pose t relative to t_s.

    BODY charts T_s^-1 T, INERTIAL charts T T_s^-1, and HYBRID takes
    (p - p_s, log(R R_s^T)).  The corrected joint stiffness is the Hessian
    at t = t_s of the potential 1/2 x^T H x + F^T x in this chart.
    """
    if frame == Frame.HYBRID:
        return np.concatenate([t[:3, 3] - t_s[:3, 3], so3_log(t[:3, :3] @ t_s[:3, :3].T)])
    t_s_inv = Transform.from_matrix(t_s).inverse().matrix()
    rel = t_s_inv @ t if frame == Frame.BODY else t @ t_s_inv
    return np.concatenate([rel[:3, 3], so3_log(rel[:3, :3])])


def richardson_hessian(fun, x, h=1e-3):
    """Hessian of the scalar function fun at x from central differences at
    steps h and h/2, Richardson-extrapolated: (4 H(h/2) - H(h)) / 3."""
    n = len(x)

    def central(step):
        e = np.eye(n) * step
        out = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                out[i, j] = out[j, i] = (
                    fun(x + e[i] + e[j]) - fun(x + e[i] - e[j])
                    - fun(x - e[i] + e[j]) + fun(x - e[i] - e[j])
                ) / (4 * step * step)
        return out

    return (4 * central(h / 2) - central(h)) / 3
