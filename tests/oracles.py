"""Independent reference implementations the tests compare the library with.

Each oracle is built from the raw model data with plain per-joint loops and
shares no code with the batched kinematics pass of geostiff.robot.
"""

import numpy as np

from geostiff import robot, se3
from geostiff.connection import Frame


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
        t = t @ joint.home.matrix()
        h = se3.hat(joint.axis) * qi
        # matrix exponential by scaling and squaring of the truncated series
        e = np.eye(4)
        term = np.eye(4)
        for k in range(1, 25):
            term = term @ (h / 8.0) / k
            e = e + term
        for _ in range(3):
            e = e @ e
        t = t @ e
    return t @ model.end_effector.matrix()


def link_frames(model, q):
    """Poses T_0i of every link frame (after joint motion), joint by joint."""
    out = []
    t = se3.Transform.identity()
    for joint, qi in zip(model.joints, q):
        t = t.compose(joint.home).compose(se3.exp_twist(joint.axis, qi))
        out.append(t)
    return out


def link_jacobian(model, q, link_index):
    """Body Jacobian of link link_index's frame (6xn, zero past the link)."""
    frames = link_frames(model, q)
    t_inv = frames[link_index].inverse()
    jac = np.zeros((6, model.n))
    for i in range(link_index + 1):
        jac[:, i] = se3.adjoint(t_inv.compose(frames[i])) @ model.joints[i].axis
    return jac


def spatial_inertia(link):
    """6x6 spatial inertia in the link frame, linear-first ordering."""
    ch = se3.skew(link.com)
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
    prev = se3.Transform.identity()
    for i, joint in enumerate(model.joints):
        s[:, i] = se3.adjoint(prev.compose(joint.home)) @ joint.axis
        prev = frames[i]
        ad_inv = se3.adjoint(frames[i].inverse())
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
