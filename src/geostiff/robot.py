"""Serial-chain robot model: loading, kinematics, Jacobians and inertia.

Kinematics use a local product-of-exponentials: each joint carries a fixed
home transform from its parent frame and a unit screw axis expressed in its
own frame, so the pose after joint i is

    T_0i = T_0(i-1) * home_i * exp(axis_i * q_i)

and the end-effector pose appends a fixed offset.  Link i (mass, com,
inertia) is expressed in the frame of joint i after motion.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import weakref
from dataclasses import dataclass

import numpy as np

from . import se3
from .connection import Frame
from .errors import (
    BadAxis,
    DimensionMismatch,
    NonPositiveDefinite,
    SchemaError,
    ValidationError,
)

_POSE_KEYS = {"rotation", "translation"}
_JOINT_KEYS = {"axis", "kind", "home", "limits"}
_LINK_KEYS = {"mass", "com", "inertia"}
_TOP_KEYS = {"name", "joints", "links", "end_effector"}


@dataclass(frozen=True)
class Joint:
    axis: np.ndarray          # unit screw, 6-vector, joint frame
    kind: str                 # "revolute" | "prismatic"
    home: se3.Transform       # parent frame -> joint frame
    limit_lower: float
    limit_upper: float


@dataclass(frozen=True)
class Link:
    mass: float
    com: np.ndarray           # m, link frame
    inertia: np.ndarray       # 3x3 kg m^2 about the com, link frame


@dataclass(frozen=True, eq=False)
class RobotModel:
    name: str
    joints: tuple
    links: tuple
    end_effector: se3.Transform

    @property
    def n(self) -> int:
        return len(self.joints)

    def limits(self) -> np.ndarray:
        return np.array([[j.limit_lower, j.limit_upper] for j in self.joints])


@dataclass(frozen=True)
class JointState:
    q: np.ndarray
    qdot: np.ndarray


@dataclass(frozen=True)
class JacobianDerivative:
    """Rank-3 array D[alpha][k][beta] = d(J[k][beta]) / d(q[alpha])."""

    tensor: np.ndarray        # (n, 6, n)
    frame: Frame


def _pose_from_doc(doc, path: str) -> se3.Transform:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected object with rotation/translation")
    unknown = set(doc) - _POSE_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        rot = np.asarray(doc["rotation"], dtype=float).reshape(3, 3)
        trans = np.array(doc["translation"], dtype=float).reshape(3)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    t = se3.Transform(rot, trans)
    if t.orthogonality_defect() > 1e-9 or np.linalg.det(rot) < 0:
        raise ValidationError(f"{path}.rotation: not a proper rotation matrix")
    t = t.renormalized()
    _read_only(t.rotation, t.translation)
    return t


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def load_model(document) -> RobotModel:
    """Build a RobotModel from a JSON string or an already-parsed dict.

    Raises SchemaError for structural problems and ValidationError for
    documents that parse but violate a model invariant.  Every array of the
    model is a read-only copy, so a model can be shared between callers.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"top level: unknown keys {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SchemaError(f"top level: missing key '{key}'")

    joints = []
    if not isinstance(doc["joints"], list) or len(doc["joints"]) < 1:
        raise ValidationError("joints: need at least one joint")
    for idx, jd in enumerate(doc["joints"]):
        path = f"joints[{idx}]"
        if not isinstance(jd, dict):
            raise SchemaError(f"{path}: expected object")
        unknown = set(jd) - _JOINT_KEYS
        if unknown:
            raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
        try:
            axis = np.array(jd["axis"], dtype=float).reshape(6)
            kind = jd["kind"]
            home = _pose_from_doc(jd["home"], f"{path}.home")
            lo, hi = (float(x) for x in jd["limits"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if kind not in ("revolute", "prismatic"):
            raise ValidationError(f"{path}.kind: must be revolute or prismatic")
        try:
            se3.exp_twist(axis, 0.0)
        except BadAxis as exc:
            raise ValidationError(f"{path}.axis: {exc}") from exc
        if kind == "prismatic" and np.linalg.norm(axis[3:]) > 1e-9:
            raise ValidationError(f"{path}.axis: prismatic axis must have zero angular part")
        if kind == "revolute" and abs(np.linalg.norm(axis[3:]) - 1.0) > 1e-9:
            raise ValidationError(f"{path}.axis: revolute axis must have unit angular part")
        if not lo <= hi:
            raise ValidationError(f"{path}.limits: lower bound exceeds upper bound")
        _read_only(axis)
        joints.append(Joint(axis, kind, home, lo, hi))

    links = []
    if not isinstance(doc["links"], list) or len(doc["links"]) != len(joints):
        raise ValidationError("links: need exactly one link per joint")
    for idx, ld in enumerate(doc["links"]):
        path = f"links[{idx}]"
        if not isinstance(ld, dict):
            raise SchemaError(f"{path}: expected object")
        unknown = set(ld) - _LINK_KEYS
        if unknown:
            raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
        try:
            mass = float(ld["mass"])
            com = np.array(ld["com"], dtype=float).reshape(3)
            inertia = np.array(ld["inertia"], dtype=float).reshape(3, 3)
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if mass < 0:
            raise ValidationError(f"{path}.mass: must be >= 0")
        if np.max(np.abs(inertia - inertia.T)) > 1e-9:
            raise ValidationError(f"{path}.inertia: must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (inertia + inertia.T))) < -1e-12:
            raise ValidationError(f"{path}.inertia: must be positive semidefinite")
        _read_only(com, inertia)
        links.append(Link(mass, com, inertia))

    ee = _pose_from_doc(doc["end_effector"], "end_effector")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ValidationError("name: must be a non-empty string")
    return RobotModel(name, tuple(joints), tuple(links), ee)


def load_model_file(path) -> RobotModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


@functools.cache
def bundled_model(name: str) -> RobotModel:
    """One of the models shipped with the package ('anthro3r', 'iiwa7').

    The package data is immutable, so each model is loaded once per process
    and every call returns the same read-only RobotModel.
    """
    res = importlib.resources.files("geostiff.models").joinpath(f"{name}.json")
    return load_model(res.read_text(encoding="utf-8"))


def _check_dim(model: RobotModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise DimensionMismatch(f"expected q of length {model.n}, got shape {q.shape}")
    return q


def link_transforms(model: RobotModel, q) -> list:
    """Poses T_0i of every link frame (after joint motion), base frame."""
    q = _check_dim(model, q)
    out = []
    t = se3.Transform.identity()
    for joint, qi in zip(model.joints, q):
        t = t.compose(joint.home).compose(se3.exp_twist(joint.axis, qi))
        out.append(t)
    return out


def forward_kinematics(model: RobotModel, q) -> se3.Transform:
    """End-effector pose in the base frame."""
    return link_transforms(model, q)[-1].compose(model.end_effector)


def _body_jacobian(model: RobotModel, frames) -> tuple:
    """Body Jacobian and end-effector pose from precomputed link frames."""
    t_ee = frames[-1].compose(model.end_effector)
    t_ee_inv = t_ee.inverse()
    jac = np.empty((6, model.n))
    for i, (joint, t0i) in enumerate(zip(model.joints, frames)):
        jac[:, i] = se3.adjoint(t_ee_inv.compose(t0i)) @ joint.axis
    return jac, t_ee


def _to_hybrid(jb: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Rotate both 3-row blocks of (..., 6, m) body columns into base axes."""
    out = np.empty_like(jb)
    out[..., :3, :] = rotation @ jb[..., :3, :]
    out[..., 3:, :] = rotation @ jb[..., 3:, :]
    return out


def jacobian(model: RobotModel, q, frame: Frame) -> np.ndarray:
    """6xn geometric Jacobian in the BODY or HYBRID convention.

    BODY columns are joint screws expressed in the end-effector frame; HYBRID
    gives end-effector origin velocity and angular velocity, both in
    inertial axes.
    """
    q = _check_dim(model, q)
    jb, t_ee = _body_jacobian(model, link_transforms(model, q))
    if frame == Frame.BODY:
        return jb
    if frame == Frame.HYBRID:
        return _to_hybrid(jb, t_ee.rotation)
    raise ValueError(f"jacobian frame must be BODY or HYBRID, got {frame}")


def _derivative_tensor(model: RobotModel, jb: np.ndarray, rotation, frame: Frame) -> np.ndarray:
    n = model.n
    ad_stack = np.stack([se3.ad(jb[:, a]) for a in range(n)])      # (n,6,6)
    d_body = -np.einsum("akl,lb->akb", ad_stack, jb)
    mask = np.tril(np.ones((n, n)), k=-1)                          # alpha > beta
    d_body *= mask[:, None, :]
    if frame == Frame.BODY:
        return d_body
    if frame != Frame.HYBRID:
        raise ValueError(f"jacobian frame must be BODY or HYBRID, got {frame}")
    # dR/dq_alpha = R * skew(body angular column alpha)
    d_hyb = np.empty_like(d_body)
    for a in range(n):
        dr = rotation @ se3.skew(jb[3:, a])
        d_hyb[a, :3] = dr @ jb[:3] + rotation @ d_body[a, :3]
        d_hyb[a, 3:] = dr @ jb[3:] + rotation @ d_body[a, 3:]
    return d_hyb


def jacobian_transpose_derivative(model: RobotModel, q, frame: Frame) -> JacobianDerivative:
    """Analytic derivative tensor D[alpha][k][beta] = dJ[k][beta]/dq[alpha].

    Body columns depend only on downstream joints, so the body derivative is
    the bracket -ad(J_alpha) J_beta for alpha > beta and zero otherwise.  The
    hybrid derivative adds the rotation of the base-axes block.
    """
    q = _check_dim(model, q)
    jb, t_ee = _body_jacobian(model, link_transforms(model, q))
    return JacobianDerivative(_derivative_tensor(model, jb, t_ee.rotation, frame), frame)


def _spatial_inertia(link: Link) -> np.ndarray:
    """6x6 spatial inertia in the link frame, linear-first ordering."""
    ch = se3.skew(link.com)
    g = np.zeros((6, 6))
    g[:3, :3] = link.mass * np.eye(3)
    g[:3, 3:] = -link.mass * ch
    g[3:, :3] = link.mass * ch
    g[3:, 3:] = link.inertia - link.mass * ch @ ch
    return g


def link_jacobian(model: RobotModel, q, link_index: int) -> np.ndarray:
    """Body Jacobian of link link_index's frame (6xn, zero past the link)."""
    q = _check_dim(model, q)
    frames = link_transforms(model, q)
    t_inv = frames[link_index].inverse()
    jac = np.zeros((6, model.n))
    for i in range(link_index + 1):
        jac[:, i] = se3.adjoint(t_inv.compose(frames[i])) @ model.joints[i].axis
    return jac


def _mass_from_frames(model: RobotModel, q, frames) -> np.ndarray:
    n = model.n
    s = np.empty((6, n))          # spatial joint screws, base frame
    g0 = np.empty((n, 6, 6))      # link inertias, base frame
    prev = se3.Transform.identity()
    for i, joint in enumerate(model.joints):
        s[:, i] = se3.adjoint(prev.compose(joint.home)) @ joint.axis
        prev = frames[i]
        ad_inv = se3.adjoint(frames[i].inverse())
        g0[i] = ad_inv.T @ _spatial_inertia(model.links[i]) @ ad_inv
    # composite inertia seen by joint i: everything from link i outward
    composite = np.cumsum(g0[::-1], axis=0)[::-1]
    m = np.empty((n, n))
    for i in range(n):
        fi = composite[i] @ s[:, i]
        for j in range(i + 1):
            m[i, j] = m[j, i] = s[:, j] @ fi
    m = 0.5 * (m + m.T)
    if np.min(np.linalg.eigvalsh(m)) < 1e-9:
        raise NonPositiveDefinite(
            f"mass matrix not positive definite at q={np.asarray(q).tolist()}"
        )
    return m


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix by composite-rigid-body accumulation.

    Per-link spatial inertias are mapped to the base frame, accumulated from
    the tip inward, and contracted with the spatial joint screws.
    """
    q = _check_dim(model, q)
    return _mass_from_frames(model, q, link_transforms(model, q))


@dataclass(frozen=True)
class KinematicsBundle:
    """Everything the simulator needs at one configuration, computed once.

    The mass matrix comes with its eigen-factorisation
    M = mass_eigvecs @ diag(mass_eigvals) @ mass_eigvecs.T (eigenvalues
    ascending), which doubles as the positive-definiteness check and serves
    every later use of M^(1/2), M^(-1/2) and M^-1 at this configuration.
    """

    pose: se3.Transform
    jacobian: np.ndarray      # 6xn, requested frame
    derivative: np.ndarray    # (n,6,n), requested frame
    mass: np.ndarray          # nxn
    mass_eigvals: np.ndarray  # (n,), ascending
    mass_eigvecs: np.ndarray  # nxn, orthonormal columns

    @property
    def rotation(self) -> np.ndarray:
        return self.pose.rotation


# skew(x) and ad(x) are linear in x: x @ basis gives them flattened
_SKEW_BASIS = np.stack([se3.skew(e).ravel() for e in np.eye(3)])      # (3,9)
_AD_BASIS = np.stack([se3.ad(e).ravel() for e in np.eye(6)])          # (6,36)


class _StaticModelData:
    """Configuration-independent arrays cached per model for full_kinematics."""

    def __init__(self, model: RobotModel):
        n = model.n
        # closed-form exponential [R | p] = [I + s W + (1 - c) W^2 |
        # (q I + (1 - c) W + (q - s) W^2) v] with c = cos q, s = sin q,
        # collected by the factors 1, q, c, s; w = 0 for prismatic joints
        # gives R = I and p = q v with the same terms
        terms = np.zeros((n, 4, 4, 4))
        zero = np.zeros((3, 3))
        for i, joint in enumerate(model.joints):
            v, w_hat = joint.axis[:3], se3.skew(joint.axis[3:])
            w_hat2 = w_hat @ w_hat
            terms[i, :, :3, :3] = [np.eye(3) + w_hat2, zero, -w_hat2, w_hat]
            terms[i, :, :3, 3] = [w_hat @ v, v + w_hat2 @ v, -w_hat @ v, -w_hat2 @ v]
        terms[:, 0, 3, 3] = 1.0
        home = np.stack([j.home.matrix() for j in model.joints])
        local = home[:, None] @ terms
        # home_i exp(axis_i q_i) = local_const[i] + [q, c, s] @ local_basis[i];
        # entry n of local_const is the fixed end-effector offset
        self.local_const = np.concatenate((local[:, 0], model.end_effector.matrix()[None]))
        self.local_basis = local[:, 1:].reshape(n, 3, 16)
        self.axes = np.stack([j.axis for j in model.joints])[:, :, None]   # (n,6,1)
        self.inertias = np.stack([_spatial_inertia(l) for l in model.links])
        self.tril_mask = np.tril(np.ones((n, n)), k=-1)[:, None, :]
        self.link_mask = np.tril(np.ones((n, n)))[:, None, :]    # joints j <= link k


_STATIC_CACHE = weakref.WeakKeyDictionary()


def _static_data(model: RobotModel) -> _StaticModelData:
    data = _STATIC_CACHE.get(model)
    if data is None:
        data = _StaticModelData(model)
        _STATIC_CACHE[model] = data
    return data


def full_kinematics(model: RobotModel, q, frame: Frame) -> KinematicsBundle:
    """Pose, Jacobian, Jacobian derivative and inertia sharing one FK pass.

    Equivalent to calling forward_kinematics, jacobian,
    jacobian_transpose_derivative and mass_matrix separately (tests pin the
    equivalence); used per step by the simulator.

    All joint transforms home_i exp(axis_i q_i) come from one batched
    product.  The spatial screw of joint i is s_i = Ad(T_0i) axis_i, because
    Ad(exp(axis q)) axis = axis.  The body Jacobian is Ad(T_ee^-1) S, and the
    body Jacobian of link k is Ad(T_0k^-1) S restricted to joints up to k,
    which gives the mass matrix as the sum of J_k^T G_k J_k.  M is checked
    positive definite through its eigen-factorisation (eigh), which the
    bundle carries for the simulator's damping design and acceleration
    solve.
    """
    q = _check_dim(model, q)
    sd = _static_data(model)
    n = model.n

    coef = np.empty((n, 3))
    coef[:, 0] = q
    np.cos(q, out=coef[:, 1])
    np.sin(q, out=coef[:, 2])
    frames = sd.local_const.copy()
    frames[:n] += (coef[:, None, :] @ sd.local_basis).reshape(n, 4, 4)
    # prefix products in log2(n + 1) batched steps: T_01 .. T_0n, then T_ee
    shift = 1
    while shift <= n:
        frames[shift:] = frames[:-shift] @ frames[shift:]
        shift *= 2

    # adjoints Ad(T) = [[R, p^ R], [0, R]] and their inverses [[R', (p^ R)'], [0, R']]
    rot = frames[:, :3, :3]
    p_hat_r = (frames[:, :3, 3] @ _SKEW_BASIS).reshape(n + 1, 3, 3) @ rot
    ad = np.zeros((n, 6, 6))
    ad[:, :3, :3] = ad[:, 3:, 3:] = rot[:n]
    ad[:, :3, 3:] = p_hat_r[:n]
    ad_inv = np.zeros((n + 1, 6, 6))
    ad_inv[:, :3, :3] = ad_inv[:, 3:, 3:] = rot.transpose(0, 2, 1)
    ad_inv[:, :3, 3:] = p_hat_r.transpose(0, 2, 1)

    # spatial screws s_i, seen from every link frame and from the end effector
    screws = (ad @ sd.axes)[:, :, 0].T
    seen = ad_inv @ screws
    jb = seen[n]

    # derivative: -ad(J_alpha) J_beta for alpha > beta
    ad_cols = (jb.T @ _AD_BASIS).reshape(n, 6, 6)
    d_body = -(ad_cols @ jb) * sd.tril_mask
    if frame == Frame.BODY:
        jac, deriv = jb, d_body
    else:
        # dR/dq_alpha = R skew(w_alpha) acts on both blocks: ad of the
        # angular part alone is blockdiag(skew(w_alpha), skew(w_alpha))
        w_blocks = (jb[3:].T @ _AD_BASIS[3:]).reshape(n, 6, 6)
        r_ee = rot[n]
        jac = _to_hybrid(jb, r_ee)
        deriv = _to_hybrid(w_blocks @ jb + d_body, r_ee)

    # mass matrix: sum over links of J_k^T G_k J_k, J_k the body Jacobian of link k
    link_jac = seen[:n] * sd.link_mask
    m = link_jac.reshape(6 * n, n).T @ (sd.inertias @ link_jac).reshape(6 * n, n)
    m = 0.5 * (m + m.T)
    m_vals, m_vecs = np.linalg.eigh(m)
    if m_vals[0] < 1e-9:
        raise NonPositiveDefinite(
            f"mass matrix not positive definite at q={q.tolist()}"
        )
    return KinematicsBundle(se3.Transform.from_matrix(frames[n]), jac, deriv, m,
                            m_vals, m_vecs)
