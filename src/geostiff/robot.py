"""Serial-chain robot model: loading, kinematics, Jacobians and inertia.

Kinematics use a local product-of-exponentials: each joint carries a fixed
home transform from its parent frame and a unit screw axis expressed in its
own frame, so the pose after joint i is

    T_0i = T_0(i-1) * home_i * exp(axis_i * q_i)

and the end-effector pose appends a fixed offset.  Link i (mass, com,
inertia) is expressed in the frame of joint i after motion.

All kinematics come from one batched pass in three stages: link poses
(_frames), Jacobians (_jacobians), and the mass matrix with its
eigen-factorisation (_mass).  Each public function views the stage it needs.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import se3
from .connection import Frame
from .errors import (
    BadAxis,
    DimensionMismatch,
    NonFinite,
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

    @functools.cached_property
    def _static(self) -> "_StaticModelData":
        """Configuration-independent arrays of the kinematics pass, built once."""
        return _StaticModelData(self)


def _pose_from_doc(doc, path: str) -> se3.Transform:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected object with rotation/translation")
    unknown = set(doc) - _POSE_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        rot = np.asarray(doc["rotation"], dtype=float).reshape(3, 3)
        trans = np.array(doc["translation"], dtype=float).reshape(3)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    _check_finite(path, rot, trans)
    t = se3.Transform(rot, trans)
    if t.orthogonality_defect() > 1e-9 or np.linalg.det(rot) < 0:
        raise ValidationError(f"{path}.rotation: not a proper rotation matrix")
    t = t.renormalized()
    _read_only(t.rotation, t.translation)
    return t


def _check_finite(path: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{path}: numbers must be finite")


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
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        _check_finite(f"{path}.axis", axis)
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
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        _check_finite(path, mass, com, inertia)
        if mass < 0:
            raise ValidationError(f"{path}.mass: must be >= 0")
        if np.max(np.abs(inertia - inertia.T)) > 1e-9:
            raise ValidationError(f"{path}.inertia: must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * inertia + 0.5 * inertia.T)) < -1e-12:
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
    # a finite sum means finite entries, and is the cheaper test per step
    if not math.isfinite(sum(q.tolist())) and not np.isfinite(q).all():
        raise NonFinite(f"q must be finite, got {q.tolist()}")
    return q


def _spatial_inertia(link: Link) -> np.ndarray:
    """6x6 spatial inertia in the link frame, linear-first ordering."""
    ch = se3.skew(link.com)
    g = np.zeros((6, 6))
    g[:3, :3] = link.mass * np.eye(3)
    g[:3, 3:] = -link.mass * ch
    g[3:, :3] = link.mass * ch
    g[3:, 3:] = link.inertia - link.mass * ch @ ch
    return g


# skew(x) and ad(x) are linear in x: x @ basis gives them flattened
_SKEW_BASIS = np.stack([se3.skew(e).ravel() for e in np.eye(3)])      # (3,9)
_AD_BASIS = np.stack([se3.ad(e).ravel() for e in np.eye(6)])          # (6,36)


class _StaticModelData:
    """Configuration-independent arrays of a model's kinematics pass."""

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
        # derivative masks, indexed [alpha, :, beta]: alpha > beta and alpha < beta
        self.tril_mask = np.tril(np.ones((n, n)), k=-1)[:, None, :]
        self.triu_mask = self.tril_mask.transpose(2, 1, 0)
        self.link_mask = np.tril(np.ones((n, n)))[:, None, :]    # joints j <= link k


def _frames(model: RobotModel, q) -> np.ndarray:
    """The poses T_01 .. T_0n, T_ee as one (n + 1, 4, 4) array: one batched
    product gives every home_i exp(axis_i q_i), and the chain is a prefix
    product in log2(n + 1) batched steps."""
    q = _check_dim(model, q)
    sd, n = model._static, model.n
    coef = np.empty((n, 3))
    coef[:, 0] = q
    np.cos(q, out=coef[:, 1])
    np.sin(q, out=coef[:, 2])
    frames = sd.local_const.copy()
    frames[:n] += (coef[:, None, :] @ sd.local_basis).reshape(n, 4, 4)
    shift = 1
    while shift <= n:
        frames[shift:] = frames[:-shift] @ frames[shift:]
        shift *= 2
    return frames


class _Jacobians(NamedTuple):
    frames: np.ndarray        # (n+1,4,4): T_01 .. T_0n, T_ee
    screws_seen: np.ndarray   # (n+1,6,n): Ad(T^-1) S for each pose T in frames
    jacobian: np.ndarray      # 6xn, requested frame
    derivative: np.ndarray    # (n,6,n), requested frame


def _in_frame(sd: _StaticModelData, screws, jb, r_ee, frame: Frame) -> tuple:
    """Jacobian and its derivative D[alpha][:, beta] = dJ_beta/dq_alpha in frame.

    A spatial column J_s,beta = s_beta moves only with the joints before it,
    a body column J_b,beta only with the joints after it, both by Lie
    brackets of the columns (Lynch & Park, Modern Robotics, ch. 5).
    """
    if frame == Frame.INERTIAL:
        # dJ_s,beta/dq_alpha = ad(J_s,alpha) J_s,beta for alpha < beta
        return screws, ((screws.T @ _AD_BASIS).reshape(-1, 6, 6) @ screws) * sd.triu_mask
    # dJ_b,beta/dq_alpha = -ad(J_b,alpha) J_b,beta for alpha > beta
    d_body = -((jb.T @ _AD_BASIS).reshape(-1, 6, 6) @ jb) * sd.tril_mask
    if frame == Frame.BODY:
        return jb, d_body
    if frame == Frame.HYBRID:
        # r_blocks = blockdiag(R, R) rotates both 3-row blocks into base axes;
        # dR/dq_alpha = R skew(w_alpha) acts on both, and ad of the angular
        # part alone is blockdiag(skew(w_alpha), skew(w_alpha))
        r_blocks = np.zeros((6, 6))
        r_blocks[:3, :3] = r_blocks[3:, 3:] = r_ee
        w_blocks = (jb[3:].T @ _AD_BASIS[3:]).reshape(-1, 6, 6)
        return r_blocks @ jb, r_blocks @ (w_blocks @ jb + d_body)
    raise ValidationError(f"frame must be a Frame, got {frame!r}")


def _jacobians(model: RobotModel, q, frame: Frame) -> _Jacobians:
    """The spatial screws s_i = Ad(T_0i) axis_i (Ad(exp(axis q)) axis = axis)
    seen from every link and the end effector, and the Jacobian and its
    derivative in frame.  The body Jacobian is Ad(T_ee^-1) S; that of link k
    is Ad(T_0k^-1) S restricted to joints up to k."""
    frames = _frames(model, q)
    sd, n = model._static, model.n
    # Ad(T) = [[R, p^ R], [0, R]] and Ad(T^-1) = [[R', (p^ R)'], [0, R']]
    rot = frames[:, :3, :3]
    p_hat_r = (frames[:, :3, 3] @ _SKEW_BASIS).reshape(n + 1, 3, 3) @ rot
    ad = np.zeros((n, 6, 6))
    ad[:, :3, :3] = ad[:, 3:, 3:] = rot[:n]
    ad[:, :3, 3:] = p_hat_r[:n]
    screws = (ad @ sd.axes)[:, :, 0].T
    ad_inv = np.zeros((n + 1, 6, 6))
    ad_inv[:, :3, :3] = ad_inv[:, 3:, 3:] = rot.transpose(0, 2, 1)
    ad_inv[:, :3, 3:] = p_hat_r.transpose(0, 2, 1)
    seen = ad_inv @ screws
    jac, deriv = _in_frame(sd, screws, seen[n], rot[n], frame)
    return _Jacobians(frames, seen, jac, deriv)


def _mass(model: RobotModel, q, kin: _Jacobians) -> tuple:
    """M = sum over links of J_k^T G_k J_k and its eigen-factorisation, which
    checks M positive definite: (M, eigenvalues ascending, eigenvectors)."""
    sd, n = model._static, model.n
    link_jac = kin.screws_seen[:n] * sd.link_mask
    m = link_jac.reshape(6 * n, n).T @ (sd.inertias @ link_jac).reshape(6 * n, n)
    m = 0.5 * (m + m.T)
    m_vals, m_vecs = np.linalg.eigh(m)
    if m_vals[0] < 1e-9:
        raise NonPositiveDefinite(
            f"mass matrix not positive definite at q={np.asarray(q).tolist()}"
        )
    return m, m_vals, m_vecs


def forward_kinematics(model: RobotModel, q) -> se3.Transform:
    """End-effector pose in the base frame."""
    return se3.Transform.from_matrix(_frames(model, q)[-1])


def jacobian(model: RobotModel, q, frame: Frame) -> np.ndarray:
    """6xn geometric Jacobian in the BODY, HYBRID or INERTIAL convention.

    BODY columns are joint screws expressed in the end-effector frame; HYBRID
    gives end-effector origin velocity and angular velocity, both in
    inertial axes; INERTIAL columns are the spatial joint screws.
    """
    return _jacobians(model, q, frame).jacobian


def jacobian_transpose_derivative(model: RobotModel, q, frame: Frame) -> np.ndarray:
    """Analytic (n, 6, n) derivative D[alpha][k][beta] = dJ[k][beta]/dq[alpha].

    The body derivative is the bracket -ad(J_alpha) J_beta for alpha > beta,
    the spatial one ad(J_alpha) J_beta for alpha < beta, and zero otherwise.
    The hybrid derivative adds the rotation of the base-axes block.
    """
    return _jacobians(model, q, frame).derivative


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix, the sum over links of J_k^T G_k J_k.

    J_k is the body Jacobian of link k and G_k its spatial inertia in the
    link frame.  Raises NonPositiveDefinite unless M is positive definite.
    """
    return _mass(model, q, _jacobians(model, q, Frame.BODY))[0]


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


def full_kinematics(model: RobotModel, q, frame: Frame) -> KinematicsBundle:
    """Pose, Jacobian, Jacobian derivative and inertia from one pass.

    forward_kinematics, jacobian, jacobian_transpose_derivative and
    mass_matrix are views of the stages of this pass; the simulator calls it
    once per step and reuses the eigen-factorisation of M for its damping
    design and acceleration solve.
    """
    kin = _jacobians(model, q, frame)
    return KinematicsBundle(se3.Transform.from_matrix(kin.frames[-1]), kin.jacobian,
                            kin.derivative, *_mass(model, q, kin))
