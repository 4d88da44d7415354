"""Serial-chain robot model: loading, kinematics, Jacobians and inertia.

Kinematics use a local product-of-exponentials: each joint carries a fixed
home pose from its parent frame and a unit screw axis expressed in its
own frame, so the pose after joint i is

    T_0i = T_0(i-1) * home_i * exp(axis_i * q_i)

and the end-effector pose appends a fixed offset.  Link i (mass, com,
inertia) is expressed in the frame of joint i after motion.  Every pose,
those of the model included, is a (4, 4) array [[R, p], [0, 1]].

All kinematics come from one batched pass in three stages: link poses
(_frames), Jacobians (_jacobians), and the mass matrix with its
eigen-factorisation (_mass).  Each public function views the stage it needs.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import se3
from .connection import Frame, check_frame
from .errors import NonPositiveDefinite, SchemaError, ValidationError, as_array

_POSE_KEYS = {"rotation", "translation"}
_JOINT_KEYS = {"axis", "kind", "home", "limits"}
_LINK_KEYS = {"mass", "com", "inertia"}
_TOP_KEYS = {"name", "joints", "links", "end_effector"}


@dataclass(frozen=True)
class Joint:
    axis: np.ndarray          # unit screw, 6-vector, joint frame
    kind: str                 # "revolute" | "prismatic"
    home: np.ndarray          # 4x4 pose, parent frame -> joint frame
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
    end_effector: np.ndarray  # 4x4 pose, last joint frame -> end effector

    @property
    def n(self) -> int:
        return len(self.joints)

    def limits(self) -> np.ndarray:
        return np.array([[j.limit_lower, j.limit_upper] for j in self.joints])

    @functools.cached_property
    def _static(self) -> "_StaticModelData":
        """Configuration-independent arrays of the kinematics pass, built once."""
        return _StaticModelData(self)


def _pose_from_doc(doc, path: str) -> np.ndarray:
    """Read-only 4x4 pose; its rotation is projected onto SO(3) by SVD."""
    _check_object(doc, _POSE_KEYS, path)
    try:
        rot = np.asarray(doc["rotation"], dtype=float).reshape(3, 3)
        trans = np.array(doc["translation"], dtype=float).reshape(3)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    _check_finite(path, rot, trans)
    if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-9 or np.linalg.det(rot) < 0:
        raise ValidationError(f"{path}.rotation: not a proper rotation matrix")
    u, _, vt = np.linalg.svd(rot)
    pose = np.eye(4)
    pose[:3, :3] = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
    pose[:3, 3] = trans
    pose.setflags(write=False)
    return pose


def _check_object(doc, keys: set, path: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected object")
    unknown = set(doc) - keys
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")


def _check_finite(path: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{path}: numbers must be finite")


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
    _check_object(doc, _TOP_KEYS, "top level")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SchemaError(f"top level: missing key '{key}'")

    joints = []
    if not isinstance(doc["joints"], list) or len(doc["joints"]) < 1:
        raise ValidationError("joints: need at least one joint")
    for idx, jd in enumerate(doc["joints"]):
        path = f"joints[{idx}]"
        _check_object(jd, _JOINT_KEYS, path)
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
        # revolute: unit angular part; prismatic: zero angular, unit linear part
        lin, ang = np.linalg.norm(axis[:3]), np.linalg.norm(axis[3:])
        if (abs(ang - 1.0) if kind == "revolute" else max(ang, abs(lin - 1.0))) > 1e-9:
            raise ValidationError(f"{path}.axis: not a unit {kind} screw")
        if not lo <= hi:
            raise ValidationError(f"{path}.limits: lower bound exceeds upper bound")
        axis.setflags(write=False)
        joints.append(Joint(axis, kind, home, lo, hi))

    links = []
    if not isinstance(doc["links"], list) or len(doc["links"]) != len(joints):
        raise ValidationError("links: need exactly one link per joint")
    for idx, ld in enumerate(doc["links"]):
        path = f"links[{idx}]"
        _check_object(ld, _LINK_KEYS, path)
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
        com.setflags(write=False)
        inertia.setflags(write=False)
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
_AD_BASIS = se3.STRUCTURE_CONSTANTS.transpose(1, 0, 2).reshape(6, 36)  # ad(e_i)[k,j] = C^k_ij
_SWAP = [3, 4, 5, 0, 1, 2]    # angular part first: P x for the block swap P


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
        home = np.stack([j.home for j in model.joints])
        # home_i exp(axis_i q_i) = [1, q, c, s] @ local[i]; entry n is the
        # fixed end-effector offset, which takes the factors [1, 0, 0, 0]
        self.local = np.zeros((n + 1, 4, 16))
        self.local[:n] = (home[:, None] @ terms).reshape(n, 4, 16)
        self.local[n, 0] = model.end_effector.ravel()
        self.factors = np.zeros((n + 1, 4))
        self.factors[:, 0] = 1.0
        self.swapped_axes = np.stack([j.axis[_SWAP] for j in model.joints])[:, :, None]
        # G_k = C_k' C_k with C_k = diag(lambda)^1/2 V' from G_k = V diag(lambda) V'
        lam, vecs = np.linalg.eigh(np.stack([_spatial_inertia(l) for l in model.links]))
        self.inertia_roots = np.sqrt(np.maximum(lam, 0.0))[:, :, None] * vecs.transpose(0, 2, 1)
        self.link_mask = np.tril(np.ones((n, n)))[:, None, :]    # joints j <= link k


def _frames(model: RobotModel, q) -> np.ndarray:
    """The poses T_01 .. T_0n, T_ee as one (n + 1, 4, 4) array: one batched
    product gives every home_i exp(axis_i q_i), and the chain is a prefix
    product in log2(n + 1) batched steps."""
    q = as_array(q, "q", (model.n,))
    sd, n = model._static, model.n
    coef = sd.factors.copy()
    coef[:n, 1] = q
    np.cos(q, out=coef[:n, 2])
    np.sin(q, out=coef[:n, 3])
    frames = (coef[:, None, :] @ sd.local).reshape(n + 1, 4, 4)
    shift = 1
    while shift <= n:
        frames[shift:] = frames[:-shift] @ frames[shift:]
        shift *= 2
    return frames


class _Jacobians(NamedTuple):
    frames: np.ndarray        # (n+1,4,4): T_01 .. T_0n, T_ee
    ad_inv: np.ndarray        # (n+1,6,6): Ad(T^-1) for each pose T in frames
    screws: np.ndarray        # 6xn: the spatial screws S
    jacobian: np.ndarray      # 6xn, requested frame


def _hybrid_rotation(r_ee) -> np.ndarray:
    """blockdiag(R, R), which rotates both 3-row blocks into base axes."""
    r_blocks = np.zeros((6, 6))
    r_blocks[:3, :3] = r_blocks[3:, 3:] = r_ee
    return r_blocks


def _in_frame(screws, jb, r_ee, frame: Frame) -> np.ndarray:
    """The Jacobian in frame from the spatial screws and the body Jacobian."""
    if check_frame(frame) == Frame.INERTIAL:
        return screws
    if frame == Frame.BODY:
        return jb
    return _hybrid_rotation(r_ee) @ jb


def _jacobians(model: RobotModel, q, frame: Frame) -> _Jacobians:
    """The spatial screws S, s_i = Ad(T_0i) axis_i (Ad(exp(axis q)) axis =
    axis), Ad(T^-1) of every link pose and of the end effector, and the
    Jacobian in frame.  The body Jacobian is Ad(T_ee^-1) S; that of link k,
    which only _mass forms, is Ad(T_0k^-1) S restricted to joints up to k."""
    frames = _frames(model, q)
    sd, n = model._static, model.n
    # Ad(T^-1) = [[R', (p^ R)'], [0, R']], and Ad(T) = [[R, p^ R], [0, R]]
    # is P Ad(T^-1)' P, where P swaps the linear and angular blocks
    rot = frames[:, :3, :3]
    p_hat_r = (frames[:, :3, 3] @ _SKEW_BASIS).reshape(n + 1, 3, 3) @ rot
    ad_inv = np.zeros((n + 1, 6, 6))
    ad_inv[:, :3, :3] = ad_inv[:, 3:, 3:] = rot.transpose(0, 2, 1)
    ad_inv[:, :3, 3:] = p_hat_r.transpose(0, 2, 1)
    screws = (ad_inv[:n].transpose(0, 2, 1) @ sd.swapped_axes)[:, _SWAP, 0].T
    return _Jacobians(frames, ad_inv, screws, _in_frame(screws, ad_inv[n] @ screws, rot[n], frame))


def _mass(model: RobotModel, q, kin: _Jacobians) -> tuple:
    """M = sum over links of J_k^T G_k J_k and its eigen-factorisation, which
    checks M positive definite: (M, eigenvalues ascending, eigenvectors).

    With G_k = C_k^T C_k, M = R^T R for the stacked R = [C_k J_k], one
    product of a matrix with its own transpose, which numpy computes as an
    exactly symmetric result."""
    sd, n = model._static, model.n
    rooted = (sd.inertia_roots @ ((kin.ad_inv[:n] @ kin.screws) * sd.link_mask)).reshape(6 * n, n)
    m = rooted.T @ rooted
    m_vals, m_vecs = np.linalg.eigh(m)
    if m_vals[0] < 1e-9:
        raise NonPositiveDefinite(
            f"mass matrix not positive definite at q={np.asarray(q).tolist()}"
        )
    return m, m_vals, m_vecs


def forward_kinematics(model: RobotModel, q) -> np.ndarray:
    """End-effector pose in the base frame, a 4x4 array."""
    return _frames(model, q)[-1]


def jacobian(model: RobotModel, q, frame: Frame) -> np.ndarray:
    """6xn geometric Jacobian in the BODY, HYBRID or INERTIAL convention.

    BODY columns are joint screws expressed in the end-effector frame; HYBRID
    gives end-effector origin velocity and angular velocity, both in
    inertial axes; INERTIAL columns are the spatial joint screws.
    """
    return _jacobians(model, q, frame).jacobian


def jacobian_transpose_derivative(model: RobotModel, q, frame: Frame) -> np.ndarray:
    """Analytic (n, 6, n) derivative D[alpha][k][beta] = dJ[k][beta]/dq[alpha].

    A spatial column J_s,beta moves only with the joints before it, a body
    column J_b,beta only with the joints after it, both by Lie brackets of
    the columns (Lynch & Park, Modern Robotics, ch. 5): the body derivative
    is -ad(J_alpha) J_beta for alpha > beta, the spatial one
    ad(J_alpha) J_beta for alpha < beta, and zero otherwise.  The hybrid
    derivative adds the rotation of the base-axes blocks.  No library path
    builds this tensor (the stiffness contracts the wrench first); it is the
    tests' oracle for that contraction.
    """
    kin = _jacobians(model, q, Frame.BODY)
    lower = np.tril(np.ones((model.n, model.n)), k=-1)[:, None, :]  # [alpha, :, beta]
    if check_frame(frame) == Frame.INERTIAL:
        s = kin.screws
        return ((s.T @ _AD_BASIS).reshape(-1, 6, 6) @ s) * lower.transpose(2, 1, 0)
    jb = kin.jacobian
    d_body = -((jb.T @ _AD_BASIS).reshape(-1, 6, 6) @ jb) * lower
    if frame == Frame.BODY:
        return d_body
    # dR/dq_alpha = R skew(w_alpha) acts on both blocks, and ad of the
    # angular part alone is blockdiag(skew(w_alpha), skew(w_alpha))
    w_blocks = (jb[3:].T @ _AD_BASIS[3:]).reshape(-1, 6, 6)
    return _hybrid_rotation(kin.frames[-1, :3, :3]) @ (w_blocks @ jb + d_body)


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

    pose: np.ndarray          # 4x4 end-effector pose, base frame
    jacobian: np.ndarray      # 6xn, requested frame
    mass: np.ndarray          # nxn
    mass_eigvals: np.ndarray  # (n,), ascending
    mass_eigvecs: np.ndarray  # nxn, orthonormal columns


def full_kinematics(model: RobotModel, q, frame: Frame) -> KinematicsBundle:
    """Pose, Jacobian and inertia from one pass.

    forward_kinematics, jacobian and mass_matrix are views of the stages of
    this pass; the simulator calls it once per step and reuses the
    eigen-factorisation of M for its damping design and acceleration solve.
    """
    kin = _jacobians(model, q, frame)
    return KinematicsBundle(kin.frames[-1], kin.jacobian, *_mass(model, q, kin))
