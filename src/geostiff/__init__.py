"""Geometrically consistent joint-space stiffness for serial manipulators.

Builds joint stiffness matrices that stay symmetric under external loading
by correcting the task-space Hessian with the Christoffel symbols of the
kinematic connection on SE(3), plus supporting kinematics, passivity audits
and an impedance-control simulator.
"""

from .connection import Frame, christoffel, christoffel_table, correction_matrix
from .errors import GeostiffError
from .passivity import (
    EnergyAudit,
    LoopPath,
    audit_stiffness,
    circle_path,
    loop_work,
)
from .robot import (
    Joint,
    KinematicsBundle,
    Link,
    RobotModel,
    bundled_model,
    forward_kinematics,
    full_kinematics,
    jacobian,
    jacobian_transpose_derivative,
    load_model,
    load_model_file,
    mass_matrix,
)
from .se3 import (
    STRUCTURE_CONSTANTS,
    Transform,
    adjoint,
    ad,
    exp_twist,
    hat,
    skew,
    structure_constant,
    vee,
)
from .sim import (
    ControllerConfig,
    JointPath,
    SimTrace,
    WrenchProfile,
    design_damping,
    semicircle_trajectory,
    simulate,
)
from .stiffness import (
    JointStiffness,
    SymmetryReport,
    TaskStiffness,
    joint_stiffness,
    kinematic_stiffness,
    symmetry_decompose,
    symmetry_report,
)

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "christoffel",
    "christoffel_table",
    "correction_matrix",
    "GeostiffError",
    "EnergyAudit",
    "LoopPath",
    "audit_stiffness",
    "circle_path",
    "loop_work",
    "Joint",
    "KinematicsBundle",
    "Link",
    "RobotModel",
    "bundled_model",
    "forward_kinematics",
    "full_kinematics",
    "jacobian",
    "jacobian_transpose_derivative",
    "load_model",
    "load_model_file",
    "mass_matrix",
    "STRUCTURE_CONSTANTS",
    "Transform",
    "adjoint",
    "ad",
    "exp_twist",
    "hat",
    "skew",
    "structure_constant",
    "vee",
    "ControllerConfig",
    "JointPath",
    "SimTrace",
    "WrenchProfile",
    "design_damping",
    "semicircle_trajectory",
    "simulate",
    "JointStiffness",
    "SymmetryReport",
    "TaskStiffness",
    "joint_stiffness",
    "kinematic_stiffness",
    "symmetry_decompose",
    "symmetry_report",
    "__version__",
]
