"""Seeded fuzz of the library's public entry points.

Every call gets arguments of the right shape with any float in them, arrays
of other shapes, ragged lists, strings, None, NaN, infinities and 1e308,
non-Frame frames and non-integer table indices.  It must return finite
output or raise a GeostiffError, and must not warn.
"""

import dataclasses
import enum
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

from geostiff import passivity as pv, robot, se3, sim, stiffness as st
from geostiff.connection import Frame, christoffel, christoffel_table, correction_matrix
from geostiff.errors import GeostiffError

_MODELS = {name: robot.bundled_model(name) for name in ("anthro3r", "iiwa7")}
_Q0 = {"anthro3r": [0.3, 0.4, -0.8], "iiwa7": [0.0, 0.5, 0.0, -1.2, 0.0, 0.8, 0.0]}
_EDGE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e-200, 0.0, 1.0]
_FLOAT = hs.floats() | hs.sampled_from(_EDGE)
_NOT_AN_ARRAY = hs.sampled_from([None, "x", "1.5", [[1.0, 2.0], [3.0]], [1.0, [2.0]], {}, [],
                                 10 ** 400, [None, 1.0], math.nan, 1e308])
_FRAME = hs.sampled_from(list(Frame)) | hs.sampled_from(["body", None, ["body"], 0])
_INDEX = hs.integers(-1, 8) | hs.sampled_from([1.5, 2.0, "1", None, np.int64(3)])
_SCALAR = _FLOAT | hs.sampled_from(["1", None, [1.0]])


def _arrays(*shape):
    """Arrays of the given shape holding any float, as arrays or nested lists;
    arrays of any other shape; and values that are no array at all."""
    exact = hnp.arrays(float, shape, elements=_FLOAT)
    other = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=7),
                       elements=_FLOAT)
    return exact | exact.map(np.ndarray.tolist) | other | _NOT_AN_ARRAY


def _joint_stiffness(model, q, hessian, wrench, frame, with_correction):
    return st.joint_stiffness(model, q, st.TaskStiffness(hessian, frame), wrench, frame,
                              with_correction)


def _assemble(model, frame, with_correction):
    q = _Q0[model.name]
    jac = robot.jacobian(model, q, Frame.BODY)
    return st.assemble_joint_stiffness(jac, np.eye(6), np.ones(6), frame, with_correction)


def _loop_work(k):
    n = len(k) if isinstance(k, np.ndarray) and k.ndim == 2 and len(k) >= 2 else 2
    return pv.loop_work(k, pv.circle_path(n, (0, n - 1), segments=64))


def _controller(damping_ratio, rate, frame):
    return sim.ControllerConfig(st.TaskStiffness.diagonal(1000.0, 100.0, Frame.BODY),
                                damping_ratio, frame, True, rate)


def _calls(model):
    """name -> (function, strategies of its arguments) for a model."""
    n = model.n
    q, wrench, spring, square = _arrays(n), _arrays(6), _arrays(6, 6), _arrays(n, n)
    mass = hs.just(robot.mass_matrix(model, _Q0[model.name])) | square
    stiffness = hnp.arrays(float, n, elements=hs.floats(0.0, 1e308)).map(np.diag) | square
    return {
        "structure_constant": (se3.structure_constant, (_INDEX, _INDEX, _INDEX)),
        "christoffel": (christoffel, (_FRAME, _INDEX, _INDEX, _INDEX)),
        "christoffel_table": (christoffel_table, (_FRAME,)),
        "correction_matrix": (correction_matrix, (_FRAME, wrench)),
        "forward_kinematics": (robot.forward_kinematics, (hs.just(model), q)),
        "jacobian": (robot.jacobian, (hs.just(model), q, _FRAME)),
        "jacobian_transpose_derivative": (robot.jacobian_transpose_derivative,
                                          (hs.just(model), q, _FRAME)),
        "mass_matrix": (robot.mass_matrix, (hs.just(model), q)),
        "full_kinematics": (robot.full_kinematics, (hs.just(model), q, _FRAME)),
        "kinematic_stiffness": (st.kinematic_stiffness, (hs.just(model), q, wrench, _FRAME)),
        "joint_stiffness": (_joint_stiffness, (hs.just(model), q, spring, wrench, _FRAME,
                                               hs.booleans())),
        "assemble_joint_stiffness": (_assemble, (hs.just(model), _FRAME, hs.booleans())),
        "TaskStiffness": (st.TaskStiffness, (spring, _FRAME)),
        "TaskStiffness.from_numbers": (st.TaskStiffness.from_numbers,
                                       (_arrays(6) | _arrays(36) | spring, _FRAME)),
        "TaskStiffness.diagonal": (st.TaskStiffness.diagonal, (_SCALAR, _SCALAR, _FRAME)),
        "symmetry_decompose": (st.symmetry_decompose, (square,)),
        "symmetry_report": (st.symmetry_report, (square,)),
        "audit_stiffness": (pv.audit_stiffness, (square,)),
        "loop_work": (_loop_work, (square,)),
        "design_damping": (sim.design_damping, (stiffness, mass, _SCALAR)),
        "ControllerConfig": (_controller, (_SCALAR, _SCALAR | hs.just(1000.0), _FRAME)),
    }


_CALLS = {name: _calls(model) for name, model in _MODELS.items()}


@hs.composite
def _call(draw):
    model = draw(hs.sampled_from(sorted(_CALLS)))
    name = draw(hs.sampled_from(sorted(_CALLS[model])))
    fn, strategies = _CALLS[model][name]
    return name, fn, draw(hs.tuples(*strategies))


def _is_finite(value) -> bool:
    """True if every number in an array, a float or a result object is finite."""
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(map(_is_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return isinstance(value, (bool, enum.Enum))


def _iiwa7_call(name, *args):
    return name, _CALLS["iiwa7"][name][0], args


_IIWA7 = _MODELS["iiwa7"]
_RAGGED = [[1.0, 2.0], [3.0]]
_BODY_SPRING = np.diag([1000.0] * 3 + [100.0] * 3)
_HUGE_ASYMMETRIC_SPRING = np.zeros((6, 6))
_HUGE_ASYMMETRIC_SPRING[0, 1:] = 5e153       # a finite norm, but not that of H - H^T


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_call())
# inputs that once ended in a bare ValueError, TypeError or IndexError, a NaN
# or negative-definite result, or a numpy warning
@example(call=_iiwa7_call("symmetry_report", _RAGGED))
@example(call=_iiwa7_call("audit_stiffness", _RAGGED))
@example(call=_iiwa7_call("TaskStiffness", _RAGGED, Frame.BODY))
@example(call=_iiwa7_call("design_damping", _RAGGED, np.eye(2), 1.0))
@example(call=_iiwa7_call("jacobian", _IIWA7, _RAGGED, Frame.BODY))
@example(call=_iiwa7_call("correction_matrix", Frame.BODY, [math.nan] * 6))
@example(call=_iiwa7_call("TaskStiffness", _BODY_SPRING, "body"))
@example(call=_iiwa7_call("TaskStiffness", _HUGE_ASYMMETRIC_SPRING, Frame.BODY))
@example(call=_iiwa7_call("structure_constant", 1.5, 1, 1))
@example(call=_iiwa7_call("christoffel", Frame.BODY, 1, "1", 1))
@example(call=_iiwa7_call("design_damping", np.eye(7), np.eye(7), math.nan))
@example(call=_iiwa7_call("design_damping", np.eye(7), np.eye(7), -1.0))
@example(call=_iiwa7_call("design_damping", np.zeros((0, 0)), np.zeros((0, 0)), 1.0))
@example(call=_iiwa7_call("ControllerConfig", 1.0, "1000", Frame.BODY))
@example(call=_iiwa7_call("joint_stiffness", _IIWA7, _Q0["iiwa7"], _BODY_SPRING,
                          [1e308] * 6, Frame.BODY, True))
def test_public_call_is_finite_or_raises_geostiff_error(call):
    name, fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except GeostiffError:
            return
    assert _is_finite(result), (name, args, result)
