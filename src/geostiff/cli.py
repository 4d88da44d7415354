"""Command-line interface: model validation, stiffness computation and
audits, simulation runs, and the 3R worked example.

Every subcommand is a thin adapter over the library; JSON payloads go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 validation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import passivity as pv
from . import robot as robot_mod
from . import sim as sim_mod
from . import stiffness as st
from .connection import Frame, correction_matrix
from .errors import GeostiffError, NonFinite, SchemaError, ValidationError

MODEL_PATH_VAR = "GEOSTIFF_MODEL_PATH"


def _emit(payload: dict) -> None:
    """Print the payload as JSON, or raise NonFinite if it holds NaN or inf."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"result is not finite: {exc}") from exc
    sys.stdout.write(text + "\n")


def _parse_floats(text: str, label: str, expected: int = None) -> np.ndarray:
    """Comma-separated finite numbers; `expected` fixes their count."""
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"{label}: could not parse '{text}'") from exc
    if not np.isfinite(vals).all():
        raise ValidationError(f"{label}: values must be finite, got '{text}'")
    if expected is not None and len(vals) != expected:
        raise ValidationError(f"{label}: expected {expected} numbers, got {len(vals)}")
    return vals


def resolve_model(name_or_path: str) -> robot_mod.RobotModel:
    """Find a model by path, via GEOSTIFF_MODEL_PATH, or among bundled models."""
    p = Path(name_or_path)
    if p.exists():
        return robot_mod.load_model_file(p)
    for d in os.environ.get(MODEL_PATH_VAR, "").split(os.pathsep):
        if d and (Path(d) / name_or_path).exists():
            return robot_mod.load_model_file(Path(d) / name_or_path)
    try:
        return robot_mod.bundled_model(p.stem)
    except FileNotFoundError:
        raise ValidationError(f"model '{name_or_path}' not found (searched cwd, "
                              f"${MODEL_PATH_VAR}, and bundled models)")


def _cmd_model_validate(args) -> int:
    model = resolve_model(args.file)
    _emit({
        "inputs_echo": {"file": str(args.file)},
        "name": model.name,
        "n": model.n,
        "valid": True,
    })
    return 0


def _cmd_stiffness(args) -> int:
    frame = Frame.parse(args.frame)
    model = resolve_model(args.model)
    q = _parse_floats(args.q, "--q", model.n)
    wrench = _parse_floats(args.wrench, "--wrench", 6)
    if args.hessian is not None:
        hessian = st.TaskStiffness.from_numbers(_parse_floats(args.hessian, "--hessian"), frame)
    else:
        hessian = st.TaskStiffness(np.zeros((6, 6)), frame)
    result = st.joint_stiffness(model, q, hessian, wrench, frame,
                                with_correction=args.correction)
    report = st.symmetry_report(result.matrix)
    payload = {
        "inputs_echo": {
            "model": args.model,
            "q": q.tolist(),
            "wrench": wrench.tolist(),
            "frame": frame.value,
            "with_correction": args.correction,
            "hessian": hessian.hessian.tolist(),
        },
        "matrix": result.matrix.tolist(),
        "sigma_max_sym": report.sigma_max_sym,
        "sigma_max_asym": report.sigma_max_asym,
    }
    if args.action == "audit":
        audit = pv.audit_stiffness(result.matrix)
        payload["net_work"] = audit.net_work
        payload["passive"] = audit.passive
    _emit(payload)
    return 0


def _cmd_passivity(args) -> int:
    text = args.matrix
    # os.path.isfile returns False, where Path.exists raises, for an inline
    # matrix longer than a file name may be
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
        k = np.asarray(doc, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"--matrix: not a file or a numeric JSON matrix: {exc}") from exc
    audit = pv.audit_stiffness(k)
    _emit({
        "inputs_echo": {"matrix": doc},
        "net_work": audit.net_work,
        "passive": audit.passive,
    })
    return 0


def _cmd_example_anthro(args) -> int:
    model = robot_mod.bundled_model("anthro3r")
    q1 = args.q1
    m = _parse_floats(args.m, "--m", 3)
    q = np.array([q1, 0.0, 0.0])
    wrench = np.concatenate([np.zeros(3), m])
    k_kin = st.kinematic_stiffness(model, q, wrench, Frame.HYBRID)
    jac = robot_mod.jacobian(model, q, Frame.HYBRID)
    gamma_f = correction_matrix(Frame.HYBRID, wrench)
    sandwich = jac.T @ gamma_f @ jac
    a = 0.5 * (m[0] * np.cos(q1) + m[1] * np.sin(q1))
    _emit({
        "inputs_echo": {"q1": q1, "m": m.tolist()},
        "a": a,
        "k_kin": k_kin.tolist(),
        "correction": sandwich.tolist(),
        "corrected": (k_kin + sandwich).tolist(),
    })
    return 0


def _load_sim_config(path: str) -> sim_mod.ControllerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"config: not valid JSON: {exc}") from exc
    required = {"task_hessian", "damping_ratio", "frame", "with_correction", "rate"}
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(doc) - required
    if unknown:
        raise SchemaError(f"config: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"config: missing keys {sorted(missing)}")
    try:
        frame = Frame.parse(doc["frame"])
        return sim_mod.ControllerConfig(
            task_hessian=st.TaskStiffness.from_numbers(doc["task_hessian"], frame),
            damping_ratio=float(doc["damping_ratio"]),
            frame=frame,
            with_correction=bool(doc["with_correction"]),
            rate=float(doc["rate"]),
        )
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"config: {exc}") from exc
    except GeostiffError as exc:
        raise type(exc)(f"config: {exc}") from exc


_PLOTSCRIPT = """\
# gnuplot script: stiffness symmetry diagnostics from a simulation trace
set datafile separator ','
set key autotitle columnhead
set xlabel 't [s]'
set ylabel 'sigma_max [N m/rad]'
plot '{trace}' using 1:(column('sigma_max_sym')) with lines, \\
     '{trace}' using 1:(column('sigma_max_asym')) with lines
"""


def _cmd_simulate(args) -> int:
    model = resolve_model(args.model)
    controller = _load_sim_config(args.config)
    wrench = sim_mod.WrenchProfile.from_csv(args.wrench)
    trajectory = sim_mod.JointPath.from_csv(args.trajectory)
    duration = args.duration if args.duration is not None else float(trajectory.times[-1])
    print(f"simulating {duration:g} s at {controller.rate:g} Hz", file=sys.stderr)
    trace = sim_mod.simulate(model, controller, trajectory, wrench, duration)
    trace.to_csv(args.out)
    if args.emit_plotscript:
        with open(args.emit_plotscript, "w", encoding="utf-8") as fh:
            fh.write(_PLOTSCRIPT.format(trace=args.out))
    ratio = np.max(trace.sigma_max_asym / np.maximum(trace.sigma_max_sym, 1e-12))
    _emit({
        "inputs_echo": {
            "model": args.model,
            "config": args.config,
            "wrench": args.wrench,
            "trajectory": args.trajectory,
            "duration": duration,
        },
        "steps": len(trace.t),
        "out": args.out,
        "peak_sigma_max_asym": float(np.max(trace.sigma_max_asym)),
        "max_asym_ratio": float(ratio),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostiff",
        description="Geometrically consistent joint-space stiffness tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model file operations")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_validate = model_sub.add_parser("validate", help="validate a model file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=_cmd_model_validate)

    p_stiff = sub.add_parser("stiffness", help="joint-space stiffness")
    p_stiff.add_argument("--model", required=True)
    p_stiff.add_argument("--q", required=True, help="joint angles, comma separated")
    p_stiff.add_argument("--wrench", required=True,
                         help="f1,f2,f3,m1,m2,m3 in the requested frame")
    p_stiff.add_argument("--frame", choices=[f.value for f in Frame], default="body")
    p_stiff.add_argument("--hessian", default=None,
                         help="task hessian, 6 (diagonal) or 36 numbers")
    corr = p_stiff.add_mutually_exclusive_group()
    corr.add_argument("--correction", dest="correction", action="store_true")
    corr.add_argument("--no-correction", dest="correction", action="store_false")
    p_stiff.set_defaults(correction=True)
    p_stiff.add_argument("action", choices=["compute", "audit"])
    p_stiff.set_defaults(func=_cmd_stiffness)

    p_sim = sub.add_parser("simulate", help="run the impedance-control simulator")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--config", required=True, help="controller config JSON")
    p_sim.add_argument("--wrench", required=True, help="wrench profile CSV")
    p_sim.add_argument("--trajectory", required=True, help="equilibrium path CSV")
    p_sim.add_argument("--out", required=True, help="trace CSV output path")
    p_sim.add_argument("--duration", type=float, default=None,
                       help="seconds (default: last trajectory sample time)")
    p_sim.add_argument("--emit-plotscript", default=None, metavar="PATH",
                       help="also write a gnuplot script referencing the trace")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pass = sub.add_parser("passivity", help="energy audit of a stiffness matrix")
    p_pass.add_argument("--matrix", required=True,
                        help="JSON array (inline or a file path)")
    p_pass.set_defaults(func=_cmd_passivity)

    p_ex = sub.add_parser("example", help="worked closed-form examples")
    ex_sub = p_ex.add_subparsers(dest="example_command", required=True)
    p_anthro = ex_sub.add_parser("anthro", help="3R arm rotational stiffness")
    p_anthro.add_argument("--q1", type=float, default=0.0)
    p_anthro.add_argument("--m", default="1,0,0", help="external moment m1,m2,m3")
    p_anthro.set_defaults(func=_cmd_example_anthro)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow surfaces once, as a NonFinite, not also as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (GeostiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
