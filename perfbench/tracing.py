"""Layer spans for the traced benchmark run.

Each timed function is wrapped at the attribute its caller looks it up
through, and the original is put back when the trace is removed:

* ``stiffness`` and ``cli`` import ``correction_matrix`` by name, so both of
  those bindings are wrapped; wrapping ``connection.correction_matrix`` would
  catch nothing.
* ``simulate`` looks up ``sim.design_damping`` and ``robot_mod.*`` as module
  globals, and ``bundled_model`` looks up ``robot.load_model`` the same way.
* LAPACK-backed entry points are the ``numpy.linalg`` attributes.
* The host-reference kernel, which ``wipe_sim`` runs inside ``simulate``,
  is a span of its own, so that ``sim.simulate`` self time leaves it out.

Spans nest: a span's self time is its duration minus that of its direct child
spans. Spans are aggregated as they close, per phase ("setup" or "op"), so a
long run keeps a fixed amount of memory.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import workloads

LINALG = ("eigvalsh", "eigh", "solve", "cholesky", "svd", "inv", "det")


def _matrix_dim(args, kwargs):
    """Tag of an audit or loop_work span: the shape of its matrix, as "7x7"."""
    return "x".join(map(str, getattr(args[0] if args else kwargs.get("k"), "shape", ())))


def targets(gs):
    """(owner, attribute, span name, tag function) for every traced call."""
    return [
        (gs.robot, "full_kinematics", "robot.full_kinematics", None),
        (gs.robot, "jacobian", "robot.jacobian", None),
        (gs.robot, "forward_kinematics", "robot.forward_kinematics", None),
        (gs.robot, "load_model", "robot.load_model", None),
        (gs.stiffness, "assemble_joint_stiffness", "stiffness.assemble_joint_stiffness", None),
        (gs.stiffness, "symmetry_report", "stiffness.symmetry_report", None),
        (gs.stiffness, "joint_stiffness", "stiffness.joint_stiffness", None),
        (gs.stiffness, "correction_matrix", "connection.correction_matrix", None),
        (gs.cli, "correction_matrix", "connection.correction_matrix", None),
        (gs.sim, "design_damping", "sim.design_damping", None),
        (gs.sim, "simulate", "sim.simulate", None),
        (gs.passivity, "audit_stiffness", "passivity.audit_stiffness", _matrix_dim),
        (gs.passivity, "loop_work", "passivity.loop_work", _matrix_dim),
        (gs.cli, "main", "cli.main", None),
        (gs.cli, "resolve_model", "cli.resolve_model", None),
        (workloads, "kernel_us", "hostref.kernel_us", None),
    ] + [(np.linalg, f, "linalg." + f, None) for f in LINALG]


class Tracer:
    """Wraps the traced calls while installed and aggregates their spans."""

    def __init__(self, gs):
        self.targets = targets(gs)
        self.originals = [getattr(owner, attr) for owner, attr, _, _ in self.targets]
        self.phase = "op"
        # stats[phase][key] = [calls, total ns, self ns]; key is the span name,
        # or "name[tag]" for a tagged span (both are recorded)
        self.stats = {"setup": defaultdict(lambda: [0, 0, 0]),
                      "op": defaultdict(lambda: [0, 0, 0])}
        self._stack = []  # child ns of each open span

    def install(self, phase: str) -> None:
        self.phase = phase
        for owner, attr, name, tag in self.targets:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, tag))

    def remove(self) -> None:
        for (owner, attr, _, _), original in zip(self.targets, self.originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(getattr(owner, attr) is original
                   for (owner, attr, _, _), original in zip(self.targets, self.originals))

    def _wrap(self, fn, name, tag):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = f"{name}[{tag(args, kwargs)}]" if tag else name
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats = self.stats[self.phase]
                for k in {name, key}:
                    agg = stats[k]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - child

        return span

    def _summed(self, key, field):
        return self.stats["setup"].get(key, [0, 0, 0])[field] + \
            self.stats["op"].get(key, [0, 0, 0])[field]

    def calls(self, key):
        """Traced calls in both phases."""
        return self._summed(key, 0)

    def us_per_call(self, key, self_time=False):
        """Mean span time over every traced call (setup and op phases)."""
        calls = self.calls(key)
        return self._summed(key, 2 if self_time else 1) / 1e3 / calls if calls else 0.0

    def op_calls(self, key):
        return self.stats["op"].get(key, [0, 0, 0])[0]

    def op_us(self, key):
        return self.stats["op"].get(key, [0, 0, 0])[1] / 1e3

    def op_self_us(self, key):
        return self.stats["op"].get(key, [0, 0, 0])[2] / 1e3

    def linalg(self):
        """(calls, µs) of numpy.linalg spans in the op phase."""
        keys = ["linalg." + f for f in LINALG]
        return sum(self.op_calls(k) for k in keys), sum(self.op_us(k) for k in keys)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, scale: float, ops: int, steps: int, step_us: list,
                  untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer metrics of one workload's traced run.

    scale: factor to the reference host speed, applied to span times; ops:
    operations completed in traced windows; steps: simulator steps among
    them; step_us: traced simulator step latencies, already scaled (empty
    off wipe_sim); rates: scaled untraced and traced ops per second.
    """
    linalg_calls, linalg_us = tr.linalg()
    values = {
        "robot.full_kinematics.us_per_call": ("us", tr.us_per_call("robot.full_kinematics")),
        "robot.full_kinematics.calls_per_op": ("calls/op", _ratio(tr.op_calls("robot.full_kinematics"), ops)),
        "robot.jacobian.us_per_call": ("us", tr.us_per_call("robot.jacobian")),
        "robot.forward_kinematics.us_per_call": ("us", tr.us_per_call("robot.forward_kinematics")),
        "robot.load_model.us_per_call": ("us", tr.us_per_call("robot.load_model")),
        "stiffness.assemble_joint_stiffness.us_per_call": ("us", tr.us_per_call("stiffness.assemble_joint_stiffness")),
        "stiffness.symmetry_report.us_per_call": ("us", tr.us_per_call("stiffness.symmetry_report")),
        "stiffness.joint_stiffness.self_us_per_call": ("us", tr.us_per_call("stiffness.joint_stiffness", self_time=True)),
        "connection.correction_matrix.us_per_call": ("us", tr.us_per_call("connection.correction_matrix")),
        "connection.correction_matrix.calls_per_op": ("calls/op", _ratio(tr.op_calls("connection.correction_matrix"), ops)),
        "sim.design_damping.us_per_call": ("us", tr.us_per_call("sim.design_damping")),
        "sim.simulate.self_us_per_step": ("us", _ratio(tr.op_self_us("sim.simulate"), steps)),
        "sim.step_us_p50": ("us", float(np.percentile(step_us, 50)) if len(step_us) else 0.0),
        "sim.step_us_p99": ("us", float(np.percentile(step_us, 99)) if len(step_us) else 0.0),
        "passivity.audit_stiffness.self_us_per_call": ("us", tr.us_per_call("passivity.audit_stiffness", self_time=True)),
        "passivity.loop_work.calls_per_audit": ("calls/audit", _ratio(tr.calls("passivity.loop_work[7x7]"),
                                                                      tr.calls("passivity.audit_stiffness[7x7]"))),
        "passivity.loop_work.us_per_call": ("us", tr.us_per_call("passivity.loop_work")),
        "cli.main.self_us_per_call": ("us", tr.us_per_call("cli.main", self_time=True)),
        "cli.resolve_model.us_per_call": ("us", tr.us_per_call("cli.resolve_model")),
        "linalg.calls_per_op": ("calls/op", _ratio(linalg_calls, ops)),
        "linalg.us_per_op": ("us", _ratio(linalg_us, ops)),
        "trace.overhead_frac": ("ratio", 1.0 - _ratio(traced_rate, untraced_rate)),
    }
    return {name: {"value": value * scale if unit == "us" and not name.startswith("sim.step_us")
                   else value, "unit": unit}
            for name, (unit, value) in values.items()}
