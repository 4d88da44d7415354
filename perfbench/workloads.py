"""The benchmark workloads.

Every workload is a closed loop: an operation starts when the previous one
returns. Inputs come from the workload seed and are generated between
operations, outside their timed region. Each workload holds its own import
of geostiff (``gs``), so a trace can wrap exactly the modules it calls.

An operation fails when it raises, exits non-zero or fails an output check.
Output checks use the paper's properties, not bitwise hashes, so a change
that reorders floating-point sums still passes:

* corrected joint stiffness is symmetric: asym ratio <= 1e-9;
* baseline stiffness under a moment is not;
* a simulation neither diverges nor leaves a non-finite trace;
* corrected audits are passive and baseline audits under a moment are not;
* CLI calls exit 0 and print parseable JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from hostref import kernel_us

SYMMETRIC_RATIO = 1e-9    # corrected stiffness: paper's machine-precision symmetry
ASYMMETRIC_RATIO = 1e-6   # baseline stiffness under a moment: clearly asymmetric

clock = time.perf_counter_ns


def _asym_ratio(sym, asym):
    return asym / max(sym, 1e-12)


def _spd(rng, scale):
    a = rng.normal(size=(6, 6))
    return scale * (a @ a.T / 6.0 + 0.1 * np.eye(6))


def _within_limits(rng, model, scale=1.5):
    limits = model.limits()
    return rng.uniform(np.maximum(limits[:, 0], -scale), np.minimum(limits[:, 1], scale))


def _wrench(rng):
    """Force and moment both present; moments of a few N m."""
    return np.concatenate([rng.normal(scale=10.0, size=3), rng.normal(scale=5.0, size=3)])


class Workload:
    """Shared bookkeeping: op counts by kind, failures, first error per kind."""

    name = ""

    def __init__(self, gs, seed: int, workdir: Path):
        self.gs = gs
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.kind_ops = Counter()
        self.kind_failed = Counter()
        self.wrong = 0          # ops that returned a wrong answer
        self.first_error = {}
        self.pending = []       # kinds left in the current block

    def _count(self, kind, n, ok, wrong=False, error=None):
        self.kind_ops[kind] += n
        if not ok:
            self.kind_failed[kind] += n
            self.wrong += n if wrong else 0
            if error and kind not in self.first_error:
                self.first_error[kind] = error

    def _raised(self, kind, n):
        text = traceback.format_exc()
        if kind not in self.first_error:
            print(f"[{self.name}] {kind} raised:\n{text}", file=sys.stderr)
        self._count(kind, n, False, error=text.strip().splitlines()[-1])

    def _reset_counts(self):
        """Forget warm-up ops, which set-up runs but the benchmark does not count."""
        self.kind_ops.clear()
        self.kind_failed.clear()
        self.first_error.clear()
        self.wrong = 0

    @property
    def attempted(self):
        return sum(self.kind_ops.values())

    @property
    def failed(self):
        return sum(self.kind_failed.values())

    def setup(self):
        """Model load, input generation and warm-up; timed as set-up."""
        raise NotImplementedError

    def run_slice(self, seconds: float):
        """Run whole op blocks until `seconds` have passed (at least one block).

        Returns the ops' wall times and the host-reference kernel's wall
        times measured between them, both in µs, and how many consecutive
        ops share one kernel run.
        """
        raise NotImplementedError

    def _next_kind(self):
        """Kinds come in seeded permutations of the fixed BLOCK."""
        if not self.pending:
            self.pending = [self.BLOCK[i] for i in self.rng.permutation(len(self.BLOCK))]
        return self.pending.pop()

    def _run_ops(self, seconds, op):
        deadline = time.perf_counter() + seconds
        latencies, refs = [], []
        while self.pending or time.perf_counter() < deadline:
            latencies.append(op(*self._next()) / 1e3)
            refs.append(kernel_us())
        return latencies, refs, 1


class WipeSim(Workload):
    """sim.simulate on iiwa7 along the acceptance-criterion-8 semicircle wipe.

    One operation is one 1 kHz controller step. Each simulate call wipes the
    0.1 m semicircle in WIPE_SECONDS under a BODY-frame moment ramping to
    -10 N m. A window is one corrected and one baseline call, in a seeded
    order, so traced and untraced windows see both controllers. The
    host-reference kernel runs before every REF_EVERY-th step.
    """

    name = "wipe_sim"
    Q0 = np.array([0.0, 0.5, 0.0, -1.2, 0.0, 0.8, 0.0])   # criterion 8 start
    WIPE_SECONDS = 0.5
    RATE = 1000.0
    MOMENT = np.array([0.0, 0.0, 0.0, 0.0, -10.0, 0.0])
    REF_EVERY = 5

    def setup(self):
        gs = self.gs
        Frame = gs.connection.Frame
        model = gs.robot.bundled_model("iiwa7")
        q0 = self.Q0 + self.rng.uniform(-0.1, 0.1, size=7)
        self.trajectory = gs.sim.semicircle_trajectory(model, q0, self.WIPE_SECONDS, radius=0.1)
        self.wrench = gs.sim.WrenchProfile.ramp(self.WIPE_SECONDS, self.MOMENT)
        hessian = gs.stiffness.TaskStiffness.diagonal(1000.0, 100.0, Frame.BODY)
        self.controllers = [
            (kind, gs.sim.ControllerConfig(hessian, 1.0, Frame.BODY, kind == "corrected", self.RATE))
            for kind in ("corrected", "baseline")
        ]
        if self.rng.random() < 0.5:
            self.controllers.reverse()
        self.model = model
        gs.sim.simulate(model, self.controllers[0][1], self.trajectory, self.wrench, 0.02)

    def run_slice(self, seconds):
        """Both simulate calls, however long `seconds` is."""
        latencies, refs = [], []
        for kind, controller in self.controllers:
            call_latencies, call_refs = self._simulate(kind, controller)
            latencies.extend(call_latencies)
            refs.extend(call_refs)
        return latencies, refs, self.REF_EVERY

    def _simulate(self, kind, controller):
        """Steps are timed by stamping the entry of each step's full_kinematics
        call, the first thing a step does. A call that raises yields nothing."""
        robot = self.gs.robot
        inner = robot.full_kinematics
        ends, starts, refs = [], [], []   # previous step's end, this step's start

        def stamped(*args, **kwargs):
            now = clock()
            ends.append(now)
            if len(ends) % self.REF_EVERY == 0:
                refs.append(kernel_us())
                now = clock()
            starts.append(now)
            return inner(*args, **kwargs)

        robot.full_kinematics = stamped
        try:
            trace = self.gs.sim.simulate(self.model, controller, self.trajectory,
                                         self.wrench, self.WIPE_SECONDS)
        except Exception:
            self._raised(kind, int(round(self.WIPE_SECONDS * self.RATE)))
            return [], []
        finally:
            robot.full_kinematics = inner
        ends.append(clock())
        ok = self._check(kind, trace)
        self._count(kind, len(trace.t), ok, wrong=not ok,
                    error=None if ok else f"{kind} trace failed its output check")
        return ((np.array(ends[1:]) - np.array(starts)) / 1e3).tolist(), refs

    @staticmethod
    def _check(kind, trace):
        arrays = (trace.q, trace.qdot, trace.tau, trace.sigma_max_sym, trace.sigma_max_asym)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return False
        if kind == "corrected":
            return float(np.max(trace.sigma_max_asym / np.maximum(trace.sigma_max_sym, 1e-12))) <= SYMMETRIC_RATIO
        return float(np.max(trace.sigma_max_asym)) > 1.0


class Query(Workload):
    """One-shot joint_stiffness + symmetry_report on iiwa7.

    Every query draws a fresh configuration within limits, a wrench with
    moments and a random SPD task spring. Kinds come in seeded permutations
    of a fixed block, weighted so the median falls inside the BODY-corrected
    mode rather than on the boundary between two cost modes.
    """

    name = "query"
    BLOCK = [("body", True)] * 9 + [("body", False)] * 3 + [("hybrid", True)] * 3 + [("hybrid", False)]

    def setup(self):
        self.model = self.gs.robot.bundled_model("iiwa7")
        for _ in range(len(self.BLOCK)):
            self._query(*self._next())
        self._reset_counts()

    def _next(self):
        frame, corrected = self._next_kind()
        q = _within_limits(self.rng, self.model)
        return frame, corrected, q, _wrench(self.rng), _spd(self.rng, 200.0)

    def _query(self, frame_name, corrected, q, wrench, hessian):
        st = self.gs.stiffness
        frame = self.gs.connection.Frame.parse(frame_name)
        kind = f"{frame_name}_{'corrected' if corrected else 'baseline'}"
        start = clock()
        try:
            result = st.joint_stiffness(self.model, q, st.TaskStiffness(hessian, frame),
                                        wrench, frame, with_correction=corrected)
            report = st.symmetry_report(result.matrix)
        except Exception:
            end = clock()
            self._raised(kind, 1)
            return end - start
        end = clock()
        ratio = _asym_ratio(report.sigma_max_sym, report.sigma_max_asym)
        ok = bool(np.all(np.isfinite(result.matrix))) and (
            ratio <= SYMMETRIC_RATIO if corrected else ratio > ASYMMETRIC_RATIO)
        self._count(kind, 1, ok, wrong=not ok, error=None if ok else f"asym ratio {ratio:.3e}")
        return end - start

    def run_slice(self, seconds):
        return self._run_ops(seconds, self._query)


def _floats(values):
    return ",".join(repr(float(x)) for x in values)


class Cli(Workload):
    """In-process geostiff.cli.main(argv), stdout and stderr captured.

    Ops come in seeded permutations of a fixed block of 20, weighted so that
    iiwa7 `stiffness compute` sets the median and iiwa7 `stiffness audit`
    (the costliest kind, 1 in 20) sets the 99th percentile.

    `passivity --matrix` gets a full-precision 7x7 matrix both as a file and
    inline, as users send it. The inline form is about 1 kB, and at the
    parent commit of this benchmark it exits 1 with "[Errno 36] File name
    too long" (Path(arg).exists() raises on names over 255 bytes). So
    failed/attempted reads 1/20 = 0.05 there, all of it from
    passivity_inline.
    """

    name = "cli"
    BLOCK = (["compute_iiwa7"] * 13 + ["compute_anthro3r"] * 2 + ["audit_anthro3r", "audit_iiwa7",
             "example_anthro", "passivity_file", "passivity_inline"])

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.matrix_file = self.workdir / "matrix.json"
        for kind in sorted(set(self.BLOCK)):
            self._op(*self._argv(kind))
        self._reset_counts()

    def _next(self):
        return self._argv(self._next_kind())

    def _argv(self, kind):
        """(kind, argv, check): check(payload) says whether the output is right."""
        rng = self.rng
        if kind.startswith(("compute", "audit")):
            action, model = kind.split("_")
            n = 7 if model == "iiwa7" else 3
            q = rng.uniform(-1.5, 1.5, size=n)
            corrected = rng.random() < 0.75
            argv = ["stiffness", "--model", model, f"--q={_floats(q)}", f"--wrench={_floats(_wrench(rng))}",
                    "--frame", str(rng.choice(["body", "hybrid"])),
                    f"--hessian={_floats(rng.uniform(100.0, 1000.0, size=6))}",
                    "--correction" if corrected else "--no-correction", action]

            def check(p):
                ratio = _asym_ratio(p["sigma_max_sym"], p["sigma_max_asym"])
                symmetric_ok = ratio <= SYMMETRIC_RATIO if corrected else ratio > ASYMMETRIC_RATIO
                return symmetric_ok and (action == "compute" or p["passive"] == corrected)
            return kind, argv, check
        if kind == "example_anthro":
            q1 = rng.uniform(-np.pi, np.pi)
            m = rng.normal(scale=5.0, size=3)
            argv = ["example", "anthro", f"--q1={q1!r}", f"--m={_floats(m)}"]

            def check(p):
                a = 0.5 * (m[0] * np.cos(q1) + m[1] * np.sin(q1))
                c = np.asarray(p["corrected"])
                return abs(p["a"] - a) <= 1e-12 * max(1.0, abs(a)) and \
                    np.abs(c - c.T).max() <= SYMMETRIC_RATIO * max(1.0, np.abs(c).max())
            return kind, argv, check
        # passivity: a stiffness-scale symmetric 7x7 matrix, plus an
        # antisymmetric part (not passive) half the time
        b = rng.normal(scale=100.0, size=(7, 7))
        k = b + b.T
        passive = rng.random() < 0.5
        if not passive:
            c = rng.normal(scale=10.0, size=(7, 7))
            k = k + (c - c.T)
        text = json.dumps(k.tolist())
        if kind == "passivity_file":
            self.matrix_file.write_text(text, encoding="utf-8")
            text = str(self.matrix_file)
        return kind, ["passivity", "--matrix", text], lambda p: p["passive"] == passive

    def _op(self, kind, argv, check):
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.gs.cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
        except Exception:
            end = clock()
            self._raised(kind, 1)
            return end - start
        end = clock()
        if code != 0:
            self._count(kind, 1, False, error=f"exit {code}: {err.getvalue().strip()[:120]}")
            return end - start
        try:
            ok = bool(check(json.loads(out.getvalue())))
        except (ValueError, KeyError, TypeError):
            ok = False
        self._count(kind, 1, ok, wrong=not ok, error=None if ok else "output check failed")
        return end - start

    def run_slice(self, seconds):
        return self._run_ops(seconds, self._op)


WORKLOADS = {w.name: w for w in (WipeSim, Query, Cli)}
