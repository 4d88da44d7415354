"""Impedance-control simulation, damping design, and trace I/O."""

import math

import numpy as np
import pytest

from geostiff import robot, sim, stiffness as st
from geostiff.connection import Frame
from geostiff.errors import (
    DimensionMismatch,
    IntegrationDiverged,
    NegativeEigenvalue,
    NonFinite,
    NonPositiveDefinite,
    ValidationError,
)

from conftest import random_q
from oracles import wrench_pairing

Q0_IIWA = np.array([0.0, 0.5, 0.0, -1.2, 0.0, 0.8, 0.0])


def body_controller(with_correction=True, zeta=1.0, rate=1000.0,
                    k_t=1000.0, k_r=100.0):
    return sim.ControllerConfig(
        task_hessian=st.TaskStiffness.diagonal(k_t, k_r, Frame.BODY),
        damping_ratio=zeta,
        frame=Frame.BODY,
        with_correction=with_correction,
        rate=rate,
    )


class TestControllerConfig:
    def test_rejects_bad_damping_ratio(self):
        with pytest.raises(ValidationError):
            body_controller(zeta=0.0)
        with pytest.raises(ValidationError):
            body_controller(zeta=2.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            body_controller(rate=50.0)

    def test_rejects_frame_mismatch(self):
        hessian = st.TaskStiffness.diagonal(100.0, 10.0, Frame.HYBRID)
        with pytest.raises(ValidationError):
            sim.ControllerConfig(hessian, 1.0, Frame.BODY, True, 1000.0)


class TestSampledPaths:
    def test_interpolation_and_clamping(self):
        path = sim.JointPath([0.0, 1.0], [[0.0, 0.0], [2.0, 4.0]])
        assert np.abs(path.evaluate(0.5) - [1.0, 2.0]).max() < 1e-15
        assert np.array_equal(path.evaluate(5.0), [2.0, 4.0])
        assert np.array_equal(path.evaluate(-1.0), [0.0, 0.0])

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValidationError):
            sim.JointPath([0.0, 0.0], [[0.0], [1.0]])

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValidationError):
            sim.JointPath([0.0, 1.0], [[0.0], [np.inf]])

    def test_wrench_profile_needs_six_columns(self):
        with pytest.raises(DimensionMismatch):
            sim.WrenchProfile([0.0, 1.0], np.zeros((2, 5)))

    def test_ramp_profile(self):
        ramp = sim.WrenchProfile.ramp(10.0, [0, 0, 0, 0, 0, 10.0])
        assert np.array_equal(ramp.evaluate(0.0), np.zeros(6))
        assert np.abs(ramp.evaluate(5.0) - [0, 0, 0, 0, 0, 5.0]).max() < 1e-12

    def test_csv_round_trip(self, tmp_path):
        path = sim.JointPath([0.0, 0.5, 1.0], [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        file = tmp_path / "traj.csv"
        path.to_csv(file)
        again = sim.JointPath.from_csv(file)
        assert np.array_equal(again.times, path.times)
        assert np.array_equal(again.values, path.values)

    def test_csv_header_validated(self, tmp_path):
        file = tmp_path / "bad.csv"
        file.write_text("t,x1,x2\n0,0,0\n1,1,1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            sim.JointPath.from_csv(file)


class TestDesignDamping:
    def test_scalar_critically_damped(self):
        b = sim.design_damping([[8.0]], [[2.0]], 1.0)
        assert b[0, 0] == pytest.approx(8.0, rel=1e-12)

    def test_zero_stiffness_gives_zero_damping(self):
        b = sim.design_damping(np.zeros((3, 3)), np.eye(3), 1.0)
        assert np.abs(b).max() < 1e-12

    def test_iiwa7_damping_spd(self, iiwa7):
        m = robot.mass_matrix(iiwa7, np.zeros(7))
        k = np.diag([50.0, 40.0, 30.0, 20.0, 10.0, 5.0, 2.0])
        b = sim.design_damping(k, m, 0.7)
        assert np.abs(b - b.T).max() < 1e-9
        assert np.min(np.linalg.eigvalsh(b)) > 0.0

    def test_matches_generalized_eigenproblem_oracle(self, iiwa7, rng):
        # in the modal coordinates of (K, M) the design is diagonal with
        # entries 2 zeta sqrt(k_i) m-normalized; reconstruct independently
        m = robot.mass_matrix(iiwa7, rng.uniform(-1, 1, 7))
        a = rng.normal(size=(7, 7))
        k = a @ a.T
        zeta = 0.6
        b = sim.design_damping(k, m, zeta)
        mv, mvec = np.linalg.eigh(m)
        m_isqrt = (mvec / np.sqrt(mv)) @ mvec.T
        kv, kvec = np.linalg.eigh(m_isqrt @ k @ m_isqrt)
        b_tilde = m_isqrt @ b @ m_isqrt
        modal = kvec.T @ b_tilde @ kvec
        assert np.abs(np.diag(modal) - 2 * zeta * np.sqrt(kv)).max() < 1e-9
        assert np.abs(modal - np.diag(np.diag(modal))).max() < 1e-9

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(NegativeEigenvalue):
            sim.design_damping(np.diag([1.0, -1.0]), np.eye(2), 1.0)

    def test_rejects_indefinite_inertia(self):
        with pytest.raises(NonPositiveDefinite):
            sim.design_damping(np.eye(2), np.diag([1.0, 0.0]), 1.0)


class TestSimulate:
    def test_equilibrium_is_fixed_point(self, iiwa7):
        trajectory = sim.JointPath.constant(Q0_IIWA, 1.0)
        trace = sim.simulate(iiwa7, body_controller(), trajectory,
                             sim.WrenchProfile.zero(1.0), 1.0)
        assert np.abs(trace.q - Q0_IIWA).max() <= 1e-12
        assert np.abs(trace.qdot).max() <= 1e-12

    def test_energy_decays_from_offset(self, iiwa7):
        controller = body_controller(zeta=1.0)
        trajectory = sim.JointPath.constant(Q0_IIWA, 2.0)
        trace = sim.simulate(iiwa7, controller, trajectory,
                             sim.WrenchProfile.zero(2.0), 2.0,
                             q_init=Q0_IIWA + 0.05)
        energy = np.empty(len(trace.t))
        for i in range(len(trace.t)):
            kin = robot.full_kinematics(iiwa7, trace.q[i], Frame.BODY)
            k = st.assemble_joint_stiffness(
                kin.jacobian, kin.derivative, controller.task_hessian.hessian,
                np.zeros(6), Frame.BODY, True)
            dq = trace.q[i] - Q0_IIWA
            energy[i] = (0.5 * trace.qdot[i] @ kin.mass @ trace.qdot[i]
                         + 0.5 * dq @ k @ dq)
        assert np.max(np.diff(energy)) <= 1e-6
        assert energy[-1] < 0.01 * energy[0]

    def test_deterministic(self, iiwa7):
        trajectory = sim.JointPath.constant(Q0_IIWA, 0.5)
        wrench = sim.WrenchProfile.ramp(0.5, [0, 0, 0, 0, -2.0, 0])
        a = sim.simulate(iiwa7, body_controller(), trajectory, wrench, 0.5)
        b = sim.simulate(iiwa7, body_controller(), trajectory, wrench, 0.5)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.qdot, b.qdot)
        assert np.array_equal(a.tau, b.tau)

    def test_divergence_detected(self, anthro3r):
        # drive the fixed-step integrator unstable: very stiff gains at a
        # low controller rate with almost no damping
        controller = sim.ControllerConfig(
            st.TaskStiffness.diagonal(1e8, 1e6, Frame.BODY),
            0.001, Frame.BODY, True, 100.0)
        q0 = np.array([0.0, 0.5, 0.5])
        trajectory = sim.JointPath.constant(q0, 10.0)
        with pytest.raises(IntegrationDiverged) as info:
            sim.simulate(anthro3r, controller, trajectory,
                         sim.WrenchProfile.zero(10.0), 10.0, q_init=q0 + 0.01)
        assert_names_step(info.value, None)

    def test_corrected_run_logs_symmetric_stiffness(self, iiwa7):
        trajectory = sim.JointPath.constant(Q0_IIWA, 1.0)
        wrench = sim.WrenchProfile.ramp(1.0, [0, 0, 0, 0, -5.0, 0])
        trace = sim.simulate(iiwa7, body_controller(True), trajectory, wrench, 1.0)
        ratio = trace.sigma_max_asym / np.maximum(trace.sigma_max_sym, 1e-12)
        assert ratio.max() <= 1e-9

    @pytest.mark.parametrize("with_correction", [True, False])
    def test_inertial_run(self, anthro3r, with_correction):
        controller = sim.ControllerConfig(st.TaskStiffness.diagonal(1000.0, 100.0, Frame.INERTIAL),
                                          1.0, Frame.INERTIAL, with_correction, 1000.0)
        trajectory = sim.JointPath.constant([0.3, 0.4, -0.8], 0.3)
        wrench = sim.WrenchProfile.ramp(0.3, [5.0, -3.0, 2.0, 0, -5.0, 1.0])
        trace = sim.simulate(anthro3r, controller, trajectory, wrench, 0.3)
        ratio = trace.sigma_max_asym / np.maximum(trace.sigma_max_sym, 1e-12)
        if with_correction:
            assert ratio.max() <= 1e-9
        else:
            assert trace.sigma_max_asym.max() > 0.5

    def test_uncorrected_run_logs_asymmetry(self, iiwa7):
        trajectory = sim.JointPath.constant(Q0_IIWA, 1.0)
        wrench = sim.WrenchProfile.ramp(1.0, [0, 0, 0, 0, -5.0, 0])
        trace = sim.simulate(iiwa7, body_controller(False), trajectory, wrench, 1.0)
        assert trace.sigma_max_asym.max() > 0.5

    def test_indefinite_task_spring_rejected(self, iiwa7):
        # the step's PSD check of K_sym, decided by the exact eigvalsh
        controller = body_controller(k_r=-100.0)
        with pytest.raises(NegativeEigenvalue) as info:
            sim.simulate(iiwa7, controller, sim.JointPath.constant(Q0_IIWA, 0.1),
                         sim.WrenchProfile.zero(0.1), 0.1)
        assert_names_step(info.value, 0)
        assert "t=0.000 s" in str(info.value)
        assert str(info.value.__cause__).startswith("stiffness has negative eigenvalue")

    def test_nonfinite_start_names_step(self, anthro3r):
        q0 = np.array([0.3, 0.4, -0.8])
        with pytest.raises(NonFinite) as info:
            sim.simulate(anthro3r, body_controller(), sim.JointPath.constant(q0, 0.1),
                         sim.WrenchProfile.zero(0.1), 0.1, q_init=[0.3, np.nan, -0.8])
        assert_names_step(info.value, 0)

    def test_massless_chain_names_step(self, anthro3r):
        links = tuple(robot.Link(0.0, link.com, np.zeros((3, 3))) for link in anthro3r.links)
        model = robot.RobotModel("massless", anthro3r.joints, links, anthro3r.end_effector)
        q0 = np.array([0.3, 0.4, -0.8])
        with pytest.raises(NonPositiveDefinite) as info:
            sim.simulate(model, body_controller(), sim.JointPath.constant(q0, 0.1),
                         sim.WrenchProfile.zero(0.1), 0.1)
        assert_names_step(info.value, 0)

    def test_duration_must_be_positive(self, iiwa7):
        # zero, negative, shorter than half a 1 kHz period, or not finite:
        # each gives no step
        for duration in (0.0, -1.0, 0.0004, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="gives no step"):
                sim.simulate(iiwa7, body_controller(),
                             sim.JointPath.constant(Q0_IIWA, 1.0),
                             sim.WrenchProfile.zero(1.0), duration)

    def test_trace_csv_round_trip(self, iiwa7, tmp_path):
        trajectory = sim.JointPath.constant(Q0_IIWA, 0.1)
        trace = sim.simulate(iiwa7, body_controller(), trajectory,
                             sim.WrenchProfile.zero(0.1), 0.1)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[-2:] == ["sigma_max_sym", "sigma_max_asym"]
        assert len(lines) == 1 + len(trace.t)
        # full round trip precision through %.17g
        row = np.array([float(x) for x in lines[1].split(",")])
        assert row[1:8] == pytest.approx(trace.q[0], abs=0.0)


def assert_names_step(exc, step):
    """A run's error names the step (any step if None), its t and q."""
    text = str(exc)
    assert (" at step " if step is None else f" at step {step},") in text
    assert " t=" in text and " s, q=[" in text
    assert type(exc.__cause__) is type(exc)


def _psd_outcome(check, *args):
    """The message a PSD check raises, or None if it passes."""
    try:
        check(*args)
    except NegativeEigenvalue as exc:
        return str(exc)
    return None


def _spd(rng, vals):
    q, _ = np.linalg.qr(rng.normal(size=(len(vals), len(vals))))
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


class TestStepPsdCheck:
    """The step decides the -1e-9 PSD check of K_sym from the spectrum mu of
    the damping design's A^T K_sym A, and falls back to eigvalsh(K_sym)."""

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("lam_min", [-1e-6, -2e-9, -1.01e-9, -0.99e-9, -1e-12, 0.0, 1e-3])
    def test_decision_matches_exact_check(self, rng, lam_min, scale):
        for _ in range(10):
            m = _spd(rng, rng.uniform(0.01, 10.0, 7))
            k = _spd(rng, np.concatenate(([lam_min], scale * rng.uniform(0.1, 1.0, 6))))
            m_vals, m_vecs = np.linalg.eigh(m)
            assert (_psd_outcome(sim._damping_from_factor, k, m_vals, m_vecs, 1.0)
                    == _psd_outcome(sim._check_psd, np.linalg.eigvalsh(k)[0]))

    @pytest.mark.parametrize("with_correction", [True, False])
    def test_two_eigen_solves_per_step(self, iiwa7, monkeypatch, with_correction):
        trajectory = sim.semicircle_trajectory(iiwa7, Q0_IIWA, 0.5, radius=0.1)
        wrench = sim.WrenchProfile.ramp(0.5, [0, 0, 0, 0, -10.0, 0])
        calls = {"eigh": 0, "eigvalsh": 0}

        def counting(name):
            inner = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        trace = sim.simulate(iiwa7, body_controller(with_correction), trajectory, wrench, 0.5)
        steps = len(trace.t)
        assert steps == 500
        assert calls["eigh"] == 2 * steps
        assert 1 <= calls["eigvalsh"] <= math.ceil(steps / sim._DIAGNOSTIC_CHUNK) + 1


class TestLoggedDiagnostics:
    # the INERTIAL case is the stable anthro3r run of test_inertial_run
    CASES = {
        Frame.BODY: ("iiwa7", Q0_IIWA, [2.0, -1.0, 3.0, 0.5, -5.0, 1.0]),
        Frame.HYBRID: ("iiwa7", Q0_IIWA, [2.0, -1.0, 3.0, 0.5, -5.0, 1.0]),
        Frame.INERTIAL: ("anthro3r", [0.3, 0.4, -0.8], [5.0, -3.0, 2.0, 0, -5.0, 1.0]),
    }

    @pytest.mark.parametrize("frame", list(Frame))
    @pytest.mark.parametrize("with_correction", [True, False])
    def test_sigmas_match_symmetry_report(self, monkeypatch, frame, with_correction):
        # a small chunk so that 200 steps span full chunks and a partial one
        monkeypatch.setattr(sim, "_DIAGNOSTIC_CHUNK", 64)
        name, q0, final_wrench = self.CASES[frame]
        model = robot.bundled_model(name)
        controller = sim.ControllerConfig(st.TaskStiffness.diagonal(1000.0, 100.0, frame),
                                          1.0, frame, with_correction, 1000.0)
        trace = sim.simulate(model, controller, sim.JointPath.constant(q0, 0.2),
                             sim.WrenchProfile.ramp(0.2, final_wrench), 0.2)
        assert len(trace.t) == 200
        for i in range(len(trace.t)):
            kin = robot.full_kinematics(model, trace.q[i], frame)
            f = sim._wrench_in_frame(trace.f_ext[i], kin.pose, frame)
            k = st.assemble_joint_stiffness(kin.jacobian, kin.derivative,
                                            controller.task_hessian.hessian, f, frame,
                                            with_correction)
            report = st.symmetry_report(k)
            tol = 1e-12 * report.sigma_max_sym
            assert abs(trace.sigma_max_sym[i] - report.sigma_max_sym) <= tol
            assert abs(trace.sigma_max_asym[i] - report.sigma_max_asym) <= tol
        if not with_correction:
            assert trace.sigma_max_asym.max() > 1e-3 * trace.sigma_max_sym.max()


class TestWrenchInFrame:
    @pytest.mark.parametrize("frame", list(Frame))
    def test_same_joint_torque_and_power_in_every_frame(self, iiwa7, rng, frame):
        for _ in range(10):
            q = random_q(rng, iiwa7)
            f_h = rng.normal(scale=10.0, size=6)
            qd = rng.normal(size=7)
            f = sim._wrench_in_frame(f_h, robot.forward_kinematics(iiwa7, q), frame)
            jac = robot.jacobian(iiwa7, q, frame)
            j_h = robot.jacobian(iiwa7, q, Frame.HYBRID)
            assert np.abs(jac.T @ f - j_h.T @ f_h).max() <= 1e-12 * max(1.0, np.abs(f_h).max())
            assert wrench_pairing(f, jac @ qd) == pytest.approx(wrench_pairing(f_h, j_h @ qd),
                                                                rel=1e-12, abs=1e-12)


    def test_simulator_applies_the_same_load_in_every_frame(self, anthro3r):
        # from rest at equilibrium the first step's velocity is dt M^-1 J^T F,
        # whatever the spring, so it shows the load the plant received
        q0 = np.array([0.3, 0.4, -0.8])
        f_h = np.array([3.0, -2.0, 5.0, 0.5, -1.0, 0.8])
        wrench = sim.WrenchProfile([0.0, 0.01], np.vstack([f_h, f_h]))
        mass = robot.mass_matrix(anthro3r, q0)
        expected = 1e-3 * np.linalg.solve(mass, robot.jacobian(anthro3r, q0, Frame.HYBRID).T @ f_h)
        for frame in Frame:
            controller = sim.ControllerConfig(st.TaskStiffness.diagonal(1000.0, 100.0, frame),
                                              1.0, frame, True, 1000.0)
            trace = sim.simulate(anthro3r, controller, sim.JointPath.constant(q0, 0.01),
                                 wrench, 0.002)
            assert np.abs(trace.qdot[1] - expected).max() <= 1e-12


class TestSemicircleTrajectory:
    def test_tracks_arc_in_base_plane(self, iiwa7):
        traj = sim.semicircle_trajectory(iiwa7, Q0_IIWA, 10.0, radius=0.1,
                                         samples=41)
        start = robot.forward_kinematics(iiwa7, traj.values[0]).translation
        center = start - np.array([0.1, 0.0, 0.0])
        for qs, ang in zip(traj.values, np.linspace(0, np.pi, 41)):
            p = robot.forward_kinematics(iiwa7, qs).translation
            target = center + 0.1 * np.array([np.cos(ang), np.sin(ang), 0.0])
            assert np.linalg.norm(p - target) < 1e-7

    def test_unreachable_arc_fails(self, iiwa7):
        with pytest.raises(ValidationError):
            sim.semicircle_trajectory(iiwa7, Q0_IIWA, 10.0, radius=5.0,
                                      samples=11, max_iters=20)
