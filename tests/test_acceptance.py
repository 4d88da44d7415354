"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line on success (visible with -v / -rA);
a failed assertion marks the criterion as failed.
"""

import time

import numpy as np
import pytest

from geostiff import passivity as pv
from geostiff import robot, se3, sim, stiffness as st
from geostiff.connection import Frame, christoffel_table, correction_matrix

from conftest import random_q
from oracles import basis_twist

RNG = np.random.default_rng(20240817)


def _report(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_1_structure_constants():
    start = time.perf_counter()
    c = se3.STRUCTURE_CONSTANTS

    expected = {
        (3, 1, 5): 1.0, (1, 2, 6): 1.0, (2, 3, 4): 1.0,
        (6, 4, 5): 1.0, (4, 5, 6): 1.0, (5, 6, 4): 1.0,
        (2, 6, 1): 1.0, (3, 4, 2): 1.0, (1, 5, 3): 1.0,
    }
    for (k, i, j), v in expected.items():
        assert se3.structure_constant(k, i, j) == v
        assert se3.structure_constant(k, j, i) == -v
    assert np.count_nonzero(c) == 18

    # independent re-derivation from matrix commutators of the hat basis
    derived = np.zeros((6, 6, 6))
    for i in range(6):
        for j in range(6):
            ei, ej = basis_twist(i + 1), basis_twist(j + 1)
            bracket = se3.hat(ei) @ se3.hat(ej) - se3.hat(ej) @ se3.hat(ei)
            derived[:, i, j] = se3.vee(bracket)
    assert np.array_equal(derived, c)

    # antisymmetry across all 216 triples
    assert np.array_equal(c, -c.transpose(0, 2, 1))

    assert time.perf_counter() - start < 1.0
    _report(1, "structure constants")


def test_criterion_2_christoffel_table():
    start = time.perf_counter()
    expected = {
        (3, 2, 4): 1.0, (1, 3, 5): 1.0, (2, 1, 6): 1.0,
        (2, 3, 4): -1.0, (3, 1, 5): -1.0, (1, 2, 6): -1.0,
        (4, 6, 5): 0.5, (5, 4, 6): 0.5, (6, 5, 4): 0.5,
        (4, 5, 6): -0.5, (5, 6, 4): -0.5, (6, 4, 5): -0.5,
    }
    gamma = christoffel_table(Frame.BODY)
    for (m, i, j), v in expected.items():
        assert gamma[m - 1, i - 1, j - 1] == v
    assert np.count_nonzero(gamma) == 12

    # torsion identity: the lower-index antisymmetry of the table recovers
    # the structure constants, exactly, for all 216 triples
    c = se3.STRUCTURE_CONSTANTS
    assert np.array_equal(gamma - gamma.transpose(0, 2, 1), c.transpose(0, 2, 1))

    assert time.perf_counter() - start < 1.0
    _report(2, "christoffel table")


def test_criterion_3_correction_matrix_pattern():
    for _ in range(100):
        f = RNG.normal(scale=20.0, size=6)
        out = correction_matrix(Frame.BODY, f)
        expected = np.zeros((6, 6))
        expected[:3, 3:] = se3.skew(f[:3])
        expected[3:, 3:] = 0.5 * se3.skew(f[3:])
        assert np.array_equal(out, expected)
    _report(3, "correction matrix pattern")


def test_criterion_4_3r_closed_forms():
    start = time.perf_counter()
    model = robot.bundled_model("anthro3r")
    hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.HYBRID)
    for _ in range(50):
        q1 = RNG.uniform(-np.pi, np.pi)
        m = RNG.normal(scale=5.0, size=3)
        q = np.array([q1, 0.0, 0.0])
        wrench = np.concatenate([np.zeros(3), m])
        a = 0.5 * (m[0] * np.cos(q1) + m[1] * np.sin(q1))

        k_kin = st.kinematic_stiffness(model, q, wrench, Frame.HYBRID)
        expected_kin = np.zeros((3, 3))
        expected_kin[1, 0] = expected_kin[2, 0] = 2 * a
        assert np.abs(k_kin - expected_kin).max() <= 1e-12

        jac = robot.jacobian(model, q, Frame.HYBRID)
        sandwich = jac.T @ correction_matrix(Frame.HYBRID, wrench) @ jac
        expected_corr = np.array([[0, a, a], [-a, 0, 0], [-a, 0, 0]])
        assert np.abs(sandwich - expected_corr).max() <= 1e-12

        total = st.joint_stiffness(model, q, hessian, wrench,
                                   Frame.HYBRID, with_correction=True).matrix
        expected_total = np.array([[0, a, a], [a, 0, 0], [a, 0, 0]])
        assert np.abs(total - expected_total).max() <= 1e-12
    assert time.perf_counter() - start < 1.0
    _report(4, "3R closed forms")


def test_criterion_5_central_symmetry_property():
    start = time.perf_counter()
    models = [robot.bundled_model("anthro3r"), robot.bundled_model("iiwa7")]
    asym_hits = 0
    total = 0
    for model in models:
        for frame in (Frame.BODY, Frame.HYBRID):
            for _ in range(250):
                q = random_q(RNG, model)
                f = np.concatenate([RNG.uniform(-50, 50, 3),
                                    RNG.uniform(-10, 10, 3)])
                a = RNG.normal(size=(6, 6))
                hessian = st.TaskStiffness(100.0 * (a @ a.T) / 6.0, frame)

                k = st.joint_stiffness(model, q, hessian, f, frame, True).matrix
                rep = st.symmetry_report(k)
                assert rep.sigma_max_asym <= 1e-9 * max(1.0, rep.sigma_max_sym)

                m_dir = RNG.normal(size=3)
                f10 = np.concatenate([f[:3], 10.0 * m_dir / np.linalg.norm(m_dir)])
                k0 = st.joint_stiffness(model, q, hessian, f10, frame, False).matrix
                total += 1
                if st.symmetry_report(k0).sigma_max_asym > 0.1:
                    asym_hits += 1
    assert asym_hits >= 0.95 * total
    assert time.perf_counter() - start < 30.0
    _report(5, "central symmetry property")


def test_criterion_6_jacobian_derivative_oracle():
    start = time.perf_counter()
    step = 1e-6
    for name in ("anthro3r", "iiwa7"):
        model = robot.bundled_model(name)
        n = model.n
        for trial in range(200):
            frame = Frame.BODY if trial % 2 == 0 else Frame.HYBRID
            q = random_q(RNG, model)
            d = robot.jacobian_transpose_derivative(model, q, frame)
            for alpha in range(n):
                dq = np.zeros(n)
                dq[alpha] = step
                fd = (robot.jacobian(model, q + dq, frame)
                      - robot.jacobian(model, q - dq, frame)) / (2 * step)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(d[alpha] - fd).max() <= 1e-6 * scale
    assert time.perf_counter() - start < 10.0
    _report(6, "jacobian derivative oracle")


def test_criterion_7_passivity_audit():
    start = time.perf_counter()
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ccw = pv.loop_work(k, pv.circle_path(2, (0, 1), segments=3600))
    assert abs(abs(ccw.net_work) - 2 * np.pi) <= 1e-3
    cw = pv.loop_work(k, pv.circle_path(2, (0, 1), segments=3600).reversed())
    assert abs(cw.net_work + ccw.net_work) <= 1e-12

    for _ in range(20):
        d = int(RNG.integers(2, 8))
        a = RNG.normal(scale=10.0, size=(d, d))
        s = a + a.T
        i, j = sorted(RNG.choice(d, size=2, replace=False))
        audit = pv.loop_work(s, pv.circle_path(d, (i, j), segments=3600))
        assert abs(audit.net_work) <= 1e-9
    assert time.perf_counter() - start < 1.0
    _report(7, "passivity audit")


def test_criterion_8_simulation_suite():
    model = robot.bundled_model("iiwa7")
    q0 = np.array([0.0, 0.5, 0.0, -1.2, 0.0, 0.8, 0.0])
    hessian = st.TaskStiffness.diagonal(1000.0, 100.0, Frame.BODY)

    def controller(with_correction):
        return sim.ControllerConfig(hessian, 1.0, Frame.BODY,
                                    with_correction, 1000.0)

    # equilibrium: start on the set point, stay there
    const = sim.JointPath.constant(q0, 1.0)
    trace = sim.simulate(model, controller(True), const,
                         sim.WrenchProfile.zero(1.0), 1.0)
    assert np.abs(trace.q - q0).max() <= 1e-12

    # energy decay from an offset at critical damping
    trace = sim.simulate(model, controller(True), sim.JointPath.constant(q0, 2.0),
                         sim.WrenchProfile.zero(2.0), 2.0, q_init=q0 + 0.05)
    energy = np.empty(len(trace.t))
    for i in range(len(trace.t)):
        kin = robot.full_kinematics(model, trace.q[i], Frame.BODY)
        kj = st.assemble_joint_stiffness(kin.jacobian, kin.derivative,
                                         hessian.hessian, np.zeros(6),
                                         Frame.BODY, True)
        dq = trace.q[i] - q0
        energy[i] = (0.5 * trace.qdot[i] @ kin.mass @ trace.qdot[i]
                     + 0.5 * dq @ kj @ dq)
    assert np.max(np.diff(energy)) <= 1e-6

    # 20 s end-effector wiping run at 1 kHz under a moment ramping to 10 N m
    trajectory = sim.semicircle_trajectory(model, q0, 20.0, radius=0.1)
    ramp10 = sim.WrenchProfile.ramp(20.0, [0, 0, 0, 0, -10.0, 0])

    wall = time.perf_counter()
    corrected = sim.simulate(model, controller(True), trajectory, ramp10, 20.0)
    wall = time.perf_counter() - wall
    assert wall < 10.0, f"20 s corrected run took {wall:.1f} s wall clock"
    ratio = corrected.sigma_max_asym / np.maximum(corrected.sigma_max_sym, 1e-12)
    assert ratio.max() <= 1e-9

    uncorrected = sim.simulate(model, controller(False), trajectory, ramp10, 20.0)
    peak10 = uncorrected.sigma_max_asym.max()
    assert peak10 > 1.0

    ramp20 = sim.WrenchProfile.ramp(20.0, [0, 0, 0, 0, -20.0, 0])
    doubled = sim.simulate(model, controller(False), trajectory, ramp20, 20.0)
    peak20 = doubled.sigma_max_asym.max()
    assert abs(peak20 / peak10 - 2.0) <= 0.05 * 2.0

    _report(8, "simulation suite")


def test_criterion_9_index_vs_matrix_assembly():
    models = [robot.bundled_model("anthro3r"), robot.bundled_model("iiwa7")]
    for trial in range(100):
        model = models[trial % 2]
        frame = Frame.BODY if (trial // 2) % 2 == 0 else Frame.HYBRID
        n = model.n
        q = random_q(RNG, model)
        f = RNG.normal(scale=10.0, size=6)
        a = RNG.normal(size=(6, 6))
        h = 50.0 * (a @ a.T) / 6.0

        matrix_form = st.joint_stiffness(
            model, q, st.TaskStiffness(h, frame), f, frame, True).matrix

        jac = robot.jacobian(model, q, frame)
        d = robot.jacobian_transpose_derivative(model, q, frame)
        gamma = christoffel_table(frame)
        index_form = np.zeros((n, n))
        for alpha in range(n):
            for beta in range(n):
                val = 0.0
                for k in range(6):
                    val += d[alpha, k, beta] * f[k]
                    for l in range(6):
                        gf = sum(gamma[m, k, l] * f[m] for m in range(6))
                        val += jac[k, beta] * (h[k, l] + gf) * jac[l, alpha]
                index_form[beta, alpha] = val
        assert np.abs(matrix_form - index_form).max() <= 1e-12
    _report(9, "index vs matrix assembly")
