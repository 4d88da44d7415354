"""Stiffness assembly and symmetry diagnostics."""

import numpy as np
import pytest

from geostiff import robot, stiffness as st
from geostiff.connection import Frame, correction_matrix
from geostiff.errors import DimensionMismatch, FrameMismatch, NonFinite, NotSquare

from conftest import random_q
from oracles import brute_force_fk, chart_coordinates, richardson_hessian


def random_psd_hessian(rng, scale=100.0):
    a = rng.normal(size=(6, 6))
    return scale * (a @ a.T) / 6.0


class TestTaskStiffness:
    def test_diagonal_constructor(self):
        ts = st.TaskStiffness.diagonal(400.0, 20.0, Frame.BODY)
        assert np.array_equal(ts.hessian, np.diag([400.0] * 3 + [20.0] * 3))

    def test_rejects_asymmetric(self):
        h = np.eye(6)
        h[0, 1] = 1.0
        with pytest.raises(DimensionMismatch):
            st.TaskStiffness(h, Frame.BODY)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            st.TaskStiffness(np.eye(3), Frame.BODY)

    def test_overflowing_norm_raises_non_finite(self):
        # finite entries whose Frobenius norm overflows, with no warning
        with pytest.raises(NonFinite):
            st.TaskStiffness(1e200 * np.eye(6), Frame.BODY)

    def test_from_numbers(self, rng):
        diag = rng.uniform(1.0, 10.0, 6)
        assert np.array_equal(st.TaskStiffness.from_numbers(diag, Frame.BODY).hessian,
                              np.diag(diag))
        a = rng.normal(size=(6, 6))
        full = st.TaskStiffness.from_numbers((a + a.T).ravel().tolist(), Frame.HYBRID)
        assert np.array_equal(full.hessian, a + a.T)
        assert full.frame == Frame.HYBRID
        with pytest.raises(DimensionMismatch):
            st.TaskStiffness.from_numbers([1.0] * 5, Frame.BODY)


class TestTaskStiffnessCorrected:
    """The corrected task stiffness H + Gamma F."""

    def test_zero_wrench_returns_hessian(self, rng):
        ts = st.TaskStiffness(random_psd_hessian(rng), Frame.BODY)
        out = ts.hessian + correction_matrix(Frame.BODY, np.zeros(6))
        assert np.array_equal(out, ts.hessian)

    def test_zero_hessian_gives_correction_pattern(self):
        ts = st.TaskStiffness(np.zeros((6, 6)), Frame.BODY)
        out = ts.hessian + correction_matrix(Frame.BODY, [0, 0, 0, 0, 0, 1])
        expected = np.zeros((6, 6))
        expected[3, 4] = -0.5
        expected[4, 3] = 0.5
        assert np.array_equal(out, expected)

    def test_force_along_z_entries(self):
        ts = st.TaskStiffness(100.0 * np.eye(6), Frame.BODY)
        out = ts.hessian + correction_matrix(Frame.BODY, [0, 0, 10.0, 0, 0, 0])
        assert out[0, 4] == -10.0
        assert out[1, 3] == 10.0
        assert np.array_equal(np.diag(out), 100.0 * np.ones(6))

    def test_frame_mismatch(self, rng, anthro3r):
        ts = st.TaskStiffness(random_psd_hessian(rng), Frame.BODY)
        with pytest.raises(FrameMismatch):
            st.joint_stiffness(anthro3r, np.zeros(3), ts, np.zeros(6), Frame.HYBRID)


class TestKinematicStiffness:
    def test_anthro3r_closed_form_first_column(self, anthro3r, rng):
        for _ in range(20):
            q = np.array([rng.uniform(-np.pi, np.pi), 0.0, 0.0])
            m = rng.normal(size=3)
            wrench = np.concatenate([np.zeros(3), m])
            k = st.kinematic_stiffness(anthro3r, q, wrench, Frame.HYBRID)
            a = 0.5 * (m[0] * np.cos(q[0]) + m[1] * np.sin(q[0]))
            assert np.abs(k[:, 0] - [0.0, 2 * a, 2 * a]).max() < 1e-12
            assert np.abs(k[:, 1:]).max() < 1e-12

    def test_anthro3r_unit_moment_at_zero(self, anthro3r):
        k = st.kinematic_stiffness(anthro3r, np.zeros(3),
                                   [0, 0, 0, 1.0, 0, 0], Frame.HYBRID)
        assert np.abs(k[:, 0] - [0.0, 1.0, 1.0]).max() < 1e-14

    def test_zero_wrench(self, iiwa7, rng):
        q = random_q(rng, iiwa7)
        k = st.kinematic_stiffness(iiwa7, q, np.zeros(6), Frame.BODY)
        assert np.array_equal(k, np.zeros((7, 7)))

    def test_matches_finite_difference_of_torque_map(self, iiwa7, rng):
        step = 1e-6
        for _ in range(3):
            q = random_q(rng, iiwa7)
            f = rng.normal(size=6)
            k = st.kinematic_stiffness(iiwa7, q, f, Frame.BODY)
            for j in range(7):
                dq = np.zeros(7)
                dq[j] = step
                tp = robot.jacobian(iiwa7, q + dq, Frame.BODY).T @ f
                tm = robot.jacobian(iiwa7, q - dq, Frame.BODY).T @ f
                fd = (tp - tm) / (2 * step)
                assert np.abs(k[:, j] - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


class TestJointStiffness:
    def test_anthro3r_corrected_closed_form(self, anthro3r, rng):
        hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.HYBRID)
        for _ in range(20):
            q = np.array([rng.uniform(-np.pi, np.pi), 0.0, 0.0])
            m = rng.normal(size=3)
            wrench = np.concatenate([np.zeros(3), m])
            result = st.joint_stiffness(anthro3r, q, hessian, wrench,
                                        Frame.HYBRID, with_correction=True)
            a = 0.5 * (m[0] * np.cos(q[0]) + m[1] * np.sin(q[0]))
            expected = np.array([[0, a, a], [a, 0, 0], [a, 0, 0]])
            assert np.abs(result.matrix - expected).max() < 1e-12

    def test_anthro3r_baseline_closed_form(self, anthro3r):
        hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.HYBRID)
        result = st.joint_stiffness(anthro3r, np.zeros(3), hessian,
                                    [0, 0, 0, 1.0, 0, 0], Frame.HYBRID,
                                    with_correction=False)
        expected = np.array([[0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        assert np.abs(result.matrix - expected).max() < 1e-12

    def test_zero_wrench_is_pure_sandwich(self, iiwa7, rng):
        h = random_psd_hessian(rng)
        hessian = st.TaskStiffness(h, Frame.BODY)
        q = random_q(rng, iiwa7)
        result = st.joint_stiffness(iiwa7, q, hessian, np.zeros(6), Frame.BODY)
        jac = robot.jacobian(iiwa7, q, Frame.BODY)
        assert np.abs(result.matrix - jac.T @ h @ jac).max() < 1e-12
        assert np.abs(result.matrix - result.matrix.T).max() < 1e-9

    def test_correction_vanishes_linearly_with_wrench(self, iiwa7, rng):
        hessian = st.TaskStiffness(random_psd_hessian(rng), Frame.BODY)
        q = random_q(rng, iiwa7)
        f = rng.normal(size=6)
        diffs = []
        for scale in (1.0, 0.5, 0.25):
            on = st.joint_stiffness(iiwa7, q, hessian, scale * f, Frame.BODY, True)
            off = st.joint_stiffness(iiwa7, q, hessian, scale * f, Frame.BODY, False)
            diffs.append(np.linalg.norm(on.matrix - off.matrix))
        assert diffs[1] == pytest.approx(0.5 * diffs[0], rel=1e-9)
        assert diffs[2] == pytest.approx(0.25 * diffs[0], rel=1e-9)

    def test_frame_mismatch(self, iiwa7, rng):
        hessian = st.TaskStiffness(random_psd_hessian(rng), Frame.BODY)
        with pytest.raises(FrameMismatch):
            st.joint_stiffness(iiwa7, np.zeros(7), hessian, np.zeros(6), Frame.HYBRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wrench_rejected(self, iiwa7, bad):
        f = np.zeros(6)
        f[4] = bad
        hessian = st.TaskStiffness(np.eye(6), Frame.BODY)
        with pytest.raises(NonFinite):
            st.joint_stiffness(iiwa7, np.zeros(7), hessian, f, Frame.BODY)
        with pytest.raises(NonFinite):
            st.kinematic_stiffness(iiwa7, np.zeros(7), f, Frame.BODY)

    @pytest.mark.parametrize("frame", list(Frame))
    def test_contraction_matches_tensor_form(self, anthro3r, iiwa7, frame):
        # the wrench-first contraction against the (n, 6, n) derivative tensor
        rng = np.random.default_rng(20261020)
        for model in (anthro3r, iiwa7):
            for _ in range(20):
                q = random_q(rng, model)
                f = rng.normal(scale=10.0, size=6)
                h = random_psd_hessian(rng)
                jac = robot.jacobian(model, q, frame)
                k_kin = (f @ robot.jacobian_transpose_derivative(model, q, frame)).T
                k = st.kinematic_stiffness(model, q, f, frame)
                assert np.abs(k - k_kin).max() <= 1e-12 * np.abs(k_kin).max()
                for with_correction in (True, False):
                    task = h + correction_matrix(frame, f) if with_correction else h
                    tensor_form = k_kin + jac.T @ task @ jac
                    k = st.assemble_joint_stiffness(jac, h, f, frame, with_correction)
                    assert np.abs(k - tensor_form).max() <= 1e-12 * np.abs(tensor_form).max()

    def test_index_form_matches_matrix_form(self, anthro3r, iiwa7, rng):
        # independent contraction of the tensor expression, all loops explicit
        for model in (anthro3r, iiwa7):
            for frame in Frame:
                for _ in range(5):
                    q = random_q(rng, model)
                    f = rng.normal(size=6)
                    h = random_psd_hessian(rng)
                    hessian = st.TaskStiffness(h, frame)
                    matrix_form = st.joint_stiffness(
                        model, q, hessian, f, frame, with_correction=True
                    ).matrix
                    jac = robot.jacobian(model, q, frame)
                    d = robot.jacobian_transpose_derivative(model, q, frame)
                    gamma = correction_matrix(frame, f)
                    n = model.n
                    index_form = np.zeros((n, n))
                    for alpha in range(n):
                        for beta in range(n):
                            val = 0.0
                            for k in range(6):
                                val += d[alpha, k, beta] * f[k]
                                for l in range(6):
                                    val += jac[k, beta] * (h[k, l] + gamma[k, l]) * jac[l, alpha]
                            index_form[beta, alpha] = val
                    assert np.abs(matrix_form - index_form).max() <= 1e-12


class TestSymmetryTools:
    def test_decompose_symmetric(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        sym, asym = st.symmetry_decompose(m)
        assert np.array_equal(sym, m)
        assert np.array_equal(asym, np.zeros((2, 2)))

    def test_decompose_antisymmetric(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sym, asym = st.symmetry_decompose(m)
        assert np.array_equal(sym, np.zeros((2, 2)))
        assert np.array_equal(asym, m)

    def test_decompose_arithmetic(self):
        sym, asym = st.symmetry_decompose([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(sym, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(asym, [[0.0, 1.0], [-1.0, 0.0]])

    def test_decompose_sums_back(self, rng):
        m = rng.normal(size=(5, 5))
        sym, asym = st.symmetry_decompose(m)
        assert np.abs(sym + asym - m).max() <= 1e-15

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSquare):
            st.symmetry_decompose(np.zeros((2, 3)))

    def test_report_identity(self):
        r = st.symmetry_report(np.eye(3))
        assert r.sigma_max_sym == 1.0
        assert r.sigma_max_asym == 0.0

    def test_report_rotation_generator(self):
        r = st.symmetry_report([[0.0, 2.0], [-2.0, 0.0]])
        assert r.sigma_max_sym == 0.0
        assert r.sigma_max_asym == pytest.approx(2.0, abs=1e-12)

    def test_report_matches_svd_oracle(self, rng):
        for _ in range(50):
            m = rng.normal(size=(7, 7))
            r = st.symmetry_report(m)
            sym, asym = st.symmetry_decompose(m)
            assert r.sigma_max_sym == pytest.approx(
                np.linalg.svd(sym, compute_uv=False)[0], rel=1e-12)
            assert r.sigma_max_asym == pytest.approx(
                np.linalg.svd(asym, compute_uv=False)[0], rel=1e-12)

    def test_ratio_uses_epsilon_floor(self):
        r = st.symmetry_report(np.zeros((3, 3)))
        assert r.asym_ratio == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_report_rejects_non_finite(self, bad):
        # a NaN entry once gave the wrong finite sigma_max_sym = 0.707
        with pytest.raises(NonFinite):
            st.symmetry_report([[bad, 1.0], [0.0, 1.0]])

    def test_report_overflow_raises_non_finite(self, iiwa7):
        # finite matrices whose antisymmetric Gram matrix overflows (they
        # once gave sigma_max_asym = nan or a bare LinAlgError), or
        # underflows: sigma is scaled, so they match the SVD, with no warning
        huge_wrench = [1e200, 0, 0, 0, 0, 0]
        k = st.joint_stiffness(iiwa7, [0, 0.5, 0, -1.2, 0, 0.8, 0],
                               st.TaskStiffness(np.zeros((6, 6)), Frame.BODY),
                               huge_wrench, Frame.BODY).matrix
        for m in ([[1e160, 2e160], [0.0, 1.0]], [[1e200, 2e200], [0.0, 1.0]],
                  [[1e-200, 2e-200], [0.0, 1e-201]], k):
            r = st.symmetry_report(m)
            sym, asym = st.symmetry_decompose(m)
            scale = np.linalg.svd(sym, compute_uv=False)[0]
            # k is symmetric up to rounding: its sigma_max_asym is noise, so
            # both sigma are compared in units of the matrix's scale
            assert abs(r.sigma_max_sym - scale) <= 1e-12 * scale
            assert abs(r.sigma_max_asym - np.linalg.svd(asym, compute_uv=False)[0]) <= 1e-12 * scale
        # only sigma itself beyond the float range still raises: 2e308 here
        with pytest.raises(NonFinite):
            st.symmetry_report([[1e308, 1e308], [1e308, 1e308]])


class TestCentralSymmetryProperty:
    @pytest.mark.parametrize("frame", [Frame.BODY, Frame.HYBRID, Frame.INERTIAL])
    def test_corrected_stiffness_symmetric(self, anthro3r, iiwa7, rng, frame):
        for model in (anthro3r, iiwa7):
            for _ in range(50):
                q = random_q(rng, model)
                f = np.concatenate([rng.uniform(-50, 50, 3), rng.uniform(-10, 10, 3)])
                hessian = st.TaskStiffness(random_psd_hessian(rng), frame)
                k = st.joint_stiffness(model, q, hessian, f, frame, True).matrix
                # symmetric to machine precision
                assert st.symmetry_report(k).asym_ratio <= 1e-12

    def test_corrected_is_potential_hessian(self, anthro3r, iiwa7):
        # the paper's claim itself: the corrected stiffness is the Hessian of
        # V = 1/2 x^T H x + F^T x in the (translation, SO(3) log) chart about
        # the current pose; symmetry alone would not show it
        rng = np.random.default_rng(20261018)
        errors, misses = [], []
        for model in (anthro3r, iiwa7):
            for frame in Frame:
                for _ in range(5):
                    q = random_q(rng, model)
                    h = random_psd_hessian(rng)
                    f = rng.normal(scale=10.0, size=6)
                    t_s = brute_force_fk(model, q)

                    def potential(qq):
                        x = chart_coordinates(brute_force_fk(model, qq), t_s, frame)
                        return 0.5 * x @ h @ x + f @ x

                    ref = richardson_hessian(potential, q)
                    scale = np.abs(ref).max()
                    spring = st.TaskStiffness(h, frame)
                    for with_correction, out in ((True, errors), (False, misses)):
                        k = st.joint_stiffness(model, q, spring, f, frame, with_correction)
                        out.append(np.abs(k.matrix - ref).max() / scale)
        assert max(errors) <= 1e-7
        assert sum(miss > 1e-4 for miss in misses) >= 0.95 * len(misses)

    def test_baseline_asymmetry_witness(self, anthro3r):
        hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.HYBRID)
        k = st.joint_stiffness(anthro3r, np.zeros(3), hessian,
                               [0, 0, 0, 1.0, 0, 0], Frame.HYBRID, False).matrix
        assert st.symmetry_report(k).sigma_max_asym > 0.1
