"""Energy audits of stiffness fields over closed loops."""

import numpy as np
import pytest

from geostiff import passivity as pv
from geostiff import robot, stiffness as st
from geostiff.connection import Frame
from geostiff.errors import DimensionMismatch, NonFinite, NotSquare, OpenPath

ROTATION_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def loop_audit(k, radius, segments):
    """Worst plane by quadrature: loop_work over every coordinate circle."""
    d = k.shape[0]
    worst, plane = 0.0, None
    for i in range(d):
        for j in range(i + 1, d):
            work = pv.loop_work(k, pv.circle_path(d, (i, j), radius, segments)).net_work
            if abs(work) > abs(worst):
                worst, plane = work, (i, j)
    return worst, plane


class TestLoopPath:
    def test_requires_closure(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(OpenPath):
            pv.LoopPath(w)

    def test_requires_minimum_waypoints(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(OpenPath):
            pv.LoopPath(w)

    def test_circle_path_is_closed(self):
        path = pv.circle_path(3, (0, 2), radius=0.5, segments=100)
        assert np.array_equal(path.waypoints[0], path.waypoints[-1])
        assert path.dimension == 3

    def test_reversed_flips_order(self):
        path = pv.circle_path(2, (0, 1), segments=10)
        assert np.array_equal(path.reversed().waypoints, path.waypoints[::-1])


class TestLoopWork:
    def test_antisymmetric_unit_circle(self):
        audit = pv.loop_work(ROTATION_GENERATOR, pv.circle_path(2, (0, 1)))
        assert audit.net_work == pytest.approx(-2 * np.pi, abs=1e-3)
        assert not audit.passive

    def test_symmetric_does_no_work(self, rng):
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            k = a + a.T
            audit = pv.loop_work(k, pv.circle_path(4, (1, 3)))
            assert abs(audit.net_work) <= 1e-9
            assert audit.passive

    def test_zero_matrix(self):
        audit = pv.loop_work(np.zeros((2, 2)), pv.circle_path(2, (0, 1)))
        assert audit.net_work == 0.0

    def test_work_equals_antisymmetry_times_area(self, rng):
        k = rng.normal(size=(3, 3))
        r = 0.7
        audit = pv.loop_work(k, pv.circle_path(3, (0, 2), radius=r))
        area = np.pi * r * r
        expected = (k[2, 0] - k[0, 2]) * area
        assert audit.net_work == pytest.approx(expected, abs=1e-3)

    def test_symmetric_part_is_irrelevant(self, rng):
        k = rng.normal(size=(3, 3))
        s = rng.normal(size=(3, 3))
        s = s + s.T
        path = pv.circle_path(3, (1, 2))
        base = pv.loop_work(k, path).net_work
        shifted = pv.loop_work(k + s, path).net_work
        assert abs(shifted - base) <= 1e-9

    def test_reversal_negates_work(self, rng):
        k = rng.normal(size=(2, 2))
        path = pv.circle_path(2, (0, 1))
        forward = pv.loop_work(k, path).net_work
        backward = pv.loop_work(k, path.reversed()).net_work
        assert abs(forward + backward) <= 1e-12

    def test_trapezoid_is_second_order(self):
        coarse = abs(pv.loop_work(ROTATION_GENERATOR,
                                  pv.circle_path(2, (0, 1), segments=400)).net_work
                     + 2 * np.pi)
        fine = abs(pv.loop_work(ROTATION_GENERATOR,
                                pv.circle_path(2, (0, 1), segments=800)).net_work
                   + 2 * np.pi)
        # second-order quadrature: halving the step quarters the error
        # (the asymptotic ratio is exactly 4, so leave a little slack)
        assert coarse >= 3.99 * fine

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pv.loop_work(np.zeros((3, 3)), pv.circle_path(2, (0, 1)))

    def test_nonsquare_rejected(self):
        with pytest.raises(NotSquare):
            pv.loop_work(np.zeros((2, 3)), pv.circle_path(2, (0, 1)))


class TestAuditStiffness:
    def test_identity_passive(self):
        assert pv.audit_stiffness(np.eye(4)).passive

    def test_picks_worst_plane(self):
        k = np.zeros((4, 4))
        k[0, 3] = 2.0
        k[3, 0] = -2.0
        audit = pv.audit_stiffness(k)
        assert abs(audit.net_work) == pytest.approx(4.0 * np.pi, abs=1e-2)
        assert not audit.passive

    def test_corrected_joint_stiffness_passive(self, iiwa7, rng):
        from conftest import random_q
        hessian = st.TaskStiffness.diagonal(400.0, 20.0, Frame.BODY)
        for _ in range(5):
            q = random_q(rng, iiwa7)
            f = np.concatenate([rng.uniform(-50, 50, 3), rng.uniform(-10, 10, 3)])
            k = st.joint_stiffness(iiwa7, q, hessian, f, Frame.BODY, True).matrix
            # scale the tolerance with the stiffness magnitude: quadrature
            # noise is relative to the field strength
            audit = pv.audit_stiffness(k, tolerance=1e-9 * max(1.0, np.abs(k).max()))
            assert audit.passive

    def test_uncorrected_anthro3r_not_passive(self, anthro3r):
        hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.HYBRID)
        k = st.joint_stiffness(anthro3r, np.zeros(3), hessian,
                               [0, 0, 0, 1.0, 0, 0], Frame.HYBRID, False).matrix
        audit = pv.audit_stiffness(k)
        assert not audit.passive
        # closed form: (K21 - K12) * pi with K21 = 2A = 1, K12 = 0, A = 1/2
        assert abs(audit.net_work) == pytest.approx(np.pi, abs=1e-3)

    @pytest.mark.parametrize("segments", [4, 7, 100, 3600])
    @pytest.mark.parametrize("radius", [0.3, 1.0, 2.0])
    def test_closed_form_matches_loop_oracle(self, rng, radius, segments):
        for d in range(2, 8):
            k = rng.normal(scale=100.0, size=(d, d))
            expected, (i, j) = loop_audit(k, radius, segments)
            audit = pv.audit_stiffness(k, radius=radius, segments=segments)
            assert audit.net_work == pytest.approx(expected, rel=1e-12, abs=0.0)
            # the same worst plane, with the same sign
            area = 0.5 * segments * radius ** 2 * np.sin(2 * np.pi / segments)
            assert audit.net_work == pytest.approx(area * (k[j, i] - k[i, j]), rel=1e-14)

    def test_symmetric_gives_exactly_zero(self, rng):
        for d in range(1, 8):
            a = rng.normal(size=(d, d))
            audit = pv.audit_stiffness(a + a.T)
            assert audit.net_work == 0.0
            assert audit.passive

    def test_tie_picks_first_plane(self):
        k = np.zeros((3, 3))
        k[0, 2], k[1, 2] = 1.0, -1.0    # planes (0, 2) and (1, 2) tie in magnitude
        expected, plane = loop_audit(k, 1.0, 3600)
        work = pv.audit_stiffness(k).net_work
        assert plane == (0, 2)
        assert work < 0 and work == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        k = np.eye(3)
        k[0, 1] = bad
        with pytest.raises(NonFinite):
            pv.audit_stiffness(k)

    def test_overflowing_work_raises_non_finite(self):
        # finite entries whose antisymmetric difference overflows, with no warning
        with pytest.raises(NonFinite):
            pv.audit_stiffness([[1e308, -1e308], [1e308, 1.0]])

    def test_too_few_segments_rejected(self):
        with pytest.raises(OpenPath):
            pv.audit_stiffness(np.eye(2), segments=2)
