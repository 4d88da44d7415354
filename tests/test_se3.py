"""Rigid transforms, twists, and the se(3) structure constants."""

import numpy as np
import pytest

from geostiff import se3
from geostiff.errors import IndexOutOfRange

from oracles import (
    BadAxis,
    MalformedMatrix,
    Transform,
    ad,
    adjoint,
    basis_twist,
    exp_twist,
    hat,
    vee,
    wrench_pairing,
)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-np.pi, np.pi)
    return exp_twist(np.concatenate([np.zeros(3), axis]), angle).rotation


class TestTransform:
    def test_identity(self):
        t = Transform.identity()
        assert np.array_equal(t.matrix(), np.eye(4))

    def test_compose_inverse_is_identity(self, rng):
        for _ in range(20):
            t = Transform(random_rotation(rng), rng.normal(size=3))
            prod = t.compose(t.inverse()).matrix()
            assert np.abs(prod - np.eye(4)).max() <= 1e-12

    def test_rotation_stays_orthogonal(self, rng):
        for _ in range(20):
            t = Transform(random_rotation(rng), rng.normal(size=3))
            r = t.rotation
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12
            assert np.linalg.det(r) > 0

    def test_matrix_round_trip(self, rng):
        t = Transform(random_rotation(rng), rng.normal(size=3))
        again = Transform.from_matrix(t.matrix())
        assert np.array_equal(again.matrix(), t.matrix())

    def test_renormalized_fixes_drift(self, rng):
        r = random_rotation(rng) + 1e-9 * rng.normal(size=(3, 3))
        t = Transform(r, np.zeros(3))
        assert t.renormalized().orthogonality_defect() < t.orthogonality_defect()


class TestHatVee:
    def test_basis_linear_x(self):
        m = hat([1, 0, 0, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_basis_angular_z(self):
        m = hat([0, 0, 0, 0, 0, 1])
        expected = np.zeros((4, 4))
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_zero_twist(self):
        assert np.array_equal(hat(np.zeros(6)), np.zeros((4, 4)))

    def test_round_trip(self):
        xi = np.array([1, 2, 3, 0.1, 0.2, 0.3])
        assert np.array_equal(vee(hat(xi)), xi)

    def test_vee_zero(self):
        assert np.array_equal(vee(np.zeros((4, 4))), np.zeros(6))

    def test_vee_rejects_bad_structure(self):
        m = np.zeros((4, 4))
        m[3, 3] = 1.0
        with pytest.raises(MalformedMatrix):
            vee(m)

    def test_vee_rejects_nonskew_rotation_block(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        m[1, 0] = 1.0
        with pytest.raises(MalformedMatrix):
            vee(m)


class TestExpTwist:
    def test_quarter_turn_about_z(self):
        t = exp_twist([0, 0, 0, 0, 0, 1], np.pi / 2)
        assert np.abs(t.rotation @ [1, 0, 0] - np.array([0, 1, 0])).max() < 1e-15
        assert np.abs(t.translation).max() == 0.0

    def test_zero_angle_is_identity(self):
        t = exp_twist([0, 0, 0, 0, 1, 0], 0.0)
        assert np.abs(t.matrix() - np.eye(4)).max() < 1e-15

    def test_prismatic(self):
        t = exp_twist([1, 0, 0, 0, 0, 0], 0.5)
        assert np.array_equal(t.rotation, np.eye(3))
        assert np.array_equal(t.translation, [0.5, 0, 0])

    def test_rejects_unnormalized_axis(self):
        with pytest.raises(BadAxis):
            exp_twist([0, 0, 0, 0, 0, 2.0], 0.3)

    def test_small_angle_branch_matches_series(self):
        axis = np.array([0.1, -0.2, 0.3, 0, 0, 1.0])
        t = exp_twist(axis, 1e-10)
        # first-order: exp(hat(xi) q) = I + q hat(xi) to well below tolerance
        approx = np.eye(4) + 1e-10 * hat(axis)
        assert np.abs(t.matrix() - approx).max() < 1e-18

    def test_matches_matrix_exponential_series(self, rng):
        # brute-force oracle: truncated power series of the 4x4 exponential
        for _ in range(10):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            axis = np.concatenate([rng.normal(size=3), w])
            angle = rng.uniform(-2, 2)
            h = hat(axis) * angle
            series = np.eye(4)
            term = np.eye(4)
            for k in range(1, 30):
                term = term @ h / k
                series = series + term
            assert np.abs(exp_twist(axis, angle).matrix() - series).max() < 1e-12


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(Transform.identity()), np.eye(6))

    def test_pure_rotation_is_block_diagonal(self, rng):
        r = random_rotation(rng)
        expected = np.zeros((6, 6))
        expected[:3, :3] = r
        expected[3:, 3:] = r
        assert np.array_equal(adjoint(Transform(r, np.zeros(3))), expected)

    def test_translation_couples_rotation_into_linear(self):
        t = Transform(np.eye(3), np.array([0, 0, 1.0]))
        mapped = adjoint(t) @ np.array([0, 0, 0, 1, 0, 0])
        # linear part gains p x omega = (0, 1, 0)
        assert np.abs(mapped - np.array([0, 1, 0, 1, 0, 0])).max() < 1e-15

    def test_against_conjugation_oracle(self, rng):
        # Ad(T) xi must equal vee(T hat(xi) T^-1)
        for _ in range(20):
            t = Transform(random_rotation(rng), rng.normal(size=3))
            xi = rng.normal(size=6)
            direct = adjoint(t) @ xi
            conj = vee(t.matrix() @ hat(xi) @ t.inverse().matrix())
            assert np.abs(direct - conj).max() < 1e-12

    def test_ad_is_bracket(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=6), rng.normal(size=6)
            bracket = hat(a) @ hat(b) - hat(b) @ hat(a)
            assert np.abs(ad(a) @ b - vee(bracket)).max() < 1e-12


class TestStructureConstants:
    def test_known_entries(self):
        assert se3.structure_constant(3, 1, 5) == 1.0
        assert se3.structure_constant(3, 5, 1) == -1.0
        assert se3.structure_constant(1, 1, 1) == 0.0

    def test_antisymmetry_everywhere(self):
        c = se3.STRUCTURE_CONSTANTS
        assert np.array_equal(c, -c.transpose(0, 2, 1))

    def test_exactly_18_nonzero(self):
        assert np.count_nonzero(se3.STRUCTURE_CONSTANTS) == 18

    def test_commutator_rederivation(self):
        # independent route: C^k_ij from the bracket of hat basis elements
        derived = np.zeros((6, 6, 6))
        for i in range(6):
            for j in range(6):
                ei, ej = basis_twist(i + 1), basis_twist(j + 1)
                bracket = hat(ei) @ hat(ej) - hat(ej) @ hat(ei)
                derived[:, i, j] = vee(bracket)
        assert np.array_equal(derived, se3.STRUCTURE_CONSTANTS)

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            se3.structure_constant(0, 1, 1)
        with pytest.raises(IndexOutOfRange):
            se3.structure_constant(7, 1, 1)


class TestWrenchPairing:
    def test_componentwise_duality(self, rng):
        # twists map by Ad(T), wrenches by Ad(T)^-T: the power is frame-free
        f = rng.normal(size=6)
        xi = rng.normal(size=6)
        t = Transform(random_rotation(rng), rng.normal(size=3))
        ad = adjoint(t)
        power = wrench_pairing(f, xi)
        assert power == pytest.approx(np.dot(f, xi), abs=1e-15)
        assert wrench_pairing(np.linalg.solve(ad.T, f), ad @ xi) == pytest.approx(power, abs=1e-12)
