"""Christoffel symbol tables and the wrench correction matrix."""

import numpy as np
import pytest

from geostiff import robot, se3
from geostiff.connection import Frame, christoffel, christoffel_table, correction_matrix
from geostiff.errors import DimensionMismatch, IndexOutOfRange, ValidationError


def derive_body_table():
    """Independent re-derivation of the Body table from the structure constants.

    Mixed lower indices (translational then rotational) carry the full
    structure constant with swapped lower indices; purely rotational triples
    carry half of it; everything else vanishes.
    """
    c = se3.STRUCTURE_CONSTANTS
    gamma = np.zeros((6, 6, 6))
    for m in range(6):
        for i in range(6):
            for j in range(6):
                if i < 3 and j >= 3:
                    gamma[m, i, j] = c[m, j, i]
                elif i >= 3 and j >= 3:
                    gamma[m, i, j] = 0.5 * c[m, j, i]
    return gamma


BODY_NONZEROS = {
    # translational block, unit weight
    (3, 2, 4): 1.0, (1, 3, 5): 1.0, (2, 1, 6): 1.0,
    (2, 3, 4): -1.0, (3, 1, 5): -1.0, (1, 2, 6): -1.0,
    # rotational block, half weight
    (4, 6, 5): 0.5, (5, 4, 6): 0.5, (6, 5, 4): 0.5,
    (4, 5, 6): -0.5, (5, 6, 4): -0.5, (6, 4, 5): -0.5,
}


class TestChristoffelTable:
    def test_body_nonzero_entries(self):
        for (m, i, j), value in BODY_NONZEROS.items():
            assert christoffel(Frame.BODY, m, i, j) == value

    def test_body_has_exactly_12_nonzeros(self):
        assert np.count_nonzero(christoffel_table(Frame.BODY)) == 12

    def test_known_single_entries(self):
        assert christoffel(Frame.BODY, 3, 2, 4) == 1.0
        assert christoffel(Frame.BODY, 4, 6, 5) == 0.5
        assert christoffel(Frame.BODY, 1, 1, 1) == 0.0

    def test_torsion_identity(self):
        # the antisymmetric part of the lower indices reproduces the
        # structure constants (with the table's lower-index orientation)
        gamma = christoffel_table(Frame.BODY)
        c = se3.STRUCTURE_CONSTANTS
        assert np.array_equal(gamma - gamma.transpose(0, 2, 1), c.transpose(0, 2, 1))

    def test_rederivation_from_structure_constants(self):
        assert np.array_equal(christoffel_table(Frame.BODY), derive_body_table())

    def test_inertial_is_index_swap(self):
        body = christoffel_table(Frame.BODY)
        assert np.array_equal(christoffel_table(Frame.INERTIAL), body.transpose(0, 2, 1))

    def test_hybrid_rotational_swap_translational_zero(self):
        hybrid = christoffel_table(Frame.HYBRID)
        body = christoffel_table(Frame.BODY)
        assert np.array_equal(hybrid[3:, 3:, 3:], body.transpose(0, 2, 1)[3:, 3:, 3:])
        assert np.count_nonzero(hybrid[:3]) == 0
        assert np.count_nonzero(hybrid[:, :3, :]) == 0
        assert np.count_nonzero(hybrid[:, :, :3]) == 0

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            christoffel_table(Frame.BODY)[0, 0, 0] = 1.0

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            christoffel(Frame.BODY, 0, 1, 1)


class TestCorrectionMatrix:
    def test_zero_wrench(self):
        assert np.array_equal(correction_matrix(Frame.BODY, np.zeros(6)),
                              np.zeros((6, 6)))

    def test_body_unit_moment_about_z(self):
        m = correction_matrix(Frame.BODY, [0, 0, 0, 0, 0, 1])
        expected = np.zeros((6, 6))
        expected[3, 4] = -0.5
        expected[4, 3] = 0.5
        assert np.array_equal(m, expected)

    def test_inertial_is_transpose_of_body(self, rng):
        for _ in range(20):
            f = rng.normal(size=6)
            body = correction_matrix(Frame.BODY, f)
            inertial = correction_matrix(Frame.INERTIAL, f)
            assert np.array_equal(inertial, body.T)

    def test_body_first_three_columns_zero(self, rng):
        f = rng.normal(size=6)
        assert np.count_nonzero(correction_matrix(Frame.BODY, f)[:, :3]) == 0

    def test_rotational_block_antisymmetric(self, rng):
        f = rng.normal(size=6)
        block = correction_matrix(Frame.BODY, f)[3:, 3:]
        assert np.array_equal(block, -block.T)

    def test_matches_brute_force_contraction(self, rng):
        for frame in (Frame.BODY, Frame.INERTIAL, Frame.HYBRID):
            table = christoffel_table(frame)
            for _ in range(10):
                f = rng.normal(size=6)
                expected = np.zeros((6, 6))
                for i in range(6):
                    for j in range(6):
                        for m in range(6):
                            expected[i, j] += table[m, i, j] * f[m]
                assert np.abs(correction_matrix(frame, f) - expected).max() < 1e-15

    def test_rejects_short_wrench(self):
        with pytest.raises(DimensionMismatch):
            correction_matrix(Frame.BODY, [1.0, 2.0])


class TestFrameParse:
    def test_known_names(self):
        assert Frame.parse("body") is Frame.BODY
        assert Frame.parse("hybrid") is Frame.HYBRID
        assert Frame.parse("inertial") is Frame.INERTIAL

    def test_unknown_name(self):
        with pytest.raises(Exception):
            Frame.parse("spatialish")


@pytest.mark.parametrize("frame", ["body", None, ["body"]])
@pytest.mark.parametrize("lookup", [
    christoffel_table,
    lambda frame: christoffel(frame, 1, 1, 1),
    lambda frame: correction_matrix(frame, np.zeros(6)),
    lambda frame: robot.jacobian(robot.bundled_model("anthro3r"), np.zeros(3), frame),
], ids=["christoffel_table", "christoffel", "correction_matrix", "jacobian"])
def test_non_frame_raises_validation_error(lookup, frame):
    with pytest.raises(ValidationError, match="frame must be a Frame"):
        lookup(frame)
