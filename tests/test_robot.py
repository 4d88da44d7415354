"""Model loading, kinematics, Jacobians and the mass matrix."""

import json
import math

import numpy as np
import pytest

from geostiff import robot, se3, stiffness as st
from geostiff.connection import Frame, correction_matrix
from geostiff.errors import (
    DimensionMismatch,
    NonFinite,
    NonPositiveDefinite,
    SchemaError,
    ValidationError,
)

from conftest import random_q
from oracles import (
    brute_force_fk,
    crba_mass_matrix,
    jacobian_central_difference,
    link_jacobian,
    spatial_inertia,
    twist_jacobian_central_difference,
)

IDENTITY_POSE = {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}


def make_model(joints, links, ee=None, name="test"):
    return {
        "name": name,
        "joints": joints,
        "links": links,
        "end_effector": ee or dict(IDENTITY_POSE),
    }


def revolute_z(translation=(0, 0, 0)):
    return {
        "axis": [0, 0, 0, 0, 0, 1],
        "kind": "revolute",
        "home": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                 "translation": list(translation)},
        "limits": [-3.14, 3.14],
    }


def point_mass_link(mass, com):
    return {"mass": mass, "com": list(com), "inertia": [0.0] * 9}


def single_revolute_model(ee_offset=(1.0, 0.0, 0.0)):
    ee = {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": list(ee_offset)}
    return robot.load_model(make_model([revolute_z()],
                                       [point_mass_link(1.0, (0.5, 0, 0))], ee))


class TestLoadModel:
    def test_bundled_models_load(self, anthro3r, iiwa7):
        assert anthro3r.n == 3
        assert iiwa7.n == 7
        assert all(j.kind == "revolute" for j in iiwa7.joints)

    def test_iiwa7_reach(self, iiwa7):
        total = sum(np.linalg.norm(j.home.translation) for j in iiwa7.joints)
        total += np.linalg.norm(iiwa7.end_effector.translation)
        assert 1.2 < total < 1.4

    def test_iiwa7_home_pose_hand_check(self, iiwa7):
        # straight-up chain: EE sits on the z axis at the summed link heights
        pose = robot.forward_kinematics(iiwa7, np.zeros(7))
        assert np.abs(pose.translation - [0, 0, 1.266]).max() < 1e-12
        assert np.abs(pose.rotation - np.eye(3)).max() < 1e-12

    def test_zero_axis_rejected(self):
        bad = revolute_z()
        bad["axis"] = [0, 0, 0, 0, 0, 0]
        with pytest.raises(ValidationError):
            robot.load_model(make_model([bad], [point_mass_link(1.0, (0, 0, 0))]))

    def test_unknown_key_rejected(self):
        doc = make_model([revolute_z()], [point_mass_link(1.0, (0, 0, 0))])
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            robot.load_model(doc)

    def test_missing_key_rejected(self):
        doc = make_model([revolute_z()], [point_mass_link(1.0, (0, 0, 0))])
        del doc["links"]
        with pytest.raises(SchemaError):
            robot.load_model(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            robot.load_model("{not json")

    def test_negative_mass_rejected(self):
        doc = make_model([revolute_z()], [point_mass_link(-1.0, (0, 0, 0))])
        with pytest.raises(ValidationError):
            robot.load_model(doc)

    @pytest.mark.parametrize("part, key, value", [
        ("ee", "rotation", [math.inf, 0, 0, 0, 1, 0, 0, 0, 1]),   # used to hang in the SVD
        ("ee", "translation", [0, math.nan, 0]),
        ("joint", "axis", [0, 0, 0, 0, 0, math.nan]),
        ("link", "mass", math.nan),
        ("link", "com", [math.inf, 0, 0]),
        ("link", "inertia", [math.nan] * 9),
        ("link", "mass", 10 ** 400),
    ])
    def test_non_finite_number_rejected(self, part, key, value):
        doc = make_model([revolute_z()], [point_mass_link(1.0, (0, 0, 0))])
        node = {"ee": doc["end_effector"], "joint": doc["joints"][0],
                "link": doc["links"][0]}[part]
        node[key] = value
        with pytest.raises((ValidationError, SchemaError)):
            robot.load_model(json.dumps(doc))

    def test_joint_link_count_mismatch_rejected(self):
        doc = make_model([revolute_z()], [point_mass_link(1.0, (0, 0, 0))] * 2)
        with pytest.raises(ValidationError):
            robot.load_model(doc)

    def test_round_trip_through_json_string(self):
        doc = make_model([revolute_z()], [point_mass_link(1.0, (0, 0, 0))])
        model = robot.load_model(json.dumps(doc))
        assert model.n == 1

    def test_bundled_model_loaded_once(self):
        assert robot.bundled_model("iiwa7") is robot.bundled_model("iiwa7")
        assert robot.bundled_model("anthro3r") is not robot.bundled_model("iiwa7")

    def test_model_arrays_read_only(self, iiwa7):
        joint, link = iiwa7.joints[0], iiwa7.links[0]
        for array in (joint.axis, joint.home.rotation, joint.home.translation,
                      link.com, link.inertia, iiwa7.end_effector.rotation,
                      iiwa7.end_effector.translation):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_document_arrays_copied(self):
        axis = np.array([0, 0, 0, 0, 0, 1.0])
        doc = make_model([dict(revolute_z(), axis=axis)], [point_mass_link(1.0, (1, 0, 0))])
        model = robot.load_model(doc)
        axis[5] = -1.0
        assert model.joints[0].axis[5] == 1.0


class TestForwardKinematics:
    def test_home_pose_anthro3r(self, anthro3r):
        pose = robot.forward_kinematics(anthro3r, np.zeros(3))
        # upright arm: two vertical offsets then two horizontal ones
        assert np.abs(pose.translation - [0.75, 0, 0.40]).max() < 1e-12

    def test_single_joint_quarter_turn(self):
        model = single_revolute_model()
        pose = robot.forward_kinematics(model, [np.pi / 2])
        assert np.abs(pose.translation - [0, 1, 0]).max() < 1e-12

    def test_matches_brute_force_chain(self, iiwa7, rng):
        for _ in range(10):
            q = random_q(rng, iiwa7)
            pose = robot.forward_kinematics(iiwa7, q).matrix()
            assert np.abs(pose - brute_force_fk(iiwa7, q)).max() <= 1e-12

    def test_dimension_mismatch(self, anthro3r):
        with pytest.raises(DimensionMismatch):
            robot.forward_kinematics(anthro3r, [0.0, 0.0])


class TestJacobian:
    def test_anthro3r_hybrid_rotational_rows(self, anthro3r, rng):
        for _ in range(10):
            q = random_q(rng, anthro3r)
            jac = robot.jacobian(anthro3r, q, Frame.HYBRID)
            s1, c1 = np.sin(q[0]), np.cos(q[0])
            expected = np.array([[0, s1, s1], [0, -c1, -c1], [1, 0, 0]])
            assert np.abs(jac[3:] - expected).max() < 1e-14

    def test_single_joint_hybrid_column(self):
        model = single_revolute_model()
        jac = robot.jacobian(model, [0.0], Frame.HYBRID)
        assert np.abs(jac[:, 0] - [0, 1, 0, 0, 0, 1]).max() < 1e-15

    def test_body_twist_matches_finite_difference(self, iiwa7, rng):
        step = 1e-6
        for _ in range(5):
            q = random_q(rng, iiwa7)
            qd = rng.normal(size=7)
            jb = robot.jacobian(iiwa7, q, Frame.BODY)
            t0 = robot.forward_kinematics(iiwa7, q - step * qd).matrix()
            t1 = robot.forward_kinematics(iiwa7, q + step * qd).matrix()
            tc = robot.forward_kinematics(iiwa7, q).matrix()
            g = np.linalg.solve(tc, (t1 - t0) / (2 * step))
            # manual extraction: finite differencing leaves the skew part
            # only approximately antisymmetric, so vee() would reject it
            w = 0.5 * (g[:3, :3] - g[:3, :3].T)
            body_twist = np.array([g[0, 3], g[1, 3], g[2, 3],
                                   w[2, 1], w[0, 2], w[1, 0]])
            scale = max(1.0, np.abs(body_twist).max())
            assert np.abs(jb @ qd - body_twist).max() / scale < 1e-6

    def test_frame_consistency(self, anthro3r, iiwa7, rng):
        # Hybrid = block rotation map applied to the Body Jacobian
        for model in (anthro3r, iiwa7):
            for _ in range(50):
                q = random_q(rng, model)
                jb = robot.jacobian(model, q, Frame.BODY)
                jh = robot.jacobian(model, q, Frame.HYBRID)
                r = robot.forward_kinematics(model, q).rotation
                mapped = np.vstack([r @ jb[:3], r @ jb[3:]])
                assert np.abs(jh - mapped).max() <= 1e-12
                # Inertial = spatial Jacobian Ad(T_ee) J_b
                js = robot.jacobian(model, q, Frame.INERTIAL)
                pose = robot.forward_kinematics(model, q)
                assert np.abs(js - se3.adjoint(pose) @ jb).max() <= 1e-12


class TestJacobianDerivative:
    def test_anthro3r_q1_block(self, anthro3r, rng):
        for _ in range(10):
            q = random_q(rng, anthro3r)
            d = robot.jacobian_transpose_derivative(anthro3r, q, Frame.HYBRID)
            c1, s1 = np.cos(q[0]), np.sin(q[0])
            # d J_r^T / d q1 acting on the rotational rows
            expected = np.array([[0, 0, 0], [c1, s1, 0], [c1, s1, 0]])
            assert np.abs(d[0, 3:, :].T - expected).max() < 1e-14

    def test_anthro3r_q2_q3_rotational_blocks_vanish(self, anthro3r, rng):
        q = random_q(rng, anthro3r)
        d = robot.jacobian_transpose_derivative(anthro3r, q, Frame.HYBRID)
        assert np.abs(d[1, 3:, :]).max() < 1e-14
        assert np.abs(d[2, 3:, :]).max() < 1e-14

    @pytest.mark.parametrize("frame", [Frame.BODY, Frame.HYBRID, Frame.INERTIAL])
    def test_matches_central_difference(self, iiwa7, rng, frame):
        for _ in range(5):
            q = random_q(rng, iiwa7)
            d = robot.jacobian_transpose_derivative(iiwa7, q, frame)
            fd = jacobian_central_difference(iiwa7, q, frame)
            for a in range(7):
                scale = max(1.0, np.abs(fd[a]).max())
                assert np.abs(d[a] - fd[a]).max() / scale < 1e-6


class TestMassMatrix:
    def test_point_mass_single_joint(self):
        m, r = 2.0, 0.7
        model = robot.load_model(make_model([revolute_z()],
                                            [point_mass_link(m, (r, 0, 0))]))
        mass = robot.mass_matrix(model, [0.3])
        assert mass.shape == (1, 1)
        assert mass[0, 0] == pytest.approx(m * r * r, rel=1e-12)

    def test_symmetry(self, iiwa7, rng):
        for _ in range(10):
            q = random_q(rng, iiwa7)
            m = robot.mass_matrix(iiwa7, q)
            assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)

    def test_matches_naive_link_jacobian_sum(self, iiwa7, anthro3r, rng):
        for model in (anthro3r, iiwa7):
            for _ in range(5):
                q = random_q(rng, model)
                naive = np.zeros((model.n, model.n))
                for i, link in enumerate(model.links):
                    jl = link_jacobian(model, q, i)
                    naive += jl.T @ spatial_inertia(link) @ jl
                m = robot.mass_matrix(model, q)
                assert np.abs(m - naive).max() <= 1e-9 * max(1.0, np.abs(m).max())

    def test_kinetic_energy_nonnegative_and_consistent(self, iiwa7, rng):
        for _ in range(100):
            q = random_q(rng, iiwa7)
            qd = rng.normal(size=7)
            m = robot.mass_matrix(iiwa7, q)
            energy = 0.5 * qd @ m @ qd
            assert energy >= 0.0
            per_link = 0.0
            for i, link in enumerate(iiwa7.links):
                twist = link_jacobian(iiwa7, q, i) @ qd
                per_link += 0.5 * twist @ spatial_inertia(link) @ twist
            assert energy == pytest.approx(per_link, rel=1e-9)

    def test_massless_chain_rejected(self):
        model = robot.load_model(make_model([revolute_z()],
                                            [point_mass_link(0.0, (0, 0, 0))]))
        with pytest.raises(NonPositiveDefinite):
            robot.mass_matrix(model, [0.0])

    def test_massless_chain_has_stiffness(self):
        # stiffness needs no inertia: only M and full_kinematics reject it
        doc = make_model([revolute_z(), revolute_z((1.0, 0, 0))],
                         [point_mass_link(0.0, (0, 0, 0))] * 2,
                         {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [1.0, 0, 0]})
        model = robot.load_model(doc)
        q, f = [0.3, -0.7], [1.0, 2.0, 0.0, 0.5, -1.0, 3.0]
        h = np.diag([100.0] * 3 + [10.0] * 3)
        k = st.joint_stiffness(model, q, st.TaskStiffness(h, Frame.BODY), f, Frame.BODY)
        jac = robot.jacobian(model, q, Frame.BODY)
        expected = (st.kinematic_stiffness(model, q, f, Frame.BODY)
                    + jac.T @ (h + correction_matrix(Frame.BODY, f)) @ jac)
        assert np.abs(k.matrix - expected).max() <= 1e-12
        for call in (robot.mass_matrix, lambda m, x: robot.full_kinematics(m, x, Frame.BODY)):
            with pytest.raises(NonPositiveDefinite):
                call(model, q)


class TestFullKinematics:
    @pytest.mark.parametrize("frame", [Frame.BODY, Frame.HYBRID, Frame.INERTIAL])
    def test_matches_individual_routines(self, anthro3r, iiwa7, rng, frame):
        # every routine is a view of this pass, so compare with the oracles
        for model in (anthro3r, iiwa7):
            for _ in range(20):
                q = random_q(rng, model)
                kin = robot.full_kinematics(model, q, frame)
                assert np.abs(kin.pose.matrix() - brute_force_fk(model, q)).max() <= 1e-12
                fd = twist_jacobian_central_difference(model, q, frame)
                assert np.abs(kin.jacobian - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
                fd = jacobian_central_difference(model, q, frame)
                assert np.abs(kin.derivative - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
                assert np.abs(kin.mass - crba_mass_matrix(model, q)).max() <= 1e-12
                m = kin.mass_eigvecs * kin.mass_eigvals @ kin.mass_eigvecs.T
                assert np.abs(m - kin.mass).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_q_rejected(self, iiwa7, bad):
        q = np.zeros(7)
        q[3] = bad
        for call in (robot.forward_kinematics, robot.mass_matrix,
                     lambda m, x: robot.jacobian(m, x, Frame.HYBRID),
                     lambda m, x: robot.full_kinematics(m, x, Frame.BODY)):
            with pytest.raises(NonFinite):
                call(iiwa7, q)
