"""Tests for rotations, transforms, pinhole projection and point alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from procamsim.errors import DegenerateConfigurationError
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    backproject_points,
    from_homogeneous,
    normalized,
    project_points,
    rigid_align,
    rotation_about_axis,
    rotation_from_rotvec,
    rotation_to_axis_angle,
    to_homogeneous,
)


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRotationAboutAxis:
    def test_z_axis_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(
            rotation_about_axis([0, 0, 1], math.pi / 2), expected, atol=1e-15
        )

    def test_diagonal_axis_third_turn_permutes_basis(self):
        # 120 degrees about (1,1,1)/sqrt(3) maps x->y->z->x.
        axis = np.ones(3) / math.sqrt(3)
        r = rotation_about_axis(axis, 2 * math.pi / 3)
        expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(r, expected, atol=1e-15)

    def test_matches_independent_rotvec_oracle(self):
        rng = np.random.default_rng(7)
        axes = random_unit_vectors(rng, 200)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=200)
        for axis, theta in zip(axes, angles):
            expected = Rotation.from_rotvec(axis * theta).as_matrix()
            np.testing.assert_allclose(
                rotation_about_axis(axis, theta), expected, atol=1e-12
            )

    def test_inverse_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for axis, theta in zip(
            random_unit_vectors(rng, 100), rng.uniform(-6, 6, size=100)
        ):
            r = rotation_about_axis(axis, theta)
            np.testing.assert_allclose(
                r @ rotation_about_axis(axis, -theta), np.eye(3), atol=1e-12
            )
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(13)
        for axis, theta in zip(
            random_unit_vectors(rng, 100), rng.uniform(-6, 6, size=100)
        ):
            r = rotation_about_axis(axis, theta)
            np.testing.assert_allclose(r @ axis, axis, atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            rotation_about_axis([0, 0, 2], 0.3)
        with pytest.raises(ValueError):
            rotation_about_axis([1, 3e-3, 0], 0.3)

    def test_round_trip_through_axis_angle(self):
        rng = np.random.default_rng(17)
        for axis, theta in zip(
            random_unit_vectors(rng, 50), rng.uniform(0.01, math.pi - 0.01, size=50)
        ):
            r = rotation_about_axis(axis, theta)
            got_axis, got_theta = rotation_to_axis_angle(r)
            np.testing.assert_allclose(got_axis * got_theta, axis * theta, atol=1e-10)
        axis, theta = rotation_to_axis_angle(np.eye(3))
        assert theta == 0.0

    def test_rotvec_helper(self):
        np.testing.assert_allclose(rotation_from_rotvec([0, 0, 0]), np.eye(3))
        v = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(
            rotation_from_rotvec(v), Rotation.from_rotvec(v).as_matrix(), atol=1e-12
        )


class TestRigidTransform:
    def test_compose_applies_right_operand_first(self):
        rng = np.random.default_rng(3)
        a = RigidTransform(
            rotation_about_axis(normalized(rng.normal(size=3)), 0.7),
            rng.normal(size=3),
        )
        b = RigidTransform(
            rotation_about_axis(normalized(rng.normal(size=3)), -1.2),
            rng.normal(size=3),
        )
        p = rng.normal(size=3)
        np.testing.assert_allclose((a @ b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        t = RigidTransform(
            rotation_about_axis(normalized(rng.normal(size=3)), 2.1),
            rng.normal(size=3),
        )
        pts = rng.normal(size=(20, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)
        np.testing.assert_allclose(
            (t @ t.inverse()).as_matrix(), np.eye(4), atol=1e-12
        )

    def test_matrix_agrees_with_apply(self):
        rng = np.random.default_rng(9)
        t = RigidTransform(
            rotation_about_axis(normalized(rng.normal(size=3)), -0.4),
            rng.normal(size=3),
        )
        p = rng.normal(size=3)
        hom = t.as_matrix() @ np.append(p, 1.0)
        np.testing.assert_allclose(hom[:3], t.apply(p), atol=1e-12)

    def test_json_round_trip(self):
        t = RigidTransform(rotation_about_axis([0, 1, 0], 0.83), [0.1, -0.2, 0.3])
        back = RigidTransform.from_json(t.to_json())
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)
        ident = RigidTransform.identity()
        back = RigidTransform.from_json(ident.to_json())
        np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-15)


class TestHomogeneous:
    def test_round_trip(self):
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 9.0]])
        np.testing.assert_allclose(from_homogeneous(to_homogeneous(pts)), pts)

    def test_direction_rejected(self):
        with pytest.raises(ValueError):
            from_homogeneous(np.array([1.0, 2.0, 3.0, 0.0]))


class TestPinholeProjection:
    def device(self):
        return PinholeDevice(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_principal_ray(self):
        uv, depth = project_points(self.device(), RigidTransform.identity(), [0, 0, 3.0])
        np.testing.assert_allclose(uv, [[320.0, 240.0]], atol=1e-12)
        assert depth.tolist() == [3.0]

    def test_backproject_principal_point(self):
        p = backproject_points(self.device(), [320.0, 240.0], 3.0)
        np.testing.assert_allclose(p, [[0.0, 0.0, 3.0]], atol=1e-12)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(21)
        dev = PinholeDevice(
            fx=1500.0, fy=1480.0, cx=960.0, cy=540.0, width=1920, height=1080, skew=0.7
        )
        pose = RigidTransform(rotation_about_axis([0, 1, 0], 0.3), [0.1, 0.05, -0.2])
        pts = rng.uniform([-1, -1, 2], [1, 1, 6], size=(500, 3))
        world = pose.inverse().apply(pts)
        uv, z = project_points(dev, pose, world)
        np.testing.assert_allclose(z, pts[:, 2], rtol=1e-12)
        np.testing.assert_allclose(backproject_points(dev, uv, z), pts, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        xy=hnp.arrays(np.float64, (12, 2), elements=st.floats(-1e6, 1e6)),
        z=hnp.arrays(np.float64, 12, elements=st.sampled_from(
            [-1.0, -0.0, 0.0, 1e-300, 3.0, math.nan]
        )),
    )
    def test_behind_device_gives_nan_pixels(self, xy, z):
        # NaN is the one "no pixel" marker: it is exactly where the depth is
        # not positive, the bounds test rejects it, and no step warns.
        dev = self.device()
        uv, depth = project_points(dev, RigidTransform.identity(), np.c_[xy, z])
        behind = ~(z > 0)
        np.testing.assert_array_equal(np.isnan(uv), np.repeat(behind[:, None], 2, axis=1))
        assert not dev.contains(uv)[behind].any()
        np.testing.assert_array_equal(depth, z)

    def test_device_validation(self):
        with pytest.raises(ValueError):
            PinholeDevice(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(ValueError):
            PinholeDevice(fx=1, fy=1, cx=11, cy=0, width=10, height=10)

    def test_contains(self):
        dev = self.device()
        assert dev.contains([0.0, 0.0])
        assert dev.contains([639.9, 479.9])
        assert not dev.contains([640.0, 100.0])
        flags = dev.contains(np.array([[5.0, 5.0], [-0.1, 5.0]]))
        assert flags.tolist() == [True, False]


class TestRigidAlign:
    def test_recovers_synthesized_transform(self):
        rng = np.random.default_rng(31)
        truth = RigidTransform(
            rotation_about_axis(normalized([0.2, 1.0, -0.3]), 1.1),
            np.array([0.4, -1.2, 2.0]),
        )
        src = rng.uniform(-1, 1, size=(12, 3))
        dst = truth.apply(src)
        got, rms = rigid_align(src, dst)
        np.testing.assert_allclose(got.rotation, truth.rotation, atol=1e-10)
        np.testing.assert_allclose(got.translation, truth.translation, atol=1e-10)
        assert rms < 1e-10

    def test_reflection_guard(self):
        # A mostly-planar cloud with noise tempts the unguarded solution
        # toward a reflection; the result must stay a proper rotation.
        rng = np.random.default_rng(33)
        src = rng.uniform(-1, 1, size=(30, 3)) * [1.0, 1.0, 1e-4]
        truth = RigidTransform(rotation_about_axis([0, 0, 1], 0.5), np.zeros(3))
        dst = truth.apply(src) + rng.normal(scale=1e-3, size=src.shape)
        got, _ = rigid_align(src, dst)
        assert np.linalg.det(got.rotation) > 0.99

    def test_too_few_points(self):
        with pytest.raises(DegenerateConfigurationError):
            rigid_align(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_points(self):
        line = np.outer(np.linspace(0, 1, 8), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateConfigurationError):
            rigid_align(line, line)

    def test_noisy_residual_reported(self):
        rng = np.random.default_rng(37)
        truth = RigidTransform(rotation_about_axis([1, 0, 0], 0.2), [0, 0.1, 0])
        src = rng.uniform(-1, 1, size=(40, 3))
        noise = rng.normal(scale=1e-3, size=src.shape)
        _, rms = rigid_align(src, truth.apply(src) + noise)
        expected = float(np.sqrt(np.mean(np.sum(noise**2, axis=1))))
        assert rms == pytest.approx(expected, rel=0.5)
