"""Tests for the user-perspective screen projection."""

import numpy as np
import pytest

from procamsim.errors import EyeOnScreenPlaneError
from procamsim.geometry import RigidTransform, rotation_about_axis, to_homogeneous
from procamsim.upr import (
    EyePose,
    UprMatrix,
    Viewport,
    upr_matrix,
    user_projection_matrix,
)


def dehomogenize(h: np.ndarray) -> np.ndarray:
    """(..., 3) homogeneous screen points to (..., 2)."""
    return h[..., :-1] / h[..., -1:]


def line_plane_oracle(eye: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Intersection of the eye-to-point line with the z = 0 plane."""
    t = eye[2] / (eye[2] - point[2])
    return (eye + t * (point - eye))[:2]


class TestUserProjectionMatrix:
    def test_matrix_entries(self):
        m = user_projection_matrix(EyePose(0.2, -0.1, -1.5))
        expected = np.array(
            [
                [1.5, 0.0, 0.2, 0.0],
                [0.0, 1.5, -0.1, 0.0],
                [0.0, 0.0, 1.0, 1.5],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_screen_plane_points_are_fixed(self):
        rng = np.random.default_rng(3)
        m = user_projection_matrix(EyePose(*rng.normal(size=3) - [0, 0, 2]))
        pts = rng.uniform(-2, 2, size=(1000, 3))
        pts[:, 2] = 0.0
        h = np.c_[pts, np.ones(len(pts))] @ m.T
        np.testing.assert_allclose(dehomogenize(h), pts[:, :2], atol=1e-12)

    def test_origin_maps_to_origin(self):
        m = user_projection_matrix(EyePose(0.3, 0.2, -1.1))
        h = m @ np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(dehomogenize(h), [0.0, 0.0], atol=1e-15)

    def test_third_coordinate_is_z_minus_ez(self):
        rng = np.random.default_rng(5)
        eye = EyePose(0.1, -0.3, -1.5)
        m = user_projection_matrix(eye)
        pts = rng.uniform(-3, 3, size=(200, 3))
        h = np.c_[pts, np.ones(len(pts))] @ m.T
        np.testing.assert_allclose(h[:, 2], pts[:, 2] - eye.z, atol=1e-12)

    def test_matches_line_plane_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eye_arr = rng.uniform([-1, -1, -3], [1, 1, -0.5])
            m = user_projection_matrix(EyePose(*eye_arr))
            point = rng.uniform([-2, -2, 0.5], [2, 2, 5])
            h = m @ np.append(point, 1.0)
            np.testing.assert_allclose(
                dehomogenize(h), line_plane_oracle(eye_arr, point), atol=1e-10
            )

    def test_eye_on_plane_rejected(self):
        with pytest.raises(EyeOnScreenPlaneError):
            user_projection_matrix(EyePose(0.5, 0.5, 0.0))

    def test_motion_parallax_monotone_in_ex(self):
        # For a fixed off-plane point the image x is strictly monotone in
        # the eye x coordinate.
        point = np.array([0.4, -0.2, 2.0, 1.0])
        xs = []
        for ex in np.linspace(-1, 1, 21):
            m = user_projection_matrix(EyePose(ex, 0.0, -1.5))
            xs.append(dehomogenize(m @ point)[0])
        diffs = np.diff(xs)
        assert (diffs > 0).all() or (diffs < 0).all()


class TestUprMatrix:
    def test_composition_with_world_transform(self):
        rng = np.random.default_rng(11)
        world_to_rear = RigidTransform(
            rotation_about_axis([0, 1, 0], 0.4), np.array([0.1, -0.2, 0.3])
        )
        eye = EyePose(0.05, 0.1, -1.2)
        upr = upr_matrix(eye, world_to_rear)
        pts_world = rng.uniform(-1, 1, size=(50, 3)) + [0, 0, 3]
        xy, w = upr.apply(pts_world)
        # Oracle: transform into the rear frame first, then intersect the
        # eye line with the screen plane.
        pts_rear = world_to_rear.apply(pts_world)
        for i in range(len(pts_world)):
            expected = line_plane_oracle(eye.as_array(), pts_rear[i])
            np.testing.assert_allclose(xy[i], expected, atol=1e-10)
            assert w[i] == pytest.approx(pts_rear[i][2] - eye.z, abs=1e-12)

    @pytest.mark.parametrize("eye", [EyePose(0.13, -0.07, -1.43), EyePose(0.0, 0.0, -1.5)])
    def test_xy_has_the_bits_of_one_division_of_rows(self, eye):
        # Points in front of, behind and on the eye's plane (w > 0, w < 0,
        # w = 0); the last give +-inf, and NaN (0 / 0) on the eye's axis.
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(400, 3)) + [0.0, 0.0, eye.z]
        pts[::7, 2] = eye.z
        pts[::35, :2] = [eye.x, eye.y]
        rotated = RigidTransform(rotation_about_axis([0, 1, 0], 0.4), np.array([0.1, -0.2, 0.3]))
        for world_to_rear in (RigidTransform.identity(), rotated):
            upr = upr_matrix(eye, world_to_rear)
            h = to_homogeneous(pts) @ upr.matrix.T
            w = h[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                want = h[:, :2] / w[:, None]
            xy, got_w = upr.apply(pts)
            assert xy.shape == (400, 2)
            assert np.array_equal(got_w, w)
            assert np.array_equal(xy, want, equal_nan=True)
            if world_to_rear is not rotated:
                assert (w > 0).any() and (w < 0).any() and (w == 0).any()
                assert np.isinf(xy).any()
                if eye.x == eye.y == 0:
                    assert np.isnan(xy).any()

    def test_eye_world_round_trip(self):
        world_to_rear = RigidTransform(
            rotation_about_axis([1, 0, 0], -0.3), np.array([0.0, 0.1, -0.05])
        )
        eye = EyePose(0.2, -0.1, -1.5)
        upr = upr_matrix(eye, world_to_rear)
        np.testing.assert_allclose(
            world_to_rear.apply(upr.eye_world()), eye.as_array(), atol=1e-12
        )


class TestViewport:
    def test_round_trip(self):
        vp = Viewport(width_px=1920, height_px=1080)
        rng = np.random.default_rng(13)
        uv = rng.uniform([0, 0], [1920, 1080], size=(100, 2))
        np.testing.assert_allclose(vp.to_pixels(vp.to_plane(uv)), uv, atol=1e-9)

    def test_center_and_corner(self):
        vp = Viewport(width_px=1920, height_px=1080, width_m=2.0, height_m=1.125)
        np.testing.assert_allclose(vp.to_pixels([0.0, 0.0]), [960.0, 540.0])
        np.testing.assert_allclose(vp.to_plane([0.0, 0.0]), [-1.0, -0.5625])

    @pytest.mark.parametrize("shape", [(2,), (50, 2), (4, 5, 2)])
    def test_to_pixels_per_coordinate_bit_for_bit(self, shape):
        vp = Viewport(width_px=1280, height_px=720, width_m=1.7, height_m=0.95)
        xy = np.random.default_rng(14).uniform(-2.0, 2.0, size=shape)
        u = (xy[..., 0] / vp.width_m + 0.5) * vp.width_px
        v = (xy[..., 1] / vp.height_m + 0.5) * vp.height_px
        assert np.array_equal(vp.to_pixels(xy), np.stack([u, v], axis=-1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Viewport(width_px=0, height_px=10)
        with pytest.raises(ValueError):
            Viewport(width_px=10, height_px=10, width_m=-1.0)
