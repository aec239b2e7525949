"""Tests for pan/tilt kinematics and checkerboard observation."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from procamsim.errors import LimitError, SchemaError
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    rotation_about_axis,
)
from procamsim.rig import (
    PanTiltState,
    RigModel,
    load_rig,
    pan_tilt_rotation,
    rig_pose,
    save_rig,
)
from procamsim.scene import CheckerboardTarget

from rigs import default_rig

# A generator for noise-free observations, which take no draws from it.
NO_DRAWS = np.random.default_rng(0)


def simple_rig(**overrides) -> RigModel:
    fields = dict(
        pan_axis=[0.0, 1.0, 0.0],
        tilt_axis=[1.0, 0.0, 0.0],
        rear_to_front=RigidTransform.identity(),
        front_to_proj=RigidTransform.identity(),
        front_device=PinholeDevice(fx=525, fy=525, cx=320, cy=240, width=640, height=480),
        rear_device=PinholeDevice(fx=525, fy=525, cx=320, cy=240, width=640, height=480),
        proj_device=PinholeDevice(fx=1500, fy=1500, cx=960, cy=540, width=1920, height=1080),
    )
    fields.update(overrides)
    return RigModel(**fields)


class TestPanTiltRotation:
    def test_home_is_identity(self):
        r = pan_tilt_rotation(simple_rig(), PanTiltState())
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_pure_pan_when_tilt_zero(self):
        rig = simple_rig()
        r = pan_tilt_rotation(rig, PanTiltState(alpha=0.4, beta=0.0))
        np.testing.assert_allclose(r, rotation_about_axis([0, 1, 0], 0.4), atol=1e-15)

    def test_matches_independent_product(self):
        # Non-orthogonal, non-ideal axes; oracle is an explicit product of
        # scipy rotations in the same order.
        pan_axis = normalized([0.1, 1.0, 0.05])
        tilt_axis = normalized([1.0, 0.2, -0.1])
        rig = simple_rig(pan_axis=pan_axis, tilt_axis=tilt_axis)
        a = b = math.pi / 6
        got = pan_tilt_rotation(rig, PanTiltState(alpha=a, beta=b))
        expected = (
            Rotation.from_rotvec(tilt_axis * b).as_matrix()
            @ Rotation.from_rotvec(pan_axis * a).as_matrix()
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # The two motor rotations do not commute for generic axes.
        swapped = (
            Rotation.from_rotvec(pan_axis * a).as_matrix()
            @ Rotation.from_rotvec(tilt_axis * b).as_matrix()
        )
        assert np.abs(got - swapped).max() > 1e-3

    def test_orthonormal_for_random_states(self):
        rig = simple_rig(
            pan_axis=normalized([0.05, 1, 0.02]), tilt_axis=normalized([1, -0.04, 0.03])
        )
        rng = np.random.default_rng(4)
        for _ in range(50):
            state = PanTiltState(*rng.uniform(-1.5, 1.5, size=2))
            r = pan_tilt_rotation(rig, state)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_limits(self):
        rig = simple_rig()
        with pytest.raises(LimitError):
            pan_tilt_rotation(rig, PanTiltState(alpha=math.pi / 2 + 0.01))
        with pytest.raises(LimitError):
            pan_tilt_rotation(rig, PanTiltState(beta=-math.pi / 2 - 0.01))


class TestRigPose:
    def test_front_world_round_trip(self):
        rig = default_rig()
        state = PanTiltState(alpha=0.3, beta=-0.2)
        pose = rig_pose(rig, state)
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(30, 3))
        np.testing.assert_allclose(
            pose.front_to_world.inverse().apply(pose.front_to_world.apply(pts)),
            pts,
            atol=1e-12,
        )
        np.testing.assert_allclose(pose.front_to_world.translation, np.zeros(3))

    def test_home_front_is_world(self):
        pose = rig_pose(simple_rig(), PanTiltState())
        np.testing.assert_allclose(pose.front_to_world.as_matrix(), np.eye(4), atol=1e-15)

    def test_rear_camera_rotates_with_platform(self):
        # Rear camera facing -z at home; after a half-pi pan a point that was
        # on its optical axis leaves the frustum.
        rear_mount = RigidTransform(rotation_about_axis([0, 1, 0], math.pi), np.zeros(3))
        rig = simple_rig(rear_to_front=rear_mount)
        point_world = np.array([0.0, 0.0, -2.0])

        pose_home = rig_pose(rig, PanTiltState())
        p_rear = pose_home.rear_to_world.inverse().apply(point_world)
        assert p_rear[2] > 0  # in front of the rear camera at home

        pose_panned = rig_pose(rig, PanTiltState(alpha=math.pi / 2 - 1e-9))
        p_rear = pose_panned.rear_to_world.inverse().apply(point_world)
        assert p_rear[2] < 1e-6 or abs(p_rear[0]) > abs(p_rear[2])

    def test_projector_pose_consistency(self):
        # proj_to_world composed with the stored front->proj mapping must
        # reproduce front_to_world exactly.
        rig = default_rig()
        pose = rig_pose(rig, PanTiltState(alpha=-0.25, beta=0.15))
        recomposed = pose.proj_to_world @ rig.front_to_proj
        np.testing.assert_allclose(
            recomposed.as_matrix(), pose.front_to_world.as_matrix(), atol=1e-12
        )

    def test_eq1_mapping_for_front_points(self):
        # A front-frame point maps to the world by the motor rotations alone.
        rig = simple_rig()
        state = PanTiltState(alpha=0.5, beta=0.25)
        p_front = np.array([0.1, -0.2, 2.0])
        expected = (
            rotation_about_axis([1, 0, 0], 0.25)
            @ rotation_about_axis([0, 1, 0], 0.5)
            @ p_front
        )
        pose = rig_pose(rig, state)
        np.testing.assert_allclose(pose.front_to_world.apply(p_front), expected, atol=1e-12)


def front_board() -> CheckerboardTarget:
    return CheckerboardTarget(
        pose=RigidTransform(
            rotation_about_axis([0, 1, 0], math.radians(10.0)),
            np.array([-0.32, -0.20, 2.5]),
        ),
        rows=6,
        cols=9,
        square_size=0.08,
    )


def front_view(board, rig, state, sigma=0.0, rng=NO_DRAWS) -> dict:
    return board.observe(rig.front_device, rig_pose(rig, state).front_to_world, sigma, rng)


class TestObserveCheckerboard:
    def test_noiseless_front_observation_matches_transform(self):
        rig = default_rig()
        state = PanTiltState(alpha=0.2, beta=-0.1)
        board = front_board()
        obs = front_view(board, rig, state)
        world = board.corners_world()
        front_from_world = rig_pose(rig, state).front_to_world.inverse()
        for idx, point in obs.items():
            np.testing.assert_allclose(point, front_from_world.apply(world[idx]), atol=1e-12)

    def test_all_corners_visible_at_home(self):
        obs = front_view(front_board(), default_rig(), PanTiltState())
        assert len(obs) == 6 * 9

    def test_out_of_frustum_corners_omitted(self):
        # Pan far enough that part of the board leaves the image.
        obs = front_view(front_board(), default_rig(), PanTiltState(alpha=math.radians(28)))
        assert 0 < len(obs) < 54

    def test_board_behind_camera_sees_nothing(self):
        board = CheckerboardTarget(
            pose=RigidTransform(np.eye(3), np.array([0.0, 0.0, -2.5])),
            rows=6,
            cols=9,
            square_size=0.08,
        )
        rng = np.random.default_rng(5)
        assert front_view(board, default_rig(), PanTiltState(), 0.001, rng) == {}
        # An empty observation takes no draws.
        assert rng.normal() == np.random.default_rng(5).normal()

    def test_noise_statistics(self):
        rig = default_rig()
        rng = np.random.default_rng(42)
        board = front_board()
        obs = front_view(board, rig, PanTiltState(), 0.001, rng)
        clean = front_view(board, rig, PanTiltState())
        errors = np.array([p - clean[i] for i, p in obs.items()])
        assert abs(errors.std() - 0.001) < 3e-4

    def test_noise_is_drawn_for_every_corner(self):
        # Draws do not depend on visibility: corner i takes row i of one
        # (rows * cols, 3) draw whether or not it is kept.
        rig = default_rig()
        state = PanTiltState(alpha=math.radians(28))
        board = front_board()
        obs = front_view(board, rig, state, 0.001, np.random.default_rng(3))
        clean = front_view(board, rig, state)
        noise = np.random.default_rng(3).normal(0.0, 0.001, size=(54, 3))
        assert list(obs) == list(clean) and len(obs) < 54
        for i, p in obs.items():
            np.testing.assert_allclose(p, clean[i] + noise[i], rtol=0, atol=1e-15)

    def test_rear_camera_observation(self):
        rig = default_rig()
        pose = rig_pose(rig, PanTiltState())
        obs = front_board().observe(rig.rear_device, pose.rear_to_world, 0.0, NO_DRAWS)
        world = front_board().corners_world()
        rear_from_world = pose.rear_to_world.inverse()
        assert obs
        for idx, point in obs.items():
            np.testing.assert_allclose(point, rear_from_world.apply(world[idx]), atol=1e-12)


class TestRigIO:
    def test_round_trip(self, tmp_path):
        rig = default_rig()
        path = tmp_path / "rig.json"
        save_rig(rig, path)
        loaded = load_rig(path)
        np.testing.assert_allclose(loaded.pan_axis, rig.pan_axis, atol=1e-12)
        np.testing.assert_allclose(loaded.tilt_axis, rig.tilt_axis, atol=1e-12)
        np.testing.assert_allclose(
            loaded.rear_to_front.as_matrix(), rig.rear_to_front.as_matrix(), atol=1e-12
        )
        np.testing.assert_allclose(
            loaded.front_to_proj.as_matrix(), rig.front_to_proj.as_matrix(), atol=1e-12
        )
        assert loaded.proj_device == rig.proj_device
        assert loaded.pan_limit == pytest.approx(rig.pan_limit)

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_text('{"schema_version": 2}')
        with pytest.raises(SchemaError):
            load_rig(path)
