"""Calibration pipeline tests.

Every estimator is checked against an independently coded forward model:
observations are synthesized here with plain numpy (not with the library's
own simulation helpers), so a recovery error in either direction shows up.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from procamsim.calibration import (
    AxisRecord,
    ProjectorCorrespondenceSet,
    RearRegistrationRecord,
    _dlt_projection,
    angle_between,
    calibrate_projector,
    common_corner_indices,
    estimate_axis,
    load_result,
    load_session,
    register_rear_camera,
    result_from_json,
    result_to_json,
    run_full_calibration,
    save_result,
    save_session,
    session_from_json,
    session_to_json,
)
from procamsim.errors import (
    DegenerateConfigurationError,
    EmptyObservationError,
    Fields,
    SchemaError,
    StageError,
    UnderdeterminedError,
)
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    rotation_about_axis,
    rotation_from_rotvec,
    rotation_to_axis_angle,
)
from procamsim.rig import PanTiltState, RigModel
from procamsim.scene import CheckerboardTarget, Plane, Scene
from procamsim.simulate import CalibrationProtocol, synthesize_session

from rigs import default_rig

# -- forward models (oracles) -------------------------------------------------


def board_points(rows=4, cols=5, spacing=0.08, center=(0.0, 0.0, 2.5)):
    """A grid of world points roughly facing the camera."""
    pts = []
    for i in range(rows):
        for j in range(cols):
            pts.append(
                [
                    center[0] + (j - (cols - 1) / 2) * spacing,
                    center[1] + (i - (rows - 1) / 2) * spacing,
                    center[2] + 0.01 * i - 0.005 * j,
                ]
            )
    return np.array(pts)


def sweep_records(axis, angles_deg, world_pts, noise_sigma=0.0, rng=None):
    """Device-frame observations of fixed world points under motor motion.

    The device rotates by R(axis, theta), so it measures R(theta)^-1 @ p.
    """
    records = []
    for angle in angles_deg:
        theta = math.radians(angle)
        rot = rotation_about_axis(axis, theta)
        seen = world_pts @ rot  # rot.T applied to each row, i.e. R^-1 p
        if noise_sigma > 0:
            seen = seen + rng.normal(0.0, noise_sigma, size=seen.shape)
        records.append(AxisRecord(theta=theta, corners=dict(enumerate(seen))))
    return tuple(records)


TRUE_AXIS = normalized([0.04, 0.998, -0.03])
SWEEP_ANGLES = (-20.0, -10.0, 0.0, 10.0, 20.0)


class TestEstimateAxis:
    def test_noiseless_recovery(self):
        obs = sweep_records(TRUE_AXIS, SWEEP_ANGLES, board_points())
        axis, rms = estimate_axis(obs)
        assert angle_between(axis, TRUE_AXIS) < 1e-8
        assert rms < 1e-10

    def test_sign_follows_rotation_direction(self):
        # Estimating from a sweep about -axis with the same angles must
        # return (close to) -axis, not +axis.
        obs = sweep_records(-TRUE_AXIS, SWEEP_ANGLES, board_points())
        axis, _ = estimate_axis(obs)
        assert float(axis @ TRUE_AXIS) < -0.999

    def test_tilt_like_axis(self):
        tilt_axis = normalized([0.999, 0.03, 0.02])
        obs = sweep_records(tilt_axis, SWEEP_ANGLES, board_points())
        axis, _ = estimate_axis(obs)
        assert angle_between(axis, tilt_axis) < 1e-8

    def test_noisy_recovery_within_tolerance(self):
        rng = np.random.default_rng(7)
        obs = sweep_records(
            TRUE_AXIS, SWEEP_ANGLES, board_points(), noise_sigma=1e-3, rng=rng
        )
        axis, rms = estimate_axis(obs)
        assert math.degrees(angle_between(axis, TRUE_AXIS)) < 0.3
        # Residual reflects the injected noise level.
        assert 2e-4 < rms < 5e-3

    def test_noise_monotonicity_paired_seeds(self):
        medians = []
        for sigma in (5e-4, 2e-3):
            errors = []
            for seed in range(9):
                rng = np.random.default_rng(seed)
                obs = sweep_records(
                    TRUE_AXIS, SWEEP_ANGLES, board_points(), noise_sigma=sigma, rng=rng
                )
                axis, _ = estimate_axis(obs)
                errors.append(angle_between(axis, TRUE_AXIS))
            medians.append(float(np.median(errors)))
        assert medians[0] < medians[1]

    def test_partial_visibility_uses_common_corners(self):
        # Drop a different corner from each record; the common subset still
        # determines the axis.
        obs = sweep_records(TRUE_AXIS, SWEEP_ANGLES, board_points())
        records = []
        for k, rec in enumerate(obs):
            kept = {i: p for i, p in rec.corners.items() if i != k}
            records.append(AxisRecord(theta=rec.theta, corners=kept))
        trimmed = tuple(records)
        assert len(common_corner_indices(trimmed)) == len(board_points()) - len(SWEEP_ANGLES)
        axis, _ = estimate_axis(trimmed)
        assert angle_between(axis, TRUE_AXIS) < 1e-8

    def test_two_angles_rejected(self):
        obs = sweep_records(TRUE_AXIS, (-10.0, 10.0), board_points())
        with pytest.raises(DegenerateConfigurationError):
            estimate_axis(obs)

    def test_corners_on_axis_rejected(self):
        pts = np.outer([1.0, 1.5, 2.0, 2.5], TRUE_AXIS)
        obs = sweep_records(TRUE_AXIS, SWEEP_ANGLES, pts)
        with pytest.raises(DegenerateConfigurationError):
            estimate_axis(obs)

    def test_no_common_corner_rejected(self):
        obs = sweep_records(TRUE_AXIS, (-10.0, 0.0, 10.0), board_points())
        records = []
        all_idx = list(obs[0].corners)
        chunks = np.array_split(np.array(all_idx), 3)
        for rec, chunk in zip(obs, chunks):
            kept = {i: rec.corners[i] for i in chunk.tolist()}
            records.append(AxisRecord(theta=rec.theta, corners=kept))
        disjoint = tuple(records)
        with pytest.raises(DegenerateConfigurationError):
            estimate_axis(disjoint)

    def test_record_needs_four_corners(self):
        with pytest.raises(ValueError):
            AxisRecord(theta=0.0, corners={0: [1, 2, 3], 1: [2, 3, 4]})


class TestRegisterRear:
    def setup_method(self):
        self.pan_axis = normalized([0.02, 1.0, -0.01])
        self.tilt_axis = normalized([1.0, 0.015, 0.02])
        self.rear_to_front = RigidTransform(
            rotation_from_rotvec([0.02, -0.7, 0.015]),
            np.array([0.05, -0.12, -0.04]),
        )
        self.state = PanTiltState(alpha=math.radians(15), beta=math.radians(10))

    def forward(self, world_pts, state, noise_sigma=0.0, rng=None):
        """Front- and rear-frame measurements from an independent 4x4-matrix chain."""
        platform = np.eye(4)
        platform[:3, :3] = rotation_about_axis(
            self.tilt_axis, state.beta
        ) @ rotation_about_axis(self.pan_axis, state.alpha)
        mounting = np.eye(4)
        mounting[:3, :3] = self.rear_to_front.rotation
        mounting[:3, 3] = self.rear_to_front.translation
        homogeneous = np.c_[world_pts, np.ones(len(world_pts))]
        front_pts = (homogeneous @ np.linalg.inv(platform).T)[:, :3]
        rear_pts = (homogeneous @ np.linalg.inv(platform @ mounting).T)[:, :3]
        if noise_sigma > 0:
            rear_pts = rear_pts + rng.normal(0.0, noise_sigma, size=rear_pts.shape)
        return front_pts, rear_pts

    def record(self, world_pts, state, noise_sigma=0.0, rng=None):
        front, rear = self.forward(world_pts, state, noise_sigma, rng)
        return RearRegistrationRecord(
            front_corners=dict(enumerate(front)), rear_corners=dict(enumerate(rear))
        )

    def test_noiseless_round_trip(self):
        est, rms = register_rear_camera(self.record(board_points(), self.state))
        rot_err = rotation_to_axis_angle(est.rotation.T @ self.rear_to_front.rotation)[1]
        assert rot_err < 1e-10
        assert np.linalg.norm(est.translation - self.rear_to_front.translation) < 1e-10
        assert rms < 1e-12

    def test_noisy_rms_reported(self):
        rng = np.random.default_rng(3)
        record = self.record(board_points(), self.state, noise_sigma=1e-3, rng=rng)
        est, rms = register_rear_camera(record)
        assert 2e-4 < rms < 5e-3
        rot_err = rotation_to_axis_angle(est.rotation.T @ self.rear_to_front.rotation)[1]
        assert rot_err < 0.02

    def test_home_state_is_plain_alignment(self):
        # At home the front frame is the world frame.
        world = board_points()
        rear = self.rear_to_front.inverse().apply(world)
        record = RearRegistrationRecord(
            front_corners=dict(enumerate(world)), rear_corners=dict(enumerate(rear))
        )
        est, _ = register_rear_camera(record)
        assert np.allclose(est.as_matrix(), self.rear_to_front.as_matrix(), atol=1e-10)

    def test_fewer_than_three_shared_corners_rejected(self):
        front, rear = self.forward(board_points(), self.state)
        record = RearRegistrationRecord(
            front_corners=dict(enumerate(front[:3])),
            rear_corners=dict(zip(range(1, 4), rear[1:4])),
        )
        with pytest.raises(DegenerateConfigurationError, match="at least 3 shared corners"):
            register_rear_camera(record)

    def test_corners_are_matched_by_index(self):
        # Shuffled dicts with corners only one camera saw give the bits of
        # the sorted dicts of the shared corners.
        rng = np.random.default_rng(5)
        front, rear = self.forward(board_points(), self.state, noise_sigma=1e-3, rng=rng)
        shared = list(range(2, 18))
        matched = RearRegistrationRecord(
            front_corners={i: front[i] for i in shared}, rear_corners={i: rear[i] for i in shared}
        )
        front_only = shared + [0, 1]
        rear_only = shared + [18, 19]
        shuffled = RearRegistrationRecord(
            front_corners={i: front[i] for i in rng.permutation(front_only)},
            rear_corners={i: rear[i] for i in rng.permutation(rear_only)},
        )
        want, want_rms = register_rear_camera(matched)
        got, got_rms = register_rear_camera(shuffled)
        assert np.array_equal(got.as_matrix(), want.as_matrix())
        assert got_rms == want_rms


def projector_truth():
    device = PinholeDevice(
        fx=1500.0, fy=1480.0, cx=958.0, cy=544.0, width=1920, height=1080, skew=0.0
    )
    front_to_proj = RigidTransform(
        rotation_from_rotvec([0.04, -0.01, 0.008]), np.array([0.02, 0.10, -0.01])
    )
    return device, front_to_proj


def projector_correspondences(
    device, front_to_proj, planes=((0.0, 0.0, 1.0, 3.0), (0.3, 0.0, 1.0, 3.2), (0.0, 0.25, 1.0, 2.8)),
    per_plane=16, noise_sigma=0.0, rng=None,
):
    """Points on front-frame planes projected with an explicit pinhole model.

    Each plane is (a, b, c, d) with ax + by + cz = d in the front frame.
    """
    pixels, points, plane_ids = [], [], []
    grid = int(math.sqrt(per_plane))
    for plane_id, (a, b, c, d) in enumerate(planes):
        for i in range(grid):
            for j in range(grid):
                x = -0.6 + 1.2 * j / (grid - 1) + 0.013 * plane_id
                y = -0.4 + 0.8 * i / (grid - 1) - 0.007 * plane_id
                z = (d - a * x - b * y) / c
                p_front = np.array([x, y, z])
                p_proj = front_to_proj.apply(p_front)
                u = (device.fx * p_proj[0] + device.skew * p_proj[1]) / p_proj[2] + device.cx
                v = device.fy * p_proj[1] / p_proj[2] + device.cy
                pixel = np.array([u, v])
                if noise_sigma > 0:
                    p_front = p_front + rng.normal(0.0, noise_sigma, size=3)
                pixels.append(pixel)
                points.append(p_front)
                plane_ids.append(plane_id)
    return ProjectorCorrespondenceSet(
        np.array(pixels), np.array(points), np.array(plane_ids),
        width=device.width, height=device.height,
    )


class TestCalibrateProjector:
    def test_noiseless_round_trip(self):
        device, mount = projector_truth()
        corr = projector_correspondences(device, mount)
        est_device, est_mount, rms = calibrate_projector(corr)
        assert abs(est_device.fx - device.fx) / device.fx < 1e-8
        assert abs(est_device.fy - device.fy) / device.fy < 1e-8
        assert abs(est_device.cx - device.cx) < 1e-4
        assert abs(est_device.cy - device.cy) < 1e-4
        assert abs(est_device.skew) < 1e-4
        rot_err = rotation_to_axis_angle(est_mount.rotation.T @ mount.rotation)[1]
        assert rot_err < 1e-8
        assert np.linalg.norm(est_mount.translation - mount.translation) < 1e-8
        assert rms < 1e-8
        assert est_device.width == 1920 and est_device.height == 1080

    def test_skewed_intrinsics_recovered(self):
        device = PinholeDevice(
            fx=1500.0, fy=1480.0, cx=958.0, cy=544.0, width=1920, height=1080, skew=2.5
        )
        _, mount = projector_truth()
        corr = projector_correspondences(device, mount)
        est_device, _, rms = calibrate_projector(corr)
        assert abs(est_device.skew - 2.5) < 1e-5
        assert rms < 1e-7

    def test_dlt_alone_reprojects(self):
        # The linear solve is exact on noiseless data before any refinement.
        device, mount = projector_truth()
        corr = projector_correspondences(device, mount)
        m = _dlt_projection(corr.pixels, corr.points)
        ph = np.c_[corr.points, np.ones(len(corr))]
        proj = ph @ m.T
        uv = proj[:, :2] / proj[:, 2:3]
        assert np.abs(uv - corr.pixels).max() < 1e-6
        assert np.all(proj[:, 2] > 0)

    def test_refinement_never_worse_than_dlt(self):
        device, mount = projector_truth()
        rng = np.random.default_rng(11)
        corr = projector_correspondences(device, mount, noise_sigma=2e-3, rng=rng)
        m = _dlt_projection(corr.pixels, corr.points)
        ph = np.c_[corr.points, np.ones(len(corr))]
        proj = ph @ m.T
        uv = proj[:, :2] / proj[:, 2:3]
        dlt_rms = float(np.sqrt(np.mean(np.sum((uv - corr.pixels) ** 2, axis=1))))
        _, _, rms = calibrate_projector(corr)
        assert rms <= dlt_rms + 1e-12

    def test_noisy_recovery(self):
        device, mount = projector_truth()
        rng = np.random.default_rng(5)
        corr = projector_correspondences(device, mount, noise_sigma=1e-3, rng=rng)
        est_device, est_mount, rms = calibrate_projector(corr)
        assert abs(est_device.fx - device.fx) / device.fx < 0.01
        assert np.linalg.norm(est_mount.translation - mount.translation) < 0.02
        assert 0.05 < rms < 10.0

    def test_too_few_points(self):
        device, mount = projector_truth()
        corr = projector_correspondences(device, mount)
        small = ProjectorCorrespondenceSet(
            corr.pixels[:5], corr.points[:5], corr.plane_ids[:5],
            width=corr.width, height=corr.height,
        )
        with pytest.raises(UnderdeterminedError):
            calibrate_projector(small)

    def test_single_plane_rejected(self):
        device, mount = projector_truth()
        corr = projector_correspondences(device, mount, planes=((0.0, 0.0, 1.0, 3.0),))
        with pytest.raises(DegenerateConfigurationError):
            calibrate_projector(corr)

    def test_two_ids_same_plane_rejected(self):
        device, mount = projector_truth()
        corr = projector_correspondences(
            device, mount, planes=((0.0, 0.0, 1.0, 3.0), (0.0, 0.0, 1.0, 3.0))
        )
        with pytest.raises(DegenerateConfigurationError) as excinfo:
            calibrate_projector(corr)
        assert "coplanar" in str(excinfo.value)

    def test_parallel_planes_rejected(self):
        device, mount = projector_truth()
        corr = projector_correspondences(
            device, mount, planes=((0.0, 0.0, 1.0, 2.6), (0.0, 0.0, 1.0, 3.4))
        )
        with pytest.raises(DegenerateConfigurationError) as excinfo:
            calibrate_projector(corr)
        assert "parallel" in str(excinfo.value)


# -- full pipeline on synthesized sessions ------------------------------------


def calibration_scene():
    wall = Plane(
        point=[0.0, 0.0, 3.0], normal=[0.0, 0.0, -1.0], extent=(4.0, 3.0), surface_id="wall"
    )
    board = CheckerboardTarget(
        pose=RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.radians(8.0)),
            np.array([-0.30, -0.18, 2.4]),
        ),
        rows=6,
        cols=9,
        square_size=0.075,
    )
    return Scene(surfaces=(wall,), checkerboards=(board,))


class TestFullPipeline:
    def test_noiseless_round_trip(self):
        rig = default_rig()
        session = synthesize_session(rig, calibration_scene(), CalibrationProtocol())
        result = run_full_calibration(session)
        err = result.parameter_errors
        assert err is not None
        assert err["pan_axis_angle_rad"] < 1e-7
        assert err["tilt_axis_angle_rad"] < 1e-7
        assert err["rear_rotation_rad"] < 1e-7
        assert err["rear_translation_m"] < 1e-7
        assert err["proj_fx_rel"] < 1e-6
        assert err["proj_fy_rel"] < 1e-6
        assert err["proj_cx_rel"] < 1e-6
        assert err["proj_cy_rel"] < 1e-6
        assert err["proj_rotation_rad"] < 1e-6
        assert err["proj_translation_m"] < 1e-6
        assert result.residuals.axis_rms_m < 1e-9
        assert result.residuals.rear_rms_m < 1e-9
        assert result.residuals.proj_reproj_rms_px < 1e-5

    def test_noisy_errors_stay_small(self):
        rig = default_rig()
        protocol = CalibrationProtocol(
            corner_noise_sigma=5e-4, depth_noise_sigma=1e-3, seed=42
        )
        session = synthesize_session(rig, calibration_scene(), protocol=protocol)
        result = run_full_calibration(session)
        err = result.parameter_errors
        assert math.degrees(err["pan_axis_angle_rad"]) < 0.5
        assert math.degrees(err["tilt_axis_angle_rad"]) < 0.5
        assert err["proj_fx_rel"] < 0.02
        assert result.residuals.proj_reproj_rms_px > 1e-3

    def test_missing_stage_reports_stage_name(self):
        # An absent input and an empty one read alike.
        rig = default_rig()
        session = synthesize_session(rig, calibration_scene(), CalibrationProtocol())
        no_axis_records = ()
        no_correspondences = ProjectorCorrespondenceSet(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int), width=64, height=48
        )
        for field, value, stage, missing in (
            ("pan_observations", None, "pan axis", "pan observations"),
            ("pan_observations", no_axis_records, "pan axis", "pan observations"),
            ("tilt_observations", None, "tilt axis", "tilt observations"),
            ("tilt_observations", no_axis_records, "tilt axis", "tilt observations"),
            ("rear_registration", None, "rear registration", "rear registration record"),
            ("projector", None, "projector", "projector correspondences"),
            ("projector", no_correspondences, "projector", "projector correspondences"),
        ):
            broken = dataclasses.replace(session, **{field: value})
            with pytest.raises(StageError) as excinfo:
                run_full_calibration(broken)
            assert str(excinfo.value) == f"stage '{stage}' failed: session has no {missing}"
            assert excinfo.value.code == "stage"
            assert excinfo.value.__cause__ is None

    def test_stage_error_wraps_cause(self):
        session = synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol())
        broken = dataclasses.replace(session, pan_observations=session.pan_observations[:2])
        with pytest.raises(StageError) as excinfo:
            run_full_calibration(broken)
        assert str(excinfo.value).startswith("stage 'pan axis' failed: ")
        assert excinfo.value.code == "degenerate"
        assert isinstance(excinfo.value.__cause__, DegenerateConfigurationError)

    def test_correspondence_arrays_must_match_in_length(self):
        with pytest.raises(ValueError, match="equal length"):
            ProjectorCorrespondenceSet(
                np.zeros((4, 2)), np.zeros((3, 3)), np.zeros(4, dtype=int), width=64, height=48
            )
        with pytest.raises(ValueError, match="equal length"):
            ProjectorCorrespondenceSet(
                np.zeros((4, 2)), np.zeros((4, 3)), np.zeros(5, dtype=int), width=64, height=48
            )

    def test_rear_mounting_does_not_depend_on_the_sweeps(self):
        rig = default_rig()
        exact = synthesize_session(rig, calibration_scene(), CalibrationProtocol())
        noisy = synthesize_session(
            rig, calibration_scene(), CalibrationProtocol(corner_noise_sigma=1e-3, seed=7)
        )
        noisy = dataclasses.replace(noisy, rear_registration=exact.rear_registration)
        want = run_full_calibration(exact)
        got = run_full_calibration(noisy)
        assert not np.array_equal(got.pan_axis, want.pan_axis)
        assert np.array_equal(got.rear_to_front.as_matrix(), want.rear_to_front.as_matrix())
        assert got.residuals.rear_rms_m == want.residuals.rear_rms_m

    def test_no_ground_truth_no_errors_dict(self):
        session = dataclasses.replace(
            synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol()),
            ground_truth=None,
        )
        result = run_full_calibration(session)
        assert result.parameter_errors is None


class TestSessionSerialization:
    def test_session_round_trip(self, tmp_path):
        session = synthesize_session(
            default_rig(),
            calibration_scene(),
            protocol=CalibrationProtocol(corner_noise_sigma=1e-4, seed=3),
        )
        path = tmp_path / "session.json"
        save_session(session, path)
        loaded = load_session(path)

        for orig, back in (
            (session.pan_observations, loaded.pan_observations),
            (session.tilt_observations, loaded.tilt_observations),
        ):
            assert len(orig) == len(back)
            for a, b in zip(orig, back):
                assert abs(a.theta - b.theta) < 1e-12
                assert list(a.corners) == list(b.corners)
                pa = np.array(list(a.corners.values()))
                pb = np.array(list(b.corners.values()))
                assert np.abs(pa - pb).max() < 1e-12
        assert len(loaded.projector) == len(session.projector)
        assert loaded.projector.width == session.projector.width
        assert loaded.ground_truth is not None

        direct = run_full_calibration(session)
        reloaded = run_full_calibration(loaded)
        assert angle_between(direct.pan_axis, reloaded.pan_axis) < 1e-9
        assert (
            abs(direct.proj_device.fx - reloaded.proj_device.fx) / direct.proj_device.fx
            < 1e-9
        )

    def test_result_round_trip(self, tmp_path):
        session = synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol())
        result = run_full_calibration(session)
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert angle_between(result.pan_axis, loaded.pan_axis) < 1e-12
        assert angle_between(result.tilt_axis, loaded.tilt_axis) < 1e-12
        assert np.allclose(
            result.rear_to_front.as_matrix(), loaded.rear_to_front.as_matrix(), atol=1e-12
        )
        assert np.allclose(
            result.front_to_proj.as_matrix(), loaded.front_to_proj.as_matrix(), atol=1e-12
        )
        assert loaded.proj_device.fx == pytest.approx(result.proj_device.fx)
        assert loaded.residuals.proj_reproj_rms_px == pytest.approx(
            result.residuals.proj_reproj_rms_px
        )
        assert loaded.parameter_errors.keys() == result.parameter_errors.keys()

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(SchemaError):
            session_from_json(Fields({"schema_version": 99}))
        with pytest.raises(SchemaError):
            result_from_json(Fields({"schema_version": 99}))

    def test_short_axis_record_names_its_path(self):
        data = session_to_json(
            synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol())
        )
        del data["tilt_observations"][2]["corners"][3:]
        with pytest.raises(SchemaError, match=r"^tilt_observations\[2\]: each axis record needs"):
            session_from_json(Fields(data))

    def test_rejects_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_session(path)
        with pytest.raises(SchemaError):
            load_result(path)

    def test_session_json_is_sorted_and_versioned(self):
        session = synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol())
        data = session_to_json(session)
        assert data["schema_version"] == 1
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text) == data


class TestSynthesizeSession:
    def test_deterministic_given_seed(self):
        rig = default_rig()
        protocol = CalibrationProtocol(
            corner_noise_sigma=1e-3, depth_noise_sigma=1e-3, seed=12
        )
        s1 = synthesize_session(rig, calibration_scene(), protocol=protocol)
        s2 = synthesize_session(rig, calibration_scene(), protocol=protocol)
        assert session_to_json(s1) == session_to_json(s2)

    def test_seed_changes_noise(self):
        rig = default_rig()
        p1 = CalibrationProtocol(corner_noise_sigma=1e-3, seed=1)
        p2 = CalibrationProtocol(corner_noise_sigma=1e-3, seed=2)
        s1 = synthesize_session(rig, calibration_scene(), protocol=p1)
        s2 = synthesize_session(rig, calibration_scene(), protocol=p2)
        a = np.array(list(s1.pan_observations[0].corners.values()))
        b = np.array(list(s2.pan_observations[0].corners.values()))
        assert np.abs(a - b).max() > 1e-6

    def test_noiseless_matches_direct_observation(self):
        rig = default_rig()
        scene = calibration_scene()
        session = synthesize_session(rig, scene, CalibrationProtocol())
        board = scene.checkerboards[0]
        from procamsim.rig import rig_pose

        rec = session.pan_observations[0]
        pose = rig_pose(rig, PanTiltState(alpha=rec.theta))
        direct = board.observe(rig.front_device, pose.front_to_world, 0.0, np.random.default_rng(0))
        assert list(rec.corners) == list(direct)
        assert np.allclose(
            np.array(list(rec.corners.values())),
            np.array(list(direct.values())),
            atol=1e-15,
        )

    def test_projector_samples_span_three_planes(self):
        session = synthesize_session(default_rig(), calibration_scene(), CalibrationProtocol())
        ids = session.projector.plane_ids
        assert set(ids.tolist()) == {0, 1, 2}
        assert len(ids) >= 30

    def test_projector_points_are_front_frame_scene_hits(self):
        # Every synthesized point must lie on the wall once mapped to world.
        rig = default_rig()
        scene = calibration_scene()
        session = synthesize_session(rig, scene, CalibrationProtocol())
        protocol = CalibrationProtocol()
        from procamsim.rig import rig_pose

        for plane_id, (pan_deg, tilt_deg) in enumerate(protocol.projector_states_deg):
            state = PanTiltState(
                alpha=math.radians(pan_deg), beta=math.radians(tilt_deg)
            )
            pose = rig_pose(rig, state)
            pts = session.projector.points[session.projector.plane_ids == plane_id]
            world = pose.front_to_world.apply(pts)
            assert np.abs(world[:, 2] - 3.0).max() < 1e-9

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            CalibrationProtocol(projector_margin=0.6)
        with pytest.raises(ValueError):
            CalibrationProtocol(corner_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            CalibrationProtocol(projector_grid=(1, 4))

    def test_protocol_json_round_trip(self):
        protocol = CalibrationProtocol(
            pan_angles_deg=(-10.0, 0.0, 10.0),
            corner_noise_sigma=2e-4,
            seed=9,
        )
        back = CalibrationProtocol.from_json(Fields(dataclasses.asdict(protocol)))
        assert back == protocol

    def test_board_required(self):
        scene = Scene(
            surfaces=(
                Plane(point=[0, 0, 3], normal=[0, 0, -1], surface_id="wall"),
            ),
            checkerboards=(),
        )
        with pytest.raises(EmptyObservationError, match="no checkerboard"):
            synthesize_session(default_rig(), scene, CalibrationProtocol())

    def test_too_few_corners_in_view_is_an_empty_observation(self):
        # With 1.5 m squares, fewer corners than an axis record takes are in view.
        board = calibration_scene().checkerboards[0]
        board = CheckerboardTarget(board.pose, board.rows, board.cols, square_size=1.5)
        scene = dataclasses.replace(calibration_scene(), checkerboards=(board,))
        with pytest.raises(EmptyObservationError, match="corners seen"):
            synthesize_session(default_rig(), scene, CalibrationProtocol())

    def test_board_out_of_view_at_a_sweep_angle_names_the_motor_and_angle(self):
        protocol = CalibrationProtocol(pan_angles_deg=(-18.0, 0.0, 18.0, 80.0))
        with pytest.raises(EmptyObservationError) as excinfo:
            synthesize_session(default_rig(), calibration_scene(), protocol)
        assert excinfo.value.code == "empty-observation"
        assert str(excinfo.value) == "only 0 corners seen by the front camera at pan 80.0 deg"

    def test_rear_camera_that_sees_nothing_is_named(self):
        rig = default_rig()
        facing_back = RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.pi), rig.rear_to_front.translation
        )
        rig = dataclasses.replace(rig, rear_to_front=facing_back)
        with pytest.raises(EmptyObservationError, match="rear camera at the registration state"):
            synthesize_session(rig, calibration_scene(), CalibrationProtocol())
