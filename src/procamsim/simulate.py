"""Synthesize calibration sessions from a virtual rig and scene.

A calibration protocol describes the motor schedule and noise levels; the
synthesizer drives the rig model through it, observing a checkerboard with
both cameras and casting projector rays into the scene, and packages the
measurements as a calibration session. With zero noise the session is exact,
so the calibration pipeline can be validated as a round trip; with noise the
draws are fully determined by the protocol seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import (
    AxisObservationSet,
    AxisRecord,
    CalibrationSession,
    ProjectorCorrespondence,
    ProjectorCorrespondenceSet,
    RearRegistrationRecord,
)
from .errors import EmptyObservationError
from .geometry import backproject_points, pixel_rays, project_points
from .rig import PanTiltState, RigModel, observe_checkerboard, rig_pose
from .scene import CheckerboardTarget, Scene, hit_points


@dataclass(frozen=True)
class CalibrationProtocol:
    """Motor schedule and noise levels for synthesizing a session.

    Angles are degrees. ``projector_grid`` is the (columns, rows) count of
    the projected sample pixels, spread over the projector image with a
    fractional ``projector_margin`` on every side. ``corner_noise_sigma``
    is meters of isotropic noise on triangulated corner positions;
    ``depth_noise_sigma`` is meters of noise applied along the front
    camera's viewing direction to projector-ray hits before backprojection.
    """

    pan_angles_deg: tuple = (-18.0, -12.0, -6.0, 0.0, 6.0, 12.0, 18.0)
    tilt_angles_deg: tuple = (-18.0, -12.0, -6.0, 0.0, 6.0, 12.0, 18.0)
    registration_pan_deg: float = 15.0
    registration_tilt_deg: float = 10.0
    projector_states_deg: tuple = ((0.0, 0.0), (15.0, 0.0), (0.0, 12.0))
    projector_grid: tuple = (6, 4)
    projector_margin: float = 0.15
    corner_noise_sigma: float = 0.0
    depth_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.projector_margin < 0.5:
            raise ValueError("projector_margin must be in [0, 0.5)")
        if not (self.corner_noise_sigma >= 0 and self.depth_noise_sigma >= 0):
            raise ValueError("noise sigmas must be non-negative")
        if min(self.projector_grid) < 2:
            raise ValueError("projector_grid must be at least 2x2")

    def to_json(self) -> dict:
        return {
            "pan_angles_deg": list(self.pan_angles_deg),
            "tilt_angles_deg": list(self.tilt_angles_deg),
            "registration_pan_deg": self.registration_pan_deg,
            "registration_tilt_deg": self.registration_tilt_deg,
            "projector_states_deg": [list(s) for s in self.projector_states_deg],
            "projector_grid": list(self.projector_grid),
            "projector_margin": self.projector_margin,
            "corner_noise_sigma": self.corner_noise_sigma,
            "depth_noise_sigma": self.depth_noise_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationProtocol":
        kwargs = {}
        for key in (
            "registration_pan_deg",
            "registration_tilt_deg",
            "projector_margin",
            "corner_noise_sigma",
            "depth_noise_sigma",
        ):
            if key in data:
                kwargs[key] = float(data[key])
        if "pan_angles_deg" in data:
            kwargs["pan_angles_deg"] = tuple(float(a) for a in data["pan_angles_deg"])
        if "tilt_angles_deg" in data:
            kwargs["tilt_angles_deg"] = tuple(float(a) for a in data["tilt_angles_deg"])
        if "projector_states_deg" in data:
            kwargs["projector_states_deg"] = tuple(
                (float(s[0]), float(s[1])) for s in data["projector_states_deg"]
            )
        if "projector_grid" in data:
            kwargs["projector_grid"] = tuple(int(v) for v in data["projector_grid"])
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        return cls(**kwargs)


def _axis_sweep(
    board: CheckerboardTarget,
    rig: RigModel,
    angles_deg,
    which: str,
    sigma: float,
    rng,
) -> AxisObservationSet:
    records = []
    for angle in angles_deg:
        theta = math.radians(angle)
        state = (
            PanTiltState(alpha=theta) if which == "pan" else PanTiltState(beta=theta)
        )
        corners = observe_checkerboard(board, rig, state, noise_sigma=sigma, rng=rng)
        records.append(AxisRecord(theta=theta, corners=tuple(corners)))
    return AxisObservationSet(axis_name=which, records=tuple(records))


def _projector_samples(
    rig: RigModel, scene: Scene, protocol: CalibrationProtocol, rng
) -> ProjectorCorrespondenceSet:
    device = rig.proj_device
    nx, ny = protocol.projector_grid
    margin = protocol.projector_margin
    us = np.linspace(margin * device.width, (1.0 - margin) * device.width, nx)
    vs = np.linspace(margin * device.height, (1.0 - margin) * device.height, ny)
    pixels = np.stack(np.meshgrid(us, vs, indexing="xy"), axis=-1).reshape(-1, 2)
    front = rig.front_device

    records = []
    for plane_id, (pan_deg, tilt_deg) in enumerate(protocol.projector_states_deg):
        state = PanTiltState(
            alpha=math.radians(pan_deg), beta=math.radians(tilt_deg)
        )
        pose = rig_pose(rig, state)
        origin = pose.proj_to_world.translation
        dirs_world = pixel_rays(device, pose.proj_to_world, pixels)
        t, _, _ = scene.intersect(origin, dirs_world)
        hit = np.isfinite(t)
        if not np.any(hit):
            continue
        points_world = hit_points(origin, dirs_world, t)
        uv, z = project_points(front, pose.front_to_world.inverse(), points_world)
        visible = hit & front.contains(uv)
        if protocol.depth_noise_sigma > 0:
            z = z + rng.normal(0.0, protocol.depth_noise_sigma, size=z.shape)
            visible &= z > 0
        if not np.any(visible):
            continue
        measured = backproject_points(front, uv[visible], z[visible])
        for pix, pt in zip(pixels[visible], measured):
            records.append(
                ProjectorCorrespondence(pixel=pix, point=pt, plane_id=plane_id)
            )

    if len(records) < 6:
        raise EmptyObservationError(
            "projector sampling produced too few scene hits; "
            "check that the scene covers the projector's throw"
        )
    return ProjectorCorrespondenceSet(
        records=tuple(records), width=device.width, height=device.height
    )


def synthesize_session(
    rig: RigModel,
    scene: Scene,
    board: CheckerboardTarget | None = None,
    protocol: CalibrationProtocol | None = None,
    include_ground_truth: bool = True,
) -> CalibrationSession:
    """Drive the rig through a protocol and collect a calibration session.

    The checkerboard defaults to the scene's first one. Noise draws are
    taken from a generator seeded with ``protocol.seed`` in a fixed order,
    so equal inputs give byte-identical sessions.
    """
    if protocol is None:
        protocol = CalibrationProtocol()
    if board is None:
        if not scene.checkerboards:
            raise ValueError("scene has no checkerboard and none was supplied")
        board = scene.checkerboards[0]
    rng = np.random.default_rng(protocol.seed)
    sigma = protocol.corner_noise_sigma

    pan_obs = _axis_sweep(board, rig, protocol.pan_angles_deg, "pan", sigma, rng)
    tilt_obs = _axis_sweep(board, rig, protocol.tilt_angles_deg, "tilt", sigma, rng)

    reg_state = PanTiltState(
        alpha=math.radians(protocol.registration_pan_deg),
        beta=math.radians(protocol.registration_tilt_deg),
    )
    front_corners = observe_checkerboard(
        board, rig, reg_state, noise_sigma=sigma, rng=rng, camera="front"
    )
    rear_corners = observe_checkerboard(
        board, rig, reg_state, noise_sigma=sigma, rng=rng, camera="rear"
    )
    registration = RearRegistrationRecord(
        state=reg_state,
        front_corners=tuple(front_corners),
        rear_corners=tuple(rear_corners),
    )

    projector = _projector_samples(rig, scene, protocol, rng)

    return CalibrationSession(
        pan_observations=pan_obs,
        tilt_observations=tilt_obs,
        rear_registration=registration,
        projector=projector,
        ground_truth=rig if include_ground_truth else None,
    )
