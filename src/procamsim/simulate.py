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
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import (
    AxisObservationSet,
    AxisRecord,
    CalibrationSession,
    ProjectorCorrespondenceSet,
    RearRegistrationRecord,
)
from .errors import EmptyObservationError, Fields, check_pixel_budget
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
        if not all(0 <= s < math.inf for s in (self.corner_noise_sigma, self.depth_noise_sigma)):
            raise ValueError("noise sigmas must be non-negative and finite")
        if min(self.projector_grid) < 2:
            raise ValueError("projector_grid must be at least 2x2")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, r: Fields) -> "CalibrationProtocol":
        d = cls()

        def floats(key, shape):
            return r.array(key, shape, np.array(getattr(d, key))).tolist()

        protocol = cls(
            pan_angles_deg=tuple(floats("pan_angles_deg", (None,))),
            tilt_angles_deg=tuple(floats("tilt_angles_deg", (None,))),
            registration_pan_deg=r.number("registration_pan_deg", d.registration_pan_deg),
            registration_tilt_deg=r.number("registration_tilt_deg", d.registration_tilt_deg),
            projector_states_deg=tuple(map(tuple, floats("projector_states_deg", (None, 2)))),
            projector_grid=tuple(
                r.array("projector_grid", (2,), np.array(d.projector_grid), integer=True).tolist()
            ),
            projector_margin=r.number("projector_margin", d.projector_margin),
            corner_noise_sigma=r.number("corner_noise_sigma", d.corner_noise_sigma),
            depth_noise_sigma=r.number("depth_noise_sigma", d.depth_noise_sigma),
            seed=r.integer("seed", d.seed),
        )
        check_pixel_budget(*protocol.projector_grid, r.where("projector_grid"))
        return protocol


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
        if len(corners) < 4:  # the fewest an AxisRecord takes
            raise EmptyObservationError(f"only {len(corners)} corners seen at {which} {angle} deg")
        records.append(AxisRecord(theta=theta, corners=tuple(corners)))
    return AxisObservationSet(records=tuple(records))


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

    samples = []  # one (pixels, points, plane ids) triple per projector state
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
        samples.append((pixels[visible], measured, np.full(len(measured), plane_id)))

    if sum(len(ids) for _, _, ids in samples) < 6:
        raise EmptyObservationError(
            "projector sampling produced too few scene hits; "
            "check that the scene covers the projector's throw"
        )
    sample_pixels, points, plane_ids = (np.concatenate(column) for column in zip(*samples))
    return ProjectorCorrespondenceSet(
        sample_pixels, points, plane_ids, width=device.width, height=device.height
    )


def synthesize_session(
    rig: RigModel,
    scene: Scene,
    protocol: CalibrationProtocol,
) -> CalibrationSession:
    """Drive the rig through a protocol and collect a calibration session.

    The cameras observe the scene's first checkerboard, and the session
    carries the rig as its ground truth. Noise draws are taken from a
    generator seeded with ``protocol.seed`` in a fixed order, so equal
    inputs give byte-identical sessions.
    """
    if not scene.checkerboards:
        raise EmptyObservationError("scene has no checkerboard")
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
        ground_truth=rig,
    )
