"""Pan/tilt platform kinematics and simulated checkerboard observation.

The platform carries a front RGB-D camera, a rear camera and a projector.
Both motor axes are fixed unit directions in the world frame and both
rotations pass through the world origin, so a platform point p seen in the
front-camera frame maps to the world as ``R_tilt(beta) @ R_pan(alpha) @ p``.
At the home state (alpha = beta = 0) the front camera frame coincides with
the world frame.

Rig files are JSON with ``schema_version`` 1 holding the axes, the two
mounting transforms and the three device intrinsics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyObservationError,
    LimitError,
    SchemaError,
    check_schema_version,
    load_json,
    save_json,
)
from .geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    project_points,
    rotation_about_axis,
)
from .scene import CheckerboardTarget


@dataclass(frozen=True)
class PanTiltState:
    """Motor angles in radians: ``alpha`` is pan, ``beta`` is tilt."""

    alpha: float = 0.0
    beta: float = 0.0

    @classmethod
    def home(cls) -> "PanTiltState":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class RigModel:
    """Geometry of the steerable rig.

    ``rear_to_front`` maps rear-camera coordinates into the front-camera
    frame (the rear mounting at home). ``front_to_proj`` maps front-camera
    coordinates into the projector frame, matching the direction in which
    projector calibration estimates it.
    """

    pan_axis: np.ndarray
    tilt_axis: np.ndarray
    rear_to_front: RigidTransform
    front_to_proj: RigidTransform
    front_device: PinholeDevice
    rear_device: PinholeDevice
    proj_device: PinholeDevice
    pan_limit: float = math.pi / 2
    tilt_limit: float = math.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "pan_axis", normalized(self.pan_axis))
        object.__setattr__(self, "tilt_axis", normalized(self.tilt_axis))
        if not (self.pan_limit > 0 and self.tilt_limit > 0):
            raise ValueError("motor limits must be positive")

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "pan_axis": self.pan_axis.tolist(),
            "tilt_axis": self.tilt_axis.tolist(),
            "rear_to_front": self.rear_to_front.to_json(),
            "front_to_proj": self.front_to_proj.to_json(),
            "devices": {
                "front": self.front_device.to_json(),
                "rear": self.rear_device.to_json(),
                "projector": self.proj_device.to_json(),
            },
            "pan_limit_deg": math.degrees(self.pan_limit),
            "tilt_limit_deg": math.degrees(self.tilt_limit),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RigModel":
        check_schema_version(data, "rig")
        try:
            devices = data["devices"]
            return cls(
                pan_axis=np.asarray(data["pan_axis"], dtype=float),
                tilt_axis=np.asarray(data["tilt_axis"], dtype=float),
                rear_to_front=RigidTransform.from_json(data["rear_to_front"]),
                front_to_proj=RigidTransform.from_json(data["front_to_proj"]),
                front_device=PinholeDevice.from_json(devices["front"]),
                rear_device=PinholeDevice.from_json(devices["rear"]),
                proj_device=PinholeDevice.from_json(devices["projector"]),
                pan_limit=math.radians(float(data.get("pan_limit_deg", 90.0))),
                tilt_limit=math.radians(float(data.get("tilt_limit_deg", 90.0))),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad rig record: {exc}") from exc


@dataclass(frozen=True)
class RigPose:
    """World poses of all three devices at one pan/tilt state."""

    front_to_world: RigidTransform
    rear_to_world: RigidTransform
    proj_to_world: RigidTransform


def platform_rotation(pan_axis, tilt_axis, state: PanTiltState) -> np.ndarray:
    """The platform rotation ``R_tilt(beta) @ R_pan(alpha)`` about unit axes.

    No limit check: the axes may be estimates with no rig behind them.
    """
    return rotation_about_axis(tilt_axis, state.beta) @ rotation_about_axis(
        pan_axis, state.alpha
    )


def pan_tilt_rotation(model: RigModel, state: PanTiltState) -> np.ndarray:
    """The rig's platform rotation at ``state``.

    Raises LimitError when a motor angle exceeds its configured limit.
    """
    if not abs(state.alpha) <= model.pan_limit:
        raise LimitError(
            f"pan angle {state.alpha:.4f} rad exceeds limit {model.pan_limit:.4f}"
        )
    if not abs(state.beta) <= model.tilt_limit:
        raise LimitError(
            f"tilt angle {state.beta:.4f} rad exceeds limit {model.tilt_limit:.4f}"
        )
    return platform_rotation(model.pan_axis, model.tilt_axis, state)


def rig_pose(model: RigModel, state: PanTiltState) -> RigPose:
    """World poses of the front camera, rear camera and projector."""
    front_to_world = RigidTransform(pan_tilt_rotation(model, state), np.zeros(3))
    return RigPose(
        front_to_world=front_to_world,
        rear_to_world=front_to_world @ model.rear_to_front,
        proj_to_world=front_to_world @ model.front_to_proj.inverse(),
    )


def observe_checkerboard(
    target: CheckerboardTarget,
    model: RigModel,
    state: PanTiltState,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    camera: str = "front",
) -> list[tuple[int, np.ndarray]]:
    """Corner positions of ``target`` in a rig camera's frame.

    Corners outside the camera frustum are omitted; isotropic Gaussian noise
    of ``noise_sigma`` meters is added to the kept 3-D positions. Returns
    ``(corner_index, point)`` pairs; raises EmptyObservationError when no
    corner is visible. Observation is analytic and ignores occlusion.
    """
    pose = rig_pose(model, state)
    if camera == "front":
        cam_to_world, device = pose.front_to_world, model.front_device
    elif camera == "rear":
        cam_to_world, device = pose.rear_to_world, model.rear_device
    else:
        raise ValueError(f"camera must be 'front' or 'rear', got {camera!r}")

    corners_cam = cam_to_world.inverse().apply(target.corners_world())
    uv, _ = project_points(device, RigidTransform.identity(), corners_cam)
    visible = device.contains(uv)
    if not visible.any():
        raise EmptyObservationError(
            f"no checkerboard corner visible in the {camera} camera"
        )
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        corners_cam = corners_cam + rng.normal(0.0, noise_sigma, size=corners_cam.shape)
    return [(int(i), corners_cam[i]) for i in np.flatnonzero(visible)]


def default_rig() -> RigModel:
    """A plausible synthetic rig used by the CLI defaults and tests.

    The motor axes are deliberately a few degrees off the ideal y and x
    directions. The rear frame is mounted parallel to the front camera and
    slightly offset; it only anchors the virtual screen and the eye
    coordinates, so its physical viewing direction is irrelevant here.
    """
    # Projector mounted 10 cm above the front camera, pitched 2.5 degrees
    # down so the frusta converge a couple of meters out.
    proj_to_front = RigidTransform(
        rotation_about_axis(normalized([1.0, 0.05, 0.0]), math.radians(2.5)),
        np.array([-0.02, -0.10, 0.01]),
    )
    return RigModel(
        pan_axis=normalized([0.02, 0.999, -0.015]),
        tilt_axis=normalized([0.9995, 0.02, 0.018]),
        rear_to_front=RigidTransform(np.eye(3), np.array([0.05, -0.12, -0.04])),
        front_to_proj=proj_to_front.inverse(),
        front_device=PinholeDevice(
            fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480
        ),
        rear_device=PinholeDevice(
            fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480
        ),
        proj_device=PinholeDevice(
            fx=1500.0, fy=1500.0, cx=960.0, cy=540.0, width=1920, height=1080
        ),
    )


def load_rig(path) -> RigModel:
    return load_json(path, RigModel.from_json)


def save_rig(model: RigModel, path) -> None:
    save_json(path, model.to_json())
