"""Pan/tilt platform kinematics and the rig file.

The platform carries a front RGB-D camera, a rear camera and a projector.
Both motor axes are fixed unit directions in the world frame and both
rotations pass through the world origin, so a platform point p seen in the
front-camera frame maps to the world as ``R_tilt(beta) @ R_pan(alpha) @ p``.
At the home state (alpha = beta = 0) the front camera frame coincides with
the world frame. ``rig_pose`` gives each device's world pose at a state,
the pose at which a device observes the scene.

Rig files are JSON with ``schema_version`` 1 holding the axes, the two
mounting transforms and the three device intrinsics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Fields, LimitError, decoder, load_json, save_json
from .geometry import PinholeDevice, RigidTransform, normalized, rotation_about_axis


@dataclass(frozen=True)
class PanTiltState:
    """Motor angles in radians: ``alpha`` is pan, ``beta`` is tilt."""

    alpha: float = 0.0
    beta: float = 0.0


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
        if not (0 < self.pan_limit < math.inf and 0 < self.tilt_limit < math.inf):
            raise ValueError("motor limits must be positive and finite")

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
    @decoder
    def from_json(cls, r: Fields) -> "RigModel":
        r.check_version("rig")
        devices = r.obj("devices")
        return cls(
            pan_axis=r.array("pan_axis", (3,)),
            tilt_axis=r.array("tilt_axis", (3,)),
            rear_to_front=RigidTransform.from_json(r.obj("rear_to_front")),
            front_to_proj=RigidTransform.from_json(r.obj("front_to_proj")),
            front_device=PinholeDevice.from_json(devices.obj("front")),
            rear_device=PinholeDevice.from_json(devices.obj("rear")),
            proj_device=PinholeDevice.from_json(devices.obj("projector")),
            pan_limit=math.radians(r.number("pan_limit_deg", 90.0)),
            tilt_limit=math.radians(r.number("tilt_limit_deg", 90.0)),
        )


@dataclass(frozen=True)
class RigPose:
    """World poses of all three devices at one pan/tilt state."""

    front_to_world: RigidTransform
    rear_to_world: RigidTransform
    proj_to_world: RigidTransform

    @classmethod
    def compose(cls, front_rotation, rear_to_front, front_to_proj) -> "RigPose":
        """Device poses from a platform rotation and the two device mountings."""
        front_to_world = RigidTransform(front_rotation, np.zeros(3))
        return cls(
            front_to_world=front_to_world,
            rear_to_world=front_to_world @ rear_to_front,
            proj_to_world=front_to_world @ front_to_proj.inverse(),
        )


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
    return RigPose.compose(
        pan_tilt_rotation(model, state), model.rear_to_front, model.front_to_proj
    )


def load_rig(path) -> RigModel:
    return load_json(path, RigModel.from_json)


def save_rig(model: RigModel, path) -> None:
    save_json(path, model.to_json())
