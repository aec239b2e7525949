"""Rigs and a depth model shared by the tests; the CLI loads its config's rig file instead."""

import math

import numpy as np

from procamsim.geometry import PinholeDevice, RigidTransform, normalized, rotation_about_axis
from procamsim.rig import RigModel
from procamsim.scene import DepthNoiseModel

# Noise-free depth sensing with dropout only at exactly grazing incidence.
EXACT_DEPTH = DepthNoiseModel(sigma=0.0, gamma_full_dropout=0.0, gamma_no_dropout=1e-9)


def default_rig() -> RigModel:
    """A plausible synthetic rig.

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
