"""User-perspective rendering: projecting world content onto a virtual screen.

The virtual screen is the z = 0 plane of the rear-camera frame, measured in
meters. Given an eye position e in that frame, a world point projects to
the screen at the intersection of the eye-to-point line with the plane.
That map is the 3x4 matrix

    [[-ez, 0, ex, 0],
     [0, -ez, ey, 0],
     [0,  0,  1, -ez]]

applied to homogeneous rear-frame points; its third coordinate is z - ez.
Points already on the screen plane are fixpoints of the map.

A viewport converts screen-plane meters to texture pixels. The default
window is 2.0 x 1.125 m centered on the rear-frame origin, a 16:9 patch
matching the default 1920x1080 content; the default eye sits at
(0, 0, -1.5) m, i.e. on the -z side with the content beyond the screen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EyeOnScreenPlaneError
from .geometry import RigidTransform, to_homogeneous

DEFAULT_WINDOW_M = (2.0, 1.125)
DEFAULT_EYE = (0.0, 0.0, -1.5)


@dataclass(frozen=True)
class EyePose:
    """Eye position in the rear-camera frame, meters."""

    x: float = DEFAULT_EYE[0]
    y: float = DEFAULT_EYE[1]
    z: float = DEFAULT_EYE[2]

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def user_projection_matrix(eye: EyePose) -> np.ndarray:
    """The 3x4 screen projection for an eye in the rear frame.

    Raises EyeOnScreenPlaneError when the eye lies on the screen plane
    (z = 0), where no projection exists.
    """
    ex, ey, ez = float(eye.x), float(eye.y), float(eye.z)
    if abs(ez) < 1e-12:
        raise EyeOnScreenPlaneError("eye z must be nonzero")
    return np.array(
        [
            [-ez, 0.0, ex, 0.0],
            [0.0, -ez, ey, 0.0],
            [0.0, 0.0, 1.0, -ez],
        ]
    )


@dataclass(frozen=True)
class UprMatrix:
    """Screen projection composed with a world-to-rear transform."""

    matrix: np.ndarray  # 3x4, applied to homogeneous world points
    world_to_rear: RigidTransform
    eye: EyePose

    def apply(self, points_world) -> tuple[np.ndarray, np.ndarray]:
        """Screen-plane coordinates (meters) and the scale w = z_rear - ez.

        Returns ``(xy (N, 2), w (N,))`` without filtering; callers decide
        what to do with non-positive or tiny w. Each point's result is the
        same, bit for bit, whatever other points come with it, so callers
        may split the points into blocks of any size.
        """
        pts = np.asarray(points_world, dtype=float).reshape(-1, 3)
        hom = to_homogeneous(pts)
        if len(hom) == 1:
            # numpy hands a single row to BLAS's matrix-vector kernel, whose
            # sums round differently from the matrix-matrix kernel every
            # larger batch takes; a second copy of the row keeps it on that.
            hom = np.repeat(hom, 2, axis=0)
        h = (hom @ self.matrix.T)[: len(pts)]
        w = h[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            xy = h[:, :2] / w[:, None]
        return xy, w

    def eye_world(self) -> np.ndarray:
        """The eye position expressed in the world frame."""
        return self.world_to_rear.inverse().apply(self.eye.as_array())

    def screen_rays(self, xy_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-frame eye and unnormalized vectors from it to (N, 2) screen points (m)."""
        screen_world = self.world_to_rear.inverse().apply(np.c_[xy_m, np.zeros(len(xy_m))])
        eye_world = self.eye_world()
        return eye_world, screen_world - eye_world


def upr_matrix(eye: EyePose, world_to_rear: RigidTransform) -> UprMatrix:
    """Compose the eye's screen projection with a world-to-rear transform."""
    return UprMatrix(
        matrix=user_projection_matrix(eye) @ world_to_rear.as_matrix(),
        world_to_rear=world_to_rear,
        eye=eye,
    )


@dataclass(frozen=True)
class Viewport:
    """Mapping between screen-plane meters and texture pixels.

    The window is centered on the rear-frame origin; +x maps to +u and the
    rear frame's downward +y maps to +v, so no axis flip is needed.
    """

    width_px: int
    height_px: int
    width_m: float = DEFAULT_WINDOW_M[0]
    height_m: float = DEFAULT_WINDOW_M[1]

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("viewport resolution must be positive")
        if not (self.width_m > 0 and self.height_m > 0):
            raise ValueError("viewport window must have positive size")

    def to_pixels(self, xy_m) -> np.ndarray:
        """(..., 2) screen-plane meters to pixels: (x / width_m + 0.5) * width_px."""
        xy = np.asarray(xy_m, dtype=float)
        return (xy / (self.width_m, self.height_m) + 0.5) * (self.width_px, self.height_px)

    def to_plane(self, uv_px) -> np.ndarray:
        uv = np.asarray(uv_px, dtype=float)
        x = (uv[..., 0] / self.width_px - 0.5) * self.width_m
        y = (uv[..., 1] / self.height_px - 0.5) * self.height_m
        return np.stack([x, y], axis=-1)
