"""Rotations, rigid transforms, pinhole projection, and point-set alignment.

Conventions used throughout the package:

* All frames are right-handed.
* Camera and projector frames put +z along the optical axis (forward),
  +x to the right and +y down, so the pixel v coordinate grows downward.
* Angles are radians internally; degrees appear only at file and CLI
  boundaries.
* ``RigidTransform`` maps points from a source frame into a target frame,
  ``p_target = R @ p_source + t``, and ``a @ b`` applies ``b`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, SchemaError

# Unit-axis inputs may deviate from unit norm by at most this much.
UNIT_AXIS_TOL = 1e-6


def as_vec3(value) -> np.ndarray:
    """Coerce to a float (3,) vector, raising ValueError on bad shape."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def normalized(value) -> np.ndarray:
    """Return ``value`` scaled to unit length."""
    v = as_vec3(value)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rotation matrix for angle ``theta`` about a unit ``axis``.

    Parameters
    ----------
    axis : array_like, shape (3,)
        Unit rotation axis. Its norm may deviate from 1 by at most 1e-6.
    theta : float
        Rotation angle in radians, positive in the right-hand sense.

    Returns
    -------
    ndarray, shape (3, 3)
        The rotation matrix, written out entry by entry.
    """
    a = as_vec3(axis)
    if abs(np.linalg.norm(a) - 1.0) > UNIT_AXIS_TOL:
        raise ValueError(f"axis must be unit length, got norm {np.linalg.norm(a)!r}")
    x, y, z = a
    c = math.cos(theta)
    s = math.sin(theta)
    t = 1.0 - c
    return np.array(
        [
            [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
        ]
    )


def rotation_to_axis_angle(matrix) -> tuple[np.ndarray, float]:
    """Decompose a proper rotation matrix into (unit axis, angle in radians).

    The matrix becomes a unit quaternion (x, y, z, w) by Shepperd's method,
    pivoting on the largest of the three diagonal entries and the trace,
    with w >= 0 so the angle lies in [0, pi]; a Taylor series keeps the
    axis-angle scale accurate for angles up to 1e-3. The order of the
    operations matters: the tests hold the result bit for bit to a
    reference rotation-vector routine, so encoded poses stay byte-identical.
    The identity maps to axis (1, 0, 0) with angle 0.
    """
    m = np.asarray(matrix, dtype=float).tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    pivot = int(np.argmax([m[0][0], m[1][1], m[2][2], trace]))
    if pivot == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        i, j, k = pivot, (pivot + 1) % 3, (pivot + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0:
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    rotvec = scale * np.array([x, y, z])
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0]), 0.0
    return rotvec / angle, angle


def rotation_from_rotvec(rotvec) -> np.ndarray:
    """Rotation matrix from an axis-times-angle vector."""
    v = as_vec3(rotvec)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.eye(3)
    return rotation_about_axis(v / angle, float(angle))


def to_homogeneous(points) -> np.ndarray:
    """Append a unit w coordinate: (..., 3) -> (..., 4)."""
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape[:-1] + (pts.shape[-1] + 1,))
    out[..., :-1] = pts
    out[..., -1] = 1.0
    return out


def from_homogeneous(points) -> np.ndarray:
    """Dehomogenize (..., 4) -> (..., 3) or (..., 3) -> (..., 2).

    Raises ValueError when any w is too close to zero (a direction).
    """
    pts = np.asarray(points, dtype=float)
    w = pts[..., -1:]
    if np.any(np.abs(w) < 1e-15):
        raise ValueError("cannot dehomogenize a point with w ~ 0")
    return pts[..., :-1] / w


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation mapping source-frame points to a target frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) batch."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def as_matrix(self) -> np.ndarray:
        """The equivalent 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def to_json(self) -> dict:
        """Encode as translation plus axis-angle rotation in degrees."""
        axis, angle = rotation_to_axis_angle(self.rotation)
        return {
            "translation": [float(v) for v in self.translation],
            "axis": [float(v) for v in axis],
            "angle_deg": math.degrees(angle),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RigidTransform":
        try:
            t = as_vec3(data["translation"])
            axis = as_vec3(data["axis"])
            angle = math.radians(float(data["angle_deg"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad rigid transform record: {exc}") from exc
        if angle == 0.0:
            return cls(np.eye(3), t)
        return cls(rotation_about_axis(normalized(axis), angle), t)


@dataclass(frozen=True)
class PinholeDevice:
    """Intrinsics of a camera or projector with the usual K matrix layout."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("resolution must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def contains(self, pixels) -> np.ndarray:
        """Bounds test for continuous pixel coordinates, (N, 2) or (2,)."""
        uv = np.asarray(pixels, dtype=float)
        u, v = uv[..., 0], uv[..., 1]
        return (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)

    def to_json(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "skew": self.skew,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PinholeDevice":
        try:
            return cls(
                fx=float(data["fx"]),
                fy=float(data["fy"]),
                cx=float(data["cx"]),
                cy=float(data["cy"]),
                width=int(data["width"]),
                height=int(data["height"]),
                skew=float(data.get("skew", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad pinhole device record: {exc}") from exc


def project_points(
    device: PinholeDevice, pose: RigidTransform, points
) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) source-frame points through ``pose`` into ``device`` pixels.

    Returns ``(uv (N, 2), depth (N,))``, where depth is the device-frame z.
    Rows whose depth is not positive (NaN included) hold NaN pixels, which
    ``PinholeDevice.contains`` rejects.
    """
    p = pose.apply(np.asarray(points, dtype=float).reshape(-1, 3))
    z = p[:, 2]
    with np.errstate(all="ignore"):
        u = (device.fx * p[:, 0] + device.skew * p[:, 1]) / z + device.cx
        v = device.fy * p[:, 1] / z + device.cy
    uv = np.stack([u, v], axis=1)
    uv[~(z > 0.0)] = np.nan
    return uv, z


def backproject_points(device: PinholeDevice, pixels, depths) -> np.ndarray:
    """Device-frame points whose projections are (N, 2) ``pixels`` at (N,) or scalar depths.

    With depth 1 the rows are the device-frame ray directions (z = 1) through
    the pixels.
    """
    uv = np.asarray(pixels, dtype=float).reshape(-1, 2)
    z = np.broadcast_to(np.asarray(depths, dtype=float).reshape(-1), len(uv))
    y = (uv[:, 1] - device.cy) * z / device.fy
    x = ((uv[:, 0] - device.cx) * z - device.skew * y) / device.fx
    return np.stack([x, y, z], axis=1)


def pixel_rays(device: PinholeDevice, device_to_world: RigidTransform, pixels) -> np.ndarray:
    """World-frame unit directions of the rays through (N, 2) device pixels."""
    dirs = backproject_points(device, pixels, 1.0) @ device_to_world.rotation.T
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def pixel_center_grid(width: int, height: int) -> np.ndarray:
    """Continuous coordinates of all pixel centers in row-major order, (H*W, 2)."""
    u, v = np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5)
    return np.stack([u.ravel(), v.ravel()], axis=1)


def rigid_align(source, target) -> tuple[RigidTransform, float]:
    """Least-squares rigid transform taking ``source`` points onto ``target``.

    Standard cross-covariance SVD solution with a reflection guard so the
    result is a proper rotation. Returns the transform and the RMS residual
    in the target frame.

    Raises DegenerateConfigurationError for fewer than 3 points or for
    (near-)collinear source points, where the rotation is not unique.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValueError(f"point sets differ in shape: {src.shape} vs {dst.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfigurationError(f"need at least 3 point pairs, got {n}")

    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    a = src - src_c
    b = dst - dst_c

    sv = np.linalg.svd(a, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1e-12):
        raise DegenerateConfigurationError("source points are collinear")

    h = a.T @ b
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = dst_c - rot @ src_c
    transform = RigidTransform(rot, t)
    residual = transform.apply(src) - dst
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return transform, rms
