"""Three-step rig calibration from synthetic (or recorded) observations.

The pipeline recovers, in order:

1. The pan and tilt axes, from checkerboard corners tracked in the front
   camera while one motor sweeps. Each corner's trajectory lies on a circle
   in a plane perpendicular to the axis; plane normals initialize the axis
   and a damped Gauss-Newton refinement over its two spherical degrees of
   freedom minimizes the spread of the motor-compensated world points.
2. The rear camera mounting, by rigidly aligning rear-frame corners to the
   world positions implied by the front camera and the estimated axes.
3. The projector intrinsics and its mounting relative to the front camera,
   from projected-pixel / front-frame-point correspondences via a
   normalized DLT, an RQ decomposition and a reprojection refinement.

Calibration sessions and results are JSON files with ``schema_version`` 1;
angles are degrees in files and radians in memory, lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    DecompositionError,
    DegenerateConfigurationError,
    SchemaError,
    StageError,
    UnderdeterminedError,
    check_schema_version,
    load_json,
    save_json,
)
from .geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    rigid_align,
    rotation_about_axis,
    rotation_from_rotvec,
    rotation_to_axis_angle,
)
from .rig import PanTiltState, RigModel, platform_rotation

# Iterative refinement stops on a step norm below STEP_TOL, a relative cost
# drop below COST_TOL, or after MAX_ITERATIONS.
MAX_ITERATIONS = 100
STEP_TOL = 1e-10
COST_TOL = 1e-12


# -- Observation containers --------------------------------------------------


@dataclass(frozen=True)
class AxisRecord:
    """Corners seen in the front camera at one motor angle (radians)."""

    theta: float
    corners: tuple

    def __post_init__(self):
        corners = tuple((int(i), np.asarray(p, dtype=float)) for i, p in self.corners)
        if len(corners) < 4:
            raise ValueError("each axis record needs at least 4 corners")
        object.__setattr__(self, "corners", corners)


@dataclass(frozen=True)
class AxisObservationSet:
    """Sweep of one motor; the other motor is held at zero."""

    axis_name: str  # "pan" or "tilt"
    records: tuple

    def __post_init__(self):
        if self.axis_name not in ("pan", "tilt"):
            raise ValueError(f"axis_name must be 'pan' or 'tilt', got {self.axis_name!r}")
        object.__setattr__(self, "records", tuple(self.records))

    def common_corner_indices(self) -> list[int]:
        if not self.records:
            return []
        common = set(i for i, _ in self.records[0].corners)
        for rec in self.records[1:]:
            common &= set(i for i, _ in rec.corners)
        return sorted(common)


@dataclass(frozen=True)
class RearRegistrationRecord:
    """Front and rear corner observations of one board at one state."""

    state: PanTiltState
    front_corners: tuple
    rear_corners: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "front_corners",
            tuple((int(i), np.asarray(p, dtype=float)) for i, p in self.front_corners),
        )
        object.__setattr__(
            self,
            "rear_corners",
            tuple((int(i), np.asarray(p, dtype=float)) for i, p in self.rear_corners),
        )


@dataclass(frozen=True)
class ProjectorCorrespondence:
    pixel: np.ndarray  # projector pixel (u, v)
    point: np.ndarray  # front-frame 3-D point, meters
    plane_id: int

    def __post_init__(self):
        object.__setattr__(self, "pixel", np.asarray(self.pixel, dtype=float))
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))


@dataclass(frozen=True)
class ProjectorCorrespondenceSet:
    records: tuple
    width: int  # projector resolution, needed for the resulting device
    height: int

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.width <= 0 or self.height <= 0:
            raise ValueError("projector resolution must be positive")

    def pixels(self) -> np.ndarray:
        return np.array([r.pixel for r in self.records]).reshape(-1, 2)

    def points(self) -> np.ndarray:
        return np.array([r.point for r in self.records]).reshape(-1, 3)

    def plane_ids(self) -> np.ndarray:
        return np.array([r.plane_id for r in self.records], dtype=np.int64)


@dataclass(frozen=True)
class CalibrationSession:
    pan_observations: AxisObservationSet | None = None
    tilt_observations: AxisObservationSet | None = None
    rear_registration: RearRegistrationRecord | None = None
    projector: ProjectorCorrespondenceSet | None = None
    ground_truth: RigModel | None = None


@dataclass(frozen=True)
class Residuals:
    axis_rms_m: float
    rear_rms_m: float
    proj_reproj_rms_px: float


@dataclass(frozen=True)
class CalibrationResult:
    pan_axis: np.ndarray
    tilt_axis: np.ndarray
    rear_to_front: RigidTransform
    proj_device: PinholeDevice
    front_to_proj: RigidTransform
    residuals: Residuals
    parameter_errors: dict | None = None


# -- Damped Gauss-Newton refinement ------------------------------------------


def _numeric_jacobian(fn, x: np.ndarray, r0: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = eps * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        jac[:, i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return jac


def _levenberg_marquardt(
    residual_fn,
    x0,
    max_iter: int = MAX_ITERATIONS,
    step_tol: float = STEP_TOL,
    cost_tol: float = COST_TOL,
) -> tuple[np.ndarray, float, bool]:
    """Minimize ||residual_fn(x)||^2; returns (x, cost, converged).

    Steps are accepted only when they lower the cost, so the refined cost
    never exceeds the initial one.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    cost = float(r @ r)
    lam = 1e-3
    converged = cost < 1e-28
    for _ in range(max_iter):
        if converged:
            break
        jac = _numeric_jacobian(residual_fn, x, r)
        g = jac.T @ r
        jtj = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * scale, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = residual_fn(x + step)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # No descent direction within numeric precision: a minimum.
            converged = True
            break
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        x = x + step
        r, cost = r_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        if np.linalg.norm(step) < step_tol or rel_drop < cost_tol or cost < 1e-28:
            converged = True
    return x, cost, converged


# -- Step 1: motor axis estimation -------------------------------------------


def _axis_chart(base_axis: np.ndarray):
    """Two-parameter unit-sphere chart centered on ``base_axis``."""
    zhat = np.array([0.0, 0.0, 1.0])
    cross = np.cross(zhat, base_axis)
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        frame = np.eye(3) if base_axis[2] > 0 else rotation_about_axis([1.0, 0.0, 0.0], math.pi)
    else:
        angle = math.atan2(norm, float(zhat @ base_axis))
        frame = rotation_about_axis(cross / norm, angle)

    def chart(params: np.ndarray) -> np.ndarray:
        v = np.array([params[0], params[1], 1.0])
        return frame @ (v / np.linalg.norm(v))

    return chart


def _axis_cost_points(axis, thetas, trajectories):
    """Motor-compensated world points, shape (K, I, 3)."""
    compensated = np.empty_like(trajectories)
    for k, theta in enumerate(thetas):
        compensated[k] = trajectories[k] @ rotation_about_axis(axis, theta).T
    return compensated


def _axis_residuals(axis, thetas, trajectories) -> np.ndarray:
    comp = _axis_cost_points(axis, thetas, trajectories)
    return (comp - comp.mean(axis=0, keepdims=True)).ravel()


def estimate_axis(observations: AxisObservationSet) -> tuple[np.ndarray, float]:
    """Recover one motor's unit axis from a checkerboard sweep.

    Returns the axis and the RMS distance (meters) of the motor-compensated
    corner positions from their per-corner means. The axis sign is chosen so
    positive angles follow the right-hand rule around it, i.e. the sign that
    actually explains the recorded motion.
    """
    records = observations.records
    thetas = np.array([rec.theta for rec in records], dtype=float)
    if len(np.unique(np.round(thetas, 12))) < 3:
        raise DegenerateConfigurationError("need at least 3 distinct motor angles")
    common = observations.common_corner_indices()
    if not common:
        raise DegenerateConfigurationError("no corner is visible at every angle")

    by_index = [dict(rec.corners) for rec in records]
    trajectories = np.array([[obs[i] for i in common] for obs in by_index])  # (K, I, 3)

    scale = 1.0 + float(np.linalg.norm(trajectories.mean(axis=(0, 1))))
    spread = np.linalg.norm(
        trajectories - trajectories.mean(axis=0, keepdims=True), axis=2
    ).max()
    if spread < 1e-9 * scale:
        raise DegenerateConfigurationError(
            "corner trajectories do not move; corners may lie on the axis"
        )

    # Initialization: every trajectory lies in a plane perpendicular to the
    # axis, so average the per-corner plane normals.
    normals = []
    for i in range(trajectories.shape[1]):
        traj = trajectories[:, i, :]
        centered = traj - traj.mean(axis=0)
        _, sv, vt = np.linalg.svd(centered, full_matrices=True)
        if sv[1] < 1e-12 * scale:
            continue  # this corner barely moved; its plane is undefined
        normals.append(vt[2])
    if not normals:
        raise DegenerateConfigurationError("all corner trajectories are degenerate")
    normals = np.array(normals)
    signs = np.sign(normals @ normals[0])
    signs[signs == 0] = 1.0
    init = normalized((normals * signs[:, None]).sum(axis=0))

    def cost_of(axis):
        r = _axis_residuals(axis, thetas, trajectories)
        return float(r @ r)

    if cost_of(-init) < cost_of(init):
        init = -init

    chart = _axis_chart(init)

    def residual_fn(params):
        return _axis_residuals(chart(params), thetas, trajectories)

    params, cost, converged = _levenberg_marquardt(residual_fn, np.zeros(2))
    axis = chart(params)
    if not converged:
        raise ConvergenceError(
            f"axis refinement did not converge within {MAX_ITERATIONS} iterations"
        )
    rms = math.sqrt(cost / (trajectories.shape[0] * trajectories.shape[1]))
    return axis, rms


# -- Step 2: rear camera registration ----------------------------------------


def register_rear_camera(
    front_world_corners,
    rear_corners,
    state: PanTiltState,
    pan_axis,
    tilt_axis,
) -> tuple[RigidTransform, float]:
    """Recover the rear camera mounting from matched corner positions.

    ``front_world_corners`` are world-frame corner positions derived from
    the front camera at ``state``; ``rear_corners`` are the same corners in
    the rear-camera frame, in matching order. Aligning rear points to the
    world gives the rear camera's world pose at that state; removing the
    platform rotation leaves the home-state mounting.
    """
    world = np.asarray(front_world_corners, dtype=float).reshape(-1, 3)
    rear = np.asarray(rear_corners, dtype=float).reshape(-1, 3)
    if world.shape != rear.shape:
        raise ValueError("corner lists must match in length")
    rear_to_world, rms = rigid_align(rear, world)
    platform = platform_rotation(normalized(pan_axis), normalized(tilt_axis), state)
    unrotate = RigidTransform(platform.T, np.zeros(3))
    return unrotate @ rear_to_world, rms


# -- Step 3: projector calibration -------------------------------------------


def _normalization_2d(points: np.ndarray) -> np.ndarray:
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    s = math.sqrt(2.0) / max(dist, 1e-12)
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _normalization_3d(points: np.ndarray) -> np.ndarray:
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    s = math.sqrt(3.0) / max(dist, 1e-12)
    t = np.eye(4) * s
    t[3, 3] = 1.0
    t[:3, 3] = -s * centroid
    return t


def _check_plane_diversity(points: np.ndarray, plane_ids: np.ndarray, scale: float):
    if len(np.unique(plane_ids)) < 2:
        raise DegenerateConfigurationError("correspondences cover fewer than 2 planes")
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] < 1e-9 * max(sv[0], 1e-12):
        raise DegenerateConfigurationError("all correspondences are coplanar")
    normals = []
    for pid in np.unique(plane_ids):
        group = points[plane_ids == pid]
        if len(group) < 3:
            continue
        g_centered = group - group.mean(axis=0)
        _, g_sv, g_vt = np.linalg.svd(g_centered)
        if g_sv[1] < 1e-12 * scale:
            continue  # collinear group, orientation undefined
        normals.append(g_vt[2])
    if len(normals) >= 2:
        normals = np.array(normals)
        dots = np.abs(normals @ normals.T)
        off_diag = dots[~np.eye(len(normals), dtype=bool)]
        if off_diag.size and off_diag.min() > 1.0 - 1e-8:
            raise DegenerateConfigurationError("all correspondence planes are parallel")


def _dlt_projection(pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Normalized direct linear transform for a 3x4 projection matrix."""
    t2 = _normalization_2d(pixels)
    t3 = _normalization_3d(points)
    px_n = (np.c_[pixels, np.ones(len(pixels))] @ t2.T)[:, :2]
    pt_n = np.c_[points, np.ones(len(points))] @ t3.T

    n = len(pixels)
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = pt_n
    a[0::2, 8:12] = -px_n[:, 0:1] * pt_n
    a[1::2, 4:8] = pt_n
    a[1::2, 8:12] = -px_n[:, 1:2] * pt_n
    _, _, vt = np.linalg.svd(a)
    m_norm = vt[-1].reshape(3, 4)
    m = np.linalg.inv(t2) @ m_norm @ t3

    # Fix the overall sign so observed points have positive depth.
    depths = np.c_[points, np.ones(len(points))] @ m[2]
    if np.median(depths) < 0:
        m = -m
    return m


def _decompose_projection(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split M ~ K [R | t] with positive-diagonal K and det(R) = +1."""
    k, r = scipy.linalg.rq(m[:, :3])
    d = np.sign(np.diag(k))
    d[d == 0] = 1.0
    k = k * d[None, :]
    r = r * d[:, None]
    if not np.all(np.isfinite(k)) or abs(k[2, 2]) < 1e-12 * np.abs(k).max():
        raise DecompositionError("projection matrix has a vanishing scale")
    if np.linalg.det(r) < 0:
        raise DecompositionError("decomposition yielded an improper rotation")
    scale = k[2, 2]
    k = k / scale
    t = np.linalg.solve(k, m[:, 3] / scale)
    if k[0, 0] <= 0 or k[1, 1] <= 0:
        raise DecompositionError("decomposition yielded non-positive focal lengths")
    return k, r, t


def _projector_residuals(params, pixels, points) -> np.ndarray:
    fx, fy, skew, cx, cy = params[:5]
    rot = rotation_from_rotvec(params[5:8])
    t = params[8:11]
    cam = points @ rot.T + t
    z = cam[:, 2]
    u = (fx * cam[:, 0] + skew * cam[:, 1]) / z + cx
    v = fy * cam[:, 1] / z + cy
    return np.concatenate([u - pixels[:, 0], v - pixels[:, 1]])


def calibrate_projector(
    correspondences: ProjectorCorrespondenceSet,
) -> tuple[PinholeDevice, RigidTransform, float]:
    """Projector intrinsics and front-to-projector mounting.

    Solves the projection correspondences with a normalized DLT, splits the
    result into intrinsics and pose via RQ, then refines all 11 parameters
    against reprojection error. Returns ``(device, front_to_proj, rms_px)``
    where the RMS is the per-point 2-D reprojection distance.
    """
    pixels = correspondences.pixels()
    points = correspondences.points()
    if len(pixels) < 6:
        raise UnderdeterminedError(
            f"projector calibration needs at least 6 correspondences, got {len(pixels)}"
        )
    scale = 1.0 + float(np.linalg.norm(points.mean(axis=0)))
    _check_plane_diversity(points, correspondences.plane_ids(), scale)

    m = _dlt_projection(pixels, points)
    k, r, t = _decompose_projection(m)

    axis, angle = rotation_to_axis_angle(r)
    x0 = np.concatenate([[k[0, 0], k[1, 1], k[0, 1], k[0, 2], k[1, 2]], axis * angle, t])

    def residual_fn(params):
        return _projector_residuals(params, pixels, points)

    params, cost, _ = _levenberg_marquardt(residual_fn, x0)
    rms = math.sqrt(cost / len(pixels))

    fx, fy, skew, cx, cy = params[:5]
    try:
        device = PinholeDevice(
            fx=float(fx),
            fy=float(fy),
            cx=float(cx),
            cy=float(cy),
            width=correspondences.width,
            height=correspondences.height,
            skew=float(skew),
        )
    except ValueError as exc:
        raise DecompositionError(f"refined intrinsics are invalid: {exc}") from exc
    front_to_proj = RigidTransform(rotation_from_rotvec(params[5:8]), params[8:11])
    return device, front_to_proj, rms


# -- Full pipeline ------------------------------------------------------------


def _axis_sample_count(observations: AxisObservationSet) -> int:
    return len(observations.records) * len(observations.common_corner_indices())


def run_full_calibration(session: CalibrationSession) -> CalibrationResult:
    """Run axis, rear and projector calibration in order.

    Any stage failure is wrapped in a StageError naming the stage. When the
    session carries a ground-truth rig, the result includes parameter errors
    against it.
    """
    if session.pan_observations is None or not session.pan_observations.records:
        raise StageError("pan axis", "session has no pan observations")
    try:
        pan_axis, pan_rms = estimate_axis(session.pan_observations)
    except Exception as exc:
        raise StageError("pan axis", exc) from exc

    if session.tilt_observations is None or not session.tilt_observations.records:
        raise StageError("tilt axis", "session has no tilt observations")
    try:
        tilt_axis, tilt_rms = estimate_axis(session.tilt_observations)
    except Exception as exc:
        raise StageError("tilt axis", exc) from exc

    if session.rear_registration is None:
        raise StageError("rear registration", "session has no rear registration record")
    try:
        record = session.rear_registration
        front = dict(record.front_corners)
        rear = dict(record.rear_corners)
        shared = sorted(set(front) & set(rear))
        if len(shared) < 3:
            raise DegenerateConfigurationError(
                "rear registration needs at least 3 shared corners"
            )
        platform = platform_rotation(pan_axis, tilt_axis, record.state)
        world = np.array([platform @ front[i] for i in shared])
        rear_pts = np.array([rear[i] for i in shared])
        rear_to_front, rear_rms = register_rear_camera(
            world, rear_pts, record.state, pan_axis, tilt_axis
        )
    except StageError:
        raise
    except Exception as exc:
        raise StageError("rear registration", exc) from exc

    if session.projector is None or not session.projector.records:
        raise StageError("projector", "session has no projector correspondences")
    try:
        proj_device, front_to_proj, proj_rms = calibrate_projector(session.projector)
    except Exception as exc:
        raise StageError("projector", exc) from exc

    n_pan = _axis_sample_count(session.pan_observations)
    n_tilt = _axis_sample_count(session.tilt_observations)
    axis_rms = math.sqrt(
        (pan_rms**2 * n_pan + tilt_rms**2 * n_tilt) / max(n_pan + n_tilt, 1)
    )
    residuals = Residuals(
        axis_rms_m=axis_rms, rear_rms_m=rear_rms, proj_reproj_rms_px=proj_rms
    )

    errors = None
    if session.ground_truth is not None:
        errors = parameter_errors(
            session.ground_truth,
            pan_axis,
            tilt_axis,
            rear_to_front,
            proj_device,
            front_to_proj,
        )
    return CalibrationResult(
        pan_axis=pan_axis,
        tilt_axis=tilt_axis,
        rear_to_front=rear_to_front,
        proj_device=proj_device,
        front_to_proj=front_to_proj,
        residuals=residuals,
        parameter_errors=errors,
    )


def angle_between(a, b) -> float:
    a = normalized(a)
    b = normalized(b)
    return float(math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b)))


def parameter_errors(
    truth: RigModel,
    pan_axis,
    tilt_axis,
    rear_to_front: RigidTransform,
    proj_device: PinholeDevice,
    front_to_proj: RigidTransform,
) -> dict:
    def rotation_angle(r):
        return rotation_to_axis_angle(r)[1]

    tp = truth.proj_device
    return {
        "pan_axis_angle_rad": angle_between(pan_axis, truth.pan_axis),
        "tilt_axis_angle_rad": angle_between(tilt_axis, truth.tilt_axis),
        "rear_rotation_rad": rotation_angle(
            rear_to_front.rotation.T @ truth.rear_to_front.rotation
        ),
        "rear_translation_m": float(
            np.linalg.norm(rear_to_front.translation - truth.rear_to_front.translation)
        ),
        "proj_fx_rel": abs(proj_device.fx - tp.fx) / tp.fx,
        "proj_fy_rel": abs(proj_device.fy - tp.fy) / tp.fy,
        "proj_cx_rel": abs(proj_device.cx - tp.cx) / tp.cx,
        "proj_cy_rel": abs(proj_device.cy - tp.cy) / tp.cy,
        "proj_skew_over_fx": abs(proj_device.skew - tp.skew) / tp.fx,
        "proj_rotation_rad": rotation_angle(
            front_to_proj.rotation.T @ truth.front_to_proj.rotation
        ),
        "proj_translation_m": float(
            np.linalg.norm(front_to_proj.translation - truth.front_to_proj.translation)
        ),
    }


# -- Session and result files -------------------------------------------------


def _corners_to_json(corners) -> list:
    return [{"index": int(i), "point": [float(v) for v in p]} for i, p in corners]


def _corners_from_json(data) -> list:
    try:
        return [(int(rec["index"]), np.asarray(rec["point"], dtype=float)) for rec in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad corner list: {exc}") from exc


def session_to_json(session: CalibrationSession) -> dict:
    def axis_obs(obs):
        if obs is None:
            return None
        return [
            {"angle_deg": math.degrees(rec.theta), "corners": _corners_to_json(rec.corners)}
            for rec in obs.records
        ]

    rear = None
    if session.rear_registration is not None:
        rec = session.rear_registration
        rear = {
            "pan_deg": math.degrees(rec.state.alpha),
            "tilt_deg": math.degrees(rec.state.beta),
            "front_corners": _corners_to_json(rec.front_corners),
            "rear_corners": _corners_to_json(rec.rear_corners),
        }
    projector = None
    if session.projector is not None:
        projector = {
            "width": session.projector.width,
            "height": session.projector.height,
            "correspondences": [
                {
                    "pixel": [float(v) for v in rec.pixel],
                    "point": [float(v) for v in rec.point],
                    "plane_id": int(rec.plane_id),
                }
                for rec in session.projector.records
            ],
        }
    return {
        "schema_version": 1,
        "pan_observations": axis_obs(session.pan_observations),
        "tilt_observations": axis_obs(session.tilt_observations),
        "rear_registration": rear,
        "projector": projector,
        "ground_truth": None
        if session.ground_truth is None
        else session.ground_truth.to_json(),
    }


def session_from_json(data: dict) -> CalibrationSession:
    check_schema_version(data, "session")

    def axis_obs(records, name):
        if records is None:
            return None
        try:
            return AxisObservationSet(
                axis_name=name,
                records=tuple(
                    AxisRecord(
                        theta=math.radians(float(rec["angle_deg"])),
                        corners=_corners_from_json(rec["corners"]),
                    )
                    for rec in records
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad {name} observations: {exc}") from exc

    rear = None
    if data.get("rear_registration") is not None:
        rec = data["rear_registration"]
        try:
            rear = RearRegistrationRecord(
                state=PanTiltState(
                    alpha=math.radians(float(rec["pan_deg"])),
                    beta=math.radians(float(rec["tilt_deg"])),
                ),
                front_corners=_corners_from_json(rec["front_corners"]),
                rear_corners=_corners_from_json(rec["rear_corners"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad rear registration record: {exc}") from exc
    projector = None
    if data.get("projector") is not None:
        rec = data["projector"]
        try:
            projector = ProjectorCorrespondenceSet(
                records=tuple(
                    ProjectorCorrespondence(
                        pixel=c["pixel"], point=c["point"], plane_id=int(c["plane_id"])
                    )
                    for c in rec["correspondences"]
                ),
                width=int(rec["width"]),
                height=int(rec["height"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad projector correspondences: {exc}") from exc
    truth = None
    if data.get("ground_truth") is not None:
        truth = RigModel.from_json(data["ground_truth"])
    return CalibrationSession(
        pan_observations=axis_obs(data.get("pan_observations"), "pan"),
        tilt_observations=axis_obs(data.get("tilt_observations"), "tilt"),
        rear_registration=rear,
        projector=projector,
        ground_truth=truth,
    )


def save_session(session: CalibrationSession, path) -> None:
    save_json(path, session_to_json(session))


def load_session(path) -> CalibrationSession:
    return load_json(path, session_from_json)


def result_to_json(result: CalibrationResult) -> dict:
    return {
        "schema_version": 1,
        "pan_axis": result.pan_axis.tolist(),
        "tilt_axis": result.tilt_axis.tolist(),
        "rear_to_front": result.rear_to_front.to_json(),
        "proj_device": result.proj_device.to_json(),
        "front_to_proj": result.front_to_proj.to_json(),
        "residuals": {
            "axis_rms_m": result.residuals.axis_rms_m,
            "rear_rms_m": result.residuals.rear_rms_m,
            "proj_reproj_rms_px": result.residuals.proj_reproj_rms_px,
        },
        "parameter_errors": result.parameter_errors,
    }


def result_from_json(data: dict) -> CalibrationResult:
    check_schema_version(data, "result")
    try:
        res = data["residuals"]
        return CalibrationResult(
            pan_axis=normalized(np.asarray(data["pan_axis"], dtype=float)),
            tilt_axis=normalized(np.asarray(data["tilt_axis"], dtype=float)),
            rear_to_front=RigidTransform.from_json(data["rear_to_front"]),
            proj_device=PinholeDevice.from_json(data["proj_device"]),
            front_to_proj=RigidTransform.from_json(data["front_to_proj"]),
            residuals=Residuals(
                axis_rms_m=float(res["axis_rms_m"]),
                rear_rms_m=float(res["rear_rms_m"]),
                proj_reproj_rms_px=float(res["proj_reproj_rms_px"]),
            ),
            parameter_errors=data.get("parameter_errors"),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad calibration result: {exc}") from exc


def save_result(result: CalibrationResult, path) -> None:
    save_json(path, result_to_json(result))


def load_result(path) -> CalibrationResult:
    return load_json(path, result_from_json)


def result_from_rig(model: RigModel) -> CalibrationResult:
    """Wrap a ground-truth rig as a perfect calibration result."""
    return CalibrationResult(
        pan_axis=model.pan_axis,
        tilt_axis=model.tilt_axis,
        rear_to_front=model.rear_to_front,
        proj_device=model.proj_device,
        front_to_proj=model.front_to_proj,
        residuals=Residuals(0.0, 0.0, 0.0),
    )
