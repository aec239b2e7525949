"""Three-step rig calibration from synthetic (or recorded) observations.

The pipeline recovers three things, each from its own observations only:

1. The pan and tilt axes, from checkerboard corners tracked in the front
   camera while one motor sweeps. Each corner's trajectory lies on a circle
   in a plane perpendicular to the axis; plane normals initialize the axis
   and a damped Gauss-Newton refinement over its two spherical degrees of
   freedom minimizes the spread of the motor-compensated world points.
2. The rear camera mounting, by one rigid fit of the rear-frame corners
   onto the same corners in the front frame. Both cameras ride the
   platform, so this stage uses no axes and no pan/tilt state, and the
   session records none.
3. The projector intrinsics and its mounting relative to the front camera,
   from projected-pixel / front-frame-point correspondences via a
   normalized DLT, an RQ decomposition and a reprojection refinement.

A camera's corner observation is a dict from corner index to (3,) point,
as ``CheckerboardTarget.observe`` returns it, and a motor sweep is a tuple
of AxisRecords. Calibration sessions and results are JSON files with
``schema_version`` 1; angles are degrees in files and radians in memory,
lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    DecompositionError,
    DegenerateConfigurationError,
    Fields,
    SchemaError,
    StageError,
    UnderdeterminedError,
    decoder,
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
from .rig import RigModel

# Iterative refinement stops on a step norm below STEP_TOL, a relative cost
# drop below COST_TOL, or after MAX_ITERATIONS.
MAX_ITERATIONS = 100
STEP_TOL = 1e-10
COST_TOL = 1e-12


# -- Observation containers --------------------------------------------------


def _corner_map(corners) -> dict:
    """``(index, point)`` pairs or an index-to-point mapping as a dict from
    int index to float (3,) array."""
    return {int(i): np.asarray(p, dtype=float) for i, p in dict(corners).items()}


@dataclass(frozen=True)
class AxisRecord:
    """Corners seen in the front camera at one motor angle (radians)."""

    theta: float
    corners: dict

    def __post_init__(self):
        corners = _corner_map(self.corners)
        if len(corners) < 4:
            raise ValueError("each axis record needs at least 4 corners")
        object.__setattr__(self, "corners", corners)


def common_corner_indices(records) -> list[int]:
    """Sorted indices of the corners seen in every record of a sweep."""
    return sorted(set.intersection(*(set(rec.corners) for rec in records))) if records else []


@dataclass(frozen=True)
class RearRegistrationRecord:
    """Front- and rear-frame corners of one board seen by both cameras.

    Both cameras ride the platform, so the fit needs no pan/tilt state and
    the record keeps none.
    """

    front_corners: dict
    rear_corners: dict

    def __post_init__(self):
        object.__setattr__(self, "front_corners", _corner_map(self.front_corners))
        object.__setattr__(self, "rear_corners", _corner_map(self.rear_corners))


@dataclass(frozen=True)
class ProjectorCorrespondenceSet:
    """Projected-pixel / front-frame-point correspondences, one row per sample.

    ``pixels`` (N, 2) are projector pixels (u, v), ``points`` (N, 3) the
    matching front-frame points in meters and ``plane_ids`` (N,) the scene
    plane each point lies on. ``width`` and ``height`` are the projector
    resolution, which the calibrated device takes.
    """

    pixels: np.ndarray
    points: np.ndarray
    plane_ids: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=float).reshape(-1, 2)
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        try:
            plane_ids = np.asarray(self.plane_ids, dtype=np.int64).reshape(-1)
        except OverflowError as exc:
            raise ValueError("plane_ids must fit in 64-bit integers") from exc
        if not len(pixels) == len(points) == len(plane_ids):
            raise ValueError("pixels, points and plane_ids must have equal length")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("projector resolution must be positive")
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "plane_ids", plane_ids)

    def __len__(self) -> int:
        return len(self.pixels)


@dataclass(frozen=True)
class CalibrationSession:
    pan_observations: tuple[AxisRecord, ...] | None = None
    tilt_observations: tuple[AxisRecord, ...] | None = None
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


def _numeric_jacobian(fn, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = 1e-7 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        jac[:, i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return jac


def _levenberg_marquardt(residual_fn, x0) -> tuple[np.ndarray, float, bool]:
    """Minimize ||residual_fn(x)||^2; returns (x, cost, converged).

    Steps are accepted only when they lower the cost, so the refined cost
    never exceeds the initial one.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    cost = float(r @ r)
    lam = 1e-3
    converged = cost < 1e-28
    for _ in range(MAX_ITERATIONS):
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
        if np.linalg.norm(step) < STEP_TOL or rel_drop < COST_TOL or cost < 1e-28:
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


def _plane_normal(points: np.ndarray, scale: float) -> np.ndarray | None:
    """Unit normal of the least-squares plane through (N, 3) points, or None
    when they are collinear to within ``1e-12 * scale`` and the plane is
    undefined."""
    _, sv, vt = np.linalg.svd(points - points.mean(axis=0))
    return None if sv[1] < 1e-12 * scale else vt[2]


def _axis_residuals(axis, thetas, trajectories) -> np.ndarray:
    comp = _axis_cost_points(axis, thetas, trajectories)
    return (comp - comp.mean(axis=0, keepdims=True)).ravel()


def estimate_axis(records) -> tuple[np.ndarray, float]:
    """Recover one motor's unit axis from a sweep of it, one AxisRecord per angle.

    Returns the axis and the RMS distance (meters) of the motor-compensated
    corner positions from their per-corner means. The axis sign is chosen so
    positive angles follow the right-hand rule around it, i.e. the sign that
    actually explains the recorded motion.
    """
    thetas = np.array([rec.theta for rec in records], dtype=float)
    if len(np.unique(np.round(thetas, 12))) < 3:
        raise DegenerateConfigurationError("need at least 3 distinct motor angles")
    common = common_corner_indices(records)
    if not common:
        raise DegenerateConfigurationError("no corner is visible at every angle")

    trajectories = np.array([[rec.corners[i] for i in common] for rec in records])  # (K, I, 3)

    scale = 1.0 + float(np.linalg.norm(trajectories.mean(axis=(0, 1))))
    spread = np.linalg.norm(
        trajectories - trajectories.mean(axis=0, keepdims=True), axis=2
    ).max()
    if spread < 1e-9 * scale:
        raise DegenerateConfigurationError(
            "corner trajectories do not move; corners may lie on the axis"
        )

    # Initialization: every trajectory lies in a plane perpendicular to the
    # axis, so average the per-corner plane normals. A corner that barely
    # moved has no plane.
    normals = [_plane_normal(trajectories[:, i], scale) for i in range(trajectories.shape[1])]
    normals = [n for n in normals if n is not None]
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


def register_rear_camera(record: RearRegistrationRecord) -> tuple[RigidTransform, float]:
    """Recover the rear camera mounting from one board seen by both cameras.

    Corners are matched by index; at least 3 must be seen by both. The
    cameras share the platform, so the rigid fit of the rear-frame corners
    onto the front-frame ones is the mounting (Arun, Huang and Blostein,
    1987); no axis or pan/tilt state enters. Returns ``(rear_to_front,
    rms_m)``.
    """
    front, rear = record.front_corners, record.rear_corners
    shared = sorted(front.keys() & rear.keys())
    if len(shared) < 3:
        raise DegenerateConfigurationError("rear registration needs at least 3 shared corners")
    return rigid_align(np.array([rear[i] for i in shared]), np.array([front[i] for i in shared]))


# -- Step 3: projector calibration -------------------------------------------


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity moving (N, dim) points to centroid 0 and mean distance sqrt(dim)."""
    dim = points.shape[1]
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    s = math.sqrt(dim) / max(dist, 1e-12)
    t = np.eye(dim + 1) * s
    t[dim, dim] = 1.0
    t[:dim, dim] = -s * centroid
    return t


def _check_plane_diversity(points: np.ndarray, plane_ids: np.ndarray, scale: float):
    if len(np.unique(plane_ids)) < 2:
        raise DegenerateConfigurationError("correspondences cover fewer than 2 planes")
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] < 1e-9 * max(sv[0], 1e-12):
        raise DegenerateConfigurationError("all correspondences are coplanar")
    groups = (points[plane_ids == pid] for pid in np.unique(plane_ids))
    normals = [_plane_normal(g, scale) for g in groups if len(g) >= 3]
    normals = [n for n in normals if n is not None]
    if len(normals) >= 2:
        normals = np.array(normals)
        dots = np.abs(normals @ normals.T)
        off_diag = dots[~np.eye(len(normals), dtype=bool)]
        if off_diag.size and off_diag.min() > 1.0 - 1e-8:
            raise DegenerateConfigurationError("all correspondence planes are parallel")


def _dlt_projection(pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Normalized direct linear transform for a 3x4 projection matrix."""
    t2 = _normalization(pixels)
    t3 = _normalization(points)
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
    where the RMS is the per-point 2-D reprojection distance. Raises
    ConvergenceError when the refinement does not converge.
    """
    pixels = correspondences.pixels
    points = correspondences.points
    if len(pixels) < 6:
        raise UnderdeterminedError(
            f"projector calibration needs at least 6 correspondences, got {len(pixels)}"
        )
    scale = 1.0 + float(np.linalg.norm(points.mean(axis=0)))
    _check_plane_diversity(points, correspondences.plane_ids, scale)

    m = _dlt_projection(pixels, points)
    k, r, t = _decompose_projection(m)

    axis, angle = rotation_to_axis_angle(r)
    x0 = np.concatenate([[k[0, 0], k[1, 1], k[0, 1], k[0, 2], k[1, 2]], axis * angle, t])

    def residual_fn(params):
        return _projector_residuals(params, pixels, points)

    params, cost, converged = _levenberg_marquardt(residual_fn, x0)
    if not converged:
        raise ConvergenceError(
            f"projector refinement did not converge within {MAX_ITERATIONS} iterations"
        )
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


def _axis_sample_count(records) -> int:
    return len(records) * len(common_corner_indices(records))


def _run_stage(name: str, missing: str, stage, data):
    """``stage(data)``; a StageError naming stage ``name`` when ``data``
    is absent or empty (the session has no ``missing``) or the stage fails."""
    if not data:
        raise StageError(name, f"session has no {missing}")
    try:
        return stage(data)
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_full_calibration(session: CalibrationSession) -> CalibrationResult:
    """Run axis, rear and projector calibration in order.

    Each stage reads only its own record of the session, so the rear
    mounting does not depend on the estimated axes. A stage whose input is
    absent or empty, or that fails, raises a StageError whose message names
    the stage; a failure is its ``__cause__``. When the session carries a
    ground-truth rig, the result includes parameter errors against it.
    """
    pan_axis, pan_rms = _run_stage(
        "pan axis", "pan observations", estimate_axis, session.pan_observations
    )
    tilt_axis, tilt_rms = _run_stage(
        "tilt axis", "tilt observations", estimate_axis, session.tilt_observations
    )
    rear_to_front, rear_rms = _run_stage(
        "rear registration", "rear registration record", register_rear_camera,
        session.rear_registration,
    )
    proj_device, front_to_proj, proj_rms = _run_stage(
        "projector", "projector correspondences", calibrate_projector, session.projector
    )

    n_pan = _axis_sample_count(session.pan_observations)
    n_tilt = _axis_sample_count(session.tilt_observations)
    axis_rms = math.sqrt(
        (pan_rms**2 * n_pan + tilt_rms**2 * n_tilt) / max(n_pan + n_tilt, 1)
    )
    result = CalibrationResult(
        pan_axis=pan_axis,
        tilt_axis=tilt_axis,
        rear_to_front=rear_to_front,
        proj_device=proj_device,
        front_to_proj=front_to_proj,
        residuals=Residuals(
            axis_rms_m=axis_rms, rear_rms_m=rear_rms, proj_reproj_rms_px=proj_rms
        ),
    )
    if session.ground_truth is None:
        return result
    return replace(result, parameter_errors=parameter_errors(session.ground_truth, result))


def angle_between(a, b) -> float:
    a = normalized(a)
    b = normalized(b)
    return float(math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b)))


def parameter_errors(truth: RigModel, estimate: CalibrationResult) -> dict:
    """Each estimated parameter's error against the ground-truth rig."""

    def rotation_angle(estimated: RigidTransform, true: RigidTransform) -> float:
        return rotation_to_axis_angle(estimated.rotation.T @ true.rotation)[1]

    def distance(estimated: RigidTransform, true: RigidTransform) -> float:
        return float(np.linalg.norm(estimated.translation - true.translation))

    dev, tp = estimate.proj_device, truth.proj_device
    # A principal point may be 0, so its error is relative to at least one pixel.
    return {
        "pan_axis_angle_rad": angle_between(estimate.pan_axis, truth.pan_axis),
        "tilt_axis_angle_rad": angle_between(estimate.tilt_axis, truth.tilt_axis),
        "rear_rotation_rad": rotation_angle(estimate.rear_to_front, truth.rear_to_front),
        "rear_translation_m": distance(estimate.rear_to_front, truth.rear_to_front),
        "proj_fx_rel": abs(dev.fx - tp.fx) / tp.fx,
        "proj_fy_rel": abs(dev.fy - tp.fy) / tp.fy,
        "proj_cx_rel": abs(dev.cx - tp.cx) / max(tp.cx, 1.0),
        "proj_cy_rel": abs(dev.cy - tp.cy) / max(tp.cy, 1.0),
        "proj_skew_over_fx": abs(dev.skew - tp.skew) / tp.fx,
        "proj_rotation_rad": rotation_angle(estimate.front_to_proj, truth.front_to_proj),
        "proj_translation_m": distance(estimate.front_to_proj, truth.front_to_proj),
    }


# -- Session and result files -------------------------------------------------


def _corners_to_json(corners: dict) -> list:
    return [{"index": i, "point": [float(v) for v in p]} for i, p in corners.items()]


def _corners_from_json(records: list) -> dict:
    """An index-to-point dict; a repeated index raises SchemaError naming its field."""
    corners = {}
    for rec in records:
        index = rec.integer("index")
        if index in corners:
            raise SchemaError(f"{rec.where('index')}: corner index {index} is repeated")
        corners[index] = rec.array("point", (3,))
    return corners


def session_to_json(session: CalibrationSession) -> dict:
    def axis_obs(records):
        if records is None:
            return None
        return [
            {"angle_deg": math.degrees(rec.theta), "corners": _corners_to_json(rec.corners)}
            for rec in records
        ]

    rear = None
    if session.rear_registration is not None:
        rec = session.rear_registration
        rear = {
            "front_corners": _corners_to_json(rec.front_corners),
            "rear_corners": _corners_to_json(rec.rear_corners),
        }
    projector = None
    if session.projector is not None:
        corr = session.projector
        projector = {
            "width": corr.width,
            "height": corr.height,
            "correspondences": [
                {"pixel": pixel, "point": point, "plane_id": plane_id}
                for pixel, point, plane_id in zip(
                    corr.pixels.tolist(), corr.points.tolist(), corr.plane_ids.tolist()
                )
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


@decoder
def _axis_record_from_json(r: Fields) -> AxisRecord:
    return AxisRecord(math.radians(r.number("angle_deg")), _corners_from_json(r.objs("corners")))


@decoder
def _projector_from_json(r: Fields) -> ProjectorCorrespondenceSet:
    width, height = r.grid_size("width", "height")
    corrs = r.objs("correspondences")
    return ProjectorCorrespondenceSet(
        pixels=[c.array("pixel", (2,)) for c in corrs],
        points=[c.array("point", (3,)) for c in corrs],
        plane_ids=[c.integer("plane_id") for c in corrs],
        width=width,
        height=height,
    )


def session_from_json(r: Fields) -> CalibrationSession:
    r.check_version("session")

    def axis_obs(name):
        records = r.objs(f"{name}_observations", None)
        return None if records is None else tuple(map(_axis_record_from_json, records))

    rear = r.obj("rear_registration", None)
    if rear is not None:
        rear = RearRegistrationRecord(
            front_corners=_corners_from_json(rear.objs("front_corners")),
            rear_corners=_corners_from_json(rear.objs("rear_corners")),
        )
    projector = r.obj("projector", None)
    truth = r.obj("ground_truth", None)
    return CalibrationSession(
        pan_observations=axis_obs("pan"),
        tilt_observations=axis_obs("tilt"),
        rear_registration=rear,
        projector=None if projector is None else _projector_from_json(projector),
        ground_truth=None if truth is None else RigModel.from_json(truth),
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


def result_from_json(r: Fields) -> CalibrationResult:
    r.check_version("result")
    res = r.obj("residuals")
    errors = r.obj("parameter_errors", None)
    return CalibrationResult(
        pan_axis=normalized(r.array("pan_axis", (3,))),
        tilt_axis=normalized(r.array("tilt_axis", (3,))),
        rear_to_front=RigidTransform.from_json(r.obj("rear_to_front")),
        proj_device=PinholeDevice.from_json(r.obj("proj_device")),
        front_to_proj=RigidTransform.from_json(r.obj("front_to_proj")),
        residuals=Residuals(
            axis_rms_m=res.number("axis_rms_m"),
            rear_rms_m=res.number("rear_rms_m"),
            proj_reproj_rms_px=res.number("proj_reproj_rms_px"),
        ),
        parameter_errors=None if errors is None else {k: errors.number(k) for k in errors.data},
    )


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
