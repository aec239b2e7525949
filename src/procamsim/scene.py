"""Virtual scenes: surfaces, ray casting, depth sensing, mesh reconstruction.

A scene is a list of surfaces in the world frame plus any checkerboard
targets used for calibration. Every surface answers vectorized ray queries
with hit distance and outward surface normal, which drives both rendering
and the simulated depth sensor.

Scene files are JSON with ``schema_version`` 1: a ``surfaces`` array of
typed records (plane, sphere, box, cylinder, mesh) and a ``checkerboards``
array. Poses are encoded as a translation plus an axis-angle rotation in
degrees; all lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, check_schema_version, load_json, save_json
from .geometry import (
    PinholeDevice,
    RigidTransform,
    as_vec3,
    backproject_points,
    normalized,
    pixel_center_grid,
    project_points,
)
from .raster import _face_chunks, expand_boxes, rasterize

# Intersections closer than this along a ray are ignored (self-hits).
RAY_T_MIN = 1e-6

# Mesh casting bins rays within this cosine of the batch's mean direction
# (about 84 degrees) on a direction grid; the others test every face.
_FRONT_COS = 0.1


def hit_points(origin, dirs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points ``origin + t * dirs`` along each ray; a miss (t = inf) maps to the origin."""
    return origin + np.where(np.isfinite(t), t, 0.0)[:, None] * dirs


def _tangent_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic in-plane basis for a unit normal."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(normal @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    t1 = normalized(np.cross(normal, helper))
    t2 = np.cross(normal, t1)
    return t1, t2


@dataclass(frozen=True)
class Plane:
    """Rectangular (or infinite) planar patch."""

    point: np.ndarray
    normal: np.ndarray
    extent: tuple[float, float] | None = None  # half sizes along the tangent basis
    surface_id: str = "plane"
    albedo: tuple[float, float, float] = (0.8, 0.8, 0.8)

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec3(self.point))
        object.__setattr__(self, "normal", normalized(self.normal))
        if self.extent is not None:
            ex, ey = float(self.extent[0]), float(self.extent[1])
            if not (ex > 0 and ey > 0):
                raise ValueError("plane extent must be positive")
            object.__setattr__(self, "extent", (ex, ey))

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        denom = dirs @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((self.point - origins) @ self.normal) / denom
        t = np.where(np.abs(denom) < 1e-12, np.inf, t)
        t = np.where(t > RAY_T_MIN, t, np.inf)
        if self.extent is not None:
            t1, t2 = _tangent_basis(self.normal)
            rel = hit_points(origins, dirs, t) - self.point
            inside = (np.abs(rel @ t1) <= self.extent[0]) & (
                np.abs(rel @ t2) <= self.extent[1]
            )
            t = np.where(inside, t, np.inf)
        normals = np.broadcast_to(self.normal, dirs.shape)
        return t, normals

    def to_json(self) -> dict:
        rec = {
            "type": "plane",
            "id": self.surface_id,
            "albedo": list(self.albedo),
            "point": self.point.tolist(),
            "normal": self.normal.tolist(),
        }
        if self.extent is not None:
            rec["extent"] = list(self.extent)
        return rec


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    surface_id: str = "sphere"
    albedo: tuple[float, float, float] = (0.8, 0.8, 0.8)

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not self.radius > 0:
            raise ValueError("sphere radius must be positive")

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        oc = origins - self.center
        b = np.einsum("ij,ij->i", oc, dirs)
        c = np.einsum("ij,ij->i", oc, oc) - self.radius**2
        disc = b * b - c
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        t_near = -b - sqrt_disc
        t_far = -b + sqrt_disc
        t = np.where(t_near > RAY_T_MIN, t_near, t_far)
        t = np.where((disc >= 0) & (t > RAY_T_MIN), t, np.inf)
        normals = (hit_points(origins, dirs, t) - self.center) / self.radius
        return t, normals

    def to_json(self) -> dict:
        return {
            "type": "sphere",
            "id": self.surface_id,
            "albedo": list(self.albedo),
            "center": self.center.tolist(),
            "radius": self.radius,
        }


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in its own frame, placed into the world by ``pose``."""

    pose: RigidTransform
    dimensions: tuple[float, float, float]
    surface_id: str = "box"
    albedo: tuple[float, float, float] = (0.8, 0.8, 0.8)

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dimensions)
        if not all(d > 0 for d in dims):
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "dimensions", dims)

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        inv = self.pose.inverse()
        o = inv.apply(origins)
        d = dirs @ inv.rotation.T
        half = np.asarray(self.dimensions) / 2.0

        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half - o) / d
            t2 = (half - o) / d
        t1 = np.where(np.isnan(t1), -np.inf, t1)
        t2 = np.where(np.isnan(t2), np.inf, t2)
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        # Parallel rays outside a slab never enter it.
        parallel = np.abs(d) < 1e-12
        outside = np.abs(o) > half
        lo = np.where(parallel & outside, np.inf, lo)
        hi = np.where(parallel & outside, -np.inf, hi)

        t_enter = lo.max(axis=1)
        t_exit = hi.min(axis=1)
        t = np.where(t_enter > RAY_T_MIN, t_enter, t_exit)
        valid = (t_exit >= t_enter) & (t > RAY_T_MIN) & np.isfinite(t)
        t = np.where(valid, t, np.inf)

        # Normal of the face containing the hit: the dominant axis of the
        # local hit point measured in half-size units.
        local_hit = hit_points(o, d, t)
        scaled = local_hit / half
        axis = np.argmax(np.abs(np.where(np.isfinite(scaled), scaled, 0.0)), axis=1)
        local_n = np.zeros_like(local_hit)
        rows = np.arange(local_hit.shape[0])
        signs = np.sign(scaled[rows, axis])
        signs = np.where(signs == 0, 1.0, signs)
        local_n[rows, axis] = signs
        normals = local_n @ self.pose.rotation.T
        return t, normals

    def to_json(self) -> dict:
        return {
            "type": "box",
            "id": self.surface_id,
            "albedo": list(self.albedo),
            "pose": self.pose.to_json(),
            "dimensions": list(self.dimensions),
        }


@dataclass(frozen=True)
class CylinderSegment:
    """Closed cylinder along its local +z axis from z=0 to z=height."""

    pose: RigidTransform
    radius: float
    height: float
    surface_id: str = "cylinder"
    albedo: tuple[float, float, float] = (0.8, 0.8, 0.8)

    def __post_init__(self):
        if not (self.radius > 0 and self.height > 0):
            raise ValueError("cylinder radius and height must be positive")

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        inv = self.pose.inverse()
        o = inv.apply(origins)
        d = dirs @ inv.rotation.T
        n = origins.shape[0]

        best_t = np.full(n, np.inf)
        best_n = np.zeros((n, 3))

        def consider(t, local_normal):
            nonlocal best_t, best_n
            better = t < best_t
            best_t = np.where(better, t, best_t)
            best_n[better] = local_normal[better]

        # Lateral surface: quadratic in the xy components.
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1]
        c = o[:, 0] ** 2 + o[:, 1] ** 2 - self.radius**2
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - a * c
            sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
            for sign in (-1.0, 1.0):
                t = (-b + sign * sqrt_disc) / a
                z = o[:, 2] + t * d[:, 2]
                ok = (disc >= 0) & (a > 1e-14) & (t > RAY_T_MIN)
                ok &= (z >= 0) & (z <= self.height)
                t = np.where(ok, t, np.inf)
                hit = hit_points(o, d, t)
                ln = np.zeros_like(hit)
                ln[:, 0] = hit[:, 0] / self.radius
                ln[:, 1] = hit[:, 1] / self.radius
                consider(t, ln)

        # End caps at z = 0 and z = height.
        for z_cap, nz in ((0.0, -1.0), (self.height, 1.0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (z_cap - o[:, 2]) / d[:, 2]
            t = np.where((np.abs(d[:, 2]) < 1e-12) | ~np.isfinite(t), np.inf, t)
            hit = hit_points(o, d, t)
            ok = (t > RAY_T_MIN) & (hit[:, 0] ** 2 + hit[:, 1] ** 2 <= self.radius**2)
            t = np.where(ok, t, np.inf)
            ln = np.zeros((n, 3))
            ln[:, 2] = nz
            consider(t, ln)

        normals = best_n @ self.pose.rotation.T
        return best_t, normals

    def to_json(self) -> dict:
        return {
            "type": "cylinder",
            "id": self.surface_id,
            "albedo": list(self.albedo),
            "pose": self.pose.to_json(),
            "radius": self.radius,
            "height": self.height,
        }


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle mesh with world-frame (or local-frame) vertices.

    ``vertices`` and ``faces`` are read-only copies of the inputs, so what is
    derived from them, such as the last ``pixel_map``, cannot go stale.
    """

    vertices: np.ndarray
    faces: np.ndarray
    surface_id: str = "mesh"
    albedo: tuple[float, float, float] = (0.8, 0.8, 0.8)
    # (key, value) of the last ``pixel_map`` call.
    _pixel_map: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float).reshape(-1, 3)
        f = np.array(self.faces, dtype=np.int64).reshape(-1, 3)
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face indices out of range")
        v.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    def transformed(self, transform: RigidTransform) -> "TriangleMesh":
        return TriangleMesh(
            transform.apply(self.vertices), self.faces, self.surface_id, self.albedo
        )

    def pixel_map(
        self, device: PinholeDevice, device_to_world: RigidTransform
    ) -> tuple[np.ndarray, np.ndarray]:
        """The device pixels this mesh covers and the world point each sees.

        Returns the row-major flat indices of the covered pixels and their
        (K, 3) world points, from ``rasterize`` of the mesh as the device
        sees it. The map depends only on the mesh and the device, so the
        mesh keeps the last one and returns it again while ``device`` and
        the pose's rotation and translation are unchanged.
        """
        key = (device, device_to_world.rotation.tobytes(), device_to_world.translation.tobytes())
        entry = self._pixel_map
        if entry is None or entry[0] != key:
            uv, z = project_points(device, device_to_world.inverse(), self.vertices)
            res = rasterize(
                uv, z, self.faces, device.width, device.height,
                attributes={"world": self.vertices},
            )
            covered = np.flatnonzero(res.mask)
            world = res.attributes["world"].reshape(-1, 3)[covered]
            covered.flags.writeable = False
            world.flags.writeable = False
            entry = (key, (covered, world))
            object.__setattr__(self, "_pixel_map", entry)
        return entry[1]

    def face_normals(self) -> np.ndarray:
        v = self.vertices
        f = self.faces
        n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        lengths = np.linalg.norm(n, axis=1, keepdims=True)
        return n / np.maximum(lengths, 1e-300)

    def intersect(self, origins: np.ndarray, dirs: np.ndarray):
        """Nearest hit per ray; an exact tie goes to the lowest face index.

        Every ray starts at one origin: ``origins`` is (N, 3) with equal rows,
        and rows that differ raise ``ValueError``. Möller–Trumbore runs only
        on the ray-face pairs from ``_candidate_faces``, with the same
        arithmetic and result as testing every ray against every face.
        """
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        n_rays = dirs.shape[0]
        if len(origins) and not np.array_equal(
            origins, np.broadcast_to(origins[0], origins.shape), equal_nan=True
        ):
            raise ValueError("mesh rays must share one origin: rows of origins differ")
        best_t = np.full(n_rays, np.inf)
        best_face = np.full(n_rays, -1, dtype=np.int64)
        n_faces = len(self.faces)
        if n_faces == 0 or n_rays == 0:
            return best_t, np.zeros((n_rays, 3))

        origin = origins[0]
        v0 = self.vertices[self.faces[:, 0]]
        e1 = self.vertices[self.faces[:, 1]] - v0
        e2 = self.vertices[self.faces[:, 2]] - v0
        flat, start1, count1, start2, count2 = _candidate_faces(
            origin, dirs, self.vertices, self.faces
        )

        # Pairs run ray by ray: the ray's first segment of ``flat``, then its
        # second. The order within a ray is free, because ties are broken by
        # the smallest face index among the pairs at the minimum t.
        counts = count1 + count2
        active = np.flatnonzero(counts)
        for chunk in _face_chunks(counts[active]):
            rays = active[chunk]
            c = counts[rays]
            seg = np.cumsum(c) - c
            ray = np.repeat(rays, c)
            k = np.arange(len(ray)) - np.repeat(seg, c)
            c1 = np.repeat(count1[rays], c)
            pos = np.where(k < c1, start1[ray] + k, start2[ray] + k - c1)
            face = flat[pos]
            t = _moller_trumbore(origin, dirs[ray], v0[face], e1[face], e2[face])
            tmin = np.minimum.reduceat(t, seg)
            tied = np.where(t == np.repeat(tmin, c), face, n_faces)
            fmin = np.minimum.reduceat(tied, seg)
            hit = tmin < np.inf
            best_t[rays[hit]] = tmin[hit]
            best_face[rays[hit]] = fmin[hit]

        normals = np.zeros((n_rays, 3))
        hit = best_face >= 0
        if hit.any():
            fn = self.face_normals()
            normals[hit] = fn[best_face[hit]]
        return best_t, normals

    def to_json(self) -> dict:
        return {
            "type": "mesh",
            "id": self.surface_id,
            "albedo": list(self.albedo),
            "vertices": self.vertices.tolist(),
            "faces": self.faces.tolist(),
        }


def _moller_trumbore(origin, d, v0, e1, e2) -> np.ndarray:
    """Hit distance of each ray-triangle pair (rows of ``d`` and ``v0/e1/e2``), inf on a miss."""
    p = np.cross(d, e2)
    det = np.einsum("pj,pj->p", e1, p)
    # A degenerate face (det = 0) makes inf and NaN from here on; ``ok``
    # rejects its pairs.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        s = origin - v0
        u = np.einsum("pj,pj->p", s, p) * inv_det
        q = np.cross(s, e1)
        v = np.einsum("pj,pj->p", d, q) * inv_det
        t = np.einsum("pj,pj->p", e2, q) * inv_det
        eps = 1e-10
        ok = (
            (np.abs(det) > 1e-14)
            & (u >= -eps)
            & (v >= -eps)
            & (u + v <= 1.0 + eps)
            & (t > RAY_T_MIN)
        )
    return np.where(ok, t, np.inf)


def _grid_cells(values, lo, scale, size) -> np.ndarray:
    """Grid column (or row) of each projected coordinate, clipped to the grid."""
    return np.clip(np.floor((values - lo) * scale), 0, size - 1).astype(np.int64)


def _candidate_faces(origin, dirs, vertices, faces):
    """Faces each ray may hit, binned on a direction grid around ``origin``.

    Returns ``flat`` and, per ray, two segments
    ``flat[start1 : start1 + count1]`` and ``flat[start2 : start2 + count2]``
    that together hold every face the ray can hit under Möller–Trumbore's
    tolerances.

    Rays within ``_FRONT_COS`` of the mean direction (the axis) project to
    ``(x/z, y/z)`` in the axis frame, on a grid of about one cell per ray.
    A face whose vertices all lie clearly in front of the origin goes into
    the cells under its projected bounding box, padded well beyond
    Möller–Trumbore's 1e-10 barycentric slack; one clearly behind is
    dropped, and one near or across the origin plane is a candidate for
    every ray. Every other ray (sideways, backward, zero or non-finite)
    takes every face.
    """
    n_rays, n_faces = len(dirs), len(faces)
    # ``flat`` starts with every face, the candidates of an unbinned ray.
    flat, start1, count1 = np.arange(n_faces), np.zeros(n_rays, np.int64), np.full(n_rays, n_faces)
    start2, count2 = np.zeros(n_rays, np.int64), np.zeros(n_rays, np.int64)

    mean = dirs[np.isfinite(dirs).all(axis=1)].sum(axis=0)
    norm = np.linalg.norm(mean)
    if not (np.isfinite(norm) and norm > 1e-12):
        return flat, start1, count1, start2, count2
    axis = mean / norm
    t1, t2 = _tangent_basis(axis)
    dz = dirs @ axis
    front = np.flatnonzero(dz > _FRONT_COS * np.linalg.norm(dirs, axis=1))
    if len(front) == 0:
        return flat, start1, count1, start2, count2
    rx = (dirs[front] @ t1) / dz[front]
    ry = (dirs[front] @ t2) / dz[front]
    size = max(1, math.isqrt(len(front)))
    lo = np.array([rx.min(), ry.min()])
    hi = np.array([rx.max(), ry.max()])
    with np.errstate(divide="ignore", over="ignore"):
        scale = size / (hi - lo)
    scale = np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)

    # Vertices project once. Faces are classed by depth along the axis, with
    # a margin relative to that depth.
    rel = vertices - origin
    zv = rel @ axis
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xv = (rel @ t1) / zv
        yv = (rel @ t2) / zv
    z = zv[faces.T]
    z_min, z_max = z.min(axis=0), z.max(axis=0)
    margin = 1e-6 * (np.abs(z_min) + np.abs(z_max))
    ahead = np.flatnonzero(z_min > margin)
    behind = z_max < -margin
    corners = faces[ahead].T
    x, y = xv[corners], yv[corners]
    x_lo, x_hi, y_lo, y_hi = x.min(axis=0), x.max(axis=0), y.min(axis=0), y.max(axis=0)
    z_near = z_min[ahead]
    with np.errstate(over="ignore", invalid="ignore"):
        # A hit within the slack lies outside the box by at most about
        # 2e-10 * z_max / z_min of the box size. Rounding of the vertex
        # offsets moves a projection by ~1e-16 of |origin| + |vertex| over z.
        size_pad = (z_max[ahead] / z_near) * (x_hi - x_lo + y_hi - y_lo)
        magnitude = np.abs(origin).max() + np.abs(vertices).T.max(axis=0)[corners].max(axis=0)
        extent = np.maximum(np.abs(x_lo), np.abs(x_hi)) + np.maximum(np.abs(y_lo), np.abs(y_hi))
        pad = 1e-6 * size_pad + 1e-12 * (1.0 + extent) * (1.0 + magnitude / z_near)
        x_lo, x_hi, y_lo, y_hi = x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad
    finite = np.isfinite(x_lo + x_hi + y_lo + y_hi)
    on_grid = (x_hi >= lo[0]) & (x_lo <= hi[0]) & (y_hi >= lo[1]) & (y_lo <= hi[1])
    binned = finite & on_grid
    wide = np.ones(n_faces, dtype=bool)
    wide[ahead] = ~finite
    wide &= ~behind

    cx0, cx1 = (_grid_cells(v[binned], lo[0], scale[0], size) for v in (x_lo, x_hi))
    cy0, cy1 = (_grid_cells(v[binned], lo[1], scale[1], size) for v in (y_lo, y_hi))
    face, cx, cy = expand_boxes(ahead[binned], cx0, cy0, cx1 - cx0 + 1, cy1 - cy0 + 1)
    cell = cy * size + cx
    cell_count = np.bincount(cell, minlength=size * size)
    cell_faces = face[np.argsort(cell)]
    wide_faces = np.flatnonzero(wide)

    ray_cell = (
        _grid_cells(ry, lo[1], scale[1], size) * size + _grid_cells(rx, lo[0], scale[0], size)
    )
    start1[front] = n_faces + (np.cumsum(cell_count) - cell_count)[ray_cell]
    count1[front] = cell_count[ray_cell]
    start2[front] = n_faces + len(cell_faces)
    count2[front] = len(wide_faces)
    return np.concatenate([flat, cell_faces, wide_faces]), start1, count1, start2, count2


Surface = Plane | Sphere | Box | CylinderSegment | TriangleMesh


@dataclass(frozen=True)
class CheckerboardTarget:
    """Physical checkerboard described by its inner-corner grid.

    Corner (i, j) sits at (j * square_size, i * square_size, 0) in the board
    frame; ``pose`` places the board in the world. The flat corner index is
    ``i * cols + j``.
    """

    pose: RigidTransform
    rows: int
    cols: int
    square_size: float

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("checkerboard needs at least a 2x2 corner grid")
        if not self.square_size > 0:
            raise ValueError("square size must be positive")

    def corner_points(self) -> np.ndarray:
        """Board-frame corner positions, shape (rows * cols, 3)."""
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        pts = np.zeros((self.rows * self.cols, 3))
        pts[:, 0] = jj.ravel() * self.square_size
        pts[:, 1] = ii.ravel() * self.square_size
        return pts

    def corners_world(self) -> np.ndarray:
        return self.pose.apply(self.corner_points())

    def to_json(self) -> dict:
        return {
            "pose": self.pose.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "square_size": self.square_size,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CheckerboardTarget":
        try:
            return cls(
                pose=RigidTransform.from_json(data["pose"]),
                rows=int(data["rows"]),
                cols=int(data["cols"]),
                square_size=float(data["square_size"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad checkerboard record: {exc}") from exc


@dataclass(frozen=True)
class Hit:
    point: np.ndarray
    normal: np.ndarray
    t: float
    surface_id: str


@dataclass(frozen=True)
class Scene:
    surfaces: tuple = ()
    checkerboards: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "checkerboards", tuple(self.checkerboards))

    def intersect(self, origin, dirs):
        """Nearest hit over all surfaces for each ray cast from one ``origin`` (3,).

        Returns (t, normals, surface_index) with t = inf and index = -1 for
        misses; an exact tie goes to the lowest surface index. Normals are
        oriented to face the origin.
        """
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        origins = np.broadcast_to(as_vec3(origin), dirs.shape)
        n = dirs.shape[0]
        best_t = np.full(n, np.inf)
        best_normals = np.zeros((n, 3))
        best_idx = np.full(n, -1, dtype=np.int64)
        for i, surf in enumerate(self.surfaces):
            t, normals = surf.intersect(origins, dirs)
            better = t < best_t
            best_t = np.where(better, t, best_t)
            best_normals[better] = normals[better]
            best_idx[better] = i
        # Flip normals against the incoming ray direction.
        toward = np.einsum("ij,ij->i", best_normals, dirs) > 0
        best_normals[toward] *= -1.0
        return best_t, best_normals, best_idx


def raycast(scene: Scene, origin, direction) -> Hit | None:
    """Nearest scene intersection of a single ray, or None on a miss."""
    o = as_vec3(origin)
    d = normalized(direction)
    t, normals, idx = scene.intersect(o, d)
    if not np.isfinite(t[0]):
        return None
    return Hit(
        point=o + t[0] * d,
        normal=normals[0],
        t=float(t[0]),
        surface_id=scene.surfaces[idx[0]].surface_id,
    )


# -- Depth sensing -----------------------------------------------------------


@dataclass(frozen=True)
class DepthNoiseModel:
    """Gaussian depth noise plus grazing-angle dropout.

    ``gamma`` is the angle in degrees between the ray and the surface plane,
    so 90 means perpendicular incidence. Dropout probability is 1 below
    ``gamma_full_dropout``, falls linearly to 0 at ``gamma_no_dropout`` and
    is 0 above it.
    """

    sigma: float = 0.0
    gamma_full_dropout: float = 10.0
    gamma_no_dropout: float = 30.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError("sigma must be non-negative")
        if not (0 <= self.gamma_full_dropout < self.gamma_no_dropout <= 90):
            raise ValueError("need 0 <= gamma_full_dropout < gamma_no_dropout <= 90")

    @classmethod
    def exact(cls) -> "DepthNoiseModel":
        """Noise-free sensing with dropout effectively disabled."""
        return cls(sigma=0.0, gamma_full_dropout=0.0, gamma_no_dropout=1e-9)

    def dropout_probability(self, gamma_deg) -> np.ndarray:
        g = np.asarray(gamma_deg, dtype=float)
        ramp = (self.gamma_no_dropout - g) / (self.gamma_no_dropout - self.gamma_full_dropout)
        return np.clip(ramp, 0.0, 1.0)


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel depth (device-frame z, meters) with a validity mask."""

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if depth.shape != valid.shape or depth.ndim != 2:
            raise ValueError("depth and valid must be equal-shaped 2-D arrays")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


def sense_depth(
    scene: Scene,
    device: PinholeDevice,
    device_to_world: RigidTransform,
    noise: DepthNoiseModel | None = None,
) -> DepthImage:
    """Render a depth image of the scene as seen by ``device``.

    Depth is the device-frame z of the nearest surface hit. Gaussian noise
    and grazing-angle dropout follow ``noise``; misses are invalid. The RNG
    is split per image row from ``noise.rng_seed``, so results do not depend
    on how rows are partitioned across workers.
    """
    if noise is None:
        noise = DepthNoiseModel.exact()
    w, h = device.width, device.height
    pixels = pixel_center_grid(w, h)
    d_dev = backproject_points(device, pixels, 1.0)
    d_dev /= np.linalg.norm(d_dev, axis=1, keepdims=True)
    d_world = d_dev @ device_to_world.rotation.T
    t, normals, _ = scene.intersect(device_to_world.translation, d_world)
    hit = np.isfinite(t)
    z = np.where(hit, t * d_dev[:, 2], 0.0).reshape(h, w)

    cos_incidence = np.abs(np.einsum("ij,ij->i", d_world, normals))
    gamma = np.degrees(np.arcsin(np.clip(cos_incidence, 0.0, 1.0))).reshape(h, w)
    p_drop = noise.dropout_probability(gamma)
    hit = hit.reshape(h, w)

    depth = np.array(z)
    valid = np.array(hit)
    for row in range(h):
        rng = np.random.default_rng([noise.rng_seed, row])
        if noise.sigma > 0:
            depth[row] = z[row] + rng.normal(0.0, noise.sigma, size=w)
        dropped = rng.uniform(size=w) < p_drop[row]
        valid[row] &= ~dropped
    valid &= depth > 0
    depth[~valid] = 0.0
    return DepthImage(depth=depth, valid=valid)


def grid_faces(rows: int, cols: int) -> np.ndarray:
    """Triangles of a row-major ``rows`` x ``cols`` vertex grid, shape (F, 3).

    Each cell, in row-major order, gives the triangles (tl, bl, tr) and
    (tr, bl, br) in that order.
    """
    tl = (np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)).ravel()
    tr, bl = tl + 1, tl + cols
    return np.stack([tl, bl, tr, tr, bl, bl + 1], axis=1).reshape(-1, 3)


def reconstruct_mesh(
    depth: DepthImage,
    device: PinholeDevice,
    discontinuity_threshold: float = 0.05,
) -> TriangleMesh:
    """Triangulate a depth image into a device-frame mesh.

    Each valid pixel backprojects to one vertex through its pixel center.
    Every 2x2 pixel quad contributes up to two triangles; a triangle is
    skipped when any of its pixels is invalid or any edge jumps in depth by
    more than ``discontinuity_threshold`` meters. Triangles are wound to
    face the sensor.
    """
    if not discontinuity_threshold > 0:
        raise ValueError("discontinuity threshold must be positive")
    h, w = depth.depth.shape
    valid = depth.valid
    index = np.full((h, w), -1, dtype=np.int64)
    index[valid] = np.arange(int(valid.sum()))

    pixels = pixel_center_grid(w, h)[valid.ravel()]
    vertices = backproject_points(device, pixels, depth.depth[valid])

    z = depth.depth
    tl = index[:-1, :-1]
    tr = index[:-1, 1:]
    bl = index[1:, :-1]
    br = index[1:, 1:]

    def edge_ok(z_a, z_b):
        return np.abs(z_a - z_b) <= discontinuity_threshold

    e_top = edge_ok(z[:-1, :-1], z[:-1, 1:])
    e_bottom = edge_ok(z[1:, :-1], z[1:, 1:])
    e_left = edge_ok(z[:-1, :-1], z[1:, :-1])
    e_right = edge_ok(z[:-1, 1:], z[1:, 1:])
    e_diag = edge_ok(z[1:, :-1], z[:-1, 1:])

    ok1 = (tl >= 0) & (bl >= 0) & (tr >= 0) & e_left & e_diag & e_top
    ok2 = (tr >= 0) & (bl >= 0) & (br >= 0) & e_diag & e_bottom & e_right

    faces1 = np.stack([tl[ok1], bl[ok1], tr[ok1]], axis=1)
    faces2 = np.stack([tr[ok2], bl[ok2], br[ok2]], axis=1)
    faces = np.concatenate([faces1, faces2], axis=0)
    return TriangleMesh(vertices=vertices, faces=faces, surface_id="reconstruction")


# -- Scene file I/O ----------------------------------------------------------


def _surface_from_json(rec: dict) -> Surface:
    try:
        kind = rec["type"]
        sid = str(rec.get("id", kind))
        albedo = tuple(float(c) for c in rec.get("albedo", (0.8, 0.8, 0.8)))
        if kind == "plane":
            extent = rec.get("extent")
            return Plane(
                point=rec["point"],
                normal=rec["normal"],
                extent=tuple(extent) if extent is not None else None,
                surface_id=sid,
                albedo=albedo,
            )
        if kind == "sphere":
            return Sphere(
                center=rec["center"],
                radius=float(rec["radius"]),
                surface_id=sid,
                albedo=albedo,
            )
        if kind == "box":
            return Box(
                pose=RigidTransform.from_json(rec["pose"]),
                dimensions=tuple(rec["dimensions"]),
                surface_id=sid,
                albedo=albedo,
            )
        if kind == "cylinder":
            return CylinderSegment(
                pose=RigidTransform.from_json(rec["pose"]),
                radius=float(rec["radius"]),
                height=float(rec["height"]),
                surface_id=sid,
                albedo=albedo,
            )
        if kind == "mesh":
            return TriangleMesh(
                vertices=rec["vertices"],
                faces=rec["faces"],
                surface_id=sid,
                albedo=albedo,
            )
        raise SchemaError(f"unknown surface type {kind!r}")
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad surface record: {exc}") from exc


def scene_to_json(scene: Scene) -> dict:
    return {
        "schema_version": 1,
        "surfaces": [s.to_json() for s in scene.surfaces],
        "checkerboards": [b.to_json() for b in scene.checkerboards],
    }


def scene_from_json(data: dict) -> Scene:
    check_schema_version(data, "scene")
    surfaces = [_surface_from_json(rec) for rec in data.get("surfaces", [])]
    boards = [CheckerboardTarget.from_json(rec) for rec in data.get("checkerboards", [])]
    return Scene(surfaces=tuple(surfaces), checkerboards=tuple(boards))


def load_scene(path) -> Scene:
    return load_json(path, scene_from_json)


def save_scene(scene: Scene, path) -> None:
    save_json(path, scene_to_json(scene))
