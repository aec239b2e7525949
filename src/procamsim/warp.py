"""User-perspective projector warping and its analytic evaluation path.

The correction runs in two passes. Pass 1 renders the content as the user
should see it: a flat image addressed in virtual-screen (viewport) pixels.
Pass 2 builds the projector framebuffer: the scene geometry is rasterized
from the projector's point of view, each covered projector pixel recovers
the world point it will light, maps it through the screen projection into
viewport coordinates, and samples the pass-1 image there. Projecting that
framebuffer onto the real surfaces makes the content appear, from the
tracked eye, as if it were glued to the virtual screen.

``propagate_corners`` follows checker-pattern corners through the same
mapping analytically (no rasterization), using one model set for the warp
(the estimates) and another for the physical display (the ground truth), so
calibration and geometry errors show up as corner dislocation in the
user's view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PinholeDevice,
    RigidTransform,
    backproject_points,
    pixel_center_grid,
    project_points,
)
from .images import bilinear_sample
from .raster import rasterize
from .scene import DepthImage, Scene, TriangleMesh, reconstruct_mesh
from .upr import UprMatrix, Viewport

# Relative slack for "is this the same intersection point" visibility tests.
_VISIBILITY_REL_TOL = 1e-6


# -- Checker test pattern ------------------------------------------------------


@dataclass(frozen=True)
class CheckerPattern:
    """Centered checkerboard test pattern with indexable inner corners.

    ``rows`` x ``cols`` squares of ``square_px`` pixels; inner corner (i, j)
    sits at pixel coordinate (x0 + (j+1) * s, y0 + (i+1) * s) and has flat
    index i * (cols - 1) + j.
    """

    rows: int = 5
    cols: int = 8
    square_px: int = 60

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("pattern needs at least 2x2 squares to have corners")
        if self.square_px < 1:
            raise ValueError("square_px must be positive")

    @property
    def corner_count(self) -> int:
        return (self.rows - 1) * (self.cols - 1)

    def _origin(self, width: int, height: int) -> tuple[int, int]:
        x0 = (width - self.cols * self.square_px) // 2
        y0 = (height - self.rows * self.square_px) // 2
        return x0, y0

    def corner_positions(self, width: int, height: int) -> np.ndarray:
        """(N, 2) inner-corner pixel coordinates at the given resolution."""
        x0, y0 = self._origin(width, height)
        s = self.square_px
        jj, ii = np.meshgrid(
            np.arange(1, self.cols), np.arange(1, self.rows), indexing="xy"
        )
        return np.stack(
            [x0 + jj.ravel() * float(s), y0 + ii.ravel() * float(s)], axis=1
        )

    def render(self, width: int, height: int) -> np.ndarray:
        """The pattern as a (height, width, 3) uint8 image, black outside."""
        if width < self.cols * self.square_px or height < self.rows * self.square_px:
            raise ValueError("pattern does not fit the requested resolution")
        img = np.zeros((height, width, 3), dtype=np.uint8)
        x0, y0 = self._origin(width, height)
        s = self.square_px
        for i in range(self.rows):
            for j in range(self.cols):
                if (i + j) % 2 == 0:
                    img[y0 + i * s : y0 + (i + 1) * s, x0 + j * s : x0 + (j + 1) * s] = 255
        return img


# -- Content sources for pass 1 ------------------------------------------------


@dataclass(frozen=True)
class EquirectContent:
    """Direction-indexed panoramic content (equirectangular image).

    Longitude 0 looks along world +z and increases toward +x; latitude
    follows the downward +y axis, so image row 0 is straight up. Sampling
    is bilinear with horizontal wraparound.
    """

    image: np.ndarray

    def sample_rays(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        img = np.asarray(self.image, dtype=np.float64)
        h, w = img.shape[:2]
        d = np.asarray(dirs, dtype=float).reshape(-1, 3)
        norm = np.linalg.norm(d, axis=1)
        norm = np.where(norm > 0, norm, 1.0)
        lon = np.arctan2(d[:, 0], d[:, 2])
        lat = np.arcsin(np.clip(d[:, 1] / norm, -1.0, 1.0))
        u = (lon / (2.0 * math.pi) + 0.5) * w
        v = (lat / math.pi + 0.5) * h

        x = u - 0.5
        y = np.clip(v - 0.5, 0.0, h - 1.0)
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        fx = (x - x0)[:, None]
        fy = (y - y0)[:, None]
        x0m = np.mod(x0, w)
        x1m = np.mod(x0 + 1, w)
        y1 = np.minimum(y0 + 1, h - 1)
        top = img[y0, x0m] * (1 - fx) + img[y0, x1m] * fx
        bottom = img[y1, x0m] * (1 - fx) + img[y1, x1m] * fx
        return top * (1 - fy) + bottom * fy


@dataclass(frozen=True)
class MeshSetContent:
    """Virtual objects placed in the world, colored by surface albedo."""

    scene: Scene
    background: tuple = (0.0, 0.0, 0.0)

    def sample_rays(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        t, _, sidx = self.scene.intersect(origins, dirs)
        colors = np.empty((len(dirs), 3))
        colors[:] = np.asarray(self.background, dtype=float)
        hit = np.isfinite(t)
        if np.any(hit):
            albedos = np.array([s.albedo for s in self.scene.surfaces])
            colors[hit] = albedos[sidx[hit]] * 255.0
        return colors


# -- Scene geometry as used by the warp ----------------------------------------


@dataclass(frozen=True)
class WorldGeometry:
    """World-frame triangle mesh the projector framebuffer is mapped onto."""

    mesh: TriangleMesh

    @classmethod
    def from_depth(
        cls,
        depth: DepthImage,
        device: PinholeDevice,
        device_to_world: RigidTransform,
        discontinuity_threshold: float = 0.05,
    ) -> "WorldGeometry":
        mesh = reconstruct_mesh(depth, device, discontinuity_threshold)
        return cls(mesh=mesh.transformed(device_to_world))

    def as_scene(self) -> Scene:
        return Scene(surfaces=(self.mesh,), checkerboards=())


# -- Pass 1: the user's intended view -------------------------------------------


def render_user_view(
    content,
    upr: UprMatrix,
    viewport: Viewport,
    width: int | None = None,
    height: int | None = None,
) -> np.ndarray:
    """Render content as seen from the eye through the virtual screen.

    Each output pixel is the content sampled along the ray from the eye
    through that pixel's point on the screen plane (the rear frame's z=0
    plane). Returns a (height, width, 3) uint8 image.
    """
    width = viewport.width_px if width is None else width
    height = viewport.height_px if height is None else height
    scale = np.array(
        [width / viewport.width_px, height / viewport.height_px]
    )
    uv = pixel_center_grid(width, height) / scale
    xy = viewport.to_plane(uv)
    rear_pts = np.c_[xy, np.zeros(len(xy))]
    rear_to_world = upr.world_to_rear.inverse()
    world_pts = rear_to_world.apply(rear_pts)
    eye_world = upr.eye_world()
    dirs = world_pts - eye_world
    colors = content.sample_rays(np.broadcast_to(eye_world, dirs.shape), dirs)
    return np.clip(np.round(colors), 0, 255).astype(np.uint8).reshape(height, width, 3)


# -- Pass 2: projector framebuffer ----------------------------------------------


def warp_to_projector(
    user_image: np.ndarray,
    geometry: WorldGeometry,
    upr: UprMatrix,
    viewport: Viewport,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
) -> np.ndarray:
    """Pre-warp a pass-1 image into the projector framebuffer.

    The geometry is rasterized from the projector; every covered pixel maps
    its world point through the screen projection and bilinearly samples the
    pass-1 image. Uncovered pixels, and points on the eye side of the
    screen projection, stay black.
    """
    verts = geometry.mesh.vertices
    cam = proj_to_world.inverse().apply(verts)
    uv, z, _ = project_points(proj_device, RigidTransform.identity(), cam)
    res = rasterize(
        uv,
        z,
        geometry.mesh.faces,
        proj_device.width,
        proj_device.height,
        attributes={"world": verts},
    )
    world_px = res.attributes["world"].reshape(-1, 3)
    xy_m, w = upr.apply(world_px)
    ok = res.mask.reshape(-1) & (w > 1e-9) & np.all(np.isfinite(xy_m), axis=1)
    pix = viewport.to_pixels(np.where(ok[:, None], xy_m, 0.0))
    # The pass-1 image may be rendered at a different resolution than the
    # nominal viewport; rescale into its pixel grid.
    img_h, img_w = user_image.shape[:2]
    pix = pix * np.array([img_w / viewport.width_px, img_h / viewport.height_px])
    samples = bilinear_sample(user_image, pix)
    samples[~ok] = 0.0
    fb = np.clip(np.round(samples), 0, 255).astype(np.uint8)
    return fb.reshape(proj_device.height, proj_device.width, 3)


# -- Physical simulation of projection + observation ----------------------------


def simulate_projection_and_view(
    framebuffer: np.ndarray,
    scene: Scene,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
    view_device: PinholeDevice,
    view_to_world: RigidTransform,
    ambient: float = 0.2,
) -> np.ndarray:
    """What a camera sees while the projector displays ``framebuffer``.

    Surfaces reflect ambient light plus the projector pixel that lights
    them (nearest-pixel lookup, exact shadow rays), scaled by their albedo:
    ``out = albedo * (ambient * 255 + framebuffer)``, clipped to 8 bits.
    """
    h, w = view_device.height, view_device.width
    pix = pixel_center_grid(w, h)
    dirs = backproject_points(view_device, pix, 1.0) @ view_to_world.rotation.T
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = np.broadcast_to(view_to_world.translation, dirs.shape)
    t, _, sidx = scene.intersect(origins, dirs)
    hit = np.isfinite(t)
    out = np.zeros((len(pix), 3))
    if not np.any(hit):
        return out.astype(np.uint8).reshape(h, w, 3)

    points = origins[hit] + t[hit, None] * dirs[hit]
    albedos = np.array([s.albedo for s in scene.surfaces])[sidx[hit]]

    light = np.zeros((hit.sum(), 3))
    proj_origin = proj_to_world.translation
    cam_pts = proj_to_world.inverse().apply(points)
    uv, z, in_front = project_points(
        proj_device, RigidTransform.identity(), cam_pts
    )
    lit = in_front & proj_device.contains(np.nan_to_num(uv, nan=-1.0))
    if np.any(lit):
        to_pt = points[lit] - proj_origin
        dist = np.linalg.norm(to_pt, axis=1)
        shadow_t, _, _ = scene.intersect(
            np.broadcast_to(proj_origin, to_pt.shape), to_pt / dist[:, None]
        )
        visible = shadow_t >= dist * (1.0 - _VISIBILITY_REL_TOL)
        uu = np.clip(np.floor(uv[lit][visible, 0]).astype(np.int64), 0, proj_device.width - 1)
        vv = np.clip(np.floor(uv[lit][visible, 1]).astype(np.int64), 0, proj_device.height - 1)
        lit_idx = np.flatnonzero(lit)[visible]
        light[lit_idx] = np.asarray(framebuffer, dtype=float)[vv, uu]

    out[hit] = albedos * (ambient * 255.0 + light)
    return np.clip(np.round(out), 0, 255).astype(np.uint8).reshape(h, w, 3)


# -- Analytic corner propagation -------------------------------------------------


@dataclass(frozen=True)
class CornerPropagation:
    """Where pattern corners should and do land in virtual-screen pixels.

    ``observed_px`` is NaN wherever ``resolved`` is False (the corner fell
    off the geometry, outside the projector, into a fold, or out of the
    user's sight).
    """

    indices: np.ndarray
    desired_px: np.ndarray
    observed_px: np.ndarray
    resolved: np.ndarray

    def resolved_fraction(self) -> float:
        return float(self.resolved.mean()) if len(self.resolved) else 0.0


def _first_hit(scene: Scene, origins: np.ndarray, dirs: np.ndarray):
    t, _, _ = scene.intersect(origins, dirs)
    return t


def _view_projected_corners(
    desired: np.ndarray,
    proj_px: np.ndarray,
    alive: np.ndarray,
    true_scene: Scene,
    true_proj_device: PinholeDevice,
    true_proj_to_world: RigidTransform,
    true_upr: UprMatrix,
    viewport: Viewport,
) -> CornerPropagation:
    """The physical half of corner propagation, from projector pixels on.

    Each projector pixel lights the first point of the true scene on its
    ray, and the corner resolves where the true eye sees that point
    unobstructed and in front of it. Only corners still ``alive`` can
    resolve.
    """
    n = len(desired)
    dirs = backproject_points(true_proj_device, proj_px, 1.0)
    dirs = dirs @ true_proj_to_world.rotation.T
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origin = true_proj_to_world.translation
    t = _first_hit(true_scene, np.broadcast_to(origin, dirs.shape), dirs)
    hit = np.isfinite(t)
    lit = origin + np.where(hit, t, 0.0)[:, None] * dirs

    true_eye = true_upr.eye_world()
    to_lit = lit - true_eye
    dist = np.linalg.norm(to_lit, axis=1)
    safe_dist = np.where(dist > 0, dist, 1.0)
    t_vis = _first_hit(
        true_scene, np.broadcast_to(true_eye, to_lit.shape), to_lit / safe_dist[:, None]
    )
    obs_xy, w = true_upr.apply(lit)
    resolved = alive & hit & (t_vis >= dist * (1.0 - _VISIBILITY_REL_TOL)) & (w > 1e-9)
    observed = np.full((n, 2), np.nan)
    observed[resolved] = viewport.to_pixels(obs_xy)[resolved]
    return CornerPropagation(np.arange(n), desired, observed, resolved)


def propagate_corners(
    pattern: CheckerPattern,
    geometry: WorldGeometry,
    upr: UprMatrix,
    viewport: Viewport,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
    true_scene: Scene | None = None,
    true_proj_device: PinholeDevice | None = None,
    true_proj_to_world: RigidTransform | None = None,
    true_upr: UprMatrix | None = None,
) -> CornerPropagation:
    """Trace pattern corners through the corrected display chain.

    The estimated models (``geometry``, ``upr``, ``proj_device``,
    ``proj_to_world``) decide which projector pixel carries each corner,
    exactly as the two-pass warp would. The true models (defaulting to the
    estimates) govern what physically happens to that pixel and where the
    user sees it. The gap between ``desired_px`` and ``observed_px`` is the
    residual distortion in virtual-screen pixels.
    """
    if true_scene is None:
        true_scene = geometry.as_scene()
    if true_proj_device is None:
        true_proj_device = proj_device
    if true_proj_to_world is None:
        true_proj_to_world = proj_to_world
    if true_upr is None:
        true_upr = upr

    corners = pattern.corner_positions(viewport.width_px, viewport.height_px)
    n = len(corners)

    # Estimated path: screen point -> eye ray -> estimated geometry.
    xy_m = viewport.to_plane(corners)
    rear_pts = np.c_[xy_m, np.zeros(n)]
    screen_world = upr.world_to_rear.inverse().apply(rear_pts)
    eye_world = upr.eye_world()
    dirs = screen_world - eye_world
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    est_scene = geometry.as_scene()
    t_est = _first_hit(est_scene, np.broadcast_to(eye_world, dirs.shape), dirs)
    alive = np.isfinite(t_est)
    if not np.any(alive):
        return CornerPropagation(np.arange(n), corners, np.full((n, 2), np.nan), alive)
    landing = eye_world + np.where(alive, t_est, 0.0)[:, None] * dirs

    # Which projector pixel does the estimated warp light that point with?
    cam = proj_to_world.inverse().apply(landing)
    proj_px, z, in_front = project_points(
        proj_device, RigidTransform.identity(), cam
    )
    alive &= in_front & proj_device.contains(np.nan_to_num(proj_px, nan=-1.0))
    return _view_projected_corners(
        corners, np.nan_to_num(proj_px, nan=0.0), alive,
        true_scene, true_proj_device, true_proj_to_world, true_upr, viewport,
    )


def propagate_corners_uncorrected(
    pattern: CheckerPattern,
    true_scene: Scene,
    true_proj_device: PinholeDevice,
    true_proj_to_world: RigidTransform,
    true_upr: UprMatrix,
    viewport: Viewport,
) -> CornerPropagation:
    """Trace pattern corners with the pattern sent straight to the projector.

    Without correction the framebuffer is the pattern itself at projector
    resolution; corners land wherever the projector rays hit the scene, and
    the desired locations are the pattern corners on the virtual screen.
    """
    desired = pattern.corner_positions(viewport.width_px, viewport.height_px)
    proj_px = pattern.corner_positions(
        true_proj_device.width, true_proj_device.height
    )
    return _view_projected_corners(
        desired, proj_px, np.ones(len(desired), dtype=bool),
        true_scene, true_proj_device, true_proj_to_world, true_upr, viewport,
    )
