"""User-perspective projector warping and its analytic evaluation path.

The correction runs in two passes. Pass 1 renders the content as the user
should see it: a flat image addressed in virtual-screen (viewport) pixels.
Pass 2 builds the projector framebuffer: the scene geometry is rasterized
from the projector's point of view, each covered projector pixel recovers
the world point it will light, maps it through the screen projection into
viewport coordinates, and samples the pass-1 image there. Projecting that
framebuffer onto the real surfaces makes the content appear, from the
tracked eye, as if it were glued to the virtual screen. Only the last two
steps depend on the eye: the rasterized projector map is kept on the mesh
and reused for every new eye while the mesh and the projector pose are
unchanged (``TriangleMesh.pixel_map``). That per-eye tail runs in blocks
of ``_BLOCK`` covered pixels, so no temporary grows with the resolution
beyond the sample coordinates and their samples; its output bytes are
those of one unblocked pass.

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
    pixel_center_grid,
    pixel_rays,
    project_points,
)
from .images import bilinear_sample
from .scene import Scene, TriangleMesh, hit_points
from .upr import UprMatrix, Viewport

# Relative slack for "is this the same intersection point" visibility tests.
_VISIBILITY_REL_TOL = 1e-6

# Covered projector pixels per block of the per-eye warp tail.
_BLOCK = 1 << 16


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

    def sample_rays(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
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

    def sample_rays(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        t, _, sidx = self.scene.intersect(origin, dirs)
        colors = np.empty((len(t), 3))
        colors[:] = np.asarray(self.background, dtype=float)
        hit = np.isfinite(t)
        if np.any(hit):
            albedos = np.array([s.albedo for s in self.scene.surfaces])
            colors[hit] = albedos[sidx[hit]] * 255.0
        return colors


def _unoccluded(scene: Scene, origin: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether the scene shows each point first along its ray from ``origin``."""
    to_pt = points - origin
    dist = np.linalg.norm(to_pt, axis=1)
    safe_dist = np.where(dist > 0, dist, 1.0)
    t, _, _ = scene.intersect(origin, to_pt / safe_dist[:, None])
    return t >= dist * (1.0 - _VISIBILITY_REL_TOL)


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
    scale = np.array([width / viewport.width_px, height / viewport.height_px])
    uv = pixel_center_grid(width, height) / scale
    eye_world, dirs = upr.screen_rays(viewport.to_plane(uv))
    colors = content.sample_rays(eye_world, dirs)
    return np.clip(np.round(colors), 0, 255).astype(np.uint8).reshape(height, width, 3)


# -- Pass 2: projector framebuffer ----------------------------------------------


def warp_to_projector(
    user_image: np.ndarray,
    mesh: TriangleMesh,
    upr: UprMatrix,
    viewport: Viewport,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
) -> np.ndarray:
    """Pre-warp a pass-1 image into the projector framebuffer.

    The world-frame mesh is rasterized from the projector; every covered
    pixel maps its world point through the screen projection and bilinearly
    samples the pass-1 image. Uncovered pixels, and points on the eye side
    of the screen projection, stay black. The rasterized map does not depend
    on the eye, so it is reused while the mesh and the projector pose are
    unchanged, with the same output bytes as rasterizing again. The rest is
    done in blocks of covered pixels, with the bytes of one unblocked pass.
    """
    covered, world = mesh.pixel_map(proj_device, proj_to_world)
    # The pass-1 image may be rendered at a different resolution than the
    # nominal viewport; rescale into its pixel grid.
    img_h, img_w = user_image.shape[:2]
    scale = np.array([img_w / viewport.width_px, img_h / viewport.height_px])
    # Pass-1 pixels of every covered row; rows on the eye side of the
    # screen projection get NaN, which the sampler turns black.
    pix = np.empty((len(covered), 2))
    for start in range(0, len(covered), _BLOCK):
        block = slice(start, start + _BLOCK)
        xy_m, w = upr.apply(world[block])
        pix[block] = viewport.to_pixels(xy_m) * scale
        pix[block][~(w > 1e-9)] = np.nan
    samples = bilinear_sample(user_image, pix)
    fb = np.zeros((proj_device.height * proj_device.width, 3), dtype=np.uint8)
    for start in range(0, len(covered), _BLOCK):
        block = slice(start, start + _BLOCK)
        fb[covered[block]] = np.clip(np.round(samples[block]), 0, 255).astype(np.uint8)
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
    origin = view_to_world.translation
    dirs = pixel_rays(view_device, view_to_world, pixel_center_grid(w, h))
    t, _, sidx = scene.intersect(origin, dirs)
    hit = np.isfinite(t)
    out = np.zeros((len(dirs), 3))
    if not np.any(hit):
        return out.astype(np.uint8).reshape(h, w, 3)

    points = hit_points(origin, dirs[hit], t[hit])
    albedos = np.array([s.albedo for s in scene.surfaces])[sidx[hit]]

    light = np.zeros((hit.sum(), 3))
    uv, _ = project_points(proj_device, proj_to_world.inverse(), points)
    lit = proj_device.contains(uv)
    if np.any(lit):
        visible = _unoccluded(scene, proj_to_world.translation, points[lit])
        uv_seen = uv[lit][visible]
        uu = np.clip(np.floor(uv_seen[:, 0]).astype(np.int64), 0, proj_device.width - 1)
        vv = np.clip(np.floor(uv_seen[:, 1]).astype(np.int64), 0, proj_device.height - 1)
        lit_idx = np.flatnonzero(lit)[visible]
        # Gather from the framebuffer's own dtype; the assignment casts
        # only the gathered pixels to float.
        light[lit_idx] = np.asarray(framebuffer)[vv, uu]

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
    origin = true_proj_to_world.translation
    dirs = pixel_rays(true_proj_device, true_proj_to_world, proj_px)
    t, _, _ = true_scene.intersect(origin, dirs)
    lit = hit_points(origin, dirs, t)
    seen = _unoccluded(true_scene, true_upr.eye_world(), lit)
    obs_xy, w = true_upr.apply(lit)
    resolved = alive & np.isfinite(t) & seen & (w > 1e-9)
    observed = np.full((n, 2), np.nan)
    observed[resolved] = viewport.to_pixels(obs_xy)[resolved]
    return CornerPropagation(np.arange(n), desired, observed, resolved)


def propagate_corners(
    pattern: CheckerPattern,
    mesh: TriangleMesh,
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

    The estimated models (the world-frame ``mesh``, ``upr``, ``proj_device``,
    ``proj_to_world``) decide which projector pixel carries each corner,
    exactly as the two-pass warp would. The true models (defaulting to the
    estimates) govern what physically happens to that pixel and where the
    user sees it. The gap between ``desired_px`` and ``observed_px`` is the
    residual distortion in virtual-screen pixels.
    """
    est_scene = Scene(surfaces=(mesh,))
    if true_scene is None:
        true_scene = est_scene
    if true_proj_device is None:
        true_proj_device = proj_device
    if true_proj_to_world is None:
        true_proj_to_world = proj_to_world
    if true_upr is None:
        true_upr = upr

    corners = pattern.corner_positions(viewport.width_px, viewport.height_px)
    n = len(corners)

    # Estimated path: screen point -> eye ray -> estimated geometry.
    eye_world, dirs = upr.screen_rays(viewport.to_plane(corners))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t_est, _, _ = est_scene.intersect(eye_world, dirs)
    alive = np.isfinite(t_est)
    if not np.any(alive):
        return CornerPropagation(np.arange(n), corners, np.full((n, 2), np.nan), alive)
    landing = hit_points(eye_world, dirs, t_est)

    # Which projector pixel does the estimated warp light that point with?
    proj_px, _ = project_points(proj_device, proj_to_world.inverse(), landing)
    alive &= proj_device.contains(proj_px)
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
