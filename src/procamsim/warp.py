"""User-perspective projector warping and its analytic evaluation path.

The correction runs in two passes (Raskar et al., "The Office of the
Future", SIGGRAPH 1998). Pass 1 renders the content as the user should see
it: a flat image addressed in virtual-screen (viewport) pixels, either the
checker test pattern or an equirectangular panorama sampled along the eye's
rays through the screen (``sample_equirect``). Pass 2 builds the projector
framebuffer: the scene geometry is rasterized from the projector's point of
view, each covered projector pixel maps the point it will light through the
screen projection into viewport coordinates, and samples the pass-1 image
there. Projecting that framebuffer onto the real surfaces makes the content
appear, from the tracked eye, as if it were glued to the virtual screen.
The rasterized projector map, each covered pixel with its depth and
winning face, is kept on the mesh and reused for every new eye while the
mesh and the projector pose are unchanged and the eye needs no face the
map was not built for (``TriangleMesh.pixel_map``). One 3x4 matrix per eye
takes a pixel center and its 1/depth straight to the screen, as in
projective texture mapping (Segal et al., SIGGRAPH 1992). A projector
shows black as no light, so AR content is mostly black: the default
checker pattern fills a 480x300 box of a 1920x1080 image. As in a GPU's
scissor test, the warp skips pixels that can only sample black. A
screen-space trivial reject with Cohen-Sutherland outcodes over the mesh's
vertices (``_needed_faces``, which holds the bound) finds, per eye, the
faces that may win a pixel whose sample is not black. The map covers only
the rectangle of projector pixels those faces can win, with every face
still drawn inside it, so occlusion is exact; the map is thus a rectangle
of the frame that grows as eyes need more of it. The per-eye tail then
samples exactly the covered pixels whose winning face is needed, as a
visibility buffer lets a deferred pass pick its pixels by face (Burns and
Hunt, JCGT 2013), in blocks each taken from the screen projection through
sampling to the framebuffer; its output bytes are those of one pass that
samples every covered pixel. The tail's
per-channel work runs once per channel of the content: the gray checker
pattern has one channel, sampled once and written to all three
framebuffer channels, and a panorama view has three.

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
from .images import bilinear_sample, to_uint8
from .scene import Scene, TriangleMesh, hit_points
from .upr import UprMatrix, Viewport

# Relative slack for "is this the same intersection point" visibility tests.
_VISIBILITY_REL_TOL = 1e-6

# Sampled pixels per block of the per-eye warp tail.
_BLOCK = 1 << 15

# Ambient light level of the simulated room, as a fraction of full white.
_AMBIENT = 0.2


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

    def check_fits(self, width: int, height: int) -> None:
        """Raise ValueError unless the pattern fits a ``width`` x ``height`` image."""
        if width < self.cols * self.square_px or height < self.rows * self.square_px:
            raise ValueError(f"pattern does not fit the resolution {width}x{height}")

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
        """The pattern as a (height, width, 1) uint8 image, black outside.

        The pattern is gray, so it has one channel; ``warp_to_projector``
        fills all three framebuffer channels from it.
        """
        self.check_fits(width, height)
        img = np.zeros((height, width, 1), dtype=np.uint8)
        x0, y0 = self._origin(width, height)
        s = self.square_px
        for i in range(self.rows):
            for j in range(self.cols):
                if (i + j) % 2 == 0:
                    img[y0 + i * s : y0 + (i + 1) * s, x0 + j * s : x0 + (j + 1) * s] = 255
        return img


# -- Content source for pass 1 --------------------------------------------------


def sample_equirect(panorama: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Bilinear samples of an equirectangular panorama along (N, 3) directions.

    Longitude 0 looks along world +z and increases toward +x; latitude
    follows the downward +y axis, so image row 0 is straight up. Columns
    wrap around, and latitudes past the first or last row centre clamp to
    it. Returns (N, channels) float64.
    """
    h, w = panorama.shape[:2]
    d = np.asarray(dirs, dtype=float).reshape(-1, 3)
    norm = np.linalg.norm(d, axis=1)
    norm = np.where(norm > 0, norm, 1.0)
    lon = np.arctan2(d[:, 0], d[:, 2])
    lat = np.arcsin(np.clip(d[:, 1] / norm, -1.0, 1.0))
    # One wrapped column on each side, so every sample blends two real
    # columns; it shifts the columns right by one pixel.
    wrapped = np.concatenate([panorama[:, -1:], panorama, panorama[:, :1]], axis=1)
    x = (lon / (2.0 * math.pi) + 0.5) * w + 1.0
    y = np.clip((lat / math.pi + 0.5) * h, 0.5, h - 0.5)
    return bilinear_sample(wrapped, np.stack([x, y], axis=1))


def _unoccluded(scene: Scene, origin: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether the scene shows each point first along its ray from ``origin``."""
    to_pt = points - origin
    dist = np.linalg.norm(to_pt, axis=1)
    safe_dist = np.where(dist > 0, dist, 1.0)
    t, _, _ = scene.intersect(origin, to_pt / safe_dist[:, None])
    return t >= dist * (1.0 - _VISIBILITY_REL_TOL)


# -- Pass 1: the user's intended view -------------------------------------------


def render_user_view(panorama: np.ndarray, upr: UprMatrix, viewport: Viewport) -> np.ndarray:
    """Render a panorama as seen from the eye through the virtual screen.

    Each viewport pixel is the panorama sampled along the ray from the eye
    through that pixel's point on the screen plane (the rear frame's z=0
    plane). Returns a (height_px, width_px, 3) uint8 image at the viewport's
    size.
    """
    width, height = viewport.width_px, viewport.height_px
    _, dirs = upr.screen_rays(viewport.to_plane(pixel_center_grid(width, height)))
    return to_uint8(sample_equirect(panorama, dirs)).reshape(height, width, 3)


# -- Pass 2: projector framebuffer ----------------------------------------------


def _content_box(image: np.ndarray) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Open pass-1 pixel bounds, per axis, outside which a sample is black.

    The box [c0, c1] x [r0, r1] holds every texel that is not zero (a NaN
    or negative float counts). A bilinear sample at x reads texels
    floor(x - 0.5) and the one after, so it can differ from +0.0 only for
    x in [c0 - 0.5, c1 + 1.5); the bounds (c0 - 1, c1 + 2) add half a pixel
    for rounding in the sampler's own x - 0.5 + 1. Returns the x and y
    bounds, or None when every texel is zero or the image is empty.
    """
    img = np.asarray(image)
    h, w = img.shape[:2]
    if img.size == 0:
        return None
    rows = np.flatnonzero(np.any(img.reshape(h, -1), axis=1))
    if len(rows) == 0:
        return None
    r0, r1 = rows[0], rows[-1]
    band = img[r0 : r1 + 1].reshape(r1 - r0 + 1, -1)
    cols = np.flatnonzero(np.any(band, axis=0).reshape(w, -1).any(axis=1))
    c0, c1 = cols[0], cols[-1]
    return (int(c0) - 1, int(c1) + 2), (int(r0) - 1, int(r1) + 2)


def _needed_faces(mesh, matrix, pass1_scale, box) -> np.ndarray:
    """Which faces of a world-frame mesh may win a pixel with a non-zero sample.

    Each vertex X goes through the screen projection h = M (X, 1), whose
    w = h2 is the tail's w, and, where w > 1e-9, to pass-1 coordinates
    with the tail's operations in its order. As in Cohen and Sutherland's
    line clipping, it gets a bit for each side of the box it lies at
    least 1 px beyond, x <= lo - 1 or x >= hi + 1 for the open bounds
    (lo, hi) of each axis, and one more for w < -1e-9. A face whose three
    vertices share a bit is not needed. h is affine on a face, so where
    the three share a side bit, every point of the face has w > 1e-9 and
    its coordinate past that side, since x >= c is h0 - c' h2 >= 0 with
    h2 > 0; where they share the last bit, every point has w < -1e-9.
    A pixel's point lies on its face up to rounding, which moves x by far
    less than the pixel of margin, so every pixel such a face wins
    samples four zero texels, or NaN behind the eye, and comes out black.
    ``pass1_scale`` holds, per axis, the screen size in meters, the
    viewport size and the pass-1 image size in pixels; ``box`` is
    ``_content_box``'s bounds.
    """
    x, y, z = mesh.vertices.T
    h = [x * m0 + y * m1 + z * m2 + m3 for m0, m1, m2, m3 in matrix]
    front = h[2] > 1e-9
    code = (h[2] < -1e-9).astype(np.uint8)
    for bit, hk, (m, px, img), (lo, hi) in zip((2, 8), h[:2], pass1_scale, box):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = (hk / h[2] / m + 0.5) * px * (img / px)
        code |= ((p <= lo - 1) & front) * np.uint8(bit)
        code |= ((p >= hi + 1) & front) * np.uint8(2 * bit)
    f = mesh.faces.T
    return (code[f[0]] & code[f[1]] & code[f[2]]) == 0


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
    pixel maps the point at its depth through the screen projection and
    bilinearly samples the pass-1 image. Uncovered pixels, and points on the
    eye side of the screen projection, stay black. The rasterized map does
    not depend on the eye, so it is reused while the mesh and the projector
    pose are unchanged, with the same output bytes as rasterizing again.
    Only the covered pixels whose winning face the eye needs
    (``_needed_faces``) are sampled, and the map is rasterized only over
    the rectangle those faces can win, growing when an eye needs more of
    it; every other pixel would sample black and keeps the framebuffer's
    0. A sampled pixel behind the eye or outside the box of the content's
    non-zero texels comes out 0 as well, so the bytes are those of
    sampling every covered pixel. The sampled pixels are done in blocks,
    with the bytes of one unblocked pass; past the mask and the index that
    pick them, 1 byte per covered and 8 per sampled pixel, no temporary
    grows with their number. All-black content, or
    content with a zero side, gives a black framebuffer without sampling.
    ``user_image`` has one or three channels (a 2-D image is one channel);
    one-channel content is sampled, rounded and clipped once and fills all
    three framebuffer channels, any other count raises ValueError. Float
    content with a NaN or infinite texel raises ValueError("content must
    be finite"), so every sample's byte is defined.
    """
    channels = 1 if np.ndim(user_image) == 2 else np.shape(user_image)[2]
    if channels not in (1, 3):
        raise ValueError(f"content needs 1 or 3 channels, got {channels}")
    if user_image.dtype.kind == "f" and not np.isfinite(user_image).all():
        raise ValueError("content must be finite")
    fb = np.zeros((proj_device.height * proj_device.width, 3), dtype=np.uint8)
    box = _content_box(user_image)
    if box is None:
        return fb.reshape(proj_device.height, proj_device.width, 3)
    # The point at depth z behind pixel center p = (u, v, 1) projects to
    # M (R K^-1 p z + t) = z g, with g = A p + b / z.
    m3, m4 = upr.matrix[:, :3], upr.matrix[:, 3]
    a = m3 @ proj_to_world.rotation @ np.linalg.inv(proj_device.matrix())
    b = m3 @ proj_to_world.translation + m4
    # The pass-1 image may be rendered at a different resolution than the
    # nominal viewport; rescale into its pixel grid.
    pass1_scale = list(zip(
        (viewport.width_m, viewport.height_m),
        (viewport.width_px, viewport.height_px),
        user_image.shape[1::-1],  # (width, height)
    ))
    needed = _needed_faces(mesh, upr.matrix, pass1_scale, box)
    covered, depth, face = mesh.pixel_map(proj_device, proj_to_world, needed)
    kept = np.flatnonzero(needed[face])
    width = proj_device.width
    # Per block: g (one row per axis), u, v, 1 / z and a scratch row.
    rows = np.empty((7, min(len(kept), _BLOCK)))
    pixels = np.empty((rows.shape[1], 3), dtype=np.uint8)
    for start in range(0, len(kept), _BLOCK):
        index = kept[start : start + _BLOCK]
        k = len(index)
        pix, z = covered[index], depth[index]
        g, (u, v, inv_z, term) = rows[:3, :k], rows[3:, :k]
        # The center of the pixel at flat index i in row r: v = r + 0.5 and
        # u = i - (r * width - 0.5), exact since every value is an integer
        # or a half below 2^53.
        row = pix // width
        np.add(row, 0.5, out=v)
        np.subtract(pix, row * width - 0.5, out=u)
        np.divide(1.0, z, out=inv_z)
        for gi, (a0, a1, a2), bi in zip(g, a, b):
            np.multiply(u, a0, out=gi)
            gi += np.multiply(v, a1, out=term)
            gi += a2
            gi += np.multiply(inv_z, bi, out=term)
        # Pixels not in front of the eye, where w = z g2 is not above 1e-9,
        # get NaN coordinates, which the sampler turns black.
        behind = ~(np.multiply(z, g[2], out=term) > 1e-9)
        xy = g[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(xy, g[2], out=xy)
        for p, (m, px, img) in zip(xy, pass1_scale):
            np.add(np.divide(p, m, out=p), 0.5, out=p)  # the viewport's formula
            p *= px
            p *= img / px
        np.copyto(xy, np.nan, where=behind)
        # Rounded and clipped once per content channel, then scattered as
        # 3-byte pixels; a one-channel image's bytes fill all three channels.
        samples = bilinear_sample(user_image, xy.T).T
        for c in range(3):
            if c < channels:
                np.clip(np.round(samples[c], out=term), 0, 255, out=term)
            pixels[:k, c] = term
        fb.view("V3")[pix, 0] = pixels[:k].view("V3")[:, 0]
    return fb.reshape(proj_device.height, proj_device.width, 3)


# -- Physical simulation of projection + observation ----------------------------


def simulate_projection_and_view(
    framebuffer: np.ndarray,
    scene: Scene,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
    view_device: PinholeDevice,
    view_to_world: RigidTransform,
) -> np.ndarray:
    """What a camera sees while the projector displays ``framebuffer``.

    Surfaces reflect ambient light plus the projector pixel that lights
    them (nearest-pixel lookup, exact shadow rays), scaled by their albedo:
    ``out = albedo * (_AMBIENT * 255 + framebuffer)``, clipped to 8 bits.
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

    out[hit] = albedos * (_AMBIENT * 255.0 + light)
    return to_uint8(out).reshape(h, w, 3)


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
    true_scene: Scene,
    true_proj_device: PinholeDevice,
    true_proj_to_world: RigidTransform,
    true_upr: UprMatrix,
) -> CornerPropagation:
    """Trace pattern corners through the corrected display chain.

    The estimated models (the world-frame ``mesh``, ``upr``, ``proj_device``,
    ``proj_to_world``) decide which projector pixel carries each corner,
    exactly as the two-pass warp would. The true models (``true_scene``,
    ``true_proj_device``, ``true_proj_to_world``, ``true_upr``) govern what
    physically happens to that pixel and where the user sees it. The gap
    between ``desired_px`` and ``observed_px`` is the residual distortion in
    virtual-screen pixels.
    """
    est_scene = Scene(surfaces=(mesh,))

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
