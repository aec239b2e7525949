"""User-perspective projector warping and its analytic evaluation path.

The correction runs in two passes (Raskar et al., "The Office of the
Future", SIGGRAPH 1998). Pass 1 renders the content as the user should see
it: a flat uint8 image with the viewport's size in pixels and 1 or 3
channels, either the checker test pattern or an equirectangular panorama
sampled along the eye's rays through the screen (``sample_equirect``).
Pass 2 builds the projector framebuffer: the scene geometry is rasterized
from the projector's point of view, each covered projector pixel maps the
point it will light through the screen projection into viewport
coordinates, and samples the pass-1 image there. Projecting that
framebuffer onto the real surfaces makes the content appear, from the
tracked eye, as if it were glued to the virtual screen.
The rasterized projector map, each covered pixel with its depth and
winning face, is kept on the mesh and reused for every new eye while the
mesh and the projector pose are unchanged and the eye needs no face the
map was not built for (``TriangleMesh.pixel_map``). One 3x4 matrix per eye
takes a pixel center and its 1/depth straight to the screen, as in
projective texture mapping (Segal et al., SIGGRAPH 1992). A projector
shows black as no light, so AR content is mostly black: the default
checker pattern fills a 480x300 box of a 1920x1080 image, and half of
that box is its black squares. As in a GPU's scissor test, the warp skips
pixels that can only sample black. A summed-area table of the content's
lit texels (Crow, SIGGRAPH 1984) extends a screen-space trivial reject
(Greene, Kass and Miller, SIGGRAPH 1993) from the content's box to its
texels: per eye, the faces that may win a pixel whose sample is not
black are those whose vertices' pass-1 rectangle holds a lit texel
(``_needed_faces``, which holds the bound). Vertex outcodes (Newman and
Sproull, 1973) settle most faces first, so only the rest take the table
lookup. The map covers only the rectangle of projector pixels those
faces can win, and inside it only the faces whose box touches a tile
that a needed face's box touches are drawn: every pixel inside a needed
face's box has the bits of the whole frame's map, so occlusion there is
exact, and every other covered pixel is won by a face that is not
needed. The map is thus a rectangle of the frame that grows as eyes
need more of it. The per-eye tail then
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
from .raster import _row_max, _row_min
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


def _lit_table(image: np.ndarray) -> tuple[int, int, np.ndarray] | None:
    """Summed-area table of the content's lit texels over their box, or None.

    A texel is lit when any of its channels is not zero. The box
    [c0, c1] x [r0, r1] is the smallest that holds every lit texel, and
    ``table[i, j]`` counts the lit texels in rows [r0, r0 + i) and columns
    [c0, c0 + j), so four lookups count those in any rectangle of the box
    (Crow, SIGGRAPH 1984). It is int32, 4 bytes per texel of the box.
    Returns ``(c0, r0, table)``, or None when no texel is lit.
    """
    h, w, channels = image.shape
    rows = np.flatnonzero(np.any(image.reshape(h, -1), axis=1))
    if len(rows) == 0:
        return None
    r0, r1 = rows[0], rows[-1]
    band = image[r0 : r1 + 1].reshape(r1 - r0 + 1, -1)
    cols = np.flatnonzero(np.any(band, axis=0).reshape(w, -1).any(axis=1))
    c0, c1 = cols[0], cols[-1]
    texels = image[r0 : r1 + 1, c0 : c1 + 1]
    lit = texels[..., 0] != 0
    for c in range(1, channels):
        lit |= texels[..., c] != 0
    table = np.zeros((r1 - r0 + 2, c1 - c0 + 2), dtype=np.int32)
    np.cumsum(lit, axis=1, dtype=np.int32, out=table[1:, 1:])
    for i in range(2, len(table)):  # row by row: a third of cumsum's time down axis 0
        table[i] += table[i - 1]
    return int(c0), int(r0), table


def _needed_faces(mesh, upr, viewport, lit) -> np.ndarray:
    """Which faces of a world-frame mesh may win a pixel with a non-zero sample.

    Each vertex goes through the screen projection (``upr.apply``), whose w
    is the tail's w, and the viewport's pixel formula to pass-1
    coordinates (x, y). A face is not needed in two cases; every other
    face is.

    - All three vertices have w < -1e-9. The projection is affine on a
      face, so every point of the face has w < -1e-9, and the tail turns
      its pixels black.
    - All three have w > 1e-9 and finite coordinates, and ``lit``, the
      table of ``_lit_table``, holds no lit texel in the rectangle of
      columns [floor(min x) - 2, floor(max x) + 2] and rows
      [floor(min y) - 2, floor(max y) + 2]. Every point of the face has
      w > 0, so it projects into the triangle of the vertices'
      projections, with x in [min x, max x]. The sampler blends texels
      floor(x - 0.5) and the one after (past the black ring around the
      image it clamps x and weights the ring alone), so texels in
      [floor(min x) - 1, floor(max x) + 1], and the same holds for y.
      A pixel's point lies on its face up to rounding, and the tail and
      this test round differently; both move x by far less than the
      pixel of margin left, so every pixel such a face wins blends four
      zero texels and comes out black.

    The test runs in two stages (Cohen-Sutherland outcodes, as in Newman
    and Sproull, 1973). Stage 1 gives each vertex one code: in front
    (w > 1e-9 and finite x and y), behind (w < -1e-9), and, only for a
    vertex in front, a side bit for each of floor(x) < c0 - 2,
    floor(x) > c1 + 2, floor(y) < r0 - 2 and floor(y) > r1 + 2, where
    [c0, c1] x [r0, r1] is the box of the lit texels. The AND of a face's
    three codes decides it. The behind bit is the first case above. A side
    bit is the second case without a lookup: with floor(x) < c0 - 2 at all
    three vertices, the rectangle ends at floor(max x) + 2 < c0, left of
    every lit texel (the lookup clips it to [0, 0) and counts none), and
    the other sides are alike. All three in front with no side bit sends
    the face to stage 2, the table lookup (``_rectangle_holds_lit``); any
    other face is needed.
    """
    c0, r0, table = lit
    xy, w = upr.apply(mesh.vertices)
    p = np.ascontiguousarray(viewport.to_pixels(xy).T)  # one row per axis
    front = (w > 1e-9) & np.isfinite(p).all(axis=0)
    q = np.floor(p, out=p)
    q[0] -= c0
    q[1] -= r0
    # Outcode bit 0: in front; bit 1: behind; bits 2-5, only in front:
    # left of, right of, above or below the lit texels, which sit at table
    # indices [0, size - 2], by more than the 2-texel pad.
    height, width = table.shape
    sides = (q[0] < -2, q[0] > width, q[1] < -2, q[1] > height)
    code = front.view(np.uint8) | ((w < -1e-9).view(np.uint8) << 1)
    for bit, side in enumerate(sides, start=2):
        code |= (front & side).view(np.uint8) << bit
    f = np.ascontiguousarray(mesh.faces.T)  # (3, F), C order so that each row gathers fast
    both = code[f[0]]
    both &= code[f[1]]
    both &= code[f[2]]
    needed = both <= 1  # no behind bit and no side bit
    test = np.flatnonzero(both == 1)
    needed[test] = _rectangle_holds_lit(table, q, np.take(f, test, axis=1))
    return needed


def _rectangle_holds_lit(table, q, corners) -> np.ndarray:
    """Stage 2 of ``_needed_faces``: whether each face's rectangle holds a lit texel.

    ``q`` holds each vertex's floor(x) - c0 and floor(y) - r0, one row
    per axis, and ``corners`` the (3, S) vertex indices of the faces to
    test; four lookups in ``table`` count the lit texels in each
    rectangle.
    """
    ends = []
    for qi, size in zip(q, table.shape[::-1]):
        at = qi[corners]
        lo = np.clip(_row_min(at) - 2, 0, size - 1)
        ends.append((lo.astype(np.intp), np.clip(_row_max(at) + 3, lo, size - 1).astype(np.intp)))
    (x0, x1), (y0, y1) = ends
    return table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0] > 0


def warp_to_projector(
    user_image: np.ndarray,
    mesh: TriangleMesh,
    upr: UprMatrix,
    viewport: Viewport,
    proj_device: PinholeDevice,
    proj_to_world: RigidTransform,
) -> np.ndarray:
    """Pre-warp a pass-1 image into the projector framebuffer.

    ``user_image`` is the pass-1 image in the viewport's own pixels: a
    uint8 array of shape (viewport.height_px, viewport.width_px, 1 or 3).
    Anything else raises ValueError before any work. One-channel content
    is sampled and rounded once and fills all three framebuffer channels.
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
    0. A sampled pixel behind the eye or whose four texels are zero comes
    out 0 as well, so the bytes are those of sampling every covered
    pixel. The sampled pixels are done in blocks, with the bytes of one
    unblocked pass; past the mask and the index that pick them, 1 byte
    per covered and 8 per sampled pixel, no temporary grows with their
    number, and the lit-texel table, 4 bytes per texel of the content's
    box, is freed before the map is read. All-black content gives a black
    framebuffer without sampling.
    """
    size = (viewport.height_px, viewport.width_px)
    if user_image.dtype != np.uint8 or user_image.shape not in (size + (1,), size + (3,)):
        raise ValueError(
            f"content must be a uint8 image of shape ({size[0]}, {size[1]}, 1 or 3), "
            f"got {user_image.dtype} {user_image.shape}"
        )
    channels = user_image.shape[2]
    fb = np.zeros((proj_device.height * proj_device.width, 3), dtype=np.uint8)
    lit = _lit_table(user_image)
    if lit is None:
        return fb.reshape(proj_device.height, proj_device.width, 3)
    # The point at depth z behind pixel center p = (u, v, 1) projects to
    # M (R K^-1 p z + t) = z g, with g = A p + b / z.
    m3, m4 = upr.matrix[:, :3], upr.matrix[:, 3]
    a = m3 @ proj_to_world.rotation @ np.linalg.inv(proj_device.matrix())
    b = m3 @ proj_to_world.translation + m4
    needed = _needed_faces(mesh, upr, viewport, lit)
    del lit  # the table is freed before the map and the tail
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
        for p, m, px in zip(xy, (viewport.width_m, viewport.height_m), size[::-1]):
            np.add(np.divide(p, m, out=p), 0.5, out=p)  # the viewport's formula
            p *= px
        np.copyto(xy, np.nan, where=behind)
        # Rounded once per content channel, then scattered as 3-byte
        # pixels; a one-channel image's bytes fill all three channels. A
        # bilinear blend of uint8 texels lies in [0, 255 + 1e-12], so
        # rounding alone gives the bytes that clipping to [0, 255] would.
        samples = bilinear_sample(user_image, xy.T).T
        for c in range(3):
            if c < channels:
                np.round(samples[c], out=term)
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
