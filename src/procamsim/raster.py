"""Minimal deterministic software rasterizer.

Triangles arrive already projected: per-vertex continuous pixel positions
``xy`` plus the positive perspective divisor ``w`` (device-frame depth).
Depth is interpolated perspective-correctly (linear in 1/w) and hidden
surfaces resolve by keeping the fragment with the smallest w; ties keep
the lowest face index, so output never depends on chunking. The result is
a visibility buffer (Burns and Hunt, JCGT 2013): each pixel's winning face
and depth, from which callers rebuild what they need.

Faces with any non-positive or infinite w, or a non-finite position, are
dropped rather than clipped; callers keep their geometry in front of the
device.

A caller that reads the pixels of only some faces passes them as a mask,
and only the pixel centers inside the rectangle around those faces'
bounding boxes are drawn (a screen-space scissor); each face's bounding box
is clipped to the rectangle, so every face that reaches a pixel there is
still tested at it and the pixel gets the bits of drawing the whole grid.

The pipeline, per chunk of faces in index order:

- **Row spans.** Each face's bounding box is cut into rows, and each row
  into the pixels within one pixel of the triangle's x-extent in that row's
  slab ``[y, y + 1]``. A span is a superset of the row's inside pixels, so
  it decides only which candidates are tested. A face whose rounding could
  reach past that pixel, such as a needle with a vertex 1e8 px away, keeps
  its whole bounding-box rows.
- **Inside test.** Pineda's edge functions at each candidate pixel center,
  divided by the doubled area so they are barycentric coordinates: a pixel
  is inside when all three are ``>= 0``. The terms of each face, and the
  y terms of each span, are computed once, with the same floating-point
  operations as per pixel, so every candidate gets the bits of the
  per-pixel formula.
- **Resolve.** Fragments go in blocks of spans sized for a core's cache,
  and only depth and face are stored. A block lowers each pixel's depth
  with ``np.minimum.at``; the fragments that set a strictly nearer depth
  then lower its face the same way, which keeps the lowest face index on
  ties within a block and across blocks.
"""

from __future__ import annotations

import numpy as np

# Upper bound on bounding-box fragments per chunk of faces, which bounds
# the memory of a chunk's spans and fragments.
_FRAGMENT_BUDGET = 1_000_000
# Bounding-box pixels per block of spans, which bound the block's candidate
# fragments, so a block's arrays stay in a core's cache while it is drawn.
_BLOCK = 1 << 16
_AREA_EPS = 1e-12


class RasterResult:
    """Rasterization output.

    ``covered`` holds the row-major flat indices of the drawn pixels in
    increasing order, ``depth`` the depth of each and ``face`` its winning
    face. ``mask`` is the (H, W) coverage, built when read.
    """

    def __init__(self, width: int, height: int, covered, depth, face):
        self.shape = (height, width)
        self.covered, self.depth, self.face = covered, depth, face

    @property
    def mask(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out.reshape(-1)[self.covered] = True
        return out


def _chunks(counts: np.ndarray, budget: int):
    """Slices of consecutive items whose counts sum to at most ``budget``.

    Each slice takes as many items as fit; an item over the budget on its
    own gets a slice of its own.
    """
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        done = ends[start - 1] if start else 0
        end = int(np.searchsorted(ends, done + budget, side="right"))
        end = max(end, start + 1)
        yield slice(start, end)
        start = end


def _row_min(a):
    """Column-wise minimum of the three rows of ``a``, (3, N) -> (N,)."""
    return np.minimum(np.minimum(a[0], a[1]), a[2])


def _row_max(a):
    """Column-wise maximum of the three rows of ``a``, (3, N) -> (N,)."""
    return np.maximum(np.maximum(a[0], a[1]), a[2])


def _runs(first, count):
    """Run index and value of each integer in runs ``first[i] .. first[i] + count[i] - 1``."""
    run = np.repeat(np.arange(len(count)), count)
    return run, np.arange(len(run)) + np.repeat(first - (np.cumsum(count) - count), count)


def _edge_table(tri):
    """Each face's three edges as (y_lo, y_hi, x at y_lo, dx/dy), (F,) each.

    A horizontal edge gets slope 0, so it yields its lower vertex alone; its
    other vertex is an end of a non-horizontal edge of the same face.
    """
    edges = []
    for k in range(3):
        p, q = tri[:, k], tri[:, (k + 1) % 3]
        up = p[:, 1] <= q[:, 1]
        lo = np.where(up[:, None], p, q)
        hi = np.where(up[:, None], q, p)
        dy = hi[:, 1] - lo[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.divide(hi[:, 0] - lo[:, 0], dy, out=np.zeros_like(dy), where=dy > 0)
        edges.append((lo[:, 1], hi[:, 1], lo[:, 0], slope))
    return edges


def _loose_faces(tri, width, height):
    """Faces whose spans must be their whole bounding-box rows.

    Rounding in a face's edge functions moves their zeros by up to about
    64 eps S^2 / L pixels, where S bounds the vertex and pixel coordinates
    and L is the face's shortest edge. Where that could reach a quarter
    pixel, a one-pixel pad might miss a pixel the inside test accepts.
    """
    x, y = tri.transpose(2, 1, 0)  # (3, F) views
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(_row_max(np.abs(x)), _row_max(np.abs(y))) + max(width, height)
        dx, dy = x - np.roll(x, 1, axis=0), y - np.roll(y, 1, axis=0)
        shortest = _row_min(np.sqrt(dx * dx + dy * dy))
        return ~(64 * np.finfo(float).eps * reach**2 < 0.25 * shortest)


def _row_spans(edges, loose, span_face, row, x_min, x_max):
    """First pixel and pixel count of each (face, row) span.

    The span holds the pixel centers within one pixel of the triangle's
    x-extent inside the slab ``[row, row + 1]``, clipped to the face's
    bounding box. Every pixel center of the row that passes the inside test
    lies in its span, because rounding moves an edge function's zero by
    less than a quarter pixel; ``loose`` faces, where it might not, and
    NaN extents keep the whole row.
    """
    r0 = row.astype(float)
    r1 = r0 + 1.0
    lo = np.full(len(row), np.inf)
    hi = np.full(len(row), -np.inf)
    for edge in edges:
        y_lo, y_hi, x_at, slope = (e[span_face] for e in edge)
        # The edge's y-range clipped to the slab; empty when ya > yb. Overflow
        # only widens a span.
        ya = np.maximum(r0, y_lo)
        yb = np.minimum(r1, y_hi)
        with np.errstate(over="ignore", invalid="ignore"):
            xa = (ya - y_lo) * slope + x_at
            xb = (yb - y_lo) * slope + x_at
        off = ya > yb
        xa[off] = np.inf
        xb[off] = np.inf
        np.minimum(lo, np.minimum(xa, xb), out=lo)
        xa[off] = -np.inf
        xb[off] = -np.inf
        np.maximum(hi, np.maximum(xa, xb), out=hi)
    wide = loose[span_face]
    lo[wide] = -np.inf
    hi[wide] = np.inf
    bx0 = x_min[span_face].astype(float)
    bx1 = x_max[span_face].astype(float)
    first = np.fmin(np.fmax(np.ceil(lo - 1.5), bx0), bx1 + 1)
    last = np.fmax(np.fmin(np.floor(hi + 0.5), bx1), bx0 - 1)
    return first.astype(np.int64), np.maximum(last - first + 1, 0).astype(np.int64)


def _faces(xy, w, faces):
    """Each face's vertices, depths and signed doubled area, and whether it is drawn.

    Returns (F, 3, 2) positions, (F, 3) depths, (F,) areas and the (F,)
    mask of faces drawn: every w positive and finite, every position
    finite and the area not near zero. The vertices of a face that is not
    drawn collapse onto the origin, so no cast sees a non-finite vertex.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    w = np.asarray(w, dtype=float).reshape(-1)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    tri = xy[faces]  # (F, 3, 2)
    tri_w = w[faces]  # (F, 3)
    drawable = (w > 0) & (w < np.inf) & np.isfinite(xy).all(axis=1)
    i, j, k = faces.T
    valid = drawable[i] & drawable[j] & drawable[k]
    tri = np.where(valid[:, None, None], tri, 0.0)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    valid &= np.abs(area) > _AREA_EPS
    return tri, tri_w, area, valid


def rasterize(
    xy: np.ndarray,
    w: np.ndarray,
    faces: np.ndarray,
    width: int,
    height: int,
    needed: np.ndarray,
) -> RasterResult:
    """Rasterize triangles over the pixel centers of a width x height grid that needed faces reach.

    ``xy`` is (N, 2) projected vertex positions in continuous pixel
    coordinates, ``w`` the (N,) perspective divisors and ``faces`` (F, 3)
    vertex indices. Both triangle windings are filled. ``needed`` is an
    (F,) bool mask of the faces whose pixels the caller reads. Only the
    pixels of the smallest rectangle of the grid that holds the
    pixel-center box of every needed face drawn are drawn, by every face
    whose box reaches them, so they get the bits of rasterizing the whole
    grid; every other pixel stays undrawn. With every face needed, the
    result is the whole grid's raster.
    """
    tri, tri_w, area, valid = _faces(xy, w, faces)

    # Pixel-center bounding boxes, clipped on both ends so each cast fits in int64.
    x, y = tri.transpose(2, 1, 0)  # (3, F) views
    x_min = np.clip(np.floor(_row_min(x) - 0.5), 0, width).astype(np.int64)
    x_max = np.clip(np.ceil(_row_max(x) - 0.5), -1, width - 1).astype(np.int64)
    y_min = np.clip(np.floor(_row_min(y) - 0.5), 0, height).astype(np.int64)
    y_max = np.clip(np.ceil(_row_max(y) - 0.5), -1, height - 1).astype(np.int64)
    valid &= (x_min <= x_max) & (y_min <= y_max)

    # The scissor rectangle, columns [x0, x1) and rows [y0, y1) around the
    # needed faces' boxes; every box is clipped to it.
    some = valid & np.asarray(needed, dtype=bool)
    rect = (0, 0, 0, 0)
    if some.any():
        rect = (
            int(x_min[some].min()), int(y_min[some].min()),
            int(x_max[some].max()) + 1, int(y_max[some].max()) + 1,
        )
    x0, y0, x1, y1 = rect
    np.clip(x_min, x0, x1, out=x_min)
    np.clip(x_max, x0 - 1, x1 - 1, out=x_max)
    np.clip(y_min, y0, y1, out=y_min)
    np.clip(y_max, y0 - 1, y1 - 1, out=y_max)
    bw = x_max - x_min + 1
    bh = y_max - y_min + 1
    valid &= (bw > 0) & (bh > 0)

    # Only the faces drawn go on, renumbered in index order, so ties
    # resolve as on the original numbers.
    face_ids = np.flatnonzero(valid)
    x_min, x_max, y_min, bw, bh = (a[face_ids] for a in (x_min, x_max, y_min, bw, bh))
    canvas = _Canvas(
        rect, (width, height), tri[face_ids], tri_w[face_ids], area[face_ids], x_min, x_max
    )
    for chunk in _chunks(bw * bh, _FRAGMENT_BUDGET):
        # One span per face and bounding-box row, face by face in index order.
        face_of, row = _runs(y_min[chunk], bh[chunk])
        span_face = face_of + chunk.start
        for block in _chunks(bw[span_face], _BLOCK):
            canvas.draw(span_face[block], row[block])
    # The drawn pixels laid into whole rows of the grid, whose row-major
    # flat indices are the grid's once the rows above are counted.
    lit = np.zeros((y1 - y0, width), dtype=bool)
    inside = lit[:, x0:x1]
    face = canvas.face.reshape(inside.shape)
    np.greater_equal(face, 0, out=inside)
    covered = np.flatnonzero(lit)
    covered += y0 * width
    depth = canvas.best.reshape(inside.shape)[inside]
    # Back to the original face numbers in place, which saves the map a
    # second array the size of ``covered``; each entry is an index into
    # ``face_ids`` and is read before it is overwritten.
    face = face[inside]
    np.take(face_ids, face, out=face, mode="clip")
    return RasterResult(width, height, covered, depth, face)


class _Canvas:
    """Depth and face buffers over the drawn rectangle, and the per-face data drawing reads."""

    def __init__(self, rect, grid, tri, tri_w, area, x_min, x_max):
        x0, y0, x1, y1 = rect
        self.width = x1 - x0
        self.best = np.full((y1 - y0) * self.width, np.inf)
        self.face = np.full(len(self.best), -1, dtype=np.int64)
        # Pixel (column, row) of the grid sits at row * width + column -
        # origin in the buffers.
        self.origin = y0 * self.width + x0

        # Per-face terms of the edge functions l0 and l1 in ``draw``.
        (ax, ay), (bx, by), (qx, qy) = tri[:, 0].T, tri[:, 1].T, tri[:, 2].T
        self.qx, self.qy, self.area = qx, qy, area
        self.a0, self.b0 = by - qy, qx - bx
        self.a1, self.b1 = qy - ay, ax - qx
        self.edges = _edge_table(tri)
        self.loose = _loose_faces(tri, *grid)
        self.x_min, self.x_max = x_min, x_max
        self.inv_w = 1.0 / tri_w.T  # (3, F)

    def draw(self, span_face, row):
        """Resolve the depth and face of each pixel a block of (face, row) spans covers."""
        first, count = _row_spans(
            self.edges, self.loose, span_face, row, self.x_min, self.x_max
        )
        span, px = _runs(first, count)
        # Edge functions at each pixel center against the sides of its
        # span's face, normalized by area so they are barycentric
        # coordinates; sign-normalize for both windings. Their y terms are
        # the same along a span.
        dy = (row + 0.5) - self.qy[span_face]
        t0 = self.b0[span_face] * dy
        t1 = self.b1[span_face] * dy
        dx = px + 0.5
        dx -= self.qx[span_face][span]
        full = self.area[span_face][span]
        l0 = self.a0[span_face][span]
        l0 *= dx
        l0 += t0[span]
        l0 /= full
        l1 = self.a1[span_face][span]
        l1 *= dx
        l1 += t1[span]
        l1 /= full
        l2 = 1.0 - l0
        l2 -= l1
        inside = l0 >= 0
        inside &= l1 >= 0
        inside &= l2 >= 0
        sel = np.flatnonzero(inside)
        span = span[sel]
        face = span_face[span]
        pix = px[sel]
        pix += (row * self.width - self.origin)[span]
        depth = l0[sel] * self.inv_w[0][face]
        depth += l1[sel] * self.inv_w[1][face]
        depth += l2[sel] * self.inv_w[2][face]
        np.divide(1.0, depth, out=depth)

        # Nearest depth per pixel, then the lowest face among the fragments
        # that set a strictly nearer one; a stored tie keeps its lower face.
        nearer = depth < self.best[pix]
        np.minimum.at(self.best, pix, depth)
        nearer &= depth == self.best[pix]
        pix, face = pix[nearer], face[nearer]
        self.face[pix] = face
        np.minimum.at(self.face, pix, face)
