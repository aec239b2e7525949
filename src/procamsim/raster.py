"""Minimal deterministic software rasterizer.

Triangles arrive already projected: per-vertex continuous pixel positions
``xy`` plus the positive perspective divisor ``w`` (device-frame depth).
Vertex attributes are interpolated perspective-correctly (linear in 1/w)
and hidden surfaces resolve by keeping the fragment with the smallest w;
ties keep the lowest face index, so output never depends on chunking.

Faces with any non-positive w are dropped rather than clipped; callers keep
their geometry in front of the device.

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
- **Resolve.** Fragments go in blocks of spans sized for a core's cache.
  Within a block, only pixels that several fragments cover are sorted by
  (depth, face); the block's nearest fragment then replaces the stored one
  only when strictly nearer, which keeps the lowest face index on ties.
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
    """Per-pixel rasterization output.

    ``face_index`` is -1 where nothing was drawn; ``depth_w`` is +inf there.
    ``attributes`` maps each input attribute name to an (H, W, C) float
    array, zero where nothing was drawn.
    """

    def __init__(self, width: int, height: int, attr_channels: dict):
        self.face_index = np.full((height, width), -1, dtype=np.int64)
        self.depth_w = np.full((height, width), np.inf)
        self.attributes = {
            name: np.zeros((height, width, c)) for name, c in attr_channels.items()
        }

    @property
    def mask(self) -> np.ndarray:
        return self.face_index >= 0


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


def _face_chunks(counts: np.ndarray):
    """Slices of consecutive faces whose fragment counts fit the budget."""
    return _chunks(counts, _FRAGMENT_BUDGET)


def expand_boxes(ids, x0, y0, bw, bh):
    """Every integer cell of each box ``[x0, x0 + bw) x [y0, y0 + bh)``.

    Returns (id, x, y) per cell, box by box in input order and row-major
    inside each box.
    """
    counts = bw * bh
    k = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    w = np.repeat(bw, counts)
    return np.repeat(ids, counts), np.repeat(x0, counts) + k % w, np.repeat(y0, counts) + k // w


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
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.abs(tri).max(axis=(1, 2)) + max(width, height)
        shortest = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2).min(axis=1)
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


def rasterize(
    xy: np.ndarray,
    w: np.ndarray,
    faces: np.ndarray,
    width: int,
    height: int,
    attributes: dict | None = None,
) -> RasterResult:
    """Rasterize triangles over a width x height grid of pixel centers.

    ``xy`` is (N, 2) projected vertex positions in continuous pixel
    coordinates, ``w`` the (N,) perspective divisors, ``faces`` (F, 3)
    vertex indices, ``attributes`` an optional mapping of name -> (N, C)
    per-vertex data. Both triangle windings are filled.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    w = np.asarray(w, dtype=float).reshape(-1)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    attrs = {name: np.asarray(a, dtype=float) for name, a in (attributes or {}).items()}
    # An (N, C) attribute keeps its C when N is 0, where -1 infers nothing.
    attrs = {n: a.reshape(len(xy), a.shape[1] if a.ndim == 2 else -1) for n, a in attrs.items()}
    result = RasterResult(width, height, {n: a.shape[1] for n, a in attrs.items()})
    if len(faces) == 0 or len(xy) == 0:
        return result

    tri = xy[faces]  # (F, 3, 2)
    tri_w = w[faces]  # (F, 3)
    valid = np.all(tri_w > 0, axis=1) & np.all(np.isfinite(tri), axis=(1, 2))

    # Signed doubled area; degenerate (near-zero) faces are skipped.
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    valid &= np.abs(area) > _AREA_EPS

    # Pixel-center bounding boxes, clipped to the viewport.
    x_min = np.maximum(np.floor(tri[:, :, 0].min(axis=1) - 0.5), 0).astype(np.int64)
    x_max = np.minimum(np.ceil(tri[:, :, 0].max(axis=1) - 0.5), width - 1).astype(np.int64)
    y_min = np.maximum(np.floor(tri[:, :, 1].min(axis=1) - 0.5), 0).astype(np.int64)
    y_max = np.minimum(np.ceil(tri[:, :, 1].max(axis=1) - 0.5), height - 1).astype(np.int64)
    bw = x_max - x_min + 1
    bh = y_max - y_min + 1
    valid &= (bw > 0) & (bh > 0)

    face_ids = np.flatnonzero(valid)
    if len(face_ids) == 0:
        return result
    counts = (bw * bh)[face_ids]

    canvas = _Canvas(result, faces, tri, tri_w, face_ids, attrs, area, x_min, x_max)
    for chunk in _face_chunks(counts):
        f = face_ids[chunk]
        # One span per face and bounding-box row, face by face in index order.
        face_of, row = _runs(y_min[f], bh[f])
        span_face = f[face_of]
        for block in _chunks(bw[span_face], _BLOCK):
            canvas.draw(span_face[block], row[block])
    return result


class _Canvas:
    """Flat views of a RasterResult and the per-face data drawing reads."""

    def __init__(self, result: RasterResult, faces, tri, tri_w, face_ids, attrs, area, x_min, x_max):
        height, self.width = result.depth_w.shape
        self.best = result.depth_w.reshape(-1)
        self.face = result.face_index.reshape(-1)
        self.attrs = {n: a.reshape(-1, a.shape[2]) for n, a in result.attributes.items()}
        # Work array for finding pixels that several fragments of a block cover.
        self.stamp = np.empty(len(self.best), dtype=np.int64)

        # Per-face terms of the edge functions l0 and l1 in ``draw``.
        (ax, ay), (bx, by), (qx, qy) = tri[:, 0].T, tri[:, 1].T, tri[:, 2].T
        self.qx, self.qy, self.area = qx, qy, area
        self.a0, self.b0 = by - qy, qx - bx
        self.a1, self.b1 = qy - ay, ax - qx
        self.edges = _edge_table(tri)
        self.loose = _loose_faces(tri, self.width, height)
        self.x_min, self.x_max = x_min, x_max
        # Reciprocal depths of valid faces only, so a vertex at w = 0
        # divides nothing.
        self.inv_w = np.zeros(tri_w.shape[::-1])  # (3, F)
        self.inv_w[:, face_ids] = 1.0 / tri_w[face_ids].T
        self.verts = [np.ascontiguousarray(v) for v in faces.T]
        self.attrs_t = {n: np.ascontiguousarray(a.T) for n, a in attrs.items()}  # (C, N)

    def draw(self, span_face, row):
        """Draw the spans of a block of (face, row) pairs, nearest fragment first."""
        first, count = _row_spans(
            self.edges, self.loose, span_face, row, self.x_min, self.x_max
        )
        # The y terms of the edge functions are the same along a span.
        dy = (row + 0.5) - self.qy[span_face]
        t0 = self.b0[span_face] * dy
        t1 = self.b1[span_face] * dy
        qx, area = self.qx[span_face], self.area[span_face]
        a0, a1 = self.a0[span_face], self.a1[span_face]
        span, px = _runs(first, count)
        # Edge functions against each triangle side, normalized by area so
        # they are barycentric coordinates; sign-normalize for both windings.
        dx = px + 0.5
        dx -= qx[span]
        full = area[span]
        l0 = a0[span]
        l0 *= dx
        l0 += t0[span]
        l0 /= full
        l1 = a1[span]
        l1 *= dx
        l1 += t1[span]
        l1 /= full
        l2 = 1.0 - l0
        l2 -= l1
        inside = l0 >= 0
        inside &= l1 >= 0
        inside &= l2 >= 0
        sel = np.flatnonzero(inside)
        if len(sel) == 0:
            return

        span = span[sel]
        frag_face = span_face[span]
        pix = px[sel]
        pix += (row * self.width)[span]
        l0, l1, l2 = l0[sel], l1[sel], l2[sel]
        fw = [iw[frag_face] for iw in self.inv_w]
        depth = l0 * fw[0]
        depth += l1 * fw[1]
        depth += l2 * fw[2]
        np.divide(1.0, depth, out=depth)

        # Nearest fragment per pixel; ties keep the lowest face index. Only
        # pixels that several fragments of the block cover need the sort.
        upd = depth < self.best[pix]
        ids = np.arange(len(pix))
        self.stamp[pix] = ids
        shared = self.stamp[pix] != ids
        if shared.any():
            # Mark the shared pixels, then sort every fragment on one.
            self.stamp[pix] = 0
            self.stamp[pix[shared]] = 1
            multi = np.flatnonzero(self.stamp[pix])
            order = multi[np.lexsort((frag_face[multi], depth[multi], pix[multi]))]
            pix_sorted = pix[order]
            upd[order[1:][pix_sorted[1:] == pix_sorted[:-1]]] = False
        win = np.flatnonzero(upd)
        if len(win) == 0:
            return
        if len(win) < len(upd):
            pix, depth, frag_face, l0, l1, l2 = (a[win] for a in (pix, depth, frag_face, l0, l1, l2))
            fw = [a[win] for a in fw]
        self.best[pix] = depth
        self.face[pix] = frag_face
        if not self.attrs_t:
            return
        # Perspective-correct weights, then each channel as w0 a0 + w1 a1 + w2 a2.
        lw = []
        for l, fw_k in zip((l0, l1, l2), fw):
            l *= fw_k
            l *= depth
            lw.append(l)
        v = [vk[frag_face] for vk in self.verts]
        for name, a_t in self.attrs_t.items():
            vals = np.empty((len(pix), len(a_t)))
            for c, a_c in enumerate(a_t):
                col = np.take(a_c, v[0]) * lw[0]
                col += np.take(a_c, v[1]) * lw[1]
                col += np.take(a_c, v[2]) * lw[2]
                vals[:, c] = col
            # Scatter whole rows through a void view, one copy per pixel.
            row_t = np.dtype((np.void, vals.itemsize * vals.shape[1]))
            self.attrs[name].view(row_t)[pix] = vals.view(row_t)
