"""Minimal deterministic software rasterizer.

Triangles arrive already projected: per-vertex continuous pixel positions
``xy`` plus the positive perspective divisor ``w`` (device-frame depth).
Vertex attributes are interpolated perspective-correctly (linear in 1/w)
and hidden surfaces resolve by keeping the fragment with the smallest w;
ties keep the lowest face index, so output never depends on chunking.

Faces with any non-positive w are dropped rather than clipped; callers keep
their geometry in front of the device.
"""

from __future__ import annotations

import numpy as np

# Upper bound on candidate fragments processed per vectorized chunk.
_FRAGMENT_BUDGET = 1_000_000
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


def _face_chunks(counts: np.ndarray):
    """Slices of consecutive faces whose fragment counts fit the budget.

    Each chunk takes as many faces as fit; a face over the budget on its own
    gets a chunk of its own.
    """
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        done = ends[start - 1] if start else 0
        end = int(np.searchsorted(ends, done + _FRAGMENT_BUDGET, side="right"))
        end = max(end, start + 1)
        yield slice(start, end)
        start = end


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
    attributes = attributes or {}
    attrs = {
        name: np.asarray(a, dtype=float).reshape(len(xy), -1)
        for name, a in attributes.items()
    }
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

    inv_w = 1.0 / w
    flat_best = result.depth_w.reshape(-1)
    flat_face = result.face_index.reshape(-1)
    flat_attrs = {n: a.reshape(-1, a.shape[2]) for n, a in result.attributes.items()}

    for chunk in _face_chunks(counts):
        f = face_ids[chunk]
        c = counts[chunk]
        offsets = np.concatenate([[0], np.cumsum(c)[:-1]])
        total = int(c.sum())
        frag_face = np.repeat(f, c)  # face id per fragment
        k = np.arange(total) - np.repeat(offsets, c)
        fbw = np.repeat(bw[f], c)
        px = np.repeat(x_min[f], c) + k % fbw
        py = np.repeat(y_min[f], c) + k // fbw
        cx = px + 0.5
        cy = py + 0.5

        a = tri[frag_face]  # (T, 3, 2)
        # Edge functions against each triangle side, normalized by area so
        # they are barycentric coordinates; sign-normalize for both windings.
        ax, ay = a[:, 0, 0], a[:, 0, 1]
        bx, by = a[:, 1, 0], a[:, 1, 1]
        qx, qy = a[:, 2, 0], a[:, 2, 1]
        full = area[frag_face]
        l0 = ((by - qy) * (cx - qx) + (qx - bx) * (cy - qy)) / full
        l1 = ((qy - ay) * (cx - qx) + (ax - qx) * (cy - qy)) / full
        l2 = 1.0 - l0 - l1
        inside = (l0 >= 0) & (l1 >= 0) & (l2 >= 0)
        if not np.any(inside):
            continue

        frag_face = frag_face[inside]
        pix = (py[inside] * width + px[inside]).astype(np.int64)
        l0, l1, l2 = l0[inside], l1[inside], l2[inside]
        fw = inv_w[faces[frag_face]]  # (T, 3) reciprocal depths
        inv_depth = l0 * fw[:, 0] + l1 * fw[:, 1] + l2 * fw[:, 2]
        depth = 1.0 / inv_depth

        # Nearest fragment per pixel; ties keep the lowest face index.
        order = np.lexsort((frag_face, depth, pix))
        pix_sorted = pix[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = pix_sorted[1:] != pix_sorted[:-1]
        win = order[first]

        upd = depth[win] < flat_best[pix[win]]
        win = win[upd]
        if len(win) == 0:
            continue
        target = pix[win]
        flat_best[target] = depth[win]
        flat_face[target] = frag_face[win]
        if attrs:
            lw = np.stack([l0[win], l1[win], l2[win]], axis=1) * inv_w[faces[frag_face[win]]]
            lw *= depth[win][:, None]
            verts = faces[frag_face[win]]
            for name, a_v in attrs.items():
                vals = (a_v[verts] * lw[:, :, None]).sum(axis=1)
                flat_attrs[name][target] = vals

    return result
