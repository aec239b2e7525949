"""Rasterizer tests: coverage, depth resolve, perspective-correct depth."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import procamsim.raster as raster
from procamsim.raster import rasterize


def tri(xy, w=None, faces=None):
    xy = np.asarray(xy, dtype=float)
    if w is None:
        w = np.ones(len(xy))
    if faces is None:
        faces = np.array([[0, 1, 2]])
    return xy, np.asarray(w, dtype=float), np.asarray(faces)


def full_raster(xy, w, faces, width, height):
    """``rasterize`` with every face needed: the raster of the whole grid."""
    return rasterize(xy, w, faces, width, height, np.ones(len(faces), dtype=bool))


def frames(res):
    """``res`` laid into (H, W) frames: the winning face, -1 where nothing
    is drawn, and the depth, +inf there."""
    face = np.full(res.shape, -1, dtype=np.int64)
    depth = np.full(res.shape, np.inf)
    face.reshape(-1)[res.covered] = res.face
    depth.reshape(-1)[res.covered] = res.depth
    return face, depth


class TestCoverage:
    def test_right_triangle_pixel_count(self):
        xy, w, faces = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        res = full_raster(xy, w, faces, 8, 8)
        # Pixel centers (x+.5, y+.5) with x,y >= 0 and (x+.5)+(y+.5) <= 4.
        assert int(res.mask.sum()) == 10
        face, depth = frames(res)
        assert face[0, 0] == 0
        assert face[7, 7] == -1
        assert np.isinf(depth[7, 7])

    def test_winding_does_not_matter(self):
        xy, w, _ = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        a = full_raster(xy, w, np.array([[0, 1, 2]]), 8, 8)
        b = full_raster(xy, w, np.array([[0, 2, 1]]), 8, 8)
        assert np.array_equal(a.mask, b.mask)

    def test_offscreen_clipped(self):
        xy, w, faces = tri([[-100.0, -100.0], [300.0, -100.0], [-100.0, 300.0]])
        res = full_raster(xy, w, faces, 4, 4)
        assert res.mask.all()

    def test_fully_outside(self):
        xy, w, faces = tri([[10.0, 10.0], [12.0, 10.0], [10.0, 12.0]])
        res = full_raster(xy, w, faces, 4, 4)
        assert not res.mask.any()

    def test_degenerate_face_skipped(self):
        xy, w, faces = tri([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
        res = full_raster(xy, w, faces, 8, 8)
        assert not res.mask.any()

    def test_nonpositive_w_face_skipped(self):
        xy, _, faces = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        res = full_raster(xy, np.array([1.0, -0.5, 1.0]), faces, 8, 8)
        assert not res.mask.any()

    def test_empty_inputs(self):
        empty = np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3), dtype=int)
        res = full_raster(*empty, 4, 4)
        assert not res.mask.any()
        assert res.covered.shape == (0,)


class TestDepthResolve:
    def test_nearer_face_wins(self):
        xy = np.array(
            [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]
        )
        w = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        res = full_raster(xy, w, faces, 4, 4)
        face, depth = frames(res)
        assert (face[res.mask] == 1).all()
        assert np.allclose(depth[res.mask], 1.0)

    def test_equal_depth_keeps_lower_face_index(self):
        xy = np.array(
            [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]
        )
        w = np.ones(6)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        res = full_raster(xy, w, faces, 4, 4)
        assert (frames(res)[0][res.mask] == 0).all()

    def test_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 40
        xy = rng.uniform(-2, 18, size=(n * 3, 2))
        w = rng.uniform(0.5, 5.0, size=n * 3)
        faces = np.arange(n * 3).reshape(n, 3)
        full = full_raster(xy, w, faces, 16, 16)
        monkeypatch.setattr(raster, "_FRAGMENT_BUDGET", 7)
        tiny = full_raster(xy, w, faces, 16, 16)
        assert all(map(np.array_equal, frames(full), frames(tiny)))
        assert np.array_equal(full.covered, tiny.covered)

    def test_chunks_match_greedy_packing(self):
        def greedy(counts, budget):
            """Reference: add faces while they fit; an oversized face goes alone."""
            chunks, start = [], 0
            while start < len(counts):
                end, total = start, 0
                while end < len(counts) and (total + counts[end] <= budget or end == start):
                    total += counts[end]
                    end += 1
                chunks.append((start, end))
                start = end
            return chunks

        rng = np.random.default_rng(5)
        for budget in (1, 7, 20, 64):
            for n in (0, 1, 30):
                counts = rng.integers(1, 40, size=n)
                got = [(c.start, c.stop) for c in raster._chunks(counts, budget)]
                assert got == greedy(counts, budget)


def pinhole_xy(points, f=100.0, c=10.0):
    points = np.asarray(points, dtype=float)
    z = points[:, 2]
    return np.c_[f * points[:, 0] / z + c, f * points[:, 1] / z + c], z


class TestPerspectiveCorrectness:
    def test_depth_matches_ray_plane_intersection(self):
        # A slanted quad z = 3 + x, rasterized through an explicit pinhole.
        verts = np.array(
            [
                [-1.0, -1.0, 2.0],
                [1.0, -1.0, 4.0],
                [1.0, 1.0, 4.0],
                [-1.0, 1.0, 2.0],
            ]
        )
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        xy, w = pinhole_xy(verts)
        res = full_raster(xy, w, faces, 20, 20)
        assert res.mask.sum() > 50
        ys, xs = np.divmod(res.covered, 20)
        # Independent oracle: intersect each pixel ray with the plane
        # x - z + 3 = 0 (normal (1, 0, -1), offset -3). The rays have
        # z = 1, so the hit's z is the ray parameter t.
        dirs = np.c_[(xs + 0.5 - 10.0) / 100.0, (ys + 0.5 - 10.0) / 100.0, np.ones(len(xs))]
        t = 3.0 / (dirs[:, 2] - dirs[:, 0])
        np.testing.assert_allclose(res.depth, t, rtol=1e-12, atol=0)

    def test_constant_depth_stays_constant(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        w = np.full(3, 2.5)
        res = full_raster(xy, w, np.array([[0, 1, 2]]), 10, 10)
        assert res.mask.sum() > 40
        np.testing.assert_allclose(frames(res)[1][res.mask], 2.5, rtol=1e-15, atol=0)

    def test_depth_w_interpolates_perspectively(self):
        # Vertical edge pair with w 1 on the left, 3 on the right: at the
        # screen midpoint 1/w averages, so w = 1.5, not 2.
        xy = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
        w = np.array([1.0, 3.0, 3.0, 1.0])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        res = full_raster(xy, w, faces, 8, 8)
        mid = frames(res)[1][4, 3]  # pixel center x = 3.5
        inv = (1 - 3.5 / 8) * 1.0 + (3.5 / 8) * (1 / 3.0)
        assert mid == pytest.approx(1.0 / inv, rel=1e-12)


def raster_oracle(xy, w, faces, width, height):
    """Every pixel center against every face, with rasterize's arithmetic.

    A face counts when its w are positive, its vertices finite and its
    doubled area above 1e-12; a pixel is covered when all three edge
    functions are >= 0 at its center. The smallest depth wins, and faces
    run in index order with a strict test, so an exact tie keeps the
    lowest index.
    """
    face_index = np.full((height, width), -1)
    depth = np.full((height, width), np.inf)
    for f, (i, j, k) in enumerate(faces):
        if not (min(w[i], w[j], w[k]) > 0 and np.isfinite(xy[[i, j, k]]).all()):
            continue
        (ax, ay), (bx, by), (qx, qy) = xy[i], xy[j], xy[k]
        area = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
        if not abs(area) > raster._AREA_EPS:
            continue
        iw = 1.0 / w[[i, j, k]]
        for py in range(height):
            for px in range(width):
                cx, cy = px + 0.5, py + 0.5
                l0 = ((by - qy) * (cx - qx) + (qx - bx) * (cy - qy)) / area
                l1 = ((qy - ay) * (cx - qx) + (ax - qx) * (cy - qy)) / area
                l2 = 1.0 - l0 - l1
                if l0 >= 0 and l1 >= 0 and l2 >= 0:
                    d = 1.0 / (l0 * iw[0] + l1 * iw[1] + l2 * iw[2])
                    if d < depth[py, px]:
                        depth[py, px] = d
                        face_index[py, px] = f
    return face_index, depth


# Quarter-pixel vertex positions put pixel centers exactly on edges and
# vertices; free floats cover the rest.
positions = st.one_of(
    st.integers(-8, 48).map(lambda k: k / 4.0),
    st.floats(-2.0, 12.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)
divisors = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def small_meshes(draw, coords=positions):
    """Projected vertices, w and faces; faces repeat (exact ties) and degenerate."""
    n = draw(st.integers(3, 7))
    xy = draw(hnp.arrays(float, (n, 2), elements=coords))
    w = draw(hnp.arrays(float, n, elements=divisors))
    faces = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=8))
    copies = draw(st.lists(st.integers(0, len(faces) - 1), max_size=3))
    return xy, w, np.array(faces + [faces[c] for c in copies])


def assert_matches_oracle(xy, w, faces, width, height, budget=None, block=None):
    """rasterize, optionally with a small chunk budget or span block, equals the oracle."""
    xy, w, faces = (np.asarray(a) for a in (xy, w, faces))
    # Warnings are errors: a vertex at w = 0 must not make 1/w warn.
    with mock.patch.object(raster, "_FRAGMENT_BUDGET", budget or raster._FRAGMENT_BUDGET), \
            mock.patch.object(raster, "_BLOCK", block or raster._BLOCK), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        res = full_raster(xy, w, faces, width, height)
    want_face, want_depth = raster_oracle(xy, w, faces, width, height)
    face, depth = frames(res)
    assert np.array_equal(face, want_face)
    assert np.array_equal(depth, want_depth)
    assert np.array_equal(res.covered, np.flatnonzero(want_face >= 0))
    return res


chunk_sizes = st.sampled_from([None, 5])
block_sizes = st.sampled_from([None, 3])


@settings(max_examples=150, deadline=None)
@given(mesh=small_meshes(), width=st.integers(1, 10), height=st.integers(1, 8),
       budget=chunk_sizes, block=block_sizes)
def test_rasterize_matches_the_per_pixel_oracle(mesh, width, height, budget, block):
    # Repeated faces give exact depth ties; a budget of 5 splits them across chunks.
    assert_matches_oracle(*mesh, width, height, budget, block)


def doubled_area(a, b, q):
    return (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])


@st.composite
def slivers(draw):
    """A triangle whose doubled area is just above _AREA_EPS, plus a small mesh."""
    a = np.array([draw(positions), draw(positions)])
    angle = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.25, -0.25]),
                           st.floats(-1.0, 1.0))) * np.pi
    length = draw(st.floats(0.5, 16.0))
    d = length * np.array([np.cos(angle), np.sin(angle)])
    along = draw(st.floats(-0.5, 1.5))
    height = raster._AREA_EPS * draw(st.floats(1.01, 8.0)) / length
    q = a + along * d + height * np.array([-d[1], d[0]]) / length
    assume(abs(doubled_area(a, a + d, q)) > raster._AREA_EPS)
    xy, w, faces = draw(small_meshes())
    xy = np.concatenate([xy, [a, a + d, q]])
    w = np.concatenate([w, draw(hnp.arrays(float, 3, elements=st.floats(0.5, 4.0)))])
    n = len(xy)
    tri = [n - 3, n - 2, n - 1]
    return xy, w, np.concatenate([faces, [tri, tri[::-1]]])


@settings(max_examples=150, deadline=None)
@given(mesh=slivers(), width=st.integers(1, 12), height=st.integers(1, 10),
       budget=chunk_sizes, block=block_sizes)
def test_slivers_match_the_oracle(mesh, width, height, budget, block):
    assert_matches_oracle(*mesh, width, height, budget, block)


@st.composite
def long_thin_triangles(draw):
    """Up to three triangles 0.001-0.5 px thick that cross a 12 x 10 viewport."""
    xy, faces = [], []
    for _ in range(draw(st.integers(1, 3))):
        y0, y1 = draw(positions), draw(positions)
        start, end = [draw(st.floats(-60.0, -1.0)), y0], [draw(st.floats(13.0, 70.0)), y1]
        thick = draw(st.floats(0.001, 0.5))
        tip = draw(st.sampled_from([start, end]))
        q = [tip[0] + draw(st.floats(-1.0, 1.0)), tip[1] + thick]
        tri = np.array([start, end, q])
        if draw(st.booleans()):
            tri = tri[:, ::-1]  # vertical instead of horizontal
        faces.append(np.arange(3) + len(xy) * 3)
        xy.append(tri)
    xy = np.concatenate(xy)
    w = draw(hnp.arrays(float, len(xy), elements=st.floats(0.5, 4.0)))
    return xy, w, np.array(faces)


@settings(max_examples=100, deadline=None)
@given(mesh=long_thin_triangles(), budget=chunk_sizes, block=block_sizes)
def test_long_thin_triangles_match_the_oracle(mesh, budget, block):
    assert_matches_oracle(*mesh, 12, 10, budget, block)


# Multiples of 1/6: integers are pixel corners and half-integers pixel
# centers, so vertices sit on centers and edges run exactly through them.
grid_positions = st.integers(-12, 78).map(lambda k: k / 6.0)


@settings(max_examples=150, deadline=None)
@given(mesh=small_meshes(grid_positions), width=st.integers(1, 12),
       height=st.integers(1, 10), budget=chunk_sizes, block=block_sizes)
def test_vertices_on_pixel_centers_match_the_oracle(mesh, width, height, budget, block):
    assert_matches_oracle(*mesh, width, height, budget, block)


@st.composite
def grazing_edges(draw):
    """A triangle with an edge a few ulps beside a column (or row) of pixel centers.

    The triangle lies on the side of the edge away from the centers, so
    they are just outside it, where rounding can put the edge function at
    >= 0.
    """
    center = draw(st.integers(0, 9)) + 0.5
    side = draw(st.sampled_from([-1.0, 1.0]))
    jitter = st.integers(0, 3).map(lambda k: side * k * np.spacing(center))
    tri = np.array([
        [center + draw(jitter), draw(st.floats(-5.0, 3.0))],
        [center + draw(jitter), draw(st.floats(6.0, 15.0))],
        [center + side * draw(st.floats(0.5, 30.0)), draw(st.floats(-5.0, 15.0))],
    ])
    tri = tri[draw(st.permutations(range(3)))]
    if draw(st.booleans()):
        tri = tri[:, ::-1]
    w = draw(hnp.arrays(float, 3, elements=st.floats(0.5, 4.0)))
    return tri, w, np.array([[0, 1, 2]])


@settings(max_examples=150, deadline=None)
@given(mesh=grazing_edges(), budget=chunk_sizes, block=block_sizes)
def test_edges_grazing_pixel_centers_match_the_oracle(mesh, budget, block):
    # The span's one-pixel pad is what keeps such centers: their edge
    # function can round to >= 0 just outside the exact edge crossing.
    assert_matches_oracle(*mesh, 10, 10, budget, block)


far_positions = st.one_of(
    st.sampled_from([-1e6, 1e6]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    positions,
)


@settings(max_examples=150, deadline=None)
@given(mesh=small_meshes(far_positions), width=st.integers(1, 12),
       height=st.integers(1, 10), budget=chunk_sizes, block=block_sizes)
def test_far_vertices_clipped_to_the_viewport_match_the_oracle(mesh, width, height, budget, block):
    assert_matches_oracle(*mesh, width, height, budget, block)


@st.composite
def far_needles(draw):
    """Two vertices near a 10 x 8 viewport and one 1e7 to 1e15 px away.

    Such a needle's edge functions round over several pixels once the far
    vertex passes about 1e8 px, past what a one-pixel pad covers.
    """
    near = draw(hnp.arrays(float, (2, 2), elements=positions))
    angle = draw(st.floats(-np.pi, np.pi))
    far = draw(st.sampled_from([1e7, 1e9, 1e12, 1e15])) * np.array([np.cos(angle), np.sin(angle)])
    xy = np.concatenate([near, [far]])[draw(st.permutations(range(3)))]
    w = draw(hnp.arrays(float, 3, elements=st.floats(0.5, 4.0)))
    return xy, w, np.array([[0, 1, 2]])


@settings(max_examples=150, deadline=None)
@given(mesh=far_needles())
def test_far_needles_match_whole_box_rows(mesh):
    # Whole bounding-box rows are the candidates before spans: every pixel
    # center of the box gets the inside test.
    xy, w, faces = mesh
    got = full_raster(xy, w, faces, 10, 8)
    with mock.patch.object(raster, "_loose_faces", lambda tri, *_: np.ones(len(tri), bool)):
        want = full_raster(xy, w, faces, 10, 8)
    assert all(map(np.array_equal, frames(got), frames(want)))
    assert np.array_equal(got.covered, want.covered)


def grid_mesh(offset, jitter):
    """A 5 x 4 vertex grid, 3 px apart, over a 13 x 11 viewport, two faces per cell."""
    gy, gx = np.mgrid[0:4, 0:5]
    xy = np.c_[gx.ravel() * 3.0 + offset, gy.ravel() * 3.0 + offset]
    xy += np.sin(np.arange(len(xy)))[:, None] * jitter
    w = 1.0 + 0.1 * np.cos(np.arange(len(xy)))
    cells = (gy[:-1, :-1] * 5 + gx[:-1, :-1]).ravel()
    faces = np.concatenate([np.c_[cells, cells + 1, cells + 6], np.c_[cells, cells + 6, cells + 5]])
    return xy, w, faces


@pytest.mark.parametrize("block", [None, 3])
def test_no_shared_pixel_skips_the_sort(block):
    # A jittered grid whose edges miss every pixel center: no pixel is
    # covered twice.
    xy, w, faces = grid_mesh(0.3, [0.31, 0.17])
    res = assert_matches_oracle(xy, w, faces, 13, 11, block=block)
    assert res.mask.sum() > 60


def test_pixels_on_shared_edges_are_sorted():
    # Vertices on pixel centers put every cell diagonal through centers,
    # which both of its faces cover.
    xy, w, faces = grid_mesh(0.5, 0.0)
    assert_matches_oracle(xy, w, faces, 13, 11)


def test_vertex_at_w_zero_raises_no_warning():
    xy = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])
    w = np.array([1.0, 1.0, 1.0, 0.0])
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = full_raster(xy, w, faces, 8, 8)
    assert res.mask.sum() == 21
    assert (frames(res)[0][res.mask] == 0).all()


def test_non_finite_faces_are_dropped_without_a_warning():
    # Faces 0 and 1 are finite; face 2 has a NaN vertex, face 3 a +inf one
    # and face 4 three vertices at w = +inf.
    xy = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0],
                   [np.nan, 1.0], [3.0, np.inf], [1.0, 1.0], [7.0, 1.0], [1.0, 7.0]])
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.inf, np.inf, np.inf])
    faces = np.array([[0, 1, 2], [1, 3, 2], [4, 1, 3], [0, 5, 1], [6, 7, 8]])
    finite = full_raster(xy[:4], w[:4], faces[:2], 8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = full_raster(xy, w, faces, 8, 8)
    assert res.mask.sum() > 0
    for got, want in zip(frames(res), frames(finite)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(res.covered, finite.covered)


def test_faces_far_off_screen_are_dropped_without_a_warning():
    # Finite vertices past int64 range on each side of the image, as a
    # projector with fx = 1e30 gives; no bounding-box cast may warn.
    xy = np.array([[1e30, 1.0], [2e30, 1.0], [1e30, 5.0], [-2e30, 1.0], [-1e30, 1.0], [-1e30, 5.0],
                   [1.0, 1e30], [5.0, 1e30], [1.0, 2e30], [1.0, -2e30], [5.0, -1e30], [1.0, -1e30]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = full_raster(xy, np.ones(12), np.arange(12).reshape(4, 3), 8, 8)
    assert not res.mask.any()


def drawn_boxes(xy, w, faces, width, height, needed):
    """The clipped pixel-center boxes (x0, y0, x1, y1) of the needed faces drawn.

    A face is drawn as in ``raster_oracle``, with its w also finite; its
    box runs from floor(min - 0.5) to ceil(max - 0.5) on each axis,
    clipped to the grid, and is left out when the clip leaves it empty.
    """
    boxes = []
    for f in np.flatnonzero(needed):
        p = xy[faces[f]]
        (ax, ay), (bx, by), (qx, qy) = p
        area = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
        if not ((0 < w[faces[f]]).all() and (w[faces[f]] < np.inf).all()
                and np.isfinite(p).all() and abs(area) > raster._AREA_EPS):
            continue
        lo = np.maximum(np.floor(p.min(axis=0) - 0.5), 0)
        hi = np.minimum(np.ceil(p.max(axis=0) - 0.5), [width - 1, height - 1])
        if (lo <= hi).all():
            boxes.append((int(lo[0]), int(lo[1]), int(hi[0]) + 1, int(hi[1]) + 1))
    return boxes


@st.composite
def tile_edge_meshes(draw):
    """Small faces over a 26 x 22 grid whose boxes start and end on 4-px tile edges.

    Each vertex sits on a pixel center in column and row 4k - 1 or 4k, so
    a box's first or last pixel is the first or last of a tile of the
    default side wherever the rectangle's corner falls on a multiple of 4.
    """
    ends = st.sampled_from([4 * k + d for k in range(7) for d in (-0.5, 0.5)])
    n = draw(st.integers(3, 9))
    xy = draw(hnp.arrays(float, (n, 2), elements=ends))
    w = draw(hnp.arrays(float, n, elements=st.floats(0.5, 4.0)))
    faces = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=10))
    return xy, w, np.array(faces)


@settings(max_examples=250, deadline=None)
@given(mesh=st.one_of(small_meshes(), slivers(), small_meshes(far_positions), far_needles(),
                      tile_edge_meshes()),
       data=st.data(), budget=chunk_sizes, block=block_sizes, tile=st.sampled_from([None, 1, 3]))
def test_needed_boxes_get_the_bits_of_the_whole_grid(mesh, data, budget, block, tile):
    # Inside the pixel-center box of every needed face drawn, the
    # scissored raster is the full raster bit for bit. Every covered pixel
    # outside those boxes is won by a face that is not needed, in the
    # scissored raster and in the full one, and nothing is drawn outside
    # the rectangle around the boxes.
    xy, w, faces = mesh
    width, height = 26, 22
    needed = np.array(data.draw(st.lists(st.booleans(), min_size=len(faces), max_size=len(faces))))
    full = full_raster(xy, w, faces, width, height)
    with mock.patch.object(raster, "_FRAGMENT_BUDGET", budget or raster._FRAGMENT_BUDGET), \
            mock.patch.object(raster, "_BLOCK", block or raster._BLOCK), \
            mock.patch.object(raster, "_TILE", tile or raster._TILE):
        got = rasterize(xy, w, faces, width, height, needed)
    boxes = drawn_boxes(xy, w, faces, width, height, needed)
    y, x = np.indices((height, width))
    in_boxes = np.zeros((height, width), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        in_boxes |= (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
    in_rect = np.zeros((height, width), dtype=bool)
    if boxes:
        (x0, y0), (x1, y1) = np.min(boxes, axis=0)[:2], np.max(boxes, axis=0)[2:]
        in_rect = (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
    got_face, got_depth = frames(got)
    full_face, full_depth = frames(full)
    assert np.array_equal(got_face[in_boxes], full_face[in_boxes])
    assert np.array_equal(got_depth[in_boxes], full_depth[in_boxes])
    assert (got_face[~in_rect] == -1).all()
    assert np.array_equal(got.covered, np.flatnonzero(got_face >= 0))
    for face in (got_face, full_face):
        outside = face[~in_boxes]
        assert not needed[outside[outside >= 0]].any()


def test_tile_mask_sets_up_only_faces_near_the_needed_ones(monkeypatch):
    # A row of 50 faces 2 px apart over a 100 x 4 grid, with only the two
    # end faces needed: the rectangle spans the row, but only the faces
    # whose boxes touch the 4-px tiles of the end faces' boxes are set up.
    xs = np.arange(51) * 2.0
    xy = np.concatenate([np.c_[xs, np.zeros(51)], np.c_[xs, np.full(51, 3.0)]])
    faces = np.c_[np.arange(50), np.arange(50) + 1, np.arange(50) + 51]
    needed = np.zeros(50, dtype=bool)
    needed[[0, -1]] = True
    set_up = []
    real_faces = raster._faces

    def recording_faces(xy, w, faces):
        set_up.append(faces)
        return real_faces(xy, w, faces)

    monkeypatch.setattr(raster, "_faces", recording_faces)
    monkeypatch.setattr(raster, "_TILE", 4)
    got = rasterize(xy, np.ones(len(xy)), faces, 100, 4, needed)
    assert np.array_equal(set_up[-1], faces[[0, 1, 2, 47, 48, 49]])
    full_face, _ = frames(full_raster(xy, np.ones(len(xy)), faces, 100, 4))
    got_face, _ = frames(got)
    assert np.array_equal(got_face[:, :3], full_face[:, :3])
    assert np.array_equal(got_face[:, 97:], full_face[:, 97:])
    assert (got_face[:, 7:93] == -1).all()


def test_no_needed_face_drawn_draws_nothing():
    xy, _, faces = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    one = np.ones(1, dtype=bool)
    cases = [
        (xy, np.array([1.0, -0.5, 1.0]), faces, one),
        (xy, np.array([1.0, np.inf, 1.0]), faces, one),
        (xy[:0], np.ones(0), faces[:0], one[:0]),
        (xy + [20.0, 0.0], np.ones(3), faces, one),
        (xy, np.ones(3), faces, ~one),
    ]
    for args in cases:
        res = rasterize(*args[:3], 8, 6, args[3])
        assert not res.mask.any()
        assert res.covered.shape == res.depth.shape == res.face.shape == (0,)
