"""Rasterizer tests: coverage, depth resolve, perspective-correct attributes."""

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


class TestCoverage:
    def test_right_triangle_pixel_count(self):
        xy, w, faces = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        res = rasterize(xy, w, faces, 8, 8)
        # Pixel centers (x+.5, y+.5) with x,y >= 0 and (x+.5)+(y+.5) <= 4.
        assert int(res.mask.sum()) == 10
        assert res.face_index[0, 0] == 0
        assert res.face_index[7, 7] == -1
        assert np.isinf(res.depth_w[7, 7])

    def test_winding_does_not_matter(self):
        xy, w, _ = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        a = rasterize(xy, w, np.array([[0, 1, 2]]), 8, 8)
        b = rasterize(xy, w, np.array([[0, 2, 1]]), 8, 8)
        assert np.array_equal(a.mask, b.mask)

    def test_offscreen_clipped(self):
        xy, w, faces = tri([[-100.0, -100.0], [300.0, -100.0], [-100.0, 300.0]])
        res = rasterize(xy, w, faces, 4, 4)
        assert res.mask.all()

    def test_fully_outside(self):
        xy, w, faces = tri([[10.0, 10.0], [12.0, 10.0], [10.0, 12.0]])
        res = rasterize(xy, w, faces, 4, 4)
        assert not res.mask.any()

    def test_degenerate_face_skipped(self):
        xy, w, faces = tri([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
        res = rasterize(xy, w, faces, 8, 8)
        assert not res.mask.any()

    def test_nonpositive_w_face_skipped(self):
        xy, _, faces = tri([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        res = rasterize(xy, np.array([1.0, -0.5, 1.0]), faces, 8, 8)
        assert not res.mask.any()

    def test_empty_inputs(self):
        res = rasterize(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3), dtype=int), 4, 4)
        assert not res.mask.any()
        assert res.attributes == {}

    def test_empty_inputs_keep_attribute_channels(self):
        # A mesh with no vertices, as the depth sensor gives when it sees nothing.
        res = rasterize(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3), dtype=int), 4, 4,
                        attributes={"world": np.zeros((0, 3))})
        assert not res.mask.any()
        assert res.attributes["world"].shape == (4, 4, 3)
        assert not res.attributes["world"].any()


class TestDepthResolve:
    def test_nearer_face_wins(self):
        xy = np.array(
            [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]
        )
        w = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        res = rasterize(xy, w, faces, 4, 4)
        assert (res.face_index[res.mask] == 1).all()
        assert np.allclose(res.depth_w[res.mask], 1.0)

    def test_equal_depth_keeps_lower_face_index(self):
        xy = np.array(
            [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]
        )
        w = np.ones(6)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        res = rasterize(xy, w, faces, 4, 4)
        assert (res.face_index[res.mask] == 0).all()

    def test_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 40
        xy = rng.uniform(-2, 18, size=(n * 3, 2))
        w = rng.uniform(0.5, 5.0, size=n * 3)
        faces = np.arange(n * 3).reshape(n, 3)
        attrs = {"c": rng.uniform(0, 1, size=(n * 3, 3))}
        full = rasterize(xy, w, faces, 16, 16, attrs)
        monkeypatch.setattr(raster, "_FRAGMENT_BUDGET", 7)
        tiny = rasterize(xy, w, faces, 16, 16, attrs)
        assert np.array_equal(full.face_index, tiny.face_index)
        assert np.array_equal(full.depth_w, tiny.depth_w)
        assert np.array_equal(full.attributes["c"], tiny.attributes["c"])

    def test_face_chunks_match_greedy_packing(self, monkeypatch):
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
            monkeypatch.setattr(raster, "_FRAGMENT_BUDGET", budget)
            for n in (0, 1, 30):
                counts = rng.integers(1, 40, size=n)
                got = [(c.start, c.stop) for c in raster._face_chunks(counts)]
                assert got == greedy(counts, budget)


def pinhole_xy(points, f=100.0, c=10.0):
    points = np.asarray(points, dtype=float)
    z = points[:, 2]
    return np.c_[f * points[:, 0] / z + c, f * points[:, 1] / z + c], z


class TestPerspectiveCorrectness:
    def test_world_attribute_matches_ray_plane_intersection(self):
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
        res = rasterize(xy, w, faces, 20, 20, {"world": verts})
        assert res.mask.sum() > 50
        ys, xs = np.nonzero(res.mask)
        interp = res.attributes["world"][ys, xs]
        # Independent oracle: intersect each pixel ray with the plane
        # x - z + 3 = 0 (normal (1, 0, -1), offset -3).
        dirs = np.c_[(xs + 0.5 - 10.0) / 100.0, (ys + 0.5 - 10.0) / 100.0, np.ones(len(xs))]
        t = 3.0 / (dirs[:, 2] - dirs[:, 0])
        expected = dirs * t[:, None]
        assert np.abs(interp - expected).max() < 1e-9

    def test_linear_screen_attribute_on_constant_depth(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        w = np.full(3, 2.5)
        attr = xy.copy()  # equals pixel position when depth is constant
        res = rasterize(xy, w, np.array([[0, 1, 2]]), 10, 10, {"p": attr})
        ys, xs = np.nonzero(res.mask)
        got = res.attributes["p"][ys, xs]
        want = np.c_[xs + 0.5, ys + 0.5]
        assert np.abs(got - want).max() < 1e-10
        assert np.allclose(res.depth_w[res.mask], 2.5)

    def test_depth_w_interpolates_perspectively(self):
        # Vertical edge pair with w 1 on the left, 3 on the right: at the
        # screen midpoint 1/w averages, so w = 1.5, not 2.
        xy = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
        w = np.array([1.0, 3.0, 3.0, 1.0])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        res = rasterize(xy, w, faces, 8, 8)
        mid = res.depth_w[4, 3]  # pixel center x = 3.5
        inv = (1 - 3.5 / 8) * 1.0 + (3.5 / 8) * (1 / 3.0)
        assert mid == pytest.approx(1.0 / inv, rel=1e-12)


def raster_oracle(xy, w, faces, width, height, attr):
    """Every pixel center against every face, with rasterize's arithmetic.

    A face counts when its w are positive, its vertices finite and its
    doubled area above 1e-12; a pixel is covered when all three edge
    functions are >= 0 at its center. The smallest depth wins, and faces
    run in index order with a strict test, so an exact tie keeps the
    lowest index. The winner's vertex attribute ``attr`` is interpolated
    perspective-correctly.
    """
    face_index = np.full((height, width), -1)
    depth = np.full((height, width), np.inf)
    values = np.zeros((height, width, attr.shape[1]))
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
                        lw = [l0 * iw[0] * d, l1 * iw[1] * d, l2 * iw[2] * d]
                        values[py, px] = attr[i] * lw[0] + attr[j] * lw[1] + attr[k] * lw[2]
    return face_index, depth, values


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
    attr = np.random.default_rng(len(xy)).uniform(-3.0, 3.0, size=(len(xy), 3))
    # Warnings are errors: a vertex at w = 0 must not make 1/w warn.
    with mock.patch.object(raster, "_FRAGMENT_BUDGET", budget or raster._FRAGMENT_BUDGET), \
            mock.patch.object(raster, "_BLOCK", block or raster._BLOCK), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rasterize(xy, w, faces, width, height, attributes={"world": attr})
    want_face, want_depth, want_world = raster_oracle(xy, w, faces, width, height, attr)
    assert np.array_equal(res.face_index, want_face)
    assert np.array_equal(res.depth_w, want_depth)
    assert np.array_equal(res.attributes["world"], want_world)
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
    attr = np.random.default_rng(0).uniform(-3.0, 3.0, size=(3, 3))
    got = rasterize(xy, w, faces, 10, 8, attributes={"world": attr})
    with mock.patch.object(raster, "_loose_faces", lambda tri, *_: np.ones(len(tri), bool)):
        want = rasterize(xy, w, faces, 10, 8, attributes={"world": attr})
    assert np.array_equal(got.face_index, want.face_index)
    assert np.array_equal(got.depth_w, want.depth_w)
    assert np.array_equal(got.attributes["world"], want.attributes["world"])


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
    xy, w, faces = grid_mesh(0.3, [0.31, 0.17])
    with mock.patch.object(raster.np, "lexsort", wraps=np.lexsort) as sort:
        res = assert_matches_oracle(xy, w, faces, 13, 11, block=block)
    assert res.mask.sum() > 60
    assert sort.call_count == 0


def test_pixels_on_shared_edges_are_sorted():
    # Vertices on pixel centers put every cell diagonal through centers,
    # which both of its faces cover.
    xy, w, faces = grid_mesh(0.5, 0.0)
    with mock.patch.object(raster.np, "lexsort", wraps=np.lexsort) as sort:
        assert_matches_oracle(xy, w, faces, 13, 11)
    assert sort.call_count > 0


def test_vertex_at_w_zero_raises_no_warning():
    xy = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])
    w = np.array([1.0, 1.0, 1.0, 0.0])
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rasterize(xy, w, faces, 8, 8, attributes={"world": np.c_[xy, w]})
    assert res.mask.sum() == 21
    assert (res.face_index[res.mask] == 0).all()
