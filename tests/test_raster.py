"""Rasterizer tests: coverage, depth resolve, perspective-correct attributes."""

import numpy as np
import pytest

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
