"""PPM I/O, sampling and marker tests."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import procamsim.images as images
from procamsim.errors import ImageFormatError
from procamsim.images import (
    bilinear_sample,
    draw_marker,
    read_image,
    read_ppm,
    write_image,
    write_ppm,
)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(7, 11, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, img)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.full((2, 3, 3), (1, 2, 3), dtype=np.uint8))
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 3 * 2 * 3

    def test_strided_image_writes_the_bytes_of_its_copy(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, size=(6, 10, 3), dtype=np.uint8)
        strided = img[::2, 1::3]
        path = tmp_path / "s.ppm"
        write_ppm(path, strided)
        assert path.read_bytes() == b"P6\n3 3\n255\n" + strided.copy().tobytes()

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0", b"-1 -1"])
    def test_rejects_a_size_without_pixels(self, tmp_path, size):
        path = tmp_path / "z.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + b"\x00" * 3)
        with pytest.raises(ImageFormatError, match="image size must be positive"):
            read_ppm(path)

    def test_reads_comments_in_header(self, tmp_path):
        pixels = bytes(range(2 * 1 * 3))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n2 1\n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img.ravel().tolist() == list(range(6))

    def test_float_input_is_clipped_and_rounded(self, tmp_path):
        img = np.array([[[-5.0, 127.4, 300.0]]])
        path = tmp_path / "f.ppm"
        write_ppm(path, img)
        assert read_ppm(path).ravel().tolist() == [0, 127, 255]

    def test_rejects_ascii_ppm(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(ImageFormatError):
            read_ppm(path)


class TestWriteImage:
    def test_dispatches_ppm(self, tmp_path):
        img = np.full((3, 4, 3), (9, 8, 7), dtype=np.uint8)
        path = tmp_path / "a.ppm"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_png_round_trip_when_pillow_present(self, tmp_path):
        pytest.importorskip("PIL")
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8)
        path = tmp_path / "a.png"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_image(tmp_path / "a.tiff", np.full((2, 2, 3), 0, dtype=np.uint8))
        with pytest.raises(ImageFormatError):
            read_image(tmp_path / "a.bmp")


def float64_sampler(image, xy):
    """Reference sampler: the image copied to float64 and gathered by (row, column)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[..., None]
    h, w = img.shape[:2]
    padded = np.zeros((h + 2, w + 2, img.shape[2]), dtype=np.float64)
    padded[1:-1, 1:-1] = img

    pts = np.asarray(xy, dtype=np.float64)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 2)
    x = np.clip(pts[:, 0] - 0.5, -1.0, w) + 1.0
    y = np.clip(pts[:, 1] - 0.5, -1.0, h) + 1.0
    x0 = np.minimum(np.floor(x).astype(np.int64), w)
    y0 = np.minimum(np.floor(y).astype(np.int64), h)
    fx = x - x0
    fy = y - y0
    x1 = x0 + 1
    y1 = y0 + 1
    top = padded[y0, x0] * (1 - fx)[:, None] + padded[y0, x1] * fx[:, None]
    bottom = padded[y1, x0] * (1 - fx)[:, None] + padded[y1, x1] * fx[:, None]
    out = top * (1 - fy)[:, None] + bottom * fy[:, None]
    return out.reshape(*shape, img.shape[2])


def oracle_points(rng, w, h):
    """Random points over and around a w x h image, its border ring, +-inf and far outside."""
    inside = rng.uniform([-3.0, -3.0], [w + 3.0, h + 3.0], size=(500, 2))
    ring_x = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, w - 0.5, w, w + 0.5, w + 1.0])
    ring_y = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, h - 0.5, h, h + 0.5, h + 1.0])
    ring = np.stack(np.meshgrid(ring_x, ring_y), axis=-1).reshape(-1, 2)
    extremes = np.array([-np.inf, -1e300, -1e6, 1.5, 1e6, 1e300, np.inf])
    far = np.stack(np.meshgrid(extremes, extremes), axis=-1).reshape(-1, 2)
    return np.concatenate([inside, ring, far])


# Three- and four-channel, single-channel and 2-D images.
ORACLE_SHAPES = [(7, 9, 3), (6, 10, 3), (5, 8), (4, 7), (7, 9, 1), (6, 10, 4)]
ORACLE_DTYPES = [np.uint8, np.float32, np.float64]


def oracle_image(rng, dtype, shape):
    if dtype == np.uint8:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.uniform(-50.0, 300.0, size=shape).astype(dtype)


class TestBilinearSample:
    def gradient(self):
        img = np.zeros((4, 5, 3))
        img[..., 0] = np.arange(5)[None, :] * 10
        img[..., 1] = np.arange(4)[:, None] * 10
        img[..., 2] = 7.0
        return img

    def test_exact_at_texel_centers(self):
        img = self.gradient()
        xy = np.array([[x + 0.5, y + 0.5] for y in range(4) for x in range(5)])
        out = bilinear_sample(img, xy).reshape(4, 5, 3)
        assert np.abs(out - img).max() < 1e-12

    def test_midpoint_averages_neighbors(self):
        img = self.gradient()
        out = bilinear_sample(img, np.array([1.0, 0.5]))
        assert out.ravel()[0] == pytest.approx((0 + 10) / 2)
        out = bilinear_sample(img, np.array([0.5, 1.0]))
        assert out.ravel()[1] == pytest.approx((0 + 10) / 2)

    def test_border_blends_to_black(self):
        img = np.full((3, 3, 3), 200.0)
        on_edge = bilinear_sample(img, np.array([0.0, 1.5]))
        assert np.allclose(on_edge, 100.0)
        at_corner = bilinear_sample(img, np.array([0.0, 0.0]))
        assert np.allclose(at_corner, 50.0)

    def test_far_outside_is_black(self):
        img = np.full((3, 3, 3), 200.0)
        for xy in ([-10.0, 1.5], [1.5, 50.0], [3000.0, 1.5], [-0.5, -0.5], [3.5, 1.5]):
            assert np.allclose(bilinear_sample(img, np.array(xy)), 0.0)

    def test_preserves_leading_shape(self):
        img = self.gradient()
        xy = np.full((2, 3, 2), 1.5)
        assert bilinear_sample(img, xy).shape == (2, 3, 3)

    def test_single_channel_image(self):
        img = np.arange(12, dtype=float).reshape(3, 4)
        out = bilinear_sample(img, np.array([1.5, 1.5]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_float64_oracle(self, dtype, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[1])
        img = oracle_image(rng, dtype, shape)
        xy = oracle_points(rng, shape[1], shape[0])
        got = bilinear_sample(img, xy)
        assert got.dtype == np.float64
        assert np.array_equal(got, float64_sampler(img, xy))

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_blocks_of_8_match_float64_oracle(self, monkeypatch, dtype, shape):
        monkeypatch.setattr(images, "_SAMPLE_BLOCK", 8)
        rng = np.random.default_rng(len(shape) * 100 + shape[1] + 1)
        img = oracle_image(rng, dtype, shape)
        xy = oracle_points(rng, shape[1], shape[0])  # 630 samples, 78 blocks and 6
        got = bilinear_sample(img, xy)
        assert np.array_equal(got, float64_sampler(img, xy))

    def test_blocks_of_samples_match_float64_oracle(self, monkeypatch):
        monkeypatch.setattr(images, "_SAMPLE_BLOCK", 8)
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
        xy = oracle_points(rng, 9, 7).reshape(-1, 3, 2)  # 630 samples, 78 blocks and 6
        got = bilinear_sample(img, xy)
        assert got.shape == (210, 3, 3)
        assert np.array_equal(got, float64_sampler(img, xy))

    @pytest.mark.parametrize("block", [8, None])
    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_point_layouts_match_float64_oracle(self, monkeypatch, block, dtype, shape):
        # Per-axis rows seen as (K, 2), as the warp passes its points, and
        # an (h, w, 2) grid, as the uncorrected framebuffer does.
        monkeypatch.setattr(images, "_SAMPLE_BLOCK", block or images._SAMPLE_BLOCK)
        rng = np.random.default_rng(len(shape) * 100 + shape[1] + 2)
        img = oracle_image(rng, dtype, shape)
        xy = oracle_points(rng, shape[1], shape[0])  # 630 samples
        want = float64_sampler(img, xy)
        rows = np.ascontiguousarray(xy.T)
        assert not rows.T.flags.c_contiguous
        assert np.array_equal(bilinear_sample(img, xy), want)
        assert np.array_equal(bilinear_sample(img, rows.T), want)
        got = bilinear_sample(img, xy.reshape(21, 30, 2))
        assert got.shape == (21, 30, want.shape[1])
        assert np.array_equal(got, want.reshape(21, 30, -1))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(ORACLE_DTYPES),
        size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
        block=st.sampled_from([8, None]),
    )
    def test_repeated_channels_sample_like_one(self, seed, dtype, size, block):
        rng = np.random.default_rng(seed)
        width, height = size
        gray = oracle_image(rng, dtype, (height, width, 1))
        xy = oracle_points(rng, width, height)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(images, "_SAMPLE_BLOCK", block or images._SAMPLE_BLOCK)
            one = bilinear_sample(gray, xy)
            three = bilinear_sample(np.repeat(gray, 3, axis=2), xy)
        assert three.shape == (len(xy), 3)
        for c in range(3):
            assert three[:, c].tobytes() == one[:, 0].tobytes()

    @pytest.mark.parametrize("width", [4, 5])  # padded rows of 6 and 7 texels
    def test_nan_coordinates_are_black(self, width):
        img = np.full((3, width, 3), 200, dtype=np.uint8)
        xy = np.array([[np.nan, 1.5], [2.5, np.nan], [np.nan, np.nan], [2.5, 1.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bilinear_sample(img, xy)
        assert out[:3].tolist() == [[0.0, 0.0, 0.0]] * 3
        assert out[3].tolist() == [200.0, 200.0, 200.0]


def window_cases(rng, w, h):
    """Point sets whose texel windows sit in every part of a w x h image and its ring."""
    cases = {}
    # Confined to each corner and edge (and the middle), within 0.6 px of
    # an anchor a texel center or less from the border.
    for name_y, ay in (("top", 0.7), ("middle", h / 2), ("bottom", h - 0.3)):
        for name_x, ax in (("left", 0.7), ("center", w / 2), ("right", w - 0.3)):
            cases[f"{name_y}-{name_x}"] = rng.uniform(
                [ax - 0.6, ay - 0.6], [ax + 0.6, ay + 0.6], size=(40, 2)
            )
    # Inside the ring band around the image, on each side.
    cases["ring"] = np.concatenate([
        rng.uniform([-1.0, -1.0], [0.0, h + 1.0], size=(10, 2)),
        rng.uniform([w, -1.0], [w + 1.0, h + 1.0], size=(10, 2)),
        rng.uniform([-1.0, -1.0], [w + 1.0, 0.0], size=(10, 2)),
        rng.uniform([-1.0, h], [w + 1.0, h + 1.0], size=(10, 2)),
    ])
    far = np.array([-np.inf, -1e300, -7.0, 1e6, 1e300, np.inf])
    cases["outside"] = np.stack(np.meshgrid(far, far), axis=-1).reshape(-1, 2)
    cases["nan"] = np.array([[np.nan, np.nan], [np.nan, 0.5], [0.5, np.nan], [np.nan, 1e300]])
    cases["one"] = np.array([[w / 3, h / 3]])
    # x0 + 1 lands on the far ring column, row or corner.
    cases["far-ring"] = np.array(
        [[w + 0.5, 0.5], [w + 0.5, h / 2], [0.5, h + 0.5], [w / 2, h + 0.5], [w + 0.5, h + 0.5]]
    )
    # Both ring corners: the window is the whole padded image.
    cases["whole"] = np.concatenate(
        [[[-1.0, -1.0], [w + 1.0, h + 1.0]], rng.uniform(0, [w, h], size=(20, 2))]
    )
    return cases


class TestSampleWindows:
    """Each block pads only the window it reads, with the bits of the whole-image sampler."""

    @pytest.mark.parametrize("block", [8, None])
    @pytest.mark.parametrize("dtype", ORACLE_DTYPES)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_windows_match_float64_oracle_and_one_call(self, monkeypatch, block, dtype, shape):
        monkeypatch.setattr(images, "_SAMPLE_BLOCK", block or images._SAMPLE_BLOCK)
        rng = np.random.default_rng(len(shape) * 100 + shape[1] + 3)
        img = oracle_image(rng, dtype, shape)
        cases = window_cases(rng, shape[1], shape[0])
        whole = bilinear_sample(img, np.concatenate(list(cases.values())))
        start = 0
        for name, xy in cases.items():
            got = bilinear_sample(img, xy)
            # NaN goes to the ring, as a far-negative coordinate does; the
            # oracle's integer cast has no NaN.
            want = float64_sampler(img, np.where(np.isnan(xy), -np.inf, xy))
            assert np.array_equal(got, want), name
            assert np.array_equal(got, whole[start : start + len(xy)]), name
            start += len(xy)

    def test_pads_only_the_window_it_reads(self):
        # 9,000 samples in a 3 x 3 texel corner of a 1000 x 800 RGB image
        # (2.4 MB): the call holds its 9,000 samples, their working rows and
        # a window of a few texels, never a padded copy of the image.
        img = np.random.default_rng(1).integers(0, 256, size=(800, 1000, 3), dtype=np.uint8)
        xy = np.random.default_rng(2).uniform(0.5, 2.5, size=(9000, 2))
        tracemalloc.start()
        try:
            got = bilinear_sample(img, xy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, float64_sampler(img, xy))
        assert peak < 120 * len(xy) < img.nbytes / 2


class TestDrawMarker:
    def test_draws_cross(self):
        img = np.full((9, 9, 3), 0, dtype=np.uint8)
        draw_marker(img, (4.5, 4.5), (255, 0, 0), half_size=2)
        assert np.array_equal(img[4, 4], [255, 0, 0])
        assert np.array_equal(img[4, 2], [255, 0, 0])
        assert np.array_equal(img[6, 4], [255, 0, 0])
        assert np.array_equal(img[3, 3], [0, 0, 0])
        assert (img != 0).any(axis=2).sum() == 9

    def test_clips_at_borders(self):
        img = np.full((5, 5, 3), 0, dtype=np.uint8)
        draw_marker(img, (0.2, 0.2), (0, 255, 0), half_size=3)
        draw_marker(img, (-20.0, 2.0), (0, 255, 0), half_size=3)
        draw_marker(img, (2.0, 40.0), (0, 255, 0), half_size=3)
        assert img[0, 0, 1] == 255
