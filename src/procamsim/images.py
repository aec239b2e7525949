"""Raster image helpers: PPM I/O, optional PNG, sampling and markers.

Images are numpy arrays of shape (height, width, channels), with three
channels for color and one for gray content such as the checker test
pattern; ``bilinear_sample`` does its per-channel work once per channel.
Image files, and the arrays read from or written to them, have three
channels. Files are binary PPM
(P6, maxval 255), which needs no third-party code; ``.png`` paths work when
Pillow is installed (the ``png`` extra). Continuous pixel coordinates put
the center of pixel (0, 0) at (0.5, 0.5).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ImageFormatError

# Samples per block in ``bilinear_sample``.
_SAMPLE_BLOCK = 1 << 14


def to_uint8(values) -> np.ndarray:
    """``values`` rounded half to even and clipped to [0, 255], as uint8."""
    return np.clip(np.round(values), 0, 255).astype(np.uint8)


def _as_uint8(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected a (H, W, 3) image, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        return arr
    return to_uint8(arr)


def write_ppm(path, image: np.ndarray) -> None:
    """Write a binary P6 PPM with maxval 255."""
    arr = np.ascontiguousarray(_as_uint8(image))
    with open(path, "wb") as f:
        f.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        f.write(arr.data)


def _check_size(path, width: int, height: int) -> None:
    """An image read from a file needs at least one pixel on each side."""
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: image size must be positive, got {width}x{height}")


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM (maxval 255) into a (H, W, 3) uint8 array."""
    data = Path(path).read_bytes()

    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ImageFormatError(f"{path}: truncated PPM header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end == -1 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P6":
        raise ImageFormatError(f"{path}: not a binary PPM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ImageFormatError(f"{path}: bad PPM header") from exc
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    _check_size(path, width, height)
    pos += 1  # single whitespace byte after the maxval token
    expected = width * height * 3
    pixels = data[pos : pos + expected]
    if len(pixels) != expected:
        raise ImageFormatError(f"{path}: truncated PPM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3).copy()


def write_image(path, image: np.ndarray) -> None:
    """Write PPM always; PNG when Pillow is available."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        write_ppm(path, image)
        return
    if suffix == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise ImageFormatError(
                "PNG output needs Pillow; install the 'png' extra or use .ppm"
            ) from exc
        Image.fromarray(_as_uint8(image), mode="RGB").save(path)
        return
    raise ImageFormatError(f"unsupported image format {suffix!r}; use .ppm or .png")


def read_image(path) -> np.ndarray:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    if suffix == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise ImageFormatError(
                "PNG input needs Pillow; install the 'png' extra or use .ppm"
            ) from exc
        with Image.open(path) as img:
            _check_size(path, img.width, img.height)
            return np.asarray(img.convert("RGB"), dtype=np.uint8)
    raise ImageFormatError(f"unsupported image format {suffix!r}; use .ppm or .png")


def bilinear_sample(image: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Bilinear samples at continuous pixel coordinates, black outside.

    ``xy`` is (..., 2) with (0.5, 0.5) at the center of pixel (0, 0).
    Samples beyond the border blend toward black (the image is conceptually
    surrounded by black), and far-outside or NaN coordinates return black.
    Each block of samples pads only the window of the image that it reads.
    Returns float64 of shape (..., channels), a view of one row per channel.
    """
    img = np.asarray(image)
    if img.ndim == 2:
        img = img[..., None]
    h, w, channels = img.shape

    pts = np.asarray(xy, dtype=np.float64)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 2)
    out = np.empty((channels, len(pts)))  # one row per channel, returned transposed
    # Blocks of samples, computed in place, keep each step's arrays in a core's cache.
    rows = np.empty((6, min(len(pts), _SAMPLE_BLOCK)))
    index = np.empty(rows.shape[1], dtype=np.int64)
    texels = np.empty(rows.shape[1], dtype=img.dtype)
    for start in range(0, len(pts), _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        fx, fy, gx, gy, x0, y0 = rows[:, : len(pts[block])]
        i00, t = index[: len(fx)], texels[: len(fx)]
        # Texel index space (texel i is centered at i); +1 for the padding
        # ring. Clamping to the ring keeps far-outside samples black;
        # fmax/fmin send NaN to the ring as well, where np.clip would keep it.
        for f, g, f0, coord, limit in zip((fx, fy), (gx, gy), (x0, y0), pts[block].T, (w, h)):
            np.fmin(np.fmax(np.subtract(coord, 0.5, out=f), -1.0, out=f), limit, out=f)
            f += 1.0
            np.minimum(np.floor(f, out=f0), limit, out=f0)
            f -= f0  # the weights of the far texel (f) and the near one (g)
            np.subtract(1, f, out=g)
        # The padded texels this block reads, [xa, xb] x [ya, yb], as one
        # zeroed plane per channel. Padded texel j is image texel j - 1, and
        # the black ring outside the image stays 0.
        top_left = rows[4:, : len(fx)]  # x0 and y0
        (xa, ya), (xb, yb) = top_left.min(axis=1).astype(int), top_left.max(axis=1).astype(int) + 1
        row = xb - xa + 1
        planes = np.zeros((channels, yb - ya + 1, row), dtype=img.dtype)
        inner = np.moveaxis(img[max(ya - 1, 0) : yb, max(xa - 1, 0) : xb], -1, 0)
        dy, dx = int(ya == 0), int(xa == 0)  # a ring row above, a ring column to the left
        planes[:, dy : dy + inner.shape[1], dx : dx + inner.shape[2]] = inner
        planes = planes.reshape(channels, -1)
        x0 -= xa
        y0 -= ya
        # Flat index of each sample's top-left texel. The other three
        # corners are the same index into the plane shifted by 1, a row and
        # a row plus 1, so no further index arrays are built.
        np.add(np.multiply(y0, row, out=y0), x0, out=i00, casting="unsafe")
        prod, bottom = x0, y0  # free again
        for c, plane in enumerate(planes):
            # In place, with the same operations in the same order as
            # top * (1 - fy) + bottom * fy over the two row blends. Every
            # index is in range; mode="clip" only spares np.take a buffer.
            top = out[c, block]
            np.multiply(np.take(plane, i00, out=t, mode="clip"), gx, out=top)
            top += np.multiply(np.take(plane[1:], i00, out=t, mode="clip"), fx, out=prod)
            np.multiply(np.take(plane[row:], i00, out=t, mode="clip"), gx, out=bottom)
            bottom += np.multiply(np.take(plane[row + 1 :], i00, out=t, mode="clip"), fx, out=prod)
            top *= gy
            bottom *= fy
            top += bottom
    return out.T.reshape(*shape, channels)


def draw_marker(image: np.ndarray, xy, color, half_size: int = 4) -> None:
    """Draw a cross centered at a continuous pixel coordinate, in place."""
    h, w = image.shape[:2]
    cx = int(np.floor(xy[0]))
    cy = int(np.floor(xy[1]))
    color = np.asarray(color, dtype=image.dtype)
    xs = np.arange(cx - half_size, cx + half_size + 1)
    xs = xs[(xs >= 0) & (xs < w)]
    if 0 <= cy < h:
        image[cy, xs] = color
    ys = np.arange(cy - half_size, cy + half_size + 1)
    ys = ys[(ys >= 0) & (ys < h)]
    if 0 <= cx < w:
        image[ys, cx] = color
