"""Warp pipeline tests.

The key oracles:
- an identity configuration (projector co-located with the eye, focal
  lengths matched to the virtual screen) must reproduce the pass-1 image
  bit-for-bit through the full rasterize-and-resample pass 2;
- the uncorrected display on a plane is an exact 3x3 homography from
  projector pixels to virtual-screen pixels, assembled here from closed
  form matrices independently of the library's ray casting.
"""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import procamsim.scene as scene_module
import procamsim.warp as warp_module
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    project_points,
    rotation_about_axis,
)
from procamsim.images import bilinear_sample, to_uint8
from procamsim.raster import rasterize
from procamsim.scene import (
    Box,
    DepthNoiseModel,
    Plane,
    Scene,
    Sphere,
    TriangleMesh,
    grid_faces,
    reconstruct_mesh,
    sense_depth,
)
from procamsim.upr import EyePose, Viewport, upr_matrix
from procamsim.warp import (
    CheckerPattern,
    CornerPropagation,
    propagate_corners,
    propagate_corners_uncorrected,
    render_user_view,
    sample_equirect,
    simulate_projection_and_view,
    warp_to_projector,
)

from rigs import default_rig


class TestCheckerPattern:
    def test_corner_positions_oracle(self):
        pat = CheckerPattern(rows=5, cols=8, square_px=60)
        pos = pat.corner_positions(1920, 1080)
        assert pos.shape == (28, 2)
        # Board origin (720, 390); corner (i, j) at origin + (j+1, i+1)*60.
        assert pos[0].tolist() == [780.0, 450.0]
        assert pos[3 * 7 + 6].tolist() == [1140.0, 630.0]
        assert pos[7].tolist() == [780.0, 510.0]

    def test_render_checker_colors_around_corner(self):
        pat = CheckerPattern(rows=5, cols=8, square_px=60)
        img = pat.render(1920, 1080)
        assert img.shape == (1080, 1920, 1)
        # Around inner corner (780, 450): white/black in a checker layout.
        assert img[449, 779, 0] == 255
        assert img[450, 780, 0] == 255
        assert img[449, 780, 0] == 0
        assert img[450, 779, 0] == 0
        assert img[0, 0, 0] == 0  # outside the board

    @pytest.mark.parametrize(
        "pattern, size",
        [
            (CheckerPattern(rows=5, cols=8, square_px=60), (1920, 1080)),
            (CheckerPattern(rows=3, cols=4, square_px=40), (321, 241)),  # odd margins
            (CheckerPattern(rows=2, cols=3, square_px=7), (26, 17)),  # margins of 2 and 1 or 2
            (CheckerPattern(rows=4, cols=2, square_px=5), (10, 20)),  # no margin
        ],
    )
    def test_rgb_expansion_matches_a_per_pixel_checker(self, pattern, size):
        width, height = size
        s = pattern.square_px
        x0 = (width - pattern.cols * s) // 2
        y0 = (height - pattern.rows * s) // 2
        y, x = np.indices((height, width))
        on_board = (
            (x >= x0) & (x < x0 + pattern.cols * s) & (y >= y0) & (y < y0 + pattern.rows * s)
        )
        white = on_board & (((x - x0) // s + (y - y0) // s) % 2 == 0)
        want = np.zeros((height, width, 3), dtype=np.uint8)
        want[white] = (255, 255, 255)
        img = pattern.render(width, height)
        assert img.dtype == np.uint8 and img.shape == (height, width, 1)
        assert np.array_equal(np.repeat(img, 3, axis=2), want)

    def test_render_requires_fit(self):
        with pytest.raises(ValueError):
            CheckerPattern(rows=5, cols=8, square_px=60).render(320, 240)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckerPattern(rows=1, cols=8)
        with pytest.raises(ValueError):
            CheckerPattern(square_px=0)


def equirect_reference(image, dirs):
    """Bilinear equirect lookup written out: wrap in x, clamp y to the row centres."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    d = np.asarray(dirs, dtype=float).reshape(-1, 3)
    norm = np.linalg.norm(d, axis=1)
    norm = np.where(norm > 0, norm, 1.0)
    lon = np.arctan2(d[:, 0], d[:, 2])
    lat = np.arcsin(np.clip(d[:, 1] / norm, -1.0, 1.0))
    u = (lon / (2.0 * math.pi) + 0.5) * w
    v = (lat / math.pi + 0.5) * h

    x = u - 0.5
    y = np.clip(v - 0.5, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    x0m = np.mod(x0, w)
    x1m = np.mod(x0 + 1, w)
    y1 = np.minimum(y0 + 1, h - 1)
    top = img[y0, x0m] * (1 - fx) + img[y0, x1m] * fx
    bottom = img[y1, x0m] * (1 - fx) + img[y1, x1m] * fx
    return top * (1 - fy) + bottom * fy


class TestEquirectContent:
    def test_forward_direction_center_column(self):
        img = np.zeros((4, 8, 3))
        img[:, :, 0] = np.arange(8)[None, :]
        out = sample_equirect(img, np.array([[0.0, 0.0, 1.0]]))
        # lon 0 -> u = 4.0 -> texels 3 and 4 blend equally.
        assert out[0, 0] == pytest.approx(3.5)

    def test_horizontal_wrap_is_seamless(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(6, 12, 3))
        left = sample_equirect(img, np.array([[-1e-9, 0.2, -1.0]]))
        right = sample_equirect(img, np.array([[1e-9, 0.2, -1.0]]))
        assert np.abs(left - right).max() < 1e-6

    def test_poles_clamp(self):
        img = np.zeros((4, 8, 3))
        img[0] = 10.0
        img[-1] = 90.0
        up = sample_equirect(img, np.array([[0.0, -1.0, 0.0]]))
        down = sample_equirect(img, np.array([[0.0, 1.0, 0.0]]))
        assert up[0, 0] == pytest.approx(10.0)
        assert down[0, 0] == pytest.approx(90.0)

    @pytest.mark.parametrize("shape", [(45, 90), (17, 31), (2, 3)])
    def test_matches_the_wrap_and_clamp_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        dirs = rng.normal(size=(100_000, 3))
        tiny = 1e-300
        special = np.array([
            [0.0, -1.0, 0.0], [0.0, 1.0, 0.0],  # the poles
            [0.0, -2.0, 1e-9], [1e-9, 3.0, 0.0],  # next to them
            [0.0, 0.0, -1.0], [-0.0, 0.0, -1.0],  # lon = +pi and -pi
            [tiny, 0.3, -1.0], [-tiny, 0.3, -1.0],  # either side of the seam
            [1e-9, -0.5, -1.0], [-1e-9, -0.5, -1.0],
            [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
        ])
        dirs = np.concatenate([dirs, special])
        got = sample_equirect(img, dirs)
        want = equirect_reference(img, dirs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(to_uint8(got), to_uint8(want))


def identity_setup(width=320, height=240):
    """Projector co-located with the eye, focals matched to the window.

    With the screen window w x h meters at distance |ez|, a projector at
    the eye with fx = |ez| * W / w and fy = |ez| * H / h maps pixel centers
    exactly onto pass-1 texel centers, so the warp must be the identity.
    """
    viewport = Viewport(width_px=width, height_px=height)
    eye = EyePose(0.0, 0.0, -1.5)
    upr = upr_matrix(eye, RigidTransform.identity())
    device = PinholeDevice(
        fx=1.5 * width / viewport.width_m,
        fy=1.5 * height / viewport.height_m,
        cx=width / 2,
        cy=height / 2,
        width=width,
        height=height,
    )
    proj_to_world = RigidTransform(np.eye(3), np.array([0.0, 0.0, -1.5]))
    wall = TriangleMesh(
        vertices=np.array(
            [[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [2.0, 2.0, 0.0], [-2.0, 2.0, 0.0]]
        ),
        faces=np.array([[0, 1, 2], [0, 2, 3]]),
        surface_id="screen-wall",
    )
    return viewport, upr, device, proj_to_world, wall


class TestWarpToProjector:
    def test_identity_configuration_reproduces_image_exactly(self):
        viewport, upr, device, proj_to_world, geometry = identity_setup()
        rng = np.random.default_rng(5)
        user_image = rng.integers(0, 256, size=(240, 320, 3), dtype=np.uint8)
        fb = warp_to_projector(user_image, geometry, upr, viewport, device, proj_to_world)
        assert np.array_equal(fb, user_image)

    def test_uncovered_pixels_are_black(self):
        viewport, upr, device, proj_to_world, geometry = identity_setup()
        # Shrink the wall so it covers only the center of the throw.
        small = TriangleMesh(
            vertices=np.array(
                [[-0.2, -0.2, 0.0], [0.2, -0.2, 0.0], [0.2, 0.2, 0.0], [-0.2, 0.2, 0.0]]
            ),
            faces=np.array([[0, 1, 2], [0, 2, 3]]),
            surface_id="patch",
        )
        user_image = np.full((240, 320, 3), 200, dtype=np.uint8)
        fb = warp_to_projector(
            user_image, small, upr, viewport, device, proj_to_world
        )
        assert fb[0, 0].tolist() == [0, 0, 0]
        assert fb[120, 160].tolist() == [200, 200, 200]

    def test_shifted_projector_resamples_consistently(self):
        # Move the projector; the framebuffer must still, after projection
        # onto the wall and mapping through the screen, show each pattern
        # pixel at its place: check via a rendered corner neighborhood.
        viewport, upr, device, proj_to_world, geometry = identity_setup()
        shifted = RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.radians(4.0)),
            np.array([0.3, -0.1, -1.4]),
        )
        pat = CheckerPattern(rows=3, cols=4, square_px=40)
        user_image = pat.render(320, 240)
        fb = warp_to_projector(user_image, geometry, upr, viewport, device, shifted)
        assert fb.shape == (240, 320, 3)
        assert int((fb > 128).sum()) > 500  # pattern content survived
        # The framebuffer must differ from the unwarped pattern.
        assert not np.array_equal(fb, np.repeat(user_image, 3, axis=2))


def bumpy_wall(rows=17, cols=21):
    """A grid mesh around z = 0 with a bump, for frames that vary per pixel."""
    gx, gy = np.meshgrid(np.linspace(-1.6, 1.6, cols), np.linspace(-1.2, 1.2, rows))
    gz = 0.3 * np.exp(-(gx**2 + gy**2))
    return TriangleMesh(np.c_[gx.ravel(), gy.ravel(), gz.ravel()], grid_faces(rows, cols))


class TestProjectorMapReuse:
    """The mesh keeps its last rasterized projector map for the next eye."""

    EYES = ((0.0, 0.0, -1.5), (0.2, -0.1, -1.4), (-0.25, 0.08, -1.6))

    def scenario(self):
        viewport, _, device, proj_to_world, _ = identity_setup()
        shifted = RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.radians(4.0)),
            np.array([0.3, -0.1, -1.4]),
        )
        user_image = CheckerPattern(rows=3, cols=4, square_px=40).render(320, 240)
        return viewport, device, (proj_to_world, shifted), user_image

    def test_reused_map_gives_the_bytes_of_a_fresh_mesh(self):
        viewport, device, poses, user_image = self.scenario()
        mesh = bumpy_wall()
        for pose in (*poses, poses[0]):
            for eye in self.EYES:
                upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
                fb = warp_to_projector(user_image, mesh, upr, viewport, device, pose)
                fresh = TriangleMesh(mesh.vertices, mesh.faces)
                want = warp_to_projector(user_image, fresh, upr, viewport, device, pose)
                assert fb.tobytes() == want.tobytes()
                assert (fb > 128).sum() > 1000

    def test_map_is_rasterized_again_only_for_a_new_projector(self, monkeypatch):
        viewport, device, (pose, shifted), user_image = self.scenario()
        calls = []

        def counting_rasterize(*args, **kwargs):
            calls.append(1)
            return rasterize(*args, **kwargs)

        monkeypatch.setattr(scene_module, "rasterize", counting_rasterize)
        mesh = bumpy_wall()
        upr = upr_matrix(EyePose(*self.EYES[1]), RigidTransform.identity())
        same_pose = RigidTransform(pose.rotation.copy(), pose.translation.copy())
        narrower = PinholeDevice(
            fx=device.fx * 0.9, fy=device.fy, cx=device.cx, cy=device.cy,
            width=device.width, height=device.height,
        )
        runs = [(device, pose), (device, same_pose), (narrower, same_pose), (narrower, shifted)]
        frames, counts = [], []
        for dev, p in runs:
            frames.append(warp_to_projector(user_image, mesh, upr, viewport, dev, p))
            counts.append(len(calls))
        assert counts == [1, 1, 2, 3]
        for (dev, p), fb in zip(runs, frames):
            fresh = TriangleMesh(mesh.vertices, mesh.faces)
            assert np.array_equal(fb, warp_to_projector(user_image, fresh, upr, viewport, dev, p))

    def test_mesh_arrays_are_read_only_copies(self):
        vertices = bumpy_wall().vertices.copy()
        faces = grid_faces(17, 21)
        mesh = TriangleMesh(vertices, faces)
        with pytest.raises(ValueError):
            mesh.vertices[0] = 0.0
        with pytest.raises(ValueError):
            mesh.faces[0] = 0
        vertices[0] = 9.0
        faces[0] = 1
        assert vertices.flags.writeable and faces.flags.writeable
        assert mesh.vertices[0, 0] != 9.0 and mesh.faces[0].tolist() != [1, 1, 1]

    def test_map_dies_with_the_mesh(self):
        viewport, device, (pose, _), user_image = self.scenario()
        mesh = bumpy_wall()
        upr = upr_matrix(EyePose(*self.EYES[0]), RigidTransform.identity())
        warp_to_projector(user_image, mesh, upr, viewport, device, pose)
        mesh_ref = weakref.ref(mesh)
        map_refs = [weakref.ref(a) for a in mesh.pixel_map(device, pose)]
        del mesh
        gc.collect()
        assert mesh_ref() is None
        assert [ref() for ref in map_refs] == [None, None]

    def test_map_holds_16_bytes_per_covered_pixel(self):
        viewport, device, (pose, _), user_image = self.scenario()
        mesh = bumpy_wall()
        covered, depth = mesh.pixel_map(device, pose)
        assert len(covered) > 10000
        assert covered.dtype == np.int64 and depth.dtype == np.float64
        assert covered.nbytes + depth.nbytes == 16 * len(covered)
        assert not covered.flags.writeable and not depth.flags.writeable

    def test_empty_mesh_gives_an_empty_map(self):
        # A mesh with no vertices, as the depth sensor gives when it sees nothing.
        viewport, device, (pose, _), user_image = self.scenario()
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        covered, depth = empty.pixel_map(device, pose)
        assert covered.shape == depth.shape == (0,)
        upr = upr_matrix(EyePose(*self.EYES[0]), RigidTransform.identity())
        assert not warp_to_projector(user_image, empty, upr, viewport, device, pose).any()


def screen_projection(mesh, upr, proj_device, proj_to_world):
    """The tail's screen projection over the whole map at once.

    The point at depth z behind projector pixel center p = (u, v, 1)
    projects to g0 / g2, g1 / g2 with g = A p + b / z, A = M3 R K^-1 and
    b = M3 t + M4, where M = [M3 | M4] is the screen projection and
    (R, t) the projector pose; its w is z g2. Returns the covered pixels,
    their (K, 2) screen coordinates and w.
    """
    covered, depth = mesh.pixel_map(proj_device, proj_to_world)
    m3, m4 = upr.matrix[:, :3], upr.matrix[:, 3]
    a = m3 @ proj_to_world.rotation @ np.linalg.inv(proj_device.matrix())
    b = m3 @ proj_to_world.translation + m4
    v = np.floor(covered / proj_device.width)
    u = covered - v * proj_device.width + 0.5
    v = v + 0.5
    inv_z = 1.0 / depth
    g = [u * a0 + v * a1 + a2 + inv_z * bi for (a0, a1, a2), bi in zip(a, b)]
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = np.c_[g[0] / g[2], g[1] / g[2]]
    return covered, xy, depth * g[2]


def pass1_coordinates(user_image, mesh, upr, viewport, proj_device, proj_to_world):
    """Each covered pixel's pass-1 image coordinates and w, over the whole map at once.

    The screen projection, the viewport's pixel formula and the rescale to
    the pass-1 image, in the tail's order of operations. Returns the covered
    pixels, x, y and w.
    """
    covered, xy_m, w = screen_projection(mesh, upr, proj_device, proj_to_world)
    img_h, img_w = user_image.shape[:2]
    x = (xy_m[:, 0] / viewport.width_m + 0.5) * viewport.width_px * (img_w / viewport.width_px)
    y = (xy_m[:, 1] / viewport.height_m + 0.5) * viewport.height_px * (img_h / viewport.height_px)
    return covered, x, y, w


def unscissored_tail(user_image, mesh, upr, viewport, proj_device, proj_to_world):
    """Oracle: the per-eye warp tail as one pass that samples every covered pixel.

    Pixels where w is not above 1e-9 get NaN coordinates, which the sampler
    turns black. One sampler call takes every covered pixel, whatever the
    content, then round, clip and scatter.
    """
    covered, x, y, w = pass1_coordinates(
        user_image, mesh, upr, viewport, proj_device, proj_to_world
    )
    behind = ~(w > 1e-9)
    x[behind] = y[behind] = np.nan
    samples = bilinear_sample(user_image, np.stack([x, y], axis=-1))
    fb = np.zeros((proj_device.height * proj_device.width, 3), dtype=np.uint8)
    fb[covered] = np.clip(np.round(samples), 0, 255).astype(np.uint8)
    return fb.reshape(proj_device.height, proj_device.width, 3)


def random_wall(seed, amplitude, rows=9, cols=11):
    """A grid mesh over the projector's throw, its depth within +-amplitude of z = 0."""
    gx, gy = np.meshgrid(np.linspace(-1.6, 1.6, cols), np.linspace(-1.2, 1.2, rows))
    gz = np.random.default_rng(seed).uniform(-amplitude, amplitude, size=gx.shape)
    return TriangleMesh(np.c_[gx.ravel(), gy.ravel(), gz.ravel()], grid_faces(rows, cols))


def pass1_image(seed, kind, width, height):
    rng = np.random.default_rng(seed)
    shape = (height, width) if kind.startswith("gray") else (height, width, 3)
    if kind.endswith("uint8"):
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    # Past both ends of [0, 255], so the quantizer clips.
    return rng.uniform(-40.0, 300.0, size=shape)


IMAGE_KINDS = ("uint8", "float64", "gray-uint8", "gray-float64")


class TestBlockedWarpOracle:
    """``warp_to_projector`` gives the bytes of the unscissored one-pass tail for any block size."""

    @staticmethod
    def both(block, user_image, mesh, upr, viewport, device, pose):
        with mock.patch.object(warp_module, "_BLOCK", block or warp_module._BLOCK):
            got = warp_to_projector(user_image, mesh, upr, viewport, device, pose)
        return got, unscissored_tail(user_image, mesh, upr, viewport, device, pose)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            # Eyes up to 0.6 m past the screen plane put parts of a wall
            # of depth +-0.7 m at w <= 0.
            st.floats(-1.4, 0.6).filter(lambda z: abs(z) > 0.05),
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        kind=st.sampled_from(IMAGE_KINDS),
        image_size=st.tuples(st.integers(1, 70), st.integers(1, 50)),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_matches_unblocked_tail(
        self, seed, eye, amplitude, kind, image_size, shifted, block
    ):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = RigidTransform(
                rotation_about_axis([0.0, 1.0, 0.0], math.radians(6.0)),
                np.array([0.2, -0.1, -1.4]),
            )
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        user_image = pass1_image(seed, kind, *image_size)
        got, want = self.both(block, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    def test_default_block_with_a_partial_last_block(self, kind):
        # 320 x 240 covered pixels: two whole blocks of 32,768 and 11,264 more.
        viewport, _, device, pose, _ = identity_setup(320, 240)
        mesh = random_wall(3, 0.5)
        upr = upr_matrix(EyePose(0.1, -0.05, -0.3), RigidTransform.identity())
        covered, _, w = screen_projection(mesh, upr, device, pose)
        assert len(covered) % warp_module._BLOCK == 76800 - 2 * 32768
        assert (w <= 1e-9).any() and (w > 1e-9).any()
        user_image = pass1_image(4, kind, 250, 170)
        got, want = self.both(None, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        assert (got > 0).sum() > 10000

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_mesh_off_the_throw_leaves_black(self, block):
        viewport, upr, device, pose, _ = identity_setup(32, 24)
        far = TriangleMesh(random_wall(5, 0.2).vertices + [40.0, 0.0, 0.0], grid_faces(9, 11))
        assert len(far.pixel_map(device, pose)[0]) == 0
        user_image = pass1_image(6, "uint8", 32, 24)
        got, want = self.both(block, user_image, far, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        assert not got.any()


EDGE_SPOTS = ("top-left", "top", "top-right", "left", "right", "bottom-left", "bottom", "bottom-right")


def edge_texel(spot, width, height):
    """(row, col) of an image corner or edge midpoint named like ``top-left``."""
    row = {"top": 0, "bottom": height - 1}.get(spot.split("-")[0], height // 2)
    col = {"left": 0, "right": width - 1}.get(spot.split("-")[-1], width // 2)
    return row, col


def scissored_content(seed, kind, width, height, margins, spot):
    """Pass-1 content that is black outside a box.

    The box is what ``margins`` (fractions of the width and height cut from
    the left, right, top and bottom) leave, or the single texel at ``spot``
    when it is given. Every texel in the box is non-zero, and float content
    gets up to two NaN texels there.
    """
    rng = np.random.default_rng(seed)
    image = pass1_image(seed, kind, width, height)
    image[image == 0] = 1
    keep = np.zeros((height, width), dtype=bool)
    if spot is None:
        left, right = (int(f * width) for f in margins[:2])
        top, bottom = (int(f * height) for f in margins[2:])
        keep[top : height - bottom, left : width - right] = True
    else:
        keep[edge_texel(spot, width, height)] = True
    image[~keep] = 0
    inside = np.flatnonzero(keep)
    if kind.endswith("float64") and len(inside):
        nan_at = rng.choice(inside, size=rng.integers(0, 3))
        image[np.unravel_index(nan_at, keep.shape)] = np.nan
    return image


class TestScissorBox:
    """Only pixels whose pass-1 coordinate can read a non-zero texel are sampled."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            st.floats(-1.4, 0.6).filter(lambda z: abs(z) > 0.05),
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        kind=st.sampled_from(IMAGE_KINDS),
        image_size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_matches_unscissored_tail(
        self, seed, eye, amplitude, kind, image_size, margins, spot, shifted, block
    ):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = RigidTransform(
                rotation_about_axis([0.0, 1.0, 0.0], math.radians(6.0)),
                np.array([0.2, -0.1, -1.4]),
            )
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = scissored_content(seed, kind, *image_size, margins, spot)
        # A NaN texel's sample warns as it is cast to a byte, in the tail
        # and in the oracle alike.
        with np.errstate(invalid="ignore"):
            got, want = TestBlockedWarpOracle.both(
                block, user_image, random_wall(seed, amplitude), upr, viewport, device, pose
            )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    def test_black_content_is_never_sampled(self, monkeypatch, kind):
        viewport, upr, device, pose, wall = identity_setup(32, 24)

        def no_sampler(image, xy):
            raise AssertionError("black content needs no samples")

        monkeypatch.setattr(warp_module, "bilinear_sample", no_sampler)
        black = np.zeros_like(pass1_image(13, kind, 40, 30))
        fb = warp_to_projector(black, wall, upr, viewport, device, pose)
        assert fb.shape == (24, 32, 3) and not fb.any()

    @pytest.mark.parametrize("shape", [(0, 0, 1), (0, 5, 3), (4, 0), (0, 0, 3)])
    def test_content_with_a_zero_side_gives_black(self, shape):
        viewport, upr, device, pose, wall = identity_setup(32, 24)
        fb = warp_to_projector(np.zeros(shape, dtype=np.uint8), wall, upr, viewport, device, pose)
        assert fb.shape == (24, 32, 3) and not fb.any()


class TestOneChannelContent:
    """Gray content gives the same bytes with one channel as with three equal ones."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            st.floats(-1.4, 0.6).filter(lambda z: abs(z) > 0.05),
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        kind=st.sampled_from(("gray-uint8", "gray-float64")),
        image_size=st.tuples(st.integers(1, 70), st.integers(1, 50)),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_one_channel_matches_its_rgb_expansion(
        self, seed, eye, amplitude, kind, image_size, shifted, block
    ):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = RigidTransform(
                rotation_about_axis([0.0, 1.0, 0.0], math.radians(6.0)),
                np.array([0.2, -0.1, -1.4]),
            )
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        gray = pass1_image(seed, kind, *image_size)[..., None]
        with mock.patch.object(warp_module, "_BLOCK", block or warp_module._BLOCK):
            got = warp_to_projector(gray, mesh, upr, viewport, device, pose)
            want = warp_to_projector(
                np.repeat(gray, 3, axis=2), mesh, upr, viewport, device, pose
            )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [2, 4])
    def test_two_and_four_channels_are_rejected(self, channels):
        viewport, upr, device, pose, wall = identity_setup(32, 24)
        user_image = np.zeros((24, 32, channels), dtype=np.uint8)
        with pytest.raises(ValueError, match="1 or 3 channels"):
            warp_to_projector(user_image, wall, upr, viewport, device, pose)


def interpolated_world(mesh, device, pose):
    """Reference: each covered pixel's world point, interpolated on the mesh.

    The winning face's vertices, weighted by the pixel center's
    perspective-correct barycentric coordinates (linear in 1/z). Returns
    the covered pixels and their (K, 3) world points.
    """
    uv, z = project_points(device, pose.inverse(), mesh.vertices)
    res = rasterize(uv, z, mesh.faces, device.width, device.height)
    faces = mesh.faces[res.face_index.reshape(-1)[res.covered]]
    row, col = np.divmod(res.covered, device.width)
    center = np.c_[col + 0.5, row + 0.5]
    a, b, c = (uv[faces[:, k]] for k in range(3))

    def cross(p, q):
        return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]

    area = cross(b - a, c - a)
    lb = cross(center - a, c - a) / area
    lc = cross(b - a, center - a) / area
    weights = np.c_[1.0 - lb - lc, lb, lc] / z[faces]
    weights /= weights.sum(axis=1, keepdims=True)
    return res.covered, np.einsum("kj,kjd->kd", weights, mesh.vertices[faces])


class TestScreenProjectionReference:
    """The per-eye 3x4 matrix on depth agrees with projecting interpolated world points."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            st.floats(-1.4, 0.6).filter(lambda z: abs(z) > 0.05),
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
        angle=st.floats(-8.0, 8.0),
        shift=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-1.8, -1.0)),
        skew=st.sampled_from([0.0, 2.5, -4.0]),
        center=st.tuples(st.floats(8.0, 24.0), st.floats(6.0, 18.0)),
    )
    def test_sampler_coordinates_match_the_reference(
        self, seed, eye, amplitude, axis, angle, shift, skew, center
    ):
        viewport, _, device, _, _ = identity_setup(32, 24)
        device = replace(device, skew=skew, cx=center[0], cy=center[1])
        pose = RigidTransform(
            rotation_about_axis(normalized(np.array(axis)), math.radians(angle)), np.array(shift)
        )
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        coords = []

        def tagging_sampler(image, xy):
            # Sample i (counted over the frame) reads i + 1 in its first two
            # bytes and 255 in the third, so the framebuffer shows which
            # pixel took which coordinate.
            tag = sum(map(len, coords)) + 1 + np.arange(len(xy))
            coords.append(np.array(xy))
            return np.stack([tag % 256, tag // 256, np.full(len(tag), 255)], axis=1).astype(float)

        user_image = pass1_image(seed, "uint8", viewport.width_px, viewport.height_px)
        user_image[:3] = user_image[:, -5:] = 0  # black margins the box leaves out
        rows, cols = (np.flatnonzero(user_image.any(axis=axis)) for axis in ((1, 2), (0, 2)))
        with mock.patch.object(warp_module, "bilinear_sample", tagging_sampler):
            fb = warp_to_projector(user_image, mesh, upr, viewport, device, pose)
        covered, world = interpolated_world(mesh, device, pose)
        assert np.array_equal(covered, mesh.pixel_map(device, pose)[0])
        got = np.concatenate(coords) if coords else np.zeros((0, 2))
        taken = fb.reshape(-1, 3)[covered].astype(np.int64)
        sampled = taken[:, 2] == 255
        tags = taken[sampled, 0] + 256 * taken[sampled, 1] - 1
        assert np.array_equal(np.sort(tags), np.arange(len(got)))
        xy, w = upr.apply(world)
        front = w > 1e-6
        # The pass-1 image has the viewport's size, so the rescale is exact.
        want = np.full((len(covered), 2), np.nan)
        want[front] = viewport.to_pixels(xy[front])
        checked = front[sampled]
        gap = np.linalg.norm(got[tags][checked] - want[sampled][checked], axis=1)
        assert (gap <= 1e-9 * np.linalg.norm(want[sampled][checked], axis=1)).all()
        # A skipped pixel is behind the eye, or its sample could only read
        # black texels: half a pixel or more outside the content's box.
        x, y = want[~sampled].T
        outside = (
            (x < cols[0] - 0.5) | (x >= cols[-1] + 1.5) | (y < rows[0] - 0.5) | (y >= rows[-1] + 1.5)
        )
        assert (~front[~sampled] | outside).all()


class TestFramebufferLayout:
    """The framebuffer is written as whole 3-byte pixels into one C-ordered array."""

    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    def test_framebuffer_is_c_contiguous_rgb(self, kind):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        upr = upr_matrix(EyePose(0.1, -0.05, -0.9), RigidTransform.identity())
        fb = warp_to_projector(
            pass1_image(7, kind, 40, 30), random_wall(8, 0.3), upr, viewport, device, pose
        )
        assert fb.shape == (24, 32, 3) and fb.dtype == np.uint8
        assert fb.flags.c_contiguous
        assert fb.any()
        if kind.startswith("gray"):  # one channel fills all three
            assert (fb == fb[..., :1]).all()

    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    @pytest.mark.parametrize("image_size", [(1, 1), (37, 1)])
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_one_pixel_and_one_row_images_match_unblocked_tail(self, kind, image_size, block):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        upr = upr_matrix(EyePose(-0.2, 0.1, -1.1), RigidTransform.identity())
        user_image = pass1_image(9, kind, *image_size)
        got, want = TestBlockedWarpOracle.both(
            block, user_image, random_wall(10, 0.3), upr, viewport, device, pose
        )
        assert np.array_equal(got, want)
        assert got.any()


class TestStreamingTail:
    """Each block goes from the screen projection to the framebuffer on its own."""

    @staticmethod
    def frame(width, height):
        viewport, _, device, pose, _ = identity_setup(width, height)
        mesh = random_wall(11, 0.3)
        upr = upr_matrix(EyePose(0.1, -0.05, -1.2), RigidTransform.identity())
        user_image = pass1_image(12, "uint8", width, height)
        return (user_image, mesh, upr, viewport, device, pose)

    def test_peak_memory_follows_the_block_not_the_covered_pixels(self):
        args = self.frame(192, 108)
        covered, _ = args[1].pixel_map(*args[4:])  # rasterized before the measurement
        block = 256
        fb_bytes = 192 * 108 * 3
        # (2, K) coordinates and (3, K) samples in float64 would take 40 bytes
        # per covered pixel, past the bound.
        assert fb_bytes + 1024 * block < 40 * len(covered)
        with mock.patch.object(warp_module, "_BLOCK", block):
            tracemalloc.start()
            try:
                fb = warp_to_projector(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert fb.nbytes == fb_bytes and fb.any()
        assert peak < fb_bytes + 1024 * block

    @pytest.mark.parametrize("size, block", [((320, 240), None), ((32, 24), 7)])
    def test_one_sampler_call_per_block_covers_every_pixel(self, size, block):
        # perfbench's tracer sums the sampler's calls and samples per frame,
        # so the per-frame totals must not depend on the block size: each
        # frame samples its lit pixels, those in front of the eye whose
        # pass-1 coordinate is within a pixel of the content's box.
        args = self.frame(*size)
        covered, x, y, w = pass1_coordinates(*args)
        height, width = args[0].shape[:2]
        # The random content's box is the whole image.
        assert args[0].any(axis=2).any(axis=0).all() and args[0].any(axis=2).any(axis=1).all()
        lit = (w > 1e-9) & (x > -1) & (x < width + 1) & (y > -1) & (y < height + 1)
        assert 0 < lit.sum() <= len(covered)

        def sampler_calls(block):
            calls = []

            def counting_sampler(image, xy):
                calls.append(int(np.prod(np.shape(xy)[:-1])))
                return bilinear_sample(image, xy)

            with mock.patch.object(warp_module, "_BLOCK", block), \
                    mock.patch.object(warp_module, "bilinear_sample", counting_sampler):
                warp_to_projector(*args)
            return calls

        block = block or warp_module._BLOCK
        calls = sampler_calls(block)
        other = warp_module._BLOCK if block == 7 else 1 << 12  # 19 blocks of the large frame
        assert sum(calls) == sum(sampler_calls(other)) == lit.sum()
        assert 1 < len(calls) <= -(-len(covered) // block)
        assert max(calls) <= block


def ramp_panorama(height=90, width=180):
    """Channel 0 holds each texel's column and channel 1 its row.

    A bilinear sample away from the seam and the poles reads back its
    continuous texel coordinates, so a view shows which ray each pixel took.
    """
    pano = np.zeros((height, width, 3), dtype=np.uint8)
    pano[..., 0] = np.arange(width)[None, :]
    pano[..., 1] = np.arange(height)[:, None]
    return pano


def assert_view_oracle(img, pano, eye, viewport):
    """Each pixel samples the ray from the eye through its window point."""
    height, width = img.shape[:2]
    v, u = np.mgrid[0:height, 0:width] + 0.5
    x_m = (u / width - 0.5) * viewport.width_m
    y_m = (v / height - 0.5) * viewport.height_m
    dx, dy, dz = x_m - eye.x, y_m - eye.y, -eye.z
    lon = np.arctan2(dx, dz)
    lat = np.arctan2(dy, np.hypot(dx, dz))
    col = (lon / (2 * math.pi) + 0.5) * pano.shape[1] - 0.5
    row = (lat / math.pi + 0.5) * pano.shape[0] - 0.5
    # Rounding to 8 bits moves a value by at most half a level.
    assert np.abs(img[..., 0] - col).max() <= 0.5 + 1e-9
    assert np.abs(img[..., 1] - row).max() <= 0.5 + 1e-9


class TestRenderUserView:
    def test_forward_content_lands_in_window_center(self):
        pano = ramp_panorama()
        eye = EyePose(0.0, 0.0, -1.5)
        viewport = Viewport(width_px=64, height_px=36)
        img = render_user_view(pano, upr_matrix(eye, RigidTransform.identity()), viewport)
        assert img.shape == (36, 64, 3)
        assert_view_oracle(img, pano, eye, viewport)
        # Straight ahead (column 89.5 of 180) lies between the two middle
        # columns of the window.
        assert img[18, 31, 0] < 89.5 < img[18, 32, 0]

    def test_parallax_moves_offscreen_content(self):
        # Panorama content is infinitely far, beyond the screen: its image
        # on the window moves with the eye by the full eye offset.
        pano = ramp_panorama()
        viewport = Viewport(width_px=64, height_px=36)
        cols = {}
        for name, eye in (("center", EyePose(0, 0, -1.5)), ("right", EyePose(0.5, 0, -1.5))):
            img = render_user_view(pano, upr_matrix(eye, RigidTransform.identity()), viewport)
            assert_view_oracle(img, pano, eye, viewport)
            cols[name] = np.argmax(img[18, :, 0] > 89.5)
        # 0.5 m of a 2 m, 64-pixel window is 16 pixels.
        assert cols["right"] - cols["center"] == 16


class TestSimulateProjectionAndView:
    def wall_scene(self, albedo=0.8):
        wall = Plane(
            point=[0.0, 0.0, 3.0],
            normal=[0.0, 0.0, -1.0],
            extent=(6.0, 4.0),
            surface_id="wall",
            albedo=(albedo, albedo, albedo),
        )
        return Scene(surfaces=(wall,), checkerboards=())

    def view_device(self):
        return PinholeDevice(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)

    def proj(self):
        device = PinholeDevice(
            fx=1440.0, fy=1440.0, cx=960.0, cy=540.0, width=1920, height=1080
        )
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, -1.5]))
        return device, pose

    def test_ambient_plus_projector_light(self):
        proj_device, proj_pose = self.proj()
        fb = np.full((1080, 1920, 3), 255, dtype=np.uint8)
        img = simulate_projection_and_view(
            fb,
            self.wall_scene(),
            proj_device,
            proj_pose,
            self.view_device(),
            RigidTransform.identity(),
        )
        # albedo * (0.2 * 255 + 255) = 0.8 * 306 = 244.8 -> 245
        assert np.unique(img).tolist() == [245]

    def test_black_framebuffer_leaves_ambient(self):
        proj_device, proj_pose = self.proj()
        fb = np.zeros((1080, 1920, 3), dtype=np.uint8)
        img = simulate_projection_and_view(
            fb,
            self.wall_scene(),
            proj_device,
            proj_pose,
            self.view_device(),
            RigidTransform.identity(),
        )
        # albedo * 0.2 * 255 = 40.8 -> 41
        assert np.unique(img).tolist() == [41]

    def test_framebuffer_pixels_land_by_nearest_lookup(self):
        proj_device, proj_pose = self.proj()
        fb = np.zeros((1080, 1920, 3), dtype=np.uint8)
        fb[:, :960] = 255  # left half bright
        img = simulate_projection_and_view(
            fb,
            self.wall_scene(),
            proj_device,
            proj_pose,
            self.view_device(),
            RigidTransform.identity(),
        )
        assert img[24, 5, 0] == 245
        assert img[24, 60, 0] == 41

    def test_shadow_blocks_projector_not_ambient(self):
        scene = Scene(
            surfaces=(
                self.wall_scene().surfaces[0],
                Sphere(center=[0.0, 0.0, 1.0], radius=0.3, albedo=(0.5, 0.5, 0.5)),
            ),
            checkerboards=(),
        )
        proj_device = PinholeDevice(
            fx=1440.0, fy=1440.0, cx=960.0, cy=540.0, width=1920, height=1080
        )
        proj_pose = RigidTransform(np.eye(3), np.array([1.5, 0.0, -1.0]))
        fb = np.full((1080, 1920, 3), 255, dtype=np.uint8)
        img = simulate_projection_and_view(
            fb, scene, proj_device, proj_pose, self.view_device(), RigidTransform.identity()
        )
        values = set(np.unique(img).tolist())
        assert 41 in values  # shadowed wall: ambient only
        assert 245 in values  # lit wall
        assert 153 in values  # lit sphere: 0.5 * 306

    def test_points_outside_throw_get_ambient_only(self):
        # Very narrow throw: 100x100 pixels behind a long focal length.
        proj_device = PinholeDevice(
            fx=1440.0, fy=1440.0, cx=50.0, cy=50.0, width=100, height=100
        )
        proj_pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, -1.5]))
        fb = np.full((100, 100, 3), 255, dtype=np.uint8)
        img = simulate_projection_and_view(
            fb,
            self.wall_scene(),
            proj_device,
            proj_pose,
            self.view_device(),
            RigidTransform.identity(),
        )
        assert img[24, 32, 0] == 245  # narrow throw still covers the center
        assert img[24, 2, 0] == 41
        assert img[2, 32, 0] == 41


# -- corner propagation ---------------------------------------------------------


def frontal_wall_scene():
    return Scene(
        surfaces=(
            Plane(
                point=[0.0, 0.0, 3.0],
                normal=[0.0, 0.0, -1.0],
                extent=(6.0, 4.0),
                surface_id="wall",
                albedo=(0.8, 0.8, 0.8),
            ),
        ),
        checkerboards=(),
    )


def oblique_wall_scene(angle_deg=45.0):
    normal = normalized(
        [-math.sin(math.radians(angle_deg)), 0.0, -math.cos(math.radians(angle_deg))]
    )
    return Scene(
        surfaces=(
            Plane(
                point=[0.0, 0.0, 3.0],
                normal=normal,
                extent=(8.0, 6.0),
                surface_id="wall",
                albedo=(0.8, 0.8, 0.8),
            ),
        ),
        checkerboards=(),
    )


def true_models(rig=None, eye=EyePose(0.0, 0.0, -1.5)):
    """Home-state world poses plus the screen projection for a rig."""
    rig = rig or default_rig()
    proj_to_world = rig.front_to_proj.inverse()
    world_to_rear = rig.rear_to_front.inverse()
    return rig, proj_to_world, upr_matrix(eye, world_to_rear)


def exact_geometry(scene, rig):
    depth = sense_depth(
        scene, rig.front_device, RigidTransform.identity(), DepthNoiseModel.exact()
    )
    return reconstruct_mesh(depth, rig.front_device)


class TestPropagateCorners:
    def test_exact_models_give_zero_dislocation(self):
        rig, proj_to_world, upr = true_models()
        scene = frontal_wall_scene()
        geometry = exact_geometry(scene, rig)
        viewport = Viewport(width_px=1920, height_px=1080)
        prop = propagate_corners(
            CheckerPattern(),
            geometry,
            upr,
            viewport,
            rig.proj_device,
            proj_to_world,
            true_scene=scene,
            true_proj_device=rig.proj_device,
            true_proj_to_world=proj_to_world,
            true_upr=upr,
        )
        assert prop.resolved.all()
        err = np.linalg.norm(prop.observed_px - prop.desired_px, axis=1)
        assert err.max() < 1e-6

    def test_oblique_wall_still_exact_when_models_match(self):
        rig, proj_to_world, upr = true_models()
        scene = oblique_wall_scene()
        geometry = exact_geometry(scene, rig)
        viewport = Viewport(width_px=1920, height_px=1080)
        prop = propagate_corners(
            CheckerPattern(), geometry, upr, viewport, rig.proj_device, proj_to_world,
            true_scene=scene, true_proj_device=rig.proj_device,
            true_proj_to_world=proj_to_world, true_upr=upr,
        )
        assert prop.resolved.all()
        err = np.linalg.norm(prop.observed_px - prop.desired_px, axis=1)
        assert err.max() < 1e-5

    def test_projector_error_causes_dislocation(self):
        rig, proj_to_world, upr = true_models()
        scene = oblique_wall_scene()
        geometry = exact_geometry(scene, rig)
        viewport = Viewport(width_px=1920, height_px=1080)
        bad_device = PinholeDevice(
            fx=rig.proj_device.fx * 1.01,
            fy=rig.proj_device.fy,
            cx=rig.proj_device.cx,
            cy=rig.proj_device.cy,
            width=rig.proj_device.width,
            height=rig.proj_device.height,
        )
        prop = propagate_corners(
            CheckerPattern(),
            geometry,
            upr,
            viewport,
            bad_device,
            proj_to_world,
            true_scene=scene,
            true_proj_device=rig.proj_device,
            true_proj_to_world=proj_to_world,
            true_upr=upr,
        )
        err = np.linalg.norm(
            prop.observed_px[prop.resolved] - prop.desired_px[prop.resolved], axis=1
        )
        assert err.mean() > 0.5

    def test_occluder_marks_corners_unresolved(self):
        rig, proj_to_world, upr = true_models()
        wall = frontal_wall_scene().surfaces[0]
        # Straddle the central corner's eye ray. The screen is the rear
        # frame's z=0 plane, so everything is offset by the rear mounting.
        center_world = upr.world_to_rear.inverse().apply(np.array([0.0, 0.0, -0.5]))
        blocker = Box(
            pose=RigidTransform(np.eye(3), center_world),
            dimensions=(0.14, 0.14, 0.02),
            surface_id="blocker",
        )
        true_scene = Scene(surfaces=(wall, blocker), checkerboards=())
        geometry = exact_geometry(frontal_wall_scene(), rig)
        viewport = Viewport(width_px=1920, height_px=1080)
        prop = propagate_corners(
            CheckerPattern(), geometry, upr, viewport, rig.proj_device, proj_to_world,
            true_scene=true_scene, true_proj_device=rig.proj_device,
            true_proj_to_world=proj_to_world, true_upr=upr,
        )
        assert prop.resolved.any()
        assert not prop.resolved.all()
        # The central corner looks straight through the blocker.
        center_idx = np.argmin(
            np.linalg.norm(prop.desired_px - np.array([960.0, 540.0]), axis=1)
        )
        assert not prop.resolved[center_idx]
        assert np.isnan(prop.observed_px[~prop.resolved]).all()

    def test_resolved_fraction(self):
        prop = CornerPropagation(
            indices=np.arange(4),
            desired_px=np.zeros((4, 2)),
            observed_px=np.zeros((4, 2)),
            resolved=np.array([True, False, True, True]),
        )
        assert prop.resolved_fraction() == pytest.approx(0.75)


def uncorrected_homography(plane_point, plane_normal, proj_device, proj_to_world, upr, viewport):
    """Closed-form projector-pixel -> viewport-pixel homography on a plane.

    Built purely from matrix products: back-projection through K^-1 and the
    projector pose, ray-plane intersection in projective form, the plane's
    2-D chart, the screen projection, and the viewport scaling.
    """
    n = normalized(np.asarray(plane_normal, dtype=float))
    p0 = np.asarray(plane_point, dtype=float)
    # Plane chart basis.
    e1 = normalized(np.cross(n, [0.0, 1.0, 0.0]))
    if not np.all(np.isfinite(e1)) or np.linalg.norm(np.cross(n, [0, 1, 0])) < 1e-9:
        e1 = normalized(np.cross(n, [1.0, 0.0, 0.0]))
    e2 = np.cross(n, e1)
    r = proj_to_world.rotation
    c = proj_to_world.translation
    k_inv = np.linalg.inv(proj_device.matrix())
    m2 = float(n @ (p0 - c)) * np.eye(3) + np.outer(c - p0, n)
    plane_from_pixel = np.vstack([e1 @ m2, e2 @ m2, n]) @ r @ k_inv
    world_from_plane = np.zeros((4, 3))
    world_from_plane[:3, 0] = e1
    world_from_plane[:3, 1] = e2
    world_from_plane[:3, 2] = p0
    world_from_plane[3, 2] = 1.0
    viewport_scale = np.array(
        [
            [viewport.width_px / viewport.width_m, 0.0, viewport.width_px / 2.0],
            [0.0, viewport.height_px / viewport.height_m, viewport.height_px / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return viewport_scale @ upr.matrix @ world_from_plane @ plane_from_pixel


class TestUncorrectedPropagation:
    def test_matches_plane_homography_oracle(self):
        rig, proj_to_world, upr = true_models()
        scene = oblique_wall_scene()
        viewport = Viewport(width_px=1920, height_px=1080)
        pattern = CheckerPattern()
        prop = propagate_corners_uncorrected(
            pattern, scene, rig.proj_device, proj_to_world, upr, viewport
        )
        assert prop.resolved.all()

        h = uncorrected_homography(
            [0.0, 0.0, 3.0],
            oblique_wall_scene().surfaces[0].normal,
            rig.proj_device,
            proj_to_world,
            upr,
            viewport,
        )
        corners = pattern.corner_positions(1920, 1080)
        hom = np.c_[corners, np.ones(len(corners))] @ h.T
        expected = hom[:, :2] / hom[:, 2:3]
        assert np.abs(prop.observed_px - expected).max() < 1e-8

    def test_oblique_distortion_is_large(self):
        rig, proj_to_world, upr = true_models()
        prop = propagate_corners_uncorrected(
            CheckerPattern(),
            oblique_wall_scene(),
            rig.proj_device,
            proj_to_world,
            upr,
            Viewport(width_px=1920, height_px=1080),
        )
        err = np.linalg.norm(prop.observed_px - prop.desired_px, axis=1)
        assert err.mean() > 20.0

    def test_frontal_distortion_smaller_than_oblique(self):
        rig, proj_to_world, upr = true_models()
        viewport = Viewport(width_px=1920, height_px=1080)

        def mean_err(scene):
            prop = propagate_corners_uncorrected(
                CheckerPattern(), scene, rig.proj_device, proj_to_world, upr, viewport
            )
            e = np.linalg.norm(
                prop.observed_px[prop.resolved] - prop.desired_px[prop.resolved], axis=1
            )
            return e.mean()

        assert mean_err(frontal_wall_scene()) < mean_err(oblique_wall_scene())


class TestEndToEndWarpDisplay:
    def test_corrected_display_restores_pattern_geometry(self):
        # Full image pipeline on an oblique wall: warp the pattern, project
        # it, and check a rendered user view shows corners near their
        # intended locations (coarse, pixel-level check).
        rig, proj_to_world, upr = true_models()
        scene = oblique_wall_scene()
        geometry = exact_geometry(scene, rig)
        viewport = Viewport(width_px=480, height_px=270)
        pattern = CheckerPattern(rows=3, cols=4, square_px=60)
        user_image = pattern.render(480, 270)
        fb = warp_to_projector(
            user_image, geometry, upr, viewport, rig.proj_device, proj_to_world
        )
        # Observe from the eye with a pinhole aimed the way the screen maps.
        prop = propagate_corners(
            pattern, geometry, upr, viewport, rig.proj_device, proj_to_world,
            true_scene=scene, true_proj_device=rig.proj_device,
            true_proj_to_world=proj_to_world, true_upr=upr,
        )
        assert prop.resolved.all()
        err = np.linalg.norm(prop.observed_px - prop.desired_px, axis=1)
        assert err.max() < 1e-5
        # And the framebuffer is a real warped image, not blank.
        assert (fb > 128).sum() > 1000
