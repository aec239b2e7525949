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
import json
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import procamsim.scene as scene_module
import procamsim.warp as warp_module
from procamsim import cli
from procamsim.calibration import result_from_rig
from procamsim.evaluation import build_display_chain
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    normalized,
    project_points,
    rotation_about_axis,
)
from procamsim.images import bilinear_sample, to_uint8
from procamsim.raster import rasterize
from procamsim.rig import PanTiltState
from procamsim.scene import (
    Box,
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

from rigs import EXACT_DEPTH, default_rig

ROOT = Path(__file__).resolve().parents[1]


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


def shifted_projector():
    """A projector pose off the eye of ``identity_setup``, turned 6 degrees about y."""
    return RigidTransform(
        rotation_about_axis([0.0, 1.0, 0.0], math.radians(6.0)), np.array([0.2, -0.1, -1.4])
    )


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


def full_map(mesh, device, pose):
    """The mesh's projector map with every face needed: the whole frame, unscissored."""
    return mesh.pixel_map(device, pose, np.ones(len(mesh.faces), dtype=bool))


def needed_faces(user_image, mesh, upr, viewport):
    """The faces the warp needs for this content and eye: the mask it passes to ``pixel_map``.

    It builds the lit-texel table the warp builds.
    """
    lit = warp_module._lit_table(user_image)
    return warp_module._needed_faces(mesh, upr, viewport, lit)


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
        needed = needed_faces(user_image, mesh, upr, viewport)
        frames, counts, maps = [], [], []
        for dev, p in runs:
            frames.append(warp_to_projector(user_image, mesh, upr, viewport, dev, p))
            counts.append(len(calls))
            maps.append(mesh.pixel_map(dev, p, needed))  # the map the warp used
        assert counts == [1, 1, 2, 3]
        # The reused map is the same three arrays, winning faces included.
        assert all(x is y for x, y in zip(maps[0], maps[1]))
        assert maps[1][2] is not maps[2][2]
        for (dev, p), fb in zip(runs, frames):
            fresh = TriangleMesh(mesh.vertices, mesh.faces)
            assert np.array_equal(fb, warp_to_projector(user_image, fresh, upr, viewport, dev, p))
        # An eye that needs faces the kept map was not asked for rasterizes
        # with the union once; after that, both eyes reuse it.
        other = upr_matrix(EyePose(0.5, 0.3, -1.2), RigidTransform.identity())
        assert np.any(needed_faces(user_image, mesh, other, viewport) & ~needed)
        kept = maps[-1][0]
        eyes = (other, upr, other, upr)
        frames, before = [], len(calls)
        for eye_upr in eyes:
            frames.append(warp_to_projector(user_image, mesh, eye_upr, viewport, narrower, shifted))
            counts.append(len(calls) - before)
        assert counts[4:] == [1] * 4
        grown = mesh.pixel_map(narrower, shifted, needed)[0]
        assert len(grown) > len(kept) and np.isin(kept, grown).all()
        for eye_upr, fb in zip(eyes, frames):
            fresh = TriangleMesh(mesh.vertices, mesh.faces)
            want = warp_to_projector(user_image, fresh, eye_upr, viewport, narrower, shifted)
            assert np.array_equal(fb, want)

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
        map_refs = [weakref.ref(a) for a in full_map(mesh, device, pose)]
        del mesh
        gc.collect()
        assert mesh_ref() is None
        assert len(map_refs) == 3
        assert [ref() for ref in map_refs] == [None, None, None]

    def test_map_holds_24_bytes_per_covered_pixel(self):
        viewport, device, (pose, _), user_image = self.scenario()
        mesh = bumpy_wall()
        arrays = full_map(mesh, device, pose)
        covered, depth, face = arrays
        assert len(covered) > 10000
        assert covered.dtype == face.dtype == np.int64 and depth.dtype == np.float64
        assert sum(a.nbytes for a in arrays) == 24 * len(covered)
        assert not any(a.flags.writeable for a in arrays)
        assert 0 <= face.min() and face.max() < len(mesh.faces)

    def test_empty_mesh_gives_an_empty_map(self):
        # A mesh with no vertices, as the depth sensor gives when it sees nothing.
        viewport, device, (pose, _), user_image = self.scenario()
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        covered, depth, face = full_map(empty, device, pose)
        assert covered.shape == depth.shape == face.shape == (0,)
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
    covered, depth, _ = full_map(TriangleMesh(mesh.vertices, mesh.faces), proj_device, proj_to_world)
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


def pass1_coordinates(mesh, upr, viewport, proj_device, proj_to_world):
    """Each covered pixel's pass-1 image coordinates and w, over the whole map at once.

    The screen projection and the viewport's pixel formula, in the tail's
    order of operations. Returns the covered pixels, x, y and w.
    """
    covered, xy_m, w = screen_projection(mesh, upr, proj_device, proj_to_world)
    x, y = viewport.to_pixels(xy_m).T
    return covered, x, y, w


def unscissored_tail(user_image, mesh, upr, viewport, proj_device, proj_to_world):
    """Oracle: the per-eye warp tail as one pass that samples every covered pixel.

    Pixels where w is not above 1e-9 get NaN coordinates, which the sampler
    turns black. One sampler call takes every covered pixel, whatever the
    content, then round, clip and scatter.
    """
    covered, x, y, w = pass1_coordinates(mesh, upr, viewport, proj_device, proj_to_world)
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


def pass1_image(seed, channels, width, height):
    """Random uint8 content of a ``width`` x ``height`` viewport with 1 or 3 channels."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8)


CHANNELS = (1, 3)

# A viewport's size in pixels, the pass-1 image's size with it. The
# projector stays 32 x 24, so a small viewport makes large texels.
VIEWPORT_PX = st.tuples(st.integers(1, 40), st.integers(1, 30))

# An eye's z, off the screen plane by more than 5 cm on either side. Eyes up
# to 0.6 m past the plane put parts of a wall of depth +-0.7 m at w <= 0 and
# make g2 change sign inside a face.
EYE_DEPTH = st.one_of(
    st.floats(-1.4, -0.05, exclude_max=True), st.floats(0.05, 0.6, exclude_min=True)
)


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
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=st.tuples(st.integers(1, 70), st.integers(1, 50)),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_matches_unblocked_tail(
        self, seed, eye, amplitude, channels, viewport_px, shifted, block
    ):
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        user_image = pass1_image(seed, channels, *viewport_px)
        got, want = self.both(block, user_image, mesh, upr, Viewport(*viewport_px), device, pose)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_default_block_with_a_partial_last_block(self, channels):
        # 320 x 240 covered pixels: two whole blocks of 32,768 and 11,264 more.
        viewport, _, device, pose, _ = identity_setup(320, 240)
        mesh = random_wall(3, 0.5)
        upr = upr_matrix(EyePose(0.1, -0.05, -0.3), RigidTransform.identity())
        covered, _, w = screen_projection(mesh, upr, device, pose)
        assert len(covered) % warp_module._BLOCK == 76800 - 2 * 32768
        assert (w <= 1e-9).any() and (w > 1e-9).any()
        user_image = pass1_image(4, channels, 320, 240)
        got, want = self.both(None, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        assert (got > 0).sum() > 10000

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_mesh_off_the_throw_leaves_black(self, block):
        viewport, upr, device, pose, _ = identity_setup(32, 24)
        far = TriangleMesh(random_wall(5, 0.2).vertices + [40.0, 0.0, 0.0], grid_faces(9, 11))
        assert len(full_map(far, device, pose)[0]) == 0
        user_image = pass1_image(6, 3, 32, 24)
        got, want = self.both(block, user_image, far, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        assert not got.any()


EDGE_SPOTS = ("top-left", "top", "top-right", "left", "right", "bottom-left", "bottom", "bottom-right")


def edge_texel(spot, width, height):
    """(row, col) of an image corner or edge midpoint named like ``top-left``."""
    row = {"top": 0, "bottom": height - 1}.get(spot.split("-")[0], height // 2)
    col = {"left": 0, "right": width - 1}.get(spot.split("-")[-1], width // 2)
    return row, col


def scissored_content(seed, channels, width, height, margins, spot):
    """Pass-1 content that is black outside a box.

    The box is what ``margins`` (fractions of the width and height cut from
    the left, right, top and bottom) leave, or the single texel at ``spot``
    when it is given. Every texel in the box is non-zero.
    """
    image = pass1_image(seed, channels, width, height)
    image[image == 0] = 1
    keep = np.zeros((height, width), dtype=bool)
    if spot is None:
        left, right = (int(f * width) for f in margins[:2])
        top, bottom = (int(f * height) for f in margins[2:])
        keep[top : height - bottom, left : width - right] = True
    else:
        keep[edge_texel(spot, width, height)] = True
    image[~keep] = 0
    return image


class TestScissorBox:
    """Scissoring by the box of the content's non-zero texels keeps every byte."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=VIEWPORT_PX,
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_matches_unscissored_tail(
        self, seed, eye, amplitude, channels, viewport_px, margins, spot, shifted, block
    ):
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = scissored_content(seed, channels, *viewport_px, margins, spot)
        mesh = random_wall(seed, amplitude)
        viewport = Viewport(*viewport_px)
        got, want = TestBlockedWarpOracle.both(block, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_black_content_is_never_sampled(self, monkeypatch, channels):
        viewport, upr, device, pose, wall = identity_setup(32, 24)

        def no_sampler(image, xy):
            raise AssertionError("black content needs no samples")

        monkeypatch.setattr(warp_module, "bilinear_sample", no_sampler)
        black = np.zeros((24, 32, channels), dtype=np.uint8)
        fb = warp_to_projector(black, wall, upr, viewport, device, pose)
        assert fb.shape == (24, 32, 3) and not fb.any()


class TestContentContract:
    """Pass-1 content is a viewport-sized uint8 image with 1 or 3 channels."""

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            pytest.param((24, 32, 3), np.float32, id="float32"),
            pytest.param((24, 32, 3), np.float64, id="float64"),
            pytest.param((24, 32, 1), np.float64, id="one-channel-float64"),
            pytest.param((24, 32, 3), np.float16, id="float16"),
            pytest.param((24, 32, 3), np.int64, id="int64"),
            pytest.param((24, 32, 3), np.uint16, id="uint16"),
            pytest.param((24, 32, 1), np.int8, id="int8"),
            pytest.param((24, 32, 1), np.bool_, id="bool"),
            pytest.param((24, 32), np.uint8, id="2-D"),
            pytest.param((24, 32, 2), np.uint8, id="2-channels"),
            pytest.param((24, 32, 4), np.uint8, id="4-channels"),
            pytest.param((23, 32, 3), np.uint8, id="a-row-short"),
            pytest.param((25, 32, 3), np.uint8, id="a-row-long"),
            pytest.param((24, 31, 1), np.uint8, id="a-column-short"),
            pytest.param((24, 33, 1), np.uint8, id="a-column-long"),
        ],
    )
    def test_other_content_is_rejected_before_the_map(self, monkeypatch, shape, dtype):
        viewport, upr, device, pose, wall = identity_setup(32, 24)

        def no_map(*args):
            raise AssertionError("content off the contract is rejected before the map is built")

        monkeypatch.setattr(TriangleMesh, "pixel_map", no_map)
        user_image = np.full(shape, 100, dtype=dtype)
        with pytest.raises(ValueError, match=r"must be a uint8 image of shape \(24, 32, 1 or 3\)"):
            warp_to_projector(user_image, wall, upr, viewport, device, pose)

    @pytest.mark.parametrize("texel", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(24, 32), (24, 32, 3)])
    def test_non_finite_content_is_rejected(self, monkeypatch, texel, dtype, shape):
        # The dtype check stands in for the finite check: float content
        # never reaches the sampler, so no NaN or inf texel can.
        viewport, upr, device, pose, wall = identity_setup(32, 24)

        def no_map(*args):
            raise AssertionError("non-finite content is rejected before the map is built")

        monkeypatch.setattr(TriangleMesh, "pixel_map", no_map)
        user_image = np.full(shape, 100.0, dtype=dtype)
        user_image[5, 7] = texel
        with pytest.raises(ValueError, match=r"must be a uint8 image of shape \(24, 32, 1 or 3\)"):
            warp_to_projector(user_image, wall, upr, viewport, device, pose)

    @pytest.mark.parametrize("shape", [(0, 0, 1), (0, 5, 3), (4, 0), (0, 0, 3)])
    def test_content_with_a_zero_side_is_rejected(self, monkeypatch, shape):
        # A viewport has positive sides, so empty content is off the contract.
        viewport, upr, device, pose, wall = identity_setup(32, 24)

        def no_map(*args):
            raise AssertionError("empty content is rejected before the map is built")

        monkeypatch.setattr(TriangleMesh, "pixel_map", no_map)
        with pytest.raises(ValueError, match=r"must be a uint8 image of shape \(24, 32, 1 or 3\)"):
            warp_to_projector(np.zeros(shape, dtype=np.uint8), wall, upr, viewport, device, pose)

    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize(
        "layout", ["fortran", "reversed-rows", "window", "channel-slice", "read-only"]
    )
    def test_any_memory_layout_gives_the_same_bytes(self, channels, layout):
        # The contract is on shape and dtype only: a strided, sliced or
        # read-only view warps to the bytes of its C-contiguous copy.
        viewport, upr, device, pose, _ = identity_setup(32, 24)
        mesh = random_wall(23, 0.3)
        user_image = pass1_image(23, channels, 32, 24)
        if layout == "fortran":
            view = np.asfortranarray(user_image)
        elif layout == "reversed-rows":
            view = user_image[::-1].copy()[::-1]
        elif layout == "window":
            big = np.zeros((30, 40, channels), dtype=np.uint8)
            big[3:27, 5:37] = user_image
            view = big[3:27, 5:37]
        elif layout == "channel-slice":
            big = np.zeros((24, 32, 4), dtype=np.uint8)
            big[..., :channels] = user_image
            view = big[..., :channels]
        else:
            view = user_image.copy()
            view.flags.writeable = False
        assert np.array_equal(view, user_image)
        assert layout == "read-only" or not view.flags.c_contiguous
        want = warp_to_projector(user_image, mesh, upr, viewport, device, pose)
        got = warp_to_projector(view, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want) and want.any()

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_white_samples_round_to_255_without_a_clip(self, channels):
        # The warp rounds its samples and casts them to uint8 with no clip:
        # every blend of uint8 texels must lie in [0, 255.5). All-255
        # content is the worst case; the weights may sum past 1 by rounding.
        width, height = 32, 24
        white = np.full((height, width, channels), 255, dtype=np.uint8)
        rng = np.random.default_rng(21)
        n = 200_000
        # Between the texel centers, where only white texels blend.
        inside = rng.uniform([0.5, 0.5], [width - 0.5, height - 0.5], size=(n, 2))
        # Over the image and the black ring of texels around it, which
        # takes some of the weight within a texel of an edge.
        ring = rng.uniform([-1.0, -1.0], [width + 1.0, height + 1.0], size=(n, 2))
        far = rng.choice([-1e300, -1e6, 1e6, 1e300, np.inf, -np.inf, np.nan], size=(1000, 2))
        samples = bilinear_sample(white, np.concatenate([inside, ring, far]))
        assert samples.shape == (2 * n + 1000, channels)
        assert (samples >= 0).all() and (samples < 255.5).all()
        assert (np.round(samples[:n]) == 255).all()
        assert (samples[2 * n :] == 0).all()

    def test_a_vertex_at_infinity_warns_nothing(self):
        # A vertex at infinite depth meets inf * 0 in the projector's pose
        # and in the screen projection; neither may warn.
        viewport, upr, device, pose, _ = identity_setup(32, 24)
        user_image = pass1_image(22, 3, 32, 24)
        mesh = with_odd_vertex(random_wall(22, 0.3), "far", upr, viewport)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = warp_to_projector(user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, unscissored_tail(user_image, mesh, upr, viewport, device, pose))
        assert got.any()


def fragmented_wall(seed, amplitude, holes):
    """``random_wall`` with a fraction ``holes`` of its faces dropped, so rows have gaps."""
    wall = random_wall(seed, amplitude, rows=13, cols=17)
    kept = np.random.default_rng([seed, 1]).random(len(wall.faces)) >= holes
    return TriangleMesh(wall.vertices, wall.faces[kept])


def tracked_eye_demo():
    """The demo config's 1080p display chain and the tracked-eye path's four eyes.

    The eyes are those of perfbench's ``tracked_eye`` workload. Returns the
    display chain, the projector, the config's options and the eyes' screen
    projections.
    """
    config = cli.load_config(ROOT / "configs" / "demo_config.json")
    result = result_from_rig(config.rig)
    chain = build_display_chain(config.scene, config.rig, result, config.options)
    eyes = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["tracked_eye"]["eyes"]
    uprs = [upr_matrix(EyePose(*eye), chain.est_upr.world_to_rear) for eye in eyes]
    return chain, result.proj_device, config.options, uprs


def occluded_wall(seed, amplitude):
    """``random_wall`` behind a flat square of two faces nearer the projector.

    The square hides part of the wall from the projector; its centre,
    depth and size come from the seed.
    """
    wall = random_wall(seed, amplitude)
    rng = np.random.default_rng([seed, 2])
    (cx, cy), z, half = rng.uniform(-0.6, 0.6, 2), rng.uniform(-1.15, -0.7), rng.uniform(0.05, 0.3)
    gx, gy = np.meshgrid([cx - half, cx + half], [cy - half, cy + half])
    square = np.c_[gx.ravel(), gy.ravel(), np.full(4, z)]
    return TriangleMesh(
        np.concatenate([wall.vertices, square]),
        np.concatenate([wall.faces, grid_faces(2, 2) + len(wall.vertices)]),
    )


def wall_of_kind(kind, seed, amplitude):
    """A random, fragmented (30 % of faces dropped) or occluded wall."""
    if kind == "fragmented":
        return fragmented_wall(seed, amplitude, 0.3)
    return (occluded_wall if kind == "occluded" else random_wall)(seed, amplitude)


def sparse_content(seed, channels, width, height, layout, square):
    """Pass-1 content lit at scattered texels and black elsewhere.

    ``layout`` is "isolated" (texels lit at random, no two side by side),
    "checker" (a checkerboard of ``square``-texel squares whose dark
    squares are black) or "corners" (one texel at each corner of a random
    box). Every lit texel is non-zero.
    """
    image = pass1_image(seed, channels, width, height)
    image[image == 0] = 1
    rng = np.random.default_rng([seed, 3])
    rows, cols = np.indices((height, width))
    if layout == "checker":
        keep = (rows // square + cols // square) % 2 == 0
    elif layout == "isolated":
        keep = (rng.random((height, width)) < 0.1) & (rows % 2 == 0) & (cols % 2 == 0)
    else:
        (r0, r1), (c0, c1) = np.sort(rng.integers(0, height, 2)), np.sort(rng.integers(0, width, 2))
        keep = np.zeros((height, width), dtype=bool)
        keep[[r0, r0, r1, r1], [c0, c1, c0, c1]] = True
    image[~keep] = 0
    return image


CONTENT_LAYOUTS = ("box", "isolated", "checker", "corners")


def content_of(layout, seed, channels, viewport_px, margins, spot, square):
    """``scissored_content`` for the "box" layout, else ``sparse_content``."""
    if layout == "box":
        return scissored_content(seed, channels, *viewport_px, margins, spot)
    return sparse_content(seed, channels, *viewport_px, layout, square)


def with_odd_vertex(mesh, odd, upr, viewport):
    """``mesh`` with one more vertex, joined by a face to each of a few of its edges.

    ``odd`` is None (no vertex added), "nan" (a NaN vertex), "far" (a
    vertex at infinite depth, where w is +inf and the pass-1 coordinates
    are NaN) or "1e8-px" (a vertex 1 m from the eye, nearly in its plane,
    whose pass-1 x is 1e8 px).
    """
    if odd is None:
        return mesh
    if odd == "nan":
        vertex = np.full(3, np.nan)
    elif odd == "far":
        vertex = np.array([0.0, 0.0, np.inf])
    else:
        screen = np.r_[viewport.to_plane([1e8, viewport.height_px / 2]), 0.0]
        eye = upr.eye_world()
        vertex = eye + normalized(screen - eye)
    n = len(mesh.vertices)
    edges = mesh.faces[:: max(len(mesh.faces) // 6, 1), :2]
    return TriangleMesh(
        np.concatenate([mesh.vertices, [vertex]]),
        np.concatenate([mesh.faces, np.c_[edges, np.full(len(edges), n)]]),
    )


def texel_window(x, limit):
    """First and last texel along an axis that samples within 1 px of ``x`` blend.

    By the sampler's formula a sample at x blends texels floor(x - 0.5)
    and the one after; past the black ring around an image of ``limit``
    texels it clamps x and gives the ring all the weight. Texels -1 and
    ``limit`` stand for the ring, so each end lies in [-1, limit], and a
    window holds at most 4 texels.
    """
    first, last = np.floor(x - 1.5 + 1e-6), np.floor(x + 0.5 - 1e-6) + 1
    return (np.fmin(np.fmax(q, -1), limit).astype(np.int64) for q in (first, last))


class TestFaceCull:
    """Scissoring the projector map to the faces that can read a lit texel keeps every byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        mesh_kind=st.sampled_from(["random", "fragmented", "occluded"]),
        odd=st.sampled_from([None, "nan", "far", "1e8-px"]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=VIEWPORT_PX,
        layout=st.sampled_from(CONTENT_LAYOUTS),
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        square=st.integers(1, 4),
        shifted=st.booleans(),
        block=st.sampled_from([7, None]),
    )
    # An eye just past the screen plane puts faces of a wall of depth
    # +-0.7 m across the eye plane. Here such faces have every vertex, in
    # front of the eye or behind it, past the box's bottom edge, while
    # their front parts reach into the box; a cull without the
    # front-of-eye guard drops them.
    @example(
        seed=698, eye=(-0.00771669838948541, 0.28251406097709786, 0.08992046496228912),
        amplitude=0.7, mesh_kind="random", odd=None, channels=3, viewport_px=(32, 24),
        layout="box",
        margins=(0.10009115085708946, 0.5822992037453848, 0.18985212997120954, 0.5993285505103348),
        spot=None, square=1, shifted=True, block=None,
    )
    def test_matches_unscissored_tail(
        self, seed, eye, amplitude, mesh_kind, odd, channels, viewport_px, layout, margins, spot,
        square, shifted, block,
    ):
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        viewport = Viewport(*viewport_px)
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = content_of(layout, seed, channels, viewport_px, margins, spot, square)
        mesh = with_odd_vertex(wall_of_kind(mesh_kind, seed, amplitude), odd, upr, viewport)
        got, want = TestBlockedWarpOracle.both(block, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)

    def test_a_dropped_face_still_hides_what_lies_behind_it(self):
        # From this eye the square lies outside the content's box, so both
        # its faces are dropped; from the projector it hides wall pixels
        # that would be lit, and it must still be drawn there.
        viewport, _, device, _, _ = identity_setup(32, 24)
        pose = shifted_projector()
        upr = upr_matrix(EyePose(-0.5, 0.0, -1.5), RigidTransform.identity())
        user_image = scissored_content(3, 3, 32, 24, (0.3, 0.3, 0.3, 0.3), None)
        wall = random_wall(3, 0.0)
        square = np.array([[0.1, -0.1, -1.1], [0.3, -0.1, -1.1], [0.1, 0.1, -1.1], [0.3, 0.1, -1.1]])
        mesh = TriangleMesh(
            np.concatenate([wall.vertices, square]),
            np.concatenate([wall.faces, grid_faces(2, 2) + len(wall.vertices)]),
        )
        needed = needed_faces(user_image, mesh, upr, viewport)
        assert not needed[-2:].any() and needed.any()
        got, want = TestBlockedWarpOracle.both(None, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        bare = unscissored_tail(user_image, wall, upr, viewport, device, pose)
        hidden = bare.any(axis=2) & ~got.any(axis=2)
        assert hidden.sum() > 50
        covered, _, _ = mesh.pixel_map(device, pose, needed)
        assert np.isin(np.flatnonzero(hidden), covered).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        mesh_kind=st.sampled_from(["random", "fragmented", "occluded"]),
        odd=st.sampled_from([None, "nan", "far", "1e8-px"]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=VIEWPORT_PX,
        layout=st.sampled_from(CONTENT_LAYOUTS),
        margins=st.tuples(*[st.floats(0.0, 0.45)] * 4),
        square=st.integers(1, 4),
        shifted=st.booleans(),
    )
    # A face here reads a lit texel within 1 px of a pixel it wins only
    # through the rounding margin: a cull rectangle of floor(min x) - 1 to
    # floor(max x) + 1 drops it.
    @example(
        seed=0, eye=(0.0, 0.0, -1.0), amplitude=0.0, mesh_kind="fragmented", odd=None,
        channels=3, viewport_px=(8, 1), layout="box", margins=(0.0, 0.25, 0.0, 0.0),
        square=1, shifted=False,
    )
    # The far vertex has w = +inf and NaN pass-1 coordinates: a cull that
    # let it into the rectangle test would index the table with them.
    @example(
        seed=0, eye=(0.0, 0.0, -1.0), amplitude=0.0, mesh_kind="random", odd="far",
        channels=3, viewport_px=(1, 1), layout="box", margins=(0.0, 0.0, 0.0, 0.0),
        square=1, shifted=False,
    )
    def test_pixels_of_dropped_faces_read_zero_texels_a_pixel_around(
        self, seed, eye, amplitude, mesh_kind, odd, channels, viewport_px, layout, margins, square,
        shifted,
    ):
        # The bound itself, on the full map: every pixel a dropped face
        # wins is behind the eye, or every sample within 1 px of its
        # coordinate blends only zero texels, its own four among them.
        # Exact arithmetic would need no margin, so the bytes above cannot
        # show a margin below 1 px; this test can.
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        viewport = Viewport(*viewport_px)
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = content_of(layout, seed, channels, viewport_px, margins, None, square)
        mesh = with_odd_vertex(wall_of_kind(mesh_kind, seed, amplitude), odd, upr, viewport)
        if not user_image.any():  # margins that meet leave black content
            return
        needed = needed_faces(user_image, mesh, upr, viewport)
        uv, z = project_points(device, pose.inverse(), mesh.vertices)
        every = np.ones(len(mesh.faces), dtype=bool)
        res = rasterize(uv, z, mesh.faces, device.width, device.height, every)
        covered, x, y, w = pass1_coordinates(mesh, upr, viewport, device, pose)
        assert np.array_equal(covered, res.covered)
        img_h, img_w = user_image.shape[:2]
        # The lit texels inside the sampler's black ring.
        lit = np.zeros((img_h + 2, img_w + 2), dtype=bool)
        lit[1:-1, 1:-1] = user_image.any(axis=2)
        (c0, c1), (r0, r1) = texel_window(x, img_w), texel_window(y, img_h)
        reads_lit = np.zeros(len(covered), dtype=bool)
        for dr in range(4):
            for dc in range(4):
                at = (r0 + dr <= r1) & (c0 + dc <= c1)
                reads_lit |= at & lit[np.minimum(r0 + dr, r1) + 1, np.minimum(c0 + dc, c1) + 1]
        dropped = ~needed[res.face]
        assert (~(w > 1e-9) | ~reads_lit)[dropped].all()

    def test_steer_states_map_under_half_a_million_pixels(self):
        # The work the scissor saves, as a count: on the demo config's four
        # steer_sweep states the full map covers 1.96-1.97 M pixels.
        config = cli.load_config(ROOT / "configs" / "demo_config.json")
        result = result_from_rig(config.rig)
        states = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["steer_sweep"]["states"]
        vp = config.options.viewport
        user_image = config.options.pattern.render(vp.width_px, vp.height_px)
        assert len(states) == 4
        for pan, tilt, *eye in states:
            options = replace(
                config.options,
                state=PanTiltState(alpha=math.radians(pan), beta=math.radians(tilt)),
                eye=EyePose(*eye),
            )
            chain = build_display_chain(config.scene, config.rig, result, options)
            needed = needed_faces(user_image, chain.geometry, chain.est_upr, vp)
            covered, _, _ = chain.geometry.pixel_map(result.proj_device, chain.est_proj_to_world, needed)
            assert 100_000 < len(covered) <= 500_000


def one_stage_cull(mesh, upr, viewport, lit):
    """Oracle: the face cull in one stage, a table lookup for every face in front of the eye.

    A face is not needed when all three vertices have w < -1e-9, or when
    all three have w > 1e-9 and finite pass-1 coordinates and the table
    holds no lit texel in the rectangle of columns
    [floor(min x) - 2, floor(max x) + 2] and rows
    [floor(min y) - 2, floor(max y) + 2]; every other face is needed.
    """
    c0, r0, table = lit
    xy, w = upr.apply(mesh.vertices)
    p = viewport.to_pixels(xy).T
    f = mesh.faces.T
    needed = ~(w < -1e-9)[f].all(axis=0)
    front = np.flatnonzero(((w > 1e-9) & np.isfinite(p).all(axis=0))[f].all(axis=0))
    corners = f[:, front]
    ends = []
    for q, start, size in zip(p, (c0, r0), table.shape[::-1]):
        q = (np.floor(q) - start)[corners]
        lo = np.clip(q.min(axis=0) - 2, 0, size - 1)
        ends.append((lo.astype(np.intp), np.clip(q.max(axis=0) + 3, lo, size - 1).astype(np.intp)))
    (x0, x1), (y0, y1) = ends
    needed[front] = table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0] > 0
    return needed


def stage_two_counts(monkeypatch):
    """Wrap the cull's table lookup; the list it returns gets the faces each call tests."""
    tested = []
    lookup = warp_module._rectangle_holds_lit

    def counting_lookup(table, q, corners):
        tested.append(corners.shape[1])
        return lookup(table, q, corners)

    monkeypatch.setattr(warp_module, "_rectangle_holds_lit", counting_lookup)
    return tested


class TestOutcodeCull:
    """The vertex outcodes ahead of the table lookup keep the one-stage cull's mask."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-1.5, 1.5),
            st.floats(-1.0, 1.0),
            # Eyes past the screen plane put faces across the eye plane;
            # eyes past z = 0.7 put a whole wall of depth +-0.7 m behind them.
            st.one_of(EYE_DEPTH, st.floats(0.75, 3.5)),
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        mesh_kind=st.sampled_from(["random", "fragmented", "occluded"]),
        odd=st.sampled_from([None, "nan", "far", "1e8-px"]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=VIEWPORT_PX,
        layout=st.sampled_from(CONTENT_LAYOUTS),
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        square=st.integers(1, 4),
    )
    @example(
        seed=0, eye=(0.0, 0.0, 3.1), amplitude=0.7, mesh_kind="random", odd="far", channels=1,
        viewport_px=(32, 24), layout="box", margins=(0.3, 0.3, 0.3, 0.3), spot=None, square=1,
    )
    def test_matches_the_one_stage_cull(
        self, seed, eye, amplitude, mesh_kind, odd, channels, viewport_px, layout, margins, spot,
        square,
    ):
        viewport = Viewport(*viewport_px)
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = content_of(layout, seed, channels, viewport_px, margins, spot, square)
        mesh = with_odd_vertex(wall_of_kind(mesh_kind, seed, amplitude), odd, upr, viewport)
        lit = warp_module._lit_table(user_image)
        if lit is None:  # margins that meet leave black content
            return
        with np.errstate(invalid="ignore"):  # the "far" vertex meets inf * 0
            want = one_stage_cull(mesh, upr, viewport, lit)
        assert np.array_equal(warp_module._needed_faces(mesh, upr, viewport, lit), want)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_side_bits_start_past_the_pad(self, monkeypatch, axis):
        # One lit texel at column 10, row 10. Face k lies on the screen
        # plane with every vertex in texel 10 + d_k along ``axis`` and
        # across rows (or columns) 8-12: faces up to 2 texels off need the
        # lookup and are needed; from 3 texels off, the outcodes drop them.
        viewport, upr, _, _, _ = identity_setup(32, 24)
        user_image = np.zeros((24, 32, 1), dtype=np.uint8)
        user_image[10, 10] = 9
        offsets = np.arange(-5, 6)
        along = 10 + offsets[:, None] + np.array([0.2, 0.5, 0.8])
        across = np.broadcast_to([8.5, 12.5, 10.5], along.shape)
        px = np.stack([along, across] if axis == 0 else [across, along], axis=-1).reshape(-1, 2)
        mesh = TriangleMesh(np.c_[viewport.to_plane(px), np.zeros(len(px))],
                            np.arange(len(px)).reshape(-1, 3))
        lit = warp_module._lit_table(user_image)
        tested = stage_two_counts(monkeypatch)
        needed = warp_module._needed_faces(mesh, upr, viewport, lit)
        assert np.array_equal(needed, np.abs(offsets) <= 2)
        assert np.array_equal(needed, one_stage_cull(mesh, upr, viewport, lit))
        assert tested == [5]

    @pytest.fixture(scope="class")
    def demo(self):
        return tracked_eye_demo()

    def test_matches_the_one_stage_cull_on_the_demo(self, demo):
        # The default eye, the tracked-eye path's four and one past the wall.
        chain, _, options, uprs = demo
        vp = options.viewport
        lit = warp_module._lit_table(options.pattern.render(vp.width_px, vp.height_px))
        past = upr_matrix(EyePose(0.0, 0.0, 3.1), chain.est_upr.world_to_rear)
        for upr in (chain.est_upr, *uprs, past):
            got = warp_module._needed_faces(chain.geometry, upr, vp, lit)
            assert np.array_equal(got, one_stage_cull(chain.geometry, upr, vp, lit))

    def test_under_a_third_of_the_demo_faces_reach_the_lookup(self, demo, monkeypatch):
        # The work the outcodes save, as a count: at the parent every face
        # in front of the eye took the lookup.
        chain, _, options, _ = demo
        vp = options.viewport
        user_image = options.pattern.render(vp.width_px, vp.height_px)
        tested = stage_two_counts(monkeypatch)
        needed = needed_faces(user_image, chain.geometry, chain.est_upr, vp)
        faces = len(chain.geometry.faces)
        assert len(tested) == 1 and needed.sum() <= tested[0] < faces / 3


def tagged_warp(user_image, mesh, upr, viewport, proj_device, proj_to_world):
    """The warp with a sampler that tags each sample with its place in the frame.

    Sample i (counted over the frame) reads i + 1 in its first two bytes
    and 255 in the third, so the framebuffer shows which pixel took which
    coordinate. ``user_image`` needs three channels. Returns the flat
    index of each sampled pixel and the (K, 2) coordinates, both in
    sampling order.
    """
    coords = []

    def tagging_sampler(image, xy):
        tag = sum(map(len, coords)) + 1 + np.arange(len(xy))
        coords.append(np.array(xy))
        return np.stack([tag % 256, tag // 256, np.full(len(tag), 255)], axis=1).astype(float)

    with mock.patch.object(warp_module, "bilinear_sample", tagging_sampler):
        fb = warp_to_projector(user_image, mesh, upr, viewport, proj_device, proj_to_world)
    taken = fb.reshape(-1, 3).astype(np.int64)
    pixels = np.flatnonzero(taken[:, 2] == 255)
    tags = taken[pixels, 0] + 256 * taken[pixels, 1] - 1
    got = np.concatenate(coords) if coords else np.zeros((0, 2))
    order = np.argsort(tags)
    assert np.array_equal(tags[order], np.arange(len(got)))  # each sample lands once
    return pixels[order], got


class TestPixelCull:
    """The tail samples exactly the covered pixels whose winning face the eye needs."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        mesh_kind=st.sampled_from(["random", "fragmented", "occluded"]),
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        shifted=st.booleans(),
        full_first=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_samples_the_covered_pixels_of_needed_faces(
        self, seed, eye, amplitude, mesh_kind, margins, spot, shifted, full_first, block
    ):
        # With ``full_first`` the kept map already holds every face, so it
        # covers pixels of faces this eye does not need.
        viewport, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = scissored_content(seed, 3, 32, 24, margins, spot)
        mesh = wall_of_kind(mesh_kind, seed, amplitude)
        if full_first:
            full_map(mesh, device, pose)
        with mock.patch.object(warp_module, "_BLOCK", block or warp_module._BLOCK):
            pixels, _ = tagged_warp(user_image, mesh, upr, viewport, device, pose)
        if not user_image.any():  # margins that meet leave black content
            assert len(pixels) == 0
            return
        needed = needed_faces(user_image, mesh, upr, viewport)
        covered, _, face = mesh.pixel_map(device, pose, needed)  # the map the warp used
        assert np.array_equal(pixels, covered[needed[face]])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        holes=st.sampled_from([0.0, 0.3, 0.8]),
        channels=st.sampled_from(CHANNELS),
        viewport_px=VIEWPORT_PX,
        margins=st.tuples(*[st.floats(0.0, 0.6)] * 4),
        spot=st.sampled_from([None, *EDGE_SPOTS]),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    # An eye just past the screen plane: g2 changes sign inside some faces,
    # whose pixels are lit where they lie in front of the eye.
    @example(
        seed=0, eye=(0.0, 0.25, 0.0625), amplitude=0.3, holes=0.0, channels=3,
        viewport_px=(1, 14), margins=(0.0, 0.0, 0.0, 0.5), spot=None, shifted=False,
        block=None,
    )
    def test_matches_unscissored_tail(
        self, seed, eye, amplitude, holes, channels, viewport_px, margins, spot, shifted, block
    ):
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        user_image = scissored_content(seed, channels, *viewport_px, margins, spot)
        mesh = fragmented_wall(seed, amplitude, holes)
        viewport = Viewport(*viewport_px)
        got, want = TestBlockedWarpOracle.both(block, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)

    @staticmethod
    def one_pixel_triangle(device, pose, column, row):
        """A triangle on the plane z = 0 that covers only the center of pixel (column, row)."""
        corners = np.array([[-0.3, -0.3], [0.3, -0.3], [0.0, 0.3]]) + [column + 0.5, row + 0.5]
        rays = np.linalg.solve(device.matrix(), np.c_[corners, np.ones(3)].T).T
        depth = -pose.translation[2] / rays[:, 2:]
        return TriangleMesh(pose.apply(rays * depth), [[0, 1, 2]])

    @pytest.mark.parametrize("count", ["0", "1", "_BLOCK", "_BLOCK + 1"])
    def test_block_edges(self, count):
        # With the projector at the eye and content that fills the image,
        # every face is needed and every covered pixel is sampled; an eye
        # past the wall needs no face, so it samples none of the map.
        viewport, upr, device, pose, _ = identity_setup(32, 24)
        user_image = pass1_image(15, 3, 32, 24)
        mesh = random_wall(16, 0.3)
        if count == "0":
            upr = upr_matrix(EyePose(0.0, 0.0, 0.9), RigidTransform.identity())
        elif count == "1":
            mesh = self.one_pixel_triangle(device, pose, 9, 5)
        covered, _, _ = full_map(mesh, device, pose)
        kept = 0 if count == "0" else len(covered)
        block = {"_BLOCK": kept, "_BLOCK + 1": kept - 1}.get(count, warp_module._BLOCK)
        assert len(covered) == {"1": 1}.get(count, 768)
        calls = []

        def counting_sampler(image, xy):
            calls.append(len(xy))
            return bilinear_sample(image, xy)

        with mock.patch.object(warp_module, "bilinear_sample", counting_sampler):
            got, want = TestBlockedWarpOracle.both(block, user_image, mesh, upr, viewport, device, pose)
        assert np.array_equal(got, want)
        assert calls == {"0": [], "1": [1], "_BLOCK": [block]}.get(count, [block, 1])
        assert got.any() == (kept > 0)

    @pytest.fixture(scope="class")
    def demo(self):
        return tracked_eye_demo()

    def test_every_lit_pixel_is_sampled(self, demo):
        chain, device, options, uprs = demo
        vp = options.viewport
        mesh, pose = chain.geometry, chain.est_proj_to_world
        user_image = options.pattern.render(vp.width_px, vp.height_px)
        covered, _, face = full_map(mesh, device, pose)
        assert len(covered) == 1_967_159
        for upr in uprs:
            _, x, y, w = pass1_coordinates(mesh, upr, vp, device, pose)
            front = w > 1e-9
            lit = np.zeros(len(covered), dtype=bool)
            lit[front] = bilinear_sample(user_image, np.c_[x[front], y[front]])[:, 0] != 0
            kept = needed_faces(user_image, mesh, upr, vp)[face]
            assert kept[lit].all()
            assert 150_000 < lit.sum() <= kept.sum() <= 300_000

    def test_eye_past_the_wall_samples_nothing(self, demo):
        # Every covered pixel of the demo map is behind this eye: every
        # vertex is, so no face is needed.
        chain, device, options, _ = demo
        vp = options.viewport
        mesh, pose = chain.geometry, chain.est_proj_to_world
        user_image = options.pattern.render(vp.width_px, vp.height_px)
        upr = upr_matrix(EyePose(0.0, 0.0, 3.1), chain.est_upr.world_to_rear)
        covered, _, _ = full_map(mesh, device, pose)
        _, _, _, w = pass1_coordinates(mesh, upr, vp, device, pose)
        assert len(covered) == 1_967_159 and (w < -1e-9).all()
        assert not needed_faces(user_image, mesh, upr, vp).any()
        samples = []

        def counting_sampler(image, xy):
            samples.append(len(xy))
            return bilinear_sample(image, xy)

        with mock.patch.object(warp_module, "bilinear_sample", counting_sampler):
            fb = warp_to_projector(user_image, mesh, upr, vp, device, pose)
        assert sum(samples) == 0 and not fb.any()


class TestOneChannelContent:
    """Gray content gives the same bytes with one channel as with three equal ones."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eye=st.tuples(
            st.floats(-0.6, 0.6),
            st.floats(-0.4, 0.4),
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        viewport_px=st.tuples(st.integers(1, 70), st.integers(1, 50)),
        shifted=st.booleans(),
        block=st.sampled_from([1, 7, None]),
    )
    def test_one_channel_matches_its_rgb_expansion(
        self, seed, eye, amplitude, viewport_px, shifted, block
    ):
        _, _, device, pose, _ = identity_setup(32, 24)
        if shifted:
            pose = shifted_projector()
        viewport = Viewport(*viewport_px)
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        gray = pass1_image(seed, 1, *viewport_px)
        with mock.patch.object(warp_module, "_BLOCK", block or warp_module._BLOCK):
            got = warp_to_projector(gray, mesh, upr, viewport, device, pose)
            want = warp_to_projector(
                np.repeat(gray, 3, axis=2), mesh, upr, viewport, device, pose
            )
        assert got.tobytes() == want.tobytes()


def interpolated_world(mesh, device, pose):
    """Reference: each covered pixel's world point, interpolated on the mesh.

    The winning face's vertices, weighted by the pixel center's
    perspective-correct barycentric coordinates (linear in 1/z). Returns
    the covered pixels and their (K, 3) world points.
    """
    uv, z = project_points(device, pose.inverse(), mesh.vertices)
    every = np.ones(len(mesh.faces), dtype=bool)
    res = rasterize(uv, z, mesh.faces, device.width, device.height, every)
    faces = mesh.faces[res.face]
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
            EYE_DEPTH,
        ),
        amplitude=st.sampled_from([0.0, 0.3, 0.7]),
        # The rotation axis as a unit direction from its polar and azimuth angles.
        axis=st.tuples(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi)),
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
        polar, azimuth = axis
        unit_axis = np.array(
            [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]
        )
        pose = RigidTransform(rotation_about_axis(unit_axis, math.radians(angle)), np.array(shift))
        upr = upr_matrix(EyePose(*eye), RigidTransform.identity())
        mesh = random_wall(seed, amplitude)
        user_image = pass1_image(seed, 3, viewport.width_px, viewport.height_px)
        user_image[:3] = user_image[:, -5:] = 0  # black margins the box leaves out
        rows, cols = (np.flatnonzero(user_image.any(axis=axis)) for axis in ((1, 2), (0, 2)))
        pixels, got = tagged_warp(user_image, mesh, upr, viewport, device, pose)
        covered, world = interpolated_world(mesh, device, pose)
        assert np.array_equal(covered, full_map(TriangleMesh(mesh.vertices, mesh.faces), device, pose)[0])
        # The sampled pixels are exactly the covered pixels of the map the
        # warp used whose winning face the eye needs.
        needed = needed_faces(user_image, mesh, upr, viewport)
        used, _, face = mesh.pixel_map(device, pose, needed)
        assert np.array_equal(pixels, used[needed[face]])
        at = np.searchsorted(covered, pixels)
        assert np.array_equal(covered[at], pixels)
        sampled = np.zeros(len(covered), dtype=bool)
        sampled[at] = True
        xy, w = upr.apply(world)
        front = w > 1e-6
        want = np.full((len(covered), 2), np.nan)
        want[front] = viewport.to_pixels(xy[front])
        checked = front[at]
        gap = np.linalg.norm(got[checked] - want[at][checked], axis=1)
        assert (gap <= 1e-9 * np.linalg.norm(want[at][checked], axis=1)).all()
        # A skipped pixel is behind the eye, or its sample could only read
        # black texels: half a pixel or more outside the content's box.
        x, y = want[~sampled].T
        outside = (
            (x < cols[0] - 0.5) | (x >= cols[-1] + 1.5) | (y < rows[0] - 0.5) | (y >= rows[-1] + 1.5)
        )
        assert (~front[~sampled] | outside).all()


class TestFramebufferLayout:
    """The framebuffer is written as whole 3-byte pixels into one C-ordered array."""

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_framebuffer_is_c_contiguous_rgb(self, channels):
        viewport, _, device, pose, _ = identity_setup(32, 24)
        upr = upr_matrix(EyePose(0.1, -0.05, -0.9), RigidTransform.identity())
        fb = warp_to_projector(
            pass1_image(7, channels, 32, 24), random_wall(8, 0.3), upr, viewport, device, pose
        )
        assert fb.shape == (24, 32, 3) and fb.dtype == np.uint8
        assert fb.flags.c_contiguous
        assert fb.any()
        if channels == 1:  # one channel fills all three
            assert (fb == fb[..., :1]).all()

    @pytest.mark.parametrize("channels", CHANNELS)
    @pytest.mark.parametrize("viewport_px", [(1, 1), (37, 1)])
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_one_pixel_and_one_row_images_match_unblocked_tail(self, channels, viewport_px, block):
        _, _, device, pose, _ = identity_setup(32, 24)
        upr = upr_matrix(EyePose(-0.2, 0.1, -1.1), RigidTransform.identity())
        user_image = pass1_image(9, channels, *viewport_px)
        got, want = TestBlockedWarpOracle.both(
            block, user_image, random_wall(10, 0.3), upr, Viewport(*viewport_px), device, pose
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
        user_image = pass1_image(12, 3, width, height)
        return (user_image, mesh, upr, viewport, device, pose)

    def test_peak_memory_follows_the_block_not_the_covered_pixels(self):
        args = self.frame(192, 108)
        covered, _, _ = full_map(args[1], *args[4:])  # rasterized before the measurement
        block = 256
        fb_bytes = 192 * 108 * 3
        # (2, K) coordinates and (3, K) samples in float64 would take 40 bytes
        # per covered pixel, past the bound; the mask and index that pick
        # the sampled pixels take 9.
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
        # frame samples every covered pixel whose winning face is needed.
        args = self.frame(*size)
        user_image, mesh, upr, viewport, device, pose = args
        covered, _, face = full_map(mesh, device, pose)
        kept = int(needed_faces(user_image, mesh, upr, viewport)[face].sum())
        assert 0 < kept <= len(covered)

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
        assert sum(calls) == sum(sampler_calls(other)) == kept
        assert 1 < len(calls) == -(-kept // block)
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
        scene, rig.front_device, RigidTransform.identity(), EXACT_DEPTH
    )
    return reconstruct_mesh(depth, rig.front_device, RigidTransform.identity())


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

    def test_corners_outside_the_projector_frame_do_not_resolve(self):
        # The 480x300 default pattern overhangs a 320x180 projector: of its
        # 28 corners, 13 lie outside the frame and are never lit.
        rig, proj_to_world, upr = true_models()
        d = rig.proj_device
        small = PinholeDevice(
            fx=d.fx / 6, fy=d.fy / 6, cx=d.cx / 6, cy=d.cy / 6, width=320, height=180,
            skew=d.skew / 6,
        )
        pattern = CheckerPattern()
        inside = small.contains(pattern.corner_positions(320, 180))
        assert (d.width, d.height) == (1920, 1080) and inside.sum() == 15
        prop = propagate_corners_uncorrected(
            pattern, frontal_wall_scene(), small, proj_to_world, upr,
            Viewport(width_px=1920, height_px=1080),
        )
        assert np.array_equal(prop.resolved, inside)
        assert np.isnan(prop.observed_px[~inside]).all()


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
