"""Tests for surfaces, ray casting, depth sensing and mesh reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procamsim.errors import SchemaError
from procamsim.geometry import (
    PinholeDevice,
    RigidTransform,
    project_points,
    rotation_about_axis,
)
from procamsim.scene import (
    Box,
    CheckerboardTarget,
    CylinderSegment,
    DepthImage,
    DepthNoiseModel,
    Plane,
    Scene,
    Sphere,
    TriangleMesh,
    grid_faces,
    hit_points,
    load_scene,
    reconstruct_mesh,
    save_scene,
    sense_depth,
)

from rigs import EXACT_DEPTH


def depth_device(width=64, height=48, f=60.0):
    return PinholeDevice(fx=f, fy=f, cx=width / 2, cy=height / 2, width=width, height=height)


class TestRaycast:
    def test_axial_ray_hits_unit_sphere(self):
        # Quadratic-formula oracle: center distance 5, radius 1 -> t = 4.
        scene = Scene(surfaces=[Sphere(center=[0, 0, 5], radius=1.0)])
        t, normals, idx = scene.intersect([0, 0, 0], [[0, 0, 1]])
        assert idx[0] == 0
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(
            hit_points(np.zeros(3), np.array([[0.0, 0.0, 1.0]]), t)[0], [0, 0, 4], atol=1e-12
        )
        np.testing.assert_allclose(normals[0], [0, 0, -1], atol=1e-12)

    def test_ray_parallel_to_plane_misses(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        t, _, idx = scene.intersect([0, 1, 0], [[1, 0, 0]])
        assert t[0] == np.inf and idx[0] == -1

    def test_nearest_surface_wins(self):
        scene = Scene(
            surfaces=[
                Plane(point=[0, 0, 3], normal=[0, 0, -1], surface_id="far"),
                Sphere(center=[0, 0, 2], radius=0.5, surface_id="near"),
            ]
        )
        t, _, idx = scene.intersect([0, 0, 0], [[0, 0, 1]])
        assert scene.surfaces[idx[0]].surface_id == "near"
        assert t[0] == pytest.approx(1.5, abs=1e-12)

    def test_plane_extent(self):
        plane = Plane(point=[0, 0, 3], normal=[0, 0, -1], extent=(1.0, 0.5))
        scene = Scene(surfaces=[plane])
        hits = [
            np.isfinite(scene.intersect(origin, [[0, 0, 1]])[0][0])
            for origin in ([0.9, 0.0, 0], [1.1, 0.0, 0], [0.0, 0.6, 0])
        ]
        assert hits == [True, False, False]

    def test_box_faces(self):
        box = Box(pose=RigidTransform.identity(), dimensions=(2.0, 2.0, 2.0))
        scene = Scene(surfaces=[box])
        t, normals, _ = scene.intersect([0, 0, -5], [[0, 0, 1]])
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(normals[0], [0, 0, -1], atol=1e-12)
        # From inside, the exit face is reported.
        t, _, _ = scene.intersect([0.2, 0, 0], [[1, 0, 0]])
        assert t[0] == pytest.approx(0.8, abs=1e-12)

    def test_rotated_box(self):
        pose = RigidTransform(rotation_about_axis([0, 0, 1], math.pi / 4), [0, 0, 4])
        box = Box(pose=pose, dimensions=(2.0, 2.0, 2.0))
        t, _, _ = Scene(surfaces=[box]).intersect([0, 0, 0], [[0, 0, 1]])
        # Rotation about z leaves the near face distance unchanged.
        assert t[0] == pytest.approx(3.0, abs=1e-12)

    def test_cylinder_lateral_and_caps(self):
        cyl = CylinderSegment(pose=RigidTransform.identity(), radius=1.0, height=2.0)
        scene = Scene(surfaces=[cyl])
        t, normals, _ = scene.intersect([5, 0, 1], [[-1, 0, 0]])
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(normals[0], [1, 0, 0], atol=1e-12)
        t, normals, _ = scene.intersect([0.2, 0, 5], [[0, 0, -1]])
        assert t[0] == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(normals[0], [0, 0, 1], atol=1e-12)
        t, _, _ = scene.intersect([5, 0, 3], [[-1, 0, 0]])
        assert t[0] == np.inf

    def test_triangle_mesh(self):
        mesh = TriangleMesh(
            vertices=[[-1, -1, 2], [1, -1, 2], [0, 1, 2]],
            faces=[[0, 1, 2]],
        )
        scene = Scene(surfaces=[mesh])
        t, _, _ = scene.intersect([0, 0, 0], [[0, 0, 1]])
        assert t[0] == pytest.approx(2.0, abs=1e-12)
        t, _, _ = scene.intersect([0, 2, 0], [[0, 0, 1]])
        assert t[0] == np.inf


class TestCheckerboard:
    def test_corner_layout(self):
        board = CheckerboardTarget(
            pose=RigidTransform.identity(), rows=2, cols=3, square_size=0.1
        )
        pts = board.corner_points()
        assert pts.shape == (6, 3)
        np.testing.assert_allclose(pts[0], [0, 0, 0])
        np.testing.assert_allclose(pts[2], [0.2, 0, 0])  # index i*cols+j = 2 -> (0,2)
        np.testing.assert_allclose(pts[5], [0.2, 0.1, 0])

    def test_world_corners_follow_pose(self):
        pose = RigidTransform(rotation_about_axis([0, 1, 0], 0.3), [0.5, 0, 2])
        board = CheckerboardTarget(pose=pose, rows=2, cols=2, square_size=0.05)
        np.testing.assert_allclose(
            board.corners_world(), pose.apply(board.corner_points()), atol=1e-15
        )


def tilted_plane_scene(gamma_deg: float) -> Scene:
    # Plane whose normal makes (90 - gamma) with the +z view ray, so rays
    # near the optical axis meet the surface at about gamma degrees.
    g = math.radians(gamma_deg)
    normal = [0.0, -math.cos(g), -math.sin(g)]
    return Scene(surfaces=[Plane(point=[0, 0, 3], normal=normal)])


class TestSenseDepth:
    def test_frontal_plane_exact(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device()
        img = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        assert img.valid.all()
        np.testing.assert_allclose(img.depth, 3.0, atol=1e-9)

    def test_depth_is_z_not_range(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 2], normal=[0, 0, -1])])
        dev = depth_device(width=8, height=8, f=4.0)  # very wide FOV
        img = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        np.testing.assert_allclose(img.depth, 2.0, atol=1e-9)

    def test_misses_are_invalid(self):
        scene = Scene(surfaces=[Sphere(center=[0, 0, 3], radius=0.3)])
        img = sense_depth(scene, depth_device(), RigidTransform.identity(), EXACT_DEPTH)
        assert img.valid.any() and not img.valid.all()
        assert (img.depth[~img.valid] == 0).all()

    def test_grazing_band_half_dropout(self):
        # Narrow FOV keeps gamma near 20 deg where the ramp predicts 0.5.
        dev = PinholeDevice(fx=20000, fy=20000, cx=50, cy=50, width=100, height=100)
        img = sense_depth(
            tilted_plane_scene(20.0),
            dev,
            RigidTransform.identity(),
            DepthNoiseModel(rng_seed=5),
        )
        frac = 1.0 - img.valid.mean()
        assert abs(frac - 0.5) < 0.05

    def test_below_full_dropout_angle_all_invalid(self):
        dev = PinholeDevice(fx=20000, fy=20000, cx=50, cy=50, width=100, height=100)
        img = sense_depth(
            tilted_plane_scene(5.0),
            dev,
            RigidTransform.identity(),
            DepthNoiseModel(rng_seed=5),
        )
        assert not img.valid.any()

    def test_dropout_fraction_monotone_in_gamma(self):
        dev = PinholeDevice(fx=20000, fy=20000, cx=50, cy=50, width=100, height=100)
        fracs = []
        for gamma in (12.0, 18.0, 24.0, 28.0, 40.0):
            img = sense_depth(
                tilted_plane_scene(gamma),
                dev,
                RigidTransform.identity(),
                DepthNoiseModel(rng_seed=9),
            )
            fracs.append(1.0 - img.valid.mean())
        assert all(a >= b - 0.03 for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 0.0

    def test_seeded_runs_identical(self):
        scene = tilted_plane_scene(20.0)
        dev = depth_device()
        noise = DepthNoiseModel(sigma=0.002, rng_seed=123)
        a = sense_depth(scene, dev, RigidTransform.identity(), noise)
        b = sense_depth(scene, dev, RigidTransform.identity(), noise)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_gaussian_noise_statistics(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device(width=128, height=96)
        noise = DepthNoiseModel(sigma=0.005, rng_seed=7)
        img = sense_depth(scene, dev, RigidTransform.identity(), noise)
        errors = img.depth[img.valid] - 3.0
        assert abs(errors.mean()) < 5e-4
        assert abs(errors.std() - 0.005) < 5e-4

    def test_surface_orientation_does_not_change_depth(self):
        # Dropout reads the incidence angle through |cos|, so a normal facing
        # away from the sensor gives the same image. Reversed winding moves
        # Moller-Trumbore's rounding of t, so mesh depths agree to 1e-12; a
        # plane's negated normal leaves every bit.
        dev = depth_device()
        noise = DepthNoiseModel(sigma=0.002, rng_seed=5)
        ys, xs = np.meshgrid(np.linspace(-4, 4, 9), np.linspace(-4, 4, 9), indexing="ij")
        vertices = np.stack([xs, ys, 3.0 + 2.5 * ys], axis=-1).reshape(-1, 3)
        faces = grid_faces(9, 9)
        a, b = (
            sense_depth(Scene([TriangleMesh(vertices, f)]), dev, RigidTransform.identity(), noise)
            for f in (faces, faces[:, ::-1])
        )
        assert 0.1 < a.valid.mean() < 0.9  # dropout is active
        np.testing.assert_array_equal(b.valid, a.valid)
        np.testing.assert_allclose(b.depth, a.depth, rtol=0, atol=1e-12)
        normal = np.array([0.0, -math.cos(math.radians(20.0)), -math.sin(math.radians(20.0))])
        a, b = (
            sense_depth(Scene([Plane([0, 0, 3], n)]), dev, RigidTransform.identity(), noise)
            for n in (normal, -normal)
        )
        assert 0.1 < a.valid.mean() < 0.9
        np.testing.assert_array_equal(b.valid, a.valid)
        np.testing.assert_array_equal(b.depth, a.depth)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            DepthNoiseModel(sigma=-1)
        with pytest.raises(ValueError):
            DepthNoiseModel(gamma_full_dropout=30, gamma_no_dropout=10)


class TestSenseDepthGenerator:
    """One generator per image: noise, then dropout, each in row-major order."""

    @staticmethod
    def sphere_and_device():
        scene = Scene(surfaces=[Sphere(center=[0, 0, 3], radius=0.3)])
        dev = depth_device(width=16, height=12)
        exact = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        assert exact.valid.any() and not exact.valid.all()  # hits and misses
        return scene, dev, exact

    @pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
    def test_certain_probabilities_give_the_deterministic_mask(self, monkeypatch, seed):
        scene, dev, exact = self.sphere_and_device()
        # Rows of only 0, only 1, only NaN and mixes of them.
        p_drop = np.random.default_rng(3).choice([0.0, 1.0, np.nan], size=(12, 16))
        p_drop[0], p_drop[1], p_drop[2] = 0.0, 1.0, np.nan
        monkeypatch.setattr(DepthNoiseModel, "dropout_probability", lambda self, g: p_drop)
        got = sense_depth(scene, dev, RigidTransform.identity(), DepthNoiseModel(rng_seed=seed))
        valid = exact.valid & (p_drop != 1.0)
        assert np.array_equal(got.valid, valid)
        assert np.array_equal(got.depth, np.where(valid, exact.depth, 0.0))
        assert not valid[1].any() and (valid[[0, 2]] == exact.valid[[0, 2]]).all()

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    def test_draws_come_from_one_generator(self, monkeypatch, sigma):
        scene, dev, exact = self.sphere_and_device()
        p_drop = np.random.default_rng(3).uniform(size=(12, 16))
        p_drop[0], p_drop[1] = 0.0, 1.0
        monkeypatch.setattr(DepthNoiseModel, "dropout_probability", lambda self, g: p_drop)
        seeds = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        got = sense_depth(
            scene, dev, RigidTransform.identity(), DepthNoiseModel(sigma=sigma, rng_seed=17)
        )
        assert seeds == [17]
        rng = default_rng(17)
        hit = exact.valid  # every hit of the frontal sphere is valid without dropout
        depth = exact.depth + rng.normal(0.0, sigma, size=(12, 16)) if sigma else exact.depth
        valid = hit & ~(rng.uniform(size=(12, 16)) < p_drop) & (depth > 0)
        assert np.array_equal(got.valid, valid)
        assert np.array_equal(got.depth, np.where(valid, depth, 0.0))
        assert 0 < valid[2:].sum() < hit[2:].sum()  # the draws decide some pixels


class TestReconstructMesh:
    def test_full_grid_triangle_count_and_planarity(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device(width=20, height=15)
        img = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        mesh = reconstruct_mesh(img, dev, RigidTransform.identity())
        assert len(mesh.faces) == 2 * (20 - 1) * (15 - 1)
        assert np.max(np.abs(mesh.vertices[:, 2] - 3.0)) < 1e-9

    def test_vertices_reproject_to_pixel_centers(self):
        scene = Scene(surfaces=[Sphere(center=[0, 0, 3], radius=1.0)])
        dev = depth_device(width=24, height=18)
        img = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        mesh = reconstruct_mesh(img, dev, RigidTransform.identity())
        uv, z = project_points(dev, RigidTransform.identity(), mesh.vertices)
        assert (z > 0).all()
        frac = uv - np.floor(uv)
        np.testing.assert_allclose(frac, 0.5, atol=1e-9)

    def test_depth_discontinuity_not_spanned(self):
        # Two frontal half-planes, 1 m apart: no triangle may bridge them.
        depth = np.full((10, 12), 2.0)
        depth[:, 6:] = 3.0
        img = DepthImage(depth=depth, valid=np.ones_like(depth, dtype=bool))
        mesh = reconstruct_mesh(img, depth_device(width=12, height=10), RigidTransform.identity())
        face_z = mesh.vertices[mesh.faces][:, :, 2]
        spans = np.ptp(face_z, axis=1) > 0.5
        assert not spans.any()
        assert len(mesh.faces) > 0

    def test_invalid_pixels_leave_holes(self):
        depth = np.full((8, 8), 2.0)
        valid = np.ones_like(depth, dtype=bool)
        valid[3:5, 3:5] = False
        img = DepthImage(depth=depth, valid=valid)
        mesh = reconstruct_mesh(img, depth_device(width=8, height=8), RigidTransform.identity())
        full = 2 * 7 * 7
        assert len(mesh.faces) < full
        # No vertex may come from an invalid pixel (all depths are 2 here,
        # so check the count instead: 64 - 4 invalid pixels).
        assert len(mesh.vertices) == 60

    def test_triangles_face_the_sensor(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device(width=10, height=10)
        img = sense_depth(scene, dev, RigidTransform.identity(), EXACT_DEPTH)
        mesh = reconstruct_mesh(img, dev, RigidTransform.identity())
        normals = mesh.face_normals(slice(None))
        assert (normals[:, 2] < 0).all()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 9), w=st.integers(1, 9))
    def test_faces_match_the_corner_stacking_oracle(self, seed, h, w):
        # The faces, in order, of the per-corner construction that
        # reconstruct_mesh used before it took its layout from grid_faces.
        rng = np.random.default_rng(seed)
        depth = rng.choice([2.0, 2.01, 2.5], size=(h, w))
        valid = rng.uniform(size=(h, w)) < 0.8
        img = DepthImage(depth=np.where(valid, depth, 0.0), valid=valid)
        index = np.full((h, w), -1, dtype=np.int64)
        index[valid] = np.arange(int(valid.sum()))
        z = img.depth
        tl, tr, bl, br = index[:-1, :-1], index[:-1, 1:], index[1:, :-1], index[1:, 1:]

        def edge_ok(z_a, z_b):
            return np.abs(z_a - z_b) <= 0.05

        e_top = edge_ok(z[:-1, :-1], z[:-1, 1:])
        e_bottom = edge_ok(z[1:, :-1], z[1:, 1:])
        e_left = edge_ok(z[:-1, :-1], z[1:, :-1])
        e_right = edge_ok(z[:-1, 1:], z[1:, 1:])
        e_diag = edge_ok(z[1:, :-1], z[:-1, 1:])
        ok1 = (tl >= 0) & (bl >= 0) & (tr >= 0) & e_left & e_diag & e_top
        ok2 = (tr >= 0) & (bl >= 0) & (br >= 0) & e_diag & e_bottom & e_right
        expected = np.concatenate([
            np.stack([tl[ok1], bl[ok1], tr[ok1]], axis=1),
            np.stack([tr[ok2], bl[ok2], br[ok2]], axis=1),
        ])
        mesh = reconstruct_mesh(img, depth_device(width=w, height=h), RigidTransform.identity())
        np.testing.assert_array_equal(mesh.faces, expected)


class TestSceneIO:
    def build_scene(self):
        return Scene(
            surfaces=[
                Plane(point=[0, 0, 3], normal=[0, 0, -1], extent=(3, 2), surface_id="wall"),
                Sphere(center=[0.3, 0, 2], radius=0.25, surface_id="ball"),
                Box(
                    pose=RigidTransform(rotation_about_axis([0, 1, 0], 0.3), [0, 0, 2.2]),
                    dimensions=(0.6, 0.4, 0.3),
                    surface_id="crate",
                ),
                CylinderSegment(
                    pose=RigidTransform.identity(), radius=0.2, height=1.0, surface_id="pipe"
                ),
                TriangleMesh(
                    vertices=[[0, 0, 2], [1, 0, 2], [0, 1, 2]],
                    faces=[[0, 1, 2]],
                    surface_id="patch",
                ),
            ],
            checkerboards=[
                CheckerboardTarget(
                    pose=RigidTransform(rotation_about_axis([0, 1, 0], 0.1), [-0.3, -0.2, 2.5]),
                    rows=6,
                    cols=9,
                    square_size=0.08,
                )
            ],
        )

    def test_round_trip(self, tmp_path):
        scene = self.build_scene()
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert [s.surface_id for s in loaded.surfaces] == [
            s.surface_id for s in scene.surfaces
        ]
        rng = np.random.default_rng(2)
        origin = np.zeros(3)
        dirs = rng.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        t0, n0, i0 = scene.intersect(origin, dirs)
        t1, n1, i1 = loaded.intersect(origin, dirs)
        np.testing.assert_allclose(t0, t1, atol=1e-9)
        np.testing.assert_array_equal(i0, i1)
        board0 = scene.checkerboards[0]
        board1 = loaded.checkerboards[0]
        np.testing.assert_allclose(board0.corners_world(), board1.corners_world(), atol=1e-9)

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"schema_version": 99, "surfaces": []}')
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_unknown_surface_type(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"schema_version": 1, "surfaces": [{"type": "torus"}]}')
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_scene(path)
