"""Tests for surfaces, ray casting, depth sensing and mesh reconstruction."""

import math

import numpy as np
import pytest

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
    load_scene,
    raycast,
    reconstruct_mesh,
    save_scene,
    sense_depth,
)


def depth_device(width=64, height=48, f=60.0):
    return PinholeDevice(fx=f, fy=f, cx=width / 2, cy=height / 2, width=width, height=height)


class TestRaycast:
    def test_axial_ray_hits_unit_sphere(self):
        # Quadratic-formula oracle: center distance 5, radius 1 -> t = 4.
        scene = Scene(surfaces=[Sphere(center=[0, 0, 5], radius=1.0)])
        hit = raycast(scene, [0, 0, 0], [0, 0, 1])
        assert hit is not None
        assert hit.t == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(hit.point, [0, 0, 4], atol=1e-12)
        np.testing.assert_allclose(hit.normal, [0, 0, -1], atol=1e-12)

    def test_ray_parallel_to_plane_misses(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        assert raycast(scene, [0, 1, 0], [1, 0, 0]) is None

    def test_nearest_surface_wins(self):
        scene = Scene(
            surfaces=[
                Plane(point=[0, 0, 3], normal=[0, 0, -1], surface_id="far"),
                Sphere(center=[0, 0, 2], radius=0.5, surface_id="near"),
            ]
        )
        hit = raycast(scene, [0, 0, 0], [0, 0, 1])
        assert hit.surface_id == "near"
        assert hit.t == pytest.approx(1.5, abs=1e-12)

    def test_plane_extent(self):
        plane = Plane(point=[0, 0, 3], normal=[0, 0, -1], extent=(1.0, 0.5))
        scene = Scene(surfaces=[plane])
        assert raycast(scene, [0.9, 0.0, 0], [0, 0, 1]) is not None
        assert raycast(scene, [1.1, 0.0, 0], [0, 0, 1]) is None
        assert raycast(scene, [0.0, 0.6, 0], [0, 0, 1]) is None

    def test_box_faces(self):
        box = Box(pose=RigidTransform.identity(), dimensions=(2.0, 2.0, 2.0))
        scene = Scene(surfaces=[box])
        hit = raycast(scene, [0, 0, -5], [0, 0, 1])
        assert hit.t == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(hit.normal, [0, 0, -1], atol=1e-12)
        # From inside, the exit face is reported.
        hit = raycast(scene, [0.2, 0, 0], [1, 0, 0])
        assert hit.t == pytest.approx(0.8, abs=1e-12)

    def test_rotated_box(self):
        pose = RigidTransform(rotation_about_axis([0, 0, 1], math.pi / 4), [0, 0, 4])
        box = Box(pose=pose, dimensions=(2.0, 2.0, 2.0))
        hit = raycast(Scene(surfaces=[box]), [0, 0, 0], [0, 0, 1])
        # Rotation about z leaves the near face distance unchanged.
        assert hit.t == pytest.approx(3.0, abs=1e-12)

    def test_cylinder_lateral_and_caps(self):
        cyl = CylinderSegment(pose=RigidTransform.identity(), radius=1.0, height=2.0)
        scene = Scene(surfaces=[cyl])
        hit = raycast(scene, [5, 0, 1], [-1, 0, 0])
        assert hit.t == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(hit.normal, [1, 0, 0], atol=1e-12)
        hit = raycast(scene, [0.2, 0, 5], [0, 0, -1])
        assert hit.t == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(hit.normal, [0, 0, 1], atol=1e-12)
        assert raycast(scene, [5, 0, 3], [-1, 0, 0]) is None

    def test_triangle_mesh(self):
        mesh = TriangleMesh(
            vertices=[[-1, -1, 2], [1, -1, 2], [0, 1, 2]],
            faces=[[0, 1, 2]],
        )
        scene = Scene(surfaces=[mesh])
        hit = raycast(scene, [0, 0, 0], [0, 0, 1])
        assert hit.t == pytest.approx(2.0, abs=1e-12)
        assert raycast(scene, [0, 2, 0], [0, 0, 1]) is None

    def test_normals_face_the_ray(self):
        scene = Scene(surfaces=[Sphere(center=[0, 0, 5], radius=1.0)])
        # From +z looking back, the reported normal flips toward the origin.
        hit = raycast(scene, [0, 0, 10], [0, 0, -1])
        np.testing.assert_allclose(hit.normal, [0, 0, 1], atol=1e-12)


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
        img = sense_depth(scene, dev, RigidTransform.identity())
        assert img.valid.all()
        np.testing.assert_allclose(img.depth, 3.0, atol=1e-9)

    def test_depth_is_z_not_range(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 2], normal=[0, 0, -1])])
        dev = depth_device(width=8, height=8, f=4.0)  # very wide FOV
        img = sense_depth(scene, dev, RigidTransform.identity())
        np.testing.assert_allclose(img.depth, 2.0, atol=1e-9)

    def test_misses_are_invalid(self):
        scene = Scene(surfaces=[Sphere(center=[0, 0, 3], radius=0.3)])
        img = sense_depth(scene, depth_device(), RigidTransform.identity())
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

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            DepthNoiseModel(sigma=-1)
        with pytest.raises(ValueError):
            DepthNoiseModel(gamma_full_dropout=30, gamma_no_dropout=10)


class TestReconstructMesh:
    def test_full_grid_triangle_count_and_planarity(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device(width=20, height=15)
        img = sense_depth(scene, dev, RigidTransform.identity())
        mesh = reconstruct_mesh(img, dev)
        assert len(mesh.faces) == 2 * (20 - 1) * (15 - 1)
        assert np.max(np.abs(mesh.vertices[:, 2] - 3.0)) < 1e-9

    def test_vertices_reproject_to_pixel_centers(self):
        scene = Scene(surfaces=[Sphere(center=[0, 0, 3], radius=1.0)])
        dev = depth_device(width=24, height=18)
        img = sense_depth(scene, dev, RigidTransform.identity())
        mesh = reconstruct_mesh(img, dev)
        uv, z = project_points(dev, RigidTransform.identity(), mesh.vertices)
        assert (z > 0).all()
        frac = uv - np.floor(uv)
        np.testing.assert_allclose(frac, 0.5, atol=1e-9)

    def test_depth_discontinuity_not_spanned(self):
        # Two frontal half-planes, 1 m apart: no triangle may bridge them.
        depth = np.full((10, 12), 2.0)
        depth[:, 6:] = 3.0
        img = DepthImage(depth=depth, valid=np.ones_like(depth, dtype=bool))
        mesh = reconstruct_mesh(img, depth_device(width=12, height=10))
        face_z = mesh.vertices[mesh.faces][:, :, 2]
        spans = np.ptp(face_z, axis=1) > 0.5
        assert not spans.any()
        assert len(mesh.faces) > 0

    def test_invalid_pixels_leave_holes(self):
        depth = np.full((8, 8), 2.0)
        valid = np.ones_like(depth, dtype=bool)
        valid[3:5, 3:5] = False
        img = DepthImage(depth=depth, valid=valid)
        mesh = reconstruct_mesh(img, depth_device(width=8, height=8))
        full = 2 * 7 * 7
        assert len(mesh.faces) < full
        # No vertex may come from an invalid pixel (all depths are 2 here,
        # so check the count instead: 64 - 4 invalid pixels).
        assert len(mesh.vertices) == 60

    def test_triangles_face_the_sensor(self):
        scene = Scene(surfaces=[Plane(point=[0, 0, 3], normal=[0, 0, -1])])
        dev = depth_device(width=10, height=10)
        img = sense_depth(scene, dev, RigidTransform.identity())
        mesh = reconstruct_mesh(img, dev)
        normals = mesh.face_normals()
        assert (normals[:, 2] < 0).all()

    def test_threshold_validation(self):
        img = DepthImage(depth=np.ones((4, 4)), valid=np.ones((4, 4), dtype=bool))
        for threshold in (0.0, np.nan):
            with pytest.raises(ValueError):
                reconstruct_mesh(img, depth_device(4, 4), discontinuity_threshold=threshold)


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
