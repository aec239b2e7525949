"""Binned mesh ray casting against the brute-force Möller–Trumbore oracle.

``TriangleMesh.intersect`` tests only the ray-face pairs that share a cell
of a direction grid around the rays' origin. The oracle below tests every
ray against every face with the same arithmetic, so hit distances and
normals must be equal bit for bit, exact ties included.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from procamsim import scene as scene_module
from procamsim.calibration import result_from_rig
from procamsim.evaluation import (
    BenchmarkOptions,
    _cloth_mesh,
    _scaled_device,
    _wedge_mesh,
    build_display_chain,
    standard_suite,
)
from procamsim.geometry import backproject_points, pixel_center_grid
from procamsim.scene import RAY_T_MIN, Scene, TriangleMesh, grid_faces

from rigs import default_rig

SETTINGS = settings(max_examples=80, deadline=None)


def brute_force(mesh, origins, dirs):
    """Every ray against every face in broadcast chunks; ties to the lowest face."""
    n_rays = origins.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_face = np.full(n_rays, -1, dtype=np.int64)
    if len(mesh.faces) == 0 or n_rays == 0:
        return best_t, np.zeros((n_rays, 3))

    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0

    chunk = max(1, 4_000_000 // len(mesh.faces))
    for start in range(0, n_rays, chunk):
        o = origins[start : start + chunk]
        d = dirs[start : start + chunk]
        p = np.cross(d[:, None, :], e2[None, :, :])
        det = np.einsum("tj,rtj->rt", e1, p)
        with np.errstate(all="ignore"):
            inv_det = 1.0 / det
            s = o[:, None, :] - v0[None, :, :]
            u = np.einsum("rtj,rtj->rt", s, p) * inv_det
            q = np.cross(s, e1[None, :, :])
            v = np.einsum("rj,rtj->rt", d, q) * inv_det
            t = np.einsum("tj,rtj->rt", e2, q) * inv_det
            eps = 1e-10
            ok = (
                (np.abs(det) > 1e-14)
                & (u >= -eps)
                & (v >= -eps)
                & (u + v <= 1.0 + eps)
                & (t > RAY_T_MIN)
            )
        t = np.where(ok, t, np.inf)
        face = np.argmin(t, axis=1)
        rows = np.arange(t.shape[0])
        tmin = t[rows, face]
        improved = tmin < best_t[start : start + chunk]
        idx = start + rows[improved]
        best_t[idx] = tmin[improved]
        best_face[idx] = face[improved]

    normals = np.zeros((n_rays, 3))
    hit = best_face >= 0
    normals[hit] = mesh.face_normals(slice(None))[best_face[hit]]
    return best_t, normals


class IndexedMesh(TriangleMesh):
    """A mesh whose "normal" of face i is (i + 1, 0, 0), so normals name the winning face."""

    def face_normals(self, index=slice(None)):
        return np.c_[np.arange(1.0, len(self.faces) + 1), np.zeros((len(self.faces), 2))][index]


def assert_matches_oracle(mesh, origin, dirs):
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    origins = np.broadcast_to(np.asarray(origin, dtype=float), dirs.shape)
    with np.errstate(all="ignore"):
        t, normals = mesh.intersect(origins, dirs)
    want_t, want_normals = brute_force(mesh, origins, dirs)
    assert np.array_equal(t, want_t)
    assert np.array_equal(normals, want_normals)


def sensor_rays(width=160, height=120):
    """Unit rays through the pixel centers of the suite's depth sensor, in its frame."""
    device = _scaled_device(default_rig().front_device, width, height)
    d = backproject_points(device, pixel_center_grid(width, height), 1.0)
    return d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("make_mesh", [_cloth_mesh, _wedge_mesh], ids=["cloth", "grazing_wedge"])
def test_suite_meshes_under_the_sensor_rays(make_mesh):
    options = BenchmarkOptions()
    assert (options.depth_width, options.depth_height) == (160, 120)
    mesh = make_mesh()
    dirs = sensor_rays()
    origins = np.zeros_like(dirs)
    t, normals = mesh.intersect(origins, dirs)
    # One oracle run names the winning face of every ray.
    want_t, face_code = brute_force(IndexedMesh(mesh.vertices, mesh.faces), origins, dirs)
    assert np.array_equal(t, want_t)
    hit = np.isfinite(want_t)
    assert hit.sum() > 1000
    want_normals = np.zeros_like(normals)
    want_normals[hit] = mesh.face_normals(slice(None))[face_code[hit, 0].astype(int) - 1]
    assert np.array_equal(normals, want_normals)


SUITE = standard_suite()


@pytest.mark.parametrize("case_index", range(len(SUITE)), ids=[c.name for c in SUITE])
def test_suite_eye_rays_at_the_reconstructed_mesh(case_index):
    """The 28 corner rays ``propagate_corners`` casts from the estimated eye."""
    rig = default_rig()
    options = BenchmarkOptions()
    chain = build_display_chain(
        SUITE[case_index].scene, rig, result_from_rig(rig), options, case_index
    )
    viewport = options.viewport
    corners = options.pattern.corner_positions(viewport.width_px, viewport.height_px)
    eye, dirs = chain.est_upr.screen_rays(viewport.to_plane(corners))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert len(dirs) == 28 and len(chain.geometry.faces) > 10_000
    assert_matches_oracle(chain.geometry, eye, dirs)


def test_normals_are_computed_for_the_hit_faces_only(monkeypatch):
    side = 130
    a = np.linspace(-1.0, 1.0, side)
    gx, gy = np.meshgrid(a, a)
    mesh = TriangleMesh(np.c_[gx.ravel(), gy.ravel(), np.full(gx.size, 2.0)], grid_faces(side, side))
    assert len(mesh.faces) >= 30_000
    sizes = []
    real = TriangleMesh.face_normals

    def counting(self, index=slice(None)):
        normals = real(self, index)
        sizes.append(len(normals))
        return normals

    monkeypatch.setattr(TriangleMesh, "face_normals", counting)
    xy = np.random.default_rng(0).uniform(-0.4, 0.4, (28, 2))
    dirs = np.c_[xy, np.ones(28)]
    t, normals = mesh.intersect(np.zeros_like(dirs), dirs)
    assert np.all(np.isfinite(t)) and np.all(normals[:, 2] != 0)
    assert sum(sizes) <= 28


def test_small_chunks_give_the_same_result(monkeypatch):
    monkeypatch.setattr(scene_module, "_PAIR_BUDGET", 97)
    mesh = _cloth_mesh()
    assert_matches_oracle(IndexedMesh(mesh.vertices, mesh.faces), np.zeros(3), sensor_rays(40, 30))


coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def meshes(z=coords, max_vertices=12, max_faces=24):
    """IndexedMesh with vertex z drawn from ``z``; faces may repeat or degenerate."""
    return st.integers(3, max_vertices).flatmap(
        lambda n: st.tuples(
            hnp.arrays(float, (n, 2), elements=coords),
            hnp.arrays(float, n, elements=z),
            st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=max_faces),
        ).map(lambda a: IndexedMesh(np.c_[a[0], a[1]], np.array(a[2])))
    )


def ray_batches(max_rows=40):
    return st.integers(1, max_rows).flatmap(
        lambda n: hnp.arrays(float, (n, 3), elements=unit)
    )


@SETTINGS
@given(mesh=meshes(), origin=hnp.arrays(float, 3, elements=unit), dirs=ray_batches())
def test_random_meshes_and_all_sphere_rays(mesh, origin, dirs):
    assert_matches_oracle(mesh, origin, dirs)


@SETTINGS
@given(mesh=meshes(), dirs=ray_batches())
def test_batch_with_its_mirror_has_a_mean_near_zero(mesh, dirs):
    assert_matches_oracle(mesh, np.zeros(3), np.concatenate([dirs, -dirs]))


@SETTINGS
@given(
    mesh=meshes(z=st.floats(0.2, 4.0)),
    xy=hnp.arrays(float, st.tuples(st.integers(1, 60), st.just(2)), elements=unit),
)
def test_camera_rays_at_a_mesh_in_front(mesh, xy):
    assert_matches_oracle(mesh, np.zeros(3), np.c_[xy, np.ones(len(xy))])


@SETTINGS
@given(
    mesh=meshes(z=st.sampled_from([-2.0, -1e-9, 0.0, 1e-9, 0.5, 2.0]) | coords),
    xy=hnp.arrays(float, st.tuples(st.integers(1, 60), st.just(2)), elements=unit),
)
def test_triangles_straddling_or_behind_the_origin_plane(mesh, xy):
    assert_matches_oracle(mesh, np.zeros(3), np.c_[xy, np.ones(len(xy))])


@SETTINGS
@given(
    mesh=meshes(z=st.floats(0.2, 4.0)),
    xy=hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(2)), elements=unit),
    zero=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_zero_length_direction_rows_miss(mesh, xy, zero):
    dirs = np.c_[xy, np.ones(len(xy))]
    dirs[np.array(zero[: len(dirs)])] = 0.0
    assert_matches_oracle(mesh, np.zeros(3), dirs)
    with np.errstate(all="ignore"):
        t, _ = mesh.intersect(np.zeros_like(dirs), dirs)
    assert np.all(np.isposinf(t[~dirs.any(axis=1)]))


@SETTINGS
@given(
    mesh=meshes(z=st.floats(0.2, 4.0)),
    copies=st.lists(st.integers(0, 23), min_size=1, max_size=6),
    xy=hnp.arrays(float, st.tuples(st.integers(1, 60), st.just(2)), elements=unit),
)
def test_a_face_listed_twice_never_wins_at_its_higher_index(mesh, copies, xy):
    faces = mesh.faces
    faces = np.concatenate([faces, faces[np.array(copies) % len(faces)]])
    doubled = IndexedMesh(mesh.vertices, faces)
    assert_matches_oracle(doubled, np.zeros(3), np.c_[xy, np.ones(len(xy))])


@pytest.mark.parametrize("extra", range(0, 48, 3))
def test_rays_grazing_an_edge_on_a_cell_boundary(extra):
    """Rays 2**-40 outside an edge that lies on the mean direction's axis.

    The batch is symmetric with dyadic coordinates, so its mean direction is
    exactly +z and the projected grid spans exactly [-1, 1]; with an even
    number of cells the edge x = 0 is a cell boundary. Möller–Trumbore's
    slack accepts the grazing rays, so only the bounding-box padding puts
    the triangle in their cell.
    """
    a = np.arange(-8, 9) / 8.0
    gx, gy = np.meshgrid(a, a)
    dy = (np.arange(extra + 1) - extra / 2) / 128
    graze = np.c_[np.full(len(dy), 2.0**-40), dy]
    xy = np.concatenate([np.c_[gx.ravel(), gy.ravel()], graze, -graze])
    dirs = np.c_[xy, np.ones(len(xy))]
    mesh = IndexedMesh([[0.0, -0.5, 1.0], [0.0, 0.5, 1.0], [-0.5, 0.0, 1.0]], [[0, 1, 2]])
    assert_matches_oracle(mesh, np.zeros(3), dirs)
    with np.errstate(all="ignore"):
        t, _ = mesh.intersect(np.zeros_like(dirs), dirs)
    assert np.all(np.isfinite(t[-2 * len(dy) :]))


def test_degenerate_faces_cast_without_warnings():
    """Faces with det = 0 (a repeated vertex, one point, collinear vertices) never hit.

    They come before the one real face, so every ray in the batch reaches
    them, and the cast must not warn about the inf and NaN they produce.
    """
    vertices = [[-1.0, -1.0, 2.0], [1.0, -1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 2.0], [1.0, 1.0, 2.0]]
    faces = [[0, 0, 1], [2, 2, 2], [0, 3, 4], [1, 0, 0], [0, 1, 2]]
    mesh = IndexedMesh(vertices, faces)
    a = np.arange(-6, 7) / 10.0
    gx, gy = np.meshgrid(a, a)
    dirs = np.c_[gx.ravel(), gy.ravel(), np.ones(gx.size)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, normals = mesh.intersect(np.zeros_like(dirs), dirs)
        scene_t, _, _ = Scene(surfaces=(mesh,)).intersect(np.zeros(3), dirs)
    assert np.array_equal(scene_t, t)
    assert np.all(normals[np.isfinite(t), 0] == 5.0)  # only the real face hits
    assert np.isfinite(t).sum() > 50
    assert_matches_oracle(mesh, np.zeros(3), dirs)


def test_rows_of_origins_must_match():
    mesh = _cloth_mesh()
    dirs = np.tile([0.0, 0.0, 1.0], (3, 1))
    origins = np.zeros((3, 3))
    origins[2, 0] = 1e-3
    with pytest.raises(ValueError, match="one origin"):
        mesh.intersect(origins, dirs)
    t, _ = mesh.intersect(np.zeros((3, 3)), dirs)
    assert np.all(np.isfinite(t))
