"""Property tests of the ray path: surface hits, the scene minimum and its tie rule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from procamsim.geometry import RigidTransform, normalized, rotation_about_axis
from procamsim.scene import (
    RAY_T_MIN,
    Box,
    CylinderSegment,
    Plane,
    Scene,
    Sphere,
    TriangleMesh,
    hit_points,
)

SETTINGS = settings(max_examples=60, deadline=None)
TOL = 1e-7

coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def rays(max_rows=24):
    """(origins (N, 3), dirs (N, 3)) with one origin per ray; see ``unit_rows``."""
    return st.integers(1, max_rows).flatmap(
        lambda n: st.tuples(
            hnp.arrays(float, (n, 3), elements=coords),
            hnp.arrays(float, (n, 3), elements=unit),
        )
    )


def unit_rows(dirs):
    norms = np.linalg.norm(dirs, axis=1)
    assume(np.all(norms > 1e-3))
    return dirs / norms[:, None]


POSE = RigidTransform(
    rotation_about_axis(normalized([0.3, 1.0, -0.2]), math.radians(35.0)), [0.2, -0.1, 1.5]
)
PLANE = Plane(point=[0.1, 0.2, 2.0], normal=[0.2, -0.3, -1.0], extent=(1.2, 0.8))
SPHERE = Sphere(center=[0.3, -0.2, 2.5], radius=0.7)
BOX = Box(pose=POSE, dimensions=(0.8, 0.5, 1.1))
CYLINDER = CylinderSegment(pose=POSE, radius=0.4, height=0.9)
MESH = TriangleMesh(
    vertices=[[-1.0, -1.0, 3.0], [1.0, -1.0, 3.2], [1.0, 1.0, 3.4], [-1.0, 1.0, 3.2]],
    faces=[[0, 1, 2], [0, 2, 3]],
)


def plane_residual(p):
    # The plane's tangent basis: its normal is within 25 degrees of z, so the
    # basis is built from the y axis.
    rel = p - PLANE.point
    t1 = np.cross(PLANE.normal, [0.0, 1.0, 0.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(PLANE.normal, t1)
    outside = np.maximum(np.abs(rel @ t1) - PLANE.extent[0], 0.0) + np.maximum(
        np.abs(rel @ t2) - PLANE.extent[1], 0.0
    )
    return np.abs(rel @ PLANE.normal) + outside


def sphere_residual(p):
    return np.abs(np.linalg.norm(p - SPHERE.center, axis=1) - SPHERE.radius)


def box_residual(p):
    local = POSE.inverse().apply(p)
    half = np.asarray(BOX.dimensions) / 2.0
    return np.abs(np.max(np.abs(local) - half, axis=1))


def cylinder_residual(p):
    local = POSE.inverse().apply(p)
    r = np.hypot(local[:, 0], local[:, 1])
    z = local[:, 2]
    h = CYLINDER.height
    in_height = np.maximum(-z, 0.0) + np.maximum(z - h, 0.0)
    lateral = np.abs(r - CYLINDER.radius) + in_height
    cap = np.minimum(np.abs(z), np.abs(z - h)) + np.maximum(r - CYLINDER.radius, 0.0)
    return np.minimum(lateral, cap)


@pytest.mark.parametrize(
    "surface, residual",
    [
        (PLANE, plane_residual),
        (SPHERE, sphere_residual),
        (BOX, box_residual),
        (CYLINDER, cylinder_residual),
    ],
    ids=["plane", "sphere", "box", "cylinder"],
)
@SETTINGS
@given(ray_batch=rays())
def test_analytic_hit_lies_on_the_surface(surface, residual, ray_batch):
    origins, dirs = ray_batch
    dirs = unit_rows(dirs)
    t, normals = surface.intersect(origins, dirs)
    assert t.shape == (len(dirs),) and normals.shape == dirs.shape
    hit = np.isfinite(t)
    assert np.all(t[hit] > RAY_T_MIN)
    assert np.all(np.isposinf(t[~hit]))
    points = hit_points(origins[hit], dirs[hit], t[hit])
    assert np.all(residual(points) <= TOL)


# Two identical spheres tie exactly on every ray that meets them.
SCENE = Scene(
    surfaces=(PLANE, SPHERE, Sphere(SPHERE.center, SPHERE.radius), BOX, CYLINDER, MESH)
)


@SETTINGS
@given(origin=hnp.arrays(float, 3, elements=coords), ray_batch=rays())
def test_scene_is_the_elementwise_minimum_with_lowest_index_ties(origin, ray_batch):
    _, dirs = ray_batch
    dirs = unit_rows(dirs)
    t, normals, idx = SCENE.intersect(origin, dirs)

    origins = np.broadcast_to(origin, dirs.shape)
    per_surface = np.stack([s.intersect(origins, dirs)[0] for s in SCENE.surfaces])
    expected_t = per_surface.min(axis=0)
    hit = np.isfinite(expected_t)
    expected_idx = np.where(hit, per_surface.argmin(axis=0), -1)
    np.testing.assert_array_equal(t, expected_t)
    np.testing.assert_array_equal(idx, expected_idx)
    assert not np.any(idx == 2)  # the duplicate sphere never wins a tie
    assert np.all(np.einsum("ij,ij->i", normals[hit], dirs[hit]) <= 0.0)


@SETTINGS
@given(
    origin=hnp.arrays(float, 3, elements=coords),
    dirs=hnp.arrays(float, (8, 3), elements=unit),
    t=hnp.arrays(float, 8, elements=st.one_of(st.just(np.inf), st.floats(0.0, 10.0))),
)
def test_hit_points_maps_misses_to_the_origin(origin, dirs, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's inf * 0 "invalid value" warning
        points = hit_points(origin, dirs, t)
    miss = np.isinf(t)
    np.testing.assert_array_equal(points[miss], np.broadcast_to(origin, dirs.shape)[miss])
    np.testing.assert_array_equal(points[~miss], origin + t[~miss, None] * dirs[~miss])


@SETTINGS
@given(n=st.integers(1, 5))
def test_scene_intersect_rejects_one_origin_per_ray(n):
    dirs = np.tile([0.0, 0.0, 1.0], (n, 1))
    with pytest.raises(ValueError):
        SCENE.intersect(np.zeros((n, 3)), dirs)
