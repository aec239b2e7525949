"""The rasterizer and the binned ray caster against each other.

Both engines describe the same geometry along different code paths: the
projector map rasterizes the reconstructed mesh as the projector sees it,
and ``TriangleMesh.intersect`` casts the projector's pixel-center rays at
it. Away from face edges, where the winning face is unambiguous, both must
hit at the same depth, so a regression in either one shows
here without a brute-force copy of either.
"""

import numpy as np
import pytest

from procamsim.calibration import result_from_rig
from procamsim.evaluation import (
    BenchmarkOptions,
    _scaled_device,
    build_display_chain,
    case_by_name,
    standard_suite,
)
from procamsim.geometry import pixel_center_grid, pixel_rays, project_points
from procamsim.raster import rasterize
from procamsim.rig import PanTiltState
from procamsim.scene import hit_points

from rigs import default_rig

WIDTH, HEIGHT = 192, 108


@pytest.mark.parametrize("case", ["oblique45", "box", "spheres", "cloth", "grazing_wedge"])
@pytest.mark.parametrize("state", [PanTiltState(), PanTiltState(alpha=0.25, beta=0.15)],
                         ids=["home", "steered"])
def test_projector_map_matches_the_ray_caster(case, state):
    rig = default_rig()
    result = result_from_rig(rig)
    chain = build_display_chain(
        case_by_name(standard_suite(), case).scene, rig, result, BenchmarkOptions(state=state)
    )
    mesh = chain.geometry
    device = _scaled_device(result.proj_device, WIDTH, HEIGHT)
    pose = chain.est_proj_to_world

    # The mesh as the projector sees it, as in TriangleMesh.pixel_map.
    uv, z = project_points(device, pose.inverse(), mesh.vertices)
    every = np.ones(len(mesh.faces), dtype=bool)
    res = rasterize(uv, z, mesh.faces, WIDTH, HEIGHT, every)
    covered, depth, face = mesh.pixel_map(device, pose, every)
    assert (face >= 0).all()
    assert np.array_equal(res.covered, covered)
    assert np.array_equal(res.depth, depth)
    assert np.array_equal(res.face, face)

    # Each covered pixel center's barycentric coordinates in its winning
    # face; pixels with all three above 1e-6 are away from face edges.
    tri = uv[mesh.faces[face]]  # (K, 3, 2)
    row, col = np.divmod(covered, WIDTH)
    center = np.c_[col + 0.5, row + 0.5]
    e1, e2, d = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0], center - tri[:, 0]
    area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    b1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / area
    b2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / area
    inner = np.minimum(np.minimum(b1, b2), 1.0 - b1 - b2) > 1e-6
    interior = covered[inner]
    assert len(interior) > 0.3 * WIDTH * HEIGHT

    dirs = pixel_rays(device, pose, pixel_center_grid(WIDTH, HEIGHT))
    origin = pose.translation
    t, _ = mesh.intersect(np.broadcast_to(origin, dirs.shape), dirs)
    assert np.isfinite(t[interior]).all()
    # The device-frame depth of the cast hit against the rasterized depth.
    cast = hit_points(origin, dirs[interior], t[interior])
    cast_depth = pose.inverse().apply(cast)[:, 2]
    np.testing.assert_allclose(depth[inner], cast_depth, rtol=1e-9, atol=0)
