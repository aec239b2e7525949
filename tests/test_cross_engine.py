"""The rasterizer and the binned ray caster against each other.

Both engines describe the same geometry along different code paths: the
projector map rasterizes the reconstructed mesh as the projector sees it,
and ``TriangleMesh.intersect`` casts the projector's pixel-center rays at
it. Away from face edges, where the winning face is unambiguous, both must
hit and find the same world point, so a regression in either one shows
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

    # The mesh as the projector sees it, as in TriangleMesh.pixel_map, with
    # each face given its own corners: a one-hot per corner then
    # interpolates to the pixel's barycentric weights.
    uv, z = project_points(device, pose.inverse(), mesh.vertices)
    corners = mesh.faces.reshape(-1)
    res = rasterize(
        uv[corners], z[corners], np.arange(len(corners)).reshape(-1, 3), WIDTH, HEIGHT,
        attributes={"world": mesh.vertices[corners], "bary": np.tile(np.eye(3), (len(mesh.faces), 1))},
    )
    covered, world = mesh.pixel_map(device, pose)
    assert np.array_equal(res.covered, np.flatnonzero(res.face_index >= 0))
    assert np.array_equal(res.covered, covered)
    assert np.array_equal(res.attributes["world"], world)

    dirs = pixel_rays(device, pose, pixel_center_grid(WIDTH, HEIGHT))
    origin = pose.translation
    t, _ = mesh.intersect(np.broadcast_to(origin, dirs.shape), dirs)
    inner = np.all(res.attributes["bary"] > 1e-6, axis=1)
    interior = res.covered[inner]
    assert len(interior) > 0.3 * WIDTH * HEIGHT
    assert np.isfinite(t[interior]).all()
    cast = hit_points(origin, dirs[interior], t[interior])
    drawn = res.attributes["world"][inner]
    gap = np.linalg.norm(drawn - cast, axis=1)
    assert (gap <= 1e-9 * np.linalg.norm(cast, axis=1)).all()
