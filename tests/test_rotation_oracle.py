"""The numpy rotation log, checked against scipy's as the oracle.

``rotation_to_axis_angle`` follows the route of scipy's
``Rotation.from_matrix(...).as_rotvec()`` operation for operation, so it
agrees bit for bit, and importing the CLI does not load
``scipy.spatial``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

import procamsim
from procamsim.geometry import normalized, rotation_about_axis, rotation_to_axis_angle


def test_rotation_log_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(7)
    matrices = list(Rotation.random(2000, rng=rng).as_matrix())
    angles = np.concatenate(
        [
            10.0 ** -rng.uniform(0.0, 12.0, 300),  # near 0, across the Taylor switch
            math.pi - 10.0 ** -rng.uniform(0.0, 12.0, 300),  # near pi
            [0.0, 1e-3, math.pi / 2, math.pi],
        ]
    )
    for angle in angles:
        matrices.append(rotation_about_axis(normalized(rng.normal(size=3)), angle))
    for axis in np.eye(3):
        matrices.extend(rotation_about_axis(axis, a) for a in (1e-9, math.pi / 2, math.pi))

    for m in matrices:
        rotvec = Rotation.from_matrix(m).as_rotvec()
        angle = float(np.linalg.norm(rotvec))
        got_axis, got_angle = rotation_to_axis_angle(m)
        if angle < 1e-12:
            assert got_angle == 0.0
            assert np.array_equal(got_axis, [1.0, 0.0, 0.0])
        else:
            assert got_angle == angle
            assert np.array_equal(got_axis, rotvec / angle)


def test_cli_import_leaves_scipy_spatial_unloaded():
    src = Path(procamsim.__file__).resolve().parents[1]
    code = "import sys, procamsim.cli; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
