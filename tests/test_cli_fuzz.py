"""Mutation fuzz of every input file, run in-process through ``cli.main``.

Each example changes one field of the config, rig, scene, session or result
file to a bad value, or drops it, and runs one subcommand that reads the
file. The run either exits 0 with finite inputs or prints exactly one
``error[<code>]`` line with a code other than the catch-all ``error`` and
exits 1. A traceback, a warning (pytest makes each one an error) or a
``MemoryError`` fails the example.
"""

import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procamsim.cli import main
from procamsim.geometry import PinholeDevice, RigidTransform, rotation_about_axis
from procamsim.rig import save_rig
from procamsim.scene import CheckerboardTarget, Plane, Scene, save_scene

from rigs import default_rig

DROP = object()
MUTATIONS = [math.nan, math.inf, -math.inf, "x", -1, 1e30, 1e300, True, 1.5, DROP]
NON_FINITE = {"NaN", "Infinity", "-Infinity"}

# The subcommands that read each file. Config fields naming other files
# are left alone: a missing file is an OS error, which ``error`` reports.
COMMANDS = {
    "config.json": ["simulate-calib", "correct", "evaluate"],
    "rig.json": ["simulate-calib", "correct"],
    "scene.json": ["simulate-calib", "correct"],
    "session.json": ["calibrate"],
    "result.json": ["correct", "evaluate"],
}
FILE_FIELDS = {"rig_path", "scene_path"}


def _argv(command, work, with_result):
    if command == "calibrate":
        return [command, "--session", str(work / "session.json"),
                "--out", str(work / "out.json")]
    out = work / (f"{command}.ppm" if command == "correct" else command)
    argv = [command, "--config", str(work / "config.json"), "--out", str(out)]
    return argv + ["--result", str(work / "result.json")] if with_result else argv


def _paths(node, prefix=()):
    """Every field of a JSON document, as a key path from its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key in FILE_FIELDS:
            continue
        path = prefix + (key,)
        if isinstance(node, dict):
            yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Pristine input files: a 64x36 projector and a 16x12 depth sensor."""
    root = tmp_path_factory.mktemp("fuzz")
    rig = default_rig()
    save_rig(type(rig)(
        pan_axis=rig.pan_axis,
        tilt_axis=rig.tilt_axis,
        rear_to_front=rig.rear_to_front,
        front_to_proj=rig.front_to_proj,
        front_device=rig.front_device,
        rear_device=rig.rear_device,
        proj_device=PinholeDevice(fx=50.0, fy=50.0, cx=32.0, cy=18.0, width=64, height=36),
    ), root / "rig.json")
    board = CheckerboardTarget(
        pose=RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.radians(8.0)),
            np.array([-0.30, -0.18, 2.4]),
        ),
        rows=6,
        cols=9,
        square_size=0.075,
    )
    wall = Plane(point=[0.0, 0.0, 3.0], normal=[0.0, 0.0, -1.0], extent=(4.0, 3.0))
    save_scene(Scene(surfaces=(wall,), checkerboards=(board,)), root / "scene.json")
    config = {
        "schema_version": 1,
        "rig_path": "rig.json",
        "scene_path": "scene.json",
        "protocol": {"seed": 0, "pan_angles_deg": [-12, 0, 12],
                     "tilt_angles_deg": [-12, 0, 12], "corner_noise_sigma": 0.0},
        "display": {
            "viewport": {"width_px": 64, "height_px": 36, "width_m": 2.0},
            "pattern": {"rows": 5, "cols": 8, "square_px": 4},
            "depth": {"width": 16, "height": 12, "noise_sigma": 0.0},
            "eye": [0.0, 0.0, -1.5],
            "pan_deg": 0.0,
            "tilt_deg": 0.0,
            "content": {"type": "checker"},
        },
        "benchmark": {"cases": ["base"], "seed": 0},
    }
    (root / "config.json").write_text(json.dumps(config))
    assert main(["simulate-calib", "--config", str(root / "config.json"),
                 "--out", str(root / "session.json")]) == 0
    assert main(["calibrate", "--session", str(root / "session.json"),
                 "--out", str(root / "result.json")]) == 0
    docs = {name: json.loads((root / name).read_text()) for name in COMMANDS}
    return root, docs, {name: list(_paths(doc)) for name, doc in docs.items()}


@st.composite
def mutations(draw, paths):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    return (
        name,
        draw(st.sampled_from(paths[name])),
        draw(st.sampled_from(MUTATIONS)),
        draw(st.sampled_from(COMMANDS[name])),
    )


def test_every_mutation_ends_cleanly(inputs, tmp_path_factory, capsys):
    root, docs, paths = inputs
    work = tmp_path_factory.mktemp("fuzz_work")

    @settings(max_examples=200, deadline=None, database=None)
    @given(mutations(paths))
    def run(case):
        name, path, value, command = case
        for other in COMMANDS:
            shutil.copy(root / other, work / other)
        doc = json.loads(json.dumps(docs[name]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        (work / name).write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(_argv(command, work, name == "result.json"))
        err = capsys.readouterr().err
        shown = "dropped" if value is DROP else json.dumps(value)
        where = f"{name}:{'.'.join(map(str, path))} = {shown} under {command}"
        if code == 0:
            assert err == "", where
            assert shown not in NON_FINITE, f"exit 0 on a non-finite value: {where}"
        else:
            assert code == 1, where
            match = re.fullmatch(r"error\[([a-z-]+)\]: [^\n]*\n", err)
            assert match, f"not one error line: {where}: {err!r}"
            assert match.group(1) != "error", f"catch-all code: {where}: {err!r}"

    run()
