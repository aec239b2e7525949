"""Golden hashes of the demo walkthrough's artifacts, at a small scale.

The README walkthrough (simulate-calib, calibrate, correct, render-user-view,
evaluate) runs on the demo rig and scene with the projector, viewport and
depth sensor scaled down, so the whole chain takes a few seconds. The
artifacts are promised to be byte-identical across runs, so each one is
pinned by its sha256: a change that moves any byte has to update the hash
here and say in CHANGES.md which bytes moved and why.

``correct``, ``render-user-view`` and ``evaluate`` use the rig's ground
truth, so their hashes do not depend on the calibration path; the
calibrated ``result.json`` covers ``calibrate``. Two more ``correct`` runs
show a synthetic equirectangular panorama instead of the checker pattern,
which covers ``render_user_view``, ``sample_equirect`` and the panorama
branch of the uncorrected framebuffer.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from procamsim.cli import main
from procamsim.images import write_ppm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CASES = ("base", "oblique45", "box", "cylinder", "spheres", "cloth", "grazing_wedge")

GOLDEN = {
    "session.json": "6796c5ae633f666584a490f986e967c11b27635429e840b5d675ac5c7f6cb321",
    "result.json": "336caa101efe3816bea450ff6b6d96a60606b14a64a46fe57d4d6b53b581b877",
    "framebuffer.ppm": "9c9ca1efb9377f0b4a0c37fa1f210bb357cb63fe04f19bb5b7514d994d7ae593",
    "naive.ppm": "f43f925382d131d3ff94084d265ec42abc0f5ba9ac612de09d36c76918d6b76a",
    "view.ppm": "738b9cb2f83ae852fe1bb6c316fe637ad60cf3d15f97dd0e7c8851b2763910ae",
    "report/report.json": "19afc6847a1131fe59f4a7c20990f866830827fe329fc47393c2ebcdb73a2683",
    "report/report.txt": "1e2500cc2a328edebbe1a4b500331305c3552b1f9948df99207a8a51719bfd46",
    "report/overlay_base.ppm": "b3b3a6855b083926ec6bd3da3e8992e0530ad33d3c9daaca4ed02a4ecca01928",
    "report/overlay_oblique45.ppm": "44fa1126699c7a24ae4c2b8017c11768c38c7cda36f86c9b94370524cf121c22",
    "report/overlay_box.ppm": "b3b3a6855b083926ec6bd3da3e8992e0530ad33d3c9daaca4ed02a4ecca01928",
    "report/overlay_cylinder.ppm": "f08e62625eb235c35faa0ca4abbd5481f215a534dac9aebca88fb48c04afc221",
    "report/overlay_spheres.ppm": "edb9863781e6114908b527ac407676c6ff237a9593e7d8db65ff4f4b508a6111",
    "report/overlay_cloth.ppm": "49f03e59b3d5c3f292d3e77447d58b47e6d2c2a077fbe8dea0e9f2f5c86b6497",
    "report/overlay_grazing_wedge.ppm": "a17b01f1e86a91602b8b179fc013ab778c7904bf5f5e67692ea1dc94170a6444",
    "panorama_framebuffer.ppm": "fc7d85a69572be355a850ddaafd079f02c337aba52b76d827c5f611089de8027",
    "panorama_naive.ppm": "f7d85eb89e8b881f2a0dd51fdb705fde74e743b0de9b0ede94e42298b4c176d2",
}


def synthetic_panorama(width=128, height=64) -> np.ndarray:
    """A deterministic (height, width, 3) uint8 equirectangular image."""
    x, y = np.meshgrid(np.arange(width), np.arange(height))
    return np.stack([(x * 2) % 256, (y * 4) % 256, (x ^ y) * 7 % 256], axis=-1).astype(np.uint8)


def panorama_config(directory: Path, config_path: Path) -> Path:
    """The config at ``config_path`` showing a synthetic panorama."""
    write_ppm(directory / "panorama.ppm", synthetic_panorama())
    config = json.loads(config_path.read_text())
    config["display"]["content"] = {"type": "image", "path": "panorama.ppm"}
    path = directory / "panorama_config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def small_demo_config(directory: Path) -> Path:
    """The demo config with a 384x216 projector, viewport and an 80x60 depth sensor."""
    rig = json.loads((CONFIGS / "demo_rig.json").read_text())
    rig["devices"]["projector"] = {
        "fx": 300.0, "fy": 300.0, "cx": 192.0, "cy": 108.0,
        "width": 384, "height": 216, "skew": 0.0,
    }
    (directory / "rig.json").write_text(json.dumps(rig, indent=2, sort_keys=True) + "\n")
    shutil.copy(CONFIGS / "demo_scene.json", directory / "scene.json")
    config = json.loads((CONFIGS / "demo_config.json").read_text())
    config["rig_path"] = "rig.json"
    config["scene_path"] = "scene.json"
    config["display"]["viewport"] = {"width_px": 384, "height_px": 216}
    config["display"]["pattern"] = {"rows": 5, "cols": 8, "square_px": 24}
    config["display"]["depth"] = {"width": 80, "height": 60, "noise_sigma": 0.0}
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run the walkthrough once; map each artifact name to its sha256."""
    out = tmp_path_factory.mktemp("golden")
    cfg_path = small_demo_config(out)
    cfg = str(cfg_path)
    pano = str(panorama_config(out, cfg_path))
    steps = [
        ["simulate-calib", "--config", cfg, "--out", str(out / "session.json")],
        ["calibrate", "--session", str(out / "session.json"),
         "--out", str(out / "result.json")],
        ["correct", "--config", cfg, "--out", str(out / "framebuffer.ppm")],
        ["correct", "--config", cfg, "--no-correction", "--out", str(out / "naive.ppm")],
        ["render-user-view", "--config", cfg, "--width", "96",
         "--out", str(out / "view.ppm")],
        ["evaluate", "--config", cfg, "--out", str(out / "report")],
        ["correct", "--config", pano, "--out", str(out / "panorama_framebuffer.ppm")],
        ["correct", "--config", pano, "--no-correction",
         "--out", str(out / "panorama_naive.ppm")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_hash(artifacts, name):
    assert artifacts[name] == GOLDEN[name]
