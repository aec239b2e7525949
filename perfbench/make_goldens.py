"""Regenerate ``goldens.json``: the frame tables and their sha256 goldens.

Usage, from the repository root::

    python3 perfbench/make_goldens.py

The head-tracking eye path (``tracked_eye``) and the pan/tilt/eye states
(``steer_sweep``) are fixed tables; the benchmark's seed only picks where it
starts on them and in which order. The tables are short, four entries each,
so that every run goes through each entry equally often (see
``worker.measure``). Each golden is the sha256 of the PPM that
``procamsim correct`` writes for that table entry, at full and at smoke
scale, so the benchmark checks its frames against the command-line tool
rather than against itself. Rerun only when a change to the framebuffer
bytes is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import run
import worker

os.environ.update(run.pinned_env("tracked_eye"))  # before numpy loads
sys.path.insert(0, str(run.ROOT / "src"))
from procamsim import cli, simulate, upr  # noqa: E402

TRACK_EYES = 4


def eye_path() -> list[list[float]]:
    """Eyes at evenly spaced phases of a closed head path (meters, rear frame).

    The path is assumed, not taken from a source: neither the paper nor the
    repository fixes a head-motion range. It is a loop around the config's
    default eye (0, 0, -1.5), 0.25 m to either side, 0.08 m up and down and
    0.1 m nearer and farther, inside the eye offsets the unit tests already
    use (up to 0.5 m sideways in ``tests/test_warp.py``, up to 0.4 m nearer
    in ``tests/test_upr.py``).
    """
    x0, y0, z0 = upr.DEFAULT_EYE
    eyes = []
    for k in range(TRACK_EYES):
        a = 2.0 * math.pi * (k + 0.5) / TRACK_EYES
        eyes.append([x0 + 0.25 * math.sin(a), y0 + 0.08 * math.sin(2.0 * a),
                     z0 + 0.1 * math.cos(a)])
    return eyes


def steer_states() -> list[list[float]]:
    """[pan_deg, tilt_deg, eye x, y, z]: the calibration protocol's own states.

    The platform states are the ones the default calibration protocol
    drives to for its projector captures and for rear-camera registration
    (``simulate.CalibrationProtocol``), each paired with one eye of the
    head path.
    """
    protocol = simulate.CalibrationProtocol()
    states = [*protocol.projector_states_deg,
              (protocol.registration_pan_deg, protocol.registration_tilt_deg)]
    return [[pan, tilt, *eye] for (pan, tilt), eye in zip(states, eye_path(), strict=True)]


def main() -> int:
    eyes, states = eye_path(), steer_states()
    goldens = {"tracked_eye": {"eyes": eyes}, "steer_sweep": {"states": states}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        frame = tmp / "frame.ppm"
        for scale in ("full", "smoke"):
            for name, rows in (("tracked_eye", [[None, None, *e] for e in eyes]),
                               ("steer_sweep", states)):
                config = worker.workload_config(name, scale, tmp)
                hashes = []
                for pan, tilt, *eye in rows:
                    argv = ["correct", f"--config={config}", f"--out={frame}",
                            "--eye=" + ",".join(repr(v) for v in eye)]
                    if pan is not None:
                        argv += [f"--pan={pan!r}", f"--tilt={tilt!r}"]
                    if cli.main(argv) != 0:
                        return 1
                    hashes.append(worker.sha256_file(frame))
                goldens[name][scale] = hashes
    write_goldens(goldens)
    return 0


def write_goldens(goldens: dict) -> None:
    """One table row or hash per line."""
    tables = []
    for name, table in goldens.items():
        columns = ",\n".join(
            f'  "{key}": [\n' + ",\n".join("   " + json.dumps(row) for row in rows) + "\n  ]"
            for key, rows in table.items()
        )
        tables.append(f' "{name}": {{\n{columns}\n }}')
    worker.GOLDENS.write_text("{\n" + ",\n".join(tables) + "\n}\n")


if __name__ == "__main__":
    raise SystemExit(main())
