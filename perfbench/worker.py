"""One benchmark process: prepare a workload, then run and check its operations.

``run.py`` starts this file in a fresh interpreter with a pinned thread
environment. Set-up (import, config load, workload preparation) ends at the
``ready`` timestamp, taken with ``time.perf_counter`` (CLOCK_MONOTONIC, so
the parent can subtract its own spawn time). ``--setup-only`` stops there.
Otherwise the first operation runs untimed, then timed operations run in
whole passes over the workload's table for about ``--seconds``, and every
operation's output is checked against references that do not come from
the run: sha256 goldens of the framebuffers, the acceptance bounds of the
suite report and, for the calibration the suite's set-up makes, the
noise-free calibration error thresholds. The last stdout line is a JSON
summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO_CONFIG = ROOT / "configs" / "demo_config.json"
GOLDENS = HERE / "goldens.json"

# Smoke scale: a 64x36 projector and viewport for the frame workloads, a
# 64x48 depth image for the suite, and one timed op of each kind (see
# ``measure``).
SMOKE_FRAME = (64, 36)
SMOKE_PATTERN = {"rows": 5, "cols": 8, "square_px": 4}
SMOKE_SUITE_DEPTH = (64, 48)

# Error thresholds of acceptance criterion 3 (noise-free calibration).
MAX_AXIS_REAR_ERR = 1e-6
MAX_INTRINSICS_REL_ERR = 1e-4
MAX_REPROJ_RMS_PX = 1e-5


def workload_config(workload: str, scale: str, out_dir: Path) -> Path:
    """The config a workload loads: the demo config, or a smoke-scale copy."""
    if scale == "full":
        return DEMO_CONFIG
    data = json.loads(DEMO_CONFIG.read_text())
    data["scene"] = json.loads((DEMO_CONFIG.parent / data.pop("scene_path")).read_text())
    rig = json.loads((DEMO_CONFIG.parent / data.pop("rig_path")).read_text())
    display = data["display"]
    if workload == "suite_eval":
        display["depth"]["width"], display["depth"]["height"] = SMOKE_SUITE_DEPTH
    else:
        proj = rig["devices"]["projector"]
        sx = SMOKE_FRAME[0] / proj["width"]
        sy = SMOKE_FRAME[1] / proj["height"]
        proj.update(
            fx=proj["fx"] * sx, cx=proj["cx"] * sx, skew=proj["skew"] * sx,
            fy=proj["fy"] * sy, cy=proj["cy"] * sy,
            width=SMOKE_FRAME[0], height=SMOKE_FRAME[1],
        )
        display["viewport"] = {"width_px": SMOKE_FRAME[0], "height_px": SMOKE_FRAME[1]}
        display["pattern"] = dict(SMOKE_PATTERN)
    data["rig"] = rig
    path = out_dir / f"{workload}_smoke_config.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- Workloads ------------------------------------------------------------------
#
# Each workload prepares itself in __init__ (part of set-up), runs one
# operation in op(k) and checks that operation's files in check(token);
# setup_ok is the check of what set-up itself wrote, if anything. Operation
# k uses entry k % period of the workload's table, in an order the seed
# picks, so any ``period`` consecutive operations use every entry once.
# Operations reach procamsim through module attributes at call time, so the
# tracer's wrappers see them.


class TrackedEye:
    """Corrected 1080p frames for successive eyes on a head-tracking path."""

    setup_ok = True

    def __init__(self, seed, scale, out_dir):
        from procamsim import calibration, cli, evaluation

        self.cfg = cli.load_config(workload_config("tracked_eye", scale, out_dir))
        self.result = calibration.result_from_rig(self.cfg.rig)
        self.chain = evaluation.build_display_chain(
            self.cfg.scene, self.cfg.rig, self.result, self.cfg.options
        )
        table = json.loads(GOLDENS.read_text())["tracked_eye"]
        self.eyes = table["eyes"]
        self.period = len(self.eyes)
        self.golden = table[scale]
        rng = random.Random(f"tracked_eye:{seed}")
        self.start = rng.randrange(self.period)
        self.step = rng.choice((-1, 1))
        self.out = out_dir / "frame.ppm"

    def op(self, k):
        from procamsim import images, upr, warp

        index = (self.start + self.step * k) % self.period
        options = self.cfg.options
        vp = options.viewport
        eye_upr = upr.upr_matrix(upr.EyePose(*self.eyes[index]), self.chain.est_upr.world_to_rear)
        user_image = options.pattern.render(vp.width_px, vp.height_px)
        framebuffer = warp.warp_to_projector(
            user_image, self.chain.geometry, eye_upr, vp,
            self.result.proj_device, self.chain.est_proj_to_world,
        )
        images.write_image(self.out, framebuffer)
        return index

    def check(self, index):
        return sha256_file(self.out) == self.golden[index]


class SteerSweep:
    """A new pan/tilt state and eye per frame: depth, mesh, warp, write."""

    setup_ok = True

    def __init__(self, seed, scale, out_dir):
        from procamsim import calibration, cli

        self.cfg = cli.load_config(workload_config("steer_sweep", scale, out_dir))
        self.result = calibration.result_from_rig(self.cfg.rig)
        table = json.loads(GOLDENS.read_text())["steer_sweep"]
        self.states = table["states"]
        self.period = len(self.states)
        self.golden = table[scale]
        self.order = list(range(self.period))
        random.Random(f"steer_sweep:{seed}").shuffle(self.order)
        self.out = out_dir / "frame.ppm"

    def op(self, k):
        from procamsim import evaluation, images, rig, upr, warp

        index = self.order[k % self.period]
        pan, tilt, *eye = self.states[index]
        options = replace(
            self.cfg.options,
            state=rig.PanTiltState(alpha=math.radians(pan), beta=math.radians(tilt)),
            eye=upr.EyePose(*eye),
        )
        chain = evaluation.build_display_chain(self.cfg.scene, self.cfg.rig, self.result, options)
        vp = options.viewport
        user_image = options.pattern.render(vp.width_px, vp.height_px)
        framebuffer = warp.warp_to_projector(
            user_image, chain.geometry, chain.est_upr, vp,
            self.result.proj_device, chain.est_proj_to_world,
        )
        images.write_image(self.out, framebuffer)
        return index

    def check(self, index):
        return sha256_file(self.out) == self.golden[index]


class SuiteEval:
    """The 7-case standard suite on a calibrated rig, as in the README walkthrough.

    Set-up synthesizes a noise-free calibration session, round-trips it
    through JSON, calibrates and saves the result (``simulate-calib`` and
    ``calibrate``); each op is ``evaluate --result`` with its saved report.
    Noise-free, because calibration error would push the report past the
    acceptance bounds it is checked against. The report seed changes per op;
    with noise-free depth it changes no work, so the table has one entry.
    """

    period = 1

    def __init__(self, seed, scale, out_dir):
        from procamsim import calibration, cli, evaluation, simulate

        self.cfg = cli.load_config(workload_config("suite_eval", scale, out_dir))
        protocol = replace(
            self.cfg.protocol, corner_noise_sigma=0.0, depth_noise_sigma=0.0, seed=seed
        )
        session = simulate.synthesize_session(self.cfg.rig, self.cfg.scene, protocol=protocol)
        calibration.save_session(session, out_dir / "session.json")
        result = calibration.run_full_calibration(
            calibration.load_session(out_dir / "session.json")
        )
        calibration.save_result(result, out_dir / "result.json")
        self.result = calibration.load_result(out_dir / "result.json")
        self.setup_ok = self._calibration_ok(out_dir / "result.json")
        self.suite = evaluation.standard_suite()
        self.seeds = random.Random(f"suite_eval:{seed}")
        self.out = out_dir / "report"

    @staticmethod
    def _calibration_ok(path: Path) -> bool:
        """The saved result against the acceptance criterion-3 thresholds."""
        result = json.loads(path.read_text())
        errors = result["parameter_errors"]
        return (
            max(errors[k] for k in ("pan_axis_angle_rad", "tilt_axis_angle_rad",
                                    "rear_rotation_rad", "rear_translation_m"))
            < MAX_AXIS_REAR_ERR
            and max(errors[k] for k in ("proj_fx_rel", "proj_fy_rel", "proj_cx_rel",
                                        "proj_cy_rel", "proj_skew_over_fx"))
            < MAX_INTRINSICS_REL_ERR
            and result["residuals"]["proj_reproj_rms_px"] < MAX_REPROJ_RMS_PX
        )

    def op(self, k):
        from procamsim import evaluation

        options = replace(self.cfg.options, seed=self.seeds.randrange(1 << 20))
        report = evaluation.run_benchmark(self.suite, self.cfg.rig, self.result, options)
        report.save(self.out)
        return options.seed

    def check(self, seed):
        """The saved report against acceptance criteria 5 and 6."""
        report = json.loads((self.out / "report.json").read_text())
        cases = {c["name"]: c for c in report["cases"]}
        names = [c["name"] for c in report["cases"]]
        if report["settings"]["seed"] != seed or names != [c.name for c in self.suite]:
            return False
        if not all((self.out / f"overlay_{name}.ppm").is_file() for name in names):
            return False
        if any(c["corner_count"] != 28 for c in report["cases"]):
            return False
        corrected = [cases[n]["corrected_mean_px"] for n in ("oblique45", "box", "spheres")]
        if any(v is None or v > 0.5 for v in corrected):
            return False
        if not cases["oblique45"]["uncorrected_mean_px"] >= 20.0:
            return False
        wedge, box = cases["grazing_wedge"], cases["box"]
        return (
            wedge["invalid_depth_fraction"] > box["invalid_depth_fraction"]
            and wedge["corner_count"] - wedge["resolved_count"]
            > box["corner_count"] - box["resolved_count"]
            and wedge["corrected_mean_px"] is not None
            and wedge["corrected_mean_px"] > box["corrected_mean_px"]
        )


WORKLOADS = {
    "tracked_eye": TrackedEye,
    "steer_sweep": SteerSweep,
    "suite_eval": SuiteEval,
}


# -- Measurement loop ------------------------------------------------------------


def _run_op(workload, k, tracer=None) -> dict:
    """Run, time and check one operation; exceptions count as failures."""
    if tracer is not None:
        tracer.op = k
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    error = None
    try:
        token = workload.op(k)
    except Exception as exc:  # a failed op is counted, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    ok = False
    if error is None:
        try:
            ok = bool(workload.check(token))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"check: {type(exc).__name__}: {exc}"
    return {
        "item": token if error is None else None,
        "wall": wall,
        "cpu": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "minflt": after.ru_minflt - before.ru_minflt,
        "traced": tracer is not None,
        "ok": ok,
        "error": error,
    }


def measure(workload, seconds: float, smoke: bool, tracer=None) -> list[dict]:
    """An untimed first op, then timed ops in rounds of whole table passes.

    A pass runs every entry of the workload's table once, so every run times
    the same entries equally often, whatever the seed and however many
    rounds fit. Rounds stop at the count whose expected total is nearest
    ``seconds``, so a run can overshoot by half a round; there is always
    one. With a tracer a round is a traced pass then an untraced one, so one
    run yields both the layer spans and the tracing overhead. At smoke scale
    a pass is one op and one round runs.
    """
    ops = [dict(_run_op(workload, 0), timed=False)]
    period = 1 if smoke else workload.period
    kinds = (tracer, None) if tracer is not None else (None,)
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind in kinds:
            for _ in range(period):
                ops.append(dict(_run_op(workload, len(ops), kind), timed=True))
        rounds += 1
        elapsed = time.perf_counter() - start
        if smoke or elapsed + 0.5 * elapsed / rounds > seconds:
            return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import procamsim.cli  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.out_dir)
    ready = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ops = measure(workload, args.seconds, args.scale == "smoke", tracer)
    summary = {
        "ready": ready,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_ok": workload.setup_ok,
    }
    if tracer is not None:
        from procamsim import evaluation

        traced = [k for k, op in enumerate(ops) if op["timed"] and op["traced"]]
        plain = [op for op in ops if op["timed"] and not op["traced"]]
        workers = evaluation.thread_count(len(tracing.SUITE_CASES))
        layers = tracing.layer_metrics(tracer.spans, traced, workers)
        layers["process.cpu_s"] = statistics.median(op["cpu"] for op in plain)
        layers["process.minflt"] = statistics.median(op["minflt"] for op in plain)
        layers["trace.overhead_ratio"] = statistics.median(
            ops[k]["wall"] for k in traced
        ) / statistics.median(op["wall"] for op in plain)
        summary["layers"] = layers
        summary["workers"] = workers
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
