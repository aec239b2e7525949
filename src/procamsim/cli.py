"""Command-line interface.

One JSON config file describes a virtual setup (rig, scene, calibration
protocol, display settings); the subcommands run the pieces of the
pipeline against it:

- ``simulate-calib``: synthesize a calibration session file.
- ``calibrate``: estimate rig parameters from a session file.
- ``correct``: compute the pre-warped projector framebuffer.
- ``evaluate``: run the benchmark suite and write a report.
- ``render-user-view``: simulate what the user sees during projection.

All outputs are deterministic for fixed inputs: JSON is written with
sorted keys and no timestamps, images as binary PPM (PNG when Pillow is
installed). Failures print a single ``error[<code>]: message`` line on
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    load_result,
    load_session,
    result_from_rig,
    run_full_calibration,
    save_result,
    save_session,
)
from .errors import (
    MAX_IMAGE_SIDE, MAX_MAGNITUDE, Fields, ProcamError, SchemaError, check_pixel_budget, load_json,
)
from .evaluation import (
    BenchmarkOptions,
    DisplayChain,
    build_display_chain,
    case_by_name,
    run_benchmark,
    standard_suite,
    thread_count,
)
from .geometry import PinholeDevice, RigidTransform, pixel_center_grid
from .images import bilinear_sample, read_image, to_uint8, write_image
from .rig import PanTiltState, RigModel, load_rig
from .scene import Scene, load_scene, scene_from_json
from .simulate import CalibrationProtocol, synthesize_session
from .upr import DEFAULT_EYE, EyePose, Viewport
from .warp import (
    CheckerPattern,
    render_user_view,
    simulate_projection_and_view,
    warp_to_projector,
)


# -- Config file -------------------------------------------------------------------


class CliConfig:
    """A parsed setup file: rig, scene and display settings."""

    def __init__(self, rig, scene, protocol, options, panorama, benchmark_cases):
        self.rig: RigModel = rig
        self.scene: Scene = scene
        self.protocol: CalibrationProtocol = protocol
        self.options: BenchmarkOptions = options
        self.panorama: np.ndarray | None = panorama  # None shows the checker pattern
        self.benchmark_cases = benchmark_cases  # tuple of names, or None


def _display_options(display: Fields, seed: int) -> BenchmarkOptions:
    kwargs = {}
    if "viewport" in display:
        v = display.obj("viewport")
        width, height = v.grid_size("width_px", "height_px")
        kwargs["viewport"] = Viewport(
            width_px=width,
            height_px=height,
            width_m=v.number("width_m", Viewport.width_m),
            height_m=v.number("height_m", Viewport.height_m),
        )
    p = display.obj("pattern", {})
    d = display.obj("depth", {})
    depth_width, depth_height = d.grid_size(
        "width", "height", (BenchmarkOptions.depth_width, BenchmarkOptions.depth_height)
    )
    return BenchmarkOptions(
        **kwargs,
        pattern=CheckerPattern(
            rows=p.integer("rows", CheckerPattern.rows),
            cols=p.integer("cols", CheckerPattern.cols),
            square_px=p.integer("square_px", CheckerPattern.square_px),
        ),
        eye=EyePose(*display.array("eye", (3,), np.array(DEFAULT_EYE)).tolist()),
        state=PanTiltState(
            alpha=math.radians(display.number("pan_deg", 0.0)),
            beta=math.radians(display.number("tilt_deg", 0.0)),
        ),
        depth_width=depth_width,
        depth_height=depth_height,
        depth_noise_sigma=d.number("noise_sigma", BenchmarkOptions.depth_noise_sigma),
        seed=seed,
    )


def load_config(path) -> CliConfig:
    path = Path(path)
    return load_json(path, lambda r: _config_from_json(r, path.parent))


def _config_from_json(r: Fields, base: Path) -> CliConfig:
    r.check_version("config")
    if "rig" in r:
        rig = RigModel.from_json(r.obj("rig"))
    else:
        rig = load_rig(base / r.text("rig_path"))
    if "scene" in r:
        scene = scene_from_json(r.obj("scene"))
    else:
        scene = load_scene(base / r.text("scene_path"))
    protocol = CalibrationProtocol.from_json(r.obj("protocol", {}))
    display = r.obj("display", {})
    bench = r.obj("benchmark", {})
    options = _display_options(display, seed=bench.integer("seed", BenchmarkOptions.seed))
    content = display.obj("content", {})
    panorama = None
    if content.text("type", "checker", choices=("checker", "image")) == "image":
        panorama = read_image(base / content.text("path"))
    return CliConfig(rig, scene, protocol, options, panorama, bench.texts("cases", None))


# -- Shared display pipeline -------------------------------------------------------


def _apply_overrides(options: BenchmarkOptions, args) -> BenchmarkOptions:
    if getattr(args, "eye", None) is not None:
        options = replace(options, eye=EyePose(*args.eye))
    pan = getattr(args, "pan", None)
    tilt = getattr(args, "tilt", None)
    if pan is not None or tilt is not None:
        state = options.state
        options = replace(
            options,
            state=PanTiltState(
                alpha=math.radians(pan) if pan is not None else state.alpha,
                beta=math.radians(tilt) if tilt is not None else state.beta,
            ),
        )
    if getattr(args, "seed", None) is not None:
        options = replace(options, seed=args.seed)
    return options


def _load_result_or_truth(args, rig: RigModel) -> CalibrationResult:
    if getattr(args, "result", None):
        return load_result(args.result)
    return result_from_rig(rig)


def _render_content(panorama, pattern: CheckerPattern, upr, viewport: Viewport) -> np.ndarray:
    if panorama is None:
        return pattern.render(viewport.width_px, viewport.height_px)
    return render_user_view(panorama, upr, viewport)


def _naive_framebuffer(panorama, pattern: CheckerPattern, device: PinholeDevice) -> np.ndarray:
    """Content sent straight to the projector, with no geometric treatment."""
    if panorama is None:
        return np.repeat(pattern.render(device.width, device.height), 3, axis=2)
    src_h, src_w = panorama.shape[:2]
    w, h = device.width, device.height
    grid = pixel_center_grid(w, h) * np.array([src_w / w, src_h / h])
    samples = bilinear_sample(panorama, grid.reshape(h, w, 2))
    return to_uint8(samples)


def _make_framebuffer(
    cfg: CliConfig,
    result: CalibrationResult,
    options: BenchmarkOptions,
    corrected: bool,
) -> tuple[np.ndarray, DisplayChain]:
    chain = build_display_chain(cfg.scene, cfg.rig, result, options)
    if not corrected:
        return _naive_framebuffer(cfg.panorama, options.pattern, result.proj_device), chain
    user_image = _render_content(
        cfg.panorama, options.pattern, chain.est_upr, options.viewport
    )
    framebuffer = warp_to_projector(
        user_image,
        chain.geometry,
        chain.est_upr,
        options.viewport,
        result.proj_device,
        chain.est_proj_to_world,
    )
    return framebuffer, chain


# -- Subcommands -------------------------------------------------------------------


def cmd_simulate_calib(args) -> None:
    cfg = load_config(args.config)
    protocol = cfg.protocol
    if args.seed is not None:
        protocol = replace(protocol, seed=args.seed)
    session = synthesize_session(cfg.rig, cfg.scene, protocol=protocol)
    save_session(session, args.out)
    print(f"session: {args.out}")
    print(f"  pan records: {len(session.pan_observations.records)}")
    print(f"  tilt records: {len(session.tilt_observations.records)}")
    print(f"  projector correspondences: {len(session.projector)}")


def cmd_calibrate(args) -> None:
    session = load_session(args.session)
    result = run_full_calibration(session)
    save_result(result, args.out)
    print(f"result: {args.out}")
    res = result.residuals
    print(f"  axis rms (m): {res.axis_rms_m:.9f}")
    print(f"  rear rms (m): {res.rear_rms_m:.9f}")
    print(f"  projector rms (px): {res.proj_reproj_rms_px:.9f}")
    if result.parameter_errors:
        print("  errors against ground truth:")
        for key in sorted(result.parameter_errors):
            print(f"    {key}: {result.parameter_errors[key]:.3e}")


def cmd_correct(args) -> None:
    cfg = load_config(args.config)
    result = _load_result_or_truth(args, cfg.rig)
    options = _apply_overrides(cfg.options, args)
    framebuffer, _ = _make_framebuffer(
        cfg, result, options, corrected=not args.no_correction
    )
    write_image(args.out, framebuffer)
    print(f"framebuffer: {args.out}")


def _view_size(width: int, viewport) -> tuple[int, int]:
    """User-view image size for ``--width`` at the viewport's aspect ratio.

    Raises LimitError when the image would exceed the pixel budget.
    """
    height = max(1, round(min(width, MAX_IMAGE_SIDE) * viewport.height_px / viewport.width_px))
    check_pixel_budget(width, height, f"--width {width}")
    return width, height


def cmd_render_user_view(args) -> None:
    cfg = load_config(args.config)
    result = _load_result_or_truth(args, cfg.rig)
    options = _apply_overrides(cfg.options, args)
    vp = options.viewport
    width, height = _view_size(args.width, vp)
    framebuffer, chain = _make_framebuffer(
        cfg, result, options, corrected=not args.no_correction
    )
    eye = options.eye
    view_device = PinholeDevice(
        fx=abs(eye.z) * width / vp.width_m,
        fy=abs(eye.z) * height / vp.height_m,
        cx=width / 2.0,
        cy=height / 2.0,
        width=width,
        height=height,
    )
    view_to_world = chain.true_rear_to_world @ RigidTransform(
        np.eye(3), eye.as_array()
    )
    image = simulate_projection_and_view(
        framebuffer,
        cfg.scene,
        cfg.rig.proj_device,
        chain.true_proj_to_world,
        view_device,
        view_to_world,
    )
    write_image(args.out, image)
    print(f"user view: {args.out}")


def cmd_evaluate(args) -> None:
    cfg = load_config(args.config)
    result = _load_result_or_truth(args, cfg.rig)
    options = _apply_overrides(cfg.options, args)
    suite = standard_suite()
    if cfg.benchmark_cases is not None:
        try:
            suite = tuple(case_by_name(suite, name) for name in cfg.benchmark_cases)
        except KeyError:
            known = ", ".join(c.name for c in standard_suite())
            raise SchemaError(
                f"unknown benchmark case in config; known cases: {known}"
            ) from None
    report = run_benchmark(suite, cfg.rig, result, options)
    report.save(args.out)
    print(report.text_summary(), end="")


# -- Parser ------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """An argparse type for numbers within +-MAX_MAGNITUDE, the bound of input files."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not abs(value) <= MAX_MAGNITUDE:
        raise argparse.ArgumentTypeError(f"expected a number within +-1e9, got {text!r}")
    return value


def _eye_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected EYE as 'x,y,z' in meters")
    return tuple(_finite_float(p) for p in parts)


def _int_at_least(low: int):
    """An argparse type for integers no less than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reads a number or a comma list of numbers as a value, even when it
    starts with '-' (``--pan -1e1``, ``--eye -0.2,0,-1.5``); argparse alone
    takes any such token but a plain negative decimal for an option."""

    def _parse_optional(self, arg_string):
        try:
            for part in arg_string.split(","):
                float(part)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procamsim",
        description="Simulator and calibration toolkit for steerable "
        "projector-camera AR rigs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by the two subcommands that build a display framebuffer.
    display = argparse.ArgumentParser(add_help=False)
    display.add_argument("--config", required=True, help="setup JSON file")
    display.add_argument("--result", default=None, help="calibration result JSON "
                         "(defaults to the config rig's ground truth)")
    display.add_argument("--eye", type=_eye_arg, default=None,
                         help="eye position 'x,y,z' in meters, rear frame")
    display.add_argument("--pan", type=_finite_float, default=None, help="pan angle, degrees")
    display.add_argument("--tilt", type=_finite_float, default=None, help="tilt angle, degrees")
    display.add_argument("--no-correction", action="store_true",
                         help="send content straight to the projector")
    display.add_argument("--out", required=True, help="image to write (.ppm or .png)")

    p = sub.add_parser(
        "simulate-calib", help="synthesize a calibration session from a config"
    )
    p.add_argument("--config", required=True, help="setup JSON file")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override protocol seed")
    p.add_argument("--out", required=True, help="session JSON to write")
    p.set_defaults(func=cmd_simulate_calib)

    p = sub.add_parser("calibrate", help="estimate rig parameters from a session")
    p.add_argument("--session", required=True, help="session JSON from simulate-calib")
    p.add_argument("--out", required=True, help="result JSON to write")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "correct", parents=[display], help="compute the pre-warped projector framebuffer"
    )
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="run the benchmark suite and write a report")
    p.add_argument("--config", required=True, help="setup JSON file")
    p.add_argument("--result", default=None, help="calibration result JSON")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override benchmark seed")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "render-user-view", parents=[display],
        help="simulate the user's view during projection",
    )
    p.add_argument("--width", type=_int_at_least(1), default=640, help="output image width")
    p.set_defaults(func=cmd_render_user_view)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_evaluate:
        try:
            thread_count(1)  # PROCAMSIM_THREADS is part of how evaluate is invoked
        except ValueError as exc:
            parser.error(str(exc))
    try:
        args.func(args)
    except ProcamError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error[error]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
