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
from .errors import LimitError, ProcamError, SchemaError, check_schema_version, load_json
from .evaluation import (
    BenchmarkOptions,
    DisplayChain,
    build_display_chain,
    case_by_name,
    run_benchmark,
    standard_suite,
)
from .geometry import PinholeDevice, RigidTransform, pixel_center_grid
from .images import bilinear_sample, read_image, write_image
from .rig import PanTiltState, RigModel, load_rig
from .scene import Scene, load_scene, scene_from_json
from .simulate import CalibrationProtocol, synthesize_session
from .upr import EyePose, Viewport
from .warp import (
    CheckerPattern,
    EquirectContent,
    render_user_view,
    simulate_projection_and_view,
    warp_to_projector,
)


# -- Config file -------------------------------------------------------------------


class CliConfig:
    """A parsed setup file: rig, scene and display settings."""

    def __init__(self, rig, scene, protocol, options, content, benchmark_cases):
        self.rig: RigModel = rig
        self.scene: Scene = scene
        self.protocol: CalibrationProtocol = protocol
        self.options: BenchmarkOptions = options
        self.content = content  # ("checker", None) or ("image", ndarray)
        self.benchmark_cases = benchmark_cases  # tuple of names, or None


def _display_options(display: dict) -> BenchmarkOptions:
    kwargs = {}
    if "viewport" in display:
        v = _section(display, "display.viewport")
        kwargs["viewport"] = Viewport(
            width_px=int(v["width_px"]),
            height_px=int(v["height_px"]),
            width_m=float(v.get("width_m", Viewport(1, 1).width_m)),
            height_m=float(v.get("height_m", Viewport(1, 1).height_m)),
        )
    if "pattern" in display:
        p = _section(display, "display.pattern")
        kwargs["pattern"] = CheckerPattern(
            rows=int(p.get("rows", 5)),
            cols=int(p.get("cols", 8)),
            square_px=int(p.get("square_px", 60)),
        )
    if "eye" in display:
        e = [float(x) for x in display["eye"]]
        if len(e) != 3 or not all(map(math.isfinite, e)):
            raise SchemaError("display.eye must have three finite components")
        kwargs["eye"] = EyePose(*e)
    if "pan_deg" in display or "tilt_deg" in display:
        kwargs["state"] = PanTiltState(
            alpha=math.radians(float(display.get("pan_deg", 0.0))),
            beta=math.radians(float(display.get("tilt_deg", 0.0))),
        )
    if "depth" in display:
        d = _section(display, "display.depth")
        if "width" in d:
            kwargs["depth_width"] = int(d["width"])
        if "height" in d:
            kwargs["depth_height"] = int(d["height"])
        if "noise_sigma" in d:
            kwargs["depth_noise_sigma"] = float(d["noise_sigma"])
    return BenchmarkOptions(**kwargs)


def _section(parent: dict, name: str) -> dict:
    """The config section at dotted path ``name`` below ``parent``, ``{}`` when absent.

    The section must be a JSON object.
    """
    value = parent.get(name.rsplit(".", 1)[-1], {})
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def load_config(path) -> CliConfig:
    path = Path(path)
    return load_json(path, lambda data: _config_from_json(data, path.parent))


def _config_from_json(data, base: Path) -> CliConfig:
    check_schema_version(data, "config")
    try:
        if "rig" in data:
            rig = RigModel.from_json(data["rig"])
        elif "rig_path" in data:
            rig = load_rig(base / data["rig_path"])
        else:
            raise SchemaError("config needs 'rig' or 'rig_path'")

        if "scene" in data:
            scene = scene_from_json(data["scene"])
        elif "scene_path" in data:
            scene = load_scene(base / data["scene_path"])
        else:
            raise SchemaError("config needs 'scene' or 'scene_path'")

        protocol = CalibrationProtocol.from_json(_section(data, "protocol"))
        display = _section(data, "display")
        options = _display_options(display)

        content_spec = _section(display, "display.content")
        kind = content_spec.get("type", "checker")
        if kind == "checker":
            content = ("checker", None)
        elif kind == "image":
            if "path" not in content_spec:
                raise SchemaError("display.content of type 'image' needs a 'path'")
            content = ("image", read_image(base / content_spec["path"]))
        else:
            raise SchemaError(f"unknown display.content type {kind!r}")

        bench = _section(data, "benchmark")
        cases = None
        if "cases" in bench:
            cases = bench["cases"]
            if not isinstance(cases, list) or not all(isinstance(c, str) for c in cases):
                raise SchemaError("benchmark.cases must be a list of case names")
            cases = tuple(cases)
        if "seed" in bench:
            options = replace(options, seed=int(bench["seed"]))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad config: {exc}") from exc
    return CliConfig(rig, scene, protocol, options, content, cases)


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


def _render_content(content, pattern: CheckerPattern, upr, viewport: Viewport) -> np.ndarray:
    kind, payload = content
    if kind == "checker":
        return pattern.render(viewport.width_px, viewport.height_px)
    return render_user_view(EquirectContent(payload), upr, viewport)


def _naive_framebuffer(content, pattern: CheckerPattern, device: PinholeDevice) -> np.ndarray:
    """Content sent straight to the projector, with no geometric treatment."""
    kind, payload = content
    if kind == "checker":
        return pattern.render(device.width, device.height)
    src_h, src_w = payload.shape[:2]
    w, h = device.width, device.height
    grid = pixel_center_grid(w, h) * np.array([src_w / w, src_h / h])
    samples = bilinear_sample(payload, grid.reshape(h, w, 2))
    return np.clip(np.rint(samples), 0, 255).astype(np.uint8)


def _make_framebuffer(
    cfg: CliConfig,
    result: CalibrationResult,
    options: BenchmarkOptions,
    corrected: bool,
) -> tuple[np.ndarray, DisplayChain]:
    chain = build_display_chain(cfg.scene, cfg.rig, result, options)
    if not corrected:
        return _naive_framebuffer(cfg.content, options.pattern, result.proj_device), chain
    user_image = _render_content(
        cfg.content, options.pattern, chain.est_upr, options.viewport
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
    print(f"  projector correspondences: {len(session.projector.records)}")


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


# Largest user view ``render-user-view`` renders; 4096 x 4096 admits 4K UHD.
MAX_VIEW_PIXELS = 4096 * 4096


def _view_size(width: int, viewport) -> tuple[int, int]:
    """User-view image size for ``--width`` at the viewport's aspect ratio.

    Raises LimitError when the image would exceed MAX_VIEW_PIXELS.
    """
    if width <= MAX_VIEW_PIXELS:
        height = max(1, round(width * viewport.height_px / viewport.width_px))
        if width * height <= MAX_VIEW_PIXELS:
            return width, height
    raise LimitError(
        f"--width {width} exceeds the user-view budget of {MAX_VIEW_PIXELS} pixels"
        " (4096x4096)"
    )


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
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _eye_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected EYE as 'x,y,z' in meters")
    return tuple(_finite_float(p) for p in parts)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--seed", type=int, default=None, help="override protocol seed")
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
    p.add_argument("--seed", type=int, default=None, help="override benchmark seed")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "render-user-view", parents=[display],
        help="simulate the user's view during projection",
    )
    p.add_argument("--width", type=_positive_int, default=640, help="output image width")
    p.set_defaults(func=cmd_render_user_view)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
