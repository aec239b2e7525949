"""Residual-distortion metric and the reproducible benchmark suite.

The metric is corner dislocation: a checker pattern is traced through the
corrected display chain (and, for reference, through an uncorrected one),
and each resolvable corner contributes the Euclidean distance, in
virtual-screen pixels, between where it should appear and where the user
actually sees it. Corner sets are matched by corner index; the mean runs
over the indices present in both sets.

``run_benchmark`` evaluates a list of scenes with a true rig (the physical
ground truth) and a calibration result (the estimates the warp must use),
so calibration error propagates into the reported dislocation exactly as
it would on hardware. Results are deterministic: each case's seed derives
from the report seed and the case's name, so a case gives the same numbers
alone, in any subset or in any order, and worker threads never reorder
output.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationResult
from .errors import EmptyIntersectionError, save_json
from .geometry import PinholeDevice, RigidTransform, rotation_about_axis
from .images import draw_marker, write_ppm
from .rig import PanTiltState, RigModel, RigPose, platform_rotation, rig_pose
from .scene import (
    Box,
    CylinderSegment,
    DepthNoiseModel,
    Plane,
    Scene,
    Sphere,
    TriangleMesh,
    grid_faces,
    reconstruct_mesh,
    sense_depth,
)
from .upr import DEFAULT_EYE, EyePose, UprMatrix, Viewport, upr_matrix
from .warp import (
    CheckerPattern,
    CornerPropagation,
    propagate_corners,
    propagate_corners_uncorrected,
)

THREADS_ENV_VAR = "PROCAMSIM_THREADS"

# Width in pixels of each case's overlay image; the height keeps the
# viewport's aspect ratio.
_OVERLAY_WIDTH = 480


# -- Corner dislocation ---------------------------------------------------------


@dataclass(frozen=True)
class CornerSet:
    """Indexed corner positions in virtual-screen pixels."""

    indices: np.ndarray
    positions_px: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        pos = np.asarray(self.positions_px, dtype=float).reshape(-1, 2)
        if len(idx) != len(pos):
            raise ValueError("indices and positions must have equal length")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("corner indices must be unique")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "positions_px", pos)

    @classmethod
    def from_propagation(cls, prop: CornerPropagation) -> "CornerSet":
        """The resolved observed corners."""
        keep = prop.resolved
        return cls(prop.indices[keep], prop.observed_px[keep])


def corner_dislocation(a: CornerSet, b: CornerSet) -> float:
    """Mean Euclidean distance over the corner indices both sets share."""
    shared, ia, ib = np.intersect1d(a.indices, b.indices, return_indices=True)
    if len(shared) == 0:
        raise EmptyIntersectionError("corner sets share no corner indices")
    d = np.linalg.norm(a.positions_px[ia] - b.positions_px[ib], axis=1)
    return float(d.mean())


# -- Benchmark cases --------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    scene: Scene


def _wall() -> Plane:
    return Plane(
        point=[0.0, 0.0, 3.0],
        normal=[0.0, 0.0, -1.0],
        extent=(6.0, 4.0),
        surface_id="wall",
        albedo=(0.85, 0.85, 0.85),
    )


def _wedge_mesh() -> TriangleMesh:
    """Corrugated wall receding nearly edge-on from the sensing rig.

    The base plane tilts 65 degrees away from frontal, so sensing rays meet
    it near the depth sensor's dropout band; a gentle corrugation (2 cm
    amplitude, 0.5 m period) modulates the local incidence angle through the
    band, producing alternating stripes of certain dropout (crests, grazing)
    and certain validity (troughs). The corrugation wavelength is also below
    what the sensor's pixel footprint resolves at grazing incidence, so the
    reconstructed relief is flattened wherever depth does survive.
    """
    base_angle = math.radians(65.0)
    amplitude = 0.02
    period = 0.5
    normal = np.array([-math.sin(base_angle), 0.0, -math.cos(base_angle)])
    t_vert = np.array([0.0, 1.0, 0.0])
    t_recede = np.cross(normal, t_vert)
    anchor = np.array([0.45, 0.0, 2.65])
    us = np.arange(-5.0, 1.2 + 1e-9, 0.025)
    vs = np.array([-2.5, 0.0, 2.5])
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    relief = amplitude * np.sin(2.0 * math.pi * uu / period)
    points = (
        anchor[None, None, :]
        + uu[..., None] * t_recede
        + vv[..., None] * t_vert
        + relief[..., None] * normal
    )
    return TriangleMesh(
        vertices=points.reshape(-1, 3),
        faces=grid_faces(*uu.shape),
        surface_id="wedge-wall",
        albedo=(0.8, 0.8, 0.75),
    )


def _cloth_mesh() -> TriangleMesh:
    nx, ny = 25, 19
    xs = np.linspace(-1.0, 1.0, nx)
    ys = np.linspace(-0.7, 0.7, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    gz = 2.6 + 0.08 * np.sin(3.0 * gx) * np.cos(2.5 * gy)
    vertices = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return TriangleMesh(
        vertices=vertices,
        faces=grid_faces(ny, nx),
        surface_id="cloth",
        albedo=(0.7, 0.75, 0.9),
    )


def standard_suite() -> tuple[BenchmarkCase, ...]:
    """Representative display surfaces, each backed by the same far wall.

    ``base`` is an unobstructed frontal wall; the others add the obstacle
    classes the correction must handle: an oblique plane, box edges, curved
    surfaces, a free-form sheet and a grazing corrugated wall that defeats
    depth sensing over part of its extent.
    """
    oblique_normal = [-math.sin(math.radians(45.0)), 0.0, -math.cos(math.radians(45.0))]
    cases = (
        BenchmarkCase(name="base", scene=Scene(surfaces=(_wall(),), checkerboards=())),
        BenchmarkCase(
            name="oblique45",
            scene=Scene(
                surfaces=(
                    Plane(
                        point=[0.0, 0.0, 3.0],
                        normal=oblique_normal,
                        extent=(8.0, 6.0),
                        surface_id="oblique-wall",
                        albedo=(0.85, 0.85, 0.85),
                    ),
                ),
                checkerboards=(),
            ),
        ),
        BenchmarkCase(
            name="box",
            scene=Scene(
                surfaces=(
                    _wall(),
                    Box(
                        pose=RigidTransform(
                            rotation_about_axis([0.0, 1.0, 0.0], math.radians(15.0)),
                            np.array([0.35, 0.15, 2.3]),
                        ),
                        dimensions=(0.8, 0.6, 0.5),
                        surface_id="crate",
                        albedo=(0.8, 0.7, 0.6),
                    ),
                ),
                checkerboards=(),
            ),
        ),
        BenchmarkCase(
            name="cylinder",
            scene=Scene(
                surfaces=(
                    _wall(),
                    CylinderSegment(
                        pose=RigidTransform(
                            rotation_about_axis([1.0, 0.0, 0.0], -math.pi / 2.0),
                            np.array([-0.45, -0.7, 2.4]),
                        ),
                        radius=0.28,
                        height=1.4,
                        surface_id="column",
                        albedo=(0.75, 0.8, 0.75),
                    ),
                ),
                checkerboards=(),
            ),
        ),
        BenchmarkCase(
            name="spheres",
            scene=Scene(
                surfaces=(
                    _wall(),
                    Sphere(center=[-0.35, -0.1, 2.5], radius=0.3, surface_id="ball-a",
                           albedo=(0.85, 0.75, 0.7)),
                    Sphere(center=[0.4, 0.25, 2.7], radius=0.35, surface_id="ball-b",
                           albedo=(0.7, 0.8, 0.85)),
                ),
                checkerboards=(),
            ),
        ),
        BenchmarkCase(
            name="cloth",
            scene=Scene(surfaces=(_wall(), _cloth_mesh()), checkerboards=()),
        ),
        BenchmarkCase(
            name="grazing_wedge",
            scene=Scene(surfaces=(_wedge_mesh(),), checkerboards=()),
        ),
    )
    return cases


def case_by_name(cases, name: str) -> BenchmarkCase:
    for case in cases:
        if case.name == name:
            return case
    raise KeyError(f"no benchmark case named {name!r}")


# -- Benchmark runner --------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkOptions:
    """Knobs for a benchmark run; defaults match the reported numbers."""

    viewport: Viewport = field(default_factory=lambda: Viewport(1920, 1080))
    pattern: CheckerPattern = field(default_factory=CheckerPattern)
    eye: EyePose = field(default_factory=lambda: EyePose(*DEFAULT_EYE))
    state: PanTiltState = field(default_factory=PanTiltState)
    depth_width: int = 160
    depth_height: int = 120
    depth_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.depth_width <= 0 or self.depth_height <= 0:
            raise ValueError("depth sensor width and height must be positive")
        self.pattern.check_fits(self.viewport.width_px, self.viewport.height_px)
        self.depth_noise()  # checks the noise sigma

    def depth_noise(self) -> DepthNoiseModel:
        return DepthNoiseModel(sigma=self.depth_noise_sigma, rng_seed=self.seed)


@dataclass(frozen=True)
class CaseResult:
    name: str
    seed: int  # the depth-noise seed, from the report seed and the case's name
    corner_count: int
    resolved_count: int
    resolved_fraction: float
    invalid_depth_fraction: float
    corrected_mean_px: float  # NaN when nothing resolved
    corrected_max_px: float
    uncorrected_mean_px: float
    corrected: CornerPropagation

    def to_json(self) -> dict:
        def num(x):
            return None if (isinstance(x, float) and math.isnan(x)) else x

        return {
            "name": self.name,
            "seed": self.seed,
            "corner_count": self.corner_count,
            "resolved_count": self.resolved_count,
            "resolved_fraction": self.resolved_fraction,
            "invalid_depth_fraction": self.invalid_depth_fraction,
            "corrected_mean_px": num(self.corrected_mean_px),
            "corrected_max_px": num(self.corrected_max_px),
            "uncorrected_mean_px": num(self.uncorrected_mean_px),
        }


@dataclass(frozen=True)
class BenchmarkReport:
    options: BenchmarkOptions
    results: tuple

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "settings": {
                "viewport": asdict(self.options.viewport),
                "pattern": asdict(self.options.pattern),
                "eye": [self.options.eye.x, self.options.eye.y, self.options.eye.z],
                "pan_deg": math.degrees(self.options.state.alpha),
                "tilt_deg": math.degrees(self.options.state.beta),
                "depth_resolution": [self.options.depth_width, self.options.depth_height],
                "depth_noise_sigma": self.options.depth_noise_sigma,
                "seed": self.options.seed,
            },
            "cases": [r.to_json() for r in self.results],
        }

    def text_summary(self) -> str:
        lines = [
            f"{'case':<14} {'corrected':>10} {'max':>8} {'uncorrected':>12}"
            f" {'resolved':>9} {'bad depth':>10}",
        ]

        def fmt(x, width):
            if isinstance(x, float) and math.isnan(x):
                return f"{'n/a':>{width}}"
            return f"{x:>{width}.3f}"

        for r in self.results:
            lines.append(
                f"{r.name:<14} {fmt(r.corrected_mean_px, 10)} {fmt(r.corrected_max_px, 8)}"
                f" {fmt(r.uncorrected_mean_px, 12)}"
                f" {r.resolved_fraction:>8.1%} {r.invalid_depth_fraction:>9.1%}"
            )
        lines.append("(dislocation in virtual-screen pixels; mean over resolved corners)")
        return "\n".join(lines) + "\n"

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_json(out_dir / "report.json", self.to_json())
        (out_dir / "report.txt").write_text(self.text_summary())
        for r in self.results:
            write_ppm(out_dir / f"overlay_{r.name}.ppm", self._overlay(r))

    def _overlay(self, result: CaseResult) -> np.ndarray:
        vp = self.options.viewport
        width = _OVERLAY_WIDTH
        height = max(1, round(width * vp.height_px / vp.width_px))
        img = np.zeros((height, width, 3), dtype=np.uint8)
        sx = width / vp.width_px
        sy = height / vp.height_px
        prop = result.corrected
        for k in range(len(prop.indices)):
            d = prop.desired_px[k]
            draw_marker(img, (d[0] * sx, d[1] * sy), (0, 255, 0), half_size=3)
            if prop.resolved[k]:
                o = prop.observed_px[k]
                draw_marker(img, (o[0] * sx, o[1] * sy), (255, 0, 0), half_size=2)
        return img


def _scaled_device(device: PinholeDevice, width: int, height: int) -> PinholeDevice:
    sx = width / device.width
    sy = height / device.height
    return PinholeDevice(
        fx=device.fx * sx,
        fy=device.fy * sy,
        cx=device.cx * sx,
        cy=device.cy * sy,
        width=width,
        height=height,
        skew=device.skew * sx,
    )


@dataclass(frozen=True)
class DisplayChain:
    """Everything needed to correct and to physically simulate one display.

    ``est_*`` members come from the calibration result and drive the warp;
    ``true_*`` members come from the ground-truth rig and govern what the
    projector light actually does. With a perfect calibration result the
    two sides coincide.
    """

    geometry: TriangleMesh  # world-frame reconstruction, placed with the estimates
    depth_valid_fraction: float
    est_upr: UprMatrix
    true_upr: UprMatrix
    est_proj_to_world: RigidTransform
    true_proj_to_world: RigidTransform
    true_rear_to_world: RigidTransform


def build_display_chain(
    scene: Scene,
    rig: RigModel,
    result: CalibrationResult,
    options: BenchmarkOptions,
) -> DisplayChain:
    """Sense depth with the true rig, then model the display with estimates.

    At non-home states the commanded motor angles pass through both the
    true and the estimated axes, so axis errors show up in the chain. Raises
    LimitError when the state is outside the rig's mechanical limits.
    """
    state = options.state
    true_pose = rig_pose(rig, state)
    est_pose = RigPose.compose(
        platform_rotation(result.pan_axis, result.tilt_axis, state),
        result.rear_to_front,
        result.front_to_proj,
    )

    depth_device = _scaled_device(
        rig.front_device, options.depth_width, options.depth_height
    )
    depth = sense_depth(scene, depth_device, true_pose.front_to_world, options.depth_noise())
    geometry = reconstruct_mesh(depth, depth_device, est_pose.front_to_world)
    return DisplayChain(
        geometry=geometry,
        depth_valid_fraction=float(depth.valid.mean()),
        est_upr=upr_matrix(options.eye, est_pose.rear_to_world.inverse()),
        true_upr=upr_matrix(options.eye, true_pose.rear_to_world.inverse()),
        est_proj_to_world=est_pose.proj_to_world,
        true_proj_to_world=true_pose.proj_to_world,
        true_rear_to_world=true_pose.rear_to_world,
    )


def _dislocation(prop: CornerPropagation) -> tuple[float, float]:
    """Mean and max dislocation of the resolved corners; NaN when none resolved."""
    keep = prop.resolved
    if not keep.any():
        return float("nan"), float("nan")
    desired = CornerSet(prop.indices, prop.desired_px)
    mean = corner_dislocation(desired, CornerSet.from_propagation(prop))
    d = np.linalg.norm(prop.observed_px[keep] - prop.desired_px[keep], axis=1)
    return mean, float(d.max())


def evaluate_case(
    case: BenchmarkCase,
    rig: RigModel,
    result: CalibrationResult,
    options: BenchmarkOptions,
) -> CaseResult:
    """Dislocation metrics for one scene.

    The depth sensor and the display physics use the true rig; the warp
    uses the calibration result, so calibration error propagates into the
    reported dislocation. Depth noise is seeded by ``options.seed * 2**32 +
    crc32(case.name)``: the case's name, not its place in a list, picks the
    draws, and no two report seeds share a case seed.
    """
    options = replace(options, seed=options.seed * 2**32 + zlib.crc32(case.name.encode()))
    chain = build_display_chain(case.scene, rig, result, options)

    corrected = propagate_corners(
        options.pattern,
        chain.geometry,
        chain.est_upr,
        options.viewport,
        result.proj_device,
        chain.est_proj_to_world,
        true_scene=case.scene,
        true_proj_device=rig.proj_device,
        true_proj_to_world=chain.true_proj_to_world,
        true_upr=chain.true_upr,
    )
    uncorrected = propagate_corners_uncorrected(
        options.pattern,
        case.scene,
        rig.proj_device,
        chain.true_proj_to_world,
        chain.true_upr,
        options.viewport,
    )

    corrected_mean, corrected_max = _dislocation(corrected)
    uncorrected_mean, _ = _dislocation(uncorrected)

    return CaseResult(
        name=case.name,
        seed=options.seed,
        corner_count=len(corrected.indices),
        resolved_count=int(corrected.resolved.sum()),
        resolved_fraction=corrected.resolved_fraction(),
        invalid_depth_fraction=1.0 - chain.depth_valid_fraction,
        corrected_mean_px=corrected_mean,
        corrected_max_px=corrected_max,
        uncorrected_mean_px=uncorrected_mean,
        corrected=corrected,
    )


def thread_count(n_tasks: int) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_tasks, cap))


def run_benchmark(
    cases,
    rig: RigModel,
    result: CalibrationResult,
    options: BenchmarkOptions,
) -> BenchmarkReport:
    """Evaluate every case on ``thread_count`` threads; results keep the input
    order, and their bytes, whatever the number of threads."""
    cases = tuple(cases)
    with ThreadPoolExecutor(max_workers=thread_count(len(cases))) as pool:
        results = list(
            pool.map(lambda case: evaluate_case(case, rig, result, options), cases)
        )
    return BenchmarkReport(options=options, results=tuple(results))
