"""Outside-in layer tracing for the benchmark.

``Tracer.install`` replaces the public functions and methods of each
procamsim layer with wrappers that record a span (name, start, end, parent,
operation) plus the work counts of that call. A module-level function is
replaced under every name it is bound to in a loaded ``procamsim`` module,
so ``procamsim.warp.rasterize`` is traced as well as
``procamsim.raster.rasterize``. ``Tracer.uninstall`` restores the originals.

``layer_metrics`` turns the recorded spans into the per-layer metrics the
benchmark reports; ``LAYER_METRICS`` names them with their units.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SUITE_CASES = ("base", "oblique45", "box", "cylinder", "spheres", "cloth", "grazing_wedge")

# Every per-layer metric, in report order, with its unit. Each group names
# the end-to-end metric and workloads it is expected to move.
LAYER_METRICS = (
    # scene: ray casting and depth sensing. sense_depth moves op_s on
    # steer_sweep and suite_eval; mesh intersection moves suite_eval op_s
    # and peak_rss_mb and not tracked_eye; reconstruct_mesh moves
    # steer_sweep; analytic intersection moves steer_sweep.
    ("sense_depth.s", "s"),
    ("sense_depth.rays", "count"),
    ("TriangleMesh.intersect.s", "s"),
    ("TriangleMesh.intersect.ray_face_pairs", "count"),
    ("reconstruct_mesh.s", "s"),
    ("reconstruct_mesh.faces", "count"),
    ("analytic_intersect.s", "s"),
    ("analytic_intersect.rays", "count"),
    # raster and images: op_s on tracked_eye and steer_sweep, never
    # suite_eval; write_image is the frame's output I/O.
    ("rasterize.s", "s"),
    ("rasterize.faces", "count"),
    ("rasterize.covered_px", "count"),
    ("bilinear_sample.s", "s"),
    ("bilinear_sample.samples", "count"),
    ("write_image.s", "s"),
    ("write_image.bytes", "B"),
    # upr and warp: the per-eye map, glue and pattern move tracked_eye;
    # corner propagation moves suite_eval.
    ("UprMatrix.apply.s", "s"),
    ("UprMatrix.apply.points", "count"),
    ("warp_to_projector.self_s", "s"),
    ("CheckerPattern.render.s", "s"),
    ("propagate_corners.s", "s"),
    ("propagate_corners_uncorrected.s", "s"),
    # evaluation: build_display_chain moves steer_sweep op_s and
    # tracked_eye setup_s; with one worker per CPU the slowest case sets
    # suite_eval op_s.
    ("build_display_chain.s", "s"),
    *((f"evaluate_case.{case}.s", "s") for case in SUITE_CASES),
    ("run_benchmark.critical_s", "s"),
    ("run_benchmark.parallel_eff", "ratio"),
    # calibration and simulate, run once per suite_eval set-up: its setup_s.
    ("estimate_axis.s", "s"),
    ("register_rear_camera.s", "s"),
    ("calibrate_projector.s", "s"),
    ("run_full_calibration.self_s", "s"),
    ("save_session.s", "s"),
    ("save_session.bytes", "B"),
    ("load_session.s", "s"),
    ("load_session.bytes", "B"),
    ("save_result.s", "s"),
    ("save_result.bytes", "B"),
    ("load_result.s", "s"),
    ("load_result.bytes", "B"),
    ("synthesize_session.s", "s"),
    # process, per untraced op: op_s and peak_rss_mb on the 1080p workloads.
    ("process.cpu_s", "s"),
    ("process.minflt", "count"),
    # import, from fresh ``-X importtime`` processes: every setup_s.
    ("import.procamsim_cli_s", "s"),
    ("import.scipy_s", "s"),
    # traced over untraced op wall time within the traced run.
    ("trace.overhead_ratio", "ratio"),
)


def _rows(array) -> int:
    return int(np.shape(array)[0])


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


# (module, attribute or Class.method, span name, counts(bound args, result)).
# A span name may be a function of the bound arguments.
LAYERS = (
    ("procamsim.scene", "sense_depth", "sense_depth",
     lambda a, r: {"rays": a["device"].width * a["device"].height}),
    ("procamsim.scene", "TriangleMesh.intersect", "TriangleMesh.intersect",
     lambda a, r: {"ray_face_pairs": _rows(a["origins"]) * len(a["self"].faces)}),
    ("procamsim.scene", "reconstruct_mesh", "reconstruct_mesh",
     lambda a, r: {"faces": len(r.faces)}),
    *(("procamsim.scene", f"{cls}.intersect", "analytic_intersect",
       lambda a, r: {"rays": _rows(a["origins"])})
      for cls in ("Plane", "Sphere", "Box", "CylinderSegment")),
    ("procamsim.raster", "rasterize", "rasterize",
     lambda a, r: {"faces": _rows(a["faces"]), "covered_px": int(r.mask.sum())}),
    ("procamsim.images", "bilinear_sample", "bilinear_sample",
     lambda a, r: {"samples": int(np.prod(np.shape(a["xy"])[:-1]))}),
    ("procamsim.images", "write_image", "write_image",
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("procamsim.upr", "UprMatrix.apply", "UprMatrix.apply",
     lambda a, r: {"points": _rows(r[0])}),
    ("procamsim.warp", "warp_to_projector", "warp_to_projector", None),
    ("procamsim.warp", "CheckerPattern.render", "CheckerPattern.render", None),
    ("procamsim.warp", "propagate_corners", "propagate_corners", None),
    ("procamsim.warp", "propagate_corners_uncorrected", "propagate_corners_uncorrected", None),
    ("procamsim.evaluation", "build_display_chain", "build_display_chain", None),
    ("procamsim.evaluation", "evaluate_case",
     lambda a: f"evaluate_case.{a['case'].name}", None),
    ("procamsim.evaluation", "run_benchmark", "run_benchmark", None),
    ("procamsim.calibration", "estimate_axis", "estimate_axis", None),
    ("procamsim.calibration", "register_rear_camera", "register_rear_camera", None),
    ("procamsim.calibration", "calibrate_projector", "calibrate_projector", None),
    ("procamsim.calibration", "run_full_calibration", "run_full_calibration", None),
    ("procamsim.calibration", "save_session", "save_session",
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("procamsim.calibration", "load_session", "load_session",
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("procamsim.calibration", "save_result", "save_result",
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("procamsim.calibration", "load_result", "load_result",
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("procamsim.simulate", "synthesize_session", "synthesize_session", None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped procamsim functions while installed.

    ``op`` tags new spans with the operation they belong to (-1 for set-up);
    the thread that drives the workload sets it, and worker threads started
    inside an operation read it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._wrappers = None

    def _wrap(self, fn, name, counts):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._stack, "ids", None)
            if stack is None:
                stack = tracer._stack.ids = []
            bound = None
            if counts is not None or callable(name):
                bound = signature.bind(*args, **kwargs).arguments
            span = Span(
                next(tracer._ids),
                name(bound) if callable(name) else name,
                time.perf_counter(),
                stack[-1] if stack else None,
                tracer.op,
            )
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function; call after ``procamsim.cli`` is imported."""
        if self._wrappers is None:
            self._wrappers = []
            for module_name, attr, name, counts in LAYERS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    sites = [(owner, method)]
                else:
                    original = getattr(module, attr)
                    sites = [
                        (site, key)
                        for site_name, site in list(sys.modules.items())
                        if site_name == "procamsim" or site_name.startswith("procamsim.")
                        for key, value in vars(site).items()
                        if value is original
                    ]
                self._wrappers.append((sites, original, self._wrap(original, name, counts)))
        for sites, _, wrapper in self._wrappers:
            for owner, key in sites:
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for sites, original, _ in self._wrappers or ():
            for owner, key in sites:
                setattr(owner, key, original)


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {span.id: span.duration - child_time[span.id] for span in spans}


def _per_op_totals(spans: list[Span], workers: int) -> dict[int, dict[str, float]]:
    """Per operation (set-up is -1): layer metric name -> total for that op."""
    self_time = _self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    cases = defaultdict(list)
    for span in spans:
        op = totals[span.op]
        op[f"{span.name}.s"] += span.duration
        op[f"{span.name}.self_s"] += self_time[span.id]
        for key, value in (span.counts or {}).items():
            op[f"{span.name}.{key}"] += value
        if span.name.startswith("evaluate_case."):
            cases[span.op].append(span.duration)
    for span in spans:
        if span.name == "run_benchmark" and cases[span.op]:
            op = totals[span.op]
            op["run_benchmark.critical_s"] = max(cases[span.op])
            op["run_benchmark.parallel_eff"] = sum(cases[span.op]) / (
                span.duration * workers
            )
    return totals


def layer_metrics(spans: list[Span], traced_ops: list[int], workers: int) -> dict:
    """Median over traced operations of each layer metric's per-op total.

    A layer that ran only while the workload was set up (such as the display
    chain of ``tracked_eye``) reports its set-up total; a layer the workload
    never reaches reports 0.
    """
    totals = _per_op_totals(spans, workers)
    seen = {key for op in traced_ops for key in totals[op]}
    out = {}
    for name, _ in LAYER_METRICS:
        if name in seen:
            out[name] = statistics.median(totals[op].get(name, 0.0) for op in traced_ops)
        else:
            out[name] = totals[-1].get(name, 0.0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for ``procamsim.cli`` and for scipy from ``-X importtime`` output.

    The scipy figure sums the cumulative time of every scipy import whose
    importer is not itself part of scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, package = line[len("import time:"):].split("|")
        depth = (len(package) - len(package.lstrip())) // 2
        entries.append((depth, package.strip(), int(cumulative) * 1e-6))
    out = {"import.procamsim_cli_s": 0.0, "import.scipy_s": 0.0}
    stack = []  # ancestors of the current entry, walking the tree top-down
    for depth, name, seconds in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "procamsim.cli":
            out["import.procamsim_cli_s"] = seconds
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["import.scipy_s"] += seconds
        stack.append((depth, name))
    return out
