"""procamsim benchmark: three workloads timed end to end, or traced by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload tracked_eye --seed 1 --seconds 30 --trace 0

Workloads (see ``worker.py``): ``tracked_eye``, ``steer_sweep`` and
``suite_eval``. Every process the benchmark starts gets
the same pinned thread environment, recorded in the output.

With ``--trace 0`` a run reports, measured with tracing off:

- ``op_s``: median wall seconds of the timed operations. The first
  operation of the measuring process is run and checked but not timed; the
  timed ones run in whole passes over the workload's table of eyes or
  states, so every run times each entry equally often.
- ``setup_s``: median, over several fresh processes, of the wall seconds
  from spawning the interpreter to having the workload ready (import,
  config load, workload preparation).
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

With ``--trace 1`` it reports the per-layer metrics of ``tracing.py`` from
one traced process, whose timed operations alternate traced and untraced
to give the tracing overhead, plus import times from ``-X importtime``.

Each run also records, as diagnostics that nothing gates, the Python,
numpy and scipy versions, ``nproc``, the thread environment, per-op CPU
time and minor faults, and a host-drift probe: a fixed memory-bound numpy
kernel timed before and after the measurement. The last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tracked_eye", "steer_sweep", "suite_eval")
SETUP_RUNS = 8  # fresh processes per run whose set-up time is sampled (1 at smoke scale)
IMPORT_RUNS = 3  # fresh ``-X importtime`` processes per traced run
DEADLINE_S = 170.0
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env(workload: str) -> dict:
    """Thread settings for every benchmark process; threads stay <= nproc.

    Only ``suite_eval`` runs procamsim's case threads, one per CPU, and
    BLAS and OpenMP stay single-threaded everywhere.
    """
    return {
        "PYTHONPATH": str(ROOT / "src"),
        "PROCAMSIM_THREADS": str(nproc() if workload == "suite_eval" else 1),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def drift_probe() -> float:
    """Host memory bandwidth in GB/s from a fixed numpy kernel (median of 11)."""
    import numpy as np

    a = np.ones(1 << 23)
    b = np.empty_like(a)
    times = []
    for _ in range(11):
        start = time.perf_counter()
        np.multiply(a, 1.0000001, out=b)
        np.add(b, 1.0, out=a)
        times.append(time.perf_counter() - start)
    return 4 * a.nbytes / statistics.median(times) / 1e9


class Runner:
    """Starts benchmark processes under the pinned environment and a deadline."""

    def __init__(self, workload: str, deadline: float):
        self.env = {**os.environ, **pinned_env(workload)}
        self.deadline = deadline

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before starting a process")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"exit status {proc.returncode}: {' '.join(argv[:3])}")
        return spawned, proc

    def worker(self, args, out_dir: Path, *extra: str) -> tuple[float, dict]:
        spawned, proc = self.run([
            str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
            "--out-dir", str(out_dir), *extra,
        ])
        sys.stderr.write(proc.stderr)
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(runner: Runner) -> dict:
    """Median over fresh processes of the import times in ``tracing.py``."""
    import tracing

    samples = [
        tracing.parse_importtime(
            runner.run(["-X", "importtime", "-c", "import procamsim.cli"])[1].stderr
        )
        for _ in range(IMPORT_RUNS)
    ]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def measure(args, runner: Runner, out_dir: Path) -> tuple[dict, dict, dict]:
    """(metrics, worker summary, diagnostics) for one run."""
    def setup_probes(count: int) -> list[float]:
        if args.trace:
            return []
        samples = []
        for _ in range(count):
            spawned, ready = runner.worker(args, out_dir, "--setup-only")
            samples.append(ready["ready"] - spawned)
        return samples

    # Set-up probes before and after the measuring process, so that their
    # median spans the whole run rather than one stretch of host load.
    setup_runs = SETUP_RUNS if args.scale == "full" else 1
    setups = setup_probes(setup_runs // 2)
    spawned, summary = runner.worker(args, out_dir)
    setups += [summary["ready"] - spawned, *setup_probes(setup_runs - len(setups))]
    plain = [op for op in summary["ops"] if op["timed"] and not op["traced"]]
    timed = [op["wall"] for op in plain]
    diagnostics = {
        "timed_ops": len(timed),
        "op_s_all": timed,
        "op_items": [op["item"] for op in plain],
        "first_op_s": summary["ops"][0]["wall"],
        "setup_s_all": setups,
        "cpu_s_per_op": statistics.median(op["cpu"] for op in summary["ops"][1:]),
        "minflt_per_op": statistics.median(op["minflt"] for op in summary["ops"][1:]),
    }
    if args.trace:
        import tracing

        layers = {**summary["layers"], **import_times(runner)}
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: (layers[name], units[name]) for name in units}
    else:
        values = {
            "op_s": statistics.median(timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, summary, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="procamsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Tiny sizes, one timed op and one set-up probe, for the harness's own
    # smoke test.
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    missing = [p for p in (ROOT / "src" / "procamsim" / "__init__.py",
                           ROOT / "configs" / "demo_config.json") if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    os.environ.update(pinned_env(args.workload))
    runner = Runner(args.workload, deadline)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        drift_start = drift_probe()
        metrics, summary, diagnostics = measure(args, runner, out_dir)
        drift_end = drift_probe()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ops = summary["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    for op in ops:
        if op["error"]:
            print(f"op error: {op['error']}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": nproc(),
        "env": pinned_env(args.workload) | {"PYTHONPATH": "src"},
        "drift_gbps": {"start": drift_start, "end": drift_end},
        **diagnostics,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    timed = sum(1 for op in ops if op["timed"] and op["traced"] == bool(args.trace))
    print(f"{'layer metrics' if args.trace else 'op_s'} from {timed} timed ops; "
          f"{len(ops) - failed}/{len(ops)} ops passed their output checks")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and summary["setup_ok"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


if __name__ == "__main__":
    raise SystemExit(main())
