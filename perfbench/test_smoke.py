"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload once untraced and once traced, with a 64x36 projector
(and a 64x48 depth image for the suite), one set-up probe and one or two
timed operations, and checks the shape of what the harness reports.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, root: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        tracing.LAYER_METRICS
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload):
    plain = result_of(bench(workload, 0))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 2
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = result_of(bench(workload, 1))
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == dict(
        tracing.LAYER_METRICS
    )
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert traced["metrics"]["import.procamsim_cli_s"]["value"] > 0


def test_every_layer_is_reached():
    values = {name: 0.0 for name, _ in tracing.LAYER_METRICS}
    for workload in run.WORKLOADS:
        for name, metric in result_of(bench(workload, 1))["metrics"].items():
            values[name] = max(values[name], metric["value"])
    assert [name for name, value in values.items() if value <= 0] == []


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("suite_eval", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
