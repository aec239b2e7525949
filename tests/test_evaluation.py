"""Tests for the dislocation metric and the benchmark runner."""

import json
import math

import numpy as np
import pytest

from procamsim.calibration import result_from_rig
from procamsim.errors import EmptyIntersectionError
from procamsim.evaluation import (
    BenchmarkCase,
    BenchmarkOptions,
    CornerSet,
    case_by_name,
    corner_dislocation,
    evaluate_case,
    run_benchmark,
    standard_suite,
    thread_count,
    THREADS_ENV_VAR,
)
from procamsim.geometry import PinholeDevice
from procamsim.images import read_ppm
from procamsim.rig import PanTiltState
from procamsim.scene import Plane, Scene
from procamsim.warp import CheckerPattern, CornerPropagation

from rigs import default_rig


def dislocation_oracle(idx_a, pos_a, idx_b, pos_b):
    """Plain-loop restatement of the metric: mean distance over shared ids."""
    lookup = {int(i): np.asarray(p, dtype=float) for i, p in zip(idx_b, pos_b)}
    dists = []
    for i, p in zip(idx_a, pos_a):
        if int(i) in lookup:
            q = lookup[int(i)]
            dists.append(math.hypot(p[0] - q[0], p[1] - q[1]))
    if not dists:
        raise ValueError("no shared corners")
    return sum(dists) / len(dists)


class TestCornerDislocation:
    def test_matches_loop_oracle_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n_a = rng.integers(1, 40)
            n_b = rng.integers(1, 40)
            idx_a = rng.permutation(60)[:n_a]
            idx_b = rng.permutation(60)[:n_b]
            if not np.intersect1d(idx_a, idx_b).size:
                idx_b[0] = idx_a[0]  # guarantee overlap
            pos_a = rng.uniform(-500.0, 1500.0, size=(n_a, 2))
            pos_b = rng.uniform(-500.0, 1500.0, size=(n_b, 2))
            got = corner_dislocation(
                CornerSet(idx_a, pos_a), CornerSet(idx_b, pos_b)
            )
            want = dislocation_oracle(idx_a, pos_a, idx_b, pos_b)
            assert got == pytest.approx(want, abs=1e-12)

    def test_uniform_3_4_shift_gives_exactly_five(self):
        idx = np.arange(28)
        pos = np.random.default_rng(3).uniform(0.0, 1000.0, size=(28, 2))
        shifted = pos + np.array([3.0, 4.0])
        assert corner_dislocation(CornerSet(idx, pos), CornerSet(idx, shifted)) == 5.0

    def test_identical_sets_give_zero(self):
        idx = np.arange(10)
        pos = np.random.default_rng(1).normal(size=(10, 2))
        assert corner_dislocation(CornerSet(idx, pos), CornerSet(idx, pos)) == 0.0

    def test_disjoint_indices_raise(self):
        a = CornerSet(np.array([0, 1]), np.zeros((2, 2)))
        b = CornerSet(np.array([2, 3]), np.zeros((2, 2)))
        with pytest.raises(EmptyIntersectionError):
            corner_dislocation(a, b)

    def test_extra_corners_in_one_set_are_ignored(self):
        idx = np.arange(6)
        pos = np.random.default_rng(5).uniform(size=(6, 2))
        a = CornerSet(idx[:4], pos[:4])
        b = CornerSet(idx, pos + np.array([0.0, 2.0]))
        assert corner_dislocation(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_index_order_does_not_matter(self):
        rng = np.random.default_rng(9)
        idx = np.arange(12)
        pos_a = rng.uniform(size=(12, 2))
        pos_b = rng.uniform(size=(12, 2))
        perm = rng.permutation(12)
        straight = corner_dislocation(CornerSet(idx, pos_a), CornerSet(idx, pos_b))
        shuffled = corner_dislocation(
            CornerSet(idx[perm], pos_a[perm]), CornerSet(idx, pos_b)
        )
        assert straight == pytest.approx(shuffled, abs=1e-12)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CornerSet(np.array([1, 1]), np.zeros((2, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CornerSet(np.array([1, 2, 3]), np.zeros((2, 2)))

    def test_from_propagation_filters_unresolved(self):
        prop = CornerPropagation(
            indices=np.array([0, 1, 2]),
            desired_px=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
            observed_px=np.array([[0.1, 0.0], [np.nan, np.nan], [2.0, 2.5]]),
            resolved=np.array([True, False, True]),
        )
        observed = CornerSet.from_propagation(prop)
        assert observed.indices.tolist() == [0, 2]
        desired = CornerSet(prop.indices, prop.desired_px)
        assert desired.indices.tolist() == [0, 1, 2]
        assert corner_dislocation(desired, observed) == pytest.approx(0.3, abs=1e-12)


class TestStandardSuite:
    def test_names_and_base_first(self):
        names = [c.name for c in standard_suite()]
        assert names[0] == "base"
        assert names == [
            "base", "oblique45", "box", "cylinder", "spheres", "cloth",
            "grazing_wedge",
        ]

    def test_every_case_has_backing_wall(self):
        for case in standard_suite():
            ids = {s.surface_id for s in case.scene.surfaces}
            assert any("wall" in sid for sid in ids), case.name

    def test_case_by_name(self):
        suite = standard_suite()
        assert case_by_name(suite, "box").name == "box"
        with pytest.raises(KeyError):
            case_by_name(suite, "nope")

    def test_grazing_wedge_spans_the_dropout_band(self):
        # Rays fanned from the sensor (at the origin) across the corrugated
        # wedge should meet it over a spread of grazing angles: some in the
        # certain-dropout zone, some inside the partial band, some safely
        # frontal. That spread is what produces banded depth validity.
        scene = case_by_name(standard_suite(), "grazing_wedge").scene
        angles = np.linspace(math.radians(-12.0), math.radians(8.0), 120)
        dirs = np.stack(
            [np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=1
        )
        t, normals, idx = scene.intersect(np.zeros(3), dirs)
        hit = np.isfinite(t) & (idx >= 0)
        assert hit.sum() > 100
        dot = np.abs(np.einsum("ij,ij->i", dirs[hit], normals[hit]))
        gamma = np.degrees(np.arcsin(np.clip(dot, 0.0, 1.0)))
        assert (gamma < 10.0).any()
        assert ((gamma > 10.0) & (gamma < 30.0)).any()
        assert (gamma > 30.0).any()


def fast_options(**overrides) -> BenchmarkOptions:
    defaults = dict(depth_width=80, depth_height=60, seed=0)
    defaults.update(overrides)
    return BenchmarkOptions(**defaults)


@pytest.fixture(scope="module")
def rig():
    return default_rig()


@pytest.fixture(scope="module")
def base_case_result(rig):
    return evaluate_case(
        case_by_name(standard_suite(), "base"),
        rig,
        result_from_rig(rig),
        fast_options(),
        case_index=0,
    )


class TestEvaluateCase:
    def test_perfect_calibration_on_flat_wall_is_subpixel(self, base_case_result):
        r = base_case_result
        assert r.resolved_fraction == 1.0
        assert r.invalid_depth_fraction == 0.0
        assert r.corrected_mean_px < 1e-3
        assert r.corrected_max_px < 1e-2

    def test_uncorrected_is_much_worse_than_corrected(self, base_case_result):
        # The projector is mounted off the eye axis, so even a frontal wall
        # shows parallax without correction.
        assert base_case_result.uncorrected_mean_px > 10.0 * max(
            base_case_result.corrected_mean_px, 0.1
        )

    def test_grazing_case_loses_depth_and_corners(self, rig):
        grazing = evaluate_case(
            case_by_name(standard_suite(), "grazing_wedge"),
            rig,
            result_from_rig(rig),
            fast_options(),
            case_index=0,
        )
        assert grazing.invalid_depth_fraction > 0.02
        assert grazing.resolved_fraction < 1.0
        assert grazing.resolved_count < grazing.corner_count

    def test_calibration_error_propagates_into_dislocation(self, rig, base_case_result):
        result = result_from_rig(rig)
        d = result.proj_device
        skewed = PinholeDevice(
            fx=d.fx * 1.005, fy=d.fy, cx=d.cx, cy=d.cy,
            width=d.width, height=d.height, skew=d.skew,
        )
        perturbed = evaluate_case(
            case_by_name(standard_suite(), "base"),
            rig,
            type(result)(
                pan_axis=result.pan_axis,
                tilt_axis=result.tilt_axis,
                rear_to_front=result.rear_to_front,
                proj_device=skewed,
                front_to_proj=result.front_to_proj,
                residuals=result.residuals,
            ),
            fast_options(),
            case_index=0,
        )
        assert perturbed.corrected_mean_px > 0.3
        assert perturbed.corrected_mean_px > 50.0 * max(
            base_case_result.corrected_mean_px, 1e-6
        )

    def test_nonzero_state_exercises_axes(self, rig):
        result = evaluate_case(
            case_by_name(standard_suite(), "base"),
            rig,
            result_from_rig(rig),
            fast_options(state=PanTiltState(math.radians(8.0), math.radians(-5.0))),
            case_index=0,
        )
        assert result.resolved_fraction > 0.8
        assert result.corrected_mean_px < 1e-2

    def test_unresolvable_scene_reports_nan(self, rig):
        # A tiny patch far off-axis: the depth image sees nothing.
        case = BenchmarkCase(
            name="offaxis",
            scene=Scene(
                surfaces=(
                    Plane(
                        point=[50.0, 0.0, 1.0],
                        normal=[0.0, 0.0, -1.0],
                        extent=(0.1, 0.1),
                        surface_id="speck",
                    ),
                ),
            ),
        )
        r = evaluate_case(case, rig, result_from_rig(rig), fast_options(), case_index=0)
        assert r.resolved_count == 0
        assert math.isnan(r.corrected_mean_px)
        assert r.to_json()["corrected_mean_px"] is None


class TestThreadCount:
    def test_env_caps_threads(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert thread_count(8) == 2
        assert thread_count(1) == 1

    def test_default_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        import os

        assert thread_count(1000) == min(1000, os.cpu_count() or 1)

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "zero")
        with pytest.raises(ValueError, match="integer"):
            thread_count(4)
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        with pytest.raises(ValueError, match=">= 1"):
            thread_count(4)


@pytest.fixture(scope="module")
def small_suite():
    suite = standard_suite()
    return (case_by_name(suite, "base"), case_by_name(suite, "grazing_wedge"))


class TestRunBenchmark:
    def test_results_keep_case_order(self, rig, small_suite):
        report = run_benchmark(small_suite, rig, result_from_rig(rig), options=fast_options())
        assert [r.name for r in report.results] == ["base", "grazing_wedge"]

    def test_runs_are_deterministic(self, rig, small_suite, monkeypatch):
        opts = fast_options(depth_noise_sigma=0.002)
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        first = run_benchmark(small_suite, rig, result_from_rig(rig), options=opts)
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        second = run_benchmark(small_suite, rig, result_from_rig(rig), options=opts)
        assert first.to_json() == second.to_json()

    def test_report_save_writes_artifacts(self, rig, small_suite, tmp_path):
        report = run_benchmark(small_suite, rig, result_from_rig(rig), options=fast_options())
        report.save(tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema_version"] == 1
        assert [c["name"] for c in data["cases"]] == ["base", "grazing_wedge"]
        assert data["settings"]["depth_resolution"] == [80, 60]
        text = (tmp_path / "report.txt").read_text()
        assert "grazing_wedge" in text and "corrected" in text
        for case in ("base", "grazing_wedge"):
            img = read_ppm(tmp_path / f"overlay_{case}.ppm")
            green = (img == np.array([0, 255, 0], dtype=np.uint8)).all(axis=2)
            red = (img == np.array([255, 0, 0], dtype=np.uint8)).all(axis=2)
            assert green.any(), case
            assert red.any(), case

    def test_case_json_fields(self, base_case_result):
        record = base_case_result.to_json()
        assert set(record) == {
            "name", "seed", "corner_count", "resolved_count", "resolved_fraction",
            "invalid_depth_fraction", "corrected_mean_px", "corrected_max_px",
            "uncorrected_mean_px",
        }
        assert isinstance(record["corrected_mean_px"], float)

    def test_report_json_is_serializable(self, rig, small_suite):
        report = run_benchmark(small_suite, rig, result_from_rig(rig), options=fast_options())
        encoded = json.dumps(report.to_json(), sort_keys=True)
        assert "grazing_wedge" in encoded
