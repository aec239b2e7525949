"""End-to-end tests of the command-line interface."""

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from procamsim import calibration, cli, errors
from procamsim.calibration import load_result
from procamsim.cli import main
from procamsim.errors import MAX_MAGNITUDE, Fields, LimitError, SchemaError
from procamsim.geometry import PinholeDevice, RigidTransform, rotation_about_axis
from procamsim.images import read_image, read_ppm, write_ppm
from procamsim.rig import save_rig
from procamsim.scene import CheckerboardTarget, Plane, Scene, save_scene, scene_to_json
from procamsim.warp import CheckerPattern

from rigs import default_rig


def small_rig():
    """The stock rig with a lighter projector so image tests stay fast."""
    rig = default_rig()
    return type(rig)(
        pan_axis=rig.pan_axis,
        tilt_axis=rig.tilt_axis,
        rear_to_front=rig.rear_to_front,
        front_to_proj=rig.front_to_proj,
        front_device=rig.front_device,
        rear_device=rig.rear_device,
        proj_device=PinholeDevice(
            fx=500.0, fy=500.0, cx=320.0, cy=180.0, width=640, height=360
        ),
    )


def calibration_scene() -> Scene:
    board = CheckerboardTarget(
        pose=RigidTransform(
            rotation_about_axis([0.0, 1.0, 0.0], math.radians(8.0)),
            np.array([-0.30, -0.18, 2.4]),
        ),
        rows=6,
        cols=9,
        square_size=0.075,
    )
    wall = Plane(
        point=[0.0, 0.0, 3.0],
        normal=[0.0, 0.0, -1.0],
        extent=(4.0, 3.0),
        surface_id="wall",
        albedo=(0.85, 0.85, 0.85),
    )
    return Scene(surfaces=(wall,), checkerboards=(board,))


def write_config(directory, protocol=None, extra_display=None, benchmark=None):
    save_rig(small_rig(), directory / "rig.json")
    save_scene(calibration_scene(), directory / "scene.json")
    display = {
        "viewport": {"width_px": 960, "height_px": 540},
        "depth": {"width": 80, "height": 60},
    }
    if extra_display:
        display.update(extra_display)
    config = {
        "schema_version": 1,
        "rig_path": "rig.json",
        "scene_path": "scene.json",
        "protocol": protocol or {"seed": 0},
        "display": display,
        "benchmark": benchmark or {"cases": ["base"], "seed": 0},
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def noisy_config_path(tmp_path_factory):
    return write_config(
        tmp_path_factory.mktemp("cli_noisy"),
        protocol={"seed": 0, "corner_noise_sigma": 0.0005, "depth_noise_sigma": 0.001},
    )


class TestSimulateCalib:
    def test_writes_session(self, config_path, tmp_path, capsys):
        out = tmp_path / "session.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        stdout = capsys.readouterr().out
        assert "pan records: 7" in stdout

    def test_repeat_runs_are_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_noisy_sessions(self, noisy_config_path, tmp_path):
        base = tmp_path / "s0.json"
        rerun = tmp_path / "s0b.json"
        other = tmp_path / "s1.json"
        args = ["simulate-calib", "--config", str(noisy_config_path)]
        assert main(args + ["--seed", "0", "--out", str(base)]) == 0
        assert main(args + ["--seed", "0", "--out", str(rerun)]) == 0
        assert main(args + ["--seed", "1", "--out", str(other)]) == 0
        assert base.read_bytes() == rerun.read_bytes()
        assert base.read_bytes() != other.read_bytes()


class TestCalibrate:
    def test_round_trip_recovers_rig(self, config_path, tmp_path, capsys):
        session = tmp_path / "session.json"
        result_path = tmp_path / "result.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        assert main(["calibrate", "--session", str(session), "--out", str(result_path)]) == 0
        stdout = capsys.readouterr().out
        assert "projector rms (px):" in stdout
        assert "errors against ground truth:" in stdout
        result = load_result(result_path)
        truth = small_rig()
        assert result.proj_device.fx == pytest.approx(truth.proj_device.fx, rel=1e-9)
        assert float(result.pan_axis @ truth.pan_axis) == pytest.approx(1.0, abs=1e-12)

    def test_rear_state_keys_of_older_sessions_change_nothing(self, config_path, tmp_path):
        # Sessions once carried the registration's pan/tilt state, which no
        # stage reads; such a session still loads and gives the same result.
        session = tmp_path / "session.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        data = json.loads(session.read_text())
        assert "pan_deg" not in data["rear_registration"]
        data["rear_registration"].update(pan_deg=14.999999999999998, tilt_deg=10.0)
        older = tmp_path / "older_session.json"
        older.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        results = [tmp_path / "result.json", tmp_path / "older_result.json"]
        for path, out in zip((session, older), results):
            assert main(["calibrate", "--session", str(path), "--out", str(out)]) == 0
        assert results[1].read_bytes() == results[0].read_bytes()

    def test_projector_refinement_without_convergence_fails_cleanly(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        session = tmp_path / "session.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        real_lm = calibration._levenberg_marquardt

        def projector_lm_not_converged(residual_fn, x0, **kwargs):
            x, cost, converged = real_lm(residual_fn, x0, **kwargs)
            # The axis stage refines 2 parameters and the projector stage 11.
            return x, cost, converged and len(x0) != 11

        monkeypatch.setattr(calibration, "_levenberg_marquardt", projector_lm_not_converged)
        capsys.readouterr()
        code = main(["calibrate", "--session", str(session),
                     "--out", str(tmp_path / "result.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[convergence]: stage 'projector' failed: projector refinement")
        assert err.count("\n") == 1
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("axis", ["cx", "cy"])
    def test_principal_point_at_zero_reports_its_error_in_pixels(
        self, config_path, tmp_path, capsys, axis
    ):
        session = tmp_path / "session.json"
        result_path = tmp_path / "result.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        data = json.loads(session.read_text())
        projector = data["ground_truth"]["devices"]["projector"]
        simulated = projector[axis]
        projector[axis] = 0
        session.write_text(json.dumps(data))
        assert main(["calibrate", "--session", str(session), "--out", str(result_path)]) == 0
        assert f"proj_{axis}_rel:" in capsys.readouterr().out
        errors = load_result(result_path).parameter_errors
        # The estimate is the principal point the observations were simulated with.
        assert errors[f"proj_{axis}_rel"] == pytest.approx(simulated, rel=1e-6)

    def test_missing_session_fails_cleanly(self, tmp_path, capsys):
        code = main(["calibrate", "--session", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[")
        assert err.strip().count("\n") == 0


class TestCorrect:
    def test_writes_deterministic_framebuffer(self, config_path, tmp_path):
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        assert main(["correct", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["correct", "--config", str(config_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        img = read_ppm(a)
        assert img.shape == (360, 640, 3)
        assert img.max() == 255  # the warped pattern reaches the projector

    def test_no_correction_emits_plain_pattern(self, config_path, tmp_path):
        out = tmp_path / "raw.ppm"
        assert main(["correct", "--config", str(config_path), "--no-correction",
                     "--out", str(out)]) == 0
        expected = np.repeat(CheckerPattern().render(640, 360), 3, axis=2)
        assert np.array_equal(read_ppm(out), expected)

    def test_corrected_differs_from_uncorrected(self, config_path, tmp_path):
        corr = tmp_path / "corr.ppm"
        raw = tmp_path / "raw.ppm"
        assert main(["correct", "--config", str(config_path), "--out", str(corr)]) == 0
        assert main(["correct", "--config", str(config_path), "--no-correction",
                     "--out", str(raw)]) == 0
        assert corr.read_bytes() != raw.read_bytes()

    def test_eye_flag_shifts_output(self, config_path, tmp_path):
        center = tmp_path / "center.ppm"
        side = tmp_path / "side.ppm"
        assert main(["correct", "--config", str(config_path), "--out", str(center)]) == 0
        assert main(["correct", "--config", str(config_path), "--eye", "0.3,0.0,-1.5",
                     "--out", str(side)]) == 0
        assert center.read_bytes() != side.read_bytes()

    def test_pan_flag_changes_framebuffer(self, config_path, tmp_path):
        home = tmp_path / "home.ppm"
        panned = tmp_path / "panned.ppm"
        assert main(["correct", "--config", str(config_path), "--out", str(home)]) == 0
        assert main(["correct", "--config", str(config_path), "--pan", "10",
                     "--out", str(panned)]) == 0
        assert home.read_bytes() != panned.read_bytes()

    def test_png_output(self, config_path, tmp_path):
        pytest.importorskip("PIL")
        out = tmp_path / "fb.png"
        assert main(["correct", "--config", str(config_path), "--out", str(out)]) == 0
        assert read_image(out).shape == (360, 640, 3)

    @pytest.mark.parametrize("flag, value", [
        ("--eye", "-0.2,0,-1.5"), ("--pan", "-1e1"), ("--tilt", "-2.5e0"),
    ])
    def test_negative_values_write_the_same_bytes_in_both_forms(
        self, config_path, tmp_path, flag, value
    ):
        # argparse once took the separate-token form for an unknown option.
        spaced = tmp_path / "spaced.ppm"
        joined = tmp_path / "joined.ppm"
        assert main(["correct", "--config", str(config_path), flag, value,
                     "--out", str(spaced)]) == 0
        assert main(["correct", "--config", str(config_path), f"{flag}={value}",
                     "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--eye", "-0.2,-0,-1.5"), ("--eye", "-.5e-1,-1E-1,-1_0"), ("--eye", " -1, -2, -3"),
        ("--pan", "-1e1"), ("--pan", "-1_0"), ("--tilt", "-.5"), ("--tilt", "-1e9"),
    ])
    def test_negative_values_parse_alike_in_both_forms(self, flag, value):
        parser = cli.build_parser()
        base = ["correct", "--config", "c.json", "--out", "x.ppm"]
        assert parser.parse_args(base + [flag, value]) == parser.parse_args(
            base + [f"{flag}={value}"]
        )

    def test_malformed_eye_exits_with_usage_error(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["correct", "--config", str(config_path), "--eye", "1,2",
                  "--out", str(tmp_path / "x.ppm")])
        assert excinfo.value.code == 2


class TestRenderUserView:
    def test_writes_lit_view(self, config_path, tmp_path):
        out = tmp_path / "view.ppm"
        assert main(["render-user-view", "--config", str(config_path),
                     "--width", "160", "--out", str(out)]) == 0
        img = read_ppm(out)
        assert img.shape == (90, 160, 3)
        assert img.max() > 40  # projector light and ambient reach the wall

    def test_uncorrected_view_differs(self, config_path, tmp_path):
        corr = tmp_path / "corr.ppm"
        raw = tmp_path / "raw.ppm"
        base = ["render-user-view", "--config", str(config_path), "--width", "160"]
        assert main(base + ["--out", str(corr)]) == 0
        assert main(base + ["--no-correction", "--out", str(raw)]) == 0
        assert corr.read_bytes() != raw.read_bytes()


class TestEvaluate:
    def test_report_artifacts_and_determinism(self, config_path, tmp_path):
        out_a = tmp_path / "report_a"
        out_b = tmp_path / "report_b"
        assert main(["evaluate", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["evaluate", "--config", str(config_path), "--out", str(out_b)]) == 0
        data = json.loads((out_a / "report.json").read_text())
        assert [c["name"] for c in data["cases"]] == ["base"]
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "overlay_base.ppm").read_bytes() == (
            out_b / "overlay_base.ppm"
        ).read_bytes()

    def test_summary_printed(self, config_path, tmp_path, capsys):
        assert main(["evaluate", "--config", str(config_path),
                     "--out", str(tmp_path / "rep")]) == 0
        stdout = capsys.readouterr().out
        assert "corrected" in stdout and "base" in stdout

    def test_unknown_case_name_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, benchmark={"cases": ["nope"]})
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f'error[schema]: {cfg}: benchmark.cases: unknown case "nope"; ')
        assert "known cases: base, oblique45," in err


class TestErrorReporting:
    def test_readme_error_table_lists_every_error_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.MULTILINE)
        codes = {
            cls.code for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.ProcamError)
        }
        assert len(documented) == len(set(documented))
        assert set(documented) == codes

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["correct", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[error]:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("out", ["a-directory.ppm", "a-file/frame.ppm"])
    def test_unwritable_out_path(self, config_path, tmp_path, capsys, out):
        (tmp_path / "a-directory.ppm").mkdir()
        (tmp_path / "a-file").write_bytes(b"")
        code = main(["correct", "--config", str(config_path), "--no-correction",
                     "--out", str(tmp_path / out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[error]:") and err.strip().count("\n") == 0

    def test_bad_schema_version(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        code = main(["correct", "--config", str(bad), "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_unknown_content_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra_display={"content": {"type": "video"}})
        code = main(["correct", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        assert "error[schema]:" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["correct", "--config", str(bad), "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[schema]:")


class TestInputBoundary:
    """Each bad input ends in one ``error[<code>]`` line and exit status 1."""

    @staticmethod
    def assert_one_error_line(capsys, code):
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]:")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("display", [{"content": "checker"}, []])
    def test_display_section_not_an_object(self, tmp_path, capsys, display):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        if isinstance(display, dict):
            data["display"].update(display)
        else:
            data["display"] = display
        cfg.write_text(json.dumps(data))
        code = main(["correct", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        self.assert_one_error_line(capsys, "schema")

    def test_session_file_holding_a_list(self, tmp_path, capsys):
        session = tmp_path / "session.json"
        session.write_text("[]")
        code = main(["calibrate", "--session", str(session),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        self.assert_one_error_line(capsys, "schema")

    def test_benchmark_cases_as_a_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, benchmark={"cases": "base"})
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "benchmark.cases" in self.assert_one_error_line(capsys, "schema")

    # An empty list would write a report with no rows; a repeated name would
    # write two rows but one overlay file, the second over the first.
    @pytest.mark.parametrize("cases", [[], ["base", "base"]])
    def test_benchmark_cases_empty_or_repeated(self, tmp_path, capsys, cases):
        cfg = write_config(tmp_path, benchmark={"cases": cases})
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "benchmark.cases" in self.assert_one_error_line(capsys, "schema")
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "argv, display",
        [(["correct", "--pan", "400"], None), (["evaluate"], {"pan_deg": 400.0})],
    )
    def test_pan_beyond_the_motor_limit(self, tmp_path, capsys, argv, display):
        cfg = write_config(tmp_path, extra_display=display)
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        self.assert_one_error_line(capsys, "limit")

    @pytest.mark.parametrize("command", ["correct", "render-user-view"])
    def test_depth_sensor_seeing_nothing_gives_a_black_frame(self, tmp_path, command):
        # At 89 degrees of pan the depth sensor misses the wall, so the
        # reconstructed mesh has no vertices.
        cfg = write_config(tmp_path)
        out = tmp_path / "out.ppm"
        assert main([command, "--config", str(cfg), "--pan", "89", "--out", str(out)]) == 0
        if command == "correct":
            assert not read_ppm(out).any()

    @pytest.mark.parametrize("flag, value", [
        ("--eye", "nan,0,-1.5"), ("--eye", "0,0,inf"), ("--eye", "0,x,-1.5"),
        ("--pan", "nan"), ("--tilt", "inf"), ("--pan", "ten"),
    ])
    def test_non_finite_eye_and_angles_are_usage_errors(
        self, config_path, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["correct", "--config", str(config_path), flag, value,
                  "--out", str(tmp_path / "x.ppm")])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.ppm").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--eye", "=0,0,1e300"), ("--eye", "=1e300,0,-1.5"), ("--eye", "=0,-1e10,-1.5"),
        ("--pan", "=1e300"), ("--tilt", "=-1e300"), ("--pan", "=1000000001"),
    ])
    def test_eye_and_angles_past_the_magnitude_bound_are_usage_errors(
        self, config_path, tmp_path, capsys, flag, value
    ):
        # Each once ended in exit status 0 with a black frame, or in an
        # error[limit] line quoting a 300-digit angle.
        with pytest.raises(SystemExit) as excinfo:
            main(["correct", "--config", str(config_path), flag + value,
                  "--out", str(tmp_path / "x.ppm")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "within +-1e9" in err
        assert not (tmp_path / "x.ppm").exists()

    def test_eye_and_angles_at_the_magnitude_bound_pass_the_parser(self):
        args = cli.build_parser().parse_args(
            ["correct", "--config", "c.json", "--out", "x.ppm",
             "--eye=1e9,-1e9,1e9", "--pan=-1e9", "--tilt=1000000000"]
        )
        assert args.eye == (MAX_MAGNITUDE, -MAX_MAGNITUDE, MAX_MAGNITUDE)
        assert (args.pan, args.tilt) == (-MAX_MAGNITUDE, MAX_MAGNITUDE)

    @pytest.mark.parametrize("value, message", [
        ("x", "PROCAMSIM_THREADS must be an integer, got 'x'"),
        ("0", "PROCAMSIM_THREADS must be >= 1, got 0"),
    ])
    def test_bad_thread_count_is_a_usage_error(
        self, config_path, tmp_path, capsys, monkeypatch, value, message
    ):
        monkeypatch.setenv("PROCAMSIM_THREADS", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--config", str(config_path), "--out", str(tmp_path / "rep")])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("display, code", [
        ({"eye": [math.nan, 0.0, -1.5]}, "schema"),
        ({"eye": [0.0, 0.0, math.inf]}, "schema"),
        ({"pan_deg": math.nan}, "schema"),
        ({"tilt_deg": math.nan}, "schema"),
    ])
    def test_non_finite_display_eye_and_angles(self, tmp_path, capsys, display, code):
        cfg = write_config(tmp_path, extra_display=display)
        out = tmp_path / "x.ppm"
        assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, value", [
        pytest.param(name, edit, value, id=case + suffix)
        for case, name, edit in [
            ("pan_limit", "rig.json", lambda d, x: d.update(pan_limit_deg=x)),
            ("tilt_limit", "rig.json", lambda d, x: d.update(tilt_limit_deg=x)),
            ("projector_fx", "rig.json",
             lambda d, x: d["devices"]["projector"].update(fx=x)),
            ("projector_skew", "rig.json",
             lambda d, x: d["devices"]["projector"].update(skew=x)),
            ("depth_noise", "config.json",
             lambda d, x: d["display"]["depth"].update(noise_sigma=x)),
            ("viewport_width", "config.json",
             lambda d, x: d["display"]["viewport"].update(width_m=x)),
            ("viewport_height", "config.json",
             lambda d, x: d["display"]["viewport"].update(height_m=x)),
            ("corner_noise", "config.json",
             lambda d, x: d["protocol"].update(corner_noise_sigma=x)),
            ("protocol_depth_noise", "config.json",
             lambda d, x: d["protocol"].update(depth_noise_sigma=x)),
            ("square_size", "scene.json",
             lambda d, x: d["checkerboards"][0].update(square_size=x)),
            ("plane_extent", "scene.json", lambda d, x: d["surfaces"][0].update(extent=[x, 3.0])),
            ("sphere_radius", "scene.json", lambda d, x: d["surfaces"].append(
                {"type": "sphere", "center": [0, 0, 5], "radius": x})),
            ("box_dimensions", "scene.json", lambda d, x: d["surfaces"].append(
                {"type": "box", "pose": RigidTransform.identity().to_json(),
                 "dimensions": [1.0, x, 1.0]})),
            ("cylinder_radius", "scene.json", lambda d, x: d["surfaces"].append(
                {"type": "cylinder", "pose": RigidTransform.identity().to_json(),
                 "radius": x, "height": 1.0})),
            ("cylinder_height", "scene.json", lambda d, x: d["surfaces"].append(
                {"type": "cylinder", "pose": RigidTransform.identity().to_json(),
                 "radius": 1.0, "height": x})),
        ]
        for value, suffix in [(math.nan, ""), (math.inf, "_inf")]
    ])
    def test_nan_sizes_fail_their_range_checks(self, tmp_path, capsys, name, edit, value):
        # NaN and +inf each fail the check.
        cfg = write_config(tmp_path)
        path = tmp_path / name
        data = json.loads(path.read_text())
        edit(data, value)
        path.write_text(json.dumps(data))
        out = tmp_path / "x.ppm"
        assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, code, field", [
        pytest.param(name, edit, code, field, id=case)
        for case, name, edit, code, field in [
            ("nan_skew", "rig.json",
             lambda d: d["devices"]["projector"].update(skew=math.nan),
             "schema", "devices.projector.skew"),
            ("nan_pan_axis", "rig.json", lambda d: d.update(pan_axis=[math.nan, 1.0, 0.0]),
             "schema", "pan_axis"),
            ("nan_translation", "rig.json",
             lambda d: d["rear_to_front"].update(translation=[0.0, math.nan, 0.0]),
             "schema", "rear_to_front.translation"),
            ("inf_width", "rig.json",
             lambda d: d["devices"]["projector"].update(width=math.inf),
             "schema", "devices.projector.width"),
            ("inf_pan_axis", "rig.json", lambda d: d.update(pan_axis=[math.inf, 1.0, 0.0]),
             "schema", "pan_axis"),
            ("fractional_width", "rig.json",
             lambda d: d["devices"]["projector"].update(width=1919.7),
             "schema", "devices.projector.width"),
            ("fractional_seed", "config.json", lambda d: d["benchmark"].update(seed=1.5),
             "schema", "benchmark.seed"),
            ("boolean_viewport_width", "config.json",
             lambda d: d["display"]["viewport"].update(width_px=True),
             "schema", "display.viewport.width_px"),
            ("huge_viewport_width", "config.json",
             lambda d: d["display"]["viewport"].update(width_px=1e9),
             "limit", "display.viewport.width_px"),
            ("huge_depth_width", "config.json",
             lambda d: d["display"]["depth"].update(width=100000),
             "limit", "display.depth.width"),
            ("huger_depth_width", "config.json",
             lambda d: d["display"]["depth"].update(width=1e12),
             "limit", "display.depth.width"),
            ("huge_result_projector_width", "result.json",
             lambda d: d["proj_device"].update(width=1e30),
             "limit", "proj_device.width"),
        ]
    ])
    def test_bad_field_names_its_file_and_path(
        self, tmp_path, capsys, monkeypatch, name, edit, code, field
    ):
        def no_framebuffer(*args, **kwargs):
            raise AssertionError("a bad input is rejected before the framebuffer is built")

        monkeypatch.setattr(cli, "_make_framebuffer", no_framebuffer)
        cfg = write_config(tmp_path)
        result = tmp_path / "result.json"
        calibration.save_result(calibration.result_from_rig(small_rig()), result)
        path = tmp_path / name
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        out = tmp_path / "x.ppm"
        argv = ["correct", "--config", str(cfg), "--result", str(result), "--out", str(out)]
        assert main(argv) == 1
        assert f"{path}: {field}" in self.assert_one_error_line(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command, name, edit, field", [
        pytest.param(command, name, edit, field, id=field)
        for command, name, edit, field in [
            ("evaluate", "config.json",
             lambda d: d["display"]["viewport"].update(width_m=1e300),
             "display.viewport.width_m"),
            ("correct", "rig.json",
             lambda d: d["devices"]["front"].update(skew=1e300), "devices.front.skew"),
            ("simulate-calib", "rig.json",
             lambda d: d["devices"]["projector"].update(skew=1e300), "devices.projector.skew"),
            ("evaluate", "result.json",
             lambda d: d["proj_device"].update(fx=1e300), "proj_device.fx"),
        ]
    ])
    def test_numbers_past_the_magnitude_bound(self, tmp_path, capsys, command, name, edit, field):
        # Finite, but each overflowed inside the pipeline before the reader bounded it.
        cfg = write_config(tmp_path)
        result = tmp_path / "result.json"
        calibration.save_result(calibration.result_from_rig(small_rig()), result)
        path = tmp_path / name
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command != "simulate-calib":
            argv += ["--result", str(result)]
        assert main(argv) == 1
        assert f"{path}: {field}" in self.assert_one_error_line(capsys, "schema")
        assert not out.exists()

    def test_magnitude_bound_admits_its_own_value(self):
        bound = MAX_MAGNITUDE
        fields = Fields({"x": bound, "y": -bound, "a": [[bound, -bound]]})
        assert fields.number("x") == bound and fields.number("y") == -bound
        assert fields.array("a", (1, 2)).tolist() == [[bound, -bound]]
        with pytest.raises(SchemaError, match="x: expected a number within"):
            Fields({"x": bound * (1 + 1e-15)}).number("x")
        with pytest.raises(SchemaError, match="faces: expected"):
            Fields({"faces": [[0, 1, 2 * int(bound)]]}).array("faces", (None, 3), integer=True)

    def test_huge_plane_id_in_a_session_is_a_schema_error(self, config_path, tmp_path, capsys):
        # A plane id past 64 bits once escaped as an OverflowError.
        session = tmp_path / "session.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        data = json.loads(session.read_text())
        data["projector"]["correspondences"][0]["plane_id"] = 1e30
        session.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["calibrate", "--session", str(session),
                     "--out", str(tmp_path / "result.json")]) == 1
        line = self.assert_one_error_line(capsys, "schema")
        assert f"{session}: projector: plane_ids must fit in 64-bit integers" in line

    @pytest.mark.parametrize("stage", ["pan_observations", "rear_registration"])
    def test_repeated_corner_index_is_a_schema_error(
        self, config_path, tmp_path, capsys, stage
    ):
        # A repeat with its point moved 0.5 m, after the real entry in an axis
        # record and ahead of it in the rear corners: the error names the
        # second of the two entries.
        session = tmp_path / "session.json"
        assert main(["simulate-calib", "--config", str(config_path), "--out", str(session)]) == 0
        data = json.loads(session.read_text())
        if stage == "pan_observations":
            where, corners = "pan_observations[0].corners", data[stage][0]["corners"]
        else:
            where, corners = "rear_registration.rear_corners", data[stage]["rear_corners"]
        real = corners[2]
        repeat = {"index": real["index"], "point": [v + 0.5 for v in real["point"]]}
        corners.insert(len(corners) if stage == "pan_observations" else 0, repeat)
        session.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["calibrate", "--session", str(session),
                     "--out", str(tmp_path / "result.json")]) == 1
        line = self.assert_one_error_line(capsys, "schema")
        second = max(corners.index(real), corners.index(repeat))
        message = f"{where}[{second}].index: corner index {real['index']} is repeated"
        assert f"{session}: {message}" in line

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_render_width_not_positive(self, config_path, tmp_path, capsys, width):
        with pytest.raises(SystemExit) as excinfo:
            main(["render-user-view", "--config", str(config_path), "--width", width,
                  "--out", str(tmp_path / "view.ppm")])
        assert excinfo.value.code == 2
        assert "--width" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-calib", "evaluate"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_not_a_non_negative_integer(self, config_path, tmp_path, capsys, command, seed):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", str(config_path), "--seed", seed,
                  "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width", ["100000", "1" + "0" * 40])
    def test_render_width_over_the_pixel_budget(
        self, config_path, tmp_path, capsys, monkeypatch, width
    ):
        def no_framebuffer(*args, **kwargs):
            raise AssertionError("the budget is checked before the framebuffer is built")

        monkeypatch.setattr(cli, "_make_framebuffer", no_framebuffer)
        code = main(["render-user-view", "--config", str(config_path), "--width", width,
                     "--out", str(tmp_path / "view.ppm")])
        assert code == 1
        assert "--width" in self.assert_one_error_line(capsys, "limit")
        assert not (tmp_path / "view.ppm").exists()

    def test_pixel_budget_admits_4k_uhd(self):
        uhd = SimpleNamespace(width_px=1920, height_px=1080)
        assert cli._view_size(3840, uhd) == (3840, 2160)
        assert cli._view_size(4096, SimpleNamespace(width_px=1, height_px=1)) == (4096, 4096)
        with pytest.raises(LimitError):
            cli._view_size(4097, SimpleNamespace(width_px=1, height_px=1))

    @pytest.mark.parametrize("command", ["correct", "evaluate"])
    def test_depth_width_not_positive(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, extra_display={"depth": {"width": 0, "height": 60}})
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "depth" in self.assert_one_error_line(capsys, "schema")

    def test_pattern_larger_than_the_viewport_fails_at_config_load(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra_display={"pattern": {"square_px": 1e30}})
        assert main(["correct", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")]) == 1
        err = self.assert_one_error_line(capsys, "schema")
        assert f"{cfg}: display: pattern does not fit" in err

    @pytest.mark.parametrize("command", ["correct", "evaluate"])
    def test_negative_depth_noise_fails_at_config_load(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, extra_display={"depth": {"noise_sigma": -1}})
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = self.assert_one_error_line(capsys, "schema")
        assert f"{cfg}: display: sigma must be non-negative" in err

    @pytest.mark.parametrize(
        "where, message, spoil",
        [
            ("scene.surfaces[1]", "sphere radius must be positive", lambda rig, scene: scene[
                "surfaces"].append({"type": "sphere", "center": [0, 0, 2], "radius": -1})),
            ("scene.surfaces[0]", "cannot normalize",
             lambda rig, scene: scene["surfaces"][0].update(normal=[0, 0, 0])),
            ("scene.surfaces[1]", "face indices out of range", lambda rig, scene: scene[
                "surfaces"].append({"type": "mesh", "vertices": np.eye(3).tolist(),
                                    "faces": [[0, 1, 3]]})),
            ("rig.devices.projector", "principal point must lie inside the image",
             lambda rig, scene: rig["devices"]["projector"].update(cx=5000.0)),
            ("rig", "motor limits must be positive", lambda rig, scene: rig.update(pan_limit_deg=0)),
        ],
        ids=["sphere-radius", "plane-normal", "mesh-face", "projector-cx", "pan-limit"],
    )
    def test_range_errors_name_the_field_path(self, tmp_path, capsys, where, message, spoil):
        # An object built from an inline rig or scene is named by its path in the config.
        rig, scene = small_rig().to_json(), scene_to_json(calibration_scene())
        spoil(rig, scene)
        cfg = json.loads(write_config(tmp_path).read_text())
        del cfg["rig_path"], cfg["scene_path"]
        cfg.update(rig=rig, scene=scene)
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(cfg))
        assert main(["correct", "--config", str(path), "--out", str(tmp_path / "x.ppm")]) == 1
        assert f"{path}: {where}: {message}" in self.assert_one_error_line(capsys, "schema")


class TestImageContent:
    def test_panorama_content_round_trip(self, tmp_path):
        directory = tmp_path
        # A horizontal hue gradient panorama.
        pano = np.zeros((32, 64, 3), dtype=np.uint8)
        pano[:, :, 0] = np.linspace(0, 255, 64, dtype=np.uint8)[None, :]
        pano[:, :, 1] = 128
        write_ppm(directory / "pano.ppm", pano)
        cfg = write_config(
            directory,
            extra_display={"content": {"type": "image", "path": "pano.ppm"}},
        )
        out = tmp_path / "fb.ppm"
        assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 0
        img = read_ppm(out)
        assert img.shape == (360, 640, 3)
        assert img[:, :, 1].max() > 60  # panorama color made it through the warp

    @pytest.mark.parametrize(
        "command", [["correct"], ["correct", "--no-correction"], ["render-user-view"]]
    )
    def test_image_with_a_zero_side_is_an_image_format_error(self, tmp_path, capsys, command):
        (tmp_path / "empty.ppm").write_bytes(b"P6\n0 0\n255\n")
        cfg = write_config(
            tmp_path, extra_display={"content": {"type": "image", "path": "empty.ppm"}}
        )
        out = tmp_path / "x.ppm"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        line = TestInputBoundary.assert_one_error_line(capsys, "image-format")
        assert "image size must be positive" in line
        assert not out.exists()

    def test_image_content_missing_path_is_schema_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra_display={"content": {"type": "image"}})
        code = main(["correct", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        assert "error[schema]:" in capsys.readouterr().err


class TestHelp:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
