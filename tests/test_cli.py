"""End-to-end tests of the command-line interface."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from procamsim import calibration, cli
from procamsim.calibration import load_result
from procamsim.cli import main
from procamsim.errors import LimitError
from procamsim.geometry import PinholeDevice, RigidTransform, rotation_about_axis
from procamsim.images import read_image, read_ppm, write_ppm
from procamsim.rig import default_rig, save_rig
from procamsim.scene import CheckerboardTarget, Plane, Scene, save_scene
from procamsim.warp import CheckerPattern


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
        expected = CheckerPattern().render(640, 360)
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
        assert err.startswith("error[schema]:")
        assert "known cases" in err


class TestErrorReporting:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["correct", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[error]:")
        assert err.strip().count("\n") == 0

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

    @pytest.mark.parametrize("display, code", [
        ({"eye": [math.nan, 0.0, -1.5]}, "schema"),
        ({"eye": [0.0, 0.0, math.inf]}, "schema"),
        ({"pan_deg": math.nan}, "limit"),
        ({"tilt_deg": math.nan}, "limit"),
    ])
    def test_non_finite_display_eye_and_angles(self, tmp_path, capsys, display, code):
        cfg = write_config(tmp_path, extra_display=display)
        out = tmp_path / "x.ppm"
        assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 1
        self.assert_one_error_line(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("name, edit", [
        ("rig.json", lambda d: d.update(pan_limit_deg=math.nan)),
        ("rig.json", lambda d: d.update(tilt_limit_deg=math.nan)),
        ("config.json", lambda d: d["display"]["depth"].update(noise_sigma=math.nan)),
        ("config.json", lambda d: d["display"]["viewport"].update(width_m=math.nan)),
        ("config.json", lambda d: d["protocol"].update(corner_noise_sigma=math.nan)),
        ("config.json", lambda d: d["protocol"].update(depth_noise_sigma=math.nan)),
        ("scene.json", lambda d: d["checkerboards"][0].update(square_size=math.nan)),
        ("scene.json", lambda d: d["surfaces"][0].update(extent=[math.nan, 3.0])),
        ("scene.json", lambda d: d["surfaces"].append(
            {"type": "sphere", "center": [0, 0, 5], "radius": math.nan})),
        ("scene.json", lambda d: d["surfaces"].append(
            {"type": "box", "pose": RigidTransform.identity().to_json(),
             "dimensions": [1.0, math.nan, 1.0]})),
        ("scene.json", lambda d: d["surfaces"].append(
            {"type": "cylinder", "pose": RigidTransform.identity().to_json(),
             "radius": math.nan, "height": 1.0})),
        ("scene.json", lambda d: d["surfaces"].append(
            {"type": "cylinder", "pose": RigidTransform.identity().to_json(),
             "radius": 1.0, "height": math.nan})),
    ], ids=["pan_limit", "tilt_limit", "depth_noise", "viewport_width", "corner_noise",
            "protocol_depth_noise", "square_size", "plane_extent", "sphere_radius",
            "box_dimensions", "cylinder_radius", "cylinder_height"])
    def test_nan_sizes_fail_their_range_checks(self, tmp_path, capsys, name, edit):
        cfg = write_config(tmp_path)
        path = tmp_path / name
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        out = tmp_path / "x.ppm"
        assert main(["correct", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_render_width_not_positive(self, config_path, tmp_path, capsys, width):
        with pytest.raises(SystemExit) as excinfo:
            main(["render-user-view", "--config", str(config_path), "--width", width,
                  "--out", str(tmp_path / "view.ppm")])
        assert excinfo.value.code == 2
        assert "--width" in capsys.readouterr().err

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
