"""Acceptance checks: one test per headline requirement of the toolkit.

Each test prints a single ``PASS``/``FAIL`` line (run with ``-s`` to see
them as they happen) and then asserts, so a red test always comes with its
one-line verdict plus the failing numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from procamsim.calibration import (
    parameter_errors,
    result_from_rig,
    run_full_calibration,
)
from procamsim.cli import main as cli_main
from procamsim.evaluation import (
    BenchmarkOptions,
    CornerSet,
    build_display_chain,
    case_by_name,
    corner_dislocation,
    evaluate_case,
    standard_suite,
)
from procamsim.geometry import PinholeDevice, RigidTransform, rotation_about_axis
from procamsim.rig import save_rig
from procamsim.scene import (
    CheckerboardTarget,
    DepthNoiseModel,
    Plane,
    Scene,
    save_scene,
    sense_depth,
)
from procamsim.simulate import CalibrationProtocol, synthesize_session
from procamsim.upr import DEFAULT_EYE, EyePose, upr_matrix
from procamsim.warp import propagate_corners_uncorrected, warp_to_projector

from rigs import default_rig


def report(num: int, ok: bool, text: str) -> bool:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    return ok


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


# -- 1: rotation constructor properties ---------------------------------------


def test_criterion_1_rotation_properties():
    rng = np.random.default_rng(11)
    n = 10_000
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    thetas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)

    t0 = time.perf_counter()
    mats = np.stack([rotation_about_axis(a, th) for a, th in zip(axes, thetas)])
    invs = np.stack([rotation_about_axis(a, -th) for a, th in zip(axes, thetas)])
    eye = np.eye(3)
    orth = np.abs(np.einsum("nji,njk->nik", mats, mats) - eye).max()
    det = np.abs(np.linalg.det(mats) - 1.0).max()
    fix = np.abs(np.einsum("nij,nj->ni", mats, axes) - axes).max()
    inv = np.abs(np.einsum("nij,njk->nik", mats, invs) - eye).max()
    elapsed = time.perf_counter() - t0

    ok = max(orth, det, fix, inv) < 1e-12 and elapsed < 1.0
    assert report(
        1,
        ok,
        "rotation constructor on 10^4 random (axis, angle): "
        f"orthonormality {orth:.2e}, det {det:.2e}, axis fixpoint {fix:.2e}, "
        f"inverse composition {inv:.2e} (tol 1e-12), {elapsed:.2f} s (< 1 s)",
    )


# -- 2: screen projection fixpoint and ray oracle ------------------------------


def test_criterion_2_screen_projection():
    rng = np.random.default_rng(22)
    rig = default_rig()
    world_to_rear = rig.rear_to_front.inverse()  # home pose: front frame == world
    rear_to_world = world_to_rear.inverse()
    eye = EyePose(*DEFAULT_EYE)
    upr = upr_matrix(eye, world_to_rear)

    t0 = time.perf_counter()
    # Points on the virtual screen (rear z = 0) must map to themselves.
    on_plane = np.c_[
        rng.uniform(-1.0, 1.0, size=10_000),
        rng.uniform(-0.6, 0.6, size=10_000),
        np.zeros(10_000),
    ]
    got, w = upr.apply(rear_to_world.apply(on_plane))
    fix_err = float(np.abs(got - on_plane[:, :2]).max())
    w_err = float(np.abs(w - (on_plane[:, 2] - eye.z)).max())

    # Off-plane points must agree with an explicit eye-ray / plane intersection.
    off = np.c_[
        rng.uniform(-2.0, 2.0, size=10_000),
        rng.uniform(-1.5, 1.5, size=10_000),
        rng.uniform(0.5, 5.0, size=10_000),
    ]
    got2, w2 = upr.apply(rear_to_world.apply(off))
    e = eye.as_array()
    s = -e[2] / (off[:, 2] - e[2])
    oracle = e[None, :2] + s[:, None] * (off[:, :2] - e[None, :2])
    ray_err = float(np.abs(got2 - oracle).max())
    w2_err = float(np.abs(w2 - (off[:, 2] - e[2])).max())
    elapsed = time.perf_counter() - t0

    ok = (
        max(fix_err, w_err) < 1e-12
        and max(ray_err, w2_err) < 1e-10
        and elapsed < 1.0
    )
    assert report(
        2,
        ok,
        "screen projection: 10^4 on-plane fixpoints err "
        f"{fix_err:.2e} (tol 1e-12), 10^4 off-plane vs line-plane oracle err "
        f"{ray_err:.2e} (tol 1e-10), {elapsed:.2f} s (< 1 s)",
    )


# -- 3: noiseless calibration round trip ---------------------------------------


@pytest.fixture(scope="module")
def noiseless_calibration():
    rig = default_rig()
    t0 = time.perf_counter()
    session = synthesize_session(rig, calibration_scene(), protocol=CalibrationProtocol(seed=0))
    result = run_full_calibration(session)
    elapsed = time.perf_counter() - t0
    errors = parameter_errors(rig, result)
    return rig, result, errors, elapsed


def test_criterion_3_noiseless_round_trip(noiseless_calibration):
    _, result, errors, elapsed = noiseless_calibration
    axis_err = max(errors["pan_axis_angle_rad"], errors["tilt_axis_angle_rad"])
    rear_err = max(errors["rear_rotation_rad"], errors["rear_translation_m"])
    intr_err = max(
        errors["proj_fx_rel"],
        errors["proj_fy_rel"],
        errors["proj_cx_rel"],
        errors["proj_cy_rel"],
        errors["proj_skew_over_fx"],
    )
    rms = result.residuals.proj_reproj_rms_px
    ok = (
        axis_err < 1e-6
        and rear_err < 1e-6
        and intr_err < 1e-4
        and rms < 1e-5
        and elapsed < 10.0
    )
    assert report(
        3,
        ok,
        f"noiseless round trip: axis err {axis_err:.2e} rad (< 1e-6), rear err "
        f"{rear_err:.2e} (< 1e-6), projector intrinsics rel err {intr_err:.2e} "
        f"(< 1e-4), reprojection RMS {rms:.2e} px (< 1e-5), {elapsed:.2f} s (< 10 s)",
    )


# -- 4: calibration under noise -------------------------------------------------


def test_criterion_4_noise_robustness():
    rig = default_rig()
    scene = calibration_scene()
    keys = (
        "pan_axis_angle_rad",
        "tilt_axis_angle_rad",
        "rear_rotation_rad",
        "rear_translation_m",
        "proj_fx_rel",
    )

    def run(corner_sigma, depth_sigma):
        per_seed = []
        for seed in range(20):
            protocol = CalibrationProtocol(
                corner_noise_sigma=corner_sigma,
                depth_noise_sigma=depth_sigma,
                seed=seed,
            )
            session = synthesize_session(rig, scene, protocol=protocol)
            result = run_full_calibration(session)
            per_seed.append(parameter_errors(rig, result))
        return per_seed

    t0 = time.perf_counter()
    base = run(0.001, 0.002)
    doubled = run(0.002, 0.004)
    elapsed = time.perf_counter() - t0

    med = lambda errs, k: float(np.median([e[k] for e in errs]))
    axis_med = max(
        med(base, "pan_axis_angle_rad"), med(base, "tilt_axis_angle_rad")
    )
    focal_med = float(
        np.median([max(e["proj_fx_rel"], e["proj_fy_rel"]) for e in base])
    )
    monotone = all(med(doubled, k) >= med(base, k) for k in keys)
    ok = (
        axis_med < math.radians(0.5)
        and focal_med < 0.01
        and monotone
        and elapsed < 60.0
    )
    assert report(
        4,
        ok,
        "noisy calibration (1 mm corners, 2 mm depth, 20 seeds): median axis err "
        f"{math.degrees(axis_med):.4f} deg (< 0.5), median focal err "
        f"{100 * focal_med:.4f}% (< 1%), medians non-decreasing at double noise: "
        f"{monotone}, {elapsed:.1f} s (< 60 s)",
    )


# -- 5: end-to-end distortion correction ----------------------------------------


def _uncorrected_homography(plane, proj_device, proj_to_world, eye, world_to_rear, viewport):
    """Closed-form projector-pixel -> screen-pixel map for a planar scene.

    Derived independently of the rendering path: a projector ray is
    intersected with the plane in homogeneous form, pushed through the
    eye's screen projection and scaled into viewport pixels.
    """
    k_inv = np.linalg.inv(proj_device.matrix())
    rot = proj_to_world.rotation
    c = proj_to_world.translation
    n = np.asarray(plane.normal, dtype=float)
    p0 = np.asarray(plane.point, dtype=float)
    ray_to_point = np.zeros((4, 3))
    ray_to_point[:3, :] = np.outer(c, n) + float(n @ (p0 - c)) * np.eye(3)
    ray_to_point[3, :] = n
    ex, ey, ez = eye.as_array()
    screen = np.array(
        [
            [-ez, 0.0, ex, 0.0],
            [0.0, -ez, ey, 0.0],
            [0.0, 0.0, 1.0, -ez],
        ]
    )
    to_px = np.array(
        [
            [viewport.width_px / viewport.width_m, 0.0, 0.5 * viewport.width_px],
            [0.0, viewport.height_px / viewport.height_m, 0.5 * viewport.height_px],
            [0.0, 0.0, 1.0],
        ]
    )
    return to_px @ screen @ world_to_rear.as_matrix() @ ray_to_point @ rot @ k_inv


def test_criterion_5_distortion_correction():
    rig = default_rig()
    result = result_from_rig(rig)
    options = BenchmarkOptions()
    suite = standard_suite()
    user_image = options.pattern.render(
        options.viewport.width_px, options.viewport.height_px
    )

    stats = {}
    for name in ("oblique45", "box", "spheres"):
        case = case_by_name(suite, name)
        t0 = time.perf_counter()
        res = evaluate_case(case, rig, result, options)
        chain = build_display_chain(case.scene, rig, result, options)
        framebuffer = warp_to_projector(
            user_image,
            chain.geometry,
            chain.est_upr,
            options.viewport,
            result.proj_device,
            chain.est_proj_to_world,
        )
        elapsed = time.perf_counter() - t0
        stats[name] = (res, elapsed, framebuffer.any())

    # Independent homography oracle for the uncorrected oblique-plane case.
    oblique = case_by_name(suite, "oblique45")
    plane = oblique.scene.surfaces[0]
    proj_to_world = rig.front_to_proj.inverse()  # home pose: front frame == world
    world_to_rear = rig.rear_to_front.inverse()
    eye = EyePose(*DEFAULT_EYE)
    homography = _uncorrected_homography(
        plane, rig.proj_device, proj_to_world, eye, world_to_rear, options.viewport
    )
    prop = propagate_corners_uncorrected(
        options.pattern,
        oblique.scene,
        rig.proj_device,
        proj_to_world,
        upr_matrix(eye, world_to_rear),
        options.viewport,
    )
    proj_px = options.pattern.corner_positions(
        rig.proj_device.width, rig.proj_device.height
    )
    mapped_h = np.c_[proj_px, np.ones(len(proj_px))] @ homography.T
    mapped = mapped_h[:, :2] / mapped_h[:, 2:]
    oracle_err = float(
        np.linalg.norm(mapped[prop.resolved] - prop.observed_px[prop.resolved], axis=1).max()
    )

    corr = {name: stats[name][0].corrected_mean_px for name in stats}
    uncorr_oblique = stats["oblique45"][0].uncorrected_mean_px
    slowest = max(stats[name][1] for name in stats)
    ok = (
        all(v <= 0.5 for v in corr.values())
        and uncorr_oblique >= 20.0
        and prop.resolved.sum() > 0
        and oracle_err < 0.5
        and slowest < 30.0
        and all(stats[name][2] for name in stats)
    )
    assert report(
        5,
        ok,
        "corrected mean dislocation at 1920x1080: "
        + ", ".join(f"{k} {v:.4f} px" for k, v in corr.items())
        + f" (each <= 0.5); uncorrected oblique {uncorr_oblique:.1f} px (>= 20), "
        f"homography oracle err {oracle_err:.2e} px (< 0.5); slowest case "
        f"{slowest:.1f} s (< 30 s)",
    )


# -- 6: grazing-angle depth dropout bands ----------------------------------------


def test_criterion_6_grazing_band_failure():
    rig = default_rig()
    result = result_from_rig(rig)
    options = BenchmarkOptions()
    suite = standard_suite()
    wedge = case_by_name(suite, "grazing_wedge")
    box = case_by_name(suite, "box")

    # Per-pixel grazing angle for the wedge as seen by the depth sensor.
    fd = rig.front_device
    sx = options.depth_width / fd.width
    sy = options.depth_height / fd.height
    device = PinholeDevice(
        fx=fd.fx * sx,
        fy=fd.fy * sy,
        cx=fd.cx * sx,
        cy=fd.cy * sy,
        width=options.depth_width,
        height=options.depth_height,
        skew=fd.skew * sx,
    )
    uu, vv = np.meshgrid(
        np.arange(device.width) + 0.5, np.arange(device.height) + 0.5, indexing="xy"
    )
    y = (vv.ravel() - device.cy) / device.fy
    x = ((uu.ravel() - device.cx) - device.skew * y) / device.fx
    dirs = np.c_[x, y, np.ones(x.size)]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t, normals, idx = wedge.scene.intersect(np.zeros(3), dirs)
    hit = np.isfinite(t) & (idx >= 0)
    gamma = np.degrees(
        np.arcsin(np.clip(np.abs(np.einsum("ij,ij->i", dirs, normals)), 0.0, 1.0))
    )
    depth = sense_depth(
        wedge.scene,
        device,
        RigidTransform(np.eye(3), np.zeros(3)),
        DepthNoiseModel(sigma=0.0, rng_seed=0),
    )
    valid = depth.valid.ravel()

    certain = hit & (gamma < 10.0)
    band = hit & (gamma >= 10.0) & (gamma <= 30.0)
    safe = hit & (gamma > 30.0)
    certain_invalid = 1.0 - (valid[certain].mean() if certain.any() else 1.0)
    band_invalid = 1.0 - (valid[band].mean() if band.any() else 1.0)
    safe_valid = valid[safe].all() if safe.any() else False

    wedge_res = evaluate_case(wedge, rig, result, options)
    box_res = evaluate_case(box, rig, result, options)
    wedge_unresolved = wedge_res.corner_count - wedge_res.resolved_count
    box_unresolved = box_res.corner_count - box_res.resolved_count

    ok = (
        certain.sum() > 100
        and band.sum() > 200
        and certain_invalid == 1.0
        and band_invalid > 0.25
        and safe_valid
        and wedge_res.invalid_depth_fraction > box_res.invalid_depth_fraction
        and wedge_unresolved > box_unresolved
        and wedge_res.corrected_mean_px > box_res.corrected_mean_px
    )
    assert report(
        6,
        ok,
        "grazing wedge: sub-10-degree zone "
        f"{100 * certain_invalid:.0f}% invalid depth (= 100%), 10-30 degree band "
        f"{100 * band_invalid:.0f}% invalid; vs frontal box scene at identical "
        f"settings: invalid depth {wedge_res.invalid_depth_fraction:.1%} > "
        f"{box_res.invalid_depth_fraction:.1%}, unresolved corners "
        f"{wedge_unresolved} > {box_unresolved}, corrected dislocation "
        f"{wedge_res.corrected_mean_px:.4f} > {box_res.corrected_mean_px:.4f} px",
    )


# -- 7: dislocation metric vs brute force -----------------------------------------


def brute_force_dislocation(a: CornerSet, b: CornerSet) -> float:
    by_index = {int(i): p for i, p in zip(b.indices, b.positions_px)}
    dists = []
    for i, p in zip(a.indices, a.positions_px):
        q = by_index.get(int(i))
        if q is not None:
            dists.append(math.hypot(p[0] - q[0], p[1] - q[1]))
    return sum(dists) / len(dists)


def test_criterion_7_metric_matches_brute_force():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        pool = rng.permutation(300)
        shared = pool[: rng.integers(3, 40)]
        only_a = pool[40:60][: rng.integers(0, 20)]
        only_b = pool[60:80][: rng.integers(0, 20)]
        ia = np.concatenate([shared, only_a])
        ib = np.concatenate([shared, only_b])
        a = CornerSet(ia, rng.uniform(-50.0, 1970.0, size=(len(ia), 2)))
        b = CornerSet(ib, rng.uniform(-50.0, 1970.0, size=(len(ib), 2)))
        worst = max(worst, abs(corner_dislocation(a, b) - brute_force_dislocation(a, b)))

    base = CornerSet(np.arange(28), rng.uniform(0.0, 1000.0, size=(28, 2)))
    shifted = CornerSet(base.indices, base.positions_px + np.array([3.0, 4.0]))
    shift_value = corner_dislocation(base, shifted)

    ok = worst <= 1e-12 and shift_value == 5.0
    assert report(
        7,
        ok,
        f"dislocation metric vs brute force on 100 random corner sets: max diff "
        f"{worst:.2e} (<= 1e-12); (3, 4)-shifted set -> {shift_value!r} (= 5.0)",
    )


# -- 8: CLI determinism ------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    rig = default_rig()
    small = type(rig)(
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
    save_rig(small, tmp_path / "rig.json")
    save_scene(calibration_scene(), tmp_path / "scene.json")
    config = {
        "schema_version": 1,
        "rig_path": "rig.json",
        "scene_path": "scene.json",
        "protocol": {"seed": 3, "corner_noise_sigma": 0.0005, "depth_noise_sigma": 0.001},
        "display": {
            "viewport": {"width_px": 960, "height_px": 540},
            "depth": {"width": 80, "height": 60, "noise_sigma": 0.001},
        },
        "benchmark": {"cases": ["base", "grazing_wedge"], "seed": 2},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    def run_twice(args_for, outputs_for):
        blobs = []
        for attempt in range(2):
            root = tmp_path / f"run{attempt}"
            root.mkdir(exist_ok=True)
            assert cli_main(args_for(root)) == 0
            blobs.append([p.read_bytes() for p in outputs_for(root)])
        return blobs[0] == blobs[1]

    results = {}
    results["simulate-calib"] = run_twice(
        lambda root: [
            "simulate-calib", "--config", str(cfg), "--seed", "9",
            "--out", str(root / "session.json"),
        ],
        lambda root: [root / "session.json"],
    )
    session = tmp_path / "run0" / "session.json"
    results["calibrate"] = run_twice(
        lambda root: ["calibrate", "--session", str(session), "--out", str(root / "result.json")],
        lambda root: [root / "result.json"],
    )
    result_path = tmp_path / "run0" / "result.json"
    results["correct"] = run_twice(
        lambda root: [
            "correct", "--config", str(cfg), "--result", str(result_path),
            "--out", str(root / "fb.ppm"),
        ],
        lambda root: [root / "fb.ppm"],
    )
    results["render-user-view"] = run_twice(
        lambda root: [
            "render-user-view", "--config", str(cfg), "--result", str(result_path),
            "--width", "160", "--out", str(root / "view.ppm"),
        ],
        lambda root: [root / "view.ppm"],
    )
    results["evaluate"] = run_twice(
        lambda root: [
            "evaluate", "--config", str(cfg), "--result", str(result_path),
            "--seed", "5", "--out", str(root / "bench"),
        ],
        lambda root: sorted((root / "bench").iterdir()),
    )

    ok = all(results.values())
    assert report(
        8,
        ok,
        "byte-identical artifacts across repeated runs: "
        + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in sorted(results.items())),
    )
