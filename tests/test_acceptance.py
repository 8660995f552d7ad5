"""Acceptance gate: nine go/no-go checks of the full pipeline.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). Reference RMSE values for the regression check were frozen from
the first verified default run and guard against silent behavior drift.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from isacsim import csvio
from isacsim.antenna import PlanarArray
from isacsim.cli import main as cli_main
from isacsim.comm import CommParams, comm_cir, draw_polarization_set
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import ORIGIN, Vec3, angles_from_displacement, path_terms, wrap_angle
from isacsim.scene import (
    LOS_PATH_ID,
    SceneConfig,
    doppler_shift,
    echo_delay,
    echoes,
    generate_scene,
    ground_truth_paths,
    observe,
    sensing_gain,
)
from isacsim.stats import all_spreads
from isacsim.tracker import (
    USER_KEY,
    Clouds,
    Slices,
    TrackerConfig,
    initialize_at_truth,
    resample,
    step,
    weight,
)

# final position RMSE (m) of the default run, frozen from the first
# verified run; the regression band is +/-20%
REFERENCE_FB_RMSE = 1.5501691954382777
REFERENCE_LB_RMSE = 1.9491044199504128
RMSE_BAND = 0.20

KS_LIMIT = 0.1


def criterion(num, name, limit_s):
    """Wrap a check so it always emits one PASS/FAIL line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[PRIMARY] criterion {num} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            status = "PASS" if elapsed < limit_s else f"FAIL (runtime {elapsed:.1f}s > {limit_s}s)"
            print(f"[PRIMARY] criterion {num} ({name}): {status} [{elapsed:.2f}s]")
            assert elapsed < limit_s
        return wrapper

    return deco


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One default-config pipeline run shared by the regression checks."""
    base = tmp_path_factory.mktemp("accept")
    run_dir = str(base / "run")
    trk_dir = str(base / "trk")
    sts_dir = str(base / "sts")
    assert cli_main(["simulate", "--out", run_dir]) == 0
    assert cli_main(["track", "--run", run_dir, "--out", trk_dir]) == 0
    assert cli_main(["stats", "--run", run_dir, "--source", "scene", "--out", sts_dir, "--label", "oracle"]) == 0
    assert cli_main([
        "stats", "--run", run_dir, "--track", trk_dir, "--source", "trajectory",
        "--out", sts_dir, "--label", "tracked",
    ]) == 0
    ks_path = os.path.join(sts_dir, "ks.csv")
    assert cli_main([
        "compare", "--a", os.path.join(sts_dir, "spreads_oracle.csv"),
        "--b", os.path.join(sts_dir, "spreads_tracked.csv"), "--out", ks_path,
    ]) == 0
    return {"run": run_dir, "trk": trk_dir, "sts": sts_dir, "ks": ks_path}


@criterion(1, "analytic spreads", 1.0)
def test_criterion_1_analytic_spreads():
    two = [
        (0.5, 100e-9, 0, 0, 0, 0),
        (0.5, 300e-9, 0, 0, 0, 0),
    ]
    got = all_spreads(two)[0]
    assert abs(got - 100e-9) <= 1e-12 * 100e-9

    three = [
        (0.5, 0.0, 0, 0, 0, 0),
        (0.25, 100e-9, 0, 0, 0, 0),
        (0.25, 200e-9, 0, 0, 0, 0),
    ]
    # independent scalar evaluation of the moment formulas
    powers, delays = (0.5, 0.25, 0.25), (0.0, 100e-9, 200e-9)
    mean = sum(p * d for p, d in zip(powers, delays))
    second = sum(p * d * d for p, d in zip(powers, delays))
    want = math.sqrt(second - mean * mean)
    got3 = all_spreads(three)[0]
    assert abs(got3 - want) <= 1e-9 * want


@criterion(2, "Rician power split", 1.0)
def test_criterion_2_rician_split():
    scene = generate_scene(SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=2))
    half, z, y = scene.config.wavelength / 2.0, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0)
    tx, rx = PlanarArray(4, 2, half, scene.bs_position, z, y), PlanarArray(2, 1, half, ORIGIN, z, y)
    for k in (0.0, 1.0, 3.0, 10.0):
        params = CommParams(k_factor=k)
        draws = draw_polarization_set(scene, params, np.random.default_rng(6))
        cir = comm_cir(scene, 2.0, tx, rx, params, draws, pairs=[(0, 0), (1, 5)])
        for ids, re, im in zip(cir.path_id, cir.re, cir.im):
            power = np.abs(re + 1j * im) ** 2
            los = power[ids == LOS_PATH_ID].sum()
            total = power.sum()
            assert abs(los / total - k / (k + 1.0)) <= 1e-12


@criterion(3, "geometry round trip", 5.0)
def test_criterion_3_geometry_round_trip():
    rng = np.random.default_rng(123)
    pts = rng.uniform(-500.0, 500.0, size=(100_000, 3))
    worst = 0.0
    for x, y, z in pts:
        d = Vec3(float(x), float(y), float(z))
        a = angles_from_displacement(d)
        if a.degenerate:
            continue
        b = angles_from_displacement(unit_vector_from(a) * d.norm())
        worst = max(worst, abs(wrap_angle(b.azimuth - a.azimuth)), abs(b.elevation - a.elevation))
    assert worst <= 1e-9


def unit_vector_from(a):
    from isacsim.geometry import unit_vector_from_angles

    return unit_vector_from_angles(a)


@criterion(4, "oracle closure at zero noise", 5.0)
def test_criterion_4_oracle_closure():
    # 5 clusters x (1 FB + 1 LB) = 10 scatterers, 20 s
    scene = generate_scene(SceneConfig(n_clusters=5, fb_per_cluster=1, lb_per_cluster=1))
    assert len(scene.scatterers) == 10
    rng = np.random.default_rng(0)
    for k in range(201):
        t = k * 0.1
        paths = observe(scene, t, (0.0, 0.0), rng, ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]).comm_paths
        user = scene.user_position(t)
        for (path_id, fb_id, lb_id, _), (_, obs_delay, aod_az, aod_el, aoa_az, aoa_el) in zip(
            paths.ids.tolist(), paths.table.tolist()
        ):
            fb = scene.scatterer(fb_id).position_at(t)
            lb = scene.scatterer(lb_id).position_at(t)
            leg, aod, aoa = path_terms(scene.bs_position, user, fb, lb)
            delay = leg / SPEED_OF_LIGHT + scene.paths[path_id].virtual_delay
            assert abs(delay - obs_delay) <= 1e-12
            assert abs(wrap_angle(aod.azimuth - aod_az)) <= 1e-12
            assert abs(aod.elevation - aod_el) <= 1e-12
            assert abs(wrap_angle(aoa.azimuth - aoa_az)) <= 1e-12
            assert abs(aoa.elevation - aoa_el) <= 1e-12


@criterion(5, "filter exactness at zero noise", 30.0)
def test_criterion_5_filter_exactness():
    scene = generate_scene(SceneConfig())
    cfg = TrackerConfig(
        n_particles=100,
        ts=0.1,
        process_pos_std=0.0,
        process_vel_std=0.0,
        init_pos_std=0.0,
        init_vel_std=0.0,
    )
    state = initialize_at_truth(scene, cfg, seed=1)
    rng = np.random.default_rng(0)
    for k in range(1, 201):
        t = k * cfg.ts
        step(state, observe(scene, t, (0.0, 0.0), rng, ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]))
        for key, sid, est in zip(state.keys, state.entity_ids, state.estimates[-1].tolist()):
            if key == USER_KEY:
                truth = scene.user_position(t)
            else:
                truth = scene.scatterer(sid).position_at(t)
            assert Vec3(*est[:3]).distance_to(truth) < 1e-6


@criterion(6, "tracking regression", 300.0)
def test_criterion_6_tracking_regression(default_run):
    rmse = csvio.read_columns(
        os.path.join(default_run["trk"], "rmse.csv"), "track_rmse", csvio.RMSE_HEADER, ("final_rmse_m",),
        strings=("kind",),
    )
    final = dict(zip(rmse["kind"], rmse["final_rmse_m"].tolist()))
    fb = final["fb"]
    lb = final["lb"]
    assert abs(fb - REFERENCE_FB_RMSE) <= RMSE_BAND * REFERENCE_FB_RMSE, (fb, REFERENCE_FB_RMSE)
    assert abs(lb - REFERENCE_LB_RMSE) <= RMSE_BAND * REFERENCE_LB_RMSE, (lb, REFERENCE_LB_RMSE)


@criterion(7, "reconstructed-vs-oracle CDF agreement", 300.0)
def test_criterion_7_cdf_agreement(default_run):
    ks = csvio.read_columns(default_run["ks"], "ks", csvio.KS_HEADER, ("ks_distance",), strings=("quantity",))
    assert len(ks["quantity"]) == 5
    for quantity, d in zip(ks["quantity"], ks["ks_distance"].tolist()):
        assert d <= KS_LIMIT, (quantity, d)
    # the comparison spans the full 200-snapshot run
    spreads = csvio.read_spreads(os.path.join(default_run["sts"], "spreads_tracked.csv"))
    assert len(spreads["k"]) >= 200


@criterion(8, "particle filter invariants", 30.0)
def test_criterion_8_pf_invariants():
    rng = np.random.default_rng(42)
    n = 64
    states = rng.normal(0.0, 40.0, size=(n, 6))
    cloud = Clouds(states[None], np.full((1, n), 1.0 / n), (rng,), np.zeros(1, dtype=bool))
    base_rows = {tuple(r) for r in states}
    for _ in range(10_000):
        z = Slices(
            np.zeros((1, 3)),
            np.array([[rng.uniform(0.0, 1e-6), rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)]]),
            np.array([[rng.uniform(1e-9, 1e-7), 0.05, 0.05]]),
            np.ones(1, dtype=bool),
        )
        cloud = weight(cloud, z)
        assert cloud.size == n
        assert abs(cloud.weights.sum() - 1.0) <= 1e-12
        assert np.all(cloud.weights >= 0.0)
        cloud = resample(cloud, np.zeros(1, dtype=np.intp), np.empty((6, 1, n)))
        assert cloud.size == n
        assert abs(cloud.weights.sum() - 1.0) <= 1e-12
    assert all(tuple(r) in base_rows for r in cloud.states[0])


@criterion(9, "sensing laws", 1.0)
def test_criterion_9_sensing_laws():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = float(rng.uniform(0.5, 2000.0))
        v = float(rng.uniform(-50.0, 50.0))
        f_c = float(rng.uniform(1e9, 100e9))
        lam = SPEED_OF_LIGHT / f_c
        want_tau = 2.0 * d / SPEED_OF_LIGHT
        assert abs(echo_delay(d) - want_tau) <= 1e-12 * want_tau
        want_fd = 2.0 * v * f_c / SPEED_OF_LIGHT
        got_fd = doppler_shift(lam, v)
        assert abs(got_fd - want_fd) <= 1e-12 * max(abs(want_fd), 1e-30)
        rcs = float(rng.uniform(0.1, 100.0))
        g1 = sensing_gain(lam, rcs, d)
        g2 = sensing_gain(lam, rcs, 2.0 * d)
        assert abs(g2 - g1 / 16.0) <= 1e-12 * (g1 / 16.0)
