import math
from dataclasses import replace

import numpy as np
import pytest

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import Vec3, angles_from_displacement
from isacsim.scene import (
    LOS_PATH_ID,
    ROLE_FB,
    ROLE_LB,
    ConfigError,
    SceneConfig,
    SceneRangeError,
    generate_scene,
    ground_truth_paths,
    load_scene,
    observe,
    save_scene,
    scene_from_text,
    scene_to_text,
)


def small_config(**kw):
    base = SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=2, seed=7)
    return replace(base, **kw)


def test_determinism_same_seed():
    cfg = small_config()
    a = scene_to_text(generate_scene(cfg))
    b = scene_to_text(generate_scene(cfg))
    assert a == b


def test_different_seed_differs():
    a = scene_to_text(generate_scene(small_config(seed=7)))
    b = scene_to_text(generate_scene(small_config(seed=8)))
    assert a != b


def test_scatterer_and_path_counts():
    # every FB pairs with itself (single bounce) and with each LB in its cluster
    scene = generate_scene(SceneConfig())
    cfg = scene.config
    assert len(scene.scatterers) == cfg.n_clusters * (cfg.fb_per_cluster + cfg.lb_per_cluster)
    per_cluster = cfg.fb_per_cluster * (1 + cfg.lb_per_cluster)
    assert len(scene.paths) == cfg.n_clusters * per_cluster
    assert [p.path_id for p in scene.paths] == list(range(len(scene.paths)))


def test_single_bounce_paths_have_fb_equal_lb():
    scene = generate_scene(SceneConfig())
    singles = [p for p in scene.paths if p.single_bounce]
    assert len(singles) == scene.config.n_clusters * scene.config.fb_per_cluster
    for p in singles:
        assert p.fb_id == p.lb_id
        assert scene.scatterer(p.fb_id).role == ROLE_FB


def test_positions_inside_region():
    scene = generate_scene(SceneConfig())
    lo, hi = scene.config.region_min, scene.config.region_max
    for s in scene.scatterers:
        p = s.position
        assert lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y and lo.z <= p.z <= hi.z
        assert scene.config.rcs_min <= s.rcs <= scene.config.rcs_max
        v = s.velocity.norm()
        assert scene.config.speed_min - 1e-12 <= v <= scene.config.speed_max + 1e-12


def test_constant_velocity_motion():
    scene = generate_scene(small_config())
    s = scene.scatterers[0]
    p0 = s.position_at(0.0)
    p1 = s.position_at(2.5)
    assert (p1 - p0).distance_to(s.velocity * 2.5) < 1e-12


def test_no_birth_death_when_rate_zero():
    scene = generate_scene(small_config(birth_death_rate=0.0))
    for s in scene.scatterers:
        assert s.birth_time == 0.0
        assert s.death_time == math.inf


def test_birth_death_replaces_scatterers():
    scene = generate_scene(small_config(birth_death_rate=0.5, duration=20.0, seed=3))
    died = [s for s in scene.scatterers if s.death_time < 20.0]
    assert died, "a rate-0.5 20 s scene should see deaths"
    # slot coverage: at any time each cluster still has its FB scatterer
    for t in (0.0, 5.0, 10.0, 19.9):
        alive_fb = scene.alive_scatterers(t, role=ROLE_FB)
        clusters = {s.cluster_id for s in alive_fb}
        assert clusters == set(range(scene.config.n_clusters))


def test_alive_half_open_interval():
    scene = generate_scene(small_config(birth_death_rate=0.5, seed=3))
    s = next(s for s in scene.scatterers if s.death_time < 20.0)
    assert s.alive(s.birth_time)
    assert not s.alive(s.death_time)


def test_user_trajectory():
    scene = generate_scene(small_config())
    u0 = scene.user_position(0.0)
    u5 = scene.user_position(5.0)
    assert u0 == scene.config.user_start
    assert (u5 - u0).distance_to(scene.config.user_velocity * 5.0) < 1e-12


def test_ground_truth_powers_sum_to_one_and_order():
    scene = generate_scene(SceneConfig())
    paths = ground_truth_paths(scene, 3.0)
    total = sum(p.power for p in paths)
    assert total == pytest.approx(1.0, abs=1e-12)
    # longer delay -> smaller power under the exponential profile
    pairs = [(p.delay, p.power) for p in paths]
    pairs.sort()
    for (d1, w1), (d2, w2) in zip(pairs, pairs[1:]):
        assert w1 >= w2 or math.isclose(w1, w2)


def test_path_delay_excludes_middle_leg():
    scene = generate_scene(SceneConfig())
    p = next(p for p in ground_truth_paths(scene, 0.0) if p.fb_id != p.lb_id)
    fb = scene.scatterer(p.fb_id).position_at(0.0)
    lb = scene.scatterer(p.lb_id).position_at(0.0)
    d = scene.bs_position.distance_to(fb) + scene.user_position(0.0).distance_to(lb)
    assert p.delay == pytest.approx(d / SPEED_OF_LIGHT, rel=1e-15)


def test_observe_noiseless_matches_geometry():
    scene = generate_scene(SceneConfig())
    rng = np.random.default_rng(0)
    t = 4.0
    frame = observe(scene, t, (0.0, 0.0), rng)
    user = scene.user_position(t)
    bs = scene.bs_position
    for obs in frame.comm_paths:
        fb = scene.scatterer(obs.fb_id).position_at(t)
        lb = scene.scatterer(obs.lb_id).position_at(t)
        want = (bs.distance_to(fb) + user.distance_to(lb)) / SPEED_OF_LIGHT
        assert obs.delay == pytest.approx(want, abs=1e-18)
        aod = angles_from_displacement(fb - bs)
        assert obs.aod.azimuth == pytest.approx(aod.azimuth, abs=1e-15)
        aoa = angles_from_displacement(lb - user)
        assert obs.aoa.elevation == pytest.approx(aoa.elevation, abs=1e-15)
    assert frame.los.delay == pytest.approx(bs.distance_to(user) / SPEED_OF_LIGHT, abs=1e-18)
    assert frame.los.kind == "los"
    assert frame.los.path_id == LOS_PATH_ID


def test_observe_sensing_covers_alive_fb():
    scene = generate_scene(SceneConfig())
    frame = observe(scene, 0.0, (0.0, 0.0), np.random.default_rng(0))
    fb_ids = {s.id for s in scene.alive_scatterers(0.0, role=ROLE_FB)}
    assert {d.scatterer_id for d in frame.sensing_detections} == fb_ids
    for det in frame.sensing_detections:
        s = scene.scatterer(det.scatterer_id)
        d = (s.position_at(0.0) - scene.bs_position).norm()
        assert det.round_trip_delay == pytest.approx(2.0 * d / SPEED_OF_LIGHT, rel=1e-15)
        lam = scene.config.wavelength
        assert det.gain == pytest.approx(lam**2 * s.rcs / (64 * math.pi**3 * d**4), rel=1e-12)


def test_observe_doppler_sign():
    # scatterer moving straight toward the BS must give positive Doppler
    scene = generate_scene(SceneConfig())
    frame = observe(scene, 0.0, (0.0, 0.0), np.random.default_rng(0))
    for det in frame.sensing_detections:
        s = scene.scatterer(det.scatterer_id)
        u = s.position_at(0.0) - scene.bs_position
        u = u * (1.0 / u.norm())
        closing = -s.velocity.dot(u)
        assert det.doppler == pytest.approx(2.0 * closing / scene.config.wavelength, rel=1e-12)


def test_observation_noise_statistics():
    scene = generate_scene(SceneConfig())
    rng = np.random.default_rng(12)
    sigma = 5e-9
    clean = observe(scene, 1.0, (0.0, 0.0), np.random.default_rng(0))
    diffs = []
    for _ in range(200):
        noisy = observe(scene, 1.0, (sigma, 0.0), rng)
        for a, b in zip(noisy.comm_paths, clean.comm_paths):
            diffs.append(a.delay - b.delay)
    arr = np.array(diffs)
    assert abs(arr.mean()) < 4 * sigma / math.sqrt(len(arr))
    assert arr.std() == pytest.approx(sigma, rel=0.15)


def test_frame_lookup_helpers():
    scene = generate_scene(SceneConfig())
    frame = observe(scene, 0.0, (0.0, 0.0), np.random.default_rng(0))
    by_path = frame.comm_by_path()
    assert set(by_path) == {p.path_id for p in frame.comm_paths}
    by_id = frame.sensing_by_id()
    assert set(by_id) == {d.scatterer_id for d in frame.sensing_detections}


def test_text_round_trip():
    scene = generate_scene(small_config(birth_death_rate=0.3, virtual_delay_max=50e-9, seed=5))
    text = scene_to_text(scene)
    again = scene_from_text(text)
    assert scene_to_text(again) == text
    assert again.config == scene.config
    assert again.scatterers == scene.scatterers
    assert again.paths == scene.paths


def test_file_round_trip(tmp_path):
    scene = generate_scene(small_config())
    path = tmp_path / "scene.txt"
    save_scene(scene, str(path))
    assert load_scene(str(path)).scatterers == scene.scatterers


def test_malformed_text_reports_line():
    scene = generate_scene(small_config())
    lines = scene_to_text(scene).splitlines()
    lines[3] = "Q bogus record"
    with pytest.raises(ConfigError, match="line 4"):
        scene_from_text("\n".join(lines))
    lines = scene_to_text(scene).splitlines()
    lines[1] = "C n_clusters 1 2 3"  # an int field takes one value
    with pytest.raises(ConfigError, match="line 2"):
        scene_from_text("\n".join(lines))
    lines = scene_to_text(scene).splitlines()
    lines[-1] = "P 0 999 0 0 0.0"  # no scatterer 999
    with pytest.raises(ConfigError, match=f"line {len(lines)}: .*scatterer 999"):
        scene_from_text("\n".join(lines))


def test_bad_header_rejected():
    with pytest.raises(ConfigError):
        scene_from_text("# not a scene\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        generate_scene(small_config(n_clusters=0))
    with pytest.raises(ConfigError):
        generate_scene(small_config(speed_min=2.0, speed_max=1.0))
    with pytest.raises(ConfigError):
        generate_scene(small_config(rcs_min=0.0))
    with pytest.raises(ConfigError):
        generate_scene(small_config(duration=0.0))
    with pytest.raises(ConfigError):
        generate_scene(small_config(region_min=Vec3(10.0, 0.0, 0.0), region_max=Vec3(0.0, 1.0, 1.0)))


def test_time_range_enforced():
    scene = generate_scene(small_config(duration=10.0))
    with pytest.raises(SceneRangeError):
        ground_truth_paths(scene, 10.5)
    with pytest.raises(SceneRangeError):
        observe(scene, -0.1, (0.0, 0.0), np.random.default_rng(0))


def test_virtual_delays():
    scene = generate_scene(small_config(virtual_delay_max=50e-9))
    doubles = [p for p in scene.paths if not p.single_bounce]
    assert any(p.virtual_delay > 0.0 for p in doubles)
    for p in scene.paths:
        assert 0.0 <= p.virtual_delay <= 50e-9
        if p.single_bounce:
            assert p.virtual_delay == 0.0


def test_role_split():
    scene = generate_scene(SceneConfig())
    roles = {s.role for s in scene.scatterers}
    assert roles == {ROLE_FB, ROLE_LB}
