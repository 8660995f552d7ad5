import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import GeometryError, Vec3
from isacsim.scene import (
    LOS_PATH_ID,
    ROLE_FB,
    ROLE_LB,
    ConfigError,
    SceneConfig,
    SceneRangeError,
    Trajectories,
    doppler_shift,
    echo_delay,
    echoes,
    generate_scene,
    ground_truth_paths,
    load_scene,
    observe,
    save_scene,
    scene_to_text,
    sensing_gain,
)
from scalar_truth import alive, alive_first_bounces, angles_from_displacement, distance, position_at, sub, velocity


def per_frame(columns, offsets):
    """Each frame's rows of a run's ``columns``, rows ``offsets[k]`` up to ``offsets[k + 1]``."""
    bounds = offsets.tolist()
    return [columns[a:b] for a, b in zip(bounds, bounds[1:])]


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
    n = cfg.n_clusters * (cfg.fb_per_cluster + cfg.lb_per_cluster)
    assert len(scene.cluster_id) == len(scene.role) == len(scene.rcs) == n
    assert len(scene.tracks.birth) == n + 1  # and the user's row
    per_cluster = cfg.fb_per_cluster * (1 + cfg.lb_per_cluster)
    assert scene.paths.shape == (cfg.n_clusters * per_cluster, 4)
    assert scene.paths[:, 0].tolist() == list(range(len(scene.paths)))


def test_single_bounce_paths_have_fb_equal_lb():
    scene = generate_scene(SceneConfig())
    singles = [(fb_id, lb_id) for _, fb_id, lb_id, _ in scene.paths.tolist() if fb_id == lb_id]
    assert len(singles) == scene.config.n_clusters * scene.config.fb_per_cluster
    for fb_id, lb_id in singles:
        assert fb_id == lb_id
        assert scene.role[fb_id] == ROLE_FB


def test_positions_inside_region():
    scene = generate_scene(SceneConfig())
    lo, hi = scene.config.region_min, scene.config.region_max
    for sid, rcs in enumerate(scene.rcs.tolist()):
        p = Vec3(*scene.tracks.anchor[sid].tolist())
        assert lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y and lo.z <= p.z <= hi.z
        assert scene.config.rcs_min <= rcs <= scene.config.rcs_max
        v = velocity(scene, sid).norm()
        assert scene.config.speed_min - 1e-12 <= v <= scene.config.speed_max + 1e-12


def test_constant_velocity_motion():
    scene = generate_scene(small_config())
    p0 = position_at(scene, 0, 0.0)
    p1 = position_at(scene, 0, 2.5)
    assert distance(sub(p1, p0), velocity(scene, 0) * 2.5) < 1e-12


def test_no_birth_death_when_rate_zero():
    scene = generate_scene(small_config(birth_death_rate=0.0))
    for birth, death in zip(scene.tracks.birth.tolist(), scene.tracks.death.tolist()):  # the user's row too
        assert birth == 0.0
        assert death == math.inf


def test_birth_death_replaces_scatterers():
    scene = generate_scene(small_config(birth_death_rate=0.5, duration=20.0, seed=3))
    died = np.flatnonzero(scene.tracks.death < 20.0)
    assert died.size, "a rate-0.5 20 s scene should see deaths"
    # slot coverage: at any time each cluster still has its FB scatterer
    for t in (0.0, 5.0, 10.0, 19.9):
        alive_fb = alive_first_bounces(scene, t)
        clusters = set(scene.cluster_id[alive_fb].tolist())
        assert clusters == set(range(scene.config.n_clusters))


def test_alive_half_open_interval():
    scene = generate_scene(small_config(birth_death_rate=0.5, seed=3))
    s = scene.trajectories([int(np.flatnonzero(scene.tracks.death < 20.0)[0])])
    assert s.alive(s.birth[0]).tolist() == [True]
    assert s.alive(s.death[0]).tolist() == [False]


def test_user_trajectory():
    scene = generate_scene(small_config())
    u0 = scene.user_position(0.0)
    u5 = scene.user_position(5.0)
    assert u0 == scene.config.user_start
    assert distance(sub(u5, u0), scene.config.user_velocity * 5.0) < 1e-12


def test_ground_truth_powers_sum_to_one_and_order():
    scene = generate_scene(SceneConfig())
    powers, delays = ground_truth_paths(scene, [3.0])[0].columns.table[:, :2].T.tolist()
    assert sum(powers) == pytest.approx(1.0, abs=1e-12)
    # longer delay -> smaller power under the exponential profile
    pairs = sorted(zip(delays, powers))
    for (d1, w1), (d2, w2) in zip(pairs, pairs[1:]):
        assert w1 >= w2 or math.isclose(w1, w2)


def test_run_columns_equal_the_scalar_formulas():
    # births, deaths and virtual delays, and one first bounce rising straight above the BS
    scene = generate_scene(SceneConfig(birth_death_rate=0.3, virtual_delay_max=50e-9, seed=5, duration=5.0))
    bs, lam = scene.bs_position, scene.config.wavelength
    up = scene.role.tolist().index(ROLE_FB)
    anchor, speed = scene.tracks.anchor.copy(), scene.tracks.velocity.copy()
    anchor[up], speed[up] = (bs.x, bs.y, 40.0), (0.0, 0.0, 0.5)
    scene = replace(scene, tracks=Trajectories(anchor, speed, scene.tracks.birth, scene.tracks.death))
    times = [k * 0.1 for k in range(51)]
    alive_sets, vertical = set(), 0
    for t, paths, echo in zip(times, per_frame(*ground_truth_paths(scene, times)), per_frame(*echoes(scene, times))):
        user = scene.user_position(t)
        live = [p for p in scene.paths.tolist() if alive(scene, p[1], t) and alive(scene, p[2], t)]
        points = [(position_at(scene, fb_id, t), position_at(scene, lb_id, t)) for _, fb_id, lb_id, _ in live]
        virtual_delay = [float(scene.virtual_delay[path_id]) for path_id, _, _, _ in live]
        # the outer legs' length, the AoD from the BS at the FB and the AoA from the user at the LB
        terms = [(sub(fb, bs).norm() + sub(lb, user).norm(), angles_from_displacement(sub(fb, bs)),
                  angles_from_displacement(sub(lb, user))) for fb, lb in points]
        delays = np.array([leg / SPEED_OF_LIGHT + vd for vd, (leg, _, _) in zip(virtual_delay, terms)])
        raw = np.exp(-delays / scene.config.pdp_decay)
        powers = raw / raw.sum()  # the frame's own ndarray.sum, in its pairwise order
        assert paths.columns.ids.tolist() == live
        assert paths.columns.table.tolist() == [
            [w, d, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation]
            for w, d, (_, aod, aoa) in zip(powers.tolist(), delays.tolist(), terms)
        ]
        assert paths.columns.degenerate.tolist() == [[aod.degenerate, aoa.degenerate] for _, aod, aoa in terms]
        assert paths.fb.tolist() == [list(fb.as_tuple()) for fb, _ in points]
        assert paths.lb.tolist() == [list(lb.as_tuple()) for _, lb in points]
        assert paths.virtual_delay.tolist() == virtual_delay
        alive_sets.add(tuple(p[0] for p in live))

        fbs = alive_first_bounces(scene, t)
        want = []
        for sid in fbs:
            disp = sub(position_at(scene, sid, t), bs)
            d, direction = disp.norm(), angles_from_displacement(disp)
            closing_speed = -velocity(scene, sid).dot(disp * (1.0 / d))
            want.append((echo_delay(d), direction.azimuth, direction.elevation, doppler_shift(lam, closing_speed),
                         sensing_gain(lam, float(scene.rcs[sid]), d), direction.degenerate))
        assert echo.scatterer_id.tolist() == fbs
        assert echo.table.tolist() == [list(w[:5]) for w in want]
        assert echo.degenerate.tolist() == [w[5] for w in want]
        vertical += sum(w[5] for w in want)
    assert vertical and len(alive_sets) > 1 and min(map(len, alive_sets)) > 8  # ndarray.sum sums pairwise past 8


def test_a_run_resolves_each_time_as_that_time_alone():
    # times out of order and repeated, in a churning scene: each frame holds its own time's alive rows
    scene = generate_scene(SceneConfig(birth_death_rate=0.5, virtual_delay_max=5e-8, seed=4, duration=10.0))
    times = np.random.default_rng(2).permutation([k * 0.25 for k in range(41)] * 2).tolist() + [10.0, 0.0]
    paths, detections = per_frame(*ground_truth_paths(scene, times)), per_frame(*echoes(scene, times))
    assert len({frozenset(p.columns.path_id.tolist()) for p in paths}) > 5
    for t, frame_paths, frame_echoes in zip(times, paths, detections):
        live = [p for p in scene.paths.tolist() if alive(scene, p[1], t) and alive(scene, p[2], t)]
        assert frame_paths.columns.ids.tolist() == live
        assert frame_echoes.scatterer_id.tolist() == alive_first_bounces(scene, t)
        (want, _), (want_echoes, _) = ground_truth_paths(scene, [t]), echoes(scene, [t])
        assert frame_paths.columns.table.tobytes() == want.columns.table.tobytes()
        assert frame_echoes.table.tobytes() == want_echoes.table.tobytes()


def test_path_delay_excludes_middle_leg():
    scene = generate_scene(SceneConfig())
    paths = ground_truth_paths(scene, [0.0])[0].columns
    (_, fb_id, lb_id, _), delay = next((ids, d) for ids, d in zip(paths.ids.tolist(), paths.delay.tolist())
                                       if ids[1] != ids[2])
    fb = position_at(scene, fb_id, 0.0)
    lb = position_at(scene, lb_id, 0.0)
    d = distance(scene.bs_position, fb) + distance(scene.user_position(0.0), lb)
    assert delay == pytest.approx(d / SPEED_OF_LIGHT, rel=1e-15)


def test_observe_noiseless_matches_geometry():
    scene = generate_scene(SceneConfig())
    rng = np.random.default_rng(0)
    t = 4.0
    frame = observe(scene, [t], (0.0, 0.0), rng, *ground_truth_paths(scene, [t]), *echoes(scene, [t])).frame(0)
    user = scene.user_position(t)
    bs = scene.bs_position
    paths = frame.comm_paths
    for (_, fb_id, lb_id, _), (_, delay, aod_az, _, _, aoa_el) in zip(paths.ids.tolist(), paths.table.tolist()):
        fb = position_at(scene, fb_id, t)
        lb = position_at(scene, lb_id, t)
        want = (distance(bs, fb) + distance(user, lb)) / SPEED_OF_LIGHT
        assert delay == pytest.approx(want, abs=1e-18)
        aod = angles_from_displacement(sub(fb, bs))
        assert aod_az == pytest.approx(aod.azimuth, abs=1e-15)
        aoa = angles_from_displacement(sub(lb, user))
        assert aoa_el == pytest.approx(aoa.elevation, abs=1e-15)
    assert frame.los.delay.tolist() == [pytest.approx(distance(bs, user) / SPEED_OF_LIGHT, abs=1e-18)]
    assert len(frame.los) == 1
    assert frame.los.ids.tolist() == [[LOS_PATH_ID] * 4]


def test_observe_sensing_covers_alive_fb():
    scene = generate_scene(SceneConfig())
    frame = observe(
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
    fb_ids = set(alive_first_bounces(scene, 0.0))
    dets = frame.sensing_detections
    assert set(dets.scatterer_id.tolist()) == fb_ids
    for sid, (round_trip_delay, _, _, _, gain) in zip(dets.scatterer_id.tolist(), dets.table.tolist()):
        d = sub(position_at(scene, sid, 0.0), scene.bs_position).norm()
        assert round_trip_delay == pytest.approx(2.0 * d / SPEED_OF_LIGHT, rel=1e-15)
        lam = scene.config.wavelength
        assert gain == pytest.approx(lam**2 * float(scene.rcs[sid]) / (64 * math.pi**3 * d**4), rel=1e-12)


def test_observe_doppler_sign():
    # scatterer moving straight toward the BS must give positive Doppler
    scene = generate_scene(SceneConfig())
    dets = observe(
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0).sensing_detections
    for sid, doppler in zip(dets.scatterer_id.tolist(), dets.table[:, 3].tolist()):
        u = sub(position_at(scene, sid, 0.0), scene.bs_position)
        u = u * (1.0 / u.norm())
        closing = -velocity(scene, sid).dot(u)
        assert doppler == pytest.approx(2.0 * closing / scene.config.wavelength, rel=1e-12)


def test_observation_noise_statistics():
    scene = generate_scene(SceneConfig())
    rng = np.random.default_rng(12)
    sigma = 5e-9
    clean = observe(
        scene, [1.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [1.0]), *echoes(scene, [1.0])
    ).frame(0)
    diffs = []
    for _ in range(200):
        noisy = observe(
            scene, [1.0], (sigma, 0.0), rng, *ground_truth_paths(scene, [1.0]), *echoes(scene, [1.0])
        ).frame(0)
        for a, b in zip(noisy.comm_paths.delay.tolist(), clean.comm_paths.delay.tolist()):
            diffs.append(a - b)
    arr = np.array(diffs)
    assert abs(arr.mean()) < 4 * sigma / math.sqrt(len(arr))
    assert arr.std() == pytest.approx(sigma, rel=0.15)


def test_frame_lookup_helpers():
    # a frame's rows are keyed by id: one comm row per alive path, one echo row per alive FB scatterer
    scene = generate_scene(SceneConfig())
    frame = observe(
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
    path_ids = frame.comm_paths.path_id.tolist()
    assert sorted(set(path_ids)) == path_ids == ground_truth_paths(scene, [0.0])[0].columns.path_id.tolist()
    assert frame.comm_paths[1:3].path_id.tolist() == path_ids[1:3]
    echo_ids = frame.sensing_detections.scatterer_id.tolist()
    assert len(set(echo_ids)) == len(echo_ids) == len(alive_first_bounces(scene, 0.0))


def _saved_and_loaded(tmp_path):
    """A scene with births, deaths and virtual delays, saved and loaded back from its config: the
    scene, the loaded scene and the file's path."""
    cfg = small_config(birth_death_rate=0.3, virtual_delay_max=50e-9, seed=5)
    scene = generate_scene(cfg)
    path = tmp_path / "scene.txt"
    save_scene(scene, str(path))
    return scene, load_scene(str(path), cfg), path


def test_text_round_trip(tmp_path):
    scene, again, path = _saved_and_loaded(tmp_path)
    assert scene_to_text(again) == path.read_text() == scene_to_text(scene)
    assert again.config == scene.config


def test_high_churn_scene_text_pinned():
    # a scene whose scatterers die and are born many times over, with virtual delays: every byte must stay
    text = scene_to_text(generate_scene(SceneConfig(seed=3, duration=2.0, birth_death_rate=5.0,
                                                    virtual_delay_max=5e-8)))
    records = [line[0] for line in text.splitlines()]
    assert (records.count("S"), records.count("P")) == (136, 328)
    digest = "e48d47dbed263dcd385e86679dcd8dc967e8595b3e80a5f2a91b27430cee64ee"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_file_round_trip(tmp_path):
    scene, again, _ = _saved_and_loaded(tmp_path)
    assert again.config == scene.config
    for name in ("cluster_id", "role", "rcs", "paths", "virtual_delay"):
        assert np.array_equal(getattr(again, name), getattr(scene, name)), name
    for name in ("anchor", "velocity", "birth", "death"):
        assert np.array_equal(getattr(again.tracks, name), getattr(scene.tracks, name)), name


def _edited_scene_error(tmp_path, lineno, line):
    """Loading ``small_config``'s scene file with its line ``lineno`` replaced by ``line`` names that line."""
    cfg = small_config()
    lines = scene_to_text(generate_scene(cfg)).splitlines(keepends=True)
    expected = lines[lineno - 1]
    lines[lineno - 1] = line
    path = tmp_path / "scene.txt"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError) as info:
        load_scene(str(path), cfg)
    assert str(info.value) == (
        f"{path} does not match the scene its config generates: line {lineno} is {line!r}, expected {expected!r}"
    )


def test_malformed_text_reports_line(tmp_path):
    n_lines = len(scene_to_text(generate_scene(small_config())).splitlines())
    _edited_scene_error(tmp_path, 4, "Q bogus record\n")
    _edited_scene_error(tmp_path, 2, "C n_clusters 1 2 3\n")  # an int field takes one value
    _edited_scene_error(tmp_path, n_lines, "P 0 999 0 0 0.0\n")  # no scatterer 999


def test_bad_header_rejected(tmp_path):
    _edited_scene_error(tmp_path, 1, "# not a scene\n")


def test_scene_file_cut_short_or_run_on_reports_end_of_file(tmp_path):
    cfg = small_config()
    text = scene_to_text(generate_scene(cfg))
    last, n = text.splitlines(keepends=True)[-1], text.count("\n")
    path = tmp_path / "scene.txt"
    for found, lineno, got, want in (
        (text[: -len(last)], n, "end of file", repr(last)),
        (text + "extra\n", n + 1, repr("extra\n"), "end of file"),
        (text[:-1], n, repr(last[:-1]), repr(last)),  # no final newline
    ):
        path.write_text(found)
        with pytest.raises(ConfigError) as info:
            load_scene(str(path), cfg)
        assert str(info.value).endswith(f": line {lineno} is {got}, expected {want}")


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


def test_powers_underflowing_everywhere_in_a_frame_are_rejected():
    scene = generate_scene(SceneConfig())
    delays = ground_truth_paths(scene, [0.0])[0].columns.delay
    with pytest.raises(ConfigError, match=rf"pdp_decay = 1e-12 s .* t = 0\.0 s, .* {float(delays.min())!r} s"):
        ground_truth_paths(generate_scene(SceneConfig(pdp_decay=1e-12)), [0.0])
    # exp(-d / pdp_decay) is 0 beyond d / pdp_decay ~ 745: the far paths drop out, the frame stays valid
    paths = ground_truth_paths(generate_scene(SceneConfig(pdp_decay=delays.min() / 700.0)), [0.0])[0].columns
    powers = paths.table[:, 0]
    assert 0 < np.count_nonzero(powers == 0.0) < len(paths)
    assert powers.sum() == pytest.approx(1.0, abs=1e-12)


def test_time_range_enforced():
    scene = generate_scene(small_config(duration=10.0))
    with pytest.raises(SceneRangeError):
        ground_truth_paths(scene, [0.0, 10.5])
    with pytest.raises(SceneRangeError):
        echoes(scene, [-0.1])
    with pytest.raises(SceneRangeError):
        observe(
            scene, [-0.1], (0.0, 0.0), np.random.default_rng(0),
            *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0]),
        ).frame(0)


def test_observe_rejects_a_run_of_no_times():
    scene = generate_scene(small_config(duration=10.0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="^a run needs at least one frame time to observe$"):
        observe(scene, [], (1e-9, 0.01), rng, *ground_truth_paths(scene, []), *echoes(scene, []))
    assert rng.bit_generator.state == state  # rejected before anything is drawn


@pytest.mark.parametrize("seed, text", [
    (9, "cannot wrap non-finite angle inf"),
    (2, "cannot wrap non-finite angle -inf"),  # the AoA azimuth and elevation both overflow: the azimuth is named
    (15, "non-finite elevation inf"),
    (0, "non-finite elevation -inf"),
])
def test_observe_names_the_first_non_finite_noisy_angle(seed, text):
    # an angle noise of 1e308 times a draw beyond 1.8 overflows to an infinite angle
    scene = generate_scene(small_config(n_clusters=1, lb_per_cluster=1, duration=1.0))
    paths, detections = ground_truth_paths(scene, [0.0]), echoes(scene, [0.0])
    with np.errstate(over="ignore"), pytest.raises(GeometryError) as raised:
        observe(scene, [0.0], (0.0, 1e308), np.random.default_rng(seed), *paths, *detections)
    assert str(raised.value) == text


def test_virtual_delays():
    scene = generate_scene(small_config(virtual_delay_max=50e-9))
    doubles = scene.paths[:, 1] != scene.paths[:, 2]
    assert (scene.virtual_delay[doubles] > 0.0).any()
    for (_, fb_id, lb_id, _), virtual_delay in zip(scene.paths.tolist(), scene.virtual_delay.tolist()):
        assert 0.0 <= virtual_delay <= 50e-9
        if fb_id == lb_id:
            assert virtual_delay == 0.0


def test_role_split():
    scene = generate_scene(SceneConfig())
    roles = set(scene.role.tolist())
    assert roles == {ROLE_FB, ROLE_LB}
