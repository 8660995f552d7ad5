import math
import tracemalloc
import warnings

import numpy as np
import pytest

import isacsim.tracker as tracker_module
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import ORIGIN, AngleSet, Vec3, angles_from_displacement, wrap_angle
from isacsim.scene import (
    LOS_PATH_ID,
    EchoColumns,
    ObservationFrame,
    PathColumns,
    SceneConfig,
    echoes,
    generate_scene,
    ground_truth_paths,
    observe,
)
from isacsim.tracker import (
    KIND_FB,
    KIND_LB,
    KIND_USER,
    MAX_PARTICLES,
    USER_KEY,
    Clouds,
    Slices,
    TrackerConfig,
    TrackerError,
    _in_gate,
    _wrap_residual,
    effective_sample_size,
    estimate,
    initialize,
    initialize_at_truth,
    predict,
    predicted_slice_values,
    resample,
    solve_lb_range,
    step,
    weight,
)

C = 299792458.0


def make_cloud(states, weights=None, seed=0):
    """A batch of one cloud."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return Clouds(states[None], w[None], (np.random.default_rng(seed),), np.zeros(1, dtype=bool))


def buffer(clouds):
    """A fresh (6, E, C) state buffer for ``clouds``."""
    return np.empty((6, *clouds.weights.shape))


def resample_all(clouds):
    """Every cloud resampled into a fresh buffer."""
    return resample(clouds, np.arange(clouds.weights.shape[0]), buffer(clouds))


def one_slice(reference, values, sigmas, has_delay=True):
    """Slices for a batch of one cloud."""
    return Slices(
        np.array([reference.as_tuple()]), np.asarray(values, dtype=float)[None],
        np.asarray(sigmas, dtype=float)[None], np.array([has_delay]),
    )


def est_pos(state, key, k=-1):
    """Estimated position of cloud ``key`` at step ``k``."""
    return Vec3(*state.estimates[k][state.row[key], :3].tolist())


# --- last-bounce range solve -------------------------------------------------


def test_solve_lb_range_worked_example():
    # BS at origin, user at (10,0,0), first bounce at (0,5,0); a total
    # remaining budget of 15 m along the +y arrival ray puts the last
    # bounce 5 m from the user, at (10,5,0).
    r = solve_lb_range(Vec3(0.0, 5.0, 0.0), Vec3(10.0, 0.0, 0.0), AngleSet(math.pi / 2, 0.0), 15.0)
    assert r == pytest.approx(5.0, abs=1e-12)


def test_solve_lb_range_single_bounce_closure():
    # anchor = BS, budget = both legs of a single-bounce path: the solve
    # returns exactly the scatterer range from the user.
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    s = Vec3(-30.0, 80.0, 12.0)
    total = bs.distance_to(s) + user.distance_to(s)
    aoa = angles_from_displacement(s - user)
    r = solve_lb_range(bs, user, aoa, total)
    assert r == pytest.approx(user.distance_to(s), rel=1e-12)


def test_solve_lb_range_collinear():
    # anchor sits on the arrival ray: the quadratic degenerates and the
    # last bounce lands on the anchor itself.
    user = ORIGIN
    anchor = Vec3(10.0, 0.0, 0.0)
    r = solve_lb_range(anchor, user, AngleSet(0.0, 0.0), 10.0)
    assert r == pytest.approx(10.0, rel=1e-12)


def test_solve_lb_range_infeasible():
    anchor = Vec3(100.0, 0.0, 0.0)
    assert solve_lb_range(anchor, ORIGIN, AngleSet(0.0, 0.0), 50.0) is None
    assert solve_lb_range(anchor, ORIGIN, AngleSet(0.0, 0.0), -1.0, slack=0.5) is None
    # within slack of the boundary: grazing solution
    assert solve_lb_range(anchor, ORIGIN, AngleSet(0.0, 0.0), 99.9, slack=0.2) == pytest.approx(99.9)


def test_solve_lb_range_bounds():
    rng = np.random.default_rng(4)
    for _ in range(300):
        anchor = Vec3(*rng.uniform(-50, 50, 3))
        user = Vec3(*rng.uniform(-50, 50, 3))
        aoa = AngleSet(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
        budget = float(rng.uniform(0.0, 200.0))
        r = solve_lb_range(anchor, user, aoa, budget)
        if r is not None:
            assert -1e-9 <= r <= budget + 1e-9
            # the solution satisfies the range equation
            lb = user + unit(aoa) * r
            assert anchor.distance_to(lb) == pytest.approx(budget - r, abs=1e-6)


def unit(a: AngleSet) -> Vec3:
    from isacsim.geometry import unit_vector_from_angles

    return unit_vector_from_angles(a)


# --- predict / weight / resample / estimate ----------------------------------


def test_predict_zero_noise_is_linear():
    cloud = make_cloud([[0.0, 0.0, 0.0, 1.0, 2.0, -1.0], [5.0, 5.0, 5.0, 0.0, 0.0, 0.0]])
    out = predict(cloud, 0.5, (0.0, 0.0), buffer(cloud))
    assert np.allclose(out.states[0, 0], [0.5, 1.0, -0.5, 1.0, 2.0, -1.0], atol=1e-15)
    assert np.allclose(out.states[0, 1], cloud.states[0, 1], atol=1e-15)


def test_predict_validation():
    cloud = make_cloud([[0.0] * 6])
    with pytest.raises(TrackerError):
        predict(cloud, 0.0, (0.1, 0.1), buffer(cloud))
    with pytest.raises(TrackerError):
        predict(cloud, 0.1, (-0.1, 0.1), buffer(cloud))


def test_predict_noise_statistics():
    cloud = make_cloud(np.zeros((20000, 6)))
    out = predict(cloud, 1.0, (0.5, 0.1), buffer(cloud))
    assert out.states[0, :, 0].std() == pytest.approx(0.5, rel=0.05)
    assert out.states[0, :, 3].std() == pytest.approx(0.1, rel=0.05)


def test_weight_prefers_consistent_particle():
    truth = Vec3(10.0, 20.0, 5.0)
    states = np.zeros((3, 6))
    states[0, :3] = (10.0, 20.0, 5.0)
    states[1, :3] = (12.0, 18.0, 5.0)
    states[2, :3] = (40.0, -10.0, 0.0)
    cloud = make_cloud(states)
    a = angles_from_displacement(truth - ORIGIN)
    z = one_slice(
        ORIGIN,
        [truth.norm() / C, a.azimuth, a.elevation],
        [5e-9, math.radians(1.0), math.radians(1.0)],
    )
    out = weight(cloud, z)
    assert out.weights[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(out.weights[0]) == 0
    assert not out.diverged[0]


def test_weight_wraps_angle_residual():
    # particle just across the azimuth seam from the measurement must
    # still score as a small residual
    states = np.zeros((2, 6))
    states[0, :3] = (-10.0, -1e-6, 0.0)   # azimuth ~ -pi
    states[1, :3] = (10.0, 10.0, 0.0)
    cloud = make_cloud(states)
    z = one_slice(
        ORIGIN,
        [10.0 / C, math.pi - 1e-7, 0.0],  # azimuth ~ +pi
        [5e-9, math.radians(1.0), math.radians(1.0)],
    )
    out = weight(cloud, z)
    assert np.argmax(out.weights[0]) == 0


def test_weight_divergence_latches():
    cloud = make_cloud([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    z = one_slice(
        ORIGIN,
        [1e160, 0.0, 0.0],  # absurd range: all likelihoods underflow
        [1e-12, 1e-6, 1e-6],
    )
    out = weight(cloud, z)
    assert out.diverged[0]
    assert np.allclose(out.weights, 0.5)
    # flag stays set across a subsequent healthy update
    ok = one_slice(
        ORIGIN,
        [1.0 / C, 0.0, 0.0],
        [5e-9, 0.02, 0.02],
    )
    again = weight(out, ok)
    assert again.diverged[0]


def test_resample_invariants():
    states = np.arange(30.0).reshape(5, 6)
    cloud = make_cloud(states, weights=[0.05, 0.05, 0.8, 0.05, 0.05])
    out = resample_all(cloud)
    assert out.size == cloud.size
    assert np.allclose(out.weights, 1.0 / 5)
    in_rows = {tuple(r) for r in cloud.states[0]}
    assert all(tuple(r) in in_rows for r in out.states[0])
    # the dominant particle is copied several times
    copies = sum(1 for r in out.states[0] if tuple(r) == tuple(states[2]))
    assert copies >= 3


def test_estimate_argmax_first_on_ties():
    states = np.zeros((3, 6))
    states[1, 0] = 7.0
    states[2, 0] = 9.0
    cloud = make_cloud(states, weights=[0.4, 0.4, 0.2])
    est = estimate(cloud)[0]
    assert Vec3(*est[:3]) == Vec3(0.0, 0.0, 0.0)


def test_measurement_slice_validation():
    with pytest.raises(TrackerError):
        one_slice(ORIGIN, np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(TrackerError):
        Slices(np.zeros((1, 3)), np.zeros((1, 2)), np.ones((1, 3)), np.ones(1, dtype=bool))
    # a slice without a delay scores its two angles alone
    states = np.zeros((3, 6))
    states[:, :3] = [(10.0, 0.0, 0.0), (20.0, 1.0, 0.0), (5.0, -1.0, 1.0)]
    angles_only = [
        weight(make_cloud(states), one_slice(ORIGIN, [delay, 0.05, 0.0], [5e-9, 0.1, 0.1], has_delay=False))
        for delay in (0.0, 1e-3)
    ]
    assert angles_only[0].weights.tolist() == angles_only[1].weights.tolist()


def test_predicted_slice_values_shape():
    states = np.zeros((1, 4, 6))
    states[0, :, 0] = (1.0, 2.0, 3.0, 4.0)
    delay, az, el = predicted_slice_values(states, np.zeros((1, 3)))
    assert delay.shape == az.shape == el.shape == (1, 4)
    assert np.allclose(delay[0], states[0, :, 0] / C)


def test_wrap_residual_matches_np_mod_bit_for_bit():
    # the shipped run puts a few hundred of its 14.8 M residuals below 0 and
    # none at or above 2 pi, so its pinned outputs cannot guard the wrap
    rng = np.random.default_rng(9)
    n = 10**6
    two_pi = 2.0 * math.pi
    measured = rng.uniform(-math.pi, math.pi, n)
    predicted = np.arctan2(rng.normal(size=n), rng.normal(size=n))
    edges = [
        math.pi, -math.pi, 0.0, -0.0, np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0),
        two_pi, np.nextafter(two_pi, 0.0), np.nextafter(two_pi, 7.0), 3.0 * math.pi, two_pi + math.pi,
        -1.0, -1e-300, -5e-324, 5e-324, 7.0,
    ]
    x = np.concatenate([(measured - predicted) + math.pi, rng.uniform(-math.pi, 3.0 * math.pi, n), edges])
    assert (x < 0.0).sum() > 1000 and (x > two_pi).sum() > 1000
    expected = np.mod(x, two_pi) - math.pi
    got = _wrap_residual(x.copy())
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "az, el",
    [
        (np.nextafter(math.pi, 4.0), 0.0),
        (-np.nextafter(math.pi, 4.0), 0.0),
        (0.0, np.nextafter(math.pi / 2.0, 2.0)),
        (0.0, -np.nextafter(math.pi / 2.0, 2.0)),
        (math.nan, 0.0),
        (0.0, math.nan),
        (math.inf, 0.0),
    ],
)
def test_slice_angle_out_of_range_raises(az, el):
    with pytest.raises(TrackerError, match="azimuths must lie in"):
        one_slice(ORIGIN, [1e-7, az, el], [5e-9, 0.02, 0.02])


def test_slice_angles_on_their_bounds_are_scored():
    cloud = make_cloud(np.array([[-10.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 10.0, 0.0, 0.0, 0.0]]))
    for az, el in ((math.pi, 0.0), (-math.pi, 0.0), (0.0, math.pi / 2.0), (0.0, -math.pi / 2.0)):
        out = weight(cloud, one_slice(ORIGIN, [10.0 / C, az, el], [5e-9, 0.02, 0.02]))
        assert np.all(np.isfinite(out.weights)) and not out.diverged[0]


def test_particle_on_its_reference_gets_zero_angles():
    # cloud 0 has a particle exactly on its reference; on cloud 1's the
    # squared offsets underflow, so the distance is 0 there as well
    states = np.zeros((2, 3, 6))
    states[0, :, :3] = [(3.0, -4.0, 1.5), (13.0, -4.0, 1.5), (3.0, 6.0, 11.5)]
    states[1, :, :3] = [(0.0, 1e-170, 1e-170), (5.0, 5.0, 0.0), (0.0, 0.0, -5.0)]
    reference = np.array([[3.0, -4.0, 1.5], [0.0, 0.0, 0.0]])
    rngs = (np.random.default_rng(0), np.random.default_rng(1))
    cloud = Clouds(states, np.full((2, 3), 1.0 / 3.0), rngs, np.zeros(2, dtype=bool))
    z = Slices(reference, np.zeros((2, 3)), np.tile([5e-9, 0.02, 0.02], (2, 1)), np.ones(2, dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delay, az, el = predicted_slice_values(cloud.states, reference)
        out = weight(cloud, z)
    assert delay[:, 0].tolist() == [0.0, 0.0]
    assert az[:, 0].tolist() == [0.0, 0.0] and el[:, 0].tolist() == [0.0, 0.0]
    assert np.all(np.isfinite(out.weights)) and not out.diverged.any()
    assert np.argmax(out.weights, axis=1).tolist() == [0, 0]


def test_config_validation():
    with pytest.raises(TrackerError):
        TrackerConfig(n_particles=0).validate()
    with pytest.raises(TrackerError):
        TrackerConfig(meas_delay_std=0.0).validate()
    with pytest.raises(TrackerError):
        TrackerConfig(ts=-0.1).validate()
    with pytest.raises(TrackerError):
        TrackerConfig(gate_sigma=0.0).validate()


# --- initialization -----------------------------------------------------------


def static_scene(**kw):
    cfg = SceneConfig(speed_min=0.0, speed_max=0.0, **kw)
    return generate_scene(cfg)


def exact_cfg(n=50):
    return TrackerConfig(n_particles=n, init_pos_std=0.0, init_vel_std=0.0)


def test_initialize_exact_at_zero_noise():
    scene = static_scene()
    frame0 = observe(
        scene, 0.0, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [0.0])[0], echoes(scene, [0.0])[0]
    )
    user0 = scene.user_position(0.0), scene.config.user_velocity
    state = initialize(frame0, scene.bs_position, *user0, exact_cfg(), seed=1)
    assert not state.failed_paths
    for path_id, fb_id, lb_id, _ in frame0.comm_paths.ids.tolist():
        fb_truth = scene.scatterer(fb_id).position_at(0.0)
        lb_truth = scene.scatterer(lb_id).position_at(0.0)
        assert est_pos(state, (KIND_FB, path_id), 0).distance_to(fb_truth) < 1e-6
        assert est_pos(state, (KIND_LB, path_id), 0).distance_to(lb_truth) < 1e-6
    assert est_pos(state, USER_KEY, 0).distance_to(scene.user_position(0.0)) < 1e-12


def test_initialize_cloud_bookkeeping():
    scene = static_scene()
    frame0 = observe(
        scene, 0.0, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [0.0])[0], echoes(scene, [0.0])[0]
    )
    user0 = scene.user_position(0.0), scene.config.user_velocity
    state = initialize(frame0, scene.bs_position, *user0, exact_cfg(), seed=1)
    keys = state.keys
    assert keys[0] == USER_KEY
    n_paths = len(frame0.comm_paths)
    assert len(keys) == 1 + 2 * n_paths
    assert [k for k in keys if k[0] == KIND_FB] == sorted(
        (KIND_FB, i) for i in frame0.comm_paths.path_id.tolist()
    )
    for path_id, fb_id, lb_id, _ in frame0.comm_paths.ids.tolist():
        assert state.entity_ids[state.row[(KIND_FB, path_id)]] == fb_id
        assert state.entity_ids[state.row[(KIND_LB, path_id)]] == lb_id


def path_columns(rows):
    """PathColumns from (ids, table row) pairs."""
    ids, table = zip(*rows) if rows else ((), ())
    return PathColumns(
        np.array(ids, dtype=int).reshape(-1, 4), np.array(table, dtype=float).reshape(-1, 6),
        np.zeros((len(rows), 2), dtype=bool),
    )


def hand_frame(t, obs_list, detections, los=None):
    ids, table = zip(*detections) if detections else ((), ())
    echoes = EchoColumns(
        np.array(ids, dtype=int), np.array(table, dtype=float).reshape(-1, 5), np.zeros(len(ids), dtype=bool)
    )
    return ObservationFrame(t, path_columns(obs_list), echoes, path_columns([] if los is None else [los]))


def hand_obs(path_id, fb, lb, bs, user, fb_id=0, lb_id=1, power=0.5):
    """(ids, table row) of one comm path."""
    delay = (bs.distance_to(fb) + user.distance_to(lb)) / C
    aod, aoa = angles_from_displacement(fb - bs), angles_from_displacement(lb - user)
    return (path_id, fb_id, lb_id, 0), (power, delay, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)


def hand_det(sid, pos, bs):
    """(scatterer id, table row) of one echo."""
    d = bs.distance_to(pos)
    angle = angles_from_displacement(pos - bs)
    return sid, (2.0 * d / C, angle.azimuth, angle.elevation, 0.0, 1e-12)


def los_obs(bs, user):
    aod, aoa = angles_from_displacement(user - bs), angles_from_displacement(bs - user)
    return (LOS_PATH_ID,) * 4, (1.0, bs.distance_to(user) / C, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)


def test_initialize_fb_free_fallback():
    # legs chosen long enough that a single-bounce reading stays feasible
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    fb = Vec3(-30.0, 60.0, 8.0)
    lb = Vec3(20.0, 30.0, 5.0)
    obs = hand_obs(0, fb, lb, bs, user)
    _, _, aod_az, aod_el, aoa_az, aoa_el = obs[1]
    # detection angle twisted far out of the gate
    bogus = (0, (2.0 * bs.distance_to(fb) / C, wrap_angle(aod_az + 0.5), aod_el, 0.0, 1e-12))
    frame = hand_frame(0.0, [obs], [bogus], los_obs(bs, user))
    state = initialize(frame, bs, user, ORIGIN, exact_cfg(), seed=2)
    assert not state.failed_paths
    fb_est = est_pos(state, (KIND_FB, 0), 0)
    lb_est = est_pos(state, (KIND_LB, 0), 0)
    assert fb_est.distance_to(lb_est) < 1e-9  # single-bounce hypothesis
    # the hypothesized scatterer lies on the arrival ray
    along = (lb_est - user).norm()
    ray_point = user + unit(AngleSet(aoa_az, aoa_el)) * along
    assert lb_est.distance_to(ray_point) < 1e-9


def test_angle_gate_rejects_true_echoes_at_the_nominal_rate():
    # echo direction and comm AoD carry independent N(0, s^2) noise around
    # the same first bounce; a 3-sigma gate on their difference must reject
    # each angle with P(|Z| > 3) = 0.27 %, not P(|Z| > 3/sqrt(2)) = 3.4 %
    cfg = TrackerConfig()
    s = cfg.meas_angle_std
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    fb = Vec3(-30.0, 60.0, 8.0)
    _, obs = hand_obs(0, fb, Vec3(20.0, 30.0, 5.0), bs, user)
    _, det = hand_det(0, fb, bs)
    rng = np.random.default_rng(8)
    n = 20000
    for col, angle in enumerate(("azimuth", "elevation")):
        noise = rng.normal(0.0, s, size=(n, 2))
        aod = np.tile(obs[2:4], (n, 1))
        aod[:, col] += noise[:, 0]
        echo = np.tile(det[:3], (n, 1))
        echo[:, 1 + col] += noise[:, 1]
        rejected = int(np.count_nonzero(~_in_gate(aod, np.full(n, obs[1]), echo, cfg)))
        # 0.27 % of 20000 is 54 (binomial std 7); 3.4 % would be 680
        assert 20 <= rejected <= 100, (angle, rejected)


def test_initialize_failure_on_infeasible_budget():
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    fb = Vec3(-30.0, 60.0, 8.0)
    lb = Vec3(20.0, 100.0, 5.0)
    good = hand_obs(0, fb, lb, bs, user)
    # delay far below the sensed first leg: nothing left for the second
    bad = ((1, *good[0][1:]), (good[1][0], bs.distance_to(fb) / C / 4.0, *good[1][2:]))
    det = hand_det(0, fb, bs)
    frame = hand_frame(0.0, [good, bad], [det], los_obs(bs, user))
    state = initialize(frame, bs, user, ORIGIN, exact_cfg(), seed=2)
    assert state.failed_paths == (1,)
    assert (KIND_FB, 0) in state.keys
    assert (KIND_FB, 1) not in state.keys


def test_initialize_deterministic_given_seed():
    scene = static_scene()
    frame0 = observe(
        scene, 0.0, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [0.0])[0], echoes(scene, [0.0])[0]
    )
    user0 = scene.user_position(0.0), scene.config.user_velocity
    cfg = TrackerConfig(n_particles=20)
    a = initialize(frame0, scene.bs_position, *user0, cfg, seed=5)
    b = initialize(frame0, scene.bs_position, *user0, cfg, seed=5)
    assert np.array_equal(a.clouds.states, b.clouds.states)


# --- stepping ------------------------------------------------------------------


def zero_noise_cfg(n=20):
    return TrackerConfig(
        n_particles=n,
        process_pos_std=0.0,
        process_vel_std=0.0,
        init_pos_std=0.0,
        init_vel_std=0.0,
    )


def test_step_requires_matching_time():
    scene = static_scene()
    state = initialize_at_truth(scene, zero_noise_cfg(), seed=1)
    frame = observe(
        scene, 0.3, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [0.3])[0], echoes(scene, [0.3])[0]
    )
    with pytest.raises(TrackerError, match="Ts"):
        step(state, frame)


def test_zero_noise_tracking_is_exact():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    rng = np.random.default_rng(0)
    for k in range(1, 21):
        t = k * cfg.ts
        step(state, observe(scene, t, (0.0, 0.0), rng, ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]))
        assert est_pos(state, USER_KEY).distance_to(scene.user_position(t)) < 1e-6
        for key, sid in zip(state.keys[1:], state.entity_ids[1:]):
            truth = scene.scatterer(sid).position_at(t)
            assert est_pos(state, key).distance_to(truth) < 1e-6
        assert not state.coasted[-1].any() and not state.diverged[-1].any()


def test_coasting_extrapolates_straight_line():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    t = cfg.ts
    full = observe(
        scene, t, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]
    )
    pid = int(full.comm_paths.path_id[0])
    pruned = ObservationFrame(
        full.time,
        full.comm_paths[full.comm_paths.path_id != pid],
        full.sensing_detections,
        full.los,
    )
    step(state, pruned)
    coasted = {key for key, flag in zip(state.keys, state.coasted[-1]) if flag}
    assert (KIND_FB, pid) in coasted and (KIND_LB, pid) in coasted
    # zero process noise: coasted estimate is the exact linear advance,
    # which here still matches the constant-velocity truth
    truth = scene.scatterer(state.entity_ids[state.row[(KIND_FB, pid)]]).position_at(cfg.ts)
    assert est_pos(state, (KIND_FB, pid)).distance_to(truth) < 1e-9


def test_step_updates_counters_and_history():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    assert state.k == 0 and len(state.estimates) == 1
    t = cfg.ts
    step(state, observe(
        scene, t, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]
    ))
    assert state.k == 1 and state.time == pytest.approx(cfg.ts)
    assert len(state.estimates) == 2
    assert len(state.times) == len(state.coasted) == len(state.diverged) == len(state.ess) == 2


def test_initialize_at_truth_exact_at_k0():
    scene = generate_scene(SceneConfig())
    state = initialize_at_truth(scene, zero_noise_cfg(), seed=3)
    for path_id, fb_id, _, _ in ground_truth_paths(scene, [0.0])[0].columns.ids.tolist():
        fb_t = scene.scatterer(fb_id).position_at(0.0)
        assert est_pos(state, (KIND_FB, path_id), 0).distance_to(fb_t) == 0.0


# --- batching, effective sample size, size cap ---------------------------------


def test_batched_step_equals_each_cloud_stepped_alone():
    # every cloud draws from its own stream, so a cloud's predict, weight
    # and resample give the same bits in a batch as on their own
    rng = np.random.default_rng(6)
    e, c = 4, 50
    states = rng.normal(0.0, 30.0, size=(e, c, 6))

    def batch():
        rngs = tuple(np.random.default_rng(seed) for seed in range(e))
        return Clouds(states, np.full((e, c), 1.0 / c), rngs, np.zeros(e, dtype=bool))

    z = Slices(
        rng.normal(0.0, 5.0, size=(e, 3)),
        np.column_stack([rng.uniform(0.0, 2e-7, e), rng.uniform(-3.0, 3.0, e), rng.uniform(-1.5, 1.5, e)]),
        np.tile([5e-9, 0.05, 0.05], (e, 1)),
        np.array([True, False, True, True]),
    )
    start = batch()
    together = resample_all(weight(predict(start, 0.1, (0.3, 0.1), buffer(start)), z))
    clouds = batch()
    for i in range(e):
        alone = clouds.take(np.array([i]))
        z_i = Slices(z.reference[i:i + 1], z.values[i:i + 1], z.sigmas[i:i + 1], z.has_delay[i:i + 1])
        alone = resample_all(weight(predict(alone, 0.1, (0.3, 0.1), buffer(alone)), z_i))
        assert np.array_equal(alone.states[0], together.states[i])


def test_resample_of_some_rows_leaves_the_others_in_place():
    rng = np.random.default_rng(8)
    e, c = 4, 30
    states = rng.normal(0.0, 10.0, size=(e, c, 6))
    weights = rng.dirichlet(np.ones(c), size=e)

    def batch():
        rngs = tuple(np.random.default_rng(seed) for seed in range(e))
        return Clouds(states, weights.copy(), rngs, np.zeros(e, dtype=bool))

    clouds = batch()
    untouched = clouds.rngs[1].bit_generator.state
    out = resample(clouds, np.array([0, 2, 3]), np.empty((6, e, c)))
    assert np.array_equal(out.states[1], states[1]) and np.array_equal(out.weights[1], weights[1])
    assert clouds.rngs[1].bit_generator.state == untouched  # a cloud kept in place draws nothing
    alone = resample_all(batch().take(np.array([0, 2, 3])))
    assert np.array_equal(out.states[[0, 2, 3]], alone.states)
    assert np.array_equal(out.weights[[0, 2, 3]], alone.weights)


def shipped_batch():
    """A 37 x 1000 batch at the truth of the shipped scene, and its next 22 frames."""
    scene = generate_scene(SceneConfig())
    cfg = TrackerConfig()
    state = initialize_at_truth(scene, cfg, seed=1)
    times = [k * cfg.ts for k in range(1, 23)]
    rng = np.random.default_rng(0)
    noise = (scene.config.sigma_delay, scene.config.sigma_angle)
    frames = [observe(scene, t, noise, rng, *truth)
              for t, *truth in zip(times, ground_truth_paths(scene, times), echoes(scene, times))]
    return state, frames


def test_steps_allocate_no_state_buffer():
    # each step once allocated two fresh (6, E, C) buffers, whose churn cost ~420 page faults a step
    state, frames = shipped_batch()
    buffer = 6 * state.clouds.size * 8
    assert state.clouds.size == 37 * 1000
    tracemalloc.start()
    try:
        for frame in frames[:2]:
            step(state, frame)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for frame in frames[2:]:
            step(state, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < buffer


def test_step_alternates_between_two_state_buffers(monkeypatch):
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    state = initialize_at_truth(scene, cfg, seed=1)
    buffers = (state.clouds.states, state.idle)
    outputs = []
    for name in ("predict", "resample"):
        def spy(*args, fn=getattr(tracker_module, name)):
            clouds = fn(*args)
            outputs.append(clouds.states)
            return clouds

        monkeypatch.setattr(tracker_module, name, spy)
    rng = np.random.default_rng(0)
    for k in range(1, 4):
        t = k * cfg.ts
        step(state, observe(scene, t, (0.0, 0.0), rng, ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]))
    assert len(outputs) == 6
    # predict writes into the idle buffer, resample back into the other one
    for i, states in enumerate(outputs):
        assert np.shares_memory(states, buffers[(i + 1) % 2])
        assert not np.shares_memory(states, buffers[i % 2])
    assert np.shares_memory(state.clouds.states, buffers[0]) and np.shares_memory(state.idle, buffers[1])


def test_coasting_clouds_keep_the_predicted_states_and_their_weights(monkeypatch):
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    state = initialize_at_truth(scene, cfg, seed=1)
    e, c = state.clouds.weights.shape
    state.clouds.weights[:] = np.random.default_rng(2).dirichlet(np.ones(c), size=e)
    weights = state.clouds.weights.copy()
    predicted = []

    def spy(*args, fn=tracker_module.predict):
        clouds = fn(*args)
        predicted.append(clouds.states.copy())
        return clouds

    monkeypatch.setattr(tracker_module, "predict", spy)
    t = cfg.ts
    full = observe(
        scene, t, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]
    )
    pid = int(full.comm_paths.path_id[0])
    before = state.clouds.states.copy()
    step(state, ObservationFrame(
        full.time, full.comm_paths[full.comm_paths.path_id != pid], full.sensing_detections, full.los
    ))
    coasted = state.coasted[-1]
    assert coasted.sum() == 2 and not np.array_equal(predicted[0][coasted], before[coasted])
    assert np.array_equal(state.clouds.states[coasted], predicted[0][coasted])
    assert np.array_equal(state.clouds.weights[coasted], weights[coasted])
    assert np.all(state.clouds.weights[~coasted] == 1.0 / c)


def test_effective_sample_size_bounds():
    c = 1000
    assert effective_sample_size(np.full(c, 1.0 / c)) == pytest.approx(c, rel=1e-12)
    one_hot = np.zeros(c)
    one_hot[17] = 1.0
    assert effective_sample_size(one_hot) == 1.0
    rng = np.random.default_rng(3)
    w = rng.exponential(size=(200, c)) ** rng.uniform(0.0, 8.0, size=(200, 1))
    w /= w.sum(axis=1, keepdims=True)
    ess = effective_sample_size(w)
    assert ess.shape == (200,)
    assert np.all((ess >= 1.0) & (ess <= c * (1.0 + 1e-12)))


def test_step_records_ess_of_weighted_clouds_only():
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    state = initialize_at_truth(scene, cfg, seed=1)
    t = cfg.ts
    full = observe(
        scene, t, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]
    )
    pid = int(full.comm_paths.path_id[0])
    pruned = ObservationFrame(
        full.time, full.comm_paths[full.comm_paths.path_id != pid], full.sensing_detections, full.los
    )
    step(state, pruned)
    assert np.isnan(state.ess[0]).all()  # nothing is weighted at k = 0
    ess = state.ess[-1]
    assert np.array_equal(np.isnan(ess), state.coasted[-1])
    assert np.all((ess[~state.coasted[-1]] >= 1.0) & (ess[~state.coasted[-1]] <= 40.0 + 1e-9))


def test_particle_count_capped_before_allocation():
    with pytest.raises(TrackerError, match=f"more than {MAX_PARTICLES}"):
        TrackerConfig(n_particles=MAX_PARTICLES + 1).validate()
    scene = static_scene()
    frame0 = observe(
        scene, 0.0, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [0.0])[0], echoes(scene, [0.0])[0]
    )
    user0 = scene.user_position(0.0), scene.config.user_velocity
    cfg = TrackerConfig(n_particles=MAX_PARTICLES // 4)  # one cloud fits, 1 + 2 * 18 do not
    tracemalloc.start()
    try:
        with pytest.raises(TrackerError, match=f"37 clouds x {MAX_PARTICLES // 4} particles"):
            initialize(frame0, scene.bs_position, *user0, cfg, seed=1)
        with pytest.raises(TrackerError, match="more than"):
            initialize_at_truth(scene, cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one cloud's states alone would take MAX_PARTICLES // 4 * 48 bytes
    assert peak < MAX_PARTICLES // 4 * 48 / 10
