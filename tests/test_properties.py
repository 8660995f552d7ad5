"""Property-based checks of the numerical core."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import Vec3, norms, unit_vectors
from isacsim.scene import (
    LOS_PATH_ID,
    ConfigError,
    EchoColumns,
    ObservationFrame,
    PathColumns,
    SceneConfig,
    echoes,
    generate_scene,
    ground_truth_paths,
    observe,
)
from isacsim.stats import all_spreads, empirical_cdf, ks_distance
from isacsim.tracker import (
    KIND_FB,
    KIND_LB,
    USER_KEY,
    Clouds,
    Slices,
    TrackerConfig,
    _in_gate,
    _lookup,
    estimate,
    initialize,
    offsets,
    resample,
    solve_lb_range,
    weight,
)
from scalar_truth import AngleSet, angles_from_displacement, dense_path_ends, distance, sub, wrap_angle

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
angle = st.floats(allow_nan=False, allow_infinity=False, min_value=-50.0, max_value=50.0)


@given(angle)
def test_wrap_angle_range_and_idempotence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w


@given(angle, angle)
def test_wrap_angle_preserves_rotation(theta, delta):
    # wrapped difference of wrapped angles matches the raw difference mod 2 pi
    d1 = wrap_angle(wrap_angle(theta + delta) - wrap_angle(theta))
    d2 = wrap_angle(delta)
    assert math.isclose(d1, d2, abs_tol=1e-9) or math.isclose(
        abs(d1 - d2), 2 * math.pi, abs_tol=1e-9
    )


@given(
    st.floats(min_value=-math.pi + 1e-9, max_value=math.pi, allow_nan=False),
    st.floats(min_value=-math.pi / 2 + 1e-6, max_value=math.pi / 2 - 1e-6, allow_nan=False),
)
def test_angle_vector_round_trip(az, el):
    a = AngleSet(az, el)
    u = Vec3(*unit_vectors(np.array([[a.azimuth, a.elevation]]))[0].tolist())
    assert math.isclose(u.norm(), 1.0, abs_tol=1e-12)
    back = angles_from_displacement(u)
    assert math.isclose(back.elevation, el, abs_tol=1e-9)
    # azimuth is meaningless at the poles; compare via wrapped difference
    assert abs(wrap_angle(back.azimuth - az)) < 1e-9 / max(math.cos(el), 1e-12)


@given(st.lists(finite, min_size=1, max_size=40))
def test_empirical_cdf_monotone_in_unit_range(samples):
    cdf = empirical_cdf(samples)
    fr = np.asarray(cdf.fractions)
    assert np.all(np.diff(np.asarray(cdf.values)) >= 0.0)
    assert np.all(np.diff(fr) >= -1e-15)
    assert 0.0 < fr[0] <= 1.0 and fr[-1] == 1.0
    lo, hi = min(samples), max(samples)
    assert cdf.evaluate(lo - 1.0) == 0.0
    assert cdf.evaluate(hi) == 1.0


@given(
    st.lists(finite, min_size=1, max_size=30),
    st.lists(finite, min_size=1, max_size=30),
)
def test_ks_metric_properties(xs, ys):
    a, b = empirical_cdf(xs), empirical_cdf(ys)
    d = ks_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert math.isclose(d, ks_distance(b, a), abs_tol=1e-15)
    assert ks_distance(a, a) == 0.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1e3),
            st.floats(min_value=0.0, max_value=1e-5),
        ),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_delay_spread_power_scale_invariance(paths, scale):
    rows = [(p, d, 0.0, 0.0, 0.0, 0.0) for p, d in paths]
    scaled = [(p * scale, d, 0.0, 0.0, 0.0, 0.0) for p, d in paths]
    s1 = all_spreads(rows)[0]
    s2 = all_spreads(scaled)[0]
    # abs_tol covers rounding residue (~eps * delay) when all delays coincide
    assert math.isclose(s1, s2, rel_tol=1e-9, abs_tol=1e-15)


def column_spreads(table):
    """The five spreads, one column at a time, as the per-column loop of ``all_spreads`` took them."""
    w = table[:, 0] / float(np.sum(table[:, 0]))
    spreads = []
    for j in range(1, 6):
        values = table[:, j]
        if j in (2, 4):
            center = float(np.arctan2(np.sum(w * np.sin(values)), np.sum(w * np.cos(values))))
            values = np.mod(values - center + np.pi, 2.0 * np.pi) - np.pi
        mean = float(np.sum(w * values))
        spreads.append(float(np.sqrt(np.sum(w * (values - mean) ** 2))))
    return tuple(spreads)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31), st.booleans())
@settings(max_examples=100, deadline=None)
def test_spreads_of_one_pass_equal_the_per_column_sums_bit_for_bit(n, seed, seam):
    # numpy sums each contiguous row pairwise, as it sums one column; from n = 8 the pairwise
    # blocks show, so a sum over a strided axis would differ in the last bits
    rng = np.random.default_rng(seed)
    table = np.column_stack([rng.exponential(size=n), rng.uniform(0.0, 1e-6, n), rng.uniform(-np.pi, np.pi, (n, 4))])
    if seam:  # azimuths straddling +-pi
        table[:, [2, 4]] = np.pi - rng.uniform(-0.1, 0.1, (n, 2))
    got, want = all_spreads(table), column_spreads(table)
    assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_weight_resample_invariants(n, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(0.0, 30.0, size=(n, 6))
    cloud = Clouds(states[None], np.full((1, n), 1.0 / n), (rng,), np.zeros(1, dtype=bool))
    z = Slices(
        np.zeros((1, 3)),
        np.array([[rng.uniform(0.0, 1e-6), rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)]]),
        np.array([[5e-9, 0.02, 0.02]]),
        np.ones(1, dtype=bool),
    )
    weighted = weight(cloud, z)
    assert weighted.size == n
    assert np.all(weighted.weights >= 0.0)
    assert abs(weighted.weights.sum() - 1.0) <= 1e-12
    est = estimate(weighted)[0]
    rows = np.zeros(1, dtype=np.intp)
    resample(weighted, rows, offsets(weighted, rows))  # in place
    out = weighted
    assert out.size == n
    assert abs(out.weights.sum() - 1.0) <= 1e-12
    in_rows = {tuple(r) for r in states}
    assert all(tuple(r) in in_rows for r in out.states[0])
    # the point estimate, taken before resampling, is one of the particles
    assert any(np.allclose(est, s) for s in states)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_multi_cloud_resample_invariants(e, n, seed, sharpness):
    rng = np.random.default_rng(seed)
    states = np.zeros((e, n, 6))
    states[..., 0] = np.arange(e * n).reshape(e, n)  # particle ids
    weights = rng.exponential(size=(e, n)) ** sharpness
    weights[rng.random((e, n)) < 0.3] = 0.0
    weights[:, -1] += 1e-3
    weights /= weights.sum(axis=1, keepdims=True)
    rows = np.flatnonzero(rng.random(e) < 0.6)
    seeds = rng.integers(0, 2**31, size=e)
    batch = Clouds(states, weights.copy(), tuple(map(np.random.default_rng, seeds)), np.zeros(e, dtype=bool))
    resample(batch, rows, offsets(batch, rows))  # in place
    out = batch
    for r in range(e):
        ids = out.states[r, :, 0].astype(int) - r * n
        if r not in rows:
            assert np.array_equal(out.states[r], states[r]) and np.array_equal(out.weights[r], weights[r])
            continue
        assert np.all(out.weights[r] == 1.0 / n)
        # systematic resampling copies particle k about n w_k times, in order
        copies = np.bincount(ids, minlength=n)
        assert np.all(np.abs(copies - n * weights[r]) < 1.0 + 1e-9) and np.all(np.diff(ids) >= 0)
        # and equals the cloud resampled on its own
        alone = Clouds(states[r:r + 1], weights[r:r + 1].copy(), (np.random.default_rng(seeds[r]),),
                       np.zeros(1, dtype=bool))
        resample(alone, np.zeros(1, dtype=np.intp), offsets(alone, np.zeros(1, dtype=np.intp)))
        assert np.array_equal(out.states[r], alone.states[0])


@given(
    st.tuples(finite, finite, finite),
    st.tuples(finite, finite, finite),
    st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
    st.floats(min_value=-1.4, max_value=1.4),
    st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=200)
def test_solve_lb_range_solution_satisfies_equation(anchor_t, user_t, az, el, budget):
    anchor = np.array([x / 1e2 for x in anchor_t])
    user = np.array([x / 1e2 for x in user_t])
    u = unit_vectors(np.array([[az, el]]))  # one row of the column solve
    r = float(solve_lb_range(anchor, user, u, np.array([budget]))[0])
    if math.isnan(r):
        # only allowed when the budget cannot reach the anchor
        assert budget < float(norms(anchor - user))
        return
    assert 0.0 <= r <= budget + 1e-6
    lb = user + u[0] * r
    lhs = float(norms(anchor - lb))
    rhs = budget - r
    assert math.isclose(lhs, rhs, rel_tol=1e-6, abs_tol=1e-5)


def scalar_lb_range(anchor, user_pos, aoa, total_range, slack):
    """The scalar last-bounce range solve, None where it is infeasible."""
    if total_range < -slack:
        return None
    a = max(total_range, 0.0)
    u = scalar_unit_vector(aoa)
    w = sub(anchor, user_pos)
    wn = w.norm()
    if a < wn:
        return a if wn - a <= slack else None
    scale = max(a, wn, 1.0)
    denom = a - w.dot(u)
    if denom <= 1e-9 * scale:
        return wn
    r = (a * a - wn * wn) / (2.0 * denom)
    return min(max(r, 0.0), a)


def scalar_unit_vector(a):
    cos_el = math.cos(a.elevation)
    return Vec3(cos_el * math.cos(a.azimuth), cos_el * math.sin(a.azimuth), math.sin(a.elevation))


def initialize_per_path(frame0, bs_pos, user_pos, user_vel, cfg):
    """The clouds' start by the per-path construction, one path at a time on ``Vec3`` and ``AngleSet``:
    the keys, the entity ids, the (E, 6) start rows and the failed path ids."""
    slack = cfg.gate_sigma * SPEED_OF_LIGHT * cfg.meas_delay_std
    paths, echoes = frame0.comm_paths, frame0.sensing_detections
    echo = _lookup(echoes.scatterer_id, paths.fb_id)
    gated = echo >= 0
    gated[gated] = _in_gate(paths.table[gated, 2:4], paths.delay[gated], echoes.table[echo[gated], :3], cfg)
    fbs, lbs, failed = [], [], []
    still = Vec3(0.0, 0.0, 0.0)
    for i in np.argsort(paths.path_id, kind="stable").tolist():
        path_id, fb_id, lb_id = paths.ids[i, :3].tolist()
        delay, aoa = float(paths.delay[i]), AngleSet(*paths.table[i, 4:6].tolist())
        if gated[i]:
            round_trip, *angle = echoes.table[echo[i], :3].tolist()
            d_fb = SPEED_OF_LIGHT * round_trip / 2.0
            fb_point = bs_pos + scalar_unit_vector(AngleSet(*angle)) * d_fb
            remaining = SPEED_OF_LIGHT * delay - d_fb
            if remaining < -slack:
                failed.append(path_id)
                continue
            lb_point = user_pos + scalar_unit_vector(aoa) * max(remaining, 0.0)
        else:
            r = scalar_lb_range(bs_pos, user_pos, aoa, SPEED_OF_LIGHT * delay, slack)
            if r is None:
                failed.append(path_id)
                continue
            fb_point = lb_point = user_pos + scalar_unit_vector(aoa) * r
        fbs.append(((KIND_FB, path_id), fb_id, fb_point, still))
        lbs.append(((KIND_LB, path_id), lb_id, lb_point, still))
    entities = [(USER_KEY, LOS_PATH_ID, user_pos, user_vel)] + fbs + lbs
    rows = [pos.as_tuple() + vel.as_tuple() for _, _, pos, vel in entities]
    return tuple(key for key, *_ in entities), tuple(i for _, i, _, _ in entities), rows, tuple(failed)


INIT_CFG = TrackerConfig(n_particles=2, init_pos_std=0.0, init_vel_std=0.0)
INIT_SLACK = INIT_CFG.gate_sigma * SPEED_OF_LIGHT * INIT_CFG.meas_delay_std  # meters
INIT_GATE = math.sqrt(2.0) * INIT_CFG.gate_sigma * INIT_CFG.meas_angle_std  # radians


def frame_of(paths, echo_rows, time=0.0):
    """A frame of (path id, FB id, LB id, delay, AoD, AoA) paths and (scatterer id, round trip, azimuth,
    elevation) echoes."""
    ids = np.array([(p, fb, lb, 0) for p, fb, lb, *_ in paths], dtype=int).reshape(-1, 4)
    table = np.array([(0.5, delay, *aod, *aoa) for *_, delay, aod, aoa in paths], dtype=float).reshape(-1, 6)
    echo_ids = np.array([sid for sid, *_ in echo_rows], dtype=int)
    echo_table = np.array([(*row, 0.0, 1e-12) for _, *row in echo_rows], dtype=float).reshape(-1, 5)
    los = PathColumns(np.empty((0, 4), dtype=int), np.empty((0, 6)), np.empty((0, 2), dtype=bool))
    return ObservationFrame(time, PathColumns(ids, table, np.zeros((len(ids), 2), dtype=bool)),
                            EchoColumns(echo_ids, echo_table, np.zeros(len(echo_ids), dtype=bool)), los)


def normalized(az, el):
    """An angle pair as the observations carry it: azimuth wrapped, elevation clamped."""
    return wrap_angle(az), min(max(el, -math.pi / 2), math.pi / 2)


coordinate = st.floats(min_value=-300.0, max_value=300.0)
direction = st.tuples(st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
                      st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))


@st.composite
def first_frames(draw):
    """A BS, a user and its velocity, and a frame of 0-6 paths. Each path's echo is near its AoD (in
    or just out of the angle gate), twisted out of it, or missing, so its clouds take the fallback;
    two paths may share an FB scatterer and so an echo. Each budget is feasible, infeasible, or at
    the slack boundary: an echo's range gate and the infeasible range test compare the same margin
    in seconds and in meters, so a delay a few ulps from it can pass the one and fail the other."""
    bs, user, vel = (Vec3(*draw(st.tuples(coordinate, coordinate, coordinate))) for _ in range(3))
    path_ids = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=6, unique=True))
    paths, echo_rows = [], []
    for path_id in path_ids:
        fb_id, lb_id = draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=9))
        aod, aoa = draw(direction), draw(direction)
        d_fb = draw(st.floats(min_value=1.0, max_value=500.0))
        round_trip = 2.0 * d_fb / SPEED_OF_LIGHT
        echo = draw(st.sampled_from(["near", "twisted", "missing"]))
        if echo != "missing":
            offset = draw(st.tuples(*[st.floats(min_value=-1.2 * INIT_GATE, max_value=1.2 * INIT_GATE)] * 2))
            offset = (offset[0] + 0.5, offset[1]) if echo == "twisted" else offset
            echo_rows.append((fb_id, round_trip, *normalized(aod[0] + offset[0], aod[1] + offset[1])))
        budget = draw(st.sampled_from(["margin", "boundary"]))
        if budget == "boundary":
            # the range gate's own margin, then a few ulps either way
            delay = round_trip / 2.0 - INIT_CFG.gate_sigma * INIT_CFG.meas_delay_std
            for _ in range(draw(st.integers(min_value=0, max_value=4))):
                delay = np.nextafter(delay, draw(st.sampled_from([-1.0, 1.0])))
        else:
            # the margin over the sensed first leg, or over the direct path for the fallback
            reach = d_fb if echo == "near" else distance(bs, user)
            excess = draw(st.one_of(st.floats(min_value=-3.0 * INIT_SLACK, max_value=3.0 * INIT_SLACK),
                                    st.sampled_from([-INIT_SLACK, 0.0, INIT_SLACK]),
                                    st.floats(min_value=-600.0, max_value=600.0)))
            delay = (reach + excess) / SPEED_OF_LIGHT
        paths.append((path_id, fb_id, lb_id, float(delay), aod, aoa))
    return frame_of(paths, echo_rows, draw(st.floats(min_value=0.0, max_value=20.0))), bs, user, vel


BS, USER = Vec3(0.0, 0.0, 10.0), Vec3(0.0, 120.0, 1.2)


@given(first_frames(), st.integers(min_value=0, max_value=2**31))
# the empty frame, and a frame whose every path fails: its budget falls short of the direct path
@example((frame_of([], []), BS, USER, Vec3(1.0, 0.0, 0.0)), 3)
@example((frame_of([(k, 0, 1, 50.0 / SPEED_OF_LIGHT, (0.1 * k, 0.0), (0.5, 0.1)) for k in range(3)], []),
          BS, USER, Vec3(1.0, 0.0, 0.0)), 3)
# both slack boundaries hit exactly: path 0's echo is in the gate and its delay leaves -slack after
# the 10 m first leg; path 1 has no echo and its 2 m budget is slack short of the direct path
@example((frame_of([(0, 0, 2, 1.8356409519815206e-08, (0.3, 0.1), (2.0, -0.2)),
                    (1, 1, 1, 6.671281903963041e-09, (-1.0, 0.0), (0.5, 0.0))],
                   [(0, 6.671281903963041e-08, 0.3, 0.1)]),
          Vec3(0.0, 0.0, 0.0), Vec3(6.49688687, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)), 3)
@settings(max_examples=300, deadline=None)
def test_initialize_equals_the_per_path_construction_bit_for_bit(case, seed):
    frame, bs, user, vel = case
    keys, entity_ids, rows, failed = initialize_per_path(frame, bs, user, vel, INIT_CFG)
    state = initialize(frame, bs, user, vel, INIT_CFG, seed)
    assert state.keys == keys
    assert state.entity_ids == entity_ids
    assert state.failed_paths == failed
    # with zero initial spread each particle is its start row plus a zero draw, which turns -0.0 into 0.0
    want = np.broadcast_to(0.0 + np.array(rows).reshape(-1, 1, 6), state.clouds.states.shape)
    assert np.ascontiguousarray(state.clouds.states).tobytes() == np.ascontiguousarray(want).tobytes()


def observe_frame(scene, t, noise, rng, paths, detections):
    """One frame observed by the per-frame formula: its own standard-normal draw, the LoS from
    the scalar geometry, and each noisy angle pair normalized, or rejected, by ``AngleSet``.
    Returns the comm ids, table and degenerate flags (the LoS last) and the echo ids, table and flags."""
    sigma_delay, sigma_angle = noise
    scene.check_time(t)
    bs, user = scene.bs_position, scene.user_position(t)
    aod, aoa = angles_from_displacement(sub(user, bs)), angles_from_displacement(sub(bs, user))
    leg = sub(user, bs).norm() + sub(bs, user).norm()
    n, m = len(paths.columns) + 1, len(detections)
    z = rng.standard_normal(5 * n + 3 * m).tolist()
    scales = [sigma_delay] + [sigma_angle] * 4
    los = [1.0, leg / 2.0 / SPEED_OF_LIGHT, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation]
    table = []
    for k, (power, delay, *angles) in enumerate(paths.columns.table.tolist() + [los]):
        dz = [0.0 + s * v for s, v in zip(scales, z[5 * k:5 * k + 5])]
        noisy = [AngleSet(angles[0] + dz[1], angles[1] + dz[2]), AngleSet(angles[2] + dz[3], angles[3] + dz[4])]
        table.append([power, delay + dz[0], *(value for a in noisy for value in (a.azimuth, a.elevation))])
    echo = []
    for k, (delay, az, el, doppler, gain) in enumerate(detections.table.tolist()):
        dz = [0.0 + s * v for s, v in zip(scales, z[5 * n + 3 * k:5 * n + 3 * k + 3])]
        direction = AngleSet(az + dz[1], el + dz[2])
        echo.append([delay + dz[0], direction.azimuth, direction.elevation, doppler, gain])
    for row in echo:
        if not row[0] > 0.0:
            raise ConfigError(f"round-trip delay must be positive, got {row[0]}")
    ids = paths.columns.ids.tolist() + [[LOS_PATH_ID] * 4]
    degenerate = paths.columns.degenerate.tolist() + [[aod.degenerate, aoa.degenerate]]
    return ids, table, degenerate, detections.scatterer_id.tolist(), echo, detections.degenerate.tolist()


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1e-6),
    # zero noise, the shipped noise, and noise that makes negative delays or infinite angles
    st.sampled_from([(0.0, 0.0), (5e-9, math.radians(1.0)), (5e-9, 0.01), (3e-7, 0.01), (0.0, 1e308), (3e-7, 1e308)]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=79)),  # frame whose user is at the BS
    st.one_of(st.none(), st.integers(min_value=0, max_value=79)),  # frame at a time past the scene's end
)
# a LoS fault first; and a negative delay before a time past the end, before the user at the BS,
# and before an infinite angle
@example(7, 1, 1, 0, 10, 0.0, 0.0, (0.0, 1e308), None, None)
@example(6, 2, 1, 1, 12, 0.0, 0.0, (3e-7, 0.01), None, 9)
@example(6, 2, 1, 1, 12, 0.0, 0.0, (3e-7, 0.01), 9, None)
@example(6, 2, 1, 1, 12, 0.0, 0.0, (3e-7, 1e308), None, None)
@settings(max_examples=100, deadline=None)
def test_run_observe_equals_the_per_frame_formula_bit_for_bit(seed, clusters, fbs, lbs, n_frames, rate, vd_max,
                                                              noise, at_bs, late):
    times = [k * 0.1 for k in range(n_frames)]
    # the user moves along +y at 1 m/s, so it passes the BS at times[at_bs] exactly
    start = Vec3(0.0, -times[at_bs] if at_bs is not None and at_bs < n_frames else 1.0, 10.0)
    scene = generate_scene(SceneConfig(
        n_clusters=clusters, fb_per_cluster=fbs, lb_per_cluster=lbs, birth_death_rate=rate, virtual_delay_max=vd_max,
        seed=seed, duration=n_frames * 0.1, user_start=start, bs_position=Vec3(0.0, 0.0, 10.0),
        user_velocity=Vec3(0.0, 1.0, 0.0),
    ))
    (paths, path_offsets), (detections, echo_offsets) = ground_truth_paths(scene, times), echoes(scene, times)
    p, e = path_offsets.tolist(), echo_offsets.tolist()
    if late is not None and late < n_frames:
        times[late] = scene.duration + 1.0

    rng_want = np.random.default_rng(seed)
    want, error = [], None
    try:
        for k, t in enumerate(times):
            want.append(observe_frame(scene, t, noise, rng_want, paths[p[k]:p[k + 1]], detections[e[k]:e[k + 1]]))
    except ValueError as e:
        error = e
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # sigma_angle * z overflows to an infinite angle
        if error is not None:
            with pytest.raises(type(error)) as raised:
                observe(scene, times, noise, rng, paths, path_offsets, detections, echo_offsets)
            assert str(raised.value) == str(error)
            return
        got = observe(scene, times, noise, rng, paths, path_offsets, detections, echo_offsets)
    assert len(got.times) == n_frames
    assert len(got.comm_paths) == len(paths.columns) and len(got.los) == n_frames
    assert len(got.sensing_detections) == len(detections)
    for k, (t, (ids, table, degenerate, echo_ids, echo, echo_degenerate)) in enumerate(zip(times, want)):
        frame = got.frame(k)
        assert frame.time == t
        assert np.vstack([frame.comm_paths.ids, frame.los.ids]).tolist() == ids
        assert np.vstack([frame.comm_paths.table, frame.los.table]).tolist() == table
        assert np.vstack([frame.comm_paths.degenerate, frame.los.degenerate]).tolist() == degenerate
        assert frame.sensing_detections.scatterer_id.tolist() == echo_ids
        assert frame.sensing_detections.table.tolist() == echo
        assert frame.sensing_detections.degenerate.tolist() == echo_degenerate
        for part, whole in ((frame.comm_paths, got.comm_paths), (frame.los, got.los)):
            assert np.shares_memory(part.table, whole.table) or not len(part)
        assert np.shares_memory(frame.sensing_detections.table, got.sensing_detections.table) or not echo
    # both drew the same values from the stream
    assert rng.standard_normal() == rng_want.standard_normal()


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.0, 0.05, 0.5, 5.0, 20.0]),
    st.floats(min_value=0.1, max_value=10.0),  # at most 4 x 7 slots x 201 lifetimes, under the scatterer cap
)
@example(3, 3, 2, 2, 5.0, 2.0)  # the pinned high-churn scene's counts
@settings(max_examples=150, deadline=None)
def test_scene_paths_equal_the_dense_overlap_mask(seed, clusters, fbs, lbs, rate, duration):
    # churning slots overlap an FB in ranges of LB ids, counted before any pair is made
    scene = generate_scene(SceneConfig(n_clusters=clusters, fb_per_cluster=fbs, lb_per_cluster=lbs,
                                       birth_death_rate=rate, seed=seed, duration=duration))
    ends = dense_path_ends(scene)
    assert np.array_equal(scene.paths[:, 1:3], ends)
    assert np.array_equal(scene.paths[:, 0], np.arange(len(ends)))
    assert np.array_equal(scene.paths[:, 3], scene.cluster_id[ends[:, 0]])
