import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isacsim.tracker as tracker_module
from isacsim import normals
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import ORIGIN, Vec3, norms, unit_vectors
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
    offsets,
    predict,
    predicted_slice_values,
    resample,
    solve_lb_range,
    step,
    weight,
)
from scalar_truth import angles_from_displacement, distance, initialize_at_truth, position_at, sub, wrap_angle

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


def drawn(clouds):
    """A fresh (6, E, C) buffer of ``clouds``' next N(0, 1) process noise."""
    return filled(clouds.rngs, clouds.weights.shape[1])


def resample_all(clouds):
    """Every cloud resampled in place, each with an offset from its own stream; returns ``clouds``."""
    rows = np.arange(clouds.weights.shape[0])
    resample(clouds, rows, offsets(clouds, rows))
    return clouds


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


def along(az, el):
    """The (1, 3) unit direction of one azimuth and elevation, a one-row ``unit_vectors``."""
    return unit_vectors(np.array([[az, el]]))


def point(v: Vec3) -> np.ndarray:
    return np.array(v.as_tuple())


def test_solve_lb_range_worked_example():
    # BS at origin, user at (10,0,0), first bounce at (0,5,0); a total
    # remaining budget of 15 m along the +y arrival ray puts the last
    # bounce 5 m from the user, at (10,5,0).
    bs, user = np.array([0.0, 5.0, 0.0]), np.array([10.0, 0.0, 0.0])
    r = solve_lb_range(bs, user, along(math.pi / 2, 0.0), np.array([15.0]))
    assert r[0] == pytest.approx(5.0, abs=1e-12)


def test_solve_lb_range_single_bounce_closure():
    # anchor = BS, budget = both legs of a single-bounce path: the solve
    # returns exactly the scatterer range from the user.
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    s = Vec3(-30.0, 80.0, 12.0)
    total = distance(bs, s) + distance(user, s)
    aoa = angles_from_displacement(sub(s, user))
    r = solve_lb_range(point(bs), point(user), along(aoa.azimuth, aoa.elevation), np.array([total]))
    assert r[0] == pytest.approx(distance(user, s), rel=1e-12)


def test_solve_lb_range_collinear():
    # anchor sits on the arrival ray: the quadratic degenerates and the
    # last bounce lands on the anchor itself.
    user = point(ORIGIN)
    anchor = np.array([10.0, 0.0, 0.0])
    r = solve_lb_range(anchor, user, along(0.0, 0.0), np.array([10.0]))
    assert r[0] == pytest.approx(10.0, rel=1e-12)


def test_solve_lb_range_infeasible():
    anchor, user, east = np.array([100.0, 0.0, 0.0]), point(ORIGIN), along(0.0, 0.0)
    assert np.isnan(solve_lb_range(anchor, user, east, np.array([50.0]))[0])
    assert np.isnan(solve_lb_range(anchor, user, east, np.array([-1.0]), slack=0.5)[0])
    # within slack of the boundary: grazing solution
    assert solve_lb_range(anchor, user, east, np.array([99.9]), slack=0.2)[0] == pytest.approx(99.9)


def test_solve_lb_range_bounds():
    # 300 rows in one call, each with its own anchor and user
    rng = np.random.default_rng(4)
    rows = [(rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3), rng.uniform(-math.pi, math.pi),
             rng.uniform(-1.5, 1.5), float(rng.uniform(0.0, 200.0))) for _ in range(300)]
    anchor, user, az, el, budget = (np.array(column) for column in zip(*rows))
    u = unit_vectors(np.column_stack([az, el]))
    r = solve_lb_range(anchor, user, u, budget)
    ok = ~np.isnan(r)
    assert np.all((-1e-9 <= r[ok]) & (r[ok] <= budget[ok] + 1e-9))
    # the solution satisfies the range equation
    lb = user + u * r[:, None]
    assert norms(anchor - lb)[ok] == pytest.approx(budget[ok] - r[ok], abs=1e-6)


# --- predict / weight / resample / estimate ----------------------------------


def test_predict_zero_noise_is_linear():
    cloud = make_cloud([[0.0, 0.0, 0.0, 1.0, 2.0, -1.0], [5.0, 5.0, 5.0, 0.0, 0.0, 0.0]])
    out = predict(cloud, 0.5, (0.0, 0.0), drawn(cloud))
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
    out = predict(cloud, 1.0, (0.5, 0.1), drawn(cloud))
    assert out.states[0, :, 0].std() == pytest.approx(0.5, rel=0.05)
    assert out.states[0, :, 3].std() == pytest.approx(0.1, rel=0.05)


def parent_predict(states, draws, ts, stds):
    """``predict`` as a per-coordinate loop over (E, C, 6) states and (E, C, 6) N(0, 1) draws,
    the form it had before it worked in three-plane blocks."""
    out = np.concatenate([draws[..., :3] * stds[0], draws[..., 3:] * stds[1]], axis=-1)
    out += 0.0
    advance = np.empty(states.shape[:2])
    for j in range(3):
        np.multiply(states[..., 3 + j], ts, out=advance)
        advance += out[..., j]
        np.add(states[..., j], advance, out=out[..., j])
        out[..., 3 + j] += states[..., 3 + j]
    return out


SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)


@st.composite
def predictions(draw):
    """(E, C, 6) states, (E, C, 6) N(0, 1) draws, ts and the two process noise stds, with signed zeros."""
    e, c = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    states, draws = (np.array(draw(st.lists(SIGNED, min_size=6 * e * c, max_size=6 * e * c))).reshape(e, c, 6)
                       for _ in range(2))
    stds = tuple(draw(st.sampled_from([0.0, 0.1, 2.0])) for _ in range(2))
    return states, draws, draw(st.sampled_from([0.1, 0.5, 1.0])), stds


@settings(max_examples=200, deadline=None)
@given(predictions())
@example((np.full((1, 2, 6), -0.0), np.full((1, 2, 6), -0.0), 0.1, (0.0, 0.0)))
def test_block_predict_matches_the_per_coordinate_loop(case):
    states, draws, ts, stds = case
    e, c, _ = states.shape
    # the input buffer, planes 1-6, and the result buffer, planes 7-12, between two guard planes
    arena = np.full((14, e, c), 7.25)
    arena[1:7], arena[7:13] = states.transpose(2, 0, 1), draws.transpose(2, 0, 1)
    before = arena.copy()
    clouds = Clouds(arena[1:7].transpose(1, 2, 0), np.full((e, c), 1.0 / c), streams(e), np.zeros(e, dtype=bool))
    out = predict(clouds, ts, stds, arena[7:13])
    expected = parent_predict(states, draws, ts, stds)
    assert np.array_equal(out.states.view(np.int64), expected.view(np.int64))
    assert np.shares_memory(out.states, arena[7:13]) and out.weights is clouds.weights
    # the input buffer keeps its positions, and its velocity planes hold the advance v * ts + noise
    advance = states[..., 3:] * ts + (draws[..., :3] * stds[0] + 0.0)
    assert np.array_equal(arena[4:7].view(np.int64), advance.transpose(2, 0, 1).view(np.int64))
    kept = np.r_[0:4, 13]
    assert np.array_equal(arena[kept].view(np.int64), before[kept].view(np.int64))


def streams(n, seed=7):
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n))


def serial_noise(n, c, stds, seed=7):
    """Cloud e's (C, 6) draws, as ``rngs[e].normal(0.0, std, (C, 3))`` for each std in turn."""
    return np.stack([np.concatenate([rng.normal(0.0, s, (c, 3)) for s in stds], axis=1) for rng in streams(n, seed)])


def serial_normals(n, c, seed=7):
    """The (6, n, C) buffer of each cloud's ``rng.standard_normal((2, C, 3))``, laid out as (2, 3, C)."""
    return np.stack([rng.standard_normal((2, c, 3)).transpose(0, 2, 1).reshape(6, c) for rng in streams(n, seed)],
                    axis=1)


def filled(rngs, c):
    """A (6, E, C) buffer filled from ``rngs`` through ``_fill``."""
    out = np.empty((6, len(rngs), c))
    tracker_module._fill(rngs, out).wait()
    return out


@pytest.fixture()
def shared(monkeypatch):
    """Makes every fill start the helper thread, on any machine."""
    monkeypatch.setattr(normals, "_other_cpus", lambda: os.sched_getaffinity(0))
    monkeypatch.setattr(normals, "SHARE_FROM", 2)


def test_other_cpus_leave_out_the_callers_cpu():
    cpus = os.sched_getaffinity(0)
    others = normals._other_cpus()
    assert others <= cpus and len(others) == (len(cpus) - 1 if len(cpus) > 1 else 0)


@pytest.mark.parametrize("n, c, one_cpu", [(37, 200, False), (1, 200, False), (37, 200, True), (19, 250, False)])
def test_noise_draws_each_clouds_stream_bits(monkeypatch, n, c, one_cpu):
    # 37 x 200 particles are shared: the helper draws from the first stream up and the caller from the
    # last down; one CPU or fewer than SHARE_FROM particles (1 x 200, 19 x 250) leave the caller drawing alone
    shares = n * c >= normals.SHARE_FROM and not one_cpu and len(os.sched_getaffinity(0)) > 1
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if not shares:
        monkeypatch.setattr(normals, "_helper", None)
    got = tracker_module._scale(filled(streams(n), c), (2.0, 0.5))
    assert got.view(np.int64).tolist() == serial_noise(n, c, (2.0, 0.5)).view(np.int64).tolist()
    assert (normals._helper is not None) == shares
    if shares:  # pinned away from the caller's CPU
        assert len(os.sched_getaffinity(normals._helper.thread.native_id)) == len(os.sched_getaffinity(0)) - 1


def test_fill_claims_each_stream_once_under_a_short_switch_interval(shared):
    # the helper and the caller pop one deque from its two ends; a stream claimed twice or never
    # would leave its columns redrawn or unfilled
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in (1, 7, 50):
            assert within(30, lambda: np.array_equal(filled(streams(37), c), serial_normals(37, c)))
    finally:
        sys.setswitchinterval(interval)


def test_noise_drops_the_buffer(shared):
    out = np.empty((6, 37, 50))
    ref = weakref.ref(out)
    tracker_module._fill(streams(37), out).wait()
    del out
    assert ref() is None


class BrokenStream:
    """A stream that raises, noting the thread that drew from it."""

    def __init__(self):
        self.drawn = threading.Event()

    def standard_normal(self, out):
        self.thread = threading.current_thread().name
        self.drawn.set()
        raise RuntimeError("broken stream")


def within(seconds, fn):
    """What ``fn()`` returns or raises, run on a daemon thread that must end within ``seconds``."""
    result = []

    def run():
        try:
            result.append(fn())
        except Exception as exc:
            result.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "deadlocked"
    return result[0]


def test_noise_raises_the_helpers_error_and_goes_on(shared):
    # the helper claims the one stream before the caller waits, and its error is raised in the caller
    broken = BrokenStream()
    job = tracker_module._fill((broken,), np.empty((6, 1, 50)))
    assert broken.drawn.wait(30) and broken.thread == "isacsim-noise"
    error = within(30, job.wait)
    assert isinstance(error, RuntimeError) and str(error) == "broken stream"
    assert np.array_equal(within(30, lambda: filled(streams(2), 50)), serial_normals(2, 50))
    assert not normals._helper_lock.locked()


def draw_in_child(parent_helper):
    assert np.array_equal(filled(streams(37), 50), serial_normals(37, 50))
    assert normals._helper is not None and normals._helper is not parent_helper


def test_forked_child_draws_with_its_own_helper(shared):
    filled(streams(2), 50)
    child = multiprocessing.get_context("fork").Process(target=draw_in_child, args=(normals._helper,))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_weight_prefers_consistent_particle():
    truth = Vec3(10.0, 20.0, 5.0)
    states = np.zeros((3, 6))
    states[0, :3] = (10.0, 20.0, 5.0)
    states[1, :3] = (12.0, 18.0, 5.0)
    states[2, :3] = (40.0, -10.0, 0.0)
    cloud = make_cloud(states)
    a = angles_from_displacement(sub(truth, ORIGIN))
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
    in_rows = {tuple(r) for r in cloud.states[0]}
    out = resample_all(cloud)
    assert out.size == 5
    assert np.allclose(out.weights, 1.0 / 5)
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


def parent_slice_values(states, reference):
    """``predicted_slice_values`` as it was before it returned one block: (E, C) delay, azimuth and elevation."""
    dx, dy, dz = (states[..., j] - reference[:, j, None] for j in range(3))
    az = np.arctan2(dy, dx)
    d = np.square(dx, out=dx)
    d += np.square(dy, out=dy)
    d += np.square(dz, out=dy)
    np.sqrt(d, out=d)
    on = d == 0.0
    el = np.divide(dz, np.maximum(d, np.nextafter(0.0, 1.0), out=dy), out=dz)
    np.arcsin(np.clip(el, -1.0, 1.0, out=el), out=el)
    az[on] = 0.0
    el[on] = 0.0
    return np.divide(d, C, out=d), az, el


def parent_weight(clouds, z):
    """``weight``'s per-plane formula, as it was before it took one residual block: (weights, diverged)."""
    residuals = parent_slice_values(clouds.states, z.reference)
    v, s = z.values[:, :, None], z.sigmas[:, :, None]
    for j, r in enumerate(residuals):
        np.subtract(v[:, j], r, out=r)
    residuals[0][~z.has_delay] = 0.0
    for r in residuals[1:]:
        r[...] = np.mod(r + np.pi, 2.0 * np.pi) - np.pi  # what _wrap_residual computes bit for bit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, r in enumerate(residuals):
            np.square(np.divide(r, s[:, j], out=r), out=r)
        log_w = residuals[0]
        log_w += residuals[1]
        log_w += residuals[2]
        log_w *= -0.5
        peak = np.max(log_w, axis=1, keepdims=True)
        log_w -= peak
        w = np.exp(log_w, out=log_w)
        total = np.sum(w, axis=1, keepdims=True)
        w /= total
    ok = np.isfinite(peak[:, 0]) & (total[:, 0] > 0.0) & np.isfinite(total[:, 0])
    w[~ok] = 1.0 / w.shape[1]
    return w, clouds.diverged | ~ok


# a particle's offset from its cloud's reference: on it, along an axis with signed zeros beside it
# (azimuths of +-pi and +-0, elevations of +-pi/2), too close for its square to stay normal, or anywhere
OFFSETS = st.sampled_from([(0.0, 0.0, 0.0), (-3.0, 0.0, 0.0), (-3.0, -0.0, 0.0), (4.0, 0.0, -0.0),
                           (4.0, -0.0, 0.0), (0.0, -0.0, 5.0), (-0.0, 0.0, -5.0), (1e-170, 0.0, -1e-170)]) \
    | st.tuples(*[st.floats(-100.0, 100.0)] * 3)
AZIMUTHS = st.sampled_from([math.pi, -math.pi, 0.0, -0.0]) | st.floats(-math.pi, math.pi)
ELEVATIONS = st.sampled_from([math.pi / 2.0, -math.pi / 2.0, 0.0, -0.0]) | st.floats(-math.pi / 2.0, math.pi / 2.0)


@st.composite
def weighings(draw):
    """(E, C, 6) states, (E, 3) references, values and sigmas, and E delay and divergence flags."""
    e, c = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    # a reference of signed zeros keeps each offset exact; another puts "on it" at x - x
    reference = np.array([draw(st.sampled_from([(0.0, 0.0, 0.0), (0.0, -0.0, 0.0)])
                               | st.tuples(*[st.floats(-50.0, 50.0)] * 3)) for _ in range(e)])
    states = np.zeros((e, c, 6))
    for i in range(e):
        exact = not reference[i].any()
        for j in range(c):
            offset = np.array(draw(OFFSETS))
            states[i, j, :3] = offset if exact else (reference[i] if not offset.any() else reference[i] + offset)
    states[..., 3:] = draw(st.floats(-1.0, 1.0))
    values = np.array([(draw(st.sampled_from([0.0, 1e-8]) | st.floats(0.0, 1e-6)), draw(AZIMUTHS), draw(ELEVATIONS))
                       for _ in range(e)])
    # sigmas of 1e-300 square every nonzero residual to inf, so whole clouds underflow
    sigmas = np.array([(draw(st.sampled_from([1e-300, 5e-9, 1.0])), *[draw(st.sampled_from([1e-300, 0.02, 10.0]))] * 2)
                       for _ in range(e)])
    has_delay = np.array(draw(st.lists(st.booleans(), min_size=e, max_size=e)))
    diverged = np.array(draw(st.lists(st.booleans(), min_size=e, max_size=e)))
    return states, reference, values, sigmas, has_delay, diverged


EDGES = (
    # cloud 0: a particle on its reference, azimuth residuals of pi, 2 pi and 0 (wrapped from 2 pi,
    # 3 pi and pi) and elevation residuals of -0.0; cloud 1: no delay, and every particle off by far
    # more than 1e-300 sigmas, so it underflows
    np.array([[[0.0, 0.0, 0.0, 0, 0, 0], [-3.0, -0.0, 0.0, 0, 0, 0], [4.0, 0.0, 0.0, 0, 0, 0], [-3.0, 0.0, 0.0, 0, 0, 0]],
              [[1.0, 2.0, 3.0, 0, 0, 0], [-1.0, 2.0, 3.0, 0, 0, 0], [1.0, -2.0, 3.0, 0, 0, 0], [9.0, 9.0, 9.0, 0, 0, 0]]]),
    np.zeros((2, 3)),
    np.array([[1e-8, math.pi, -0.0], [1e-8, 0.5, 0.5]]),
    np.array([[5e-9, 0.02, 0.02], [5e-9, 1e-300, 1e-300]]),
    np.array([True, False]),
    np.array([False, False]),
)


def assert_weighs_as_parent(case):
    states, reference, values, sigmas, has_delay, diverged = case
    clouds = Clouds(states, np.full(states.shape[:2], 1.0 / states.shape[1]), streams(len(states)), diverged)
    z = Slices(reference, values, sigmas, has_delay)
    block = predicted_slice_values(clouds.states, reference)
    assert np.array_equal(block.view(np.int64), np.stack(parent_slice_values(clouds.states, reference)).view(np.int64))
    out = weight(clouds, z)
    w, flags = parent_weight(clouds, z)
    assert np.array_equal(out.weights.view(np.int64), w.view(np.int64))
    assert out.diverged.tolist() == flags.tolist()
    return out


@settings(max_examples=300, deadline=None)
@given(weighings())
@example(EDGES)
def test_block_weight_matches_the_per_plane_formula(case):
    assert_weighs_as_parent(case)


def test_the_edge_batch_reaches_every_edge():
    # the property test's explicit example: a particle on its reference, azimuth residuals wrapped
    # from 2 pi, 3 pi and pi, elevation residuals of -0.0, a row without delay and a cloud that underflows
    states, reference, values = EDGES[:3]
    _, az, el = parent_slice_values(states, reference)
    assert az[0].tolist() == [0.0, -math.pi, 0.0, math.pi]
    assert (values[0, 1] - az[0] + math.pi).tolist() == [2.0 * math.pi, 3.0 * math.pi, 2.0 * math.pi, math.pi]
    assert np.signbit(values[0, 2] - el[0]).all()
    out = assert_weighs_as_parent(EDGES)
    assert out.diverged.tolist() == [False, True] and out.weights[1].tolist() == [0.25] * 4


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
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
    user0 = scene.user_position(0.0), scene.config.user_velocity
    state = initialize(frame0, scene.bs_position, *user0, exact_cfg(), seed=1)
    assert not state.failed_paths
    for path_id, fb_id, lb_id, _ in frame0.comm_paths.ids.tolist():
        fb_truth = position_at(scene, fb_id, 0.0)
        lb_truth = position_at(scene, lb_id, 0.0)
        assert distance(est_pos(state, (KIND_FB, path_id), 0), fb_truth) < 1e-6
        assert distance(est_pos(state, (KIND_LB, path_id), 0), lb_truth) < 1e-6
    assert distance(est_pos(state, USER_KEY, 0), scene.user_position(0.0)) < 1e-12


def test_initialize_cloud_bookkeeping():
    scene = static_scene()
    frame0 = observe(
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
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
    delay = (distance(bs, fb) + distance(user, lb)) / C
    aod, aoa = angles_from_displacement(sub(fb, bs)), angles_from_displacement(sub(lb, user))
    return (path_id, fb_id, lb_id, 0), (power, delay, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)


def hand_det(sid, pos, bs):
    """(scatterer id, table row) of one echo."""
    d = distance(bs, pos)
    angle = angles_from_displacement(sub(pos, bs))
    return sid, (2.0 * d / C, angle.azimuth, angle.elevation, 0.0, 1e-12)


def los_obs(bs, user):
    aod, aoa = angles_from_displacement(sub(user, bs)), angles_from_displacement(sub(bs, user))
    return (LOS_PATH_ID,) * 4, (1.0, distance(bs, user) / C, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)


def test_initialize_fb_free_fallback():
    # legs chosen long enough that a single-bounce reading stays feasible
    bs = Vec3(0.0, 0.0, 10.0)
    user = Vec3(0.0, 120.0, 1.2)
    fb = Vec3(-30.0, 60.0, 8.0)
    lb = Vec3(20.0, 30.0, 5.0)
    obs = hand_obs(0, fb, lb, bs, user)
    _, _, aod_az, aod_el, aoa_az, aoa_el = obs[1]
    # detection angle twisted far out of the gate
    bogus = (0, (2.0 * distance(bs, fb) / C, wrap_angle(aod_az + 0.5), aod_el, 0.0, 1e-12))
    frame = hand_frame(0.0, [obs], [bogus], los_obs(bs, user))
    state = initialize(frame, bs, user, ORIGIN, exact_cfg(), seed=2)
    assert not state.failed_paths
    fb_est = est_pos(state, (KIND_FB, 0), 0)
    lb_est = est_pos(state, (KIND_LB, 0), 0)
    assert distance(fb_est, lb_est) < 1e-9  # single-bounce hypothesis
    # the hypothesized scatterer lies on the arrival ray
    reach = sub(lb_est, user).norm()
    ray_point = user + Vec3(*along(aoa_az, aoa_el)[0].tolist()) * reach
    assert distance(lb_est, ray_point) < 1e-9


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
    bad = ((1, *good[0][1:]), (good[1][0], distance(bs, fb) / C / 4.0, *good[1][2:]))
    det = hand_det(0, fb, bs)
    frame = hand_frame(0.0, [good, bad], [det], los_obs(bs, user))
    state = initialize(frame, bs, user, ORIGIN, exact_cfg(), seed=2)
    assert state.failed_paths == (1,)
    assert (KIND_FB, 0) in state.keys
    assert (KIND_FB, 1) not in state.keys


def test_initialize_deterministic_given_seed():
    scene = static_scene()
    frame0 = observe(
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
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
        scene, [0.3], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.3]), *echoes(scene, [0.3])
    ).frame(0)
    with pytest.raises(TrackerError, match="Ts"):
        step(state, frame)


def test_zero_noise_tracking_is_exact():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    rng = np.random.default_rng(0)
    for k in range(1, 21):
        t = k * cfg.ts
        step(state, observe(scene, [t], (0.0, 0.0), rng, *ground_truth_paths(scene, [t]), *echoes(scene, [t])).frame(0))
        assert distance(est_pos(state, USER_KEY), scene.user_position(t)) < 1e-6
        for key, sid in zip(state.keys[1:], state.entity_ids[1:]):
            truth = position_at(scene, sid, t)
            assert distance(est_pos(state, key), truth) < 1e-6
        assert not state.coasted[-1].any() and not state.diverged[-1].any()


def test_coasting_extrapolates_straight_line():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    t = cfg.ts
    full = observe(
        scene, [t], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [t]), *echoes(scene, [t])
    ).frame(0)
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
    truth = position_at(scene, state.entity_ids[state.row[(KIND_FB, pid)]], cfg.ts)
    assert distance(est_pos(state, (KIND_FB, pid)), truth) < 1e-9


def test_step_updates_counters_and_history():
    scene = static_scene()
    cfg = zero_noise_cfg()
    state = initialize_at_truth(scene, cfg, seed=1)
    assert state.k == 0 and len(state.estimates) == 1
    t = cfg.ts
    step(state, observe(
        scene, [t], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [t]), *echoes(scene, [t])
    ).frame(0))
    assert state.k == 1 and state.time == pytest.approx(cfg.ts)
    assert len(state.estimates) == 2
    assert len(state.times) == len(state.coasted) == len(state.diverged) == len(state.ess) == 2


def noisy_frames(scene, ts, n):
    """Observation frames k = 1..n of ``scene`` with its measurement noise."""
    times = [k * ts for k in range(1, n + 1)]
    noise = (scene.config.sigma_delay, scene.config.sigma_angle)
    rng = np.random.default_rng(0)
    observations = observe(scene, times, noise, rng, *ground_truth_paths(scene, times), *echoes(scene, times))
    return [observations.frame(k) for k in range(n)]


def test_retirement_keeps_the_survivors_bits(monkeypatch):
    # the clouds of a path missing from k = 3 on retire after k = 4; every other cloud
    # steps on as in a batch that keeps them, bit for bit
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    frames = noisy_frames(scene, cfg.ts, 7)
    pid = int(frames[0].comm_paths.path_id[0])
    for i, f in enumerate(frames[2:], start=2):
        frames[i] = ObservationFrame(f.time, f.comm_paths[f.comm_paths.path_id != pid], f.sensing_detections, f.los)
    kept = initialize_at_truth(scene, cfg, seed=1)
    with monkeypatch.context() as m:
        m.setattr(tracker_module, "RETIRE_AFTER", len(frames) + 1)
        for frame in frames:
            step(kept, frame)
    state = initialize_at_truth(scene, cfg, seed=1)
    for frame in frames:
        step(state, frame)

    gone = [state.row[(KIND_FB, pid)], state.row[(KIND_LB, pid)]]
    assert np.flatnonzero(state.retired_at >= 0).tolist() == gone and state.retired_at[gone].tolist() == [5, 5]
    assert np.all(kept.retired_at == -1)
    live = state.live
    assert live.tolist() == [i for i in range(len(state.keys)) if i not in gone]
    assert np.array_equal(state.clouds.states, kept.clouds.states[live])
    assert np.array_equal(state.clouds.weights, kept.clouds.weights[live])
    assert np.array_equal(state.clouds.diverged, kept.clouds.diverged[live])
    assert [r.bit_generator.state for r in state.clouds.rngs] == [
        kept.clouds.rngs[i].bit_generator.state for i in live.tolist()]
    # the retired clouds are recorded through their second missed frame, k = 4, and no further
    for k, members in enumerate(state.members):
        assert set(gone) <= set(members.tolist()) if k <= 4 else not set(gone) & set(members.tolist())
        for name in ("estimates", "coasted", "diverged", "ess"):
            assert np.array_equal(getattr(state, name)[k], getattr(kept, name)[k][members], equal_nan=True), name
    coasted = state.spread(state.coasted, False)
    assert coasted[:, gone].sum(axis=0).tolist() == [2, 2]


def test_user_cloud_never_retires():
    scene = static_scene()
    cfg = TrackerConfig(n_particles=20)
    state = initialize_at_truth(scene, cfg, seed=1)
    for f in noisy_frames(scene, cfg.ts, 4):
        step(state, ObservationFrame(f.time, f.comm_paths, f.sensing_detections, f.los[:0]))
    assert np.all(state.retired_at == -1) and state.live.size == len(state.keys)
    assert all(coasted[state.row[USER_KEY]] for coasted in state.coasted[1:])


def test_initialize_at_truth_exact_at_k0():
    scene = generate_scene(SceneConfig())
    state = initialize_at_truth(scene, zero_noise_cfg(), seed=3)
    for path_id, fb_id, _, _ in ground_truth_paths(scene, [0.0])[0].columns.ids.tolist():
        fb_t = position_at(scene, fb_id, 0.0)
        assert distance(est_pos(state, (KIND_FB, path_id), 0), fb_t) == 0.0


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
    together = resample_all(weight(predict(start, 0.1, (0.3, 0.1), drawn(start)), z))
    clouds = batch()
    for i in range(e):
        alone = clouds.take(np.array([i]))
        z_i = Slices(z.reference[i:i + 1], z.values[i:i + 1], z.sigmas[i:i + 1], z.has_delay[i:i + 1])
        alone = resample_all(weight(predict(alone, 0.1, (0.3, 0.1), drawn(alone)), z_i))
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
    rows = np.array([0, 2, 3])
    resample(clouds, rows, offsets(clouds, rows))
    out = clouds
    assert np.array_equal(out.states[1], states[1]) and np.array_equal(out.weights[1], weights[1])
    assert clouds.rngs[1].bit_generator.state == untouched  # a cloud kept in place draws nothing
    alone = resample_all(batch().take(np.array([0, 2, 3])))
    assert np.array_equal(out.states[[0, 2, 3]], alone.states)
    assert np.array_equal(out.weights[[0, 2, 3]], alone.weights)


def searched_rows(states, weights, rows, draws):
    """The per-row reference: each row at ``rows`` resampled with its own searchsorted."""
    out = states.copy()
    c = weights.shape[1]
    for r, u in zip(rows, draws):
        cumulative = np.cumsum(weights[r])
        cumulative[-1] = max(cumulative[-1], 1.0)
        positions = (u + np.arange(c)) / c
        out[r] = states[r][np.minimum(np.searchsorted(cumulative, positions, side="right"), c - 1)]
    return out


def running_sums(c, u):
    """Running sums a batched search can miscount: on the positions (u + j) / C, one
    float either side of them, and ending just below and just above 1."""
    positions = (u + np.arange(c)) / c
    even = np.arange(1, c) / c
    return [np.abs(positions), np.abs(np.nextafter(positions, -1.0)), np.nextafter(positions, 2.0),
            np.append(even, np.nextafter(1.0, 0.0)), np.append(even, np.nextafter(1.0, 2.0))]


def awkward_weights(c, u, rng):
    """Rows of weights for one cloud size and draw: one-hot, uniform, leading zeros,
    summing to 2, random, and with the running sums above."""
    one_hot = np.eye(c)[[0, c // 2, c - 1]]
    leading_zeros = np.where(np.arange(c) < c // 2, 0.0, 1.0 / (c - c // 2))
    peaked = rng.exponential(size=c) ** 8
    rows = [*one_hot, np.full(c, 1.0 / c), leading_zeros, np.full(c, 2.0 / c), rng.dirichlet(np.ones(c)),
            peaked / peaked.sum()]
    return np.array(rows + [np.diff(t, prepend=0.0) for t in running_sums(c, u)])


@pytest.mark.parametrize("c", [1, 2, 3, 1000])
@pytest.mark.parametrize("pick", ["all", "some"])
def test_resample_equals_the_per_row_search_bit_for_bit(c, pick):
    rng = np.random.default_rng(c)
    u_values = [rng.random(), 0.0, 0.5, np.nextafter(1.0, 0.0)]
    weights = np.vstack([awkward_weights(c, u, rng) for u in u_values])
    per_u = len(weights) // len(u_values)
    draws = np.repeat(u_values, per_u)
    e = len(weights)
    # particle ids in x, so equal states mean equal indices
    states = np.zeros((e, c, 6))
    states[..., 0] = np.arange(e * c).reshape(e, c)
    states[..., 1:] = rng.normal(size=(e, c, 5))
    rows = np.arange(e) if pick == "all" else np.flatnonzero(rng.random(e) < 0.5)
    out = Clouds(states, weights.copy(), streams(e), np.zeros(e, dtype=bool))
    resample(out, rows, draws[rows])
    assert np.array_equal(out.states, searched_rows(states, weights, rows, draws[rows]))
    kept = np.ones(e, dtype=bool)
    kept[rows] = False
    assert np.array_equal(out.weights[kept], weights[kept]) and np.all(out.weights[rows] == 1.0 / c)


@pytest.mark.parametrize("seed", range(40))
def test_resample_in_place_equals_the_per_row_search_on_random_batches(seed):
    # 1-7 clouds of 1-1000 particles, any subset of rows, and one-hot, all-zero, near-1 and random weights
    rng = np.random.default_rng(seed)
    e, c = int(rng.integers(1, 8)), int(rng.integers(1, 1001))
    weights = rng.dirichlet(np.ones(c), size=e) ** rng.uniform(0.0, 6.0, size=(e, 1))
    for r in range(e):
        kind = rng.integers(4)
        if kind == 0:
            weights[r] = np.eye(c)[rng.integers(c)]
        elif kind == 1:
            weights[r] = 0.0
        elif kind == 2:
            weights[r] = rng.uniform(0.0, 1e-12, c)
            weights[r, rng.integers(c)] = np.nextafter(1.0, 0.0)
    states = np.zeros((e, c, 6))
    states[..., 0] = np.arange(e * c).reshape(e, c)  # particle ids in x, so equal states mean equal indices
    states[..., 1:] = rng.normal(size=(e, c, 5))
    rows = np.flatnonzero(rng.random(e) < rng.uniform(0.2, 1.0))
    u = rng.random(rows.size)
    u[rng.random(rows.size) < 0.2] = 0.0
    clouds = Clouds(states, weights.copy(), streams(e), np.zeros(e, dtype=bool))
    before = [r.bit_generator.state for r in clouds.rngs]
    resample(clouds, rows, u)
    assert np.array_equal(clouds.states, searched_rows(states, weights, rows, u))
    kept = np.ones(e, dtype=bool)
    kept[rows] = False
    assert np.array_equal(clouds.weights[kept], weights[kept]) and np.all(clouds.weights[rows] == 1.0 / c)
    assert [r.bit_generator.state for r in clouds.rngs] == before  # resampling draws nothing


def test_awkward_weights_put_running_sums_where_intended():
    # the exactness cases above really place running sums on positions and around 1
    for c in (1, 2, 3, 1000):
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0), 0.3183098861837907):
            on, _, _, below, above = (np.cumsum(np.diff(t, prepend=0.0)) for t in running_sums(c, u))
            assert np.mean(on == (u + np.arange(c)) / c) >= 0.5
            assert below[-1] < 1.0 < above[-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_resample_rejects_non_finite_or_negative_weights_before_drawing(bad):
    rng = np.random.default_rng(4)
    e, c = 3, 20
    weights = rng.dirichlet(np.ones(c), size=e)
    weights[1, 7] = bad
    clouds = Clouds(rng.normal(size=(e, c, 6)), weights.copy(), tuple(np.random.default_rng(i) for i in range(e)),
                    np.zeros(e, dtype=bool))
    states = clouds.states.copy()
    before = [r.bit_generator.state for r in clouds.rngs]
    with pytest.raises(TrackerError, match="finite and nonnegative"):
        resample(clouds, np.arange(e), rng.random(e))
    assert [r.bit_generator.state for r in clouds.rngs] == before  # nothing was drawn
    # and nothing was changed in place
    assert np.array_equal(clouds.states, states) and np.array_equal(clouds.weights, weights, equal_nan=True)
    # a cloud that is not resampled keeps whatever weights it has
    resample(clouds, np.array([0, 2]), rng.random(2))
    assert np.array_equal(clouds.weights[1], weights[1], equal_nan=True)


def shipped_batch():
    """A 37 x 1000 batch at the truth of the shipped scene, and its next 22 frames."""
    scene = generate_scene(SceneConfig())
    cfg = TrackerConfig()
    state = initialize_at_truth(scene, cfg, seed=1)
    times = [k * cfg.ts for k in range(1, 23)]
    rng = np.random.default_rng(0)
    noise = (scene.config.sigma_delay, scene.config.sigma_angle)
    observations = observe(scene, times, noise, rng, *ground_truth_paths(scene, times), *echoes(scene, times))
    return state, [observations.frame(k) for k in range(len(times))]


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


def test_resample_keeps_its_search_in_the_state_buffer():
    # resampling every cloud in place takes its running sums in the weights being reset, and its
    # guesses, bin counts and gathered planes in one (E, C) scratch array beside the index array;
    # a third (E, C) array, or a buffered np.take, would add one more to the peak
    state, _ = shipped_batch()
    clouds = state.clouds
    e, c = clouds.weights.shape
    assert (e, c) == (37, 1000)
    rng = np.random.default_rng(5)
    rows = np.arange(e)
    clouds.weights[:] = rng.dirichlet(np.ones(c), size=e)
    resample(clouds, rows, rng.random(e))
    clouds.weights[:] = rng.dirichlet(np.ones(c), size=e)
    u = rng.random(e)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        resample(clouds, rows, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2.5 * e * c * 8


def test_step_alternates_between_two_state_buffers(monkeypatch):
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    state = initialize_at_truth(scene, cfg, seed=1)
    buffers = (state.clouds.states, state.pending)
    assert not np.shares_memory(*buffers)
    seen = []
    for name in ("predict", "resample"):
        def spy(*args, name=name, fn=getattr(tracker_module, name)):
            result = fn(*args)
            seen.append((name, (result if name == "predict" else args[0]).states, state.pending))
            return result

        monkeypatch.setattr(tracker_module, name, spy)
    rng = np.random.default_rng(0)
    for k in range(1, 4):
        t = k * cfg.ts
        step(state, observe(scene, [t], (0.0, 0.0), rng, *ground_truth_paths(scene, [t]), *echoes(scene, [t])).frame(0))
    assert [name for name, _, _ in seen] == ["predict", "resample"] * 3
    # predict advances the pending draws in place and resample gathers there, while the next
    # step's draws go into the buffer the states left; no third buffer is ever made
    for i in range(3):
        here, there = buffers[(i + 1) % 2], buffers[i % 2]
        (_, predicted, _), (_, resampled, pending) = seen[2 * i: 2 * i + 2]
        assert np.shares_memory(predicted, here) and not np.shares_memory(predicted, there)
        assert np.shares_memory(resampled, here) and not np.shares_memory(resampled, there)
        assert np.shares_memory(pending, there) and not np.shares_memory(pending, here)
    assert np.shares_memory(state.clouds.states, buffers[1]) and np.shares_memory(state.pending, buffers[0])


def owner(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_stepped_tracker_drops_both_state_buffers(shared):
    # the helper drops its job, and every local that held the pending buffer, before it signals
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    state = initialize_at_truth(scene, cfg, seed=1)
    for frame in noisy_frames(scene, cfg.ts, 3):
        step(state, frame)
    refs = [weakref.ref(owner(state.clouds.states)), weakref.ref(owner(state.pending))]
    assert refs[0]() is not refs[1]()
    del state
    assert [ref() for ref in refs] == [None, None]


def stepped_digest(scene, cfg, frames, seed=1):
    """sha256 of the states, pending draws and rng states of a tracker stepped through ``frames``."""
    import hashlib

    state = initialize_at_truth(scene, cfg, seed=seed)
    for frame in frames:
        step(state, frame)
    digest = hashlib.sha256(state.clouds.states.tobytes() + state.pending.tobytes())
    digest.update(repr([r.bit_generator.state for r in state.clouds.rngs]).encode())
    return digest.hexdigest()


def digest_in_child(scene, cfg, frames, want):
    assert stepped_digest(scene, cfg, frames) == want


class GatedStream:
    """A stream whose normals are drawn once ``gate`` is set, so a thread that claims it stays in its job."""

    def __init__(self, rng, gate):
        self.rng, self.gate = rng, gate

    def standard_normal(self, out):
        assert self.gate.wait(30), "the gate was never opened"
        return self.rng.standard_normal(out=out)

    def random(self):
        return self.rng.random()


def test_step_that_raises_leaves_no_draw_in_flight(shared, monkeypatch):
    # the helper claims the batch's first stream, whose draw waits until weight raises, so a
    # helper done with its 40-particle job before weight is called cannot hide the job in flight
    scene = static_scene()
    cfg = TrackerConfig(n_particles=40)
    frames = noisy_frames(scene, cfg.ts, 3)
    solo = within(30, lambda: stepped_digest(scene, cfg, frames))
    in_flight, gate = [], threading.Event()

    def broken(*args):
        in_flight.append(normals._helper_lock.locked() and normals._helper.job is not None)
        gate.set()
        raise RuntimeError("broken weight")

    state = initialize_at_truth(scene, cfg, seed=2)
    rngs = state.clouds.rngs
    state.clouds = dataclasses.replace(state.clouds, rngs=(GatedStream(rngs[0], gate),) + rngs[1:])
    with monkeypatch.context() as m:
        m.setattr(tracker_module, "weight", broken)
        error = within(30, lambda: step(state, frames[0]))
    assert isinstance(error, RuntimeError) and str(error) == "broken weight"
    assert in_flight == [True]  # the helper had the next step's draws when weight raised
    assert not normals._helper_lock.locked() and normals._helper.job is None
    assert within(30, lambda: stepped_digest(scene, cfg, frames)) == solo
    child = multiprocessing.get_context("fork").Process(target=digest_in_child, args=(scene, cfg, frames, solo))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


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
        scene, [t], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [t]), *echoes(scene, [t])
    ).frame(0)
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
        scene, [t], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [t]), *echoes(scene, [t])
    ).frame(0)
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
        scene, [0.0], (0.0, 0.0), np.random.default_rng(0), *ground_truth_paths(scene, [0.0]), *echoes(scene, [0.0])
    ).frame(0)
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
