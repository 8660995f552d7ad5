"""Property-based checks of the numerical core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim.geometry import (
    AngleSet,
    Vec3,
    angles_from_displacement,
    unit_vector_from_angles,
    wrap_angle,
)
from isacsim.stats import all_spreads, empirical_cdf, ks_distance
from isacsim.tracker import (
    Clouds,
    Slices,
    estimate,
    resample,
    solve_lb_range,
    weight,
)

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
    u = unit_vector_from_angles(AngleSet(az, el))
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
    out = resample(weighted, np.zeros(1, dtype=np.intp), np.empty((6, 1, n)))
    assert out.size == n
    assert abs(out.weights.sum() - 1.0) <= 1e-12
    in_rows = {tuple(r) for r in states}
    assert all(tuple(r) in in_rows for r in out.states[0])
    # the point estimate is one of the particles
    est = estimate(weighted)[0]
    assert any(np.allclose(est, s) for s in states)


@given(
    st.tuples(finite, finite, finite),
    st.tuples(finite, finite, finite),
    st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
    st.floats(min_value=-1.4, max_value=1.4),
    st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=200)
def test_solve_lb_range_solution_satisfies_equation(anchor_t, user_t, az, el, budget):
    anchor = Vec3(*(x / 1e2 for x in anchor_t))
    user = Vec3(*(x / 1e2 for x in user_t))
    aoa = AngleSet(az, el)
    r = solve_lb_range(anchor, user, aoa, budget)
    if r is None:
        # only allowed when the budget cannot reach the anchor
        assert budget < anchor.distance_to(user)
        return
    assert 0.0 <= r <= budget + 1e-6
    lb = user + unit_vector_from_angles(aoa) * r
    lhs = anchor.distance_to(lb)
    rhs = budget - r
    assert math.isclose(lhs, rhs, rel_tol=1e-6, abs_tol=1e-5)
