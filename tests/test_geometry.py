import math

import pytest

from isacsim.geometry import (
    ORIGIN,
    AngleSet,
    GeometryError,
    Vec3,
    angles_from_displacement,
    path_terms,
    unit_vector_from_angles,
    wrap_angle,
)


def test_wrap_angle_basic():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)


def test_wrap_angle_idempotent():
    for theta in (-10.0, -3.2, 0.1, 2.9, 7.0):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w


def test_wrap_angle_nonfinite():
    with pytest.raises(GeometryError):
        wrap_angle(float("nan"))
    with pytest.raises(GeometryError):
        wrap_angle(float("inf"))


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(-1.0, 0.5, 2.0)
    assert a + b == Vec3(0.0, 2.5, 5.0)
    assert a - b == Vec3(2.0, 1.5, 1.0)
    assert a * 2.0 == Vec3(2.0, 4.0, 6.0)
    assert 2.0 * a == a * 2.0
    assert a.dot(b) == 1.0 * -1.0 + 2.0 * 0.5 + 3.0 * 2.0


def test_vec3_norm_distance():
    assert Vec3(3.0, 4.0, 0.0).norm() == 5.0
    assert Vec3(1.0, 1.0, 1.0).distance_to(Vec3(1.0, 1.0, 1.0)) == 0.0
    assert ORIGIN.distance_to(Vec3(0.0, 0.0, 2.0)) == 2.0
    assert Vec3(1.5, -2.0, 0.25).as_tuple() == (1.5, -2.0, 0.25)


def test_vec3_rejects_nonfinite():
    with pytest.raises(GeometryError):
        Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(GeometryError):
        Vec3(0.0, float("inf"), 0.0)


def test_angleset_normalizes_once():
    a = AngleSet(3 * math.pi, 2.0)
    assert a.azimuth == pytest.approx(math.pi)
    assert a.elevation == math.pi / 2  # clamped
    b = AngleSet(0.5, -0.25)
    assert (b.azimuth, b.elevation) == (0.5, -0.25)


def test_angleset_degenerate_excluded_from_equality():
    assert AngleSet(0.0, 1.0, degenerate=True) == AngleSet(0.0, 1.0, degenerate=False)


def test_quadrant_resolution():
    # displacement into the third octant: both atan2 arguments negative
    a = angles_from_displacement(Vec3(-1.0, -1.0, math.sqrt(2.0)))
    assert a.azimuth == pytest.approx(-3 * math.pi / 4, abs=1e-12)
    assert a.elevation == pytest.approx(math.pi / 4, abs=1e-12)


def test_cardinal_directions():
    assert angles_from_displacement(Vec3(1.0, 0.0, 0.0)) == AngleSet(0.0, 0.0)
    east = angles_from_displacement(Vec3(0.0, 2.0, 0.0))
    assert east.azimuth == pytest.approx(math.pi / 2)
    back = angles_from_displacement(Vec3(-3.0, 0.0, 0.0))
    assert back.azimuth == pytest.approx(math.pi)


def test_vertical_is_degenerate_not_error():
    up = angles_from_displacement(Vec3(0.0, 0.0, 5.0))
    assert up.degenerate
    assert up.elevation == math.pi / 2
    assert up.azimuth == 0.0
    down = angles_from_displacement(Vec3(0.0, 0.0, -5.0))
    assert down.degenerate
    assert down.elevation == -math.pi / 2


def test_zero_displacement_raises():
    with pytest.raises(GeometryError):
        angles_from_displacement(ORIGIN)


def test_round_trip_angles_to_vector():
    a = AngleSet(0.7, -0.3)
    u = unit_vector_from_angles(a)
    assert u.norm() == pytest.approx(1.0, abs=1e-15)
    b = angles_from_displacement(u * 42.0)
    assert b.azimuth == pytest.approx(a.azimuth, abs=1e-12)
    assert b.elevation == pytest.approx(a.elevation, abs=1e-12)


def test_round_trip_many_random():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(500):
        v = Vec3(*(rng.uniform(-100, 100, 3)))
        if v.norm() == 0.0:
            continue
        a = angles_from_displacement(v)
        if a.degenerate:
            continue
        u = unit_vector_from_angles(a)
        assert (u * v.norm()).distance_to(v) < 1e-9 * max(1.0, v.norm())


def test_path_distance_excludes_middle_leg():
    tx = ORIGIN
    fb = Vec3(0.0, 3.0, 4.0)  # 5 m from tx
    lb = Vec3(100.0, 0.0, 0.0)
    rx = Vec3(100.0, 6.0, 8.0)  # 10 m from lb
    assert path_terms(tx, rx, fb, lb)[0] == pytest.approx(15.0, abs=1e-12)


def test_path_distance_single_bounce():
    s = Vec3(0.0, 5.0, 0.0)
    assert path_terms(ORIGIN, Vec3(10.0, 0.0, 0.0), s, s)[0] == pytest.approx(
        5.0 + math.sqrt(125.0)
    )
