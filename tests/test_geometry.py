import math

import numpy as np
import pytest

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import (
    ORIGIN,
    AngleSet,
    GeometryError,
    Vec3,
    angles_from_displacement,
    normalize_angle_columns,
    path_term_columns,
    path_terms,
    unit_vector_from_angles,
    wrap_angle,
    wrap_angles,
)
from isacsim.scene import SceneConfig, echoes, generate_scene, ground_truth_paths, observe


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


def test_path_terms_matches_noiseless_observation():
    scene = generate_scene(SceneConfig())
    t = 2.0
    paths = observe(
        scene, t, (0.0, 0.0), np.random.default_rng(0), ground_truth_paths(scene, [t])[0], echoes(scene, [t])[0]
    ).comm_paths
    user = scene.user_position(t)
    for (path_id, fb_id, lb_id, _), (_, obs_delay, aod_az, _, _, aoa_el) in zip(
        paths.ids.tolist(), paths.table.tolist()
    ):
        fb = scene.scatterer(fb_id).position_at(t)
        lb = scene.scatterer(lb_id).position_at(t)
        leg, aod, aoa = path_terms(scene.bs_position, user, fb, lb)
        delay = leg / SPEED_OF_LIGHT + scene.paths[path_id].virtual_delay
        assert delay == pytest.approx(obs_delay, abs=1e-15)
        assert aod.azimuth == pytest.approx(aod_az, abs=1e-12)
        assert aoa.elevation == pytest.approx(aoa_el, abs=1e-12)


def test_path_terms_rejects_zero_leg():
    at_bs = ORIGIN
    with pytest.raises(GeometryError):
        path_terms(ORIGIN, Vec3(10.0, 0.0, 0.0), at_bs, at_bs)


def test_wrap_angles_equals_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(21)
    edges = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, -2 * math.pi,
             np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, -4.0), 1e300, -1e300, 5e-324]
    theta = np.concatenate([edges, rng.uniform(-4.0, 4.0, 5000), rng.normal(0.0, 1e3, 5000)])
    want = [wrap_angle(x) for x in theta.tolist()]
    got = wrap_angles(theta).tolist()
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
    assert got == want


def test_normalize_angle_columns_equals_angleset_bit_for_bit():
    # two (azimuth, elevation) pairs per row, each normalized as AngleSet normalizes it
    rng = np.random.default_rng(23)
    angles = rng.uniform(-10.0, 10.0, (500, 4))
    angles[:, 1::2] = rng.uniform(-3.0, 3.0, (500, 2))
    angles[0] = [math.pi, math.pi / 2, -math.pi, -math.pi / 2]
    want = [[a.azimuth, a.elevation, b.azimuth, b.elevation]
            for a, b in ((AngleSet(*row[:2]), AngleSet(*row[2:])) for row in angles.tolist())]
    got = normalize_angle_columns(angles)
    assert got is angles  # normalized in place
    assert got.tolist() == want


def test_path_term_columns_equal_the_scalar_formulas_bit_for_bit():
    # scalar reference: Vec3 norms and angles_from_displacement, path by path
    rng = np.random.default_rng(22)
    n = 2000
    bs, user = np.array([0.0, 0.0, 10.0]), rng.uniform(-50.0, 50.0, (n, 3))
    fb, lb = rng.uniform(-80.0, 80.0, (n, 3)), rng.uniform(-80.0, 80.0, (n, 3))
    fb[:3, :2] = bs[:2]  # straight above or below the BS: degenerate AoD
    fb[3] = (-5.0, -0.0, 10.0)  # atan2 gives -pi, wrapped to pi
    lb[4, :2] = user[4, :2]
    leg, angles, degenerate = path_term_columns(bs, user, fb, lb)
    for i in range(n):
        to_fb, to_lb = Vec3(*(fb[i] - bs)), Vec3(*(lb[i] - user[i]))
        aod, aoa = angles_from_displacement(to_fb), angles_from_displacement(to_lb)
        assert leg[i] == to_fb.norm() + to_lb.norm()
        assert angles[i].tolist() == [aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation]
        assert degenerate[i].tolist() == [aod.degenerate, aoa.degenerate]
    assert degenerate[:3, 0].all() and degenerate[4, 1] and angles[3, 0] == math.pi
