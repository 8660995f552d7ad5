import math

import numpy as np
import pytest

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.scene import (
    SceneConfig,
    SensingError,
    doppler_shift,
    echo_delay,
    echoes,
    generate_scene,
    sensing_gain,
)
from isacsim.sensing import monostatic_cir


def test_echo_delay_law():
    assert echo_delay(1.0) == 2.0 / SPEED_OF_LIGHT
    assert echo_delay(150.0) == pytest.approx(1e-6, rel=1e-3)
    rng = np.random.default_rng(1)
    for d in rng.uniform(0.1, 500.0, 100):
        assert echo_delay(d) == pytest.approx(2.0 * d / SPEED_OF_LIGHT, rel=1e-15)


def test_doppler_law_and_sign():
    lam = 0.0107
    assert doppler_shift(lam, 1.0) == pytest.approx(2.0 / lam, rel=1e-15)
    assert doppler_shift(lam, -1.0) < 0.0  # receding target
    assert doppler_shift(lam, 0.0) == 0.0


def test_gain_law_and_inverse_fourth_power():
    lam = 0.0107
    g = sensing_gain(lam, 5.0, 50.0)
    assert g == pytest.approx(lam**2 * 5.0 / (64.0 * math.pi**3 * 50.0**4), rel=1e-15)
    # doubling the distance divides the gain by 16
    for d in (1.0, 12.5, 300.0):
        assert sensing_gain(lam, 2.0, 2 * d) == pytest.approx(sensing_gain(lam, 2.0, d) / 16.0, rel=1e-12)
    # gain scales linearly in rcs
    assert sensing_gain(lam, 4.0, 10.0) == pytest.approx(2.0 * sensing_gain(lam, 2.0, 10.0), rel=1e-15)


def test_law_input_validation():
    with pytest.raises(SensingError):
        echo_delay(0.0)
    with pytest.raises(SensingError):
        doppler_shift(-1.0, 1.0)
    with pytest.raises(SensingError):
        sensing_gain(0.0107, 0.0, 10.0)
    with pytest.raises(SensingError):
        sensing_gain(0.0107, 1.0, -5.0)


def _scene():
    return generate_scene(SceneConfig())


def test_cir_covers_alive_fb_sorted_by_delay():
    scene = _scene()
    taps = monostatic_cir(echoes(scene, [2.0])[0])
    ids = {s.id for s in [s for s in scene.scatterers if s.role == "fb" and s.alive(2.0)]}
    assert set(taps.scatterer_id.tolist()) == ids
    delays = taps.table[:, 0].tolist()
    assert delays == sorted(delays)


def test_cir_geometry_consistency():
    scene = _scene()
    t = 1.5
    taps = monostatic_cir(echoes(scene, [t])[0])
    for sid, (round_trip_delay, _, _, _, gain) in zip(taps.scatterer_id.tolist(), taps.table.tolist()):
        s = scene.scatterer(sid)
        d = (s.position_at(t) - scene.bs_position).norm()
        assert round_trip_delay == pytest.approx(2.0 * d / SPEED_OF_LIGHT, rel=1e-15)
        assert gain == pytest.approx(
            sensing_gain(scene.config.wavelength, s.rcs, d), rel=1e-12
        )


def test_doppler_matches_closing_speed():
    scene = _scene()
    taps = monostatic_cir(echoes(scene, [0.0])[0])
    lam = scene.config.wavelength
    for sid, doppler in zip(taps.scatterer_id.tolist(), taps.table[:, 3].tolist()):
        s = scene.scatterer(sid)
        disp = s.position_at(0.0) - scene.bs_position
        u = disp * (1.0 / disp.norm())
        assert doppler == pytest.approx(2.0 * (-s.velocity.dot(u)) / lam, rel=1e-12)
