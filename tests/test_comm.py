import cmath
import math

import numpy as np
import pytest

from isacsim.antenna import half_wavelength_array
from isacsim.comm import (
    ISOTROPIC_VERTICAL,
    KIND_LOS,
    KIND_NLOS,
    CommError,
    CommParams,
    CommTap,
    PolarizationDraw,
    PolarizedPattern,
    comm_cir,
    draw_polarization_set,
    frame_taps,
    los_tap,
    nlos_tap,
    pair_taps,
    polarization_matrix,
    rician_weights,
)
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import ORIGIN, Vec3
from isacsim.scene import LOS_PATH_ID, SceneConfig, generate_scene, ground_truth_paths

F_C = 28e9
LAM = SPEED_OF_LIGHT / F_C


def unit_draw():
    return PolarizationDraw(0.0, 0.0, 0.0, 0.0, kappa=10 ** 0.8, mu=1.0)


def tx_pair():
    tx = half_wavelength_array(1, 2, LAM, ORIGIN)
    rx = half_wavelength_array(1, 2, LAM, Vec3(30.0, 0.0, 0.0))
    return tx, rx


def test_polarization_matrix_los_structure():
    draw = PolarizationDraw(0.3, 0.9, 1.2, 2.0, kappa=4.0, mu=1.0)
    m = polarization_matrix(draw, KIND_LOS)
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert m[0, 0] == pytest.approx(cmath.exp(1j * 0.3))
    assert m[1, 1] == pytest.approx(-cmath.exp(1j * 2.0))  # sign flip on hh


def test_polarization_matrix_nlos_magnitudes():
    draw = PolarizationDraw(0.1, 0.2, 0.3, 0.4, kappa=4.0, mu=2.0)
    m = polarization_matrix(draw, KIND_NLOS)
    assert abs(m[0, 0]) == pytest.approx(1.0)
    assert abs(m[0, 1]) == pytest.approx(math.sqrt(2.0 / 4.0))
    assert abs(m[1, 0]) == pytest.approx(math.sqrt(1.0 / 4.0))
    assert abs(m[1, 1]) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(CommError):
        polarization_matrix(draw, "direct")


def test_draw_set_covers_all_paths_with_phases_in_range():
    scene = generate_scene(SceneConfig())
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    assert set(draws) == {LOS_PATH_ID} | {p.path_id for p in scene.paths}
    for d in draws.values():
        for xi in (d.xi_vv, d.xi_vh, d.xi_hv, d.xi_hh):
            assert 0.0 <= xi < 2.0 * math.pi
        assert d.kappa == pytest.approx(10 ** 0.8)  # 8 dB default


def test_draw_set_deterministic():
    scene = generate_scene(SceneConfig())
    a = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    b = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    assert a == b


def test_los_tap_delay_and_phase():
    tx, rx = tx_pair()
    tap = los_tap(1, 0, tx, rx, F_C, unit_draw())
    dist = tx.element_position(1).distance_to(rx.element_position(0))
    assert tap.delay == pytest.approx(dist / SPEED_OF_LIGHT, rel=1e-15)
    assert abs(tap.amplitude) == pytest.approx(1.0, abs=1e-12)  # isotropic v-pol, unit coupling
    assert cmath.phase(tap.amplitude) == pytest.approx(
        math.remainder(2.0 * math.pi * F_C * tap.delay, 2.0 * math.pi), abs=1e-6
    )
    assert tap.kind == KIND_LOS and tap.path_id == LOS_PATH_ID
    assert (tap.q, tap.p) == (0, 1)


def test_los_tap_per_pair_delays_differ():
    tx, rx = tx_pair()
    t00 = los_tap(0, 0, tx, rx, F_C, unit_draw())
    t10 = los_tap(1, 0, tx, rx, F_C, unit_draw())
    assert t00.delay != t10.delay


def test_los_tap_coincident_rejected():
    tx = half_wavelength_array(1, 2, LAM, ORIGIN)
    with pytest.raises(CommError):
        los_tap(0, 0, tx, tx, F_C, unit_draw())


def test_nlos_tap_two_leg_delay_and_power():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    tap = nlos_tap(0, 1, tx, rx, fb, lb, 7, 0.25, 0.0, F_C, unit_draw())
    want = (
        tx.element_position(0).distance_to(fb) + rx.element_position(1).distance_to(lb)
    ) / SPEED_OF_LIGHT
    assert tap.delay == pytest.approx(want, rel=1e-15)
    assert abs(tap.amplitude) == pytest.approx(math.sqrt(0.25), abs=1e-12)
    assert tap.kind == KIND_NLOS and tap.path_id == 7


def test_nlos_tap_virtual_delay_added():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    base = nlos_tap(0, 0, tx, rx, fb, lb, 1, 1.0, 0.0, F_C, unit_draw())
    shifted = nlos_tap(0, 0, tx, rx, fb, lb, 1, 1.0, 30e-9, F_C, unit_draw())
    assert shifted.delay == pytest.approx(base.delay + 30e-9, rel=1e-12)


def test_patterns_enter_coupling():
    tx, rx = tx_pair()
    half = PolarizedPattern(lambda a: 0.5, lambda a: 0.0)
    tap = los_tap(0, 0, tx, rx, F_C, unit_draw(), tx_pattern=half, rx_pattern=half)
    assert abs(tap.amplitude) == pytest.approx(0.25, abs=1e-12)


def test_combine_rician_weights():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    k = 3.0
    scattered = [(0, fb, lb, 1.0, 0.0, unit_draw())]
    out = pair_taps(tx, rx, [0], [0], F_C, unit_draw(), scattered, rician_weights(k)).taps(0)
    los_power = sum(t.power for t in out if t.kind == KIND_LOS)
    total = sum(t.power for t in out)
    assert los_power / total == pytest.approx(k / (k + 1.0), abs=1e-12)


def test_combine_rician_k_zero_removes_los_power():
    tx, rx = tx_pair()
    out = pair_taps(tx, rx, [0], [0], F_C, unit_draw(), [], rician_weights(0.0)).taps(0)
    assert out[0].power == 0.0


def test_comm_cir_reference_pair():
    scene = generate_scene(SceneConfig())
    tx = half_wavelength_array(32, 4, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(2, 2, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    cir = comm_cir(scene, 0.0, tx, rx, CommParams(), draws, pairs=[(0, 0)])
    assert set(cir) == {(0, 0)}
    taps = cir[(0, 0)]
    kinds = [t.kind for t in taps]
    assert kinds.count(KIND_LOS) == 1
    assert kinds.count(KIND_NLOS) == len(scene.paths)
    delays = [t.delay for t in taps]
    assert delays == sorted(delays)


def test_comm_cir_all_pairs_default():
    scene = generate_scene(SceneConfig(n_clusters=1, fb_per_cluster=1, lb_per_cluster=1))
    tx = half_wavelength_array(2, 2, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(2, 1, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    cir = comm_cir(scene, 0.0, tx, rx, CommParams(), draws)
    assert len(cir) == tx.num_elements * rx.num_elements
    assert (1, 3) in cir


def test_comm_cir_power_split_every_pair():
    scene = generate_scene(SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=1))
    k = 3.0
    params = CommParams(k_factor=k)
    tx = half_wavelength_array(2, 1, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(1, 2, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, params, np.random.default_rng(9))
    cir = comm_cir(scene, 5.0, tx, rx, params, draws)
    for taps in cir.values():
        los_power = sum(t.power for t in taps if t.kind == KIND_LOS)
        nlos_power = sum(t.power for t in taps if t.kind == KIND_NLOS)
        assert los_power / (los_power + nlos_power) == pytest.approx(k / (k + 1.0), abs=1e-12)


def test_comm_cir_missing_draw():
    scene = generate_scene(SceneConfig(n_clusters=1, fb_per_cluster=1, lb_per_cluster=1))
    tx = half_wavelength_array(2, 1, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(1, 2, scene.config.wavelength, ORIGIN)
    with pytest.raises(CommError, match="polarization draw"):
        comm_cir(scene, 0.0, tx, rx, CommParams(), {}, pairs=[(0, 0)])


def test_tap_validation():
    with pytest.raises(CommError):
        CommTap(0, 0, KIND_LOS, -1, 0.0, 1.0 + 0.0j)
    with pytest.raises(CommError):
        CommParams(k_factor=-1.0).validate()
    with pytest.raises(CommError):
        PolarizationDraw(0.0, 0.0, 0.0, 0.0, kappa=0.0, mu=1.0)


def test_xpr_conversion():
    assert CommParams(xpr_db=0.0).xpr_linear == pytest.approx(1.0)
    assert CommParams(xpr_db=10.0).xpr_linear == pytest.approx(10.0)


def test_frame_taps_every_pair_of_a_nonstationary_scene():
    scene = generate_scene(SceneConfig(birth_death_rate=0.05, virtual_delay_max=5e-8))
    k = 3.0
    params = CommParams(k_factor=k)
    lam = scene.config.wavelength
    tx = half_wavelength_array(32, 4, lam, scene.bs_position)
    rx_template = half_wavelength_array(2, 2, lam, ORIGIN)
    draws = draw_polarization_set(scene, params, np.random.default_rng(4))
    q, p = np.arange(4)[:, None], np.arange(128)[None, :]
    alive_sets = set()
    for t in (0.0, 6.5, 13.2, 20.0):
        block = frame_taps(scene, t, tx, rx_template, params, draws, q, p)
        truths = ground_truth_paths(scene, t)
        alive_sets.add(frozenset(pt.path_id for pt in truths))
        assert block.delay.shape == (4, 128, 1 + len(truths))
        assert np.array_equal(block.q, np.broadcast_to(q, (4, 128)))
        assert np.array_equal(block.p, np.broadcast_to(p, (4, 128)))

        # independent per-pair delays: element positions from the array offsets
        tx_el = tx.origin.as_tuple() + tx.element_offsets()  # (128, 3)
        rx_el = np.array(scene.user_position(t).as_tuple()) + rx_template.element_offsets()  # (4, 3)
        want = {LOS_PATH_ID: np.linalg.norm(rx_el[:, None, :] - tx_el[None, :, :], axis=-1) / SPEED_OF_LIGHT}
        for pt in truths:
            fb = np.array(scene.scatterer(pt.fb_id).position_at(t).as_tuple())
            lb = np.array(scene.scatterer(pt.lb_id).position_at(t).as_tuple())
            d_tx = np.linalg.norm(fb - tx_el, axis=-1)
            d_rx = np.linalg.norm(lb - rx_el, axis=-1)
            want[pt.path_id] = (d_tx[None, :] + d_rx[:, None]) / SPEED_OF_LIGHT + pt.virtual_delay
        for pid, delays in want.items():
            col = block.path_id == pid
            assert np.all(col.sum(axis=-1) == 1)
            got = np.where(col, block.delay, 0.0).sum(axis=-1)
            np.testing.assert_allclose(got, delays, rtol=1e-12, atol=0.0)

        power = block.re**2 + block.im**2
        los = np.where(block.path_id == LOS_PATH_ID, power, 0.0).sum(axis=-1)
        nlos = np.where(block.path_id != LOS_PATH_ID, power, 0.0).sum(axis=-1)
        np.testing.assert_allclose(los / nlos, k, rtol=1e-9)

        step = np.diff(block.delay, axis=-1)
        assert np.all(step >= 0.0)
        assert np.all((step > 0.0) | (np.diff(block.path_id, axis=-1) > 0))
    assert len(alive_sets) > 1  # births and deaths changed the alive paths


def test_frame_taps_reference_pair_matches_comm_cir():
    scene = generate_scene(SceneConfig(virtual_delay_max=5e-8))
    lam = scene.config.wavelength
    tx = half_wavelength_array(32, 4, lam, scene.bs_position)
    rx = half_wavelength_array(2, 2, lam, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    block = frame_taps(scene, 1.0, tx, rx, CommParams(), draws, np.array([[0]]), np.array([[0]]))
    assert block.delay.shape == (1, 1, 1 + len(scene.paths))
    assert block.taps((0, 0)) == comm_cir(scene, 1.0, tx, rx, CommParams(), draws, pairs=[(0, 0)])[(0, 0)]
