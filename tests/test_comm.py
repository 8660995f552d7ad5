import cmath
import math

import numpy as np
import pytest

from isacsim.antenna import PlanarArray
from isacsim.comm import (
    CommError,
    CommParams,
    comm_cir,
    draw_polarization_set,
    frame_taps,
    pair_taps,
    rician_weights,
)
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import ORIGIN, Vec3
from isacsim.scene import LOS_PATH_ID, PathColumns, SceneConfig, TruePaths, generate_scene, ground_truth_paths

F_C = 28e9
LAM = SPEED_OF_LIGHT / F_C


def half_wavelength_array(rows, cols, wavelength, origin):
    """A planar array spaced at half the wavelength, rows along z and columns along y."""
    return PlanarArray(rows, cols, wavelength / 2.0, origin, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))


def tx_pair():
    tx = half_wavelength_array(1, 2, LAM, ORIGIN)
    rx = half_wavelength_array(1, 2, LAM, Vec3(30.0, 0.0, 0.0))
    return tx, rx


def test_draw_set_covers_all_paths_with_phases_in_range():
    scene = generate_scene(SceneConfig(birth_death_rate=0.5))
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    assert set(draws) == {LOS_PATH_ID} | {p.path_id for p in scene.paths}
    # the first of four coupling phases drawn per path, LoS first
    ref = np.random.default_rng(3)
    for pid in [LOS_PATH_ID] + [p.path_id for p in scene.paths]:
        xi = draws[pid]
        assert type(xi) is float
        assert 0.0 <= xi < 2.0 * math.pi
        assert xi == float(ref.uniform(0.0, 2.0 * math.pi, size=4)[0])


def test_draw_set_deterministic():
    scene = generate_scene(SceneConfig())
    a = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    b = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    assert a == b


# Rician weights of 1: the kernel's taps before the direct/scattered split
UNIT = (1.0, 1.0)


def scattered(*paths):
    """The ``pair_taps`` paths and phases of (path_id, fb, lb, power, virtual_delay, phase) tuples.

    The angle columns are zeros: taps do not read them.
    """
    n = len(paths)
    path_id, fb, lb, power, virtual_delay, phase = (list(c) for c in zip(*paths)) if n else ([],) * 6
    ids = np.array([(pid, 0, 0, 0) for pid in path_id], dtype=int).reshape(n, 4)
    table = np.column_stack([power, np.zeros((n, 5))]) if n else np.zeros((0, 6))
    columns = PathColumns(ids, table, np.zeros((n, 2), dtype=bool))
    points = [np.array([v.as_tuple() for v in vs]).reshape(n, 3) for vs in (fb, lb)]
    return TruePaths(columns, *points, np.array(virtual_delay, dtype=float)), np.array(phase, dtype=float)


def amplitude(block):
    return block.re + 1j * block.im


def power(block):
    return np.abs(amplitude(block)) ** 2


def test_los_tap_delay_and_phase():
    tx, rx = tx_pair()
    dist = tx.element_position(1).distance_to(rx.element_position(0))
    for xi in (0.0, 1.1, 5.9):  # the drawn co-polar phase
        block = pair_taps(tx, rx, [0], [1], F_C, xi, *scattered(), UNIT)
        delay, amp = block.delay[0, 0], amplitude(block)[0, 0]
        assert delay == pytest.approx(dist / SPEED_OF_LIGHT, rel=1e-15)
        assert abs(amp) == pytest.approx(1.0, abs=1e-12)  # isotropic v-pol, unit coupling
        assert cmath.phase(amp) == pytest.approx(
            math.remainder(xi + 2.0 * math.pi * F_C * delay, 2.0 * math.pi), abs=1e-6
        )
        assert block.path_id[0, 0] == LOS_PATH_ID
        assert (block.q[0], block.p[0]) == (0, 1)


def test_los_tap_per_pair_delays_differ():
    tx, rx = tx_pair()
    block = pair_taps(tx, rx, [0, 0], [0, 1], F_C, 0.0, *scattered(), UNIT)
    assert block.delay[0, 0] != block.delay[1, 0]


def test_los_tap_coincident_rejected():
    tx = half_wavelength_array(1, 2, LAM, ORIGIN)
    with pytest.raises(CommError):
        pair_taps(tx, tx, [0], [0], F_C, 0.0, *scattered(), UNIT)


def test_nlos_tap_two_leg_delay_and_power():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    want = (
        tx.element_position(0).distance_to(fb) + rx.element_position(1).distance_to(lb)
    ) / SPEED_OF_LIGHT
    for xi in (0.0, 2.4, 4.0):  # the drawn co-polar phase
        block = pair_taps(tx, rx, [1], [0], F_C, 0.0, *scattered((7, fb, lb, 0.25, 0.0, xi)), UNIT)
        j = 1  # after the direct tap, which is shorter
        delay, amp = block.delay[0, j], amplitude(block)[0, j]
        assert delay == pytest.approx(want, rel=1e-15)
        assert abs(amp) == pytest.approx(math.sqrt(0.25), abs=1e-12)
        assert cmath.phase(amp) == pytest.approx(
            math.remainder(xi + 2.0 * math.pi * F_C * delay, 2.0 * math.pi), abs=1e-6
        )
        assert block.path_id[0, j] == 7


def test_nlos_tap_virtual_delay_added():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    paths = scattered((1, fb, lb, 1.0, 0.0, 0.0), (2, fb, lb, 1.0, 30e-9, 0.0))
    direct, base, shifted = pair_taps(tx, rx, [0], [0], F_C, 0.0, *paths, UNIT).delay[0]
    assert direct < base
    assert shifted == pytest.approx(base + 30e-9, rel=1e-12)


def test_combine_rician_weights():
    tx, rx = tx_pair()
    fb = Vec3(0.0, 40.0, 0.0)
    lb = Vec3(30.0, 25.0, 0.0)
    k = 3.0
    block = pair_taps(tx, rx, [0], [0], F_C, 0.0, *scattered((0, fb, lb, 1.0, 0.0, 0.0)), rician_weights(k))
    los_power = power(block)[block.path_id == LOS_PATH_ID].sum()
    total = power(block).sum()
    assert los_power / total == pytest.approx(k / (k + 1.0), abs=1e-12)


def test_combine_rician_k_zero_removes_los_power():
    tx, rx = tx_pair()
    block = pair_taps(tx, rx, [0], [0], F_C, 0.0, *scattered(), rician_weights(0.0))
    assert power(block)[0, 0] == 0.0


def test_comm_cir_reference_pair():
    scene = generate_scene(SceneConfig())
    tx = half_wavelength_array(32, 4, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(2, 2, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    cir = comm_cir(scene, 0.0, tx, rx, CommParams(), draws, pairs=[(0, 0)])
    assert (cir.q.tolist(), cir.p.tolist()) == ([0], [0])
    ids = cir.path_id[0]
    assert np.count_nonzero(ids == LOS_PATH_ID) == 1
    assert np.count_nonzero(ids != LOS_PATH_ID) == len(scene.paths)
    delays = cir.delay[0].tolist()
    assert delays == sorted(delays)


def test_comm_cir_all_pairs_default():
    scene = generate_scene(SceneConfig(n_clusters=1, fb_per_cluster=1, lb_per_cluster=1))
    tx = half_wavelength_array(2, 2, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(2, 1, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(3))
    cir = comm_cir(scene, 0.0, tx, rx, CommParams(), draws)
    pairs = set(zip(cir.q.tolist(), cir.p.tolist()))
    assert len(pairs) == cir.q.size == tx.num_elements * rx.num_elements
    assert (1, 3) in pairs


def test_comm_cir_power_split_every_pair():
    scene = generate_scene(SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=1))
    k = 3.0
    params = CommParams(k_factor=k)
    tx = half_wavelength_array(2, 1, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(1, 2, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, params, np.random.default_rng(9))
    cir = comm_cir(scene, 5.0, tx, rx, params, draws)
    for ids, pw in zip(cir.path_id, power(cir)):
        los_power = pw[ids == LOS_PATH_ID].sum()
        nlos_power = pw[ids != LOS_PATH_ID].sum()
        assert los_power / (los_power + nlos_power) == pytest.approx(k / (k + 1.0), abs=1e-12)


def test_comm_cir_missing_draw():
    scene = generate_scene(SceneConfig(n_clusters=1, fb_per_cluster=1, lb_per_cluster=1))
    tx = half_wavelength_array(2, 1, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(1, 2, scene.config.wavelength, ORIGIN)
    with pytest.raises(CommError, match="polarization draw"):
        comm_cir(scene, 0.0, tx, rx, CommParams(), {}, pairs=[(0, 0)])


def test_tap_validation():
    with pytest.raises(CommError):
        CommParams(k_factor=-1.0).validate()


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
        truths = ground_truth_paths(scene, [t])[0]
        block = frame_taps(scene, t, tx, rx_template, params, draws, q, p, truths)
        alive_sets.add(frozenset(truths.columns.path_id.tolist()))
        assert block.delay.shape == (4, 128, 1 + len(truths))
        assert np.array_equal(block.q, np.broadcast_to(q, (4, 128)))
        assert np.array_equal(block.p, np.broadcast_to(p, (4, 128)))

        # independent per-pair delays: element positions from the array offsets
        tx_el = tx.origin.as_tuple() + tx.element_offsets()  # (128, 3)
        rx_el = np.array(scene.user_position(t).as_tuple()) + rx_template.element_offsets()  # (4, 3)
        want = {LOS_PATH_ID: np.linalg.norm(rx_el[:, None, :] - tx_el[None, :, :], axis=-1) / SPEED_OF_LIGHT}
        for path_id, fb_id, lb_id, _ in truths.columns.ids.tolist():
            fb = np.array(scene.scatterer(fb_id).position_at(t).as_tuple())
            lb = np.array(scene.scatterer(lb_id).position_at(t).as_tuple())
            d_tx = np.linalg.norm(fb - tx_el, axis=-1)
            d_rx = np.linalg.norm(lb - rx_el, axis=-1)
            want[path_id] = (d_tx[None, :] + d_rx[:, None]) / SPEED_OF_LIGHT + scene.paths[path_id].virtual_delay
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
    paths = ground_truth_paths(scene, [1.0])[0]
    block = frame_taps(scene, 1.0, tx, rx, CommParams(), draws, np.array([[0]]), np.array([[0]]), paths)
    assert block.delay.shape == (1, 1, 1 + len(scene.paths))
    cir = comm_cir(scene, 1.0, tx, rx, CommParams(), draws, pairs=[(0, 0)])
    assert (cir.q.tolist(), cir.p.tolist()) == ([0], [0])
    for name in ("path_id", "delay", "re", "im"):
        assert np.array_equal(getattr(block, name)[0, 0], getattr(cir, name)[0])
