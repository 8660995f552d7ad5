import math

import numpy as np
import pytest

from isacsim.stats import (
    EmpiricalCdf,
    StatsError,
    all_spreads,
    empirical_cdf,
    ks_distance,
)

# snapshot-table rows: (power, delay, aod_az, aod_el, aoa_az, aoa_el); the
# spreads come back as (delay, aod_az, aod_el, aoa_az, aoa_el)
DELAY, AOD_AZ, AOD_EL, AOA_AZ, AOA_EL = range(5)


def spread(rows, which):
    return all_spreads(np.array(rows, dtype=float).reshape(-1, 6))[which]


def test_single_path_zero_spread():
    e = [(1.0, 50e-9, 0.1, 0.2, 0.3, 0.4)]
    assert spread(e, DELAY) == 0.0
    assert spread(e, AOD_AZ) == 0.0
    assert spread(e, AOA_EL) == 0.0


def test_two_equal_power_paths_delay():
    e = [(0.5, 100e-9, 0, 0, 0, 0), (0.5, 300e-9, 0, 0, 0, 0)]
    assert spread(e, DELAY) == pytest.approx(100e-9, rel=1e-12)


def test_three_path_hand_case():
    e = [
        (0.5, 0.0, 0, 0, 0, 0),
        (0.25, 100e-9, 0, 0, 0, 0),
        (0.25, 200e-9, 0, 0, 0, 0),
    ]
    # mean 75 ns, second moment 12500 ns^2
    want = math.sqrt(12500e-18 - (75e-9) ** 2)
    assert spread(e, DELAY) == pytest.approx(want, rel=1e-9)


def test_power_normalization_irrelevant():
    a = [(0.5, 0.0, 0, 0, 0, 0), (0.25, 100e-9, 0, 0, 0, 0), (0.25, 200e-9, 0, 0, 0, 0)]
    b = [(2.0, 0.0, 0, 0, 0, 0), (1.0, 100e-9, 0, 0, 0, 0), (1.0, 200e-9, 0, 0, 0, 0)]
    assert spread(a, DELAY) == pytest.approx(spread(b, DELAY), rel=1e-12)


def test_delay_offset_invariance():
    rows = [(0.3, 10e-9, 0, 0, 0, 0), (0.7, 90e-9, 0, 0, 0, 0)]
    shifted = [(p, d + 1e-6, 0, 0, 0, 0) for p, d, *_ in rows]
    assert spread(rows, DELAY) == pytest.approx(spread(shifted, DELAY), rel=1e-9)


def test_azimuth_two_point():
    a30 = math.radians(30.0)
    e = [(0.5, 0, a30, 0, 0, 0), (0.5, 0, -a30, 0, 0, 0)]
    assert spread(e, AOD_AZ) == pytest.approx(math.pi / 6, rel=1e-12)


def test_azimuth_seam_recentering():
    # equal power at 175 and -175 degrees: 5 degrees after recentering
    e = [
        (0.5, 0, math.radians(175.0), 0, 0, 0),
        (0.5, 0, math.radians(-175.0), 0, 0, 0),
    ]
    assert spread(e, AOD_AZ) == pytest.approx(math.radians(5.0), rel=1e-9)


def test_azimuth_rotation_invariance():
    rng = np.random.default_rng(2)
    az = rng.uniform(-math.pi, math.pi, 6)
    p = rng.uniform(0.1, 1.0, 6)
    base = [(pi, 0, a, 0, 0, 0) for pi, a in zip(p, az)]
    s0 = spread(base, AOD_AZ)
    for rot in (0.5, 2.0, -3.0):
        rotated = [(pi, 0, a + rot, 0, 0, 0) for pi, a in zip(p, az)]
        assert spread(rotated, AOD_AZ) == pytest.approx(s0, rel=1e-9)


def test_sides_are_independent():
    e = [
        (0.5, 0, 0.1, 0.0, 1.0, 0.2),
        (0.5, 0, 0.3, 0.0, 1.0, 0.6),
    ]
    assert spread(e, AOD_AZ) == pytest.approx(0.1, rel=1e-12)
    assert spread(e, AOA_AZ) == 0.0
    assert spread(e, AOA_EL) == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(StatsError):
        all_spreads(np.zeros((2, 5)))  # a table without both sides' columns


def test_all_spreads_order():
    e = [
        (0.5, 100e-9, 0.1, 0.2, 0.3, 0.4),
        (0.5, 300e-9, 0.5, 0.4, 0.9, 0.8),
    ]
    s = all_spreads(e)
    # two equal-power paths: each spread is half its column's gap
    assert s[DELAY] == pytest.approx(100e-9)
    assert s[AOD_AZ] == pytest.approx(0.2)
    assert s[AOD_EL] == pytest.approx(0.1)
    assert s[AOA_AZ] == pytest.approx(0.3)
    assert s[AOA_EL] == pytest.approx(0.2)
    for column in range(1, 6):  # a table varying in one column spreads in one slot only
        rows = np.zeros((2, 6))
        rows[:, 0], rows[1, column] = 1.0, 0.2
        assert [v > 0.0 for v in all_spreads(rows)] == [i == column - 1 for i in range(5)]


def test_zero_power_rejected():
    e = [(0.0, 0, 0, 0, 0, 0)]
    with pytest.raises(StatsError):
        spread(e, DELAY)
    with pytest.raises(StatsError):
        spread([], DELAY)
    with pytest.raises(StatsError):
        spread([(-1.0, 0, 0, 0, 0, 0), (2.0, 1e-9, 0, 0, 0, 0)], DELAY)


def test_monte_carlo_two_point_convergence():
    # random two-point mixtures: spread matches the analytic value
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = float(rng.uniform(0.05, 0.95))
        d1, d2 = sorted(rng.uniform(0.0, 1e-6, 2))
        e = [(p, d1, 0, 0, 0, 0), (1 - p, d2, 0, 0, 0, 0)]
        want = math.sqrt(p * (1 - p)) * (d2 - d1)
        assert spread(e, DELAY) == pytest.approx(want, rel=1e-9)


# --- empirical CDF / KS -------------------------------------------------------


def test_cdf_step_values():
    cdf = empirical_cdf([1.0, 2.0, 3.0])
    assert cdf.evaluate(0.5) == 0.0
    assert cdf.evaluate(1.0) == pytest.approx(1.0 / 3.0)
    assert cdf.evaluate(2.0) == pytest.approx(2.0 / 3.0)
    assert cdf.evaluate(2.5) == pytest.approx(2.0 / 3.0)
    assert cdf.evaluate(99.0) == 1.0


def test_cdf_sorts_and_validates():
    cdf = empirical_cdf([3.0, 1.0, 2.0])
    assert list(cdf.values) == [1.0, 2.0, 3.0]
    assert list(cdf.fractions) == pytest.approx([1 / 3, 2 / 3, 1.0])
    with pytest.raises(StatsError):
        empirical_cdf([])


def test_ks_identical_zero():
    a = empirical_cdf([1.0, 2.0, 5.0])
    assert ks_distance(a, a) == 0.0
    b = empirical_cdf([5.0, 1.0, 2.0])
    assert ks_distance(a, b) == 0.0


def test_ks_disjoint_one():
    a = empirical_cdf([0.0, 1.0])
    b = empirical_cdf([10.0, 11.0])
    assert ks_distance(a, b) == pytest.approx(1.0)


def test_ks_hand_case():
    # {0, 1} vs {0, 2}: the gap peaks at 1/2 between x=1 and x=2
    a = empirical_cdf([0.0, 1.0])
    b = empirical_cdf([0.0, 2.0])
    assert ks_distance(a, b) == pytest.approx(0.5)


def test_ks_symmetry_and_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = empirical_cdf(rng.normal(0, 1, 30))
        b = empirical_cdf(rng.normal(0.5, 2, 17))
        d1, d2 = ks_distance(a, b), ks_distance(b, a)
        assert d1 == pytest.approx(d2, abs=1e-15)
        assert 0.0 <= d1 <= 1.0


def test_cdf_type_invariants():
    cdf = empirical_cdf(np.array([4.0, 4.0, 2.0]))
    assert isinstance(cdf, EmpiricalCdf)
    fr = np.asarray(cdf.fractions)
    assert np.all(np.diff(fr) >= 0.0)
    assert fr[-1] == 1.0
