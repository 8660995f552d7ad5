"""Power-weighted dispersion statistics of a multipath snapshot.

Spreads are the square roots of power-weighted second central moments of
path delay and of the four bearing angles. Azimuths are recentered
around their circular mean before the linear moments are taken, so a
cluster straddling the +-pi seam measures tight, not wide. A snapshot's
five spreads are taken in one pass over its (5, n) table. Empirical
CDFs and the two-sample Kolmogorov-Smirnov distance support comparing
spread distributions between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_AZIMUTH_ROWS = [1, 3]  # aod_az and aoa_az among the five spread quantities


class StatsError(ValueError):
    """Invalid statistics input (empty or zero-power snapshot)."""


def all_spreads(table: np.ndarray) -> tuple[float, float, float, float, float]:
    """(delay, AoD azimuth, AoD elevation, AoA azimuth, AoA elevation) spreads of one snapshot.

    ``table`` is (n, 6): per path (power, delay, aod_az, aod_el, aoa_az,
    aoa_el). Each spread is the square root of the power-weighted second
    central moment of its column, taken in two passes (E[v^2] - E[v]^2
    cancels badly for tight clusters). Azimuths are first recentered
    around their power-weighted circular mean, keeping a tight cluster at
    the +-pi seam tight.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 6:
        raise StatsError(f"snapshot table must be (n, 6), got {table.shape}")
    if table.shape[0] == 0:
        raise StatsError("snapshot holds no paths")
    powers = table[:, 0]
    if np.any(powers < 0.0):
        raise StatsError("path powers must be nonnegative")
    total = float(np.sum(powers))
    if total <= 0.0:
        raise StatsError("snapshot has zero total power")
    w = powers / total
    # one row per quantity, so every sum runs over a contiguous row, as numpy sums one column
    values = np.ascontiguousarray(table[:, 1:].T)
    az = values[_AZIMUTH_ROWS]
    center = np.arctan2(np.sum(w * np.sin(az), axis=-1), np.sum(w * np.cos(az), axis=-1))
    values[_AZIMUTH_ROWS] = np.mod(az - center[:, None] + np.pi, 2.0 * np.pi) - np.pi
    mean = np.sum(w * values, axis=-1)
    return tuple(np.sqrt(np.sum(w * (values - mean[:, None]) ** 2, axis=-1)).tolist())


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous step CDF of a finite sample."""

    values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape[0] == 0:
            raise StatsError("empirical CDF needs at least one sample")
        if self.values.shape != self.fractions.shape:
            raise StatsError("values and fractions must align")

    def evaluate(self, x: float | np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.values, x, side="right")
        return idx / self.values.shape[0]


def empirical_cdf(samples: Sequence[float] | np.ndarray) -> EmpiricalCdf:
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise StatsError("empirical CDF needs at least one sample")
    n = values.shape[0]
    return EmpiricalCdf(values, np.arange(1, n + 1) / n)


def ks_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    grid = np.concatenate([a.values, b.values])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))
