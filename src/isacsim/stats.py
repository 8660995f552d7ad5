"""Power-weighted dispersion statistics of a multipath snapshot.

Spreads are the square roots of power-weighted second central moments of
path delay and of the four bearing angles. Azimuths are recentered
around their circular mean before the linear moments are taken, so a
cluster straddling the +-pi seam measures tight, not wide. Empirical
CDFs and the two-sample Kolmogorov-Smirnov distance support comparing
spread distributions between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .scene import PathObservation

SIDE_TX = "T"
SIDE_RX = "R"


class StatsError(ValueError):
    """Invalid statistics input (empty or zero-power ensemble)."""


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Per-path power, delay and bearing angles of one channel snapshot."""

    powers: np.ndarray
    delays: np.ndarray
    aod_azimuths: np.ndarray
    aod_elevations: np.ndarray
    aoa_azimuths: np.ndarray
    aoa_elevations: np.ndarray

    def __post_init__(self) -> None:
        n = self.powers.shape[0]
        for name in ("delays", "aod_azimuths", "aod_elevations", "aoa_azimuths", "aoa_elevations"):
            if getattr(self, name).shape != (n,):
                raise StatsError(f"{name} must match powers in length")
        if np.any(self.powers < 0.0):
            raise StatsError("path powers must be nonnegative")

    @property
    def size(self) -> int:
        return self.powers.shape[0]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, float, float, float, float, float]]) -> "PathEnsemble":
        """Rows of (power, delay, aod_az, aod_el, aoa_az, aoa_el)."""
        data = np.array(list(rows), dtype=float).reshape(-1, 6)
        return cls(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5])

    @classmethod
    def from_observations(cls, paths: Sequence[PathObservation]) -> "PathEnsemble":
        """The scattered paths of one frame (``ObservationFrame.comm_paths``, which holds no LoS)."""
        return cls.from_rows(
            (p.power, p.delay, p.aod.azimuth, p.aod.elevation, p.aoa.azimuth, p.aoa.elevation)
            for p in paths
        )


def _normalized_weights(e: PathEnsemble) -> np.ndarray:
    if e.size == 0:
        raise StatsError("ensemble holds no paths")
    total = float(np.sum(e.powers))
    if total <= 0.0:
        raise StatsError("ensemble has zero total power")
    return e.powers / total


def _weighted_std(values: np.ndarray, w: np.ndarray) -> float:
    # two-pass central moment: E[v^2] - E[v]^2 cancels badly for tight clusters
    mean = float(np.sum(w * values))
    return float(np.sqrt(np.sum(w * (values - mean) ** 2)))


def delay_spread(e: PathEnsemble) -> float:
    """Power-weighted RMS spread of path delays, in seconds."""
    return _weighted_std(e.delays, _normalized_weights(e))


def _side_angles(e: PathEnsemble, side: str, which: str) -> np.ndarray:
    if side == SIDE_TX:
        return e.aod_azimuths if which == "az" else e.aod_elevations
    if side == SIDE_RX:
        return e.aoa_azimuths if which == "az" else e.aoa_elevations
    raise StatsError(f"side must be {SIDE_TX!r} (departure) or {SIDE_RX!r} (arrival), got {side!r}")


def azimuth_spread(e: PathEnsemble, side: str) -> float:
    """Power-weighted RMS spread of departure or arrival azimuths.

    Azimuths are recentered around their power-weighted circular mean
    before the moments, keeping a tight cluster at the +-pi seam tight.
    """
    w = _normalized_weights(e)
    az = _side_angles(e, side, "az")
    center = float(np.arctan2(np.sum(w * np.sin(az)), np.sum(w * np.cos(az))))
    recentered = np.mod(az - center + np.pi, 2.0 * np.pi) - np.pi
    return _weighted_std(recentered, w)


def elevation_spread(e: PathEnsemble, side: str) -> float:
    """Power-weighted RMS spread of departure or arrival elevations."""
    return _weighted_std(_side_angles(e, side, "el"), _normalized_weights(e))


def all_spreads(e: PathEnsemble) -> tuple[float, float, float, float, float]:
    """(delay, AoD azimuth, AoD elevation, AoA azimuth, AoA elevation) spreads."""
    return (
        delay_spread(e),
        azimuth_spread(e, SIDE_TX),
        elevation_spread(e, SIDE_TX),
        azimuth_spread(e, SIDE_RX),
        elevation_spread(e, SIDE_RX),
    )


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
