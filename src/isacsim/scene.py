"""Synthetic ground-truth scenes.

A scene holds constant-velocity scatterer trajectories with birth-death,
a constant-velocity user, and the path structure connecting them: every
first-bounce (FB) scatterer carries one single-bounce path (FB == LB)
and pairs with each last-bounce (LB) scatterer of its own cluster for
double-bounce paths. Queries (`ground_truth_paths`, `echoes`, `observe`)
are pure functions of the immutable scene and are safe to run
concurrently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import (
    GeometryError,
    Vec3,
    check_finite,
    direction_columns,
    dots,
    norms,
    normalize_angle_columns,
    path_term_columns,
    path_terms,
)

ROLE_FB = "fb"
ROLE_LB = "lb"

LOS_PATH_ID = -1


class ConfigError(ValueError):
    """Invalid scene or run configuration."""


class SceneRangeError(ValueError):
    """Query time outside the scene duration."""


class SensingError(ValueError):
    """Invalid sensing-channel input."""


@dataclass(frozen=True)
class ScattererTruth:
    """One scatterer's ground-truth trajectory segment.

    ``position`` anchors the trajectory at ``birth_time``; the scatterer
    moves with constant velocity until ``death_time`` (may be inf).
    """

    id: int
    cluster_id: int
    role: str
    position: Vec3
    velocity: Vec3
    rcs: float
    birth_time: float
    death_time: float

    def __post_init__(self) -> None:
        if self.role not in (ROLE_FB, ROLE_LB):
            raise ConfigError(f"unknown scatterer role {self.role!r}")
        if not self.birth_time < self.death_time:
            raise ConfigError(f"scatterer {self.id}: birth {self.birth_time} must precede death {self.death_time}")
        if not self.rcs > 0.0:
            raise ConfigError(f"scatterer {self.id}: rcs must be positive, got {self.rcs}")

    def alive(self, t: float) -> bool:
        return self.birth_time <= t < self.death_time

    def position_at(self, t: float) -> Vec3:
        return self.position + self.velocity * (t - self.birth_time)


@dataclass(frozen=True, eq=False)
class Trajectories:
    """Constant-velocity trajectory segments, one row per entity.

    ``anchor`` and ``velocity`` are (E, 3); ``anchor`` is the position at
    ``birth``, and the entity is alive from ``birth`` until before
    ``death`` (may be inf), both (E,).
    """

    anchor: np.ndarray
    velocity: np.ndarray
    birth: np.ndarray
    death: np.ndarray

    def __getitem__(self, rows) -> "Trajectories":
        return Trajectories(self.anchor[rows], self.velocity[rows], self.birth[rows], self.death[rows])

    def alive(self, t: float | np.ndarray) -> np.ndarray:
        """Alive mask at ``t``: (E,) for one time, (K, E) for a (K, 1) column of times."""
        return (self.birth <= t) & (t < self.death)

    def positions(self, t: float | np.ndarray) -> np.ndarray:
        """Positions at ``t``, (E, 3) or (K, E, 3), alive or not; an (E,) ``t`` holds each row's time.

        Element by element as ``ScattererTruth.position_at`` computes them.
        """
        return self.anchor + self.velocity * (t - self.birth)[..., None]


@dataclass(frozen=True)
class PathSkeleton:
    """Static identity of a propagation path; powers/delays are time queries."""

    path_id: int
    fb_id: int
    lb_id: int
    cluster_id: int
    virtual_delay: float

    @property
    def single_bounce(self) -> bool:
        return self.fb_id == self.lb_id


@dataclass(frozen=True, eq=False)
class PathColumns:
    """Observed multipath components, one row per path.

    ``ids`` is (n, 4) int: path_id, fb_id, lb_id and cluster_id, the data
    association the tracker is given (the LoS row has LOS_PATH_ID
    throughout). ``table`` is (n, 6) float: power, delay, AoD azimuth and
    elevation, AoA azimuth and elevation, the snapshot table that
    ``stats.all_spreads`` takes. ``degenerate`` is (n, 2) bool, AoD and
    AoA.
    """

    ids: np.ndarray
    table: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, rows) -> "PathColumns":
        return PathColumns(self.ids[rows], self.table[rows], self.degenerate[rows])

    @property
    def path_id(self) -> np.ndarray:
        return self.ids[:, 0]

    @property
    def fb_id(self) -> np.ndarray:
        return self.ids[:, 1]

    @property
    def delay(self) -> np.ndarray:
        return self.table[:, 1]


@dataclass(frozen=True, eq=False)
class EchoColumns:
    """Sensing detections, one row per first-bounce scatterer.

    ``scatterer_id`` is (m,) int; ``table`` is (m, 5) float: round-trip
    delay, azimuth, elevation, Doppler and gain; ``degenerate`` is (m,)
    bool.
    """

    scatterer_id: np.ndarray
    table: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.scatterer_id.shape[0]

    def __getitem__(self, rows) -> "EchoColumns":
        return EchoColumns(self.scatterer_id[rows], self.table[rows], self.degenerate[rows])


@dataclass(frozen=True, eq=False)
class TruePaths:
    """One frame's noise-free paths: ``columns`` as ``observe`` reports them, and per
    row the (n, 3) first- and last-bounce points ``fb`` and ``lb`` and the (n,) virtual delay."""

    columns: PathColumns
    fb: np.ndarray
    lb: np.ndarray
    virtual_delay: np.ndarray

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, rows) -> "TruePaths":
        return TruePaths(self.columns[rows], self.fb[rows], self.lb[rows], self.virtual_delay[rows])


@dataclass(frozen=True, eq=False)
class ObservationFrame:
    """All measurements available at one sampling instant; ``los`` holds at most one row."""

    time: float
    comm_paths: PathColumns
    sensing_detections: EchoColumns
    los: PathColumns


@dataclass(frozen=True)
class SceneConfig:
    """Knobs of the synthetic environment generator.

    Scatterer counts are given per role: every cluster gets
    ``fb_per_cluster`` first-bounce and ``lb_per_cluster`` last-bounce
    scatterers (slots). A positive ``birth_death_rate`` gives each
    scatterer an exponential lifetime and replaces it on death with a
    freshly placed one in the same cluster and role.
    """

    n_clusters: int = 3
    fb_per_cluster: int = 2
    lb_per_cluster: int = 2
    region_min: Vec3 = Vec3(-80.0, 20.0, 0.0)
    region_max: Vec3 = Vec3(80.0, 180.0, 30.0)
    speed_min: float = 0.0
    speed_max: float = 1.0
    birth_death_rate: float = 0.0
    rcs_min: float = 1.0
    rcs_max: float = 10.0
    sigma_delay: float = 5e-9
    sigma_angle: float = math.radians(1.0)
    seed: int = 11
    duration: float = 20.0
    carrier_hz: float = 28e9
    pdp_decay: float = 100e-9
    virtual_delay_max: float = 0.0
    bs_position: Vec3 = Vec3(0.0, 0.0, 10.0)
    user_start: Vec3 = Vec3(0.0, 120.0, 1.2)
    user_velocity: Vec3 = Vec3(0.0, 1.0, 0.0)

    def validate(self) -> None:
        check_finite(self, ConfigError)
        if self.n_clusters < 1:
            raise ConfigError("need at least one cluster")
        if self.fb_per_cluster < 1:
            raise ConfigError("need at least one first-bounce scatterer per cluster")
        if self.lb_per_cluster < 0:
            raise ConfigError("lb_per_cluster must be nonnegative")
        for lo, hi, name in (
            (self.region_min.x, self.region_max.x, "x"),
            (self.region_min.y, self.region_max.y, "y"),
            (self.region_min.z, self.region_max.z, "z"),
        ):
            if lo > hi:
                raise ConfigError(f"empty region range on axis {name}: [{lo}, {hi}]")
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ConfigError(f"empty speed range [{self.speed_min}, {self.speed_max}]")
        if self.birth_death_rate < 0.0:
            raise ConfigError("birth_death_rate must be nonnegative")
        if not 0.0 < self.rcs_min <= self.rcs_max:
            raise ConfigError(f"rcs range must be positive and nonempty, got [{self.rcs_min}, {self.rcs_max}]")
        if self.sigma_delay < 0.0 or self.sigma_angle < 0.0:
            raise ConfigError("noise standard deviations must be nonnegative")
        if self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.carrier_hz <= 0.0:
            raise ConfigError("carrier frequency must be positive")
        if self.pdp_decay <= 0.0:
            raise ConfigError("pdp_decay must be positive")
        if self.virtual_delay_max < 0.0:
            raise ConfigError("virtual_delay_max must be nonnegative")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class SceneTruth:
    """Immutable generated environment: trajectories plus path structure."""

    config: SceneConfig
    scatterers: tuple[ScattererTruth, ...]
    paths: tuple[PathSkeleton, ...]

    @cached_property
    def _by_id(self) -> dict[int, ScattererTruth]:
        return {s.id: s for s in self.scatterers}

    @cached_property
    def _path_rows(self) -> tuple[np.ndarray, np.ndarray, Trajectories, Trajectories]:
        """The paths' (P, 4) ids, (P,) virtual delays and FB and LB trajectories, in stored path order."""
        ids = np.array([(p.path_id, p.fb_id, p.lb_id, p.cluster_id) for p in self.paths], dtype=int).reshape(-1, 4)
        virtual_delay = np.array([p.virtual_delay for p in self.paths], dtype=float)
        return ids, virtual_delay, self.trajectories(ids[:, 1].tolist()), self.trajectories(ids[:, 2].tolist())

    @cached_property
    def _first_bounces(self) -> tuple[np.ndarray, np.ndarray, Trajectories]:
        """The ids, radar cross sections and trajectories of the first-bounce scatterers, in scene order."""
        fbs = [s for s in self.scatterers if s.role == ROLE_FB]
        ids = [s.id for s in fbs]
        return np.array(ids, dtype=int), np.array([s.rcs for s in fbs]), self.trajectories(ids)

    def trajectories(self, ids: Iterable[int]) -> Trajectories:
        """Trajectory rows of the scatterers ``ids``, in order.

        ``LOS_PATH_ID`` stands for the user, anchored at its start
        position at time 0 and never dying.
        """
        cfg = self.config
        rows = []
        for sid in ids:
            if sid == LOS_PATH_ID:
                rows.append((*cfg.user_start.as_tuple(), *cfg.user_velocity.as_tuple(), 0.0, math.inf))
            else:
                s = self.scatterer(sid)
                rows.append((*s.position.as_tuple(), *s.velocity.as_tuple(), s.birth_time, s.death_time))
        a = np.array(rows, dtype=float).reshape(-1, 8)
        return Trajectories(a[:, :3], a[:, 3:6], a[:, 6], a[:, 7])

    @property
    def bs_position(self) -> Vec3:
        return self.config.bs_position

    @property
    def duration(self) -> float:
        return self.config.duration

    def scatterer(self, sid: int) -> ScattererTruth:
        return self._by_id[sid]

    def user_position(self, t: float) -> Vec3:
        return self.config.user_start + self.config.user_velocity * t

    def check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.duration:
            raise SceneRangeError(f"time {t} outside scene duration [0, {self.duration}]")


def _random_unit_vector(rng: np.random.Generator) -> Vec3:
    v = rng.normal(size=3)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        return Vec3(1.0, 0.0, 0.0)
    return Vec3(float(v[0]) / n, float(v[1]) / n, float(v[2]) / n)


def _draw_scatterer(
    cfg: SceneConfig,
    rng: np.random.Generator,
    sid: int,
    cluster_id: int,
    role: str,
    birth: float,
) -> ScattererTruth:
    pos = Vec3(
        float(rng.uniform(cfg.region_min.x, cfg.region_max.x)),
        float(rng.uniform(cfg.region_min.y, cfg.region_max.y)),
        float(rng.uniform(cfg.region_min.z, cfg.region_max.z)),
    )
    speed = float(rng.uniform(cfg.speed_min, cfg.speed_max))
    vel = _random_unit_vector(rng) * speed
    rcs = float(rng.uniform(cfg.rcs_min, cfg.rcs_max))
    if cfg.birth_death_rate > 0.0:
        death = birth + float(rng.exponential(1.0 / cfg.birth_death_rate))
    else:
        death = math.inf
    return ScattererTruth(sid, cluster_id, role, pos, vel, rcs, birth, death)


def generate_scene(cfg: SceneConfig) -> SceneTruth:
    """Generate a scene; deterministic for a fixed config (seed included).

    Each cluster keeps ``fb_per_cluster + lb_per_cluster`` slots occupied:
    a slot's scatterer lives an exponential lifetime (infinite when the
    birth-death rate is 0) and is replaced on death by a new scatterer in
    the same cluster and role.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    scatterers: list[ScattererTruth] = []
    next_id = 0
    for cluster_id in range(cfg.n_clusters):
        for role, count in ((ROLE_FB, cfg.fb_per_cluster), (ROLE_LB, cfg.lb_per_cluster)):
            for _slot in range(count):
                birth = 0.0
                while birth < cfg.duration:
                    s = _draw_scatterer(cfg, rng, next_id, cluster_id, role, birth)
                    scatterers.append(s)
                    next_id += 1
                    birth = s.death_time

    pairs: list[tuple[int, int, int]] = []
    for cluster_id in range(cfg.n_clusters):
        members = [s for s in scatterers if s.cluster_id == cluster_id]
        fbs = sorted((s for s in members if s.role == ROLE_FB), key=lambda s: s.id)
        lbs = sorted((s for s in members if s.role == ROLE_LB), key=lambda s: s.id)
        for fb in fbs:
            pairs.append((fb.id, fb.id, cluster_id))
            for lb in lbs:
                # skip pairs whose lifetimes never overlap
                if fb.birth_time < lb.death_time and lb.birth_time < fb.death_time:
                    pairs.append((fb.id, lb.id, cluster_id))
    pairs.sort(key=lambda p: (p[2], p[0], p[1]))
    # single-bounce paths have no in-between propagation to stand in for
    paths = [
        PathSkeleton(
            pid, fb_id, lb_id, cluster_id,
            float(rng.uniform(0.0, cfg.virtual_delay_max))
            if cfg.virtual_delay_max > 0.0 and fb_id != lb_id
            else 0.0,
        )
        for pid, (fb_id, lb_id, cluster_id) in enumerate(pairs)
    ]

    return SceneTruth(cfg, tuple(scatterers), tuple(paths))


def _alive_rows(scene: SceneTruth, times: Sequence[float], *tracks: Trajectories) -> tuple:
    """The (N,) row and (N,) time of each (time, row) pair where all of ``tracks`` are alive,
    time by time and in row order within a time, and for each of ``times`` the slice of its pairs."""
    for t in times:
        scene.check_time(t)
    t = np.array(times, dtype=float)[:, None]
    alive = np.logical_and.reduce([track.alive(t) for track in tracks])
    k, rows = np.nonzero(alive)
    ends = np.cumsum(np.count_nonzero(alive, axis=1)).tolist()
    return rows, t[k, 0], [slice(a, b) for a, b in zip([0] + ends, ends)]


def ground_truth_paths(scene: SceneTruth, times: Sequence[float]) -> list[TruePaths]:
    """Alive paths at each of ``times``, with powers from the exponential delay profile.

    Every time is resolved in one array pass, and each time's
    ``TruePaths`` is a view of it: the bounce points, delays (the outer
    legs over c plus the virtual delay) and AoDs and AoAs, each bit for
    bit as the scalar formulas give it. Powers follow
    exp(-delay / pdp_decay) and are normalized to sum to 1 over the frame,
    each frame by its own ``ndarray.sum``; this makes the Rician
    LoS/NLoS power split exact.

    Raises:
        ConfigError: where every power of a frame underflows to 0.
    """
    ids, virtual_delay, fb_ends, lb_ends = scene._path_rows
    rows, t, frames = _alive_rows(scene, times, fb_ends, lb_ends)
    fb, lb = fb_ends[rows].positions(t), lb_ends[rows].positions(t)
    user = scene.trajectories([LOS_PATH_ID]).positions(t[:, None])[:, 0]
    leg, angles, degenerate = path_term_columns(np.array(scene.bs_position.as_tuple()), user, fb, lb)
    delays = leg / SPEED_OF_LIGHT + virtual_delay[rows]
    raw = np.exp(-delays / scene.config.pdp_decay)
    sums = np.array([raw[f].sum() for f in frames])
    for f, total in zip(frames, sums.tolist()):
        if total == 0.0 and f.stop > f.start:
            raise ConfigError(
                f"pdp_decay = {scene.config.pdp_decay!r} s underflows every path power to 0 at "
                f"t = {float(t[f.start])!r} s, where the shortest delay is {float(delays[f].min())!r} s"
            )
    powers = raw / np.repeat(sums, [f.stop - f.start for f in frames])
    whole = TruePaths(PathColumns(ids[rows], np.column_stack([powers, delays, angles]), degenerate), fb, lb,
                      virtual_delay[rows])
    return [whole[f] for f in frames]


def sensing_gain(wavelength: float, rcs: float, distance: float) -> float:
    """Two-way power gain of a point scatterer at ``distance`` meters.

    lambda^2 * rcs / (64 pi^3 d^4): the product of two free-space legs
    and the radar cross section, without antenna gains.
    """
    if wavelength <= 0.0 or rcs <= 0.0 or distance <= 0.0:
        raise SensingError("wavelength, rcs and distance must all be positive")
    return wavelength**2 * rcs / (64.0 * math.pi**3 * distance**4)


def echo_delay(distance: float) -> float:
    """Round-trip delay 2 d / c of an echo from ``distance`` meters."""
    if distance <= 0.0:
        raise SensingError(f"distance must be positive, got {distance}")
    return 2.0 * distance / SPEED_OF_LIGHT


def doppler_shift(wavelength: float, closing_speed: float) -> float:
    """Two-way Doppler 2 v / lambda; ``closing_speed`` > 0 means approaching."""
    if wavelength <= 0.0:
        raise SensingError(f"wavelength must be positive, got {wavelength}")
    return 2.0 * closing_speed / wavelength


def echoes(scene: SceneTruth, times: Sequence[float]) -> list[EchoColumns]:
    """Noise-free echo of every first-bounce scatterer alive at each of ``times``, in scene order.

    Round-trip delay, direction seen from the BS, two-way Doppler of the
    closing speed (receding gives negative Doppler) and radar gain. Every
    time is resolved in one array pass, and each time's ``EchoColumns``
    is a view of it. ``echo_delay``, ``doppler_shift`` and
    ``sensing_gain`` are applied element by element: numpy's ``d**4``
    rounds about one distance in twenty differently from Python's.
    """
    ids, rcs, tracks = scene._first_bounces
    rows, t, frames = _alive_rows(scene, times, tracks)
    moving = tracks[rows]
    disp = moving.positions(t) - np.array(scene.bs_position.as_tuple())
    d, lam = norms(disp), scene.config.wavelength
    distance = d.tolist()
    delay = list(map(echo_delay, distance))  # rejects a zero distance before it is divided by
    closing_speed = -dots(moving.velocity, disp * (1.0 / d)[:, None])
    doppler = list(map(doppler_shift, itertools.repeat(lam), closing_speed.tolist()))
    gain = list(map(sensing_gain, itertools.repeat(lam), rcs[rows].tolist(), distance))
    angles, degenerate = direction_columns(disp)
    whole = EchoColumns(ids[rows], np.column_stack([delay, angles, doppler, gain]), degenerate)
    return [whole[f] for f in frames]


def check_round_trip_delays(delays: np.ndarray) -> None:
    """Reject the first round-trip delay that is not positive."""
    bad = ~(delays > 0.0)
    if bad.any():
        raise ConfigError(f"round-trip delay must be positive, got {float(delays[np.argmax(bad)])}")


def _noisy_angles(angles: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Azimuth and elevation column pairs plus noise, normalized by ``normalize_angle_columns``.

    The first non-finite angle, in row-major order, raises AngleSet's error.
    """
    out = angles + noise
    finite = np.isfinite(out)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        value = float(out[row, col])
        raise GeometryError(
            f"cannot wrap non-finite angle {value!r}" if col % 2 == 0 else f"non-finite elevation {value!r}"
        )
    return normalize_angle_columns(out)


def observe(
    scene: SceneTruth,
    t: float,
    noise: tuple[float, float],
    rng: np.random.Generator,
    paths: TruePaths,
    detections: EchoColumns,
) -> ObservationFrame:
    """Noisy measurement frame at time ``t``.

    Communication observations carry the true per-path delay, departure
    and arrival angles, and power, with zero-mean Gaussian noise of std
    ``noise = (sigma_delay, sigma_angle)`` added to delay and angles.
    Sensing detections cover every alive first-bounce scatterer with the
    echo round-trip delay (noisy), direction at the BS (noisy), Doppler
    and gain (exact). A LoS observation between BS and user is always
    present (the scene models no occlusion).

    ``paths`` and ``detections`` are the frame's ``ground_truth_paths``
    and ``echoes``, resolved by the caller and left unchanged. The noise
    is one standard-normal block, one value per draw in this order: per
    path the delay, AoD azimuth and elevation, AoA azimuth and elevation;
    the LoS the same way; per echo the round-trip delay, azimuth and
    elevation. Each is 0.0 + sigma * z, as ``rng.normal(0.0, sigma)``
    draws it one at a time.
    """
    sigma_delay, sigma_angle = noise
    if sigma_delay < 0.0 or sigma_angle < 0.0:
        raise ConfigError("noise standard deviations must be nonnegative")
    scene.check_time(t)

    bs, user = scene.bs_position, scene.user_position(t)
    leg, aod, aoa = path_terms(bs, user, user, bs)  # both legs are the direct path
    n, m = len(paths) + 1, len(detections)  # the LoS is the last comm row
    z = rng.standard_normal(5 * n + 3 * m)

    los = (1.0, leg / 2.0 / SPEED_OF_LIGHT, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)
    truth = paths.columns
    ids, table = np.vstack([truth.ids, (LOS_PATH_ID,) * 4]), np.vstack([truth.table, los])
    degenerate = np.vstack([truth.degenerate, (aod.degenerate, aoa.degenerate)])
    comm_noise = z[: 5 * n].reshape(n, 5) * np.array([sigma_delay] + [sigma_angle] * 4) + 0.0
    table[:, 1] += comm_noise[:, 0]
    table[:, 2:] = _noisy_angles(table[:, 2:], comm_noise[:, 1:])

    echo = detections.table.copy()
    echo_noise = z[5 * n :].reshape(m, 3) * np.array([sigma_delay, sigma_angle, sigma_angle]) + 0.0
    echo[:, 0] += echo_noise[:, 0]
    echo[:, 1:3] = _noisy_angles(echo[:, 1:3], echo_noise[:, 1:])
    check_round_trip_delays(echo[:, 0])
    comm = PathColumns(ids, table, degenerate)
    sensing = EchoColumns(detections.scatterer_id, echo, detections.degenerate)
    return ObservationFrame(t, comm[: n - 1], sensing, comm[n - 1 :])


# --- scene file format -------------------------------------------------------
#
# Line-oriented text, one record per line:
#   "# isacsim scene v1"  header
#   "C <field> <values>"  one line per SceneConfig field
#   "S <id> <cluster> <role> <birth> <death> <px> <py> <pz> <vx> <vy> <vz> <rcs>"
#   "P <path_id> <fb_id> <lb_id> <cluster> <virtual_delay>"
# Floats are written with repr() and round-trip exactly.

SCENE_HEADER = "# isacsim scene v1"


def _fmt(value: float) -> str:
    return repr(float(value))


def render_value(value) -> str:
    """Text of a config int, float (repr, exact round trip) or Vec3."""
    if isinstance(value, Vec3):
        return " ".join(_fmt(c) for c in value.as_tuple())
    return str(value) if isinstance(value, int) else _fmt(value)


def parse_value(raw: str, like, key: str):
    """``raw`` read as the type of ``like``; a Vec3 is three numbers split by spaces or commas."""
    if not isinstance(like, Vec3):
        return type(like)(raw)
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three numbers, got {raw!r}")
    return Vec3(float(parts[0]), float(parts[1]), float(parts[2]))


def scene_to_text(scene: SceneTruth) -> str:
    lines = [SCENE_HEADER]
    for f in fields(SceneConfig):
        lines.append(f"C {f.name} {render_value(getattr(scene.config, f.name))}")
    for s in scene.scatterers:
        lines.append(
            "S "
            + " ".join(
                [
                    str(s.id),
                    str(s.cluster_id),
                    s.role,
                    _fmt(s.birth_time),
                    _fmt(s.death_time),
                    _fmt(s.position.x),
                    _fmt(s.position.y),
                    _fmt(s.position.z),
                    _fmt(s.velocity.x),
                    _fmt(s.velocity.y),
                    _fmt(s.velocity.z),
                    _fmt(s.rcs),
                ]
            )
        )
    for p in scene.paths:
        lines.append(f"P {p.path_id} {p.fb_id} {p.lb_id} {p.cluster_id} {_fmt(p.virtual_delay)}")
    return "\n".join(lines) + "\n"


def scene_from_text(text: str) -> SceneTruth:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCENE_HEADER:
        raise ConfigError(f"not a scene file (expected header {SCENE_HEADER!r})")
    cfg_kwargs: dict[str, object] = {}
    defaults = {f.name: getattr(SceneConfig(), f.name) for f in fields(SceneConfig)}
    scatterers: list[ScattererTruth] = []
    paths: dict[int, PathSkeleton] = {}  # keyed by line number
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tag, *parts = line.split()
        try:
            if tag == "C":
                name = parts[0]
                if name not in defaults:
                    raise ConfigError(f"unknown config field {name!r}")
                cfg_kwargs[name] = parse_value(" ".join(parts[1:]), defaults[name], name)
            elif tag == "S":
                scatterers.append(
                    ScattererTruth(
                        int(parts[0]),
                        int(parts[1]),
                        parts[2],
                        Vec3(float(parts[5]), float(parts[6]), float(parts[7])),
                        Vec3(float(parts[8]), float(parts[9]), float(parts[10])),
                        float(parts[11]),
                        float(parts[3]),
                        float(parts[4]),
                    )
                )
            elif tag == "P":
                paths[lineno] = PathSkeleton(
                    int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4])
                )
                if not 0.0 <= paths[lineno].virtual_delay < math.inf:
                    raise ConfigError(f"virtual delay must be finite and nonnegative, got {parts[4]}")
            else:
                raise ConfigError(f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"scene file line {lineno}: {exc}") from exc
    known = {s.id for s in scatterers}
    for lineno, path in paths.items():
        for sid in (path.fb_id, path.lb_id):
            if sid not in known:
                raise ConfigError(f"scene file line {lineno}: path {path.path_id} names scatterer {sid}, "
                                  "which has no S record")
    cfg = SceneConfig(**cfg_kwargs)  # type: ignore[arg-type]
    cfg.validate()
    return SceneTruth(cfg, tuple(scatterers), tuple(paths.values()))


def save_scene(scene: SceneTruth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_to_text(scene))


def load_scene(path: str) -> SceneTruth:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_text(fh.read())
