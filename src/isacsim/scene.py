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
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

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
)

ROLE_FB = "fb"
ROLE_LB = "lb"

LOS_PATH_ID = -1

MAX_SCATTERERS = 10**4  # a scene holds at most this many scatterers (the shipped config has 12)
MAX_PATHS = 10**5  # and at most this many paths (the shipped config has 18)
MAX_RUN_ROWS = 3 * 10**5  # a run resolves at most this many path and echo rows over its frames (the shipped 4824)
# m, on each axis of the region corners, bs_position and user_start; with MAX_SPEED and config.MAX_TS every position
# of a run stays under 1e15 m, whose squared distances and the echo gain's d**4 are finite
MAX_COORDINATE = 1e9
MAX_SPEED = 3e8  # m/s, for speed_min, speed_max and each axis of user_velocity: about the speed of light


class ConfigError(ValueError):
    """Invalid scene or run configuration."""


class SceneRangeError(ValueError):
    """Query time outside the scene duration."""


class SensingError(ValueError):
    """Invalid sensing-channel input."""


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

        Element by element: anchor plus velocity times the time since birth, each a float operation.
        """
        return self.anchor + self.velocity * (t - self.birth)[..., None]


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
    """Noise-free paths: ``columns`` as ``observe`` reports them, and per row the
    (n, 3) first- and last-bounce points ``fb`` and ``lb`` and the (n,) virtual delay."""

    columns: PathColumns
    fb: np.ndarray
    lb: np.ndarray
    virtual_delay: np.ndarray

    def __getitem__(self, rows) -> "TruePaths":
        return TruePaths(self.columns[rows], self.fb[rows], self.lb[rows], self.virtual_delay[rows])


@dataclass(frozen=True, eq=False)
class ObservationFrame:
    """All measurements available at one sampling instant; ``los`` holds at most one row."""

    time: float
    comm_paths: PathColumns
    sensing_detections: EchoColumns
    los: PathColumns


@dataclass(frozen=True, eq=False)
class Observations:
    """A run's measurements at its K frame ``times``: frame k's rows of ``comm_paths``, ``sensing_detections``
    and ``los`` (at most one) are ``offsets[k]`` up to ``offsets[k + 1]`` in the three columns of the
    (K + 1, 3) int ``offsets``, whose last row holds their lengths."""

    times: list[float]
    comm_paths: PathColumns
    sensing_detections: EchoColumns
    los: PathColumns
    offsets: np.ndarray

    def frame(self, k: int) -> ObservationFrame:
        """Frame k, its columns views of the run's."""
        paths, echoes, los = (slice(a, b) for a, b in zip(*self.offsets[k:k + 2].tolist()))
        return ObservationFrame(self.times[k], self.comm_paths[paths], self.sensing_detections[echoes], self.los[los])


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
        for names, bound, unit in ((("region_min", "region_max", "bs_position", "user_start"), MAX_COORDINATE, "m"),
                                   (("speed_min", "speed_max", "user_velocity"), MAX_SPEED, "m/s")):
            for name in names:
                value = getattr(self, name)
                if max(map(abs, value.as_tuple() if isinstance(value, Vec3) else [value])) > bound:
                    raise ConfigError(f"{name} must be within {bound:g} {unit} of 0, got {render_value(value)}")
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


@dataclass(frozen=True, eq=False)
class SceneTruth:
    """Immutable generated environment, held as columns.

    Scatterer ids are rows in draw order: scatterer i is row i of the
    (S,) ``cluster_id``, ``role`` and ``rcs`` and of ``tracks``, whose
    one extra, last row is the user, anchored at its start position at
    time 0 and never dying, so ``LOS_PATH_ID`` indexes it. ``paths`` is
    (P, 4) int, laid out as ``PathColumns.ids`` (path_id, fb_id, lb_id,
    cluster_id), and ``virtual_delay`` is (P,).
    """

    config: SceneConfig
    cluster_id: np.ndarray
    role: np.ndarray
    rcs: np.ndarray
    tracks: Trajectories
    paths: np.ndarray
    virtual_delay: np.ndarray

    def trajectories(self, ids: Sequence[int] | np.ndarray) -> Trajectories:
        """Trajectory rows of the scatterers ``ids``, in order; ``LOS_PATH_ID`` stands for the user."""
        return self.tracks[np.asarray(ids, dtype=int)]

    @property
    def bs_position(self) -> Vec3:
        return self.config.bs_position

    @property
    def duration(self) -> float:
        return self.config.duration

    def user_position(self, t: float) -> Vec3:
        return self.config.user_start + self.config.user_velocity * t

    def check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.duration:
            raise SceneRangeError(f"time {t} outside scene duration [0, {self.duration}]")


def _random_unit_vector(rng: np.random.Generator) -> list[float]:
    v = rng.normal(size=3)
    n = math.sqrt(v.dot(v))  # np.linalg.norm(v), as it computes a vector's norm
    if n < 1e-12:
        return [1.0, 0.0, 0.0]
    return (v / n).tolist()


def generate_scene(cfg: SceneConfig) -> SceneTruth:
    """Generate a scene; deterministic for a fixed config (seed included).

    Each cluster keeps ``fb_per_cluster + lb_per_cluster`` slots occupied:
    a slot's scatterer lives an exponential lifetime (infinite when the
    birth-death rate is 0) and is replaced on death by a new scatterer in
    the same cluster and role. Each scatterer draws its position, speed,
    direction, radar cross section and lifetime, in that order. Every
    first bounce (FB) then carries a single-bounce path and pairs with
    each last bounce (LB) of its cluster whose lifetime overlaps its own,
    in order of cluster, FB id and LB id; each double-bounce path then
    draws its virtual delay.

    Raises:
        ConfigError: where the scene would hold more than
            ``MAX_SCATTERERS`` scatterers or ``MAX_PATHS`` paths.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    bounds = [*zip(cfg.region_min.as_tuple(), cfg.region_max.as_tuple()), (cfg.speed_min, cfg.speed_max)]
    drawn = []  # per scatterer: cluster, is LB, birth, death, x, y, z, speed, direction (3), rcs
    for cluster_id in range(cfg.n_clusters):
        for is_lb, count in ((0, cfg.fb_per_cluster), (1, cfg.lb_per_cluster)):
            for _slot in range(count):
                birth = 0.0
                while birth < cfg.duration:
                    if len(drawn) == MAX_SCATTERERS:
                        raise ConfigError(f"the scene has more than {MAX_SCATTERERS} scatterers: lower "
                                          "birth_death_rate, duration or the scatterers per cluster")
                    place = [float(rng.uniform(lo, hi)) for lo, hi in bounds]
                    unit = _random_unit_vector(rng)
                    rcs = float(rng.uniform(cfg.rcs_min, cfg.rcs_max))
                    if cfg.birth_death_rate > 0.0:
                        death = birth + float(rng.exponential(1.0 / cfg.birth_death_rate))
                    else:
                        death = math.inf
                    drawn.append((cluster_id, is_lb, birth, death, *place, *unit, rcs))
                    birth = death
    a = np.array(drawn)
    cluster, is_lb = a[:, 0].astype(int), a[:, 1] == 1.0
    tracks = Trajectories(np.vstack([a[:, 4:7], cfg.user_start.as_tuple()]),
                          np.vstack([a[:, 8:11] * a[:, 7:8], cfg.user_velocity.as_tuple()]),
                          np.append(a[:, 2], 0.0), np.append(a[:, 3], math.inf))

    # every FB carries its single-bounce path, then pairs with each LB of its cluster whose lifetime overlaps
    fb = np.flatnonzero(~is_lb)
    ends = np.concatenate([np.column_stack([fb, fb]), _double_bounces(cfg, cluster, is_lb, tracks)])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]  # by FB, its single-bounce path first, then by LB
    paths = np.column_stack([np.arange(len(ends)), ends, cluster[ends[:, 0]]])
    virtual_delay = np.zeros(len(paths))
    if cfg.virtual_delay_max > 0.0:  # single-bounce paths have no in-between propagation to stand in for
        double = paths[:, 1] != paths[:, 2]
        virtual_delay[double] = rng.uniform(0.0, cfg.virtual_delay_max, size=np.count_nonzero(double))
    return SceneTruth(cfg, cluster, np.array([ROLE_FB, ROLE_LB])[is_lb.astype(int)], a[:, 11], tracks, paths,
                      virtual_delay)


def _double_bounces(cfg: SceneConfig, cluster: np.ndarray, is_lb: np.ndarray, tracks: Trajectories) -> np.ndarray:
    """The (FB, LB) ids of every double-bounce path, by FB then LB: each LB of the FB's cluster whose
    lifetime overlaps the FB's.

    The paths are counted before any pair is made, from each cluster's sorted LB births and deaths in
    O((F + L) log L): an FB overlaps the LBs born before it dies less those dead by its birth, which were
    born before it dies too. A slot's LBs live one after another in id order, each born as the last one
    dies until one outlives the run, so the LBs of a slot that overlap an FB are a range of ids.

    Raises:
        ConfigError: where the scene would hold more than ``MAX_PATHS`` paths.
    """
    fb, lb = np.flatnonzero(~is_lb), np.flatnonzero(is_lb)
    birth, death = tracks.birth, tracks.death
    fb_cut, lb_cut = (np.searchsorted(cluster[ids], np.arange(cfg.n_clusters + 1)) for ids in (fb, lb))
    n_paths = len(fb)
    for f, g, a, b in zip(fb_cut, fb_cut[1:], lb_cut, lb_cut[1:]):  # each cluster's FBs and LBs
        born, dead = np.sort(birth[lb[a:b]]), np.sort(death[lb[a:b]])
        n_paths += int((born.searchsorted(death[fb[f:g]]) - dead.searchsorted(birth[fb[f:g]], "right")).sum())
    if n_paths > MAX_PATHS:
        raise ConfigError(f"the scene has {n_paths} paths, more than {MAX_PATHS}: lower the scatterers "
                          "per cluster or birth_death_rate")
    if not len(lb):
        return np.zeros((0, 2), dtype=int)
    ranges = []  # per slot and FB of its cluster: the FB, its first and end LB
    slots = [0, *(np.flatnonzero(death[lb[:-1]] >= cfg.duration) + 1).tolist(), len(lb)]  # each slot's LBs
    for a, b in zip(slots, slots[1:]):
        f = fb[fb_cut[cluster[lb[a]]]:fb_cut[cluster[lb[a]] + 1]]
        ranges.append((f, a + death[lb[a:b]].searchsorted(birth[f], "right"),
                       a + birth[lb[a:b]].searchsorted(death[f])))
    f, first, end = (np.concatenate(column) for column in zip(*ranges))
    order = np.argsort(f, kind="stable")  # by FB, a cluster's slots in id order
    f, first, n = f[order], first[order], np.maximum(end - first, 0)[order]
    return np.column_stack([np.repeat(f, n), lb[np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())]])


def _alive_spans(scene: SceneTruth, times: Sequence[float], *tracks: Trajectories) -> tuple:
    """``times``, checked, as an array; their stable sort order; and for each row where all of ``tracks``
    are alive, the position in that order of its first alive time and the number of its alive times."""
    for t in times:
        scene.check_time(t)
    t = np.array(times, dtype=float)
    order = np.argsort(t, kind="stable")
    birth, death = np.max([track.birth for track in tracks], axis=0), np.min([track.death for track in tracks], axis=0)
    first = t[order].searchsorted(birth)
    return t, order, first, np.maximum(t[order].searchsorted(death) - first, 0)


def _alive_rows(t: np.ndarray, order: np.ndarray, first: np.ndarray, count: np.ndarray) -> tuple:
    """The (N,) row and (N,) time of each (time, row) pair of ``_alive_spans``, time by time and in row
    order within a time, and the (K + 1,) offsets of each time's first pair, then N. Each row's pairs are
    its span of the sorted times, so the work and memory follow the pairs, not times x rows."""
    rows = np.repeat(np.arange(len(count)), count)
    k = order[np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - first, count)]
    pick = np.argsort(k, kind="stable")  # rows ascend already
    return rows[pick], t[k[pick]], np.append(0, np.cumsum(np.bincount(k, minlength=len(t))))


def ground_truth_paths(scene: SceneTruth, times: Sequence[float]) -> tuple[TruePaths, np.ndarray]:
    """The paths alive at each of ``times``, with their powers, and the (K + 1,) offsets of each time's rows.

    Every time is resolved in one array pass, into rows in time order:
    the bounce points, delays (the outer legs over c plus the virtual
    delay) and AoDs and AoAs, each bit for bit as the scalar formulas
    give it. Powers follow exp(-delay / pdp_decay) and are normalized to
    sum to 1 over the frame, each frame by its own ``ndarray.sum``; this
    makes the Rician LoS/NLoS power split exact.

    Raises:
        ConfigError: where the run's (frame, path) rows and the (frame, echo)
            rows of ``echoes`` would be more than ``MAX_RUN_ROWS``, counted
            before any is resolved; or where every power of a frame underflows to 0.
    """
    ids, virtual_delay = scene.paths, scene.virtual_delay
    fb_ends, lb_ends = scene.tracks[ids[:, 1]], scene.tracks[ids[:, 2]]
    spans = _alive_spans(scene, times, fb_ends, lb_ends)
    echo_count = _alive_spans(scene, times, scene.tracks[np.flatnonzero(scene.role == ROLE_FB)])[3]
    n_rows = int(spans[3].sum() + echo_count.sum())
    if n_rows > MAX_RUN_ROWS:
        raise ConfigError(f"the run has {n_rows} path and echo rows over its frames, more than {MAX_RUN_ROWS}: "
                          "lower duration, the scatterers per cluster or birth_death_rate, or raise ts")
    rows, t, offsets = _alive_rows(*spans)
    fb, lb = fb_ends[rows].positions(t), lb_ends[rows].positions(t)
    user = scene.trajectories([LOS_PATH_ID]).positions(t[:, None])[:, 0]
    leg, angles, degenerate = path_term_columns(np.array(scene.bs_position.as_tuple()), user, fb, lb)
    delays = leg / SPEED_OF_LIGHT + virtual_delay[rows]
    raw = np.exp(-delays / scene.config.pdp_decay)
    bounds = offsets.tolist()
    sums = np.array([raw[a:b].sum() for a, b in zip(bounds, bounds[1:])])
    for a, b, total in zip(bounds, bounds[1:], sums.tolist()):
        if total == 0.0 and b > a:
            raise ConfigError(
                f"pdp_decay = {scene.config.pdp_decay!r} s underflows every path power to 0 at "
                f"t = {float(t[a])!r} s, where the shortest delay is {float(delays[a:b].min())!r} s"
            )
    powers = raw / np.repeat(sums, np.diff(offsets))
    columns = PathColumns(ids[rows], np.column_stack([powers, delays, angles]), degenerate)
    return TruePaths(columns, fb, lb, virtual_delay[rows]), offsets


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


def echoes(scene: SceneTruth, times: Sequence[float]) -> tuple[EchoColumns, np.ndarray]:
    """Noise-free echo of every first-bounce scatterer alive at each of ``times``, and its offsets.

    Round-trip delay, direction seen from the BS, two-way Doppler of the
    closing speed (receding gives negative Doppler) and radar gain. Every
    time is resolved in one array pass, into rows in time order and in
    scene order within a time. ``echo_delay``, ``doppler_shift`` and
    ``sensing_gain`` are applied element by element: numpy's ``d**4``
    rounds about one distance in twenty differently from Python's.
    """
    ids = np.flatnonzero(scene.role == ROLE_FB)
    tracks = scene.tracks[ids]
    rows, t, offsets = _alive_rows(*_alive_spans(scene, times, tracks))
    moving = tracks[rows]
    disp = moving.positions(t) - np.array(scene.bs_position.as_tuple())
    d, lam = norms(disp), scene.config.wavelength
    distance = d.tolist()
    delay = list(map(echo_delay, distance))  # rejects a zero distance before it is divided by
    closing_speed = -dots(moving.velocity, disp * (1.0 / d)[:, None])
    doppler = list(map(doppler_shift, itertools.repeat(lam), closing_speed.tolist()))
    gain = list(map(sensing_gain, itertools.repeat(lam), scene.rcs[ids[rows]].tolist(), distance))
    angles, degenerate = direction_columns(disp)
    return EchoColumns(ids[rows], np.column_stack([delay, angles, doppler, gain]), degenerate), offsets


def check_round_trip_delays(delays: np.ndarray) -> None:
    """Reject the first round-trip delay that is not positive."""
    bad = ~(delays > 0.0)
    if bad.any():
        raise ConfigError(f"round-trip delay must be positive, got {float(delays[np.argmax(bad)])}")


def observe(scene: SceneTruth, times: Sequence[float], noise: tuple[float, float], rng: np.random.Generator,
            paths: TruePaths, path_offsets: np.ndarray, detections: EchoColumns,
            echo_offsets: np.ndarray) -> Observations:
    """Noisy measurement frames of a run at ``times``, one or more.

    Communication observations carry the true per-path delay, departure
    and arrival angles, and power, with zero-mean Gaussian noise of std
    ``noise = (sigma_delay, sigma_angle)`` added to delay and angles.
    Sensing detections cover every alive first-bounce scatterer with the
    echo round-trip delay (noisy), direction at the BS (noisy), Doppler
    and gain (exact). A LoS observation between BS and user is always
    present (the scene models no occlusion).

    ``paths`` and ``detections``, with their offsets, are the run's
    ``ground_truth_paths`` and ``echoes``, resolved by the caller and left
    unchanged; the observations share their id and flag columns. The noise is
    one standard-normal draw for the run, one value per measurement in
    this order, frame by frame: per path the delay, AoD azimuth and
    elevation, AoA azimuth and elevation; the LoS the same way; per echo
    the round-trip delay, azimuth and elevation. Each is 0.0 + sigma * z,
    as ``rng.normal(0.0, sigma)`` draws it one at a time; the stream does
    not depend on how it is split into calls. Of several faults, the
    first in frame order raises.
    """
    if len(times) == 0:
        raise ConfigError("a run needs at least one frame time to observe")
    scale = np.repeat(np.array(noise, dtype=float), [1, 4])  # sigma_delay, then sigma_angle four times
    if (scale < 0.0).any():
        raise ConfigError("noise standard deviations must be nonnegative")
    t = np.array(times, dtype=float)
    bs = np.array(scene.bs_position.as_tuple())
    user = scene.trajectories([LOS_PATH_ID]).positions(t[:, None])[:, 0]
    comm, sensing = (replace(part, table=part.table.copy()) for part in (paths.columns, detections))
    n, m = np.diff(path_offsets), np.diff(echo_offsets)
    # each frame draws 5 values per path, then 5 for the LoS, then 3 per echo
    part = np.repeat(np.tile(np.int8([0, 1, 2]), len(t)), np.column_stack([5 * n, np.full(len(t), 5), 3 * m]).ravel())
    z = rng.standard_normal(part.size)
    path_noise, los_noise, echo_noise = (z[part == i].reshape(-1, w) * scale[:w] + 0.0 for i, w in enumerate((5, 5, 3)))
    comm.table[:, 1:] += path_noise  # the copies, noised in place
    sensing.table[:, :3] += echo_noise

    # the first faulty frame raises its first fault; a noisy LoS angle is non-finite where its noise is
    faulty = ~((0.0 <= t) & (t <= scene.duration)) | (norms(user - bs) == 0.0) | ~np.isfinite(los_noise[:, 1:]).all(1)
    path_frame, echo_frame = (np.repeat(np.arange(len(t)), counts) for counts in (n, m))
    faulty[path_frame[~np.isfinite(comm.table[:, 2:]).all(axis=1)]] = True
    faulty[echo_frame[~(np.isfinite(sensing.table[:, 1:3]).all(axis=1) & (sensing.table[:, 0] > 0.0))]] = True
    if faulty.any():
        f = int(np.argmax(faulty))
        scene.check_time(times[f])  # as one frame checks: its time, its LoS leg, its noisy angles, its delays
        direction_columns(user[f:f + 1] - bs)
        for angles in (comm.table[path_frame == f, 2:], los_noise[f:f + 1, 1:], sensing.table[echo_frame == f, 1:3]):
            for azimuth, elevation in angles.reshape(-1, 2).tolist():
                if not math.isfinite(azimuth):
                    raise GeometryError(f"cannot wrap non-finite angle {azimuth!r}")
                if not math.isfinite(elevation):
                    raise GeometryError(f"non-finite elevation {elevation!r}")
        check_round_trip_delays(sensing.table[echo_frame == f, 0])

    leg, los_angles, los_degenerate = path_term_columns(bs, user, user, bs)  # both legs are the direct path
    los_table = np.column_stack([np.ones(len(t)), leg / 2.0 / SPEED_OF_LIGHT, los_angles])
    los_table[:, 1:] += los_noise
    for angles in (comm.table[:, 2:], los_table[:, 2:], sensing.table[:, 1:3]):
        normalize_angle_columns(angles)
    los = PathColumns(np.full((len(t), 4), LOS_PATH_ID), los_table, los_degenerate)
    offsets = np.column_stack([path_offsets, echo_offsets, np.arange(len(t) + 1)])
    return Observations(list(times), comm, sensing, los, offsets)


# --- scene file format -------------------------------------------------------
#
# Line-oriented text, one record per line:
#   "# isacsim scene v1"  header
#   "C <field> <values>"  one line per SceneConfig field
#   "S <id> <cluster> <role> <birth> <death> <px> <py> <pz> <vx> <vy> <vz> <rcs>"
#   "P <path_id> <fb_id> <lb_id> <cluster> <virtual_delay>"
# Floats are written with repr(). The file is written for readers and is
# never parsed: a later stage rebuilds the scene from the run's config
# and checks the file against that scene's text byte for byte.

SCENE_HEADER = "# isacsim scene v1"


def _fmt(value: float) -> str:
    return repr(float(value))


def render_value(value) -> str:
    """Text of a config int, float (repr, exact round trip) or Vec3."""
    if isinstance(value, Vec3):
        return " ".join(_fmt(c) for c in value.as_tuple())
    return str(value) if isinstance(value, int) else _fmt(value)


def scene_to_text(scene: SceneTruth) -> str:
    config = [f"C {f.name} {render_value(getattr(scene.config, f.name))}" for f in fields(SceneConfig)]
    t = scene.tracks  # its last row, the user's, is left out by zip
    columns = (scene.cluster_id, scene.role, t.birth, t.death, t.anchor, t.velocity, scene.rcs)
    scatterers = [f"S {sid} {c} {role} {b!r} {d!r} {x!r} {y!r} {z!r} {vx!r} {vy!r} {vz!r} {rcs!r}"
                  for sid, (c, role, b, d, (x, y, z), (vx, vy, vz), rcs) in enumerate(zip(*map(np.ndarray.tolist, columns)))]
    paths = [f"P {p} {fb} {lb} {c} {vd!r}" for (p, fb, lb, c), vd in zip(scene.paths.tolist(),
                                                                           scene.virtual_delay.tolist())]
    return "\n".join([SCENE_HEADER, *config, *scatterers, *paths]) + "\n"


def save_scene(scene: SceneTruth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_to_text(scene))


def load_scene(path: str, cfg: SceneConfig) -> SceneTruth:
    """The scene ``cfg`` generates, once the file at ``path`` holds exactly its ``scene_to_text``.

    Raises:
        ConfigError: naming the file's first line that differs, end of file counted as a line.
    """
    scene = generate_scene(cfg)
    want = scene_to_text(scene)
    with open(path, "r", encoding="utf-8", errors="backslashreplace", newline="") as fh:
        found = fh.read()
    if found != want:
        pairs = itertools.zip_longest(found.splitlines(keepends=True), want.splitlines(keepends=True))
        n, got, line = next((n, *pair) for n, pair in enumerate(pairs, start=1) if pair[0] != pair[1])
        got, line = ("end of file" if text is None else repr(text) for text in (got, line))
        raise ConfigError(f"{path} does not match the scene its config generates: line {n} is {got}, expected {line}")
    return scene
