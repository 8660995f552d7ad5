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

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import AngleSet, Vec3, angles_from_displacement, check_finite, path_terms, wrap_angle

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


@dataclass(frozen=True)
class PathTruth:
    """Path identity plus its bounce points, delay, angles and power at one time."""

    path_id: int
    fb_id: int
    lb_id: int
    cluster_id: int
    virtual_delay: float
    power: float
    fb: Vec3
    lb: Vec3
    delay: float
    aod: AngleSet
    aoa: AngleSet

    def __post_init__(self) -> None:
        if self.power < 0.0 or self.virtual_delay < 0.0:
            raise ConfigError("path power and virtual delay must be nonnegative")


@dataclass(frozen=True)
class PathObservation:
    """One multipath component as seen by the communication receiver.

    ``path_id``/``fb_id``/``lb_id`` carry the data association the
    tracker is given; the LoS observation uses LOS_PATH_ID throughout.
    """

    path_id: int
    fb_id: int
    lb_id: int
    cluster_id: int
    delay: float
    aod: AngleSet
    aoa: AngleSet
    power: float
    kind: str = "nlos"

    @property
    def degenerate(self) -> bool:
        return self.aod.degenerate or self.aoa.degenerate


@dataclass(frozen=True)
class SensingDetection:
    """Echo parameters of one first-bounce scatterer at the ISAC BS."""

    scatterer_id: int
    round_trip_delay: float
    angle: AngleSet
    doppler: float
    gain: float

    def __post_init__(self) -> None:
        if not self.round_trip_delay > 0.0:
            raise ConfigError(f"round-trip delay must be positive, got {self.round_trip_delay}")


@dataclass(frozen=True)
class ObservationFrame:
    """All measurements available at one sampling instant."""

    time: float
    comm_paths: tuple[PathObservation, ...]
    sensing_detections: tuple[SensingDetection, ...]
    los: PathObservation | None = None

    def comm_by_path(self) -> dict[int, PathObservation]:
        return {obs.path_id: obs for obs in self.comm_paths}

    def sensing_by_id(self) -> dict[int, SensingDetection]:
        return {det.scatterer_id: det for det in self.sensing_detections}


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
    def _paths_by_id(self) -> dict[int, PathSkeleton]:
        return {p.path_id: p for p in self.paths}

    @property
    def bs_position(self) -> Vec3:
        return self.config.bs_position

    @property
    def duration(self) -> float:
        return self.config.duration

    def scatterer(self, sid: int) -> ScattererTruth:
        return self._by_id[sid]

    def path(self, pid: int) -> PathSkeleton:
        return self._paths_by_id[pid]

    def user_position(self, t: float) -> Vec3:
        return self.config.user_start + self.config.user_velocity * t

    def alive_scatterers(self, t: float, role: str | None = None) -> list[ScattererTruth]:
        return [s for s in self.scatterers if s.alive(t) and (role is None or s.role == role)]

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


def ground_truth_paths(scene: SceneTruth, t: float) -> list[PathTruth]:
    """Alive paths at ``t`` with powers from the exponential delay profile.

    Each path is resolved once: its bounce points at ``t``, its delay (the
    outer legs over c plus the virtual delay) and its AoD and AoA. Powers
    follow exp(-delay / pdp_decay) and are normalized to sum to 1 over the
    frame, which makes the Rician LoS/NLoS power split exact.
    """
    scene.check_time(t)
    bs, user = scene.bs_position, scene.user_position(t)
    alive = []
    for p in scene.paths:
        fb, lb = scene.scatterer(p.fb_id), scene.scatterer(p.lb_id)
        if fb.alive(t) and lb.alive(t):
            fb_pos, lb_pos = fb.position_at(t), lb.position_at(t)
            leg, aod, aoa = path_terms(bs, user, fb_pos, lb_pos)
            alive.append((p, fb_pos, lb_pos, leg / SPEED_OF_LIGHT + p.virtual_delay, aod, aoa))
    if not alive:
        return []
    raw = np.exp(-np.array([a[3] for a in alive]) / scene.config.pdp_decay)
    powers = raw / raw.sum()
    return [
        PathTruth(p.path_id, p.fb_id, p.lb_id, p.cluster_id, p.virtual_delay, float(w), *terms)
        for (p, *terms), w in zip(alive, powers)
    ]


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


def echoes(scene: SceneTruth, t: float) -> list[SensingDetection]:
    """Noise-free echo of every first-bounce scatterer alive at ``t``, in scene order.

    Round-trip delay, direction seen from the BS, two-way Doppler of the
    closing speed (receding gives negative Doppler) and radar gain.
    """
    scene.check_time(t)
    bs, lam = scene.bs_position, scene.config.wavelength
    out = []
    for s in scene.alive_scatterers(t, role=ROLE_FB):
        disp = s.position_at(t) - bs
        d = disp.norm()
        closing_speed = -s.velocity.dot(disp * (1.0 / d))
        out.append(SensingDetection(
            s.id, echo_delay(d), angles_from_displacement(disp), doppler_shift(lam, closing_speed),
            sensing_gain(lam, s.rcs, d),
        ))
    return out


def _noisy_angles(a: AngleSet, sigma: float, rng: np.random.Generator) -> AngleSet:
    az = wrap_angle(a.azimuth + float(rng.normal(0.0, sigma)))
    el = a.elevation + float(rng.normal(0.0, sigma))
    return AngleSet(az, el, degenerate=a.degenerate)


def observe(
    scene: SceneTruth,
    t: float,
    noise: tuple[float, float],
    rng: np.random.Generator,
) -> ObservationFrame:
    """Noisy measurement frame at time ``t``.

    Communication observations carry the true per-path delay, departure
    and arrival angles, and power, with zero-mean Gaussian noise of std
    ``noise = (sigma_delay, sigma_angle)`` added to delay and angles.
    Sensing detections cover every alive first-bounce scatterer with the
    echo round-trip delay (noisy), direction at the BS (noisy), Doppler
    and gain (exact). A LoS observation between BS and user is always
    present (the scene models no occlusion).
    """
    sigma_delay, sigma_angle = noise
    if sigma_delay < 0.0 or sigma_angle < 0.0:
        raise ConfigError("noise standard deviations must be nonnegative")
    scene.check_time(t)

    comm = [
        PathObservation(
            p.path_id, p.fb_id, p.lb_id, p.cluster_id,
            p.delay + float(rng.normal(0.0, sigma_delay)),
            _noisy_angles(p.aod, sigma_angle, rng),
            _noisy_angles(p.aoa, sigma_angle, rng),
            p.power,
        )
        for p in ground_truth_paths(scene, t)
    ]

    bs, user = scene.bs_position, scene.user_position(t)
    leg, aod, aoa = path_terms(bs, user, user, bs)  # both legs are the direct path
    los = PathObservation(
        LOS_PATH_ID,
        LOS_PATH_ID,
        LOS_PATH_ID,
        LOS_PATH_ID,
        leg / 2.0 / SPEED_OF_LIGHT + float(rng.normal(0.0, sigma_delay)),
        _noisy_angles(aod, sigma_angle, rng),
        _noisy_angles(aoa, sigma_angle, rng),
        1.0,
        kind="los",
    )

    detections = [
        replace(
            e,
            round_trip_delay=e.round_trip_delay + float(rng.normal(0.0, sigma_delay)),
            angle=_noisy_angles(e.angle, sigma_angle, rng),
        )
        for e in echoes(scene, t)
    ]
    return ObservationFrame(t, tuple(comm), tuple(detections), los)


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
    paths: list[PathSkeleton] = []
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
                paths.append(
                    PathSkeleton(int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]))
                )
            else:
                raise ConfigError(f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"scene file line {lineno}: {exc}") from exc
    cfg = SceneConfig(**cfg_kwargs)  # type: ignore[arg-type]
    cfg.validate()
    return SceneTruth(cfg, tuple(scatterers), tuple(paths))


def save_scene(scene: SceneTruth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_to_text(scene))


def load_scene(path: str) -> SceneTruth:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_text(fh.read())
