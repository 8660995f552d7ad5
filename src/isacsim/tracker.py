"""Particle-filter localization of the user and the path scatterers.

One independent cloud per tracked entity: the user, and per comm path a
first-bounce (FB) and a last-bounce (LB) cloud. All entities share
constant-velocity dynamics; measurements are range/bearing slices taken
from the observation frames (sensing round trip and comm departure
angles for FB, residual delay and arrival angles for LB, direct-path
delay and departure angles for the user). Weights are Gaussian
likelihoods of the wrapped residuals, resampling is systematic, and the
point estimate is the highest-weight particle.

Every cloud owns its rng stream (spawned from one seed), so step order
never changes the draws a cloud sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import ORIGIN, AngleSet, GeometryError, Vec3, check_finite, path_terms, unit_vector_from_angles
from .scene import (
    LOS_PATH_ID,
    ObservationFrame,
    PathObservation,
    SceneTruth,
    ground_truth_paths,
)

KIND_USER = "user"
KIND_FB = "fb"
KIND_LB = "lb"

USER_KEY = (KIND_USER, LOS_PATH_ID)

_EPS = 1e-9


class TrackerError(ValueError):
    """Invalid tracker input or broken stepping contract."""


@dataclass(frozen=True)
class EntityState:
    """Position and velocity of one tracked entity."""

    position: Vec3
    velocity: Vec3

    def as_array(self) -> np.ndarray:
        return np.array(self.position.as_tuple() + self.velocity.as_tuple())

    @classmethod
    def from_array(cls, a: np.ndarray) -> "EntityState":
        return cls(
            Vec3(float(a[0]), float(a[1]), float(a[2])),
            Vec3(float(a[3]), float(a[4]), float(a[5])),
        )


@dataclass(frozen=True)
class TrackerConfig:
    """Filter knobs; defaults match the shipped run configuration."""

    n_particles: int = 1000
    ts: float = 0.1
    process_pos_std: float = 0.1
    process_vel_std: float = 0.05
    meas_delay_std: float = 5e-9
    meas_angle_std: float = math.radians(1.0)
    init_pos_std: float = 2.0
    init_vel_std: float = 0.5
    gate_sigma: float = 3.0

    def validate(self) -> None:
        check_finite(self, TrackerError)
        if self.n_particles < 1:
            raise TrackerError("need at least one particle")
        if self.ts <= 0.0:
            raise TrackerError(f"sampling interval must be positive, got {self.ts}")
        if self.meas_delay_std <= 0.0 or self.meas_angle_std <= 0.0:
            raise TrackerError("measurement noise stds must be positive")
        for name in ("process_pos_std", "process_vel_std", "init_pos_std", "init_vel_std"):
            if getattr(self, name) < 0.0:
                raise TrackerError(f"{name} must be nonnegative")
        if self.gate_sigma <= 0.0:
            raise TrackerError("gate_sigma must be positive")


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """C weighted constant-velocity hypotheses for one entity.

    ``states`` is (C, 6): columns x, y, z, vx, vy, vz. The rng is owned
    by the cloud and shared (deliberately) across its successive
    versions; ``diverged`` latches once a weight update underflows.
    """

    kind: str
    path_id: int
    entity_id: int
    states: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator
    diverged: bool = False

    def __post_init__(self) -> None:
        if self.states.ndim != 2 or self.states.shape[1] != 6:
            raise TrackerError(f"states must be (C, 6), got {self.states.shape}")
        if self.weights.shape != (self.states.shape[0],):
            raise TrackerError("one weight per particle required")
        if self.states.shape[0] < 1:
            raise TrackerError("cloud needs at least one particle")

    @property
    def size(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementSlice:
    """One entity's measurement: optional delay plus bearing angles.

    ``values`` is [delay_s, azimuth, elevation] (or [azimuth, elevation]
    when ``include_delay`` is false); all are taken relative to
    ``reference``, the point the entity is ranged/sighted from.
    """

    reference: Vec3
    values: np.ndarray
    sigmas: np.ndarray
    include_delay: bool = True

    def __post_init__(self) -> None:
        expect = 3 if self.include_delay else 2
        if self.values.shape != (expect,) or self.sigmas.shape != (expect,):
            raise TrackerError(f"slice needs {expect} values and sigmas")
        if np.any(self.sigmas <= 0.0):
            raise TrackerError("measurement noise stds must be positive")

    @property
    def angle_mask(self) -> np.ndarray:
        mask = np.ones(self.values.shape[0], dtype=bool)
        if self.include_delay:
            mask[0] = False
        return mask


def predicted_slice_values(states: np.ndarray, z: MeasurementSlice) -> np.ndarray:
    """Per-particle predicted measurement for slice ``z``, shape (C, m)."""
    ref = np.array(z.reference.as_tuple())
    disp = states[:, :3] - ref
    d = np.linalg.norm(disp, axis=1)
    safe = np.where(d > 0.0, d, 1.0)
    az = np.arctan2(disp[:, 1], disp[:, 0])
    el = np.arcsin(np.clip(disp[:, 2] / safe, -1.0, 1.0))
    az = np.where(d > 0.0, az, 0.0)
    el = np.where(d > 0.0, el, 0.0)
    cols = [az, el]
    if z.include_delay:
        cols.insert(0, d / SPEED_OF_LIGHT)
    return np.stack(cols, axis=1)


def predict(
    cloud: ParticleCloud,
    ts: float,
    process_noise: tuple[float, float],
    rng: np.random.Generator | None = None,
) -> ParticleCloud:
    """Constant-velocity transition with additive Gaussian process noise.

    Positions advance by velocity times ``ts`` plus noise; velocities by
    noise alone. Zero noise gives the exact linear advance.
    """
    if ts <= 0.0:
        raise TrackerError(f"sampling interval must be positive, got {ts}")
    pos_std, vel_std = process_noise
    if pos_std < 0.0 or vel_std < 0.0:
        raise TrackerError("process noise stds must be nonnegative")
    gen = cloud.rng if rng is None else rng
    c = cloud.size
    states = cloud.states.copy()
    states[:, :3] += states[:, 3:] * ts + gen.normal(0.0, pos_std, size=(c, 3))
    states[:, 3:] += gen.normal(0.0, vel_std, size=(c, 3))
    return replace(cloud, states=states)


def weight(cloud: ParticleCloud, z: MeasurementSlice) -> ParticleCloud:
    """Gaussian-likelihood reweighting against one measurement slice.

    Residuals are componentwise, angles wrapped into (-pi, pi]; the log
    weights are shifted by their maximum before exponentiation. If every
    weight still underflows to zero the cloud falls back to uniform
    weights and latches its divergence flag.
    """
    predicted = predicted_slice_values(cloud.states, z)
    residual = z.values[None, :] - predicted
    mask = z.angle_mask
    residual[:, mask] = np.mod(residual[:, mask] + np.pi, 2.0 * np.pi) - np.pi
    with np.errstate(over="ignore"):  # far-off particles saturate to -inf
        log_w = -0.5 * np.sum((residual / z.sigmas[None, :]) ** 2, axis=1)
    peak = np.max(log_w)
    if np.isfinite(peak):
        w = np.exp(log_w - peak)
        total = float(np.sum(w))
    else:
        total = 0.0
    if total <= 0.0 or not np.isfinite(total):
        c = cloud.size
        return replace(cloud, weights=np.full(c, 1.0 / c), diverged=True)
    return replace(cloud, weights=w / total)


def resample(cloud: ParticleCloud, rng: np.random.Generator | None = None) -> ParticleCloud:
    """Systematic resampling; C preserved, weights reset to 1/C.

    Output particles are a multiset subset of the input; a particle with
    weight w is copied about C*w times.
    """
    gen = cloud.rng if rng is None else rng
    c = cloud.size
    positions = (gen.random() + np.arange(c)) / c
    cumulative = np.cumsum(cloud.weights)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard rounding at the top end
    idx = np.searchsorted(cumulative, positions, side="right")
    idx = np.minimum(idx, c - 1)
    return replace(cloud, states=cloud.states[idx].copy(), weights=np.full(c, 1.0 / c))


def estimate(cloud: ParticleCloud) -> EntityState:
    """State of the highest-weight particle (first one on ties)."""
    return EntityState.from_array(cloud.states[int(np.argmax(cloud.weights))])


def predict_measurement(
    user: EntityState,
    fb: EntityState,
    lb: EntityState,
    bs_pos: Vec3 = ORIGIN,
    virtual_delay: float = 0.0,
    path_id: int = -2,
    fb_id: int = -2,
    lb_id: int = -2,
    cluster_id: int = -2,
) -> PathObservation:
    """Noise-free path observation implied by hypothesized entity states.

    Delay is the two outer legs over c plus ``virtual_delay``; departure
    angles point from the BS at the first bounce, arrival angles from the
    user at the last bounce. Degenerate (vertical) directions come back
    flagged on the AngleSet rather than raising.
    """
    try:
        leg, aod, aoa = path_terms(bs_pos, user.position, fb.position, lb.position)
    except GeometryError as exc:
        raise TrackerError("first bounce must be away from the BS and last bounce away from the user") from exc
    return PathObservation(path_id, fb_id, lb_id, cluster_id, leg / SPEED_OF_LIGHT + virtual_delay, aod, aoa, 0.0)


def solve_lb_range(
    anchor: Vec3,
    user_pos: Vec3,
    aoa: AngleSet,
    total_range: float,
    slack: float = 0.0,
) -> float | None:
    """Range r to the last bounce along the arrival direction.

    Solves |anchor - (user + r u)| = total_range - r for the point on the
    arrival ray whose distance to ``anchor`` exhausts the remaining range
    budget. Returns None when no nonnegative solution exists; ``slack``
    (meters) tolerates measurement noise around the feasibility boundary
    total_range >= |anchor - user|.
    """
    if total_range < -slack:
        return None
    a = max(total_range, 0.0)
    u = unit_vector_from_angles(aoa)
    w = anchor - user_pos
    wn = w.norm()
    if a < wn:
        # infeasible as measured; within slack treat as a grazing ray
        return a if wn - a <= slack else None
    scale = max(a, wn, 1.0)
    denom = a - w.dot(u)
    if denom <= _EPS * scale:
        # collinear limit: the ray passes through the anchor
        return wn
    r = (a * a - wn * wn) / (2.0 * denom)
    return min(max(r, 0.0), a)


@dataclass(frozen=True)
class StepRecord:
    """Estimates and flags produced by one tracker step."""

    k: int
    time: float
    estimates: dict[tuple[str, int], EntityState]
    coasted: frozenset[tuple[str, int]]
    diverged: frozenset[tuple[str, int]]


@dataclass(frozen=True)
class TrackerState:
    """Filter state after k steps plus the per-step history."""

    k: int
    time: float
    config: TrackerConfig
    bs_pos: Vec3
    clouds: dict[tuple[str, int], ParticleCloud]
    failed_paths: tuple[int, ...]
    records: tuple[StepRecord, ...]

    def cloud_keys(self) -> list[tuple[str, int]]:
        """User first, then FB clouds, then LB clouds, each by path id."""
        fb = sorted(k for k in self.clouds if k[0] == KIND_FB)
        lb = sorted(k for k in self.clouds if k[0] == KIND_LB)
        return [USER_KEY] + fb + lb


def _seed_cloud(
    kind: str,
    path_id: int,
    entity_id: int,
    mean: EntityState,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    pos_std: float,
    vel_std: float,
) -> ParticleCloud:
    c = cfg.n_particles
    states = np.tile(mean.as_array(), (c, 1))
    states[:, :3] += rng.normal(0.0, pos_std, size=(c, 3))
    states[:, 3:] += rng.normal(0.0, vel_std, size=(c, 3))
    return ParticleCloud(kind, path_id, entity_id, states, np.full(c, 1.0 / c), rng)


def _gated_detection(
    obs: PathObservation,
    frame: ObservationFrame,
    cfg: TrackerConfig,
):
    """Sensing detection for the path's first bounce, or None if out of gate."""
    det = frame.sensing_by_id().get(obs.fb_id)
    if det is None:
        return None
    d_az = math.remainder(det.angle.azimuth - obs.aod.azimuth, 2.0 * math.pi)
    if abs(d_az) > cfg.gate_sigma * cfg.meas_angle_std:
        return None
    if abs(det.angle.elevation - obs.aod.elevation) > cfg.gate_sigma * cfg.meas_angle_std:
        return None
    if obs.delay - det.round_trip_delay / 2.0 < -cfg.gate_sigma * cfg.meas_delay_std:
        return None
    return det


def initialize(
    frame0: ObservationFrame,
    bs_pos: Vec3,
    user0: EntityState,
    cfg: TrackerConfig,
    seed: int | np.random.SeedSequence,
) -> TrackerState:
    """Build clouds from the first observation frame.

    First-bounce points come from the sensing echo matched to the comm
    path by departure-angle and delay gates; the last bounce sits on the
    arrival ray at the range left once the sensed first leg is paid for.
    A path with no in-gate echo falls back to a single-bounce hypothesis
    (one scatterer solved from the comm path alone, FB = LB). Paths whose
    range budget is infeasible beyond the noise slack are dropped and
    reported in ``failed_paths``.
    """
    cfg.validate()
    slack = cfg.gate_sigma * SPEED_OF_LIGHT * cfg.meas_delay_std

    plans: list[tuple[int, PathObservation, Vec3 | None]] = []
    failed: list[int] = []
    for obs in sorted(frame0.comm_paths, key=lambda o: o.path_id):
        det = _gated_detection(obs, frame0, cfg)
        if det is not None:
            d_fb = SPEED_OF_LIGHT * det.round_trip_delay / 2.0
            fb_point = bs_pos + unit_vector_from_angles(det.angle) * d_fb
            remaining = SPEED_OF_LIGHT * obs.delay - d_fb
            if remaining < -slack:
                failed.append(obs.path_id)
                continue
            lb_point = user0.position + unit_vector_from_angles(obs.aoa) * max(remaining, 0.0)
            plans.append((obs.path_id, obs, fb_point))
            plans.append((obs.path_id, obs, lb_point))
        else:
            r = solve_lb_range(bs_pos, user0.position, obs.aoa, SPEED_OF_LIGHT * obs.delay, slack)
            if r is None:
                failed.append(obs.path_id)
                continue
            point = user0.position + unit_vector_from_angles(obs.aoa) * r
            plans.append((obs.path_id, obs, point))
            plans.append((obs.path_id, obs, point))

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(1 + len(plans))]

    clouds: dict[tuple[str, int], ParticleCloud] = {}
    clouds[USER_KEY] = _seed_cloud(
        KIND_USER, LOS_PATH_ID, LOS_PATH_ID, user0, cfg, streams[0],
        cfg.init_pos_std, cfg.init_vel_std,
    )
    still = Vec3(0.0, 0.0, 0.0)
    for (path_id, obs, point), rng in zip(plans[0::2], streams[1::2]):
        clouds[(KIND_FB, path_id)] = _seed_cloud(
            KIND_FB, path_id, obs.fb_id, EntityState(point, still), cfg, rng,
            cfg.init_pos_std, cfg.init_vel_std,
        )
    for (path_id, obs, point), rng in zip(plans[1::2], streams[2::2]):
        clouds[(KIND_LB, path_id)] = _seed_cloud(
            KIND_LB, path_id, obs.lb_id, EntityState(point, still), cfg, rng,
            cfg.init_pos_std, cfg.init_vel_std,
        )

    ordered = {USER_KEY: clouds[USER_KEY]}
    for key in sorted(k for k in clouds if k[0] == KIND_FB):
        ordered[key] = clouds[key]
    for key in sorted(k for k in clouds if k[0] == KIND_LB):
        ordered[key] = clouds[key]

    record = StepRecord(
        0,
        frame0.time,
        {key: estimate(c) for key, c in ordered.items()},
        frozenset(),
        frozenset(),
    )
    return TrackerState(0, frame0.time, cfg, bs_pos, ordered, tuple(failed), (record,))


def initialize_at_truth(
    scene: SceneTruth,
    cfg: TrackerConfig,
    seed: int | np.random.SeedSequence,
    t0: float = 0.0,
) -> TrackerState:
    """Clouds seeded exactly at the true states (positions and velocities).

    Bypasses the measurement-driven construction; every particle starts
    on the truth, so with zero process noise the filter is a fixed point
    of the stepping recursion. Meant for exactness checks.
    """
    cfg.validate()
    truths = ground_truth_paths(scene, t0)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(1 + 2 * len(truths))]

    user0 = EntityState(scene.user_position(t0), scene.config.user_velocity)
    clouds: dict[tuple[str, int], ParticleCloud] = {}
    clouds[USER_KEY] = _seed_cloud(
        KIND_USER, LOS_PATH_ID, LOS_PATH_ID, user0, cfg, streams[0], 0.0, 0.0
    )
    fb_clouds = {}
    lb_clouds = {}
    for i, pt in enumerate(sorted(truths, key=lambda p: p.path_id)):
        fb = scene.scatterer(pt.fb_id)
        lb = scene.scatterer(pt.lb_id)
        fb_state = EntityState(fb.position_at(t0), fb.velocity)
        lb_state = EntityState(lb.position_at(t0), lb.velocity)
        fb_clouds[(KIND_FB, pt.path_id)] = _seed_cloud(
            KIND_FB, pt.path_id, pt.fb_id, fb_state, cfg, streams[1 + 2 * i], 0.0, 0.0
        )
        lb_clouds[(KIND_LB, pt.path_id)] = _seed_cloud(
            KIND_LB, pt.path_id, pt.lb_id, lb_state, cfg, streams[2 + 2 * i], 0.0, 0.0
        )
    clouds.update(sorted(fb_clouds.items()))
    clouds.update(sorted(lb_clouds.items()))

    record = StepRecord(
        0, t0, {key: estimate(c) for key, c in clouds.items()}, frozenset(), frozenset()
    )
    return TrackerState(0, t0, cfg, scene.bs_position, clouds, (), (record,))


def _slice_for(
    key: tuple[str, int],
    cloud: ParticleCloud,
    frame: ObservationFrame,
    cfg: TrackerConfig,
    bs_pos: Vec3,
    estimates: dict[tuple[str, int], EntityState],
) -> MeasurementSlice | None:
    kind, path_id = key
    s_d, s_a = cfg.meas_delay_std, cfg.meas_angle_std
    if kind == KIND_USER:
        if frame.los is None:
            return None
        los = frame.los
        return MeasurementSlice(
            bs_pos,
            np.array([los.delay, los.aod.azimuth, los.aod.elevation]),
            np.array([s_d, s_a, s_a]),
        )
    obs = frame.comm_by_path().get(path_id)
    if obs is None:
        return None
    if kind == KIND_FB:
        det = frame.sensing_by_id().get(cloud.entity_id)
        if det is not None:
            return MeasurementSlice(
                bs_pos,
                np.array([det.round_trip_delay / 2.0, obs.aod.azimuth, obs.aod.elevation]),
                np.array([s_d / 2.0, s_a, s_a]),
            )
        return MeasurementSlice(
            bs_pos,
            np.array([obs.aod.azimuth, obs.aod.elevation]),
            np.array([s_a, s_a]),
            include_delay=False,
        )
    # last bounce: range is what the comm delay leaves after the sensed first leg
    fb_est = estimates[(KIND_FB, path_id)]
    user_est = estimates[USER_KEY]
    residual_delay = obs.delay - fb_est.position.distance_to(bs_pos) / SPEED_OF_LIGHT
    return MeasurementSlice(
        user_est.position,
        np.array([residual_delay, obs.aoa.azimuth, obs.aoa.elevation]),
        np.array([s_d, s_a, s_a]),
    )


def step(tracker: TrackerState, frame: ObservationFrame) -> TrackerState:
    """Advance every cloud by one frame: predict, weight, estimate, resample.

    Clouds with no usable observation this frame coast on prediction
    alone. The user cloud updates first, then FB clouds, then LB clouds,
    because the LB slice is built from this step's user and FB estimates.
    Estimates are taken from the weighted clouds before resampling.
    """
    cfg = tracker.config
    if not math.isclose(frame.time, tracker.time + cfg.ts, rel_tol=0.0, abs_tol=1e-9):
        raise TrackerError(
            f"frame at t={frame.time} does not follow t={tracker.time} by Ts={cfg.ts}"
        )
    noise = (cfg.process_pos_std, cfg.process_vel_std)
    new_clouds: dict[tuple[str, int], ParticleCloud] = {}
    estimates: dict[tuple[str, int], EntityState] = {}
    coasted: set[tuple[str, int]] = set()
    diverged: set[tuple[str, int]] = set()

    for key in tracker.cloud_keys():
        cloud = predict(tracker.clouds[key], cfg.ts, noise)
        z = _slice_for(key, cloud, frame, cfg, tracker.bs_pos, estimates)
        if z is None:
            coasted.add(key)
            estimates[key] = estimate(cloud)
        else:
            cloud = weight(cloud, z)
            estimates[key] = estimate(cloud)
            cloud = resample(cloud)
        if cloud.diverged:
            diverged.add(key)
        new_clouds[key] = cloud

    record = StepRecord(
        tracker.k + 1, frame.time, estimates, frozenset(coasted), frozenset(diverged)
    )
    return TrackerState(
        tracker.k + 1,
        frame.time,
        cfg,
        tracker.bs_pos,
        new_clouds,
        tracker.failed_paths,
        tracker.records + (record,),
    )
