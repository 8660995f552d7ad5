"""Particle-filter localization of the user and the path scatterers.

One cloud per tracked entity: the user, and per comm path a first-bounce
(FB) and a last-bounce (LB) cloud, all stepped as one batch (``Clouds``).
All entities share constant-velocity dynamics; measurements are
range/bearing slices taken from the observation frames (sensing round
trip and comm departure angles for FB, residual delay and arrival angles
for LB, direct-path delay and departure angles for the user). Weights
are Gaussian likelihoods of the wrapped residuals, resampling is
systematic, the point estimate is the highest-weight particle, and the
effective sample size 1/sum(w^2) is recorded before resampling.

Every cloud owns its rng stream (spawned from one seed) and draws from
it in the same order as when stepped alone, so batching never changes
the draws a cloud sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import (
    HALF_PI,
    TWO_PI,
    AngleSet,
    Vec3,
    check_finite,
    norms,
    unit_vector_from_angles,
    wrap_angles,
)
from .scene import LOS_PATH_ID, ObservationFrame, SceneTruth, ground_truth_paths

KIND_USER = "user"
KIND_FB = "fb"
KIND_LB = "lb"

USER_KEY = (KIND_USER, LOS_PATH_ID)

MAX_PARTICLES = 10**6  # over all clouds of a tracker (the shipped config steps 37 x 1000)

_EPS = 1e-9
_SUBNORMAL = np.nextafter(0.0, 1.0)


class TrackerError(ValueError):
    """Invalid tracker input or broken stepping contract."""


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
        _check_size(1, self.n_particles)
        if self.ts <= 0.0:
            raise TrackerError(f"sampling interval must be positive, got {self.ts}")
        if self.meas_delay_std <= 0.0 or self.meas_angle_std <= 0.0:
            raise TrackerError("measurement noise stds must be positive")
        for name in ("process_pos_std", "process_vel_std", "init_pos_std", "init_vel_std"):
            if getattr(self, name) < 0.0:
                raise TrackerError(f"{name} must be nonnegative")
        if self.gate_sigma <= 0.0:
            raise TrackerError("gate_sigma must be positive")


def _check_size(n_clouds: int, n_particles: int) -> None:
    if n_clouds * n_particles > MAX_PARTICLES:
        raise TrackerError(f"{n_clouds} clouds x {n_particles} particles is more than {MAX_PARTICLES}")


@dataclass(frozen=True, eq=False)
class Clouds:
    """E clouds of C weighted constant-velocity hypotheses.

    ``states`` is (E, C, 6): columns x, y, z, vx, vy, vz; ``weights`` is
    (E, C). Cloud e draws from ``rngs[e]``, which every version of the
    batch shares (deliberately); ``diverged[e]`` latches once that
    cloud's weight update underflows.

    ``states`` is a view of a (6, E, C) buffer, ``states.transpose(2, 0,
    1)``, so that the per-coordinate arithmetic runs over contiguous
    memory; other layouts are copied into this one on construction.
    """

    states: np.ndarray
    weights: np.ndarray
    rngs: tuple[np.random.Generator, ...]
    diverged: np.ndarray

    def __post_init__(self) -> None:
        if self.states.ndim != 3 or self.states.shape[2] != 6:
            raise TrackerError(f"states must be (E, C, 6), got {self.states.shape}")
        if self.states.strides[1] != self.states.itemsize:
            buffer = np.ascontiguousarray(self.states.transpose(2, 0, 1))
            object.__setattr__(self, "states", buffer.transpose(1, 2, 0))
        if self.weights.shape != self.states.shape[:2]:
            raise TrackerError("one weight per particle required")
        if self.states.shape[1] < 1:
            raise TrackerError("cloud needs at least one particle")
        if len(self.rngs) != self.states.shape[0] or self.diverged.shape != self.states.shape[:1]:
            raise TrackerError("one rng and one divergence flag per cloud required")

    @property
    def size(self) -> int:
        """Particles over all clouds."""
        return self.weights.size

    def take(self, rows: np.ndarray) -> "Clouds":
        """The clouds at sorted ``rows``, as views if consecutive, sharing their rng streams."""
        i = _index(rows)
        states = self.states.transpose(2, 0, 1)[:, i].transpose(1, 2, 0)
        return Clouds(states, self.weights[i], tuple(self.rngs[r] for r in rows), self.diverged[i])

    def put(self, rows: np.ndarray, part: "Clouds") -> None:
        """Write the weights and divergence flags of ``part``, reweighted from ``take(rows)``, back in place."""
        i = _index(rows)
        self.weights[i] = part.weights
        self.diverged[i] = part.diverged


def _index(rows: np.ndarray) -> slice | np.ndarray:
    """Sorted cloud indices, as a slice when they are consecutive."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


@dataclass(frozen=True, eq=False)
class Slices:
    """One measurement per cloud: [delay_s, azimuth, elevation], with the
    azimuth in [-pi, pi] and the elevation in [-pi/2, pi/2].

    Row e is ranged and sighted from ``reference[e]``. Where
    ``has_delay[e]`` is false the row's delay value is ignored and its
    angles alone are scored.
    """

    reference: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray
    has_delay: np.ndarray

    def __post_init__(self) -> None:
        if {a.shape for a in (self.reference, self.values, self.sigmas)} != {(len(self.has_delay), 3)}:
            raise TrackerError("slices need (n, 3) references, values and sigmas and n delay flags")
        if np.any(self.sigmas <= 0.0):
            raise TrackerError("measurement noise stds must be positive")
        # keeps every angle residual + pi inside the domain of _wrap_residual
        if not (np.all(np.abs(self.values[:, 1]) <= np.pi) and np.all(np.abs(self.values[:, 2]) <= HALF_PI)):
            raise TrackerError("slice azimuths must lie in [-pi, pi] and elevations in [-pi/2, pi/2]")


def predicted_slice_values(states: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-particle delay_s, azimuth and elevation seen from each cloud's reference.

    ``states`` is (E, C, 6) and ``reference`` (E, 3); each result is (E, C).
    A particle at distance 0 from its reference gets azimuth and elevation 0.
    """
    dx, dy, dz = (states[..., j] - reference[:, j, None] for j in range(3))
    az = np.arctan2(dy, dx)
    # np.linalg.norm's summation order, (dx^2 + dy^2) + dz^2, in the dx buffer
    d = np.square(dx, out=dx)
    d += np.square(dy, out=dy)
    d += np.square(dz, out=dy)
    np.sqrt(d, out=d)
    on = d == 0.0
    # max(d, smallest subnormal) is d itself wherever d > 0
    el = np.divide(dz, np.maximum(d, _SUBNORMAL, out=dy), out=dz)
    np.arcsin(np.clip(el, -1.0, 1.0, out=el), out=el)
    az[on] = 0.0
    el[on] = 0.0
    return np.divide(d, SPEED_OF_LIGHT, out=d), az, el


def _noise(rngs: tuple[np.random.Generator, ...], c: int, stds: tuple[float, float], out: np.ndarray) -> np.ndarray:
    """Draws N(0, stds[0]) for x, y, z and N(0, stds[1]) for vx, vy, vz
    into ``out``, a C-contiguous (6, E, C) buffer, viewed as (E, C, 6).

    Cloud e's draws equal, bit for bit, ``rngs[e].normal(0.0, std, (C, 3))``
    for each std in turn, which computes 0.0 + std * z (the + 0.0 turns
    -0.0 into 0.0).
    """
    buffer = out.reshape(2, 3, len(rngs), c)
    block = np.empty((2, c, 3))
    for e, rng in enumerate(rngs):
        rng.standard_normal(out=block)
        buffer[:, :, e] = block.transpose(0, 2, 1)
    buffer *= np.array(stds, dtype=float)[:, None, None, None]
    buffer += 0.0
    return buffer.reshape(6, len(rngs), c).transpose(1, 2, 0)


def predict(clouds: Clouds, ts: float, process_noise: tuple[float, float], out: np.ndarray) -> Clouds:
    """Constant-velocity transition with additive Gaussian process noise.

    Positions advance by velocity times ``ts`` plus noise; velocities by
    noise alone. Zero noise gives the exact linear advance. The states
    are written into ``out``, a C-contiguous (6, E, C) buffer apart from
    ``clouds.states``.
    """
    if ts <= 0.0:
        raise TrackerError(f"sampling interval must be positive, got {ts}")
    if min(process_noise) < 0.0:
        raise TrackerError("process noise stds must be nonnegative")
    x = clouds.states
    states = _noise(clouds.rngs, clouds.weights.shape[1], process_noise, out)
    advance = np.empty(clouds.weights.shape)  # x + (v * ts + noise), one coordinate at a time
    for j in range(3):
        np.multiply(x[..., 3 + j], ts, out=advance)
        advance += states[..., j]
        np.add(x[..., j], advance, out=states[..., j])
        states[..., 3 + j] += x[..., 3 + j]
    return replace(clouds, states=states)


def _wrap_residual(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, 2 pi) - pi`` in place, bit for bit, for x in [-pi, 3 pi].

    There numpy's divmod takes fmod(x, 2 pi), which is exactly x, or
    x - 2 pi for x >= 2 pi (two floats within a factor of two subtract
    exactly), and adds 2 pi where it is negative. Shifting x by -2 pi,
    0 or 2 pi gives the same bits with two compares per element.
    """
    shift = (x >= TWO_PI).astype(float)
    shift -= x < 0.0
    shift *= TWO_PI
    x -= shift
    x -= np.pi
    return x


def weight(clouds: Clouds, z: Slices) -> Clouds:
    """Gaussian-likelihood reweighting of cloud e against slice row e.

    Residuals are componentwise, angles wrapped into [-pi, pi) as by
    np.mod (where x + 2 pi rounds up to 2 pi that gives pi itself); each
    cloud's log weights are shifted by their maximum before
    exponentiation. A cloud whose weights all still underflow to zero
    falls back to uniform weights and latches its divergence flag.
    """
    if z.values.shape[0] != clouds.weights.shape[0]:
        raise TrackerError("one slice per cloud required")
    residuals = predicted_slice_values(clouds.states, z.reference)
    v, s = z.values[:, :, None], z.sigmas[:, :, None]
    for j, r in enumerate(residuals):
        np.subtract(v[:, j], r, out=r)
    residuals[0][~z.has_delay] = 0.0
    for r in residuals[1:]:
        # measured and predicted angles keep r + pi in [-pi, 3 pi]
        r += np.pi
        _wrap_residual(r)
    # far-off particles saturate to -inf; a cloud that underflows entirely gives nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, r in enumerate(residuals):
            np.square(np.divide(r, s[:, j], out=r), out=r)
        log_w = residuals[0]
        log_w += residuals[1]
        log_w += residuals[2]
        log_w *= -0.5
        peak = np.max(log_w, axis=1, keepdims=True)
        log_w -= peak
        w = np.exp(log_w, out=log_w)
        total = np.sum(w, axis=1, keepdims=True)
        w /= total
    ok = np.isfinite(peak[:, 0]) & (total[:, 0] > 0.0) & np.isfinite(total[:, 0])
    w[~ok] = 1.0 / w.shape[1]
    return replace(clouds, weights=w, diverged=clouds.diverged | ~ok)


def effective_sample_size(weights: np.ndarray) -> np.ndarray:
    """1 / sum(w^2) over the last axis of normalized weights: C if uniform, 1 if one-hot."""
    return 1.0 / np.sum(np.square(weights), axis=-1)


def resample(clouds: Clouds, rows: np.ndarray, out: np.ndarray) -> Clouds:
    """Systematic resampling of the clouds at ``rows``; C preserved, their weights reset to 1/C.

    Each resampled cloud's output particles are a multiset subset of its
    input; a particle with weight w is copied about C*w times. The other
    clouds keep their particles and weights and draw nothing. All states
    are gathered in one pass into ``out``, a (6, E, C) buffer apart from
    ``clouds.states``.
    """
    e, c = clouds.weights.shape
    ranks = np.arange(c)
    idx = np.empty((e, c), dtype=np.intp)
    idx[:] = ranks
    for r in rows.tolist():
        positions = (clouds.rngs[r].random() + ranks) / c
        cumulative = np.cumsum(clouds.weights[r])
        cumulative[-1] = max(cumulative[-1], 1.0)  # guard rounding at the top end
        idx[r] = np.searchsorted(cumulative, positions, side="right")
    np.minimum(idx, c - 1, out=idx)
    idx += np.arange(e)[:, None] * c
    buffer = clouds.states.transpose(2, 0, 1).reshape(6, e * c)
    states = np.take(buffer, idx, axis=1, out=out, mode="clip").transpose(1, 2, 0)
    weights = clouds.weights.copy()
    weights[rows] = 1.0 / c
    return replace(clouds, states=states, weights=weights)


def estimate(clouds: Clouds) -> np.ndarray:
    """(E, 6) state of each cloud's highest-weight particle (first one on ties)."""
    best = np.argmax(clouds.weights, axis=1)
    return clouds.states[np.arange(best.size), best]


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


@dataclass(eq=False)
class TrackerState:
    """Filter state after k steps plus the per-step history.

    Cloud e tracks ``keys[e]`` (user first, then FB clouds, then LB
    clouds, each by path id), whose scatterer is ``entity_ids[e]``. The
    history holds one entry per step k = 0..K: the frame time, the (E, 6)
    estimates, (E,) coasted and diverged flags, and the (E,) effective
    sample sizes, NaN for clouds not weighted that step.

    Stepping indexes per-cloud arrays kept beside the keys: each cloud's
    path id and scatterer id, the row of its path's FB cloud, the FB and
    LB cloud rows, and the noise stds of its measurement slice.

    The states live in two (6, E, C) buffers: ``clouds`` views one, and
    each predict and resample writes into the other, ``idle``, before
    they swap. So ``clouds`` is valid only until the next step.
    """

    config: TrackerConfig
    bs_pos: Vec3
    keys: tuple[tuple[str, int], ...]
    entity_ids: tuple[int, ...]
    clouds: Clouds
    failed_paths: tuple[int, ...]
    times: list[float] = field(default_factory=list)
    estimates: list[np.ndarray] = field(default_factory=list)
    coasted: list[np.ndarray] = field(default_factory=list)
    diverged: list[np.ndarray] = field(default_factory=list)
    ess: list[np.ndarray] = field(default_factory=list)
    row: dict[tuple[str, int], int] = field(init=False, repr=False)
    bs: np.ndarray = field(init=False, repr=False)
    path_ids: np.ndarray = field(init=False, repr=False)
    entities: np.ndarray = field(init=False, repr=False)
    fb_of: np.ndarray = field(init=False, repr=False)
    fb_rows: np.ndarray = field(init=False, repr=False)
    lb_rows: np.ndarray = field(init=False, repr=False)
    sigmas: np.ndarray = field(init=False, repr=False)
    idle: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.row = {key: e for e, key in enumerate(self.keys)}
        self.bs = np.array(self.bs_pos.as_tuple())
        self.path_ids = np.array([path_id for _, path_id in self.keys], dtype=int)
        self.entities = np.array(self.entity_ids, dtype=int)
        self.fb_of = np.array([self.row.get((KIND_FB, path_id), -1) for _, path_id in self.keys], dtype=np.intp)
        kinds = np.array([kind for kind, _ in self.keys])
        self.fb_rows, self.lb_rows = np.flatnonzero(kinds == KIND_FB), np.flatnonzero(kinds == KIND_LB)
        s_d, s_a = self.config.meas_delay_std, self.config.meas_angle_std
        # an FB slice ranges by half the echo's round trip
        self.sigmas = np.where((kinds == KIND_FB)[:, None], [s_d / 2.0, s_a, s_a], [s_d, s_a, s_a])
        self.idle = np.empty((6, *self.clouds.weights.shape))

    @property
    def k(self) -> int:
        return len(self.times) - 1

    @property
    def time(self) -> float:
        return self.times[-1]

    def swap(self, clouds: Clouds) -> None:
        """Make ``clouds``, written into the idle buffer, current; the buffer it replaces becomes idle."""
        self.idle, self.clouds = self.clouds.states.transpose(2, 0, 1), clouds

    def record(self, time: float, estimates: np.ndarray, coasted: np.ndarray, ess: np.ndarray) -> None:
        self.times.append(time)
        self.estimates.append(estimates)
        self.coasted.append(coasted)
        self.diverged.append(self.clouds.diverged.copy())
        self.ess.append(ess)


def _start(cfg, bs_pos, t0, entities, root, stds, failed) -> TrackerState:
    """Clouds around ``entities``: (key, entity id, position, velocity) of
    the user, then of each path's FB, then of each path's LB.

    The user cloud draws from the root seed's first spawned stream, and
    path i's FB and LB clouds from streams 1 + 2i and 2 + 2i.
    """
    e, c = len(entities), cfg.n_particles
    _check_size(e, c)
    root = root if isinstance(root, np.random.SeedSequence) else np.random.SeedSequence(root)
    streams = [np.random.default_rng(s) for s in root.spawn(e)]
    rngs = tuple(streams[:1] + streams[1::2] + streams[2::2])
    states = _noise(rngs, c, stds, np.empty((6, e, c)))
    states += np.array([pos.as_tuple() + vel.as_tuple() for _, _, pos, vel in entities])[:, None, :]
    clouds = Clouds(states, np.full((e, c), 1.0 / c), rngs, np.zeros(e, dtype=bool))
    keys = tuple(key for key, _, _, _ in entities)
    tracker = TrackerState(cfg, bs_pos, keys, tuple(i for _, i, _, _ in entities), clouds, failed)
    tracker.record(t0, estimate(clouds), np.zeros(e, dtype=bool), np.full(e, np.nan))
    return tracker


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in ``keys`` of each ``wanted`` value (the last one where it repeats), or -1 where absent."""
    if keys.size == 0:
        return np.full(wanted.shape, -1)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    at = np.maximum(np.searchsorted(ranked, wanted, side="right") - 1, 0)
    return np.where(ranked[at] == wanted, order[at], -1)


def _in_gate(aod: np.ndarray, delay: np.ndarray, echo: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Whether each sensing echo lies in the gate of its comm path.

    ``aod`` holds the paths' (azimuth, elevation), ``delay`` their delays
    and ``echo`` the echoes' (round-trip delay, azimuth, elevation). The
    echo direction and the comm AoD each carry independent angle noise of
    std s = ``meas_angle_std`` around the same true direction, so their
    difference has variance s^2 + s^2 and std sqrt(2) s. Each angle is
    gated at ``gate_sigma`` stds of that difference, which rejects a true
    echo with probability P(|Z| > gate_sigma) per angle.
    """
    angle_gate = math.sqrt(2.0) * cfg.gate_sigma * cfg.meas_angle_std
    d_az = np.abs(wrap_angles(echo[:, 1] - aod[:, 0]))  # |math.remainder(., 2 pi)|, bit for bit
    d_el = np.abs(echo[:, 2] - aod[:, 1])
    in_range = delay - echo[:, 0] / 2.0 >= -cfg.gate_sigma * cfg.meas_delay_std
    return (d_az <= angle_gate) & (d_el <= angle_gate) & in_range


def initialize(
    frame0: ObservationFrame,
    bs_pos: Vec3,
    user_pos: Vec3,
    user_vel: Vec3,
    cfg: TrackerConfig,
    seed: int | np.random.SeedSequence,
) -> TrackerState:
    """Build clouds from the first observation frame and the user's
    position and velocity at its time.

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
    paths, echoes = frame0.comm_paths, frame0.sensing_detections
    echo = _lookup(echoes.scatterer_id, paths.fb_id)
    gated = echo >= 0
    gated[gated] = _in_gate(paths.table[gated, 2:4], paths.delay[gated], echoes.table[echo[gated], :3], cfg)

    fbs, lbs, failed = [], [], []
    still = Vec3(0.0, 0.0, 0.0)
    for i in np.argsort(paths.path_id, kind="stable").tolist():
        path_id, fb_id, lb_id = paths.ids[i, :3].tolist()
        delay, aoa = float(paths.delay[i]), AngleSet(*paths.table[i, 4:6].tolist())
        if gated[i]:
            round_trip, *angle = echoes.table[echo[i], :3].tolist()
            d_fb = SPEED_OF_LIGHT * round_trip / 2.0
            fb_point = bs_pos + unit_vector_from_angles(AngleSet(*angle)) * d_fb
            remaining = SPEED_OF_LIGHT * delay - d_fb
            if remaining < -slack:
                failed.append(path_id)
                continue
            lb_point = user_pos + unit_vector_from_angles(aoa) * max(remaining, 0.0)
        else:
            r = solve_lb_range(bs_pos, user_pos, aoa, SPEED_OF_LIGHT * delay, slack)
            if r is None:
                failed.append(path_id)
                continue
            fb_point = lb_point = user_pos + unit_vector_from_angles(aoa) * r
        fbs.append(((KIND_FB, path_id), fb_id, fb_point, still))
        lbs.append(((KIND_LB, path_id), lb_id, lb_point, still))

    entities = [(USER_KEY, LOS_PATH_ID, user_pos, user_vel)] + fbs + lbs
    stds = (cfg.init_pos_std, cfg.init_vel_std)
    return _start(cfg, bs_pos, frame0.time, entities, seed, stds, tuple(failed))


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
    ids = ground_truth_paths(scene, [t0])[0].columns.ids
    ids = ids[np.argsort(ids[:, 0], kind="stable")].tolist()

    def truth(kind: str, path_id: int, sid: int):
        s = scene.scatterer(sid)
        return (kind, path_id), sid, s.position_at(t0), s.velocity

    entities = (
        [(USER_KEY, LOS_PATH_ID, scene.user_position(t0), scene.config.user_velocity)]
        + [truth(KIND_FB, path_id, fb_id) for path_id, fb_id, _, _ in ids]
        + [truth(KIND_LB, path_id, lb_id) for path_id, _, lb_id, _ in ids]
    )
    return _start(cfg, scene.bs_position, t0, entities, seed, (0.0, 0.0), ())


def step(tracker: TrackerState, frame: ObservationFrame) -> None:
    """Advance every cloud by one frame: predict, weight, estimate, resample.

    All clouds predict at once. The user and FB clouds are weighted in
    one pass, then the LB clouds, because the LB slice is built from
    this step's user and FB estimates. Estimates are taken from the
    weighted clouds before resampling. Clouds with no usable observation
    this frame coast on prediction alone. ``tracker`` is advanced in
    place and the step appended to its history.
    """
    cfg = tracker.config
    if not math.isclose(frame.time, tracker.time + cfg.ts, rel_tol=0.0, abs_tol=1e-9):
        raise TrackerError(
            f"frame at t={frame.time} does not follow t={tracker.time} by Ts={cfg.ts}"
        )
    clouds = predict(tracker.clouds, cfg.ts, (cfg.process_pos_std, cfg.process_vel_std), tracker.idle)
    tracker.swap(clouds)
    paths, echoes = frame.comm_paths, frame.sensing_detections
    seen = _lookup(paths.path_id, tracker.path_ids)  # each cloud's row in the frame's paths

    # user from the LoS; FB clouds from their path's AoD and, when sensed, half the echo's round trip
    fb_rows = tracker.fb_rows[seen[tracker.fb_rows] >= 0]
    echo = _lookup(echoes.scatterer_id, tracker.entities[fb_rows])
    ranged = echo >= 0
    n_los = len(frame.los)
    rows = np.concatenate([np.zeros(n_los, dtype=np.intp), fb_rows])
    values = np.zeros((rows.size, 3))
    values[:n_los] = frame.los.table[:, 1:4]
    values[n_los:][ranged, 0] = echoes.table[echo[ranged], 0] / 2.0
    values[n_los:, 1:] = paths.table[seen[fb_rows], 2:4]
    reference = np.repeat(tracker.bs[None], rows.size, axis=0)
    z = Slices(reference, values, tracker.sigmas[rows], np.concatenate([np.ones(n_los, dtype=bool), ranged]))
    clouds.put(rows, weight(clouds.take(rows), z))
    est = estimate(clouds)

    # last bounce: range is what the comm delay leaves after the sensed first leg
    lb_rows = tracker.lb_rows[seen[tracker.lb_rows] >= 0]
    values = paths.table[seen[lb_rows]][:, [1, 4, 5]]
    values[:, 0] -= norms(est[tracker.fb_of[lb_rows], :3] - tracker.bs) / SPEED_OF_LIGHT
    reference = np.repeat(est[None, 0, :3], lb_rows.size, axis=0)
    z = Slices(reference, values, tracker.sigmas[lb_rows], np.ones(lb_rows.size, dtype=bool))
    lb = weight(clouds.take(lb_rows), z)
    clouds.put(lb_rows, lb)
    est[lb_rows] = estimate(lb)

    weighted = np.concatenate([rows, lb_rows])
    ess = np.full(len(tracker.keys), np.nan)
    ess[weighted] = effective_sample_size(clouds.weights[weighted])
    coasted = np.ones(len(tracker.keys), dtype=bool)
    coasted[weighted] = False
    tracker.swap(resample(clouds, weighted, tracker.idle))
    tracker.record(frame.time, est, coasted, ess)
