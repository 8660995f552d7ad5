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
it in the same order as when stepped alone: its initial normals, then per
step its noise and, if weighted, its resampling offset. So batching never
changes the draws a cloud sees, and a helper thread can draw the next
step's noise while ``step`` weighs and resamples in place (see ``step``).

A path ends for good when either of its bounces dies, so the FB and LB
clouds of a path missing from ``RETIRE_AFTER`` consecutive frames retire:
they coast and are recorded through those frames, then leave the batch,
and draw, weigh and record nothing more. The user cloud never retires.
The history is ragged: each step records the rows of the clouds then in
the batch, and ``TrackerState.spread`` lays it out over every cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import HALF_PI, TWO_PI, Vec3, check_finite, dots, norms, unit_vectors, wrap_angles
from .scene import LOS_PATH_ID, ObservationFrame

KIND_USER = "user"
KIND_FB = "fb"
KIND_LB = "lb"

USER_KEY = (KIND_USER, LOS_PATH_ID)

MAX_PARTICLES = 10**6  # over all clouds of a tracker (the shipped config steps 37 x 1000)
RETIRE_AFTER = 2  # consecutive frames a path may be missing from before its clouds retire
MAX_STATE_STD = 1e6  # m or m/s, for each initial and process std: far wider ones overflow the squared ranges

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
            if getattr(self, name) > MAX_STATE_STD:
                raise TrackerError(f"{name} must be at most {MAX_STATE_STD:g}, got {getattr(self, name)!r}")
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
    1)``, so that the arithmetic on coordinate planes and blocks of three
    runs over contiguous memory; other layouts are copied on construction.
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
        return Clouds(states, self.weights[i], tuple(self.rngs[r] for r in rows.tolist()), self.diverged[i])

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
        if (self.sigmas <= 0.0).any():
            raise TrackerError("measurement noise stds must be positive")
        # keeps every angle residual + pi inside the domain of _wrap_residual
        if not (np.abs(self.values[:, 1:]) <= [np.pi, HALF_PI]).all():
            raise TrackerError("slice azimuths must lie in [-pi, pi] and elevations in [-pi/2, pi/2]")


def predicted_slice_values(states: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-particle delay_s, azimuth and elevation seen from each cloud's reference.

    ``states`` is (E, C, 6) and ``reference`` (E, 3); the result is one (3, E, C) block.
    A particle at distance 0 from its reference gets azimuth and elevation 0.
    """
    block = np.subtract(states.transpose(2, 0, 1)[:3], reference.T[:, :, None])
    dx, dy, dz = block
    dy2 = np.square(dy)
    np.arctan2(dy, dx, out=dy)
    # np.linalg.norm's summation order, (dx^2 + dy^2) + dz^2, in the dx plane
    d = np.square(dx, out=dx)
    d += dy2
    d += np.square(dz, out=dy2)
    np.sqrt(d, out=d)
    zero = not d.all()  # if so, dz / max(d, smallest subnormal) keeps 0 / 0 out and is dz / d elsewhere
    np.divide(dz, np.maximum(d, _SUBNORMAL) if zero else d, out=dz)
    np.arcsin(dz.clip(-1.0, 1.0, out=dz), out=dz)
    if zero:
        block[1:, d == 0.0] = 0.0
    np.divide(d, SPEED_OF_LIGHT, out=d)
    return block


def _fill(rngs: tuple[np.random.Generator, ...], out: np.ndarray):
    """``normals.fill(rngs, out)``: starts drawing N(0, 1) process noise into a (6, E, C) buffer."""
    from . import normals  # imported by the first draw, so a process that never tracks does not load it

    return normals.fill(rngs, out)


def _scale(out: np.ndarray, stds: tuple[float, float]) -> np.ndarray:
    """Turns the N(0, 1) draws in ``out``, a (6, E, C) buffer, into
    N(0, stds[0]) for x, y, z and N(0, stds[1]) for vx, vy, vz, in place,
    and returns them viewed as (E, C, 6).

    Cloud e's draws then equal, bit for bit, ``rng.normal(0.0, std, (C, 3))``
    for each std in turn, which computes 0.0 + std * z (the + 0.0 turns
    -0.0 into 0.0).
    """
    buffer = out.reshape(2, 3, *out.shape[1:])
    buffer *= np.array(stds, dtype=float)[:, None, None, None]
    buffer += 0.0
    return out.transpose(1, 2, 0)


def predict(clouds: Clouds, ts: float, process_noise: tuple[float, float], out: np.ndarray) -> Clouds:
    """Constant-velocity transition with additive Gaussian process noise.

    Positions advance by velocity times ``ts`` plus noise; velocities by
    noise alone. Zero noise gives the exact linear advance. The N(0, 1)
    draws in ``out``, a (6, E, C) buffer, are scaled and advanced in place.
    The input buffer, then pending (``TrackerState.swap``), keeps its
    positions; its velocity planes hold the advance v * ts + noise.
    """
    if ts <= 0.0:
        raise TrackerError(f"sampling interval must be positive, got {ts}")
    if min(process_noise) < 0.0:
        raise TrackerError("process noise stds must be nonnegative")
    x = clouds.states.transpose(2, 0, 1)
    states = _scale(out, process_noise)
    out[3:] += x[3:]
    advance = np.multiply(x[3:], ts, out=x[3:])
    advance += out[:3]
    np.add(x[:3], advance, out=out[:3])
    return Clouds(states, clouds.weights, clouds.rngs, clouds.diverged)


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

    Residuals are one (3, E, C) block, angles wrapped into [-pi, pi) as by
    np.mod (where x + 2 pi rounds up to 2 pi that gives pi itself); each
    cloud's log weights are shifted by their maximum before
    exponentiation. A cloud whose weights all still underflow to zero
    falls back to uniform weights and latches its divergence flag.
    """
    if z.values.shape[0] != clouds.weights.shape[0]:
        raise TrackerError("one slice per cloud required")
    r = predicted_slice_values(clouds.states, z.reference)
    np.subtract(z.values.T[:, :, None], r, out=r)
    r[0, ~z.has_delay] = 0.0
    # measured and predicted angles keep r + pi in [-pi, 3 pi]
    r[1:] += np.pi
    _wrap_residual(r[1:])
    # far-off particles saturate to -inf; a cloud that underflows entirely gives nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.square(np.divide(r, z.sigmas.T[:, :, None], out=r), out=r)
        log_w = np.add(r[0], r[1], out=r[0])
        log_w += r[2]
        log_w *= -0.5
        peak = log_w.max(axis=1, keepdims=True)
        log_w -= peak
        w = np.exp(log_w, out=log_w)
        total = w.sum(axis=1, keepdims=True)
        w /= total
    ok = np.isfinite(peak[:, 0]) & (total[:, 0] > 0.0) & np.isfinite(total[:, 0])
    w[~ok] = 1.0 / w.shape[1]
    return Clouds(clouds.states, w, clouds.rngs, clouds.diverged | ~ok)


def effective_sample_size(weights: np.ndarray) -> np.ndarray:
    """1 / sum(w^2) over the last axis of normalized weights: C if uniform, 1 if one-hot."""
    return 1.0 / np.square(weights).sum(axis=-1)


def offsets(clouds: Clouds, rows: np.ndarray) -> np.ndarray:
    """The systematic-resampling offset u in [0, 1) of each cloud at ``rows``, drawn from its stream in row order."""
    return np.array([clouds.rngs[r].random() for r in rows.tolist()])


def resample(clouds: Clouds, rows: np.ndarray, u: np.ndarray) -> None:
    """Systematic resampling of the clouds at sorted ``rows`` with offsets ``u``, in
    place; C preserved, their weights reset to 1/C.

    Each resampled cloud's output particles are a multiset subset of its
    input; a particle with weight w is copied about C*w times. The other
    clouds keep their particles and weights. One batched search counts the
    positions (u + j) / C below each cumulative weight, ceil(C cum - u)
    give or take one. The states are gathered one coordinate plane at a
    time through one (rows, C) scratch array.
    """
    c = clouds.weights.shape[1]
    m, i = rows.size, _index(rows)
    cum = clouds.weights[i]  # a view where the rows are consecutive, else a copy
    if not (cum.min(initial=0.0) >= 0.0 and cum.max(initial=0.0) < np.inf):
        raise TrackerError("weights to resample must be finite and nonnegative")
    np.cumsum(cum, axis=1, out=cum)
    scratch = np.empty(m * c + 1)  # one more than (rows, C), for the bin of the last row's count of C
    guess, pos = scratch[:m * c].reshape(m, c), np.empty((m, c))
    high, low = np.empty((2, m, c), dtype=bool)
    u = u[:, None]
    np.ceil(np.subtract(np.multiply(cum, c, out=guess), u, out=guess), out=guess).clip(0, c, out=guess)
    # a count n is too high if position n - 1 is not below cum, and too low if n < C and position n is
    for checked in (False, True):
        np.less(guess, c, out=high)
        np.less(np.divide(np.add(u, guess, out=pos), c, out=pos), cum, out=low)
        low &= high
        np.greater_equal(np.divide(np.add(u, np.subtract(guess, 1.0, out=pos), out=pos), c, out=pos), cum, out=high)
        if not (high.any() or low.any()):
            break
        if checked:
            raise TrackerError("systematic resampling search left a count uncorrected")
        guess -= high
        guess += low
    # row r's count n goes to bin r C + n, so a count of C lands in the next row's first bin; one
    # running sum over every bin then counts all r C particles of the rows before, which are taken off
    guess += np.arange(0, m * c, c)[:, None]
    idx = pos.view(np.intp)
    idx[...] = guess
    counts = scratch.view(np.intp)[:m * c + 1]
    counts[:] = 0
    np.add.at(counts, idx.reshape(-1), 1)
    np.cumsum(counts[:m * c], out=idx.reshape(-1))
    idx -= np.arange(0, m * c, c)[:, None]
    np.minimum(idx, c - 1, out=idx)  # makes the last running sum irrelevant, so it needs no guard at 1
    idx += rows[:, None] * c
    into = scratch[:m * c].reshape(m, c)
    for plane in clouds.states.transpose(2, 0, 1):
        plane.reshape(-1).take(idx, out=into, mode="clip")  # unbuffered, unlike mode="raise"
        plane[i] = into
    clouds.weights[i] = 1.0 / c


def estimate(clouds: Clouds) -> np.ndarray:
    """(E, 6) state of each cloud's highest-weight particle (first one on ties)."""
    best = clouds.weights.argmax(axis=1)
    return clouds.states[np.arange(best.size), best]


def solve_lb_range(
    anchor: np.ndarray,
    user: np.ndarray,
    u: np.ndarray,
    total_range: np.ndarray,
    slack: float = 0.0,
) -> np.ndarray:
    """Range r to the last bounce along each of the (n, 3) arrival directions ``u``.

    Row i solves |anchor - (user + r u_i)| = total_range_i - r for the
    point on the arrival ray whose distance to ``anchor`` exhausts the
    remaining range budget; NaN where no nonnegative solution exists.
    ``slack`` (meters) tolerates measurement noise around the feasibility
    boundary total_range >= |anchor - user|.
    """
    a = np.maximum(total_range, 0.0)
    w = anchor - user
    wn = norms(w)
    scale = np.maximum(np.maximum(a, wn), 1.0)
    denom = a - dots(w, u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.minimum(np.maximum((a * a - wn * wn) / (2.0 * denom), 0.0), a)
    # collinear limit, and every row whose division above failed: the ray passes through the anchor
    r = np.where(denom <= _EPS * scale, wn, r)
    # infeasible as measured; within slack treat as a grazing ray
    r = np.where(a < wn, np.where(wn - a <= slack, a, np.nan), r)
    return np.where(total_range < -slack, np.nan, r)


@dataclass(eq=False)
class TrackerState:
    """Filter state after k steps plus the per-step history; ``bs`` is the (3,) BS position.

    The tracker's clouds are numbered in the order they were built: cloud
    i tracks ``keys[i]`` (user first, then FB clouds, then LB clouds, each
    by path id), whose scatterer is ``entity_ids[i]``, and ``row`` maps a
    key to its number. Batch row e holds cloud ``live[e]``, rows in
    cloud order. ``retired_at[i]`` is the first step without cloud i, -1
    while it is in the batch.

    The history holds one entry per step k = 0..K: the frame time, the
    batch's cloud numbers ``members[k]`` (the same array until a cloud
    retires), and one row per member: the (E_k, 6) estimates, the coasted
    and diverged flags, and the effective sample sizes, NaN for clouds not
    weighted that step. ``spread`` lays an entry list out over every cloud.

    Stepping indexes per-row arrays that ``_batch`` derives beside the
    batch: each row's path id and scatterer id, the row of its path's FB
    cloud, the FB and LB rows, the noise stds of its measurement slice,
    and the frames its path has been missing from in a row.

    The states live in two (6, E, C) buffers: ``clouds`` views one, and
    ``pending`` holds the next step's N(0, 1) draws. Each step predicts
    and resamples in ``pending`` and draws into the other. So ``clouds``
    is valid only until the next step.
    """

    config: TrackerConfig
    bs: np.ndarray
    keys: tuple[tuple[str, int], ...]
    entity_ids: tuple[int, ...]
    clouds: Clouds
    failed_paths: tuple[int, ...]
    times: list[float] = field(default_factory=list)
    members: list[np.ndarray] = field(default_factory=list)
    estimates: list[np.ndarray] = field(default_factory=list)
    coasted: list[np.ndarray] = field(default_factory=list)
    diverged: list[np.ndarray] = field(default_factory=list)
    ess: list[np.ndarray] = field(default_factory=list)
    row: dict[tuple[str, int], int] = field(init=False, repr=False)
    retired_at: np.ndarray = field(init=False, repr=False)
    live: np.ndarray = field(init=False, repr=False)
    path_ids: np.ndarray = field(init=False, repr=False)
    entities: np.ndarray = field(init=False, repr=False)
    fb_of: np.ndarray = field(init=False, repr=False)
    fb_rows: np.ndarray = field(init=False, repr=False)
    lb_rows: np.ndarray = field(init=False, repr=False)
    sigmas: np.ndarray = field(init=False, repr=False)
    missed: np.ndarray = field(init=False, repr=False)
    pending: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.keys)
        self.row = {key: i for i, key in enumerate(self.keys)}
        self.retired_at = np.full(n, -1)
        self._batch(np.arange(n), self.clouds, np.zeros(n, dtype=int))
        self.pending = np.empty((6, *self.clouds.weights.shape))

    def _batch(self, live: np.ndarray, clouds: Clouds, missed: np.ndarray) -> None:
        """Make ``clouds`` the batch, row e holding cloud ``live[e]``, whose path
        has been missing from ``missed[e]`` frames in a row; its states must
        view a (6, E, C) buffer of their own."""
        keys = [self.keys[i] for i in live.tolist()]
        row = {key: e for e, key in enumerate(keys)}
        kinds = np.array([kind for kind, _ in keys])
        self.live, self.clouds, self.missed = live, clouds, missed
        self.path_ids = np.array([path_id for _, path_id in keys], dtype=int)
        self.entities = np.array(self.entity_ids, dtype=int)[live]
        self.fb_of = np.array([row.get((KIND_FB, path_id), -1) for _, path_id in keys], dtype=np.intp)
        self.fb_rows, self.lb_rows = np.flatnonzero(kinds == KIND_FB), np.flatnonzero(kinds == KIND_LB)
        s_d, s_a = self.config.meas_delay_std, self.config.meas_angle_std
        # an FB slice ranges by half the echo's round trip
        self.sigmas = np.where((kinds == KIND_FB)[:, None], [s_d / 2.0, s_a, s_a], [s_d, s_a, s_a])

    @property
    def k(self) -> int:
        return len(self.times) - 1

    @property
    def time(self) -> float:
        return self.times[-1]

    def swap(self, clouds: Clouds) -> None:
        """Make ``clouds``, predicted in the pending buffer, current; the buffer it replaces becomes pending."""
        self.pending, self.clouds = self.clouds.states.transpose(2, 0, 1), clouds

    def record(self, time: float, estimates: np.ndarray, coasted: np.ndarray, ess: np.ndarray) -> None:
        self.times.append(time)
        self.members.append(self.live)
        self.estimates.append(estimates)
        self.coasted.append(coasted)
        self.diverged.append(self.clouds.diverged.copy())
        self.ess.append(ess)

    def retire(self, gone: np.ndarray) -> None:
        """Take the batch rows where ``gone`` out from the next step on; the other
        rows keep their order, states, weights, flags, rng streams and draws."""
        kept = np.flatnonzero(~gone)
        self.retired_at[self.live[gone]] = self.k + 1
        c = self.clouds
        states = np.take(c.states.transpose(2, 0, 1), kept, axis=1).transpose(1, 2, 0)
        rngs = tuple(c.rngs[e] for e in kept.tolist())
        self._batch(self.live[kept], Clouds(states, c.weights[kept], rngs, c.diverged[kept]), self.missed[kept])

    def spread(self, entries: list[np.ndarray], fill) -> np.ndarray:
        """A (K + 1, every cloud, ...) array of one history list: step k's rows
        at their clouds, ``fill`` where a cloud was not in the batch."""
        n = len(entries)
        out = np.full((n, len(self.keys), *entries[0].shape[1:]), fill, dtype=entries[0].dtype)
        starts = [k for k in range(n) if k == 0 or self.members[k] is not self.members[k - 1]]
        for start, end in zip(starts, starts[1:] + [n]):
            out[start:end, self.members[start]] = np.stack(entries[start:end])
        return out


def _start(cfg, bs, t0, ids, start, root, stds, failed) -> TrackerState:
    """Clouds around ``start``, the (E, 6) positions and velocities of the
    user, then of each path's FB, then of each path's LB, with step 1's
    noise drawn; ``ids`` holds each path's id and FB and LB scatterer ids.

    The user cloud draws from the root seed's first spawned stream, and
    path i's FB and LB clouds from streams 1 + 2i and 2 + 2i.
    """
    path_ids, fb_ids, lb_ids = ids.T.tolist()
    keys = (USER_KEY, *((KIND_FB, p) for p in path_ids), *((KIND_LB, p) for p in path_ids))
    e, c = len(keys), cfg.n_particles
    _check_size(e, c)
    root = root if isinstance(root, np.random.SeedSequence) else np.random.SeedSequence(root)
    streams = [np.random.default_rng(s) for s in root.spawn(e)]
    rngs = tuple(streams[:1] + streams[1::2] + streams[2::2])
    buffer = np.empty((6, e, c))
    _fill(rngs, buffer).wait()
    states = _scale(buffer, stds)
    states += start[:, None, :]
    clouds = Clouds(states, np.full((e, c), 1.0 / c), rngs, np.zeros(e, dtype=bool))
    tracker = TrackerState(cfg, bs, keys, (LOS_PATH_ID, *fb_ids, *lb_ids), clouds, failed)
    _fill(rngs, tracker.pending).wait()
    tracker.record(t0, estimate(clouds), np.zeros(e, dtype=bool), np.full(e, np.nan))
    return tracker


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in ``keys`` of each ``wanted`` value (the last one where it repeats), or -1 where absent."""
    if keys.size == 0:
        return np.full(wanted.shape, -1)
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    at = np.maximum(ranked.searchsorted(wanted, side="right") - 1, 0)
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
    position and velocity at its time, in one column pass over its paths.

    First-bounce points lie half the round trip of the sensing echo matched
    to the comm path (by departure-angle and delay gates) along its direction
    from the BS; the last bounce sits on the arrival ray at the range left
    once the sensed first leg is paid for. A path with no in-gate echo falls
    back to a single-bounce hypothesis (``solve_lb_range``, FB = LB). Paths
    whose range budget is infeasible beyond the noise slack are dropped and
    reported in ``failed_paths``, in path-id order.
    """
    cfg.validate()
    slack = cfg.gate_sigma * SPEED_OF_LIGHT * cfg.meas_delay_std
    paths, echoes = frame0.comm_paths, frame0.sensing_detections
    paths = paths[np.argsort(paths.path_id, kind="stable")]
    echo = _lookup(echoes.scatterer_id, paths.fb_id)
    gated = echo >= 0
    gated[gated] = _in_gate(paths.table[gated, 2:4], paths.delay[gated], echoes.table[echo[gated], :3], cfg)

    bs, user = np.array(bs_pos.as_tuple()), np.array(user_pos.as_tuple())
    total = SPEED_OF_LIGHT * paths.delay
    aoa = unit_vectors(paths.table[:, 4:6])
    sensed = echoes.table[echo[gated], :3]
    d_fb = SPEED_OF_LIGHT * sensed[:, 0] / 2.0
    # the LB's range along its AoA ray, NaN where the budget is infeasible
    r = solve_lb_range(bs, user, aoa, total, slack)
    remaining = total[gated] - d_fb
    r[gated] = np.where(remaining < -slack, np.nan, np.maximum(remaining, 0.0))
    lb = user + aoa * r[:, None]
    fb = lb.copy()
    fb[gated] = bs + unit_vectors(sensed[:, 1:3]) * d_fb[:, None]

    ok = ~np.isnan(r)
    start = np.zeros((1 + 2 * np.count_nonzero(ok), 6))
    start[0] = user_pos.as_tuple() + user_vel.as_tuple()
    start[1:, :3] = np.concatenate([fb[ok], lb[ok]])
    failed = tuple(paths.path_id[~ok].tolist())
    stds = (cfg.init_pos_std, cfg.init_vel_std)
    return _start(cfg, bs, frame0.time, paths.ids[ok, :3], start, seed, stds, failed)


def step(tracker: TrackerState, frame: ObservationFrame) -> None:
    """Advance every cloud in the batch by one frame: predict, weight, estimate, resample.

    All clouds predict at once. The user and FB clouds are weighted in
    one pass, then the LB clouds, because the LB slice is built from
    this step's user and FB estimates. Estimates are taken from the
    weighted clouds before resampling. Clouds with no usable observation
    this frame coast on prediction alone. ``tracker`` is advanced in
    place and the step appended to its history. Then the clouds of a path
    missing from this frame and the ``RETIRE_AFTER - 1`` before it retire.

    The offsets are drawn right after predicting; then the helper draws the
    next step's noise of the clouds that stay while this thread weighs and
    resamples (``normals.fill``), and all is drawn when ``step`` returns.
    """
    cfg = tracker.config
    if not math.isclose(frame.time, tracker.time + cfg.ts, rel_tol=0.0, abs_tol=1e-9):
        raise TrackerError(f"frame at t={frame.time} does not follow t={tracker.time} by Ts={cfg.ts}")
    clouds = predict(tracker.clouds, cfg.ts, (cfg.process_pos_std, cfg.process_vel_std), tracker.pending)
    tracker.swap(clouds)
    paths, echoes = frame.comm_paths, frame.sensing_detections
    seen = _lookup(paths.path_id, tracker.path_ids)  # each cloud's row in the frame's paths
    # the user is weighted by the LoS, and FB and LB clouds while their path is seen
    fb_rows = tracker.fb_rows[seen[tracker.fb_rows] >= 0]
    lb_rows = tracker.lb_rows[seen[tracker.lb_rows] >= 0]
    n_los = len(frame.los)
    rows = np.concatenate([np.zeros(n_los, dtype=np.intp), fb_rows])
    weighted = np.concatenate([rows, lb_rows])
    u = offsets(clouds, weighted)

    # the FB and LB clouds of a path missing from RETIRE_AFTER frames in a row leave the batch after
    # this step, so they draw no noise for the next; the user's LoS is not among the paths, and the
    # user cloud never retires
    tracker.missed += 1
    tracker.missed[(seen >= 0) | (tracker.path_ids == LOS_PATH_ID)] = 0
    gone = tracker.missed >= RETIRE_AFTER
    kept = np.flatnonzero(~gone)
    if gone.any():
        tracker.pending = np.empty((6, kept.size, cfg.n_particles))

    job = _fill(tuple(clouds.rngs[e] for e in kept.tolist()), tracker.pending)
    try:
        # user from the LoS; FB clouds from their path's AoD and, when sensed, half the echo's round trip
        echo = _lookup(echoes.scatterer_id, tracker.entities[fb_rows])
        ranged = echo >= 0
        values = np.zeros((rows.size, 3))
        values[:n_los] = frame.los.table[:, 1:4]
        values[n_los:][ranged, 0] = echoes.table[echo[ranged], 0] / 2.0
        values[n_los:, 1:] = paths.table[seen[fb_rows], 2:4]
        reference = np.repeat(tracker.bs[None], rows.size, axis=0)
        z = Slices(reference, values, tracker.sigmas[rows], np.concatenate([np.ones(n_los, dtype=bool), ranged]))
        clouds.put(rows, weight(clouds.take(rows), z))
        est = estimate(clouds)

        # last bounce: range is what the comm delay leaves after the sensed first leg
        values = paths.table[seen[lb_rows]][:, [1, 4, 5]]
        values[:, 0] -= norms(est[tracker.fb_of[lb_rows], :3] - tracker.bs) / SPEED_OF_LIGHT
        reference = np.repeat(est[None, 0, :3], lb_rows.size, axis=0)
        z = Slices(reference, values, tracker.sigmas[lb_rows], np.ones(lb_rows.size, dtype=bool))
        lb = weight(clouds.take(lb_rows), z)
        clouds.put(lb_rows, lb)
        est[lb_rows] = estimate(lb)

        ess = np.full(tracker.live.size, np.nan)
        ess[weighted] = effective_sample_size(clouds.weights[_index(weighted)])
        coasted = np.ones(tracker.live.size, dtype=bool)
        coasted[weighted] = False
        resample(clouds, weighted, u)
    finally:
        job.wait()
    tracker.record(frame.time, est, coasted, ess)
    if gone.any():
        tracker.retire(gone)
