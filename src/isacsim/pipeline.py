"""One drop, a simulated scene realization, in memory: simulate, track,
score, and the snapshot sources of the spreads. Nothing here reads or
writes a file; the CLI does that around these functions. ``split`` cuts
any row source, such as the frames of a file or the rx rows of the comm
taps, into one contiguous range per CPU, which ``csvio`` formats side by
side, none under a floor of output fields.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import comm, sensing, stats, tracker
from .config import RunConfig
from .constants import SPEED_OF_LIGHT
from .geometry import norms, path_term_columns
from .scene import (
    LOS_PATH_ID,
    EchoColumns,
    Observations,
    SceneTruth,
    TruePaths,
    echoes,
    generate_scene,
    ground_truth_paths,
    observe,
)


@dataclass(frozen=True, eq=False)
class Drop:
    """A simulated drop: the scene, the frame times, the run's true paths, observations and sensing taps,
    laid out as the observations' paths and echoes, and each path's co-polar phase."""

    scene: SceneTruth
    times: list[float]
    paths: TruePaths
    observations: Observations
    sensing_taps: EchoColumns
    phases: dict[int, float]


def simulate(rc: RunConfig) -> Drop:
    """The drop of ``rc``, its scene, noise and phases drawn from ``rc.scene.seed``."""
    seed = rc.scene.seed
    scene = generate_scene(rc.scene)
    times = rc.frame_times()
    # every frame's paths and echoes, resolved once for the observations and both channels
    (paths, path_offsets), (detections, echo_offsets) = ground_truth_paths(scene, times), echoes(scene, times)
    obs_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    noise = (rc.scene.sigma_delay, rc.scene.sigma_angle)
    observations = observe(scene, times, noise, obs_rng, paths, path_offsets, detections, echo_offsets)
    pol_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    phases = comm.draw_polarization_set(scene, rc.comm, pol_rng)
    return Drop(scene, times, paths, observations, sensing.monostatic_cir(detections, echo_offsets), phases)


def _pairs(rc: RunConfig, all_pairs: bool) -> tuple[int, int]:
    return (rc.rx_template().num_elements, rc.tx_array().num_elements) if all_pairs else (1, 1)  # rx, tx


def comm_tap_rows(drop: Drop, rc: RunConfig, all_pairs: bool = False) -> np.ndarray:
    """The tap rows of each rx row (the pairs of one rx element) of each frame: the units of ``comm_taps``."""
    n_rx, n_tx = _pairs(rc, all_pairs)
    return np.repeat(n_tx * (1 + np.diff(drop.observations.offsets[:, 0])), n_rx)


def comm_taps(drop: Drop, rc: RunConfig, all_pairs: bool = False,
              units: range | None = None) -> Iterator[tuple[float, comm.TapBlock]]:
    """(t, taps) of each frame for the reference pair, or for the (q, p) grid of every antenna pair, of
    the run of rx rows ``units`` (all by default); built many frames to a kernel pass as they are iterated.
    A frame the run cuts gives the block of its rows in the run, from a kernel pass made whole."""
    n_rx, n_tx = _pairs(rc, all_pairs)
    units = range(len(drop.times) * n_rx) if units is None else units
    if not units:
        return
    (first, a), (last, b) = divmod(units.start, n_rx), divmod(units.stop - 1, n_rx)
    taps = comm.run_taps(drop.scene, drop.times[first:last + 1], rc.tx_array(), rc.rx_template(), rc.comm,
                         drop.phases, np.arange(n_rx)[:, None], np.arange(n_tx)[None, :], drop.paths,
                         drop.observations.offsets[first:last + 2, 0])
    for f, (t, block) in enumerate(taps, first):
        rows = slice(a if f == first else 0, b + 1 if f == last else n_rx)
        yield t, comm.TapBlock(*(x[rows] for x in (block.q, block.p, block.path_id, block.delay, block.re, block.im)))


# least output fields a part takes: forking and reaping a child took 2.8-3.6 ms, what formatting
# 5000-8000 fields takes (0.44-0.64 us each), so a part formats for at least twice what its child costs
_PART_FIELDS = 16384


def split(rows: Sequence[int], fields: int) -> list[range]:
    """Contiguous ranges of the units of a row source, in order, whose unit i holds ``rows[i]`` rows
    of ``fields`` fields: one per CPU this process may run on, but none under about ``_PART_FIELDS``
    fields, and one where there are units. Each but the last ends at the last unit boundary at or
    before its equal share of the rows; ranges left empty are dropped. On two CPUs the default
    config's reference-pair taps (201 frames of 19 rows of 8 fields) are one range, its observations
    (15 fields) two."""
    ends = np.cumsum([0, *rows])  # rows before each unit
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, int(ends[-1]) * fields // _PART_FIELDS))
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, n) / n, side="right") - 1
    bounds = [0, *cuts.tolist(), len(rows)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def track(observations: Observations, scene: SceneTruth, cfg: tracker.TrackerConfig,
          seed: int) -> tracker.TrackerState:
    """The tracker stepped over the frames of ``observations``; the scene gives the BS and the user's start state."""
    if len(observations.times) < 2:
        raise tracker.TrackerError("need at least two observation frames")
    state = tracker.initialize(
        observations.frame(0), scene.bs_position, scene.user_position(observations.times[0]),
        scene.config.user_velocity, cfg, np.random.SeedSequence([seed, 2]),
    )
    for k in range(1, len(observations.times)):
        tracker.step(state, observations.frame(k))
    return state


@dataclass(frozen=True, eq=False)
class Score:
    """A tracker's history scored against the truth of its scene, over K steps and E clouds.

    Step k at ``times[k]`` has a row for each cloud of ``members[k]``. The
    step-by-cloud arrays hold the (K, E, 6) estimates, NaN outside the
    batch; whether each entity is alive and its (K, E, 3) position, NaN
    where not; the (K, E) errors between the two; and the (K, E) coasted
    and diverged flags, 0 outside the batch. ``truth_vel`` holds each
    entity's velocity and ``retired`` whether each cloud left the batch.
    A cloud scores at a step while it is in the batch and its entity is alive.

    ``clouds`` holds each cloud's (kind, path id, entity id, coasted steps,
    diverged, error at the last step, mean error over the steps it scores,
    least and median ESS over the steps it was weighted), NaN where it has
    no such number; ``rmse`` holds (kind, clouds, final RMSE, mean RMSE) of
    each kind with a final error, user, FB then LB.
    """

    times: list[float]
    members: list[np.ndarray]
    estimates: np.ndarray
    alive: np.ndarray
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    errors: np.ndarray
    coasted: np.ndarray
    diverged: np.ndarray
    retired: np.ndarray
    clouds: list[tuple]
    rmse: list[tuple[str, int, float, float]]


def score(state: tracker.TrackerState, scene: SceneTruth) -> Score:
    """``state``'s estimates against the true entities of ``scene``."""
    tracks = scene.trajectories(state.entity_ids)
    t = np.array(state.times)[:, None]
    alive = tracks.alive(t)
    truth_pos = np.where(alive[..., None], tracks.positions(t), np.nan)
    scored = alive & state.spread([np.ones(m.size, dtype=bool) for m in state.members], False)
    estimates = state.spread(state.estimates, np.nan)
    errors = norms(estimates[..., :3] - truth_pos)
    coasted, diverged = (state.spread(flags, False).astype(int) for flags in (state.coasted, state.diverged))

    # per-cloud numbers over the steps it scores or is weighted, in step order
    seen = scored.any(axis=0)
    mean = np.array([float(np.mean(errors[scored[:, e], e])) if seen[e] else np.nan for e in range(len(seen))])
    final = np.where(scored[-1], errors[-1], np.nan)
    # sorted, so the middle pair gives np.median's float without the 0.6 MB of numpy.ma it loads
    weighted = [np.sort(ess[~np.isnan(ess)]) for ess in state.spread(state.ess, np.nan).T]
    kinds, path_ids = zip(*state.keys)
    clouds = list(zip(kinds, path_ids, state.entity_ids, coasted.sum(axis=0).tolist(),
                      diverged.any(axis=0).astype(int).tolist(), final.tolist(), mean.tolist(),
                      [float(ess[0]) if ess.size else np.nan for ess in weighted],
                      [float((ess[(ess.size - 1) // 2] + ess[ess.size // 2]) / 2) if ess.size else np.nan
                       for ess in weighted]))
    rmse = []
    kinds = np.array(kinds)
    for kind in (tracker.KIND_USER, tracker.KIND_FB, tracker.KIND_LB):
        of_kind = kinds == kind
        kind_finals = final[of_kind & scored[-1]]
        if kind_finals.size:
            final_rmse = float(np.sqrt(np.mean(np.square(kind_finals))))
            rmse.append((kind, int(np.count_nonzero(of_kind)), final_rmse, float(np.mean(mean[of_kind & seen]))))
    return Score(state.times, state.members, estimates, alive, truth_pos, tracks.velocity, errors, coasted,
                 diverged, state.retired_at >= 0, clouds, rmse)


def trajectory_columns(s: Score) -> dict:
    """The columns of ``s``'s trajectory that ``trajectory_snapshots`` reads, equal to
    those ``csvio.read_trajectory`` reads back from the file the CLI writes of it."""
    k = np.repeat(np.arange(len(s.members)), [m.size for m in s.members])
    e = np.concatenate(s.members)
    kinds, path_ids, entity_ids = (np.array(column)[e] for column in list(zip(*s.clouds))[:3])
    est = s.estimates[k, e]
    return {"k": k, "t": np.array(s.times)[k], "kind": tuple(kinds.tolist()), "path_id": path_ids,
            "entity_id": entity_ids, "est_x": est[:, 0], "est_y": est[:, 1], "est_z": est[:, 2]}


# Each snapshot source yields (k, t, table) per frame: the (n, 6)
# snapshot table that stats.all_spreads takes, one row per path
Snapshots = Iterator[tuple[int, float, np.ndarray]]


def oracle_snapshots(scene: SceneTruth, rc: RunConfig) -> Snapshots:
    """The true paths of each frame of ``rc``."""
    times = rc.frame_times()
    paths, offsets = ground_truth_paths(scene, times)
    for k, t in enumerate(times):
        yield k, t, paths.columns.table[offsets[k]:offsets[k + 1]]


def observation_snapshots(observations: Observations) -> Snapshots:
    """The observed paths of each frame."""
    offsets = observations.offsets[:, 0]
    for k, t in enumerate(observations.times):
        yield k, t, observations.comm_paths.table[offsets[k]:offsets[k + 1]]


def _check_track_of_run(traj_path: str, traj: dict, times: Sequence[float], scene: SceneTruth) -> None:
    """Reject a trajectory whose (k, t) steps are not the run's frames at ``times``, or
    whose FB or LB rows track other scatterers than the run's paths have."""
    steps = sorted(set(zip(traj["k"].tolist(), traj["t"].tolist())))
    for k, (step, time) in enumerate(itertools.zip_longest(steps, times)):
        if time is None:
            raise tracker.TrackerError(f"{traj_path}: step k={step[0]} at t={step[1]!r} is past the run's last frame")
        if step != (k, time):
            got = "no step" if step is None else f"step k={step[0]} at t={step[1]!r}"
            raise tracker.TrackerError(f"{traj_path}: {got} where the run has frame k={k} at t={time!r}")
    want = {}
    for path_id, fb_id, lb_id, _ in scene.paths.tolist():
        want[(tracker.KIND_FB, path_id)], want[(tracker.KIND_LB, path_id)] = fb_id, lb_id
    rows = list(zip(traj["kind"], traj["path_id"].tolist(), traj["entity_id"].tolist()))
    wrong = {r for r in set(rows) if r[0] != tracker.KIND_USER and want.get(r[:2]) != r[2]}
    if wrong:
        i = next(i for i, r in enumerate(rows) if r in wrong)
        (kind, path_id, entity_id), k = rows[i], traj["k"][i]
        has = want.get((kind, path_id))
        run = f"the run has no path {path_id}" if has is None else f"the run's path {path_id} has {kind}_id {has}"
        raise tracker.TrackerError(
            f"{traj_path}: the {kind} row of path {path_id} at k={k} tracks scatterer {entity_id}, but {run}"
        )


def _last_rows(traj: dict, n_frames: int, kind: str, k: np.ndarray, path_id: np.ndarray) -> np.ndarray:
    """Per step ``k`` and path id, the index of the last row of ``traj`` of ``kind`` with
    them, else -1; every row's step is below ``n_frames``, as ``_check_track_of_run`` checks.

    Rows are matched by sorted codes, not through a dict of (kind, k,
    path_id) tuples: a non-stationary run's trajectory has thousands of
    rows, and such a dict raised the ``stats`` stage's peak RSS by about
    0.5 MB.
    """
    mine = np.flatnonzero(np.array(traj["kind"]) == kind)
    if not mine.size:
        return np.full(len(k), -1)
    ids, id_code = np.unique(traj["path_id"][mine], return_inverse=True)
    codes = id_code.reshape(-1) * n_frames + traj["k"][mine]
    order = np.argsort(codes, kind="stable")  # equal codes in file order, so the last one is the last row
    codes = codes[order]
    j = np.searchsorted(ids, path_id).clip(0, len(ids) - 1)
    wanted = j * n_frames + k
    pos = np.searchsorted(codes, wanted, side="right") - 1
    return np.where((pos >= 0) & (ids[j] == path_id) & (codes[pos] == wanted), mine[order[pos]], -1)


def trajectory_snapshots(observations: Observations, traj: dict, scene: SceneTruth,
                         traj_path: str = "trajectory") -> Snapshots:
    """Each frame's observed paths whose FB and LB clouds both have estimates, at their observed powers.

    ``traj`` holds the columns of a trajectory of these frames, named
    ``traj_path`` in the errors that reject it.
    """
    _check_track_of_run(traj_path, traj, observations.times, scene)
    n = len(observations.times)
    if not n:
        return
    est = np.column_stack([traj["est_x"], traj["est_y"], traj["est_z"]])

    # the paths of every frame at once, with the trajectory rows of their user, FB and LB estimates
    paths = observations.comm_paths
    ks = np.repeat(np.arange(n), np.diff(observations.offsets[:, 0]))
    user = _last_rows(traj, n, tracker.KIND_USER, np.arange(n), np.full(n, LOS_PATH_ID))
    fb, lb = (_last_rows(traj, n, kind, ks, paths.path_id) for kind in (tracker.KIND_FB, tracker.KIND_LB))
    tracked = (user[ks] >= 0) & (fb >= 0) & (lb >= 0)
    bs = np.array(scene.bs_position.as_tuple())
    leg, angles, _ = path_term_columns(bs, est[user[ks[tracked]]], est[fb[tracked]], est[lb[tracked]])
    table = np.column_stack([paths.table[tracked, 0], leg / SPEED_OF_LIGHT, angles])
    tables = np.split(table, np.cumsum(np.bincount(ks[tracked], minlength=n))[:-1])
    for k, t in enumerate(observations.times):
        if user[k] >= 0:
            yield k, t, tables[k]


def spreads(snapshots: Snapshots) -> list[tuple[int, float, tuple[float, ...]]]:
    """(k, t, the five spreads of ``stats.all_spreads``) of each snapshot that holds paths."""
    rows = [(k, t, stats.all_spreads(table)) for k, t, table in snapshots if len(table)]
    if not rows:
        raise stats.StatsError("no frames with paths to analyze")
    return rows
