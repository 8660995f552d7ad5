"""Command-line pipeline: simulate, track, stats, compare.

simulate  generate a scene, observation frames, and channel tap dumps
track     run the particle filter over recorded observation frames
stats     per-frame spread series and spread CDFs from one of the
          sources: scene truth, raw observations, or tracked estimates
compare   Kolmogorov-Smirnov distances between two spread series

All outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from typing import Iterator

import numpy as np

from . import comm, csvio, sensing, stats, tracker
from .config import RunConfig, load_run_config, resolved_config_text
from .constants import SPEED_OF_LIGHT
from .geometry import norms, path_term_columns
from .scene import (
    LOS_PATH_ID,
    ConfigError,
    ObservationFrame,
    SceneTruth,
    echoes,
    generate_scene,
    ground_truth_paths,
    load_scene,
    observe,
    save_scene,
)

SPREAD_QUANTITIES = csvio.SPREADS_HEADER[2:]


def _frame_times(rc: RunConfig) -> list[float]:
    # clamped: k * Ts can overshoot the scene's end by rounding (3 * 0.1 > 0.3)
    return [min(k * rc.tracker.ts, rc.scene.duration) for k in range(rc.n_frames)]


def _seed(args: argparse.Namespace, default: int) -> int:
    """``--seed`` if given, else ``default``; numpy seeds only from nonnegative integers."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    return default if args.seed is None else args.seed


def _check_match(given: RunConfig, recorded: RunConfig, mismatch: str, holder: str) -> None:
    """Reject ``given`` unless it resolves to the values of ``recorded``, held by ``holder``;
    the error names the first key that differs."""
    section = ""
    for g, r in zip(resolved_config_text(given).splitlines(), resolved_config_text(recorded).splitlines()):
        section = g if g.startswith("[") else section
        if g != r:
            raise ConfigError(f"{mismatch}: {section} {g}, the {holder} has {r.split(' = ', 1)[1]}")


def _load_run(args: argparse.Namespace) -> tuple[RunConfig, SceneTruth]:
    """The configuration and scene the run was simulated with.

    The run's config_resolved.ini must hold the scene config of its
    scene.txt, and an explicit ``--config`` must resolve to the same
    values as the ini; the first key that differs is reported.
    """
    run_ini, scene_txt = os.path.join(args.run, "config_resolved.ini"), os.path.join(args.run, "scene.txt")
    rc = load_run_config(run_ini)
    if args.config:
        mismatch = f"--config {args.config} does not match the run's {run_ini}"
        _check_match(load_run_config(args.config), rc, mismatch, "run")
    scene = load_scene(scene_txt)
    _check_match(rc, replace(rc, scene=scene.config), f"the run's {run_ini} does not match its {scene_txt}", "scene")
    return rc, scene


def cmd_simulate(args: argparse.Namespace) -> int:
    rc = load_run_config(args.config)
    rc = replace(rc, scene=replace(rc.scene, seed=_seed(args, rc.scene.seed)))
    seed = rc.scene.seed
    scene = generate_scene(rc.scene)

    times = _frame_times(rc)
    # every frame's paths and echoes, resolved once for the observations and both channels
    paths, detections = ground_truth_paths(scene, times), echoes(scene, times)
    obs_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    noise = (rc.scene.sigma_delay, rc.scene.sigma_angle)
    frames = [observe(scene, t, noise, obs_rng, *truth) for t, *truth in zip(times, paths, detections)]

    tx = rc.tx_array()
    rx_template = rc.rx_template()
    pol_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    draws = comm.draw_polarization_set(scene, rc.comm, pol_rng)
    sensing_taps = [(t, sensing.monostatic_cir(echo)) for t, echo in zip(times, detections)]

    os.makedirs(args.out, exist_ok=True)
    save_scene(scene, os.path.join(args.out, "scene.txt"))
    with open(os.path.join(args.out, "config_resolved.ini"), "w", encoding="utf-8") as fh:
        fh.write(resolved_config_text(rc))
    csvio.write_comm_observations(os.path.join(args.out, "observations.csv"), frames)
    csvio.write_sensing_observations(os.path.join(args.out, "sensing_observations.csv"), frames)
    csvio.write_sensing_taps(os.path.join(args.out, "sensing_taps.csv"), sensing_taps)

    # comm taps for the (q, p) grid of pairs, written frame by frame
    n_rx, n_tx = (rx_template.num_elements, tx.num_elements) if args.all_pairs else (1, 1)
    q, p = np.arange(n_rx)[:, None], np.arange(n_tx)[None, :]
    csvio.write_comm_taps(
        os.path.join(args.out, "comm_taps.csv"),
        ((t, comm.frame_taps(scene, t, tx, rx_template, rc.comm, draws, q, p, truth))
         for t, truth in zip(times, paths)),
    )

    print(f"scene: {len(scene.scatterers)} scatterers, {len(scene.paths)} paths")
    print(f"frames: {len(frames)} at Ts={rc.tracker.ts} s")
    print(f"outputs in {args.out}")
    return 0


def _read_frames(run_dir: str) -> list[ObservationFrame]:
    return csvio.read_observation_frames(
        os.path.join(run_dir, "observations.csv"),
        os.path.join(run_dir, "sensing_observations.csv"),
    )


def _truth_tracks(scene: SceneTruth, state: tracker.TrackerState) -> tuple[np.ndarray, ...]:
    """Each cloud's true entity at each step: the (K, E) alive mask, the
    (K, E, 3) positions, NaN where not alive, and the (E, 3) velocities.
    """
    tracks = scene.trajectories(state.entity_ids)
    t = np.array(state.times)[:, None]
    alive = tracks.alive(t)
    return alive, np.where(alive[..., None], tracks.positions(t), np.nan), tracks.velocity


def cmd_track(args: argparse.Namespace) -> int:
    rc, scene = _load_run(args)
    seed = _seed(args, rc.scene.seed)
    frames = _read_frames(args.run)
    if len(frames) < 2:
        raise tracker.TrackerError("need at least two observation frames")

    state = tracker.initialize(
        frames[0], scene.bs_position, scene.user_position(frames[0].time), scene.config.user_velocity,
        rc.tracker, np.random.SeedSequence([seed, 2]),
    )
    for frame in frames[1:]:
        tracker.step(state, frame)

    # (K, E) scores: K steps, E clouds, NaN where the cloud's entity is not alive
    keys, ids = state.keys, state.entity_ids
    alive, truth_pos, truth_vel = _truth_tracks(scene, state)
    estimates = np.stack(state.estimates)
    errors = norms(estimates[..., :3] - truth_pos)
    coasted, diverged = np.stack(state.coasted).astype(int), np.stack(state.diverged).astype(int)

    def trajectory_rows():
        # the fields fixed per entity or per step are formatted once
        entities = [[kind, str(pid), str(eid)] for (kind, pid), eid in zip(keys, ids)]
        velocities = [[repr(v) for v in vel] for vel in truth_vel.tolist()]
        unknown = [""] * 7
        for k, t in enumerate(state.times):
            head = [str(k), repr(t)]
            rows = zip(entities, estimates[k].tolist(), truth_pos[k].tolist(), velocities,
                       errors[k].tolist(), alive[k].tolist(), coasted[k].tolist(), diverged[k].tolist())
            for entity, est, pos, vel, err, known, coast, div in rows:
                truth = [*map(repr, pos), *vel, repr(err)] if known else unknown
                yield [*head, *entity, *map(repr, est), *truth, str(coast), str(div)]

    # per-cloud means over the steps its entity is alive, in step order
    seen = alive.any(axis=0)
    cloud_means = np.array(
        [float(np.mean(errors[alive[:, e], e])) if seen[e] else np.nan for e in range(len(keys))]
    )
    finals = np.where(alive[-1], errors[-1], np.nan)
    summary_rows = []
    coast_counts = np.sum(coasted, axis=0)
    ess = np.stack(state.ess)
    for e, key in enumerate(keys):
        weighted = ess[:, e][~np.isnan(ess[:, e])]
        summary_rows.append(
            [
                key[0], str(key[1]), str(ids[e]), str(coast_counts[e]),
                str(int(state.clouds.diverged[e])),
                repr(float(finals[e])) if alive[-1, e] else "",
                repr(float(cloud_means[e])) if seen[e] else "",
                repr(float(weighted.min())) if weighted.size else "",
                repr(float(np.median(weighted))) if weighted.size else "",
            ]
        )
    for pid in state.failed_paths:
        summary_rows.append(["failed", str(pid)] + [""] * 7)

    rmse_rows = []
    kinds = np.array([key[0] for key in keys])
    for kind in (tracker.KIND_USER, tracker.KIND_FB, tracker.KIND_LB):
        of_kind = kinds == kind
        kind_finals = finals[of_kind & alive[-1]]
        if kind_finals.size:
            final_rmse = float(np.sqrt(np.mean(np.square(kind_finals))))
            mean_rmse = float(np.mean(cloud_means[of_kind & seen]))
            n_clouds = int(np.count_nonzero(of_kind))
            rmse_rows.append([kind, str(n_clouds), repr(final_rmse), repr(mean_rmse)])
            print(f"{kind}: {n_clouds} clouds, final RMSE {final_rmse:.3f} m")

    total_coasts = int(coast_counts.sum())
    if total_coasts:
        print(f"coasted cloud-steps: {total_coasts}")
    if state.failed_paths:
        print(f"failed path inits: {list(state.failed_paths)}")

    os.makedirs(args.out, exist_ok=True)
    csvio.write_trajectory(os.path.join(args.out, "trajectory.csv"), trajectory_rows())
    csvio.write_summary(os.path.join(args.out, "summary.csv"), summary_rows)
    csvio.write_rmse(os.path.join(args.out, "rmse.csv"), rmse_rows)
    print(f"outputs in {args.out}")
    return 0


# Each snapshot source yields (k, t, table) per frame: the (n, 6)
# snapshot table that stats.all_spreads takes, one row per path
Snapshots = Iterator[tuple[int, float, np.ndarray]]


def _oracle_snapshots(scene: SceneTruth, rc: RunConfig) -> Snapshots:
    times = _frame_times(rc)
    for k, (t, paths) in enumerate(zip(times, ground_truth_paths(scene, times))):
        yield k, t, paths.columns.table


def _observation_snapshots(run_dir: str) -> Snapshots:
    for k, frame in enumerate(_read_frames(run_dir)):
        yield k, frame.time, frame.comm_paths.table


def _check_track_of_run(traj_path: str, traj: dict, frames: list[ObservationFrame], scene: SceneTruth) -> None:
    """Reject a trajectory whose (k, t) steps are not the run's frames, or
    whose FB or LB rows track other scatterers than the run's paths have."""
    steps = sorted(set(zip(traj["k"].tolist(), traj["t"].tolist())))
    for k, (step, frame) in enumerate(itertools.zip_longest(steps, frames)):
        if frame is None:
            raise tracker.TrackerError(f"{traj_path}: step k={step[0]} at t={step[1]!r} is past the run's last frame")
        if step != (k, frame.time):
            got = "no step" if step is None else f"step k={step[0]} at t={step[1]!r}"
            raise tracker.TrackerError(f"{traj_path}: {got} where the run has frame k={k} at t={frame.time!r}")
    want = {}
    for p in scene.paths:
        want[(tracker.KIND_FB, p.path_id)], want[(tracker.KIND_LB, p.path_id)] = p.fb_id, p.lb_id
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


def _trajectory_snapshots(run_dir: str, track_dir: str, scene: SceneTruth) -> Snapshots:
    """Each frame's observed paths whose FB and LB clouds both have estimates, at their observed powers."""
    frames = _read_frames(run_dir)
    traj_path = os.path.join(track_dir, "trajectory.csv")
    traj = csvio.read_trajectory(traj_path)
    _check_track_of_run(traj_path, traj, frames, scene)
    if not frames:
        return
    row = {key: i for i, key in enumerate(zip(traj["kind"], traj["k"].tolist(), traj["path_id"].tolist()))}
    est = np.column_stack([traj["est_x"], traj["est_y"], traj["est_z"]])

    # the paths of every frame at once, with the trajectory rows of their user, FB and LB estimates
    ks = np.repeat(np.arange(len(frames)), [len(frame.comm_paths) for frame in frames])
    paths = np.concatenate([frame.comm_paths.table for frame in frames])
    keys = list(zip(ks.tolist(), np.concatenate([frame.comm_paths.path_id for frame in frames]).tolist()))
    user = np.array([row.get((tracker.KIND_USER, k, LOS_PATH_ID), -1) for k in range(len(frames))], dtype=int)
    fb, lb = (np.array([row.get((kind, *key), -1) for key in keys], dtype=int)
              for kind in (tracker.KIND_FB, tracker.KIND_LB))
    tracked = (user[ks] >= 0) & (fb >= 0) & (lb >= 0)
    bs = np.array(scene.bs_position.as_tuple())
    leg, angles, _ = path_term_columns(bs, est[user[ks[tracked]]], est[fb[tracked]], est[lb[tracked]])
    table = np.column_stack([paths[tracked, 0], leg / SPEED_OF_LIGHT, angles])
    tables = np.split(table, np.cumsum(np.bincount(ks[tracked], minlength=len(frames)))[:-1])
    for k, frame in enumerate(frames):
        if user[k] >= 0:
            yield k, frame.time, tables[k]


def cmd_stats(args: argparse.Namespace) -> int:
    rc, scene = _load_run(args)
    if args.source == "scene":
        snapshots = _oracle_snapshots(scene, rc)
    elif args.source == "observations":
        snapshots = _observation_snapshots(args.run)
    else:
        if args.track is None:
            raise stats.StatsError("--track is required when --source trajectory")
        snapshots = _trajectory_snapshots(args.run, args.track, scene)
    spread_rows = [(k, t, stats.all_spreads(table)) for k, t, table in snapshots if len(table)]
    if not spread_rows:
        raise stats.StatsError("no frames with paths to analyze")

    label = args.label or args.source
    os.makedirs(args.out, exist_ok=True)
    csvio.write_spreads(os.path.join(args.out, f"spreads_{label}.csv"), spread_rows)
    for idx, quantity in enumerate(SPREAD_QUANTITIES):
        cdf = stats.empirical_cdf([row[2][idx] for row in spread_rows])
        csvio.write_cdf(
            os.path.join(args.out, f"cdf_{quantity}_{label}.csv"),
            [float(v) for v in cdf.values],
            [float(f) for f in cdf.fractions],
        )
    print(f"{len(spread_rows)} snapshots -> spreads_{label}.csv and 5 CDF files in {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spreads_a = csvio.read_spreads(args.a)
    spreads_b = csvio.read_spreads(args.b)
    if not len(spreads_a["k"]) or not len(spreads_b["k"]):
        raise stats.StatsError("both spread files must hold at least one row")

    ks_rows = []
    for quantity in SPREAD_QUANTITIES:
        cdf_a = stats.empirical_cdf(spreads_a[quantity])
        cdf_b = stats.empirical_cdf(spreads_b[quantity])
        d = stats.ks_distance(cdf_a, cdf_b)
        ks_rows.append((quantity, d))
        print(f"{quantity}: ks = {d:.4f}")

    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        csvio.write_ks(args.out, ks_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="ISAC channel simulator: scene synthesis, scatterer tracking, spread statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate scene, observations, and channel taps")
    p_sim.add_argument("--config", help="INI config file (defaults used when omitted)")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--all-pairs", action="store_true",
        help="dump comm taps for every antenna pair (default: reference pair only)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_trk = sub.add_parser("track", help="run the particle filter on recorded observations")
    p_trk.add_argument("--config", help="INI config file; must match the run's config_resolved.ini, the default")
    p_trk.add_argument("--seed", type=int, help="tracker seed (default: config seed)")
    p_trk.add_argument("--run", required=True, help="simulate output directory")
    p_trk.add_argument("--out", required=True, help="output directory")
    p_trk.set_defaults(func=cmd_track)

    p_sts = sub.add_parser("stats", help="spread time series and CDFs")
    p_sts.add_argument("--config", help="INI config file; must match the run's config_resolved.ini, the default")
    p_sts.add_argument("--run", required=True, help="simulate output directory")
    p_sts.add_argument("--track", help="track output directory (for --source trajectory)")
    p_sts.add_argument(
        "--source", choices=["scene", "observations", "trajectory"], default="scene",
        help="what to measure: ground truth, raw observations, or tracked estimates",
    )
    p_sts.add_argument("--out", required=True, help="output directory")
    p_sts.add_argument("--label", help="suffix for output file names (default: source)")
    p_sts.set_defaults(func=cmd_stats)

    p_cmp = sub.add_parser("compare", help="KS distances between two spread series")
    p_cmp.add_argument("--a", required=True, help="first spreads CSV")
    p_cmp.add_argument("--b", required=True, help="second spreads CSV")
    p_cmp.add_argument("--out", help="KS table CSV to write")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
