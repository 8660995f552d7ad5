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
import math
import os
import sys

import numpy as np

from . import comm, csvio, sensing, stats, tracker
from .config import RunConfig, load_run_config, resolved_config_text
from .constants import SPEED_OF_LIGHT
from .geometry import Vec3, path_terms
from .scene import (
    ConfigError,
    SceneTruth,
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


def _with_seed(rc: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return rc
    from dataclasses import replace

    return replace(rc, scene=replace(rc.scene, seed=seed))


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The configuration the run was simulated with.

    An explicit ``--config`` must resolve to the same values; the first
    key that differs is reported.
    """
    run_ini = os.path.join(args.run, "config_resolved.ini")
    rc = load_run_config(run_ini)
    if args.config:
        section = ""
        for given, recorded in zip(
            resolved_config_text(load_run_config(args.config)).splitlines(),
            resolved_config_text(rc).splitlines(),
        ):
            section = given if given.startswith("[") else section
            if given != recorded:
                raise ConfigError(
                    f"--config {args.config} does not match the run's {run_ini}: "
                    f"{section} {given}, the run has {recorded.split(' = ', 1)[1]}"
                )
    return rc


def cmd_simulate(args: argparse.Namespace) -> int:
    rc = _with_seed(load_run_config(args.config), args.seed)
    seed = rc.scene.seed
    scene = generate_scene(rc.scene)

    times = _frame_times(rc)
    obs_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    noise = (rc.scene.sigma_delay, rc.scene.sigma_angle)
    frames = [observe(scene, t, noise, obs_rng) for t in times]

    tx = rc.tx_array()
    rx_template = rc.rx_template()
    pol_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    draws = comm.draw_polarization_set(scene, rc.comm, pol_rng)
    sensing_taps = [(t, sensing.monostatic_cir(scene, t)) for t in times]

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
        ((t, comm.frame_taps(scene, t, tx, rx_template, rc.comm, draws, q, p)) for t in times),
    )

    print(f"scene: {len(scene.scatterers)} scatterers, {len(scene.paths)} paths")
    print(f"frames: {len(frames)} at Ts={rc.tracker.ts} s")
    print(f"outputs in {args.out}")
    return 0


def _truth_state(scene: SceneTruth, kind: str, entity_id: int, t: float):
    if kind == tracker.KIND_USER:
        return scene.user_position(t), scene.config.user_velocity
    s = scene.scatterer(entity_id)
    if not s.alive(t):
        return None, None
    return s.position_at(t), s.velocity


def cmd_track(args: argparse.Namespace) -> int:
    rc = _run_config(args)
    seed = rc.scene.seed if args.seed is None else args.seed
    scene = load_scene(os.path.join(args.run, "scene.txt"))
    frames = csvio.read_observation_frames(
        os.path.join(args.run, "observations.csv"),
        os.path.join(args.run, "sensing_observations.csv"),
    )
    if len(frames) < 2:
        raise tracker.TrackerError("need at least two observation frames")
    for a, b in zip(frames, frames[1:]):
        if not math.isclose(b.time - a.time, rc.tracker.ts, rel_tol=0.0, abs_tol=1e-9):
            raise tracker.TrackerError(
                f"frame spacing {b.time - a.time} does not match configured Ts={rc.tracker.ts}"
            )

    user0 = tracker.EntityState(scene.user_position(frames[0].time), scene.config.user_velocity)
    state = tracker.initialize(
        frames[0], scene.bs_position, user0, rc.tracker, np.random.SeedSequence([seed, 2])
    )
    for frame in frames[1:]:
        tracker.step(state, frame)

    keys, ids = state.keys, state.entity_ids
    errors: list[list[float | None]] = [[] for _ in keys]
    traj_rows = []
    for k, (t, estimates, coasted, diverged) in enumerate(
        zip(state.times, state.estimates, state.coasted, state.diverged)
    ):
        for e, (key, (x, y, z, vx, vy, vz)) in enumerate(zip(keys, estimates.tolist())):
            tp, tv = _truth_state(scene, key[0], ids[e], t)
            err = Vec3(x, y, z).distance_to(tp) if tp is not None else None
            errors[e].append(err)
            truth_cols = (
                [repr(tp.x), repr(tp.y), repr(tp.z), repr(tv.x), repr(tv.y), repr(tv.z)]
                if tp is not None
                else [""] * 6
            )
            traj_rows.append(
                [
                    str(k), repr(t), key[0], str(key[1]), str(ids[e]),
                    repr(x), repr(y), repr(z), repr(vx), repr(vy), repr(vz),
                    *truth_cols,
                    repr(err) if err is not None else "",
                    str(int(coasted[e])), str(int(diverged[e])),
                ]
            )

    summary_rows = []
    coast_counts = np.sum(state.coasted, axis=0)
    ess = np.stack(state.ess)
    for e, key in enumerate(keys):
        known = [err for err in errors[e] if err is not None]
        final = errors[e][-1]
        weighted = ess[:, e][~np.isnan(ess[:, e])]
        summary_rows.append(
            [
                key[0], str(key[1]), str(ids[e]), str(coast_counts[e]),
                str(int(state.clouds.diverged[e])),
                repr(final) if final is not None else "",
                repr(float(np.mean(known))) if known else "",
                repr(float(weighted.min())) if weighted.size else "",
                repr(float(np.median(weighted))) if weighted.size else "",
            ]
        )
    for pid in state.failed_paths:
        summary_rows.append(["failed", str(pid)] + [""] * 7)

    rmse_rows = []
    for kind in (tracker.KIND_USER, tracker.KIND_FB, tracker.KIND_LB):
        kind_errors = [errors[e] for e, key in enumerate(keys) if key[0] == kind]
        finals = [errs[-1] for errs in kind_errors if errs[-1] is not None]
        means = [
            float(np.mean([err for err in errs if err is not None]))
            for errs in kind_errors
            if any(err is not None for err in errs)
        ]
        if finals:
            final_rmse = float(np.sqrt(np.mean(np.square(finals))))
            mean_rmse = float(np.mean(means))
            rmse_rows.append([kind, str(len(kind_errors)), repr(final_rmse), repr(mean_rmse)])
            print(f"{kind}: {len(kind_errors)} clouds, final RMSE {final_rmse:.3f} m")

    total_coasts = int(coast_counts.sum())
    if total_coasts:
        print(f"coasted cloud-steps: {total_coasts}")
    if state.failed_paths:
        print(f"failed path inits: {list(state.failed_paths)}")

    os.makedirs(args.out, exist_ok=True)
    csvio.write_trajectory(os.path.join(args.out, "trajectory.csv"), traj_rows)
    csvio.write_summary(os.path.join(args.out, "summary.csv"), summary_rows)
    csvio.write_rmse(os.path.join(args.out, "rmse.csv"), rmse_rows)
    print(f"outputs in {args.out}")
    return 0


def _oracle_ensembles(scene: SceneTruth, rc: RunConfig) -> list[tuple[int, float, stats.PathEnsemble]]:
    out = []
    for k, t in enumerate(_frame_times(rc)):
        rows = [
            (p.power, p.delay, p.aod.azimuth, p.aod.elevation, p.aoa.azimuth, p.aoa.elevation)
            for p in ground_truth_paths(scene, t)
        ]
        if rows:
            out.append((k, t, stats.PathEnsemble.from_rows(rows)))
    return out


def _observation_ensembles(run_dir: str) -> list[tuple[int, float, stats.PathEnsemble]]:
    frames = csvio.read_observation_frames(
        os.path.join(run_dir, "observations.csv"),
        os.path.join(run_dir, "sensing_observations.csv"),
    )
    out = []
    for k, frame in enumerate(frames):
        if frame.comm_paths:
            out.append((k, frame.time, stats.PathEnsemble.from_observations(frame.comm_paths)))
    return out


def _trajectory_ensembles(run_dir: str, track_dir: str) -> list[tuple[int, float, stats.PathEnsemble]]:
    scene = load_scene(os.path.join(run_dir, "scene.txt"))
    frames = csvio.read_observation_frames(
        os.path.join(run_dir, "observations.csv"),
        os.path.join(run_dir, "sensing_observations.csv"),
    )
    rows = csvio.read_trajectory(os.path.join(track_dir, "trajectory.csv"))

    est: dict[tuple[int, str, int], Vec3] = {}
    times: dict[int, float] = {}
    for r in rows:
        k = int(r["k"])
        times[k] = float(r["t"])
        est[(k, r["kind"], int(r["path_id"]))] = Vec3(
            float(r["est_x"]), float(r["est_y"]), float(r["est_z"])
        )

    out = []
    for k, frame in enumerate(frames):
        user = est.get((k, tracker.KIND_USER, -1))
        if user is None:
            continue
        ens_rows = []
        for obs in frame.comm_paths:
            fb = est.get((k, tracker.KIND_FB, obs.path_id))
            lb = est.get((k, tracker.KIND_LB, obs.path_id))
            if fb is not None and lb is not None:
                leg, aod, aoa = path_terms(scene.bs_position, user, fb, lb)
                ens_rows.append(
                    (obs.power, leg / SPEED_OF_LIGHT, aod.azimuth, aod.elevation, aoa.azimuth, aoa.elevation)
                )
        if ens_rows:
            out.append((k, frame.time, stats.PathEnsemble.from_rows(ens_rows)))
    return out


def cmd_stats(args: argparse.Namespace) -> int:
    rc = _run_config(args)
    if args.source == "scene":
        scene = load_scene(os.path.join(args.run, "scene.txt"))
        ensembles = _oracle_ensembles(scene, rc)
    elif args.source == "observations":
        ensembles = _observation_ensembles(args.run)
    else:
        if args.track is None:
            raise stats.StatsError("--track is required when --source trajectory")
        ensembles = _trajectory_ensembles(args.run, args.track)
    if not ensembles:
        raise stats.StatsError("no frames with paths to analyze")

    label = args.label or args.source
    spread_rows = [(k, t, stats.all_spreads(e)) for k, t, e in ensembles]

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
    rows_a = csvio.read_spreads(args.a)
    rows_b = csvio.read_spreads(args.b)
    if not rows_a or not rows_b:
        raise stats.StatsError("both spread files must hold at least one row")

    ks_rows = []
    for quantity in SPREAD_QUANTITIES:
        cdf_a = stats.empirical_cdf([r[quantity] for r in rows_a])
        cdf_b = stats.empirical_cdf([r[quantity] for r in rows_b])
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
