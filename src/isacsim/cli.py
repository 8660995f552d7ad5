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
from dataclasses import replace

from . import csvio, pipeline, stats
from .config import RunConfig, load_run_config, resolved_config_text
from .scene import ConfigError, Observations, SceneTruth, load_scene, save_scene

SPREAD_QUANTITIES = csvio.SPREADS_HEADER[2:]


def _seed(args: argparse.Namespace, default: int) -> int:
    """``--seed`` if given, else ``default``; numpy seeds only from nonnegative integers."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    return default if args.seed is None else args.seed


def _check_match(given: RunConfig, recorded: RunConfig, mismatch: str) -> None:
    """Reject ``given`` unless it resolves to the values of the run's ``recorded``;
    the error names the first key that differs."""
    section = ""
    for g, r in zip(resolved_config_text(given).splitlines(), resolved_config_text(recorded).splitlines()):
        section = g if g.startswith("[") else section
        if g != r:
            raise ConfigError(f"{mismatch}: {section} {g}, the run has {r.split(' = ', 1)[1]}")


def _load_run(args: argparse.Namespace) -> tuple[RunConfig, SceneTruth]:
    """The configuration and scene the run was simulated with.

    An explicit ``--config`` must resolve to the same values as the run's
    config_resolved.ini; the first key that differs is reported. The scene
    is rebuilt from the ini and must be the one the run's scene.txt holds.
    """
    run_ini = os.path.join(args.run, "config_resolved.ini")
    rc = load_run_config(run_ini)
    if args.config:
        _check_match(load_run_config(args.config), rc, f"--config {args.config} does not match the run's {run_ini}")
    return rc, load_scene(os.path.join(args.run, "scene.txt"), rc.scene)


def cmd_simulate(args: argparse.Namespace) -> int:
    rc = load_run_config(args.config)
    rc = replace(rc, scene=replace(rc.scene, seed=_seed(args, rc.scene.seed)))
    drop = pipeline.simulate(rc)

    os.makedirs(args.out, exist_ok=True)
    save_scene(drop.scene, os.path.join(args.out, "scene.txt"))
    with open(os.path.join(args.out, "config_resolved.ini"), "w", encoding="utf-8") as fh:
        fh.write(resolved_config_text(rc))
    csvio.write_comm_observations(os.path.join(args.out, "observations.csv"), drop.observations)
    csvio.write_sensing_observations(os.path.join(args.out, "sensing_observations.csv"), drop.observations)
    csvio.write_sensing_taps(os.path.join(args.out, "sensing_taps.csv"), drop.observations, drop.sensing_taps)
    # in runs of rx rows, a run per CPU where the dump is large, each made as its kernel passes go
    units = pipeline.split(pipeline.comm_tap_rows(drop, rc, args.all_pairs), len(csvio.COMM_TAPS_HEADER))
    parts = [pipeline.comm_taps(drop, rc, args.all_pairs, run) for run in units]
    csvio.write_comm_taps(os.path.join(args.out, "comm_taps.csv"), parts)

    print(f"scene: {len(drop.scene.rcs)} scatterers, {len(drop.scene.paths)} paths")
    print(f"frames: {len(drop.times)} at Ts={rc.tracker.ts} s")
    print(f"outputs in {args.out}")
    return 0


def _read_observations(run_dir: str) -> Observations:
    return csvio.read_observations(
        os.path.join(run_dir, "observations.csv"),
        os.path.join(run_dir, "sensing_observations.csv"),
    )


def cmd_track(args: argparse.Namespace) -> int:
    rc, scene = _load_run(args)
    seed = _seed(args, rc.scene.seed)
    state = pipeline.track(_read_observations(args.run), scene, rc.tracker, seed)
    score = pipeline.score(state, scene)

    summary_rows = []
    for kind, path_id, entity_id, coasts, diverged, *numbers in score.clouds:
        summary_rows.append([kind, str(path_id), str(entity_id), str(coasts), str(diverged),
                             *("" if math.isnan(v) else repr(v) for v in numbers)])
    for pid in state.failed_paths:
        summary_rows.append(["failed", str(pid)] + [""] * 7)

    rmse_rows = []
    for kind, n_clouds, final_rmse, mean_rmse in score.rmse:
        rmse_rows.append([kind, str(n_clouds), repr(final_rmse), repr(mean_rmse)])
        print(f"{kind}: {n_clouds} clouds, final RMSE {final_rmse:.3f} m")

    total_coasts = sum(cloud[3] for cloud in score.clouds)
    if total_coasts:
        print(f"coasted cloud-steps: {total_coasts}")
    n_retired = int(score.retired.sum())
    if n_retired:
        print(f"retired clouds: {n_retired}")
    if state.failed_paths:
        print(f"failed path inits: {list(state.failed_paths)}")

    os.makedirs(args.out, exist_ok=True)
    csvio.write_trajectory(os.path.join(args.out, "trajectory.csv"), score)
    csvio.write_summary(os.path.join(args.out, "summary.csv"), summary_rows)
    csvio.write_rmse(os.path.join(args.out, "rmse.csv"), rmse_rows)
    print(f"outputs in {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    rc, scene = _load_run(args)
    if args.source == "scene":
        snapshots = pipeline.oracle_snapshots(scene, rc)
    elif args.source == "observations":
        snapshots = pipeline.observation_snapshots(_read_observations(args.run))
    else:
        if args.track is None:
            raise stats.StatsError("--track is required when --source trajectory")
        observations, traj_path = _read_observations(args.run), os.path.join(args.track, "trajectory.csv")
        snapshots = pipeline.trajectory_snapshots(observations, csvio.read_trajectory(traj_path), scene, traj_path)
    spread_rows = pipeline.spreads(snapshots)

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
