import csv
import hashlib
import os
import re

import pytest

from isacsim import csvio
from isacsim.cli import main

SMALL_CFG = """
[run]
seed = 19
duration = 1.0

[scene]
n_clusters = 2
fb_per_cluster = 1
lb_per_cluster = 1

[arrays]
tx_rows = 4
tx_cols = 2

[tracker]
n_particles = 100
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_CFG)
    return str(p)


def run(*argv):
    return main(list(argv))


def simulate(tmp_path, cfg_path, out="run"):
    out_dir = str(tmp_path / out)
    assert run("simulate", "--config", cfg_path, "--out", out_dir) == 0
    return out_dir


def test_simulate_outputs(tmp_path, cfg_path, capsys):
    out = simulate(tmp_path, cfg_path)
    for name in (
        "scene.txt",
        "config_resolved.ini",
        "observations.csv",
        "sensing_observations.csv",
        "sensing_taps.csv",
        "comm_taps.csv",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    printed = capsys.readouterr().out
    assert "scene:" in printed and "frames:" in printed


def test_simulate_deterministic(tmp_path, cfg_path):
    a = simulate(tmp_path, cfg_path, "a")
    b = simulate(tmp_path, cfg_path, "b")
    for name in ("scene.txt", "observations.csv", "comm_taps.csv"):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_simulate_seed_override_changes_output(tmp_path, cfg_path):
    a = simulate(tmp_path, cfg_path, "a")
    out_b = str(tmp_path / "b")
    assert run("simulate", "--config", cfg_path, "--seed", "77", "--out", out_b) == 0
    with open(os.path.join(a, "scene.txt"), "rb") as fa, open(
        os.path.join(out_b, "scene.txt"), "rb"
    ) as fb:
        assert fa.read() != fb.read()


def test_track_outputs(tmp_path, cfg_path):
    run_dir = simulate(tmp_path, cfg_path)
    trk = str(tmp_path / "trk")
    assert run("track", "--config", cfg_path, "--run", run_dir, "--out", trk) == 0
    rmse = csvio.read_columns(
        os.path.join(trk, "rmse.csv"), "track_rmse", csvio.RMSE_HEADER, ints=("n_clouds",), strings=("kind",)
    )
    assert {"user", "fb", "lb"} <= set(rmse["kind"])
    assert rmse["n_clouds"][rmse["kind"].index("fb")] == 4  # 2 clusters x 1 FB x (self + 1 LB)
    ks = set(csvio.read_trajectory(os.path.join(trk, "trajectory.csv"))["k"].tolist())
    assert ks == set(range(11))  # duration 1.0 at Ts 0.1
    with open(os.path.join(trk, "summary.csv"), newline="") as fh:
        assert fh.readline() == "# isacsim track_summary v2\n"
        summary = [r for r in csv.DictReader(fh) if r["kind"] != "failed"]
    assert len(summary) == 9  # user + 4 FB + 4 LB clouds
    for r in summary:
        assert 1.0 <= float(r["ess_min"]) <= float(r["ess_median"]) <= 100.0  # n_particles


def test_stats_and_compare(tmp_path, cfg_path):
    run_dir = simulate(tmp_path, cfg_path)
    trk = str(tmp_path / "trk")
    assert run("track", "--config", cfg_path, "--run", run_dir, "--out", trk) == 0
    sts = str(tmp_path / "sts")
    assert run(
        "stats", "--config", cfg_path, "--run", run_dir, "--source", "scene",
        "--out", sts, "--label", "oracle",
    ) == 0
    assert run(
        "stats", "--config", cfg_path, "--run", run_dir, "--track", trk,
        "--source", "trajectory", "--out", sts, "--label", "tracked",
    ) == 0
    assert os.path.exists(os.path.join(sts, "spreads_oracle.csv"))
    assert os.path.exists(os.path.join(sts, "cdf_delay_spread_s_oracle.csv"))
    ks_out = os.path.join(sts, "ks.csv")
    assert run(
        "compare", "--a", os.path.join(sts, "spreads_oracle.csv"),
        "--b", os.path.join(sts, "spreads_tracked.csv"), "--out", ks_out,
    ) == 0
    ks = csvio.read_columns(ks_out, "ks", csvio.KS_HEADER, ("ks_distance",), strings=("quantity",))
    assert len(ks["quantity"]) == 5
    assert all(0.0 <= v <= 1.0 for v in ks["ks_distance"].tolist())


def test_stats_observation_source(tmp_path, cfg_path):
    run_dir = simulate(tmp_path, cfg_path)
    sts = str(tmp_path / "sts")
    assert run(
        "stats", "--config", cfg_path, "--run", run_dir, "--source", "observations",
        "--out", sts,
    ) == 0
    assert os.path.exists(os.path.join(sts, "spreads_observations.csv"))


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scene]\nn_clusters = many\n")
    code = run("simulate", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_run_dir_exits_2(tmp_path, cfg_path, capsys):
    code = run("track", "--config", cfg_path, "--run", str(tmp_path / "none"), "--out", str(tmp_path / "t"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_stats_trajectory_requires_track(tmp_path, cfg_path, capsys):
    run_dir = simulate(tmp_path, cfg_path)
    code = run(
        "stats", "--config", cfg_path, "--run", run_dir, "--source", "trajectory",
        "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert "--track" in capsys.readouterr().err


def test_track_seed_changes_estimates(tmp_path, cfg_path):
    run_dir = simulate(tmp_path, cfg_path)
    t1 = str(tmp_path / "t1")
    t2 = str(tmp_path / "t2")
    assert run("track", "--config", cfg_path, "--run", run_dir, "--out", t1) == 0
    assert run("track", "--config", cfg_path, "--run", run_dir, "--seed", "123", "--out", t2) == 0
    with open(os.path.join(t1, "trajectory.csv"), "rb") as f1, open(
        os.path.join(t2, "trajectory.csv"), "rb"
    ) as f2:
        assert f1.read() != f2.read()


def test_resolved_config_reparses(tmp_path, cfg_path):
    from isacsim.config import load_run_config, parse_run_config

    run_dir = simulate(tmp_path, cfg_path)
    with open(os.path.join(run_dir, "config_resolved.ini")) as fh:
        text = fh.read()
    assert parse_run_config(text) == load_run_config(cfg_path)


ALLPAIRS_CFG = """
[run]
seed = 19
duration = 0.2

[scene]
n_clusters = 2
fb_per_cluster = 1
lb_per_cluster = 1
virtual_delay_max = 5e-8

[arrays]
tx_rows = 4
tx_cols = 2
"""

# sha256 of comm_taps.csv as written by the per-tap scalar synthesis that the
# array kernel replaced; the kernel must keep every byte
ALLPAIRS_COMM_TAPS_SHA256 = "e7ed80b484a3417b3cb3190f6c4dcd4d9d9bd7a1e8b389583f5b75e15044f6f3"


def test_all_pairs_comm_taps_bytes_pinned(tmp_path):
    cfg = tmp_path / "allpairs.ini"
    cfg.write_text(ALLPAIRS_CFG)
    out = str(tmp_path / "run")
    assert run("simulate", "--config", str(cfg), "--all-pairs", "--out", out) == 0
    with open(os.path.join(out, "comm_taps.csv"), "rb") as fh:
        data = fh.read()
    assert data.count(b"\n") == 2 + 3 * 32 * 5  # 3 frames x 32 pairs x (LoS + 4 paths)
    assert hashlib.sha256(data).hexdigest() == ALLPAIRS_COMM_TAPS_SHA256


NONSTATIONARY_CFG = """
[run]
seed = 5
duration = 1.0

[scene]
birth_death_rate = 0.5
virtual_delay_max = 5e-8

[arrays]
tx_rows = 4
tx_cols = 2
"""

# sha256 of comm_taps.csv as written by the full 2x2 polarization coupling
# that the one co-polar phase per path replaced; paths born after t = 0 must
# keep the phase their id was drawn
NONSTATIONARY_COMM_TAPS_SHA256 = "32bed45703ab0940c9fb935b43489e7f889e68658a3df70b1c6547e684bd490b"


def test_nonstationary_all_pairs_comm_taps_bytes_pinned(tmp_path):
    cfg = tmp_path / "nonstationary.ini"
    cfg.write_text(NONSTATIONARY_CFG)
    out = str(tmp_path / "run")
    assert run("simulate", "--config", str(cfg), "--all-pairs", "--out", out) == 0
    taps = csvio.read_columns(
        os.path.join(out, "comm_taps.csv"), "comm_taps", csvio.COMM_TAPS_HEADER, ("t",), ("path_id",)
    )
    first = set(taps["path_id"][taps["t"] == 0.0].tolist())
    assert set(taps["path_id"].tolist()) - first  # some taps belong to paths born later
    with open(os.path.join(out, "comm_taps.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == NONSTATIONARY_COMM_TAPS_SHA256


def test_duration_off_the_float_grid_runs_every_stage(tmp_path):
    # 3 * 0.1 = 0.30000000000000004 overshoots a 0.3 s scene
    cfg = tmp_path / "short.ini"
    cfg.write_text(SMALL_CFG.replace("duration = 1.0", "duration = 0.3"))
    run_dir = simulate(tmp_path, str(cfg))
    frames = csvio.read_observation_frames(
        os.path.join(run_dir, "observations.csv"), os.path.join(run_dir, "sensing_observations.csv")
    )
    assert [f.time for f in frames] == [0.0, 0.1, 0.2, 0.3]
    trk = str(tmp_path / "trk")
    assert run("track", "--config", str(cfg), "--run", run_dir, "--out", trk) == 0
    sts = str(tmp_path / "sts")
    assert run(
        "stats", "--config", str(cfg), "--run", run_dir, "--track", trk,
        "--source", "trajectory", "--out", sts,
    ) == 0
    assert len(csvio.read_spreads(os.path.join(sts, "spreads_trajectory.csv"))["k"]) == 4


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("run", "duration = inf", "duration must be finite, got inf"),
        ("tracker", "meas_delay_std = nan", "meas_delay_std must be finite, got nan"),
    ],
)
def test_non_finite_value_exits_2(tmp_path, capsys, section, line, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize(
    "seed_line, argv, message",
    [
        ("seed = -3\n", ("simulate",), "[run] seed must be nonnegative, got -3"),
        ("", ("simulate", "--seed", "-1"), "--seed must be nonnegative, got -1"),
        ("", ("track", "--seed", "-2"), "--seed must be nonnegative, got -2"),
    ],
    ids=["config-seed", "simulate-option", "track-option"],
)
def test_negative_seed_exits_2(tmp_path, capsys, seed_line, argv, message):
    # numpy once rejected these with a bare "expected non-negative integer"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{seed_line}duration = 0.2\n")
    if argv[0] == "track":
        argv += ("--run", simulate(tmp_path, str(cfg)))
    else:
        argv += ("--config", str(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# sha256 of the observation, sensing-tap and oracle-spread files of a 3-frame
# default run; the path geometry and echo laws behind them must keep every byte
DEFAULT_RUN_SHA256 = {
    "run/observations.csv": "c9df8d3021c6b49cfbcb8a690191461da24739bfb680d7b06e4cc749f70706fb",
    "run/sensing_observations.csv": "1f3a2f2f0bb498709b66a6d069b28fd9a6240c6d66c0fe8deada42c4da592f22",
    "run/sensing_taps.csv": "0045d08c2fafaed225bcb2e425eadec190426799f4ba585dce29316a6467d726",
    "sts/spreads_oracle.csv": "a12b70954878b645f24f703a8208407e690ff50d390dbd5fd5abe7c3c656c7f2",
}


def test_default_run_bytes_pinned(tmp_path):
    cfg = tmp_path / "short.ini"
    cfg.write_text("[run]\nduration = 0.2\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
    assert run(
        "stats", "--config", str(cfg), "--run", str(tmp_path / "run"), "--source", "scene",
        "--out", str(tmp_path / "sts"), "--label", "oracle",
    ) == 0
    for name, digest in DEFAULT_RUN_SHA256.items():
        with open(tmp_path / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.fixture()
def ts_02_run(tmp_path):
    cfg = tmp_path / "ts02.ini"
    cfg.write_text("[tracker]\nts = 0.2\nn_particles = 100\n")
    return simulate(tmp_path, str(cfg))


def test_stats_without_config_reads_the_run_config(tmp_path, ts_02_run):
    sts = str(tmp_path / "sts")
    assert run("stats", "--run", ts_02_run, "--source", "scene", "--out", sts) == 0
    assert len(csvio.read_spreads(os.path.join(sts, "spreads_scene.csv"))["k"]) == 101  # 20 s at Ts 0.2


def test_track_without_config_reads_the_run_config(tmp_path, ts_02_run):
    trk = str(tmp_path / "trk")
    assert run("track", "--run", ts_02_run, "--out", trk) == 0
    assert set(csvio.read_trajectory(os.path.join(trk, "trajectory.csv"))["k"].tolist()) == set(range(101))


@pytest.mark.parametrize("argv", [["stats", "--source", "scene"], ["track"]], ids=["stats", "track"])
def test_mismatched_config_exits_2(tmp_path, ts_02_run, capsys, argv):
    # the run has ts = 0.2 (101 frames); a --config at the default 0.1 once
    # gave 201 oracle snapshots from stats and a frame-spacing error from track
    cfg = tmp_path / "other.ini"
    cfg.write_text("[tracker]\nn_particles = 100\n")
    code = run(*argv, "--config", str(cfg), "--run", ts_02_run, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: --config {cfg} does not match the run's {ts_02_run}/config_resolved.ini: "
        "[tracker] ts = 0.1, the run has 0.2\n"
    )
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv", [["stats", "--source", "scene"], ["track"]], ids=["stats", "track"])
def test_run_whose_config_records_disagree_exits_2(tmp_path, capsys, argv):
    # an 11-frame run whose ini was cut to duration 0.5 once gave 6 oracle snapshots, and a track, with exit 0
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nduration = 1.0\n\n[tracker]\nn_particles = 100\n")
    run_dir = simulate(tmp_path, str(cfg))
    ini = tmp_path / "run" / "config_resolved.ini"
    ini.write_text(ini.read_text().replace("duration = 1.0\n", "duration = 0.5\n"))
    capsys.readouterr()
    code = run(*argv, "--run", run_dir, "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: the run's {run_dir}/config_resolved.ini does not match its {run_dir}/scene.txt: "
        "[run] duration = 0.5, the scene has 1.0\n"
    )
    assert not os.path.exists(tmp_path / "out")


def test_angles_off_the_degree_grid_run_every_stage(tmp_path):
    # math.degrees(math.radians(0.84)) is 0.8400000000000001, whose radians are one ulp off the scene's
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nduration = 0.3\n\n[scene]\nsigma_angle_deg = 0.84\n\n"
        "[tracker]\nn_particles = 50\nmeas_angle_deg = 4.5525\n"
    )
    run_dir = simulate(tmp_path, str(cfg))
    ini = (tmp_path / "run" / "config_resolved.ini").read_text()
    assert "sigma_angle_deg = 0.84\n" in ini and "meas_angle_deg = 4.5525\n" in ini
    assert run("track", "--run", run_dir, "--out", str(tmp_path / "trk")) == 0
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts")) == 0


def test_track_frame_gap_exits_2(tmp_path, cfg_path, capsys):
    run_dir = simulate(tmp_path, cfg_path)
    for name in ("observations.csv", "sensing_observations.csv"):
        path = os.path.join(run_dir, name)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(line for line in lines if not line.startswith("4,"))  # drop frame k = 4
    capsys.readouterr()
    code = run("track", "--run", run_dir, "--out", str(tmp_path / "trk"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: frame at t=0.5 does not follow t=0.30000000000000004 by Ts=0.1\n"
    assert not os.path.exists(tmp_path / "trk")


def set_field(path, lineno, name, value):
    """Overwrite field ``name`` on line ``lineno`` (1-based) of a CSV with one header line after the schema line."""
    with open(path) as fh:
        lines = fh.readlines()
    header = lines[1].rstrip("\n").split(",")
    row = lines[lineno - 1].rstrip("\n").split(",")
    row[header.index(name)] = value
    lines[lineno - 1] = ",".join(row) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize(
    "argv",
    [["track"], ["stats", "--source", "observations"]],
    ids=["track", "stats"],
)
@pytest.mark.parametrize(
    "fname, name, value",
    [
        ("observations.csv", "delay_s", "nan"),
        ("observations.csv", "power", "inf"),
        ("observations.csv", "t", "-inf"),
        ("sensing_observations.csv", "round_trip_delay_s", "inf"),
        ("sensing_observations.csv", "doppler_hz", "nan"),
        ("sensing_observations.csv", "gain", "inf"),
    ],
)
def test_non_finite_observation_exits_2(tmp_path, cfg_path, capsys, argv, fname, name, value):
    run_dir = simulate(tmp_path, cfg_path)
    path = os.path.join(run_dir, fname)
    with open(path) as fh:
        last = len(fh.readlines())  # a frame after the first, which track's initialization reads
    set_field(path, last, name, value)
    capsys.readouterr()
    out = tmp_path / "out"
    code = run(*argv, "--run", run_dir, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}:{last}: {name} must be a finite number, got {value!r}\n"
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nduration = 1e300\n\n[tracker]\nts = 1e-10\n", "duration / ts gives inf frames, more than 1000000"),
        ("[run]\nduration = 1e9\n", "duration / ts gives 10000000000.0 frames, more than 1000000"),
    ],
    ids=["duration-1e300-ts-1e-10", "duration-1e9"],
)
def test_frame_count_capped(tmp_path, capsys, text, message):
    cfg = tmp_path / "long.ini"
    cfg.write_text(text)
    code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "x")


# sha256 of the track outputs and of the tracked, observed and true spreads of
# two short runs. trajectory.csv and rmse.csv were taken from the per-cloud
# tracker before it was batched, spreads_oracle.csv from the per-path truth
# objects, the rest from the per-row scoring and the per-snapshot ensemble
# objects before they became arrays; every byte must stay
TRACK_CFGS = {
    "default": "[run]\nduration = 1.0\n",
    "birth-death-virtual-delay": (
        "[run]\nseed = 5\nduration = 2.0\n\n"
        "[scene]\nbirth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n"
        "[tracker]\nn_particles = 250\n"
    ),
}
TRACK_SHA256 = {
    "default": {
        "trk/trajectory.csv": "0858b11025a851ca0ecf50bf3f3833214b0db11af1b47e8ce36ed9df16e8547b",
        "trk/rmse.csv": "dcb103312b40d41efd13815beda30d4a3d10b05e92d19c5c95d98f12d5dcb270",
        "trk/summary.csv": "5be0362e35682faff4a4eb4f718ab528350eff886c1a4e9ac88cddd40ad08696",
        "sts/spreads_tracked.csv": "7cb4e51f5bd6395511de5560e95efe4826e1dc127b09bba2ab5f65b64f31f89e",
        "sts/spreads_observations.csv": "a7a5429d2ffc12757a5161d1564cca336d2a0eff2001a88e83be437e850285de",
        "sts/spreads_oracle.csv": "897bc0c12638fc79c666e08be082afb93e80dd6d58301c730f8e8a63607f334f",
    },
    "birth-death-virtual-delay": {
        "trk/trajectory.csv": "42730b6b2d4e120da8b037342b75fde49b3d260c2044343f7ef6cb0af878d487",
        "trk/rmse.csv": "260ba27a2a5706c2614edcd35885642405f8237fb1874c68412bbf87ebc6b244",
        "trk/summary.csv": "aa0087316985b3c89d96d8aeaf944440fe2272776e308b7e7625a5795d2b16e2",
        "sts/spreads_tracked.csv": "0937ec7a5f1e686d2c2e4bace75bb480a8f26e7558bcd500419c001483a6fad9",
        "sts/spreads_observations.csv": "2fd845557436f63918b0b5dafc87916c48c135687fed0f702388a076963cd001",
        "sts/spreads_oracle.csv": "a0a7dd38f7dee20fba48f4111462018351290c859f9ef064eb088681457f4657",
        # paths 0-2 die and 3-5 are born at k = 12, so the per-frame noise draws shift there
        "run/observations.csv": "4930573660be9f1307324288dadc3907663371d8b2c6e9f63ecec210c628da86",
        "run/sensing_observations.csv": "03ec07b82c4197073209161192dc0e0625af4f02dcddb1b6b9e0098f459650e9",
        "run/sensing_taps.csv": "526ababc1f49997bc71401d1818da1dabe78faa69cf8a9231f8d288f186d94ca",
    },
}


@pytest.mark.parametrize("name", sorted(TRACK_CFGS))
def test_track_bytes_pinned(tmp_path, name):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS[name])
    run_dir = simulate(tmp_path, str(cfg))
    trk, sts = str(tmp_path / "trk"), str(tmp_path / "sts")
    assert run("track", "--run", run_dir, "--out", trk) == 0
    assert run("stats", "--run", run_dir, "--track", trk, "--source", "trajectory", "--out", sts,
               "--label", "tracked") == 0
    assert run("stats", "--run", run_dir, "--source", "observations", "--out", sts) == 0
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", sts, "--label", "oracle") == 0
    for fname, digest in TRACK_SHA256[name].items():
        with open(tmp_path / fname, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, fname


@pytest.mark.parametrize("lineno, value", [(5, "nan"), (6, "inf")])
def test_non_finite_spread_exits_2(tmp_path, cfg_path, capsys, lineno, value):
    # compare once took both values as given and printed KS distances
    run_dir = simulate(tmp_path, cfg_path)
    sts = str(tmp_path / "sts")
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", sts) == 0
    assert run("stats", "--run", run_dir, "--source", "observations", "--out", sts) == 0
    path = os.path.join(sts, "spreads_observations.csv")
    set_field(path, lineno, "delay_spread_s", value)
    capsys.readouterr()
    out = tmp_path / "ks.csv"
    code = run("compare", "--a", os.path.join(sts, "spreads_scene.csv"), "--b", path, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}:{lineno}: delay_spread_s must be a finite number, got {value!r}\n"
    assert not out.exists()


def track_of(tmp_path, name, text):
    """Simulate and track a run from INI ``text``; its run and track directories."""
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text)
    run_dir, trk = simulate(tmp_path, str(cfg), name), str(tmp_path / f"{name}_trk")
    assert run("track", "--run", run_dir, "--out", trk) == 0
    return run_dir, trk


def test_stats_rejects_a_track_of_another_scene(tmp_path, capsys):
    # stats once paired run B's estimates with run A's paths and powers and exited 0
    run_a, _ = track_of(tmp_path, "a", "[run]\nduration = 1.0\n")
    _, trk_b = track_of(tmp_path, "b", "[run]\nduration = 1.0\n\n[scene]\nlb_per_cluster = 0\n")
    capsys.readouterr()
    out = tmp_path / "sts"
    code = run("stats", "--run", run_a, "--track", trk_b, "--source", "trajectory", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: {trk_b}/trajectory.csv: the fb row of path 1 at k=0 tracks scatterer 1, "
        "but the run's path 1 has fb_id 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "track_run, stats_run, message",
    [
        ("short", "long", "no step where the run has frame k=2 at t=0.2"),
        ("long", "short", "step k=2 at t=0.2 is past the run's last frame"),
    ],
    ids=["short-track", "long-track"],
)
def test_stats_rejects_a_track_of_other_frames(tmp_path, capsys, track_run, stats_run, message):
    # a 0.1 s run's track against a 1 s run once gave 2 snapshots and exit 0
    runs = {
        "short": track_of(tmp_path, "short", "[run]\nduration = 0.1\n"),
        "long": track_of(tmp_path, "long", "[run]\nduration = 1.0\n"),
    }
    capsys.readouterr()
    out = tmp_path / "sts"
    trk = runs[track_run][1]
    code = run("stats", "--run", runs[stats_run][0], "--track", trk, "--source", "trajectory", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {trk}/trajectory.csv: {message}\n"
    assert not out.exists()


def test_underflowing_powers_exit_2(tmp_path, capsys):
    # pdp_decay = 1e-12 once wrote nan powers and taps, and all-nan true spreads, with exit 0
    message = (r"error: pdp_decay = 1e-12 s underflows every path power to 0 at t = 0\.0 s, "
               r"where the shortest delay is \S+ s\n")
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nduration = 0.2\n\n[scene]\npdp_decay = 1e-12\n")
    code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 2
    assert re.fullmatch(message, capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "x")

    cfg.write_text("[run]\nduration = 0.2\n")
    run_dir = simulate(tmp_path, str(cfg))
    scene, ini = tmp_path / "run" / "scene.txt", tmp_path / "run" / "config_resolved.ini"
    scene.write_text(re.sub(r"^C pdp_decay .*$", "C pdp_decay 1e-12", scene.read_text(), flags=re.M))
    ini.write_text(re.sub(r"^pdp_decay = .*$", "pdp_decay = 1e-12", ini.read_text(), flags=re.M))
    capsys.readouterr()
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts")) == 2
    assert re.fullmatch(message, capsys.readouterr().err)


@pytest.mark.parametrize("value", ["-1e-09", "nan", "inf"])
def test_bad_virtual_delay_in_the_scene_file_exits_2(tmp_path, capsys, value):
    # a nan virtual delay once passed the scene load and gave all-nan true spreads with exit 0
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nduration = 0.2\n\n[scene]\nvirtual_delay_max = 5e-8\n")
    run_dir = simulate(tmp_path, str(cfg))
    scene = tmp_path / "run" / "scene.txt"
    lines = scene.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("P "))
    lines[i] = " ".join(lines[i].split()[:-1] + [value])
    scene.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts")) == 2
    assert capsys.readouterr().err == (
        f"error: scene file line {i + 1}: virtual delay must be finite and nonnegative, got {value}\n"
    )
