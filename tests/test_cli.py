import hashlib
import os

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
    rmse = csvio.read_rmse(os.path.join(trk, "rmse.csv"))
    assert {"user", "fb", "lb"} <= set(rmse)
    assert rmse["fb"]["n_clouds"] == 4.0  # 2 clusters x 1 FB x (self + 1 LB)
    rows = csvio.read_trajectory(os.path.join(trk, "trajectory.csv"))
    ks = {int(r["k"]) for r in rows}
    assert ks == set(range(11))  # duration 1.0 at Ts 0.1


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
    ks = csvio.read_ks(ks_out)
    assert len(ks) == 5
    assert all(0.0 <= v <= 1.0 for v in ks.values())


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
    assert len(csvio.read_spreads(os.path.join(sts, "spreads_trajectory.csv"))) == 4


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
    assert len(csvio.read_spreads(os.path.join(sts, "spreads_scene.csv"))) == 101  # 20 s at Ts 0.2


def test_track_without_config_reads_the_run_config(tmp_path, ts_02_run):
    trk = str(tmp_path / "trk")
    assert run("track", "--run", ts_02_run, "--out", trk) == 0
    assert {int(r["k"]) for r in csvio.read_trajectory(os.path.join(trk, "trajectory.csv"))} == set(range(101))


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
