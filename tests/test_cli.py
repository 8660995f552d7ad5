import csv
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import isacsim
from isacsim import cli, comm, csvio, normals, pipeline, tracker
from isacsim import scene as scene_module
from isacsim.cli import main
from isacsim.config import load_run_config

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
    # the override goes into the run's ini, and the scene rebuilt from it is the one simulated
    out_c = str(tmp_path / "c")
    assert run("simulate", "--config", cfg_path, "--seed", "5", "--out", out_c) == 0
    with open(os.path.join(out_c, "config_resolved.ini"), encoding="utf-8") as fh:
        assert "[run]\nseed = 5\n" in fh.read()
    assert run("stats", "--run", out_c, "--source", "scene", "--out", str(tmp_path / "sts")) == 0


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


def test_default_section_in_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "default.ini"
    bad.write_text("[run]\nduration = 1.0\n\n[DEFAULT]\nseed = 3\n")
    code = run("simulate", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "unknown key 'seed' in [DEFAULT] at line 5" in err
    assert not (tmp_path / "x").exists()


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


ALL_PAIRS_PINS = [(ALLPAIRS_CFG, ALLPAIRS_COMM_TAPS_SHA256), (NONSTATIONARY_CFG, NONSTATIONARY_COMM_TAPS_SHA256)]
SIMULATE_FILES = {"scene.txt", "config_resolved.ini", "observations.csv", "sensing_observations.csv",
                  "sensing_taps.csv", "comm_taps.csv"}


def set_parts(monkeypatch, cpus, part_fields=1):
    """Split each large file for ``cpus`` CPUs into parts of ``part_fields`` output fields or more."""
    monkeypatch.setattr(pipeline, "_PART_FIELDS", part_fields)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def record_forks_and_kills(monkeypatch):
    """The lists of the pids of the children forked, of the names of the files they were forked
    to write, in the same order, and of the processes killed from now on."""
    forked, files, killed, fork, kill, write = [], [], [], os.fork, os.kill, csvio._write
    writing = [None]

    def counted_write(path, *args):
        writing[0] = os.path.basename(path)
        return write(path, *args)

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
            files.append(writing[0])
        return pid

    def counted_kill(pid, sig):
        killed.append(pid)
        kill(pid, sig)

    monkeypatch.setattr(csvio, "_write", counted_write)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "kill", counted_kill)
    return forked, files, killed


def assert_no_child_left(out):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir(out)) == SIMULATE_FILES  # the parts' anonymous files leave no name behind


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("text, digest", ALL_PAIRS_PINS, ids=["allpairs", "nonstationary"])
def test_all_pairs_in_forked_parts_keep_the_pinned_bytes(tmp_path, monkeypatch, cpus, text, digest):
    # the non-stationary run has births, so its frames, and its parts, differ in width
    set_parts(monkeypatch, cpus)
    _, files, _ = record_forks_and_kills(monkeypatch)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = str(tmp_path / "run")
    assert run("simulate", "--config", str(cfg), "--all-pairs", "--out", out) == 0
    assert files.count("comm_taps.csv") == cpus - 1
    with open(os.path.join(out, "comm_taps.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert_no_child_left(out)


def refuse(*args, **kwargs):
    raise OSError("refused")


@pytest.mark.parametrize("missing", ["fork", "O_TMPFILE", "open", "forking"])
def test_parts_without_a_child_are_formatted_here(tmp_path, monkeypatch, missing):
    # no fork or no anonymous file on the platform, an anonymous file that cannot be opened,
    # or a fork that fails: each part is written by the caller in its turn
    set_parts(monkeypatch, 3)
    forked, _, _ = record_forks_and_kills(monkeypatch)
    if missing in ("fork", "O_TMPFILE"):
        monkeypatch.delattr(os, missing)
    else:
        monkeypatch.setattr(os, "open" if missing == "open" else "fork", refuse)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ALLPAIRS_CFG)
    out = str(tmp_path / "run")
    fds = len(os.listdir("/proc/self/fd"))
    assert run("simulate", "--config", str(cfg), "--all-pairs", "--out", out) == 0
    assert forked == [] and len(os.listdir("/proc/self/fd")) == fds  # no anonymous file left open
    with open(os.path.join(out, "comm_taps.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == ALLPAIRS_COMM_TAPS_SHA256
    assert_no_child_left(out)


def fail_frames(monkeypatch, failing):
    """Make the tap kernel raise a CommError naming the first of its frames whose index is in ``failing``."""
    drops, simulate_drop, kernel = [], pipeline.simulate, comm._taps
    monkeypatch.setattr(pipeline, "simulate", lambda rc: drops.append(simulate_drop(rc)) or drops[-1])

    def taps(*args):
        # the pass's first path row in the run's columns, which start a frame; every frame has paths
        whole, rows = drops[-1].paths.virtual_delay, args[7].virtual_delay
        first = drops[-1].observations.offsets[:, 0].tolist().index((rows.ctypes.data - whole.ctypes.data) // 8)
        frames = range(first, first + len(args[8]))
        bad = [k for k in frames if k in failing]
        if bad:
            raise comm.CommError(f"frame {bad[0]} fails")
        return kernel(*args)

    monkeypatch.setattr(comm, "_taps", taps)


@pytest.mark.parametrize("failing", [{1, 2}, {2}, {0}], ids=["children", "last-child", "parent"])
def test_a_failing_part_exits_as_one_part_does(tmp_path, monkeypatch, capsys, failing):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ALLPAIRS_CFG)  # 3 frames: with 3 CPUs a part each, the first in this process
    fail_frames(monkeypatch, failing)
    forked, files, killed = record_forks_and_kills(monkeypatch)
    got = []
    for cpus in (1, 3):
        set_parts(monkeypatch, cpus)
        forked.clear(), files.clear(), killed.clear()
        out = str(tmp_path / f"run{cpus}")
        got.append((run("simulate", "--config", str(cfg), "--all-pairs", "--out", out), capsys.readouterr().err))
        taps = [pid for pid, name in zip(forked, files) if name == "comm_taps.csv"]
        assert len(taps) == cpus - 1
        assert_no_child_left(out)
        # the children not yet reaped when the error raised are killed: all of them if it is the parent's part
        assert set(killed) <= set(taps) and (failing != {0} or killed == taps)
    assert got[0] == got[1] == (2, f"error: frame {min(failing)} fails\n")


def test_the_pipeline_path_never_forks(tmp_path, monkeypatch):
    forked, files, _ = record_forks_and_kills(monkeypatch)
    set_parts(monkeypatch, 2, pipeline._PART_FIELDS)
    assert run("simulate", "--out", str(tmp_path / "default")) == 0  # the reference pair: 201 x 19 rows
    # of the default run's files only the observations, 201 x 19 rows of 15 fields, split; the taps' 8 do not
    assert files == ["observations.csv"]
    forked.clear()
    # one CPU: one part, however small the parts may be
    set_parts(monkeypatch, 1)
    for text, digest in ALL_PAIRS_PINS:
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = str(tmp_path / "run")
        assert run("simulate", "--config", str(cfg), "--all-pairs", "--out", out) == 0
        with open(os.path.join(out, "comm_taps.csv"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert forked == []


def test_duration_off_the_float_grid_runs_every_stage(tmp_path):
    # 3 * 0.1 = 0.30000000000000004 overshoots a 0.3 s scene
    cfg = tmp_path / "short.ini"
    cfg.write_text(SMALL_CFG.replace("duration = 1.0", "duration = 0.3"))
    run_dir = simulate(tmp_path, str(cfg))
    observations = csvio.read_observations(
        os.path.join(run_dir, "observations.csv"), os.path.join(run_dir, "sensing_observations.csv")
    )
    assert observations.times == [0.0, 0.1, 0.2, 0.3]
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


# sha256 of the observation files of the benchmark's pipeline-nonstationary
# config (seed 11, 20 s, birth-death): 201 frames whose paths die and are born,
# observed with the shipped noise in one draw per run
NONSTATIONARY_OBSERVATIONS_SHA256 = {
    "observations.csv": "187bf9ed0d76fc731e78a3346ce728a4d5469a26549897230c1fd1de762d9dd2",
    "sensing_observations.csv": "17ef3794fd94c4dd0e74e1bf211839ffb1a4e0d637dd29c9480afe12e41d1bd6",
    "scene.txt": "5b5cc91206da7d70cd42b0bc9db61b7d183dd3640e80519698428edb8a06793e",
}


def test_nonstationary_observation_bytes_pinned(tmp_path):
    cfg = tmp_path / "nonstationary.ini"
    cfg.write_text("[run]\nseed = 11\n\n[scene]\nbirth_death_rate = 0.05\n\n[tracker]\nn_particles = 250\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
    for name, digest in NONSTATIONARY_OBSERVATIONS_SHA256.items():
        with open(tmp_path / "run" / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_first_negative_round_trip_delay_in_frame_order_exits_2(tmp_path, capsys):
    # the noise makes the round-trip delays of frames 2 and 7 negative; frame 2's is reported
    cfg = tmp_path / "noisy.ini"
    cfg.write_text("[run]\nduration = 1.0\n\n[scene]\nsigma_delay = 3e-07\n")
    out = tmp_path / "run"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: round-trip delay must be positive, got -2.3582301640804657e-08\n"
    assert not out.exists()


@pytest.mark.parametrize("scene, message", [
    # 12 slots, each replaced about 1000 times a second over 20 s: stopped at the 10001st scatterer
    ("birth_death_rate = 1000", "the scene has more than 10000 scatterers: lower birth_death_rate, duration or "
                                "the scatterers per cluster"),
    # 6000 scatterers that never die: 3000 single-bounce and 3000 x 3000 double-bounce paths
    ("n_clusters = 1\nfb_per_cluster = 3000\nlb_per_cluster = 3000", "the scene has 9003000 paths, more than "
                                                                       "100000: lower the scatterers per cluster or "
                                                                       "birth_death_rate"),
], ids=["scatterers", "paths"])
def test_a_scene_too_large_to_build_exits_2(tmp_path, capsys, scene, message):
    cfg = tmp_path / "large.ini"
    cfg.write_text(f"[scene]\n{scene}\n")
    out = tmp_path / "run"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


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
    lineno = (tmp_path / "run" / "scene.txt").read_text().splitlines().index("C duration 1.0") + 1
    capsys.readouterr()
    code = run(*argv, "--run", run_dir, "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {run_dir}/scene.txt does not match the scene its config generates: "
        f"line {lineno} is 'C duration 1.0\\n', expected 'C duration 0.5\\n'\n"
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


@pytest.mark.parametrize("text, message", [
    ("[run]\nduration = 0.5\n\n[scene]\nregion_max = 1e200 1e200 1e200\n",
     "region_max must be within 1e+09 m of 0, got 1e+200 1e+200 1e+200"),
    ("[run]\nduration = 1e202\n\n[scene]\nspeed_min = 0.0\nspeed_max = 0.0\nuser_velocity = 0 0 0\n\n"
     "[tracker]\nts = 1e200\n", "ts must be at most 1 s, got 1e+200"),
], ids=["region-1e200", "ts-1e200"])
def test_a_config_too_large_for_float_squares_exits_2(tmp_path, capsys, text, message):
    # under the suite's error::RuntimeWarning filter: simulate once overflowed and blamed pdp_decay, and
    # the static run passed simulate, then track overflowed and blamed a rounding artefact
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text)
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "huge")) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "huge").exists()


@pytest.mark.parametrize("key, value", [("init_pos_std", "1e300"), ("init_vel_std", "1e200"),
                                        ("process_pos_std", "1e200"), ("process_vel_std", "1e200")])
def test_a_tracker_std_wide_enough_to_overflow_exits_2(tmp_path, capsys, key, value):
    # track once squared such particles' ranges to inf, warned, wrote inf errors and exited 0
    message = f"error: {key} must be at most 1e+06, got {float(value)!r}\n"
    cfg = tmp_path / "wide.ini"
    cfg.write_text(f"[run]\nduration = 0.5\n\n[tracker]\n{key} = {value}\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "wide")) == 2
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "wide").exists()
    # a run recorded with the shipped stds, its config widened afterwards
    cfg.write_text("[run]\nduration = 0.5\n")
    run_dir = simulate(tmp_path, str(cfg))
    ini = tmp_path / "run" / "config_resolved.ini"
    ini.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", ini.read_text(), flags=re.M))
    capsys.readouterr()
    assert run("track", "--run", run_dir, "--out", str(tmp_path / "trk")) == 2
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "trk").exists()


def test_a_run_with_too_many_rows_to_resolve_exits_2(tmp_path, capsys):
    # the shipped scene has 18 paths and 6 echoes a frame: 12,501 frames are 300,024 rows
    cfg = tmp_path / "long.ini"
    cfg.write_text("[run]\nduration = 1250.0\n")
    out = tmp_path / "run"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", "error: the run has 300024 path and echo rows over its frames, more than "
                                       "300000: lower duration, the scatterers per cluster or birth_death_rate, "
                                       "or raise ts\n")
    assert not out.exists()


def test_the_run_row_cap_counts_each_path_and_echo_row(tmp_path, monkeypatch, capsys):
    # a churning run passes simulate and stats --source scene at its own row count, and neither one row under it
    cfg = tmp_path / "churn.ini"
    cfg.write_text("[run]\nseed = 3\nduration = 2.0\n\n[scene]\nbirth_death_rate = 5.0\n")
    rc = load_run_config(str(cfg))
    drop = pipeline.simulate(rc)
    rows = len(drop.paths.columns) + len(drop.observations.sensing_detections)
    monkeypatch.setattr(scene_module, "MAX_RUN_ROWS", rows)
    run_dir, sts = simulate(tmp_path, str(cfg)), str(tmp_path / "sts")
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", sts) == 0
    monkeypatch.setattr(scene_module, "MAX_RUN_ROWS", rows - 1)
    capsys.readouterr()
    message = f"error: the run has {rows} path and echo rows over its frames, more than {rows - 1}: "
    for argv in (["simulate", "--config", str(cfg), "--out", str(tmp_path / "run2")],
                 ["stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts2")]):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not os.path.exists(argv[-1])


# sha256 of the track outputs and of the tracked, observed and true spreads of
# three short runs. trajectory.csv and rmse.csv were taken from the per-cloud
# tracker before it was batched, spreads_oracle.csv from the per-path truth
# objects, the rest from the per-row scoring and the per-snapshot ensemble
# objects before they became arrays; seed 6's from the per-path cloud
# construction before it became a column pass; every byte must stay
TRACK_CFGS = {
    "default": "[run]\nduration = 1.0\n",
    "birth-death-virtual-delay": (
        "[run]\nseed = 5\nduration = 2.0\n\n"
        "[scene]\nbirth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n"
        "[tracker]\nn_particles = 250\n"
    ),
    "single-bounce-fallback": "[run]\nseed = 6\nduration = 0.5\n",
}
TRACK_SHA256 = {
    "default": {
        "trk/trajectory.csv": "0858b11025a851ca0ecf50bf3f3833214b0db11af1b47e8ce36ed9df16e8547b",
        "trk/rmse.csv": "dcb103312b40d41efd13815beda30d4a3d10b05e92d19c5c95d98f12d5dcb270",
        "trk/summary.csv": "5be0362e35682faff4a4eb4f718ab528350eff886c1a4e9ac88cddd40ad08696",
        "sts/spreads_tracked.csv": "7cb4e51f5bd6395511de5560e95efe4826e1dc127b09bba2ab5f65b64f31f89e",
        "sts/spreads_observations.csv": "a7a5429d2ffc12757a5161d1564cca336d2a0eff2001a88e83be437e850285de",
        "sts/spreads_oracle.csv": "897bc0c12638fc79c666e08be082afb93e80dd6d58301c730f8e8a63607f334f",
        # the reference pair's taps of every frame, built many frames to a kernel pass
        "run/comm_taps.csv": "24db6d7bd2b2c397190fc57fa79cff145b33ea25d84bbfe8f229d530f4477ddb",
        "run/scene.txt": "50505c87ce793c90f171c9cf0cd287bc6e6a22f03315eab75f2b7b1ed9202b6a",
    },
    "birth-death-virtual-delay": {
        # the clouds of paths 0-2 retire after k = 13: no rows from k = 14 on, 2 coast steps each,
        # and the LB clouds of live scatterers 3 and 4 leave the final RMSE
        "trk/trajectory.csv": "560fdd8717ed13e9d52a21f5a3b8cb0dd32252641753fe369f1b8b4b20ddafe4",
        "trk/rmse.csv": "b5e3e4f85225e6ac0852785e43c9567dbc7feca5e39387e6a3568db1b163f0c1",
        "trk/summary.csv": "6f85ea8aee5d292cb90b9ef490b829fa602e2afc4964d5a1031cbd83cf50f969",
        "sts/spreads_tracked.csv": "0937ec7a5f1e686d2c2e4bace75bb480a8f26e7558bcd500419c001483a6fad9",
        "sts/spreads_observations.csv": "2fd845557436f63918b0b5dafc87916c48c135687fed0f702388a076963cd001",
        "sts/spreads_oracle.csv": "a0a7dd38f7dee20fba48f4111462018351290c859f9ef064eb088681457f4657",
        # paths 0-2 die and 3-5 are born at k = 12, so the per-frame noise draws shift there
        "run/observations.csv": "4930573660be9f1307324288dadc3907663371d8b2c6e9f63ecec210c628da86",
        "run/sensing_observations.csv": "03ec07b82c4197073209161192dc0e0625af4f02dcddb1b6b9e0098f459650e9",
        "run/sensing_taps.csv": "526ababc1f49997bc71401d1818da1dabe78faa69cf8a9231f8d288f186d94ca",
        # one kernel pass spans every frame, across the deaths and births at k = 12
        "run/comm_taps.csv": "f89ed557c684695d21ddfa9192112eb84f10dcada3ec1302a5772a76bdab43da",
        "run/scene.txt": "21045388fe2757efcc4953995f73fa58270d2574bf6918fd26a633f89e0f1b00",
    },
    "single-bounce-fallback": {
        # frame 0 gates out one path's echo, so its clouds start from solve_lb_range (r = 119.757 m)
        "trk/trajectory.csv": "4575caee2a5555094524131263188eca0ec63690aa5603e8bc05d5b21b9dc671",
        "trk/rmse.csv": "d14d8458521169eb2eda86aa96687600bf99ac7fcb673c8ec0b2680385c7551e",
        "trk/summary.csv": "a34bd679c294f7f3b54689a931bb03536a48a58366c3a8dac57e945c49def4f4",
        "sts/spreads_tracked.csv": "76944d9cbde7daa38003af630449c48340d91d7f28e1868af59599ba4ee87ee7",
        "sts/spreads_observations.csv": "ada99dfc6222250b5bf08d42672834aae484ad4e1e09d07a6acbda8c687dc98b",
        "sts/spreads_oracle.csv": "613b9d4ca9e2d6cb42757ee0c288d56e07612239c60e7a06e021cdf67baf80ec",
        "run/scene.txt": "6153a6a04656158c2f4c807c27527968d152be15a8170493525353d43a5c849f",
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


def fds_and_children_left(fds, out):
    """Assert no file descriptor beyond the first ``fds`` is open, no child is left and ``out``
    holds only track's files: the anonymous files of the parts leave no name behind."""
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir(out)) == {"trajectory.csv", "summary.csv", "rmse.csv"}


def pin_the_helper(monkeypatch):
    # a forced CPU count must not pin the noise helper to a CPU this box lacks
    monkeypatch.setattr(normals, "_other_cpus", lambda others=normals._other_cpus(): others)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name", sorted(TRACK_CFGS))
def test_track_bytes_pinned_in_forked_parts(tmp_path, monkeypatch, name, cpus):
    # parts as small as one field: the observations, the comm taps and the trajectory each split in cpus
    pin_the_helper(monkeypatch)
    set_parts(monkeypatch, cpus)
    _, files, _ = record_forks_and_kills(monkeypatch)
    fds = len(os.listdir("/proc/self/fd"))
    test_track_bytes_pinned(tmp_path, name)
    for fname in ("observations.csv", "comm_taps.csv", "trajectory.csv"):
        assert files.count(fname) == cpus - 1, fname
    fds_and_children_left(fds, str(tmp_path / "trk"))


def test_a_failing_child_leaves_its_part_to_the_parent(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["default"])
    run_dir = simulate(tmp_path, str(cfg))
    pin_the_helper(monkeypatch)
    set_parts(monkeypatch, 3)
    forked, files, killed = record_forks_and_kills(monkeypatch)
    fork = os.fork

    def failing_fork():  # each child exits 1 before it writes a byte
        pid = fork()
        if pid == 0:
            os._exit(1)
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    fds = len(os.listdir("/proc/self/fd"))
    trk = str(tmp_path / "trk")
    assert run("track", "--run", run_dir, "--out", trk) == 0
    assert files == ["trajectory.csv"] * 2 and killed == []
    for fname, digest in TRACK_SHA256["default"].items():
        if fname.startswith("trk/"):
            with open(tmp_path / fname, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, fname
    fds_and_children_left(fds, trk)


def test_an_error_in_the_parents_part_kills_every_child(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["default"])
    run_dir = simulate(tmp_path, str(cfg))
    pin_the_helper(monkeypatch)
    set_parts(monkeypatch, 3)
    forked, files, killed = record_forks_and_kills(monkeypatch)
    write = csvio._write

    def failing_first_part(path, name, header, parts):
        def fail():
            raise OSError("no space left on the device")
            yield

        return write(path, name, header, [fail(), *parts[1:]])

    monkeypatch.setattr(csvio, "_write", failing_first_part)
    fds = len(os.listdir("/proc/self/fd"))
    trk = str(tmp_path / "trk")
    capsys.readouterr()
    assert run("track", "--run", run_dir, "--out", trk) == 2
    assert capsys.readouterr().err == "error: no space left on the device\n"
    # both children were forked before the parent's part raised, and neither was reaped
    assert files == ["trajectory.csv"] * 2 and killed == forked
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(trk) == ["trajectory.csv"]


def test_a_track_after_a_forked_write_shares_the_helper(tmp_path, monkeypatch):
    # the children forget the noise helper; this process keeps it, and a second track draws through it
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["default"])
    run_dir = simulate(tmp_path, str(cfg))
    pin_the_helper(monkeypatch)
    set_parts(monkeypatch, 2)
    _, files, _ = record_forks_and_kills(monkeypatch)
    assert run("track", "--run", run_dir, "--out", str(tmp_path / "trk")) == 0
    assert files == ["trajectory.csv"]
    helper, starts, start = normals._helper, [], normals._Helper.start
    assert (helper is not None and helper.thread.is_alive()) == bool(normals._other_cpus())
    monkeypatch.setattr(normals._Helper, "start", lambda self, *args: starts.append(self) or start(self, *args))
    rc, scene = cli._load_run(cli.build_parser().parse_args(["track", "--run", run_dir, "--out", "-"]))
    state = pipeline.track(cli._read_observations(run_dir), scene, rc.tracker, rc.scene.seed)
    again = tmp_path / "again.csv"
    csvio.write_trajectory(str(again), pipeline.score(state, scene))
    assert files == ["trajectory.csv", "again.csv"]
    assert normals._helper is helper and set(starts) == ({helper} if helper else set())
    assert hashlib.sha256(again.read_bytes()).hexdigest() == TRACK_SHA256["default"]["trk/trajectory.csv"]


@pytest.mark.parametrize("eager", [False, True])
def test_each_stream_draws_in_its_serial_order(tmp_path, monkeypatch, eager):
    # after k steps each cloud's stream has drawn its initial normals, then per step its normals and,
    # if weighted, its resampling offset, plus the next step's normals while it is in the batch;
    # eager fills finish before the step goes on, as if the helper won every race with the caller
    if eager:
        def fill(rngs, buffer, start=normals.fill):
            job = start(rngs, buffer)
            job.wait()
            return job

        monkeypatch.setattr(normals, "fill", fill)
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["birth-death-virtual-delay"])
    run_dir = simulate(tmp_path, str(cfg))
    rc, scene = cli._load_run(cli.build_parser().parse_args(["track", "--run", run_dir, "--out", "-"]))
    observations = cli._read_observations(run_dir)
    frame0 = observations.frame(0)
    state = tracker.initialize(frame0, scene.bs_position, scene.user_position(frame0.time),
                               scene.config.user_velocity, rc.tracker, np.random.SeedSequence([rc.scene.seed, 2]))
    rngs = state.clouds.rngs
    n, c = len(rngs), rc.tracker.n_particles
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence([rc.scene.seed, 2]).spawn(n)]
    replay = streams[:1] + streams[1::2] + streams[2::2]  # the user's, then the FB and the LB streams
    for r in replay:
        r.standard_normal((2, c, 3))  # the initial cloud
        r.standard_normal((2, c, 3))  # step 1's noise
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in replay]
    for k in range(1, len(observations.times)):
        tracker.step(state, observations.frame(k))
        for e, i in enumerate(state.members[k].tolist()):
            if not state.coasted[k][e]:
                replay[i].random()
            if state.retired_at[i] < 0:
                replay[i].standard_normal((2, c, 3))
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in replay], k
    retired = state.retired_at >= 0
    assert retired.any() and (state.retired_at[retired] < state.k).all()  # some clouds stopped drawing
    assert any(flags.any() for flags in state.coasted[1:])  # and some coasted without an offset


def test_simulate_all_pairs_and_stats_start_no_helper_thread(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["default"])
    run_dir = simulate(tmp_path, str(cfg))
    trk = str(tmp_path / "trk")
    assert run("track", "--run", run_dir, "--out", trk) == 0
    allpairs = tmp_path / "allpairs.ini"
    allpairs.write_text(ALLPAIRS_CFG)
    script = (
        "import sys, threading\nfrom isacsim import cli\ncode = cli.main(sys.argv[1:])\n"
        "sys.exit(code if 'isacsim.normals' not in sys.modules and threading.active_count() == 1 else"
        " f'threads {threading.enumerate()}')"
    )
    src = os.path.dirname(os.path.dirname(isacsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (
        ["simulate", "--config", str(allpairs), "--all-pairs", "--out", str(tmp_path / "allpairs")],
        ["stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts"), "--label", "oracle"],
        ["stats", "--run", run_dir, "--source", "observations", "--out", str(tmp_path / "sts")],
        ["stats", "--run", run_dir, "--track", trk, "--source", "trajectory", "--out", str(tmp_path / "sts"),
         "--label", "tracked"],
    ):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (argv[0], done.stderr)


def test_track_on_one_cpu_keeps_the_bytes(tmp_path):
    # on one CPU the process noise is drawn serially, without the helper thread
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["default"])
    run_dir = simulate(tmp_path, str(cfg))
    script = (
        "import sys\nfrom isacsim import cli, normals\ncode = cli.main(sys.argv[1:])\n"
        "sys.exit(code if normals._helper is None else 'the helper thread started')"
    )
    src = os.path.dirname(os.path.dirname(isacsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, "-c", script, "track", "--run", run_dir, "--out", str(tmp_path / "trk")],
        env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for fname, digest in TRACK_SHA256["default"].items():
        if fname.startswith("trk/"):
            with open(tmp_path / fname, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, fname


def live_cloud_lines(trajectory, observations):
    """The lines of ``trajectory`` without the rows of an FB or LB cloud after the
    second consecutive frame (from k = 1) that its path is missing from."""
    with open(observations, newline="") as fh:
        seen = {(int(r["k"]), int(r["path_id"])) for r in csv.DictReader(fh.readlines()[1:]) if r["kind"] == "nlos"}

    def retired(k, path_id):
        return any((j - 1, path_id) not in seen and (j, path_id) not in seen for j in range(2, k))

    with open(trajectory, "rb") as fh:
        lines = fh.readlines()
    rows = (line.decode().split(",", 4) for line in lines[2:])
    return lines[:2] + [line for line, (k, _, kind, pid, _) in zip(lines[2:], rows)
                        if kind == "user" or not retired(int(k), int(pid))]


def test_track_keeps_the_bytes_of_live_clouds(tmp_path):
    # paths 0-2 die at k = 12, so their clouds' rows from k = 14 on are dropped; the
    # digest is the full trajectory's with those rows taken out, so no kept row moved
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["birth-death-virtual-delay"])
    run_dir = simulate(tmp_path, str(cfg))
    trk = str(tmp_path / "trk")
    assert run("track", "--run", run_dir, "--out", trk) == 0
    lines = live_cloud_lines(os.path.join(trk, "trajectory.csv"), os.path.join(run_dir, "observations.csv"))
    assert len(lines) == 2 + 21 * 37 - 7 * 6
    digest = hashlib.sha256(b"".join(lines)).hexdigest()
    assert digest == "560fdd8717ed13e9d52a21f5a3b8cb0dd32252641753fe369f1b8b4b20ddafe4"


def test_summary_reports_a_retired_cloud_as_it_retired(tmp_path, monkeypatch, capsys):
    # the summary once read each cloud's divergence flag from the final batch by
    # full row, which after a retirement names another cloud or runs past the batch
    step = tracker.step

    def flagging_step(state, frame):
        if state.k == 12:  # the last step of path 1's clouds, whose path is missing from k = 12 on
            state.clouds.diverged[state.live == state.row[(tracker.KIND_FB, 1)]] = True
        step(state, frame)

    monkeypatch.setattr(tracker, "step", flagging_step)
    cfg = tmp_path / "run.ini"
    cfg.write_text(TRACK_CFGS["birth-death-virtual-delay"])
    run_dir = simulate(tmp_path, str(cfg))
    trk = str(tmp_path / "trk")
    capsys.readouterr()
    assert run("track", "--run", run_dir, "--out", trk) == 0
    assert "retired clouds: 6\n" in capsys.readouterr().out
    with open(os.path.join(trk, "summary.csv"), newline="") as fh:
        summary = {(r["kind"], r["path_id"]): r for r in csv.DictReader(fh.readlines()[1:])}
    flags = {key: (r["coast_steps"], r["diverged"]) for key, r in summary.items() if key[0] != "failed"}
    dying = {(kind, str(pid)) for kind in ("fb", "lb") for pid in range(3)}
    assert flags == {key: ("2" if key in dying else "0", "1" if key == ("fb", "1") else "0") for key in flags}
    assert all(summary[key]["final_pos_error_m"] == "" for key in dying)


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
    written = lines[i] + "\n"
    lines[i] = " ".join(lines[i].split()[:-1] + [value])
    edited = lines[i] + "\n"
    scene.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("stats", "--run", run_dir, "--source", "scene", "--out", str(tmp_path / "sts")) == 2
    assert capsys.readouterr().err == (
        f"error: {scene} does not match the scene its config generates: "
        f"line {i + 1} is {edited!r}, expected {written!r}\n"
    )
    assert not (tmp_path / "sts").exists()
