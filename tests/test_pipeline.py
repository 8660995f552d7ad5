"""A drop run in memory through ``isacsim.pipeline``, against the CLI's files."""

import builtins
import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import cli, csvio, normals, pipeline, stats
from isacsim.config import parse_run_config

# the two short runs whose CLI outputs test_cli.py pins
CFGS = {
    "default": "[run]\nduration = 1.0\n",
    "birth-death-virtual-delay": (
        "[run]\nseed = 5\nduration = 2.0\n\n"
        "[scene]\nbirth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n"
        "[tracker]\nn_particles = 250\n"
    ),
}
SOURCES = ("oracle", "observations", "tracked")


def drop_in_memory(rc):
    """Every stage of ``rc``'s drop: the drop, its score, each source's (n, 5) spreads,
    and the KS distances between the true and the tracked spreads."""
    drop = pipeline.simulate(rc)
    for _ in pipeline.comm_taps(drop, rc):
        pass
    score = pipeline.score(pipeline.track(drop.observations, drop.scene, rc.tracker, rc.scene.seed), drop.scene)
    sources = (
        pipeline.oracle_snapshots(drop.scene, rc),
        pipeline.observation_snapshots(drop.observations),
        pipeline.trajectory_snapshots(drop.observations, pipeline.trajectory_columns(score), drop.scene),
    )
    spreads = [np.array([row[2] for row in pipeline.spreads(source)]) for source in sources]
    cdfs = [[stats.empirical_cdf(column) for column in s.T] for s in spreads]
    ks = [stats.ks_distance(a, b) for a, b in zip(cdfs[0], cdfs[2])]
    return drop, score, spreads, ks


def run_cli(root, text):
    """Every CLI stage on ``text`` under ``root``, up to the first that fails: its exit code and standard error."""
    cfg, run_dir, trk, sts = (os.path.join(root, name) for name in ("run.ini", "run", "trk", "sts"))
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    stages = [
        ["simulate", "--config", cfg, "--out", run_dir],
        ["track", "--run", run_dir, "--out", trk],
        ["stats", "--run", run_dir, "--source", "scene", "--out", sts, "--label", "oracle"],
        ["stats", "--run", run_dir, "--source", "observations", "--out", sts],
        ["stats", "--run", run_dir, "--track", trk, "--source", "trajectory", "--out", sts, "--label", "tracked"],
        ["compare", "--a", os.path.join(sts, "spreads_oracle.csv"), "--b", os.path.join(sts, "spreads_tracked.csv")],
    ]
    for argv in stages:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code:
            break
    return code, err.getvalue()


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CFGS))
def test_in_memory_drop_reads_back_from_the_cli_files(tmp_path, name):
    assert run_cli(str(tmp_path), CFGS[name]) == (0, "")
    drop, score, spreads, _ = drop_in_memory(parse_run_config(CFGS[name]))

    observations = cli._read_observations(str(tmp_path / "run"))
    assert observations.times == drop.observations.times == drop.times
    assert same_bits(observations.offsets, drop.observations.offsets)
    for k in range(len(drop.times)):
        got, want = observations.frame(k), drop.observations.frame(k)
        for columns in ("comm_paths", "los"):
            for field in ("ids", "table", "degenerate"):
                assert same_bits(getattr(getattr(got, columns), field), getattr(getattr(want, columns), field))
        for field in ("scatterer_id", "table", "degenerate"):
            assert same_bits(getattr(got.sensing_detections, field), getattr(want.sensing_detections, field))

    # the trajectory source reads the same columns from memory as from the file
    path = str(tmp_path / "trk" / "trajectory.csv")
    traj, columns = csvio.read_trajectory(path), pipeline.trajectory_columns(score)
    assert traj.keys() == columns.keys()
    assert all(traj[key] == columns[key] if key == "kind" else same_bits(traj[key], columns[key]) for key in traj)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    k, e = traj["k"], np.concatenate(score.members)
    est = [[float(r[f"est_{c}"]) for c in ("x", "y", "z", "vx", "vy", "vz")] for r in rows]
    assert same_bits(est, score.estimates[k, e])
    errors = [float(r["pos_error_m"]) if r["pos_error_m"] else np.nan for r in rows]
    assert same_bits(errors, np.where(score.alive[k, e], score.errors[k, e], np.nan))

    for label, got in zip(SOURCES, spreads):
        back = csvio.read_spreads(str(tmp_path / "sts" / f"spreads_{label}.csv"))
        assert same_bits(np.column_stack([back[q] for q in cli.SPREAD_QUANTITIES]), got), label


def test_a_drop_in_memory_opens_no_file(monkeypatch):
    opened = []

    def refuse(path, *args, **kwargs):
        opened.append(str(path))
        raise PermissionError(f"no file may be opened, got {path}")

    def no_directory(*args, **kwargs):
        raise AssertionError(f"no directory may be made, got {args}")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "makedirs", no_directory)
    _, _, spreads, ks = drop_in_memory(parse_run_config(""))
    # only the noise helper's CPU probe, which draws on the calling thread where it cannot read its file
    assert set(opened) <= {"/proc/thread-self/stat"}
    assert all(len(s) == 201 for s in spreads) and all(0.0 <= d <= 1.0 for d in ks)


def test_a_default_track_reads_the_callers_cpu_at_most_once(monkeypatch):
    # the noise helper is pinned when it starts, not before each fill: of the 201 fills of a default
    # track, at most the first reads its CPU, and none where the process may run on one CPU only
    real_open, opened = builtins.open, []

    def counted(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    rc = parse_run_config("")
    drop = pipeline.simulate(rc)
    monkeypatch.setattr(normals, "_helper", None)
    monkeypatch.setattr(builtins, "open", counted)
    pipeline.track(drop.observations, drop.scene, rc.tracker, rc.scene.seed)
    assert opened.count("/proc/thread-self/stat") <= 1
    assert (normals._helper is not None) == (len(os.sched_getaffinity(0)) > 1)


def test_the_ess_median_is_np_medians_without_numpy_ma():
    # np.median loads numpy.ma, about 0.6 MB of code, at its first call; a default track never calls it
    script = (
        "import sys\nfrom isacsim import config, pipeline\nrc = config.parse_run_config('[run]\\nduration = 0.5\\n')\n"
        "drop = pipeline.simulate(rc)\nstate = pipeline.track(drop.observations, drop.scene, rc.tracker, rc.scene.seed)\n"
        "pipeline.score(state, drop.scene)\nsys.exit('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=120).returncode == 0
    rc = parse_run_config(CFGS["birth-death-virtual-delay"])
    drop = pipeline.simulate(rc)
    state = pipeline.track(drop.observations, drop.scene, rc.tracker, rc.scene.seed)
    ess = [e[~np.isnan(e)] for e in state.spread(state.ess, np.nan).T]
    medians = [cloud[8] for cloud in pipeline.score(state, drop.scene).clouds]
    assert any(e.size % 2 for e in ess) and any(e.size and e.size % 2 == 0 for e in ess)
    assert same_bits(np.array(medians), np.array([np.median(e) if e.size else np.nan for e in ess]))


@pytest.mark.parametrize("cpus, all_pairs, n_parts", [(2, True, 2), (1, True, 1), (64, True, 44), (2, False, 1)])
def test_comm_tap_parts_split_the_frames_by_tap_rows(monkeypatch, cpus, all_pairs, n_parts):
    # channel-allpairs' config: 11 frames of 4 rx rows of 128 pairs x 19 taps, 107008 rows of 8 fields in
    # all; its reference pair has 209 rows. A part holds the rx rows of about an equal share of the rows,
    # and at least _PART_FIELDS = 16384 fields, so 2 CPUs cut frame 5 in half, 64 CPUs give 44 parts of
    # an rx row each, not 52, and the reference pair is one part
    rc = parse_run_config("[run]\nseed = 1\nduration = 1.0\n")
    drop = pipeline.simulate(rc)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rows = pipeline.comm_tap_rows(drop, rc, all_pairs)
    units = pipeline.split(rows, len(csvio.COMM_TAPS_HEADER))
    assert len(units) == n_parts and [u for run in units for u in run] == list(range(len(rows)))
    parts = [list(pipeline.comm_taps(drop, rc, all_pairs, run)) for run in units]
    pieces = {}  # each frame's blocks, in part order
    for t, taps in (item for part in parts for item in part):
        pieces.setdefault(t, []).append(taps)
    assert list(pieces) == drop.times
    for t, want in pipeline.comm_taps(drop, rc, all_pairs):
        for name in ("q", "p", "path_id", "delay", "re", "im"):
            assert same_bits(np.concatenate([getattr(taps, name) for taps in pieces[t]]), getattr(want, name))
    counts = [sum(taps.delay.size for _, taps in part) for part in parts]
    assert all(abs(c - sum(counts) / len(counts)) <= rows.max() for c in counts) and counts[0] <= counts[-1]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.sampled_from([0, 0, 1, 2, 5, 40]), max_size=30), fields=st.integers(1, 20),
       cpus=st.integers(1, 8), floor=st.sampled_from([1, 7, 100, 16384]))
def test_split_covers_each_unit_once_in_order(rows, fields, cpus, floor):
    # units without rows, as frames without echoes, may lead or end the source
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(pipeline, "_PART_FIELDS", floor)
        units = pipeline.split(rows, fields)
    assert [u for run in units for u in run] == list(range(len(rows))) and all(units)
    total = sum(rows) * fields
    assert len(units) <= max(1, min(cpus, total // floor)) and (len(units) == 1 or total >= 2 * floor or not rows)


KINDS = ("user", "fb", "lb")


@settings(max_examples=200, deadline=None)
@given(n_frames=st.integers(1, 5),
       rows=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 4),
                               st.sampled_from([-1, 0, 1, 7, 2**62, -(2**63)])), max_size=40),
       queries=st.lists(st.tuples(st.integers(0, 4), st.sampled_from([-1, 0, 1, 2, 7, 2**62, -(2**63)])),
                        max_size=20))
def test_last_rows_equal_the_last_row_of_each_key(n_frames, rows, queries):
    # the parent looked rows up in a dict of (kind, k, path id) keys, where a later row replaces an earlier one
    rows = [(kind, k % n_frames, pid) for kind, k, pid in rows]
    k = np.array([q % n_frames for q, _ in queries], dtype=int)
    path_id = np.array([pid for _, pid in queries], dtype=np.int64)
    traj = {"kind": tuple(r[0] for r in rows), "k": np.array([r[1] for r in rows], dtype=int),
            "path_id": np.array([r[2] for r in rows], dtype=np.int64)}
    row = {key: i for i, key in enumerate(zip(traj["kind"], traj["k"].tolist(), traj["path_id"].tolist()))}
    for kind in KINDS:
        want = [row.get((kind, q, pid), -1) for q, pid in zip(k.tolist(), path_id.tolist())]
        assert pipeline._last_rows(traj, n_frames, kind, k, path_id).tolist() == want


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def valid_configs(draw):
    """Valid configs of at most 2 s, up to 5 births a second, 1 us of virtual delay, 5 clusters and 200 particles."""
    return (
        f"[run]\nseed = {draw(st.integers(0, 1000))}\nduration = {draw(floats(0.1, 2.0))!r}\n\n"
        f"[scene]\nn_clusters = {draw(st.integers(1, 5))}\nfb_per_cluster = {draw(st.integers(1, 3))}\n"
        f"lb_per_cluster = {draw(st.integers(0, 3))}\nbirth_death_rate = {draw(floats(0.0, 5.0))!r}\n"
        f"virtual_delay_max = {draw(floats(0.0, 1e-6))!r}\n\n"
        f"[tracker]\nn_particles = {draw(st.integers(1, 200))}\n"
    )


@settings(max_examples=100, deadline=None)
@given(valid_configs())
@example("[run]\nduration = 0.05\n")  # one frame: track has nothing to step to
def test_any_valid_drop_finishes_every_stage_or_raises_one_error(text):
    try:
        _, _, spreads, ks = drop_in_memory(parse_run_config(text))
    except ValueError as exc:
        with tempfile.TemporaryDirectory() as tmp:
            assert run_cli(tmp, text) == (2, f"error: {exc}\n")
        return
    assert all(np.isfinite(s).all() for s in spreads)
    assert all(0.0 <= d <= 1.0 for d in ks)


def test_a_long_run_holds_its_rows_not_an_object_per_frame():
    # one FB scatterer over 20,001 frames, 2 rows a frame: per-frame views once held 66.1 MiB after
    # simulate returned, the run's columns with their offsets about 9 MiB
    rc = parse_run_config("[run]\nduration = 2000.0\n\n[scene]\nn_clusters = 1\nfb_per_cluster = 1\n"
                          "lb_per_cluster = 0\n")
    tracemalloc.start()
    try:
        drop = pipeline.simulate(rc)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 20 * 2**20
    assert len(drop.times) == 20001 and drop.observations.offsets[-1].tolist() == [20001, 20001, 20001]
