"""The benchmark's independent output checks pass on two short pipelines.

``perfbench/checks.py`` recomputes each stage's outputs with its own
numpy code, and a benchmark round counts a stage whose check fails as a
failed operation. This test loads that module, unedited, and runs its
checks of track, both stats sources and compare on a short default run,
on a short birth-death run with virtual delay, whose dead scatterers
leave empty truth cells, and on the benchmark's non-stationary config
cut to 5 s, whose track is ragged: the clouds of dead paths retire and
write no rows from then on. The simulate check is left out: its noise
statistics need more frames than a short run has.
"""

import importlib.util
import os

import pytest

from isacsim.cli import main

CHECKS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")

CFGS = {
    "default": "[run]\nduration = 1.0\n",
    "birth-death-virtual-delay": (
        "[run]\nseed = 5\nduration = 2.0\n\n"
        "[scene]\nbirth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n"
        "[tracker]\nn_particles = 250\n"
    ),
    "nonstationary": (
        "[run]\nseed = 11\nduration = 5.0\n\n[scene]\nbirth_death_rate = 0.05\n\n"
        "[tracker]\nn_particles = 250\n"
    ),
}
RETIRING = {"birth-death-virtual-delay", "nonstationary"}


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CFGS))
def test_independent_checks_pass(tmp_path, capsys, checks, name):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CFGS[name])
    run_dir, trk, sts = (str(tmp_path / d) for d in ("run", "trk", "sts"))
    for argv in (
        ["simulate", "--config", str(cfg), "--out", run_dir],
        ["track", "--run", run_dir, "--out", trk],
        ["stats", "--run", run_dir, "--source", "scene", "--out", sts, "--label", "oracle"],
        ["stats", "--run", run_dir, "--track", trk, "--source", "trajectory", "--out", sts, "--label", "tracked"],
        ["compare", "--a", os.path.join(sts, "spreads_oracle.csv"), "--b", os.path.join(sts, "spreads_tracked.csv"),
         "--out", os.path.join(sts, "ks.csv")],
    ):
        assert main(argv) == 0, argv
    assert ("\nretired clouds: " in capsys.readouterr().out) == (name in RETIRING)
    assert checks.check_track(run_dir, trk) == []
    assert checks.check_stats_scene(run_dir, sts) == []
    assert checks.check_stats_trajectory(run_dir, trk, sts) == []
    assert checks.check_ks_values(sts) == []
