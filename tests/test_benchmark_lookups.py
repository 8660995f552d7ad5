"""The benchmark's span layer looks program functions up by name.

``perfbench/spans.py`` wraps each function its ``_LAYERS`` table names;
a function deleted or renamed here would only fail a traced benchmark
run. These tests load that module, unedited: one checks every name, and
one runs a traced round and checks the span layer's counters against
the round's output files, which also catches a changed result type.
"""

import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_function():
    for _, module_name, names in _spans_module()._LAYERS:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    # the span layer counts rows through csvio._write
    assert callable(importlib.import_module("isacsim.csvio")._write)


def test_comm_cir_is_not_an_alias_of_run_taps():
    # an alias would make the comm_cir span wrap simulate's run_taps calls too
    comm = importlib.import_module("isacsim.comm")
    assert comm.comm_cir is not comm.run_taps


# runs in a child process, so that the span wrappers stay out of this one
TRACED_ROUND = """
import importlib.util, json, sys
from isacsim import cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "counters": tracer.counters}))
"""


def _data_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh.readlines()[1:]))


# config, tracker steps, spread snapshots; in the birth-death run paths 0-2
# die and 3-5 are born at k = 12, so the frames' path ids change mid-run
TRACED_CFGS = {
    "default": ("[run]\nduration = 0.5\n", 5, 12),
    "birth-death": (
        "[run]\nseed = 5\nduration = 2.0\n\n[scene]\nbirth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n"
        "[tracker]\nn_particles = 250\n",
        20, 42,
    ),
}


@pytest.mark.parametrize("name", sorted(TRACED_CFGS))
def test_traced_round_counts_match_the_outputs(tmp_path, name):
    text, n_steps, n_snapshots = TRACED_CFGS[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    run_dir, trk, sts = (str(tmp_path / d) for d in ("run", "trk", "sts"))
    stages = [
        ["simulate", "--config", str(cfg), "--out", run_dir],
        ["track", "--run", run_dir, "--out", trk],
        ["stats", "--run", run_dir, "--source", "scene", "--out", sts, "--label", "oracle"],
        ["stats", "--run", run_dir, "--track", trk, "--source", "trajectory", "--out", sts, "--label", "tracked"],
        ["compare", "--a", os.path.join(sts, "spreads_oracle.csv"), "--b", os.path.join(sts, "spreads_tracked.csv"),
         "--out", os.path.join(sts, "ks.csv")],
    ]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, SPANS, json.dumps(stages)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(stages), done.stderr
    counters = result["counters"]

    observations = _data_rows(os.path.join(run_dir, "observations.csv"))
    assert counters["scene.path_frames"] == sum(r["kind"] != "los" for r in observations)
    assert counters["sensing.echoes"] == len(_data_rows(os.path.join(run_dir, "sensing_taps.csv")))
    steps = {r["k"] for r in _data_rows(os.path.join(trk, "trajectory.csv"))}
    assert counters["tracker.cloud_steps"] == len(steps) - 1 == n_steps
    snapshots = [_data_rows(os.path.join(sts, f"spreads_{label}.csv")) for label in ("oracle", "tracked")]
    assert counters["stats.snapshots"] == sum(map(len, snapshots)) == n_snapshots
