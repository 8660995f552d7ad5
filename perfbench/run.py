"""Benchmark of the isacsim pipeline: simulate -> track -> stats -> compare.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
``src/``. Each workload runs in processes of its own (see worker.py) and
drives the program only through ``isacsim.cli.main``. Stage times are
reference-normalized (see refclock.py) and reported in ``s_ref``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` a separate traced round
follows the measured rounds and the JSON holds the per-layer metrics.
Every stage call is one operation; it fails when ``cli.main`` returns
non-zero, when its outputs fail the independent checks in checks.py, or
when a round's outputs differ from the checked ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
from workloads import WORKLOADS, Layout  # noqa: E402

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pipeline_s", "unit": "s_ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    *(_layer(f"cli.{stage}_s", "s_ref") for stage in ("simulate", "track", "stats", "compare")),
    _layer("cli.self_s", "s_ref"),
    *(_layer(f"tracker.{fn}_s", "s_ref") for fn in ("initialize", "step", "predict", "weight", "resample")),
    _layer("tracker.cloud_steps", "count"),
    _layer("tracker.weighted_cloud_steps", "count", "higher"),
    _layer("tracker.update_share", "ratio", "higher"),
    _layer("tracker.particle_updates_per_s", "1/s", "higher"),
    _layer("comm.comm_cir_s", "s_ref"),
    _layer("comm.taps", "count"),
    _layer("comm.taps_per_s", "1/s", "higher"),
    _layer("csvio.write_s", "s_ref"),
    _layer("csvio.read_s", "s_ref"),
    _layer("csvio.bytes_written", "bytes"),
    _layer("csvio.rows_written", "count"),
    *(_layer(f"scene.{fn}_s", "s_ref")
      for fn in ("generate_scene", "observe", "ground_truth_paths", "save_scene", "load_scene")),
    _layer("scene.path_frames", "count"),
    _layer("sensing.monostatic_cir_s", "s_ref"),
    _layer("sensing.echoes", "count"),
    _layer("stats.all_spreads_s", "s_ref"),
    _layer("stats.cdf_ks_s", "s_ref"),
    _layer("stats.snapshots", "count", "higher"),
    _layer("bench.raw_pipeline_s", "s"),
    _layer("bench.ref_sample_ms", "ms"),
    _layer("bench.trace_overhead", "ratio"),
]

# set-up is sampled in every round's process and in this many extra
# processes that stop at their first stage call
N_PROBES = 3
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


def spawn(mode: str, workload: str, seed: int, root: str, result: str):
    """Run one worker process; its result and its set-up seconds."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--dir", root, "--result", result]
    began = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    return out, out["first_stage"] - began


def stage_failures(workload, layout: Layout) -> dict[str, list[str]]:
    """Check messages per stage for the outputs under ``layout``."""
    out = {}
    for _, check in workload.stages:
        try:
            if check == "simulate":
                msgs = checks.check_simulate(layout.run, workload.all_pairs)
            elif check == "track":
                msgs = checks.check_track(layout.run, layout.track)
            elif check == "stats_scene":
                msgs = checks.check_stats_scene(layout.run, layout.stats)
            elif check == "stats_trajectory":
                msgs = checks.check_stats_trajectory(layout.run, layout.track, layout.stats)
            else:
                msgs = checks.check_ks_values(layout.stats) + checks.check_agreement(layout.stats)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            msgs = [f"outputs unreadable: {exc!r}"]
        out[check] = msgs
    return out


def count_operations(rounds, reference: dict[str, str], failures: dict[str, list[str]]):
    """(attempted, failed, messages) over every stage call of ``rounds``."""
    attempted, failed, messages = 0, 0, []
    for r in rounds:
        for s in r["stages"]:
            attempted += 1
            check = s["check"]
            if s["rc"] != 0:
                why = [f"exit code {s['rc']}: {s['stderr'].strip()}"]
            elif s["digest"] != reference[check]:
                why = ["outputs differ from the checked round"]
            else:
                why = failures[check]
            if why:
                failed += 1
                messages += [f"{check}: {m}" for m in why]
    return attempted, failed, messages


def _round_sum(r, key: str, stage: str | None = None) -> float:
    return sum(s[key] for s in r["stages"] if stage is None or s["stage"] == stage)


def layer_metrics(rounds: list[dict], traced: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for stage in ("simulate", "track", "stats", "compare"):
        values[f"cli.{stage}_s"] = statistics.median(_round_sum(r, "ref_s", stage) for r in rounds)
    layers, counters = traced["layers"], traced["counters"]
    for m in PER_LAYER:
        name = m["name"]
        if m["unit"] == "s_ref" and not name.startswith("cli."):
            values[name] = layers.get(name[: -len("_s")], 0.0)
        elif m["unit"] in ("count", "bytes"):
            values[name] = float(counters.get(name, 0))
    values["cli.self_s"] = sum(v for k, v in layers.items() if k.startswith("cli."))
    cloud_steps = counters.get("tracker.cloud_steps", 0)
    values["tracker.update_share"] = (
        counters.get("tracker.weighted_cloud_steps", 0) / cloud_steps if cloud_steps else 0.0)
    step_total = sum(layers.get(f"tracker.{fn}", 0.0) for fn in ("step", "predict", "weight", "resample"))
    values["tracker.particle_updates_per_s"] = (
        counters.get("tracker.particle_updates", 0) / step_total if step_total else 0.0)
    comm_s = layers.get("comm.comm_cir", 0.0)
    values["comm.taps_per_s"] = counters.get("comm.taps", 0) / comm_s if comm_s else 0.0
    values["bench.raw_pipeline_s"] = statistics.median(_round_sum(r, "raw_s") for r in rounds)
    values["bench.ref_sample_ms"] = 1e3 * statistics.fmean(c for r in rounds for c in r["sample_cpu_s"])
    untraced = statistics.median(_round_sum(r, "ref_s") for r in rounds)
    values["bench.trace_overhead"] = _round_sum(traced, "ref_s") / untraced
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    work = os.path.join(HERE, "_work", f"{workload_name}-{seed}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    try:
        setups = []
        for i in range(N_PROBES):
            _, s = spawn("probe", workload_name, seed, os.path.join(work, f"probe{i}"),
                         os.path.join(work, f"probe{i}.json"))
            setups.append(s)
        # whole rounds, each in a fresh process, until the run has lasted `seconds`
        layout = Layout(os.path.join(work, "rounds"))
        rounds = []
        began = time.monotonic()
        while not rounds or time.monotonic() - began < seconds:
            result, s = spawn("round", workload_name, seed, layout.root,
                              os.path.join(work, f"round{len(rounds)}.json"))
            setups.append(s)
            rounds.append(result)
        reference = {s["check"]: s["digest"] for s in rounds[-1]["stages"]}
        failures = stage_failures(workload, layout)
        traced = None
        if trace:
            traced, _ = spawn("trace", workload_name, seed, os.path.join(work, "trace"),
                              os.path.join(results, f"{tag}.trace.json"))
            over = [s for s in traced["stage_layers"] if s[2] > s[1] * (1.0 + 1e-9)]
            if over:
                raise BenchError(f"layer self times exceed their stage time: {over}")
        attempted, failed, messages = count_operations(rounds + ([traced] if traced else []),
                                                       reference, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(rounds, traced)
        spec = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pipeline_s": statistics.median(_round_sum(r, "ref_s") for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0,
        }
        spec = END_TO_END
    out = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": out, "setups_s": setups, "failures": messages,
                   "rounds": [[{k: s[k] for k in ("stage", "rc", "raw_s", "ref_s")} for s in r["stages"]]
                              for r in rounds]}, fh, indent=1)
    for m in sorted(set(messages)):
        print(f"FAILED {m}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "isacsim")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"operations: {out['attempted']} attempted, {out['failed']} failed")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
