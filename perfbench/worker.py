"""One workload process: set up, run stages through isacsim.cli.main, report.

    python3 perfbench/worker.py --mode {probe,round,trace} --workload W
        --seed N --dir D --result R

``probe`` stops at the first stage call, for the set-up time. ``round``
runs the workload's stages once, with the reference sampler running and
no spans. ``trace`` does the same with the layer spans installed and
also writes its spans beside R. The result, written to R as JSON,
carries the monotonic clock reading of the first stage call; the parent
subtracts its own reading taken before it started this process.

A fresh process per round is what a user of the command line gets, and
it keeps one round's heap from slowing the next: in one long-lived
process, all-pairs rounds ran about 2.5 % slower each than the one
before.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from isacsim import cli  # noqa: E402  (imports numpy; both are part of the timed set-up)

import refclock  # noqa: E402
from workloads import WORKLOADS, Layout  # noqa: E402


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def _call(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one cli.main call; its stdout is dropped."""
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a crash in one stage is that operation failing
            traceback.print_exc(file=err)
            rc = -1
    return rc, err.getvalue()[-2000:]


def run_round(workload, layout: Layout, main, sampler: refclock.Sampler) -> dict:
    """One pass over the workload's stages with the reference sampler running."""
    stages = []
    with sampler:
        for name, check in workload.stages:
            argv = layout.stage_argv(check, workload.all_pairs)
            a = time.perf_counter()
            rc, err = _call(main, argv)
            b = time.perf_counter()
            stages.append({"stage": name, "check": check, "rc": rc, "stderr": err, "start": a, "end": b})
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for s in stages:
        s["raw_s"] = s["end"] - s["start"] - sum(x.end - x.start for x in sampler.within(s["start"], s["end"]))
        s["ref_s"] = sampler.normalized(s["start"], s["end"])
        s["digest"] = _digest(layout.outputs(s["check"]))
    return {"stages": stages, "peak_rss_kb": peak_rss_kb, "sample_cpu_s": [s.cpu for s in sampler.samples]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "round", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    layout = Layout(args.dir)
    os.makedirs(layout.root, exist_ok=True)
    with open(layout.config, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed))

    result: dict = {"first_stage": time.monotonic()}
    if args.mode == "round":
        result.update(run_round(workload, layout, cli.main, refclock.Sampler()))
    elif args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        sampler = refclock.Sampler(tag=tracer.current)
        result.update(run_round(workload, layout, _traced_main(tracer), sampler))
        result["layers"], result["stage_layers"] = _layer_times(tracer, sampler)
        result["counters"] = dict(tracer.counters)
        tracer.dump(os.path.splitext(args.result)[0] + "-spans.json")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _traced_main(tracer):
    """cli.main under a root span named after the stage it runs."""
    wrapped = {}

    def main(argv):
        name = f"cli.{argv[0]}"
        if name not in wrapped:
            wrapped[name] = tracer.span(name, cli.main)
        return wrapped[name](argv)

    return main


def _layer_times(tracer, sampler):
    """Self time per span name in s_ref, each span scaled by its stage's speed.

    Also, per stage: its name, its time and the sum of its layers' self
    times, all in s_ref.
    """
    factor, stages = {}, {}
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        if parent < 0:
            factor[i] = sampler.factor(start, end)
            stages[i] = [name, sampler.normalized(start, end), 0.0]
    out: dict[str, float] = {}
    for name, items in tracer.self_times(sampler.samples).items():
        out[name] = sum(seconds * factor[root] for root, seconds in items)
        if not name.startswith("cli."):
            for root, seconds in items:
                stages[root][2] += seconds * factor[root]
    return out, list(stages.values())


if __name__ == "__main__":
    sys.exit(main())
