"""Fast tests of the benchmark itself: sampler accounting, checks, metric table.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import refclock  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import WORKLOADS, Layout  # noqa: E402


def test_sampler_accounting_on_a_stage_of_known_cost():
    """A stage made of N kernel calls reads as about N * R0 seconds in s_ref."""
    sampler = refclock.Sampler()
    kernel = refclock.ReferenceKernel()
    n_calls = 400
    with sampler:
        time.sleep(0.2)  # samples before the stage
        start = time.perf_counter()
        for _ in range(n_calls):
            kernel()
        end = time.perf_counter()
        time.sleep(0.2)
    inside = sampler.within(start, end)
    assert inside and all(start <= s.start and s.end <= end for s in inside)
    sampled = sum(s.end - s.start for s in inside)
    # samples come every INTERVAL_S of wall time, each one kernel call long
    assert abs(len(inside) - (end - start) / refclock.INTERVAL_S) <= 0.5 * len(inside) + 2
    factor = refclock.R0 * len(inside) / sum(s.cpu for s in inside)
    assert sampler.normalized(start, end) == pytest.approx((end - start - sampled) * factor, rel=1e-12)
    # the stage's work is kernel calls, so machine speed cancels out
    assert sampler.normalized(start, end) == pytest.approx(n_calls * refclock.R0, rel=0.15)


def test_short_stage_takes_its_speed_from_the_nearest_samples():
    sampler = refclock.Sampler()
    with sampler:
        time.sleep(0.4)
        start = time.perf_counter()
        end = time.perf_counter()
        time.sleep(0.2)
    assert sampler.within(start, end) == []
    nearest = sampler.speed_samples(start, end)
    assert len(nearest) == refclock.MIN_SAMPLES
    assert sampler.normalized(start, end) == pytest.approx(
        (end - start) * refclock.R0 * len(nearest) / sum(s.cpu for s in nearest))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A three-frame all-pairs pipeline run through isacsim.cli.main."""
    from isacsim import cli

    layout = Layout(str(tmp_path_factory.mktemp("bench")))
    with open(layout.config, "w", encoding="utf-8") as fh:
        fh.write("[run]\nseed = 5\nduration = 0.2\n\n[tracker]\nn_particles = 100\n")
    with contextlib.redirect_stdout(io.StringIO()):
        for _, check in WORKLOADS["pipeline-default"].stages:
            assert cli.main(layout.stage_argv(check, all_pairs=check == "simulate")) == 0
    return layout


def _copy(layout: Layout, tmp_path) -> Layout:
    copy = Layout(str(tmp_path / "copy"))
    shutil.copytree(layout.root, copy.root)
    return copy


def _edit_rows(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:2] + edit(lines[2:])) + "\n")


def test_checks_pass_on_the_program_outputs(outputs):
    assert checks.check_simulate(outputs.run, all_pairs=True) == []
    assert checks.check_track(outputs.run, outputs.track) == []
    assert checks.check_stats_scene(outputs.run, outputs.stats) == []
    assert checks.check_stats_trajectory(outputs.run, outputs.track, outputs.stats) == []
    assert checks.check_ks_values(outputs.stats) == []


def test_nudged_tap_delay_is_rejected(outputs, tmp_path):
    copy = _copy(outputs, tmp_path)

    def nudge(rows):
        fields = rows[7].split(",")
        fields[5] = repr(float(fields[5]) * (1.0 + 1e-9))
        return rows[:7] + [",".join(fields)] + rows[8:]

    _edit_rows(os.path.join(copy.run, "comm_taps.csv"), nudge)
    msgs = checks.check_simulate(copy.run, all_pairs=True)
    assert any("spherical-wavefront" in m for m in msgs), msgs


def test_dropped_tap_row_is_rejected(outputs, tmp_path):
    copy = _copy(outputs, tmp_path)
    _edit_rows(os.path.join(copy.run, "comm_taps.csv"), lambda rows: rows[:100] + rows[101:])
    msgs = checks.check_simulate(copy.run, all_pairs=True)
    assert any("rows, expected" in m for m in msgs), msgs


def test_raised_ks_is_rejected(outputs, tmp_path):
    copy = _copy(outputs, tmp_path)

    def raise_first(rows):
        name, value = rows[0].split(",")
        return [f"{name},{float(value) + 0.01!r}"] + rows[1:]

    _edit_rows(os.path.join(copy.stats, "ks.csv"), raise_first)
    msgs = checks.check_ks_values(copy.stats)
    assert any("recomputed" in m for m in msgs), msgs


def test_agreement_bound_rejects_a_large_ks(outputs, tmp_path):
    copy = _copy(outputs, tmp_path)
    _edit_rows(os.path.join(copy.stats, "ks.csv"),
               lambda rows: [rows[0].split(",")[0] + ",0.5"] + rows[1:])
    assert len(checks.check_agreement(copy.stats)) >= 1


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["end_to_end"] == bench_run.END_TO_END
    assert spec["per_layer"] == bench_run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    stage = {"stage": "track", "check": "track", "raw_s": 2.0, "ref_s": 1.5}
    rounds = [{"stages": [stage], "sample_cpu_s": [0.001, 0.002]}]
    traced = {"stages": [stage], "layers": {"tracker.step": 0.5},
              "counters": {"tracker.cloud_steps": 4, "tracker.weighted_cloud_steps": 2}}
    values = bench_run.layer_metrics(rounds, traced)
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    assert values["tracker.update_share"] == 0.5
    assert values["cli.track_s"] == 1.5
