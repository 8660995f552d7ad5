"""Workload inputs and the stage calls each workload makes.

Every workload writes one INI file and then calls ``isacsim.cli.main``
once per stage. A round is one pass over the workload's stages; a run
repeats whole rounds.

Only ``channel-allpairs`` feeds the benchmark seed to the program (as
the scene seed). The two pipeline workloads keep the shipped seed 11:
their compare stage checks the paper's agreement claim (KS <= 0.1), and
on the default scene that claim holds for seed 11 but fails for most
other scene seeds and for some tracker seeds, so feeding them the
benchmark seed would make operations fail on some seeds and not on
others.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SHIPPED_SEED = 11

# stage name, check name
PIPELINE_STAGES = (
    ("simulate", "simulate"),
    ("track", "track"),
    ("stats", "stats_scene"),
    ("stats", "stats_trajectory"),
    ("compare", "compare"),
)
ALLPAIRS_STAGES = (("simulate", "simulate"),)


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[tuple[str, str], ...]
    all_pairs: bool
    config: str  # INI text; "{seed}" takes the benchmark seed

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed % 2**32)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-default", PIPELINE_STAGES, False, f"[run]\nseed = {SHIPPED_SEED}\n"),
        Workload("pipeline-nonstationary", PIPELINE_STAGES, False,
                 f"[run]\nseed = {SHIPPED_SEED}\n\n[scene]\nbirth_death_rate = 0.05\n\n"
                 "[tracker]\nn_particles = 250\n"),
        # 11 frames of the default scene: one all-pairs pass takes ~5 s
        Workload("channel-allpairs", ALLPAIRS_STAGES, True, "[run]\nseed = {seed}\nduration = 1.0\n"),
    )
}


@dataclass(frozen=True)
class Layout:
    """Directories of one round's inputs and outputs."""

    root: str

    @property
    def config(self) -> str:
        return os.path.join(self.root, "config.ini")

    @property
    def run(self) -> str:
        return os.path.join(self.root, "run")

    @property
    def track(self) -> str:
        return os.path.join(self.root, "trk")

    @property
    def stats(self) -> str:
        return os.path.join(self.root, "sts")

    def stage_argv(self, check: str, all_pairs: bool) -> list[str]:
        """The cli.main argument list of one stage."""
        if check == "simulate":
            argv = ["simulate", "--config", self.config, "--out", self.run]
            return argv + ["--all-pairs"] if all_pairs else argv
        if check == "track":
            return ["track", "--config", self.config, "--run", self.run, "--out", self.track]
        if check == "stats_scene":
            return ["stats", "--config", self.config, "--run", self.run, "--source", "scene",
                    "--out", self.stats, "--label", "oracle"]
        if check == "stats_trajectory":
            return ["stats", "--config", self.config, "--run", self.run, "--track", self.track,
                    "--source", "trajectory", "--out", self.stats, "--label", "tracked"]
        if check == "compare":
            return ["compare", "--a", os.path.join(self.stats, "spreads_oracle.csv"),
                    "--b", os.path.join(self.stats, "spreads_tracked.csv"),
                    "--out", os.path.join(self.stats, "ks.csv")]
        raise ValueError(f"unknown stage {check!r}")

    def outputs(self, check: str) -> list[str]:
        """Files a stage writes, for the determinism hash."""
        if check == "simulate":
            d, names = self.run, ["scene.txt", "config_resolved.ini", "observations.csv",
                                  "sensing_observations.csv", "sensing_taps.csv", "comm_taps.csv"]
        elif check == "track":
            d, names = self.track, ["trajectory.csv", "summary.csv", "rmse.csv"]
        elif check in ("stats_scene", "stats_trajectory"):
            label = "oracle" if check == "stats_scene" else "tracked"
            quantities = ("delay_spread_s", "aod_az_spread_rad", "aod_el_spread_rad",
                          "aoa_az_spread_rad", "aoa_el_spread_rad")
            d = self.stats
            names = [f"spreads_{label}.csv"] + [f"cdf_{q}_{label}.csv" for q in quantities]
        else:
            d, names = self.stats, ["ks.csv"]
        return [os.path.join(d, n) for n in names]
