"""Layer spans and counters, installed from outside the program.

``Tracer.install`` replaces the module attributes of each layer's public
functions with wrappers, in every loaded ``isacsim`` module that binds
them (so ``cli``'s own ``from .scene import observe`` is wrapped too).
Each wrapper records a span (name, start, end, parent) in memory; the
spans are written out when the run ends. A layer's self time is its
span's duration minus the time its child spans and the reference
samples that interrupted it cover.

``geometry`` and ``antenna`` are leaf helpers called up to millions of
times per run; they are not wrapped and their cost stays in their
callers' self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (layer, module, public functions wrapped); each span is named layer.function
_LAYERS = (
    ("scene", "isacsim.scene",
     ("generate_scene", "observe", "ground_truth_paths", "save_scene", "load_scene")),
    ("sensing", "isacsim.sensing", ("monostatic_cir",)),
    ("comm", "isacsim.comm", ("comm_cir",)),
    ("tracker", "isacsim.tracker", ("initialize", "step", "predict", "weight", "resample")),
    ("stats", "isacsim.stats", ("all_spreads", "empirical_cdf", "ks_distance")),
)
# several functions share one span name
_SPAN_ALIASES = {"stats.empirical_cdf": "stats.cdf_ks", "stats.ks_distance": "stats.cdf_ks"}


def _counted(counters, name, args, result) -> None:
    if name == "scene.observe":
        counters["scene.path_frames"] += len(result.comm_paths)
    elif name == "sensing.monostatic_cir":
        counters["sensing.echoes"] += len(result)
    elif name == "comm.comm_cir":
        counters["comm.taps"] += sum(len(taps) for taps in result.values())
    elif name == "tracker.predict":
        counters["tracker.cloud_steps"] += 1
    elif name == "tracker.weight":
        counters["tracker.weighted_cloud_steps"] += 1
        counters["tracker.particle_updates"] += args[0].size
    elif name == "stats.all_spreads":
        counters["stats.snapshots"] += 1
    elif name == "csvio.write":
        counters["csvio.bytes_written"] += os.path.getsize(args[0])


class Tracer:
    """In-memory spans: [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def current(self) -> int:
        return self.stack[-1]

    def span(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            _counted(counters, name, args, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "isacsim" or mod_name.startswith("isacsim."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function; the isacsim modules must be imported."""
        for layer, mod_name, names in _LAYERS:
            mod = sys.modules[mod_name]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(mod, fn_name)
                self._replace_everywhere(original, self.span(_SPAN_ALIASES.get(name, name), original))
        csvio = sys.modules["isacsim.csvio"]
        for fn_name, fn in list(vars(csvio).items()):
            if callable(fn) and fn_name.startswith(("write_", "read_")):
                layer_name = "csvio.write" if fn_name.startswith("write_") else "csvio.read"
                self._replace_everywhere(fn, self.span(layer_name, fn))
        # every CSV writer ends in csvio._write(path, name, header, rows)
        write_rows = csvio._write
        counters = self.counters

        def counting_write(path, name, header, rows):
            rows = list(rows)
            counters["csvio.rows_written"] += len(rows)
            return write_rows(path, name, header, rows)

        csvio._write = counting_write

    def self_times(self, samples) -> dict[str, list[tuple[int, float]]]:
        """Per span: (root index, self seconds), samples excluded.

        ``samples`` carry the index of the span they interrupted as tag.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for s in samples:
            if s.tag >= 0:
                child[s.tag] += s.end - s.start
        root = [0] * len(self.spans)
        out: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            out[name].append((root[i], end - start - child[i]))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
