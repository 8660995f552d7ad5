"""The benchmark's span layer looks program functions up by name.

``perfbench/spans.py`` wraps each function its ``_LAYERS`` table names;
a function deleted or renamed here would only fail a traced benchmark
run. This test loads that table, unedited, and checks every name.
"""

import importlib
import importlib.util
import os

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


def test_comm_cir_is_not_an_alias_of_frame_taps():
    # an alias would make the comm_cir span wrap the CLI's frame_taps calls too
    comm = importlib.import_module("isacsim.comm")
    assert comm.comm_cir is not comm.frame_taps
