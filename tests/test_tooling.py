"""Checks over the package's own source."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import isacsim

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
FORK = {"fork", "forkpty"}


def named(node: ast.AST) -> set[str]:
    """The names, attributes, imported names and string constants of ``node``."""
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    names = [getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)]
    return {n for n in names if isinstance(n, str)}


def environment_reads(source: str) -> list[int]:
    """The lines of ``source`` that name a way to read an environment variable."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if ENVIRONMENT & named(node)]


def fork_sites(source: str) -> set[str]:
    """The innermost function around each node of ``source`` that names a way to fork; "" at module level."""
    tree = ast.parse(source)
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    sites = set()
    for node in ast.walk(tree):
        if FORK & named(node):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            sites.add(max(around, key=lambda f: f.lineno).name if around else "")
    return sites


def test_the_environment_check_sees_each_way_to_read_a_variable():
    for source in ("import os\nos.environ.get('X')", "import os\nos.getenv('X')",
                   "from os import environ", "import os\ngetattr(os, 'environ')"):
        assert environment_reads(source), source
    assert not environment_reads("import os\nos.sched_getaffinity(0)")


def test_no_module_reads_an_environment_variable():
    # a run is set by its config file and flags alone, so no sweep switch ships in the code
    package = pathlib.Path(isacsim.__file__).parent
    reads = {path.name: environment_reads(path.read_text()) for path in sorted(package.rglob("*.py"))}
    assert len(reads) >= 14 and not any(reads.values()), reads


def test_the_fork_check_sees_each_way_to_fork():
    for source, site in (("import os\nos.fork()", ""), ("from os import fork", ""),
                         ("import os\ndef f():\n    def g():\n        getattr(os, 'fork')()", "g"),
                         ("import pty\nclass A:\n    def f(self):\n        pty.fork()", "f")):
        assert fork_sites(source) == {site}, source
    assert not fork_sites("import os\nos.register_at_fork(after_in_child=print)")


def test_only_the_part_writer_forks():
    # the noise helper thread and BLAS never run in a child: only csvio's part writer forks, to format rows
    package = pathlib.Path(isacsim.__file__).parent
    sites = {(path.name, site) for path in sorted(package.rglob("*.py")) for site in fork_sites(path.read_text())}
    assert sites == {("csvio.py", "_fork_part")}


# the package's functions that no CLI stage calls, each with the reason it stays
UNCALLED = {
    # read by the benchmark
    "comm.comm_cir": "perfbench/spans.py wraps it in a span",
    "tracker.Clouds.size": "perfbench/spans.py's tracker.weight counter reads it",
    "scene.EchoColumns.__len__": "perfbench/spans.py's sensing.echoes counter reads it",
    # error paths
    "normals._forget_helper": "runs in a forked child, whose calls the profile does not see",
    # library API
    "pipeline.trajectory_columns": "the in-memory trajectory of a tracked run, for library callers",
}

PROFILED_STAGES = """
import json, sys, threading
from isacsim import cli

called = set()

def record(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

threading.setprofile(record)
sys.setprofile(record)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
threading.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "called": sorted(called)}, fh)
"""


def functions(path: pathlib.Path, module: str) -> dict[tuple[str, int], str]:
    """Each function and method of the module at ``path``, by its code object's (file, first line), named
    ``module.Class.name``; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), line)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), module)
    return found


def test_the_function_list_keys_decorated_functions_by_their_first_decorator(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import functools\nclass A:\n    @property\n    def p(self):\n        def q():\n"
                      "            pass\n\n@functools.cache\n@staticmethod\ndef f():\n    pass\n")
    assert functions(source, "m") == {(str(source), 3): "m.A.p", (str(source), 5): "m.A.p.q",
                                      (str(source), 8): "m.f"}


def test_every_function_the_cli_does_not_call_is_named(tmp_path):
    # every stage runs on two configs, under a profile that sees the main thread and the noise helper;
    # then one compare exits 2 on a spread file's nan, through the exact parser the C reader defers to
    argvs = []
    for name, text in (("default", "[run]\nduration = 2.0\n"),
                       ("birth-death-virtual-delay", "[run]\nseed = 5\nduration = 2.0\n\n[scene]\n"
                        "birth_death_rate = 0.05\nvirtual_delay_max = 5e-8\n\n[tracker]\nn_particles = 250\n")):
        cfg, out = tmp_path / f"{name}.ini", tmp_path / name
        cfg.write_text(text)
        run, trk, sts = (str(out / d) for d in ("run", "trk", "sts"))
        argvs += [
            ["simulate", "--config", str(cfg), "--out", run, "--all-pairs"],
            ["track", "--config", str(cfg), "--run", run, "--out", trk],
            ["stats", "--config", str(cfg), "--run", run, "--source", "observations", "--out", sts],
            ["stats", "--config", str(cfg), "--run", run, "--source", "trajectory", "--track", trk, "--out", sts],
            ["stats", "--config", str(cfg), "--run", run, "--source", "scene", "--out", sts],
            ["compare", "--a", f"{sts}/spreads_trajectory.csv", "--b", f"{sts}/spreads_scene.csv",
             "--out", f"{sts}/ks.csv"],
        ]
    bad = tmp_path / "bad.csv"
    bad.write_text("# isacsim spreads v1\nk,t,delay_spread_s,aod_az_spread_rad,aod_el_spread_rad,"
                   "aoa_az_spread_rad,aoa_el_spread_rad\n0,0.0,nan,0.1,0.1,0.1,0.1\n")
    argvs.append(["compare", "--a", str(bad), "--b", f"{sts}/spreads_scene.csv"])
    src = os.path.dirname(os.path.dirname(isacsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    record = tmp_path / "called.json"
    done = subprocess.run([sys.executable, "-c", PROFILED_STAGES, json.dumps(argvs), str(record)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(record.read_text())
    assert result["codes"] == [0] * (len(argvs) - 1) + [2]
    assert f"error: {bad}:3: delay_spread_s must be a finite number, got 'nan'\n" in done.stderr

    package = pathlib.Path(isacsim.__file__).parent
    defined = {}
    for path in sorted(package.glob("*.py")):
        defined.update(functions(path, path.stem))
    called = {(path, line) for path, line in result["called"]}
    uncalled = {name for key, name in defined.items() if key not in called}
    assert uncalled == set(UNCALLED)
