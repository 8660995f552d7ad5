"""Checks over the package's own source."""

import ast
import pathlib

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
