"""Checks over the package's own source."""

import ast
import pathlib

import isacsim

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """The lines of ``source`` that name a way to read an environment variable."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)]
        if ENVIRONMENT.intersection(n for n in names if isinstance(n, str)):
            lines.append(node.lineno)
    return lines


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
