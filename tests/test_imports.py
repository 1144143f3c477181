"""The runtime is stdlib-only: polyreal imports nothing outside the standard
library and itself, though numpy and scipy may be installed.  Importing it
loads none of the slow standard modules.  Every source, test and benchmark
file parses at the requires-python floor."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polyreal"


def test_absolute_imports_are_stdlib_or_polyreal():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "polyreal" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


ROOT = SRC.parents[1]


def test_every_file_parses_at_the_python_floor():
    # syntax newer than requires-python fails here, on any interpreter that runs the tests
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    floor = (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
    tops = ("src/polyreal", "tests", "perfbench")
    files = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_import_loads_no_slow_module():
    # in a child, whose modules are compared before and after the import,
    # since an interpreter's site may already have loaded some of them
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import polyreal\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"polyreal", "polyreal.cli", "polyreal.verify"} <= loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "random"})
