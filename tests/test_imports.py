"""The runtime is stdlib-only: polyreal imports nothing outside the standard
library and itself, though numpy and scipy may be installed."""

import ast
import sys
from pathlib import Path

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
