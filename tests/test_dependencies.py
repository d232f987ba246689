"""The package has no runtime dependencies: every module imports only the
standard library and its own siblings."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frobsieve"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    outside = {
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside
