"""The runtime dependency stays numpy only."""

import ast
import sys
from pathlib import Path

import sbprop

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sbprop"}


def test_package_imports_only_the_stdlib_and_numpy():
    sources = sorted(Path(sbprop.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert foreign == []
