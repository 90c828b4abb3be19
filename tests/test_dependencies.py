"""The runtime dependency stays numpy only, and every exported name exists."""

import ast
import importlib
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


def test_every_exported_name_resolves():
    # a name removed from a module but left in an __all__ would only fail
    # at `from sbprop import *` or at its caller
    modules = [sbprop] + [importlib.import_module(f"sbprop.{path.stem}")
                          for path in sorted(Path(sbprop.__file__).parent.glob("*.py"))
                          if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
