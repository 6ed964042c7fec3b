"""The benchmark harness in ``perfbench/`` imports ternroll by name: every
name it imports must keep resolving, so a change to the library cannot
break a benchmark run without failing here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of each ``from ternroll... import name`` in
    perfbench's sources, at any depth."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "ternroll":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_perfbench_imports_from_ternroll():
    # a parse that finds nothing would make the test below vacuous
    assert {f for f, _, _ in _imports()} >= {"inputs.py", "oracles.py", "run.py", "workloads.py"}


@pytest.mark.parametrize("file, module, name", _imports(), ids=lambda v: str(v))
def test_perfbench_import_resolves(file, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None, (
        f"perfbench/{file}: 'from {module} import {name}' no longer resolves"
    )
