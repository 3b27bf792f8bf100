"""The examples import only names the package still has.

The surface guard counts ``examples/`` as callers, so an example that
imports a deleted name would keep dead code alive on paper while failing
when run.  This parses each example instead of running it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_every_repro_import_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]
    assert imports, f"{path.name} imports nothing from repro"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
