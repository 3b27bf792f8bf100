"""Every function and class of ``repro.ilp`` has a caller outside the tests.

A top-level ``def`` or ``class`` under ``src/repro/ilp/`` must appear, as a
whole word, somewhere in ``src/``, ``perfbench/`` or ``benchmarks/`` outside
its own definition (a name in its own body or error message is no caller);
package ``__init__.py`` files (re-exports) and the tests do not count.  Dead solver code then fails this test instead of
growing back.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ILP = ROOT / "src" / "repro" / "ilp"
CORPUS_DIRS = ("src", "perfbench", "benchmarks")


def _definitions():
    """``(name, path, lines)`` of each top-level function and class."""
    found = []
    for path in sorted(ILP.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append((node.name, path, range(first, node.end_lineno + 1)))
    return found


def _corpus():
    """Each counted source file's lines, keyed by path."""
    lines = {}
    for directory in CORPUS_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                lines[path] = path.read_text(encoding="utf-8").splitlines()
    return lines


def test_the_scan_sees_the_solver():
    names = {name for name, _, _ in _definitions()}
    assert {"Model", "HighsBackend", "equal_if", "lin_sum"} <= names


def test_every_definition_has_a_use_outside_the_tests():
    corpus = _corpus()
    unused = []
    for name, path, own in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(text) and not (other == path and number in own)
            for other, lines in corpus.items()
            for number, text in enumerate(lines, start=1)
        ):
            unused.append(f"{name} ({path.relative_to(ROOT)}:{own.start})")
    assert unused == [], "used nowhere outside the tests: " + ", ".join(unused)
