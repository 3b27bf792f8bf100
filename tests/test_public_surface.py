"""Every function, class and method under ``src/`` has a caller outside the tests.

The guard scans each top-level ``def`` and ``class`` under ``src/`` and each
non-dunder method of those classes.  A definition is used when its name
appears as an identifier token, or as a word inside a string, in ``src/``,
``perfbench/``, ``benchmarks/`` or ``examples/`` outside its own definition.
Docstrings, comments, ``__all__`` lists, package ``__init__.py`` files
(re-exports) and ``test_*.py`` modules do not count.

The scan runs to a fixed point: a use inside a definition already found dead
is no use, so a class reached only from a dead function is dead too.  A name
the scan cannot see being called (a framework override, a reference checker
the tests rely on) stays only through ``ALLOWLIST``, with its reason.

The same tokenizer backs a second guard: no module under ``src/`` or
``tests/`` imports a name it never uses.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import shutil
import textwrap
import tokenize
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perfbench", "benchmarks", "examples")
IMPORT_DIRS = ("src", "tests")

ALLOWLIST = {
    "_Handler.do_GET": "BaseHTTPRequestHandler dispatches GET requests to it",
    "_Handler.do_POST": "BaseHTTPRequestHandler dispatches POST requests to it",
    "_Handler.log_message": "overrides BaseHTTPRequestHandler's stderr access log",
    "seed_crossings": "perf_smoke's planar-seed probe, named in the verify recipe",
    "Model.check_solution": "the tests' check of HiGHS's answers against every row",
    "validate_netlist": "the tests' check of every registered circuit",
    "ServiceClient.breaker_state": "the tests' view of the client's circuit breaker",
    "ResultCache.has_checkpoint": "the tests' view of a job's resume state",
    "TraceClock.installed": "perf_smoke's check that production runs on the real clocks",
    "env_payload": "encodes the REPRO_FAULTS plan FaultInjector decodes; arms spawned daemons",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Definition:
    """One scanned ``def`` or ``class``: its name and where it is written."""

    qualname: str
    path: Path
    lines: range

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def __str__(self) -> str:
        return f"{self.qualname} ({self.path}:{self.lines.start})"


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _definitions(path: Path, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, _DEFINITION):
            yield Definition(node.name, path, _span(node))
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, _DEFINITION[:2]) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield Definition(f"{node.name}.{method.name}", path, _span(method))


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and ast.get_docstring(node, clean=False):
            docstring = node.body[0]
            lines.update(range(docstring.lineno, docstring.end_lineno + 1))
    return lines


def _silent_lines(tree: ast.Module) -> set:
    """Lines whose strings are no use: docstrings and ``__all__`` lists."""
    lines = _docstring_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _words(source: str, silent: set):
    """``(word, line)`` of every identifier token and every word in a string."""
    strings = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string, token.start[0]
        elif token.type in strings and token.start[0] not in silent:
            for match in _WORD.finditer(token.string):
                yield match.group(), token.start[0] + token.string.count("\n", 0, match.start())


def index(root: Path):
    """Tokenize the callers once: ``(definitions, uses)``.

    ``uses`` maps each word to the ``(path, line)`` places it is written.
    """
    definitions, uses = [], defaultdict(list)
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py" or path.name.startswith("test_"):
                continue
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
            relative = path.relative_to(root)
            if directory == "src":
                definitions.extend(_definitions(relative, tree))
            for word, line in _words(source, _silent_lines(tree)):
                uses[word].append((relative, line))
    return definitions, uses


def dead(definitions, uses, allowlist=ALLOWLIST):
    """Definitions with no use outside themselves and the dead, to a fixed point."""
    found, dead_lines = [], defaultdict(set)
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition in found or definition.qualname in allowlist:
                continue
            if all(
                (path == definition.path and line in definition.lines) or line in dead_lines[path]
                for path, line in uses.get(definition.name, ())
            ):
                found.append(definition)
                dead_lines[definition.path].update(definition.lines)
                changed = True
    return sorted(found, key=lambda d: (str(d.path), d.lines.start))


def scan(root: Path, allowlist=ALLOWLIST):
    return dead(*index(root), allowlist)


def unused_imports(source: str):
    """``(line, name)`` of each name the module imports and never uses.

    A use is an identifier token, or a word in a string (a string annotation,
    an ``__all__`` entry), outside the imports and the docstrings.
    """
    tree = ast.parse(source)
    imported, import_lines = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        import_lines.update(range(node.lineno, node.end_lineno + 1))
        for alias in node.names:
            if alias.name != "*":
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {
        word
        for word, line in _words(source, _docstring_lines(tree))
        if line not in import_lines
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def import_scan(root: Path):
    """``path:line: name`` of every unused import; package re-exports excepted."""
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for directory in IMPORT_DIRS
        for path in sorted((root / directory).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]


@functools.lru_cache(maxsize=None)
def _repo_index():
    return index(ROOT)


def test_every_definition_has_a_use_outside_the_tests():
    unused = dead(*_repo_index())
    assert unused == [], "used nowhere outside the tests: " + ", ".join(map(str, unused))


def test_every_allowlist_entry_is_needed():
    definitions, uses = _repo_index()
    for name in ALLOWLIST:
        others = {key: reason for key, reason in ALLOWLIST.items() if key != name}
        assert name in {d.qualname for d in dead(definitions, uses, others)}, (
            f"{name} is no longer dead without its allowlist entry; drop the entry"
        )


def _write(root: Path, relative: str, source: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def test_the_scan_on_a_small_tree(tmp_path):
    _write(tmp_path, "src/pkg/__init__.py", "from pkg.mod import build_stack\n")
    _write(
        tmp_path,
        "src/pkg/mod.py",
        '''
        """Mentioning build_stack in a docstring is no use."""


        class Layer:
            pass


        def build_stack():
            return [Layer()]


        def named_in_a_string():
            pass


        def named_in_an_fstring():
            pass


        def kept():
            return kept  # a use inside its own definition does not count


        class Box:
            def __repr__(self):
                return "Box"

            def used(self):
                return 1

            def tested(self):
                return 2
        ''',
    )
    _write(
        tmp_path,
        "examples/demo.py",
        """
        import pkg.mod as mod

        getattr(mod, "named_in_a_string")()
        print(f"{1} named_in_an_fstring")
        print(mod.Box().used())
        """,
    )
    # A test module inside a caller directory is still no caller.
    _write(tmp_path, "perfbench/test_mod.py", "from pkg.mod import Box\nBox().tested()\n")

    found = [d.qualname for d in scan(tmp_path, allowlist={"kept": "the test says so"})]
    assert found == ["Layer", "build_stack", "Box.tested"]
    assert "kept" in [d.qualname for d in scan(tmp_path, allowlist={})]


def test_restoring_a_deleted_name_fails(tmp_path):
    for directory in CALLER_DIRS:
        shutil.copytree(
            ROOT / directory, tmp_path / directory, ignore=shutil.ignore_patterns("__pycache__")
        )
    overlap = tmp_path / "src" / "repro" / "geometry" / "overlap.py"
    overlap.write_text(
        overlap.read_text(encoding="utf-8")
        + textwrap.dedent(
            '''

            def find_overlaps(pairs):
                """The pairs of rectangles that overlap."""
                return [pair for pair in pairs if min(overlap_extents(*pair)) > 0.0]
            '''
        ),
        encoding="utf-8",
    )
    assert [d.qualname for d in scan(tmp_path)] == ["find_overlaps"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = import_scan(ROOT)
    assert unused == [], "imported and never used: " + ", ".join(unused)


def test_the_import_scan_on_a_small_tree(tmp_path):
    _write(tmp_path, "src/pkg/__init__.py", "from pkg.mod import helper\n")
    _write(
        tmp_path,
        "src/pkg/mod.py",
        '''
        """Naming json in a docstring is no use."""

        from __future__ import annotations

        import json
        import os.path
        import numpy as np
        from typing import Dict, List

        __all__ = ["Dict"]


        def helper(items) -> "List[int]":
            return os.path.join(*items)
        ''',
    )
    _write(tmp_path, "tests/test_mod.py", "import pytest\nfrom pkg.mod import helper\n\nhelper\n")
    assert import_scan(tmp_path) == [
        "src/pkg/mod.py:6: json",
        "src/pkg/mod.py:8: np",
        "tests/test_mod.py:1: pytest",
    ]
