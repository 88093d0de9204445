"""Statements of ``src/qchain`` that the tier-1 suite never executes.

Runs the tier-1 suite in-process (pytest with ``--hypothesis-seed=0``)
under a ``sys.settrace`` line tracer that follows only frames of
``src/qchain``, then prints each statement none of whose lines ran as
``path:line: source``, docstrings left out, followed by their count:

    PYTHONPATH=src python3 tests/untested_lines.py

A statement counts as executed when any line of its own (its
decorators, its header, or the whole of a simple statement) ran, so a
compound statement's body is judged statement by statement.  pytest's
output goes to standard error and the report to standard output.  The
report is informational: failing tests do not change the exit status,
which is nonzero only when the suite could not run.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qchain"
_DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> List[Tuple[int, range]]:
    """(first line, its own lines) of every statement but docstrings."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(start, max(end, node.lineno) + 1)))
    return sorted(out)


def run_suite() -> Tuple[int, Dict[str, Set[int]]]:
    """pytest's exit code and the lines run in each package file."""
    files = {os.path.realpath(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    by_code_name: Dict[str, Optional[Set[int]]] = {}

    def local(frame, event, arg):
        if event == "line":
            by_code_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_name:
            by_code_name[name] = files.get(os.path.realpath(name))
        return None if by_code_name[name] is None else local

    os.chdir(ROOT)  # the suite's testpaths are read from the root
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), files


def main() -> int:
    code, files = run_suite()
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"the suite could not run: pytest exit code {code}", file=sys.stderr)
        return 2
    missed = 0
    for name, ran in files.items():
        source = Path(name).read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in statements(source):
            if ran.isdisjoint(own):
                missed += 1
                print(f"{Path(name).relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    note = "" if code == pytest.ExitCode.OK else " (some tests failed)"
    print(f"{missed} untested statements{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
