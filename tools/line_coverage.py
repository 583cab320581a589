"""The statement lines of ``src/horikawa`` that tier-1 never runs.

    PYTHONPATH=src python3 tools/line_coverage.py [pytest args ...]

Standard library only (and the installed ``pytest``); run from the
repository root.  It runs the tier-1 suite in this process under
``sys.settrace`` and ``threading.settrace``, with any extra arguments
passed on to ``pytest.main``, and prints, per module, the statement lines
that never ran.

The statement lines come from ``ast``: every statement of the module,
except docstrings, imports and ``def``/``class`` headers.  A statement
counts as run when any line of its own span ran: the whole of a simple
statement, or the header of a compound one (``if`` up to its ``:``).

The exit code is 0 when every such line ran, and 1 otherwise, or when
the suite itself fails.  Lines run only in subprocesses count as never
run, since this tracer does not see them.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "horikawa"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statement_spans(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines of its own span."""
    spans = {}

    def visit(body):
        for position, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body)
                continue
            if position == 0 and _is_docstring(node):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)):
                continue
            # a compound statement's own span ends where its first nested block starts
            nested = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
                      for child in getattr(node, field, None) or ()]
            end = min(((child.pattern if isinstance(child, ast.match_case) else child).lineno
                       for child in nested), default=node.end_lineno + 1)
            spans[node.lineno] = range(node.lineno, max(end, node.lineno + 1))
            for child in nested:
                visit(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                      else [child])

    visit(ast.parse(source).body)
    return spans


def trace_suite(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process; the lines of each package module that ran."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def tracer(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename[len(prefix):], set())

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package
    status, ran = trace_suite(argv)
    unexpected = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        executed = ran.get(path.name, set())
        missing = sorted(first for first, span in statement_spans(source).items()
                         if executed.isdisjoint(span))
        unexpected += len(missing)
        for line in missing:
            print(f"{path.name}:{line}: never ran: {text[line - 1].strip()}")
    print(f"{unexpected} statement line(s) of src/horikawa never ran")
    return 1 if status or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
