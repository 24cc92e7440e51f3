"""List the package's statements that a pytest run never executes.

    python tools/linetrace.py [PYTEST_ARG ...]

It runs pytest in this process (on ``tests/`` next to this script when no
argument is given; any arguments pass through to pytest) under a line trace
set with ``sys.settrace`` and ``threading.settrace``.  Only frames whose file
lies under ``src/gibbsratio`` are traced line by line.  A statement is every
``ast.stmt`` except a docstring expression.  It counts as run when a traced
line falls on its own lines: for a compound statement that is its header,
from its first decorator to the line before its body.  Work done in another
process, such as a worker of ``run_trials``' process pool, is not seen.

It prints each module's never-run statements with their first source line,
then a total, and exits with pytest's exit code.  On a 2-vCPU VM the 446
tests of ``tests/`` took 55-66 s traced against 41 s untraced.  Uses the
standard library only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gibbsratio"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of every statement's own lines, docstrings left out."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
    }
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and body[0].lineno > node.lineno:
            last = body[0].lineno - 1
        else:
            last = node.end_lineno if body is None else node.lineno
        spans.append((first, last))
    return sorted(spans)


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the line trace; return its exit code and the lines hit per file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}  # resolved path -> lines hit
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set in hits, or None

    # closures only: module globals are cleared at interpreter shutdown
    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = str(Path(name).resolve())
            lines_of[name] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        return None if lines_of[name] is None else local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = traced_run(argv or [str(ROOT / "tests")])
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        seen = hits.get(str(path), set())
        missed = [
            (first, last)
            for first, last in statements("\n".join(lines))
            if not any(line in seen for line in range(first, last + 1))
        ]
        if not missed:
            continue
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} never run")
        for first, _ in missed:
            print(f"  {first:>5}  {lines[first - 1].strip()}")
    print(f"total: {total} statements never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
