"""Count code, docstring, comment and blank lines of the package's modules.

    python tools/loc.py [FILE ...]

With no arguments it counts ``src/gibbsratio/*.py`` next to this script.
A docstring line is any line of a module, class or function docstring
(found with ``ast``); a comment line holds only a comment (found with
``tokenize``); a blank line holds only whitespace; every other line is code.
A code line with a trailing comment counts as code.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> dict[str, int]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    kind = ["code" if line.strip() else "blank" for line in lines]
    with path.open("rb") as stream:
        for tok in tokenize.tokenize(stream.readline):
            if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
                kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kind[doc.lineno - 1:doc.end_lineno] = ["docstring"] * (doc.end_lineno - doc.lineno + 1)
    return {name: kind.count(name) for name in KINDS}


def _row(name: str, counts: dict[str, int]) -> str:
    return f"{name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS) + f"{sum(counts.values()):>8}"


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "gibbsratio").glob("*.py")
    )
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>8}")
    for path in paths:
        counts = count(path)
        print(_row(path.name, counts))
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
    print(_row("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
