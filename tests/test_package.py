"""The package's import surface: each module's ``__all__`` and the README quick start."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gibbsratio"
SOURCES = [path for top in ("src", "tests", "tools", "perfbench") for path in (ROOT / top).rglob("*.py")]
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _declared_all(module: str) -> list[str] | None:
    """The names ``gibbsratio.<module>`` lists in ``__all__``, or None without one."""
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


ALL_LISTS = {module: names for module in MODULES if (names := _declared_all(module)) is not None}


def _imported_names():
    """(module, name, file) for each public ``from gibbsratio.<module> import name``.

    Relative imports inside the package count too; a name with a leading
    underscore is private, and a test may reach it without it being listed.
    """
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            parts = (["gibbsratio"] if node.level else []) + (node.module or "").split(".")
            if parts[0] != "gibbsratio" or len(parts) != 2:
                continue
            for alias in node.names:
                if not alias.name.startswith("_"):
                    yield parts[1], alias.name, path.relative_to(ROOT).as_posix()


def test_every_imported_name_is_in_its_modules_all():
    unlisted = sorted(
        f"{file}: {module}.{name}"
        for module, name, file in _imported_names()
        if module in ALL_LISTS and name not in ALL_LISTS[module]
    )
    assert unlisted == []


@pytest.mark.parametrize("module", sorted(ALL_LISTS))
def test_every_all_entry_exists(module):
    names = ALL_LISTS[module]
    imported = importlib.import_module(f"gibbsratio.{module}")
    assert [name for name in names if not hasattr(imported, name)] == []
    assert len(set(names)) == len(names)


def test_package_holds_only_its_version():
    import gibbsratio

    # besides __version__, only the submodules that other imports have loaded
    public = {name for name in vars(gibbsratio) if not name.startswith("_")}
    assert public <= set(MODULES)
    assert gibbsratio.__version__ == "0.1.0"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None
    done = subprocess.run(
        [sys.executable, "-c", block.group(1)], capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    q_hat, vs, exact, q_true = done.stdout.split()
    assert (vs, exact) == ("vs", "exact")
    assert abs(float(q_hat) - float(q_true)) < math.log1p(0.5)  # within the block's eps
