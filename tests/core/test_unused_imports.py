"""No module under ``src/repro`` imports a name it never uses.

Parses every module with :mod:`ast`, collects the names its imports
bind, and requires each to be read somewhere in the same module.
Exempt: ``__init__.py`` files (their imports are the package's
re-exports), names listed in the module's ``__all__``, ``from
__future__`` imports, and import lines marked ``# noqa`` (a name kept
where another tool looks it up, such as a benchmark tracer patching a
module attribute).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value
                for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            )
    return names


def unused_imports(path: Path) -> list[str]:
    """``"line: name"`` for every imported name ``path`` never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(f"{imported[name]}: {name}" for name in unused)


def test_scan_is_not_vacuous():
    modules = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    assert len(modules) >= 80
    assert (SRC / "serve" / "fabric.py") in modules


def test_no_unused_imports():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path))
    }
    assert not found, f"imported but never used: {found}"
