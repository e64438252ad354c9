"""Every name imported in ``src/`` and ``tests/`` is used.

An unused-import check in the spirit of pyflakes, written with ``ast``: a
name bound by ``import`` or ``from ... import`` must appear as a name
somewhere in its module.  Package ``__init__.py`` files re-export their
imports and ``__future__`` imports switch features on, so neither counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []
