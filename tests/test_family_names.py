"""Only ``signposts.py`` names a signpost family, and only
``allocation.py`` finds a tie class from figures.

``SignpostSequence`` is the one evaluator of the signposts d(n) and of the
figures v/d(n), for scalars and arrays alike; every other module of ``src/``
asks it for values, figures, figure weights and limits.  A module that
branches on a family constant would be a second evaluator, so this check
walks the ``ast`` of each module and fails on any reference to one.

``allocation._tie_class`` is the one tie-class detector of the scalar
paths.  Sweeps read their tie classes from the masks (tied, tie, held) of
their block kernels, so no other module may call or import it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apportion"
FAMILIES = {"LINEAR", "CLIPPED_LINEAR", "POWER", "GEOMETRIC", "SQRT_PAIR", "HARMONIC_PAIR", "TABLE"}


def name_references(path: Path, names: set[str]) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            hits.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    return hits


def test_only_signposts_names_a_family():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "signposts.py")
    assert len(modules) > 5
    assert [hit for path in modules for hit in name_references(path, FAMILIES)] == []


def test_only_allocation_finds_a_tie_class():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "allocation.py")
    assert len(modules) > 5
    assert [hit for path in modules for hit in name_references(path, {"_tie_class"})] == []

