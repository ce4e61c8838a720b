"""Dead-code guard: every public module-level function or class of the package
is referenced somewhere in the package (outside ``__init__.py``), the tests or
the demos."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "complicial"


def _names_used(tree: ast.Module) -> set[str]:
    """Identifiers a module reads or imports, a definition's own name excluded."""
    used: set[str] = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            here.discard(stmt.name)
        used |= here
    return used


def test_every_public_name_is_used():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers = sources + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
    used = set().union(*(_names_used(ast.parse(p.read_text())) for p in readers))
    public = [
        f"{p.stem}.{stmt.name}"
        for p in sources
        for stmt in ast.parse(p.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]
    assert public
    assert [name for name in public if name.split(".")[1] not in used] == []
