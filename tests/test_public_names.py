"""Dead-code guard: every public module-level function or class of the package
is read somewhere in the package (outside ``__init__.py``), the demos or the
benchmark, and every public method or property of a public class is read as an
attribute there.  The tests do not count as callers, and an import on its own
is not a read.  Methods are matched by attribute name, so a method shares its
use with any other attribute of the same name.  Every private module-level
function or class is named inside the package itself, and no module imports a
name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "complicial"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _names_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Identifiers a module reads, a definition's own name excluded, and the
    attribute names among them."""
    used: set[str] = set()
    attributes: set[str] = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
                attributes.add(node.attr)
        if isinstance(stmt, DEFINITIONS):
            here.discard(stmt.name)
        used |= here
    return used, attributes


def _public(path: Path) -> tuple[list[str], list[str]]:
    """module.name of the public definitions, module.Class.name of their public methods."""
    definitions, methods = [], []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
            definitions.append(f"{path.stem}.{stmt.name}")
            if isinstance(stmt, ast.ClassDef):
                methods += [
                    f"{path.stem}.{stmt.name}.{member.name}"
                    for member in stmt.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
    return definitions, methods


def _modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def test_every_public_name_is_used():
    callers = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    used, attributes = set(), set()
    for p in _modules() + callers:
        names, attrs = _names_used(ast.parse(p.read_text()))
        used |= names
        attributes |= attrs
    definitions, methods = [], []
    for p in _modules():
        d, m = _public(p)
        definitions += d
        methods += m
    assert definitions and methods
    assert [name for name in definitions if name.split(".")[1] not in used] == []
    assert [name for name in methods if name.split(".")[2] not in attributes] == []


def test_every_private_name_is_used_in_the_package():
    """A private module-level function or class is named somewhere in the package
    besides its own definition; the tests do not count as callers."""
    sources = sorted(PACKAGE.glob("*.py"))
    used: set[str] = set()
    private = []
    for p in sources:
        tree = ast.parse(p.read_text())
        used |= _names_used(tree)[0]
        private += [
            f"{p.stem}.{stmt.name}"
            for stmt in tree.body
            if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_")
        ]
    assert private
    assert [name for name in private if name.split(".")[1] not in used] == []


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module binds by an import, at any depth, is read in that module."""
    stale = []
    for p in _modules():
        tree = ast.parse(p.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        stale.append(f"{p.stem}: {name}")
    assert stale == []
