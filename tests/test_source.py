"""Source hygiene checks that stand in for a linter."""

import ast
from pathlib import Path

import scencover

PACKAGE = Path(scencover.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (ignores __future__)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = "import os\nfrom fractions import Fraction\nprint(Fraction)\n"
    assert unused_imports(source) == ["os (line 1)"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = {p.name: unused_imports(p.read_text(encoding="utf-8"))
            for p in modules}
    assert {name: names for name, names in dead.items() if names} == {}
