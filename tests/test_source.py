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


MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def sibling_imports(source: str) -> set[str]:
    """Modules of this package that a module imports, at any depth:
    relative imports and absolute `scencover.` ones."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level 1) is relative to this package
            base = "scencover" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            names += [base + "." + alias.name for alias in node.names]
    return {name.split(".")[1] for name in names
            if name.startswith("scencover.")} & MODULES


def test_sibling_imports_detected():
    source = ("from __future__ import annotations\n"
              "import itertools\n"
              "from .core import Leaf\n"
              "from . import oracle\n"
              "def f():\n"
              "    from scencover.utility import marginal\n"
              "    from scencover import cli, Leaf\n")
    assert sibling_imports(source) == {"core", "oracle", "utility", "cli"}


def test_layering():
    """`core` (data model and policy layer) imports no sibling module, and
    only the entry points import the backbone module."""
    imports = {p.stem: sibling_imports(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py")}
    assert imports["core"] == set()
    assert {name for name, found in imports.items()
            if "mixedgreedy" in found} == {"cli", "__init__"}


#: `WeightedSample`'s private row index; the public row-mask API
#: (`all_rows`, `mask_of`, `step_mask`, `mass`) is the one way in.
SAMPLE_PRIVATE = {"_mask", "_mass", "_columns", "_planes", "_all"}


def private_sample_reads(source: str) -> set[str]:
    """Attributes of the sample's private index a module reads or writes."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in SAMPLE_PRIVATE}


def test_private_sample_reads_detected():
    source = "def f(sample):\n    return sample._columns[0], sample.mask_of(())\n"
    assert private_sample_reads(source) == {"_columns"}


def test_only_core_reads_the_sample_index():
    reads = {p.stem: private_sample_reads(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert {name for name, found in reads.items() if found} == {"core"}
