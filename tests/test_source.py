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


def callers_of(name: str, source: str) -> set[str]:
    """Dotted names of the functions (classes and nested functions
    included in the path) whose bodies call `name`, as a bare name or an
    attribute; a call outside every function reads "<module>"."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = (func.id if isinstance(func, ast.Name)
                          else getattr(func, "attr", None))
                if called == name:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_callers_detected():
    source = ("from .budgeted import best_ratio\n"
              "class Order:\n"
              "    def pick(self):\n"
              "        return best_ratio(self.items, self.gain, self.costs)\n"
              "def plan():\n"
              "    def stage():\n"
              "        return budgeted.best_ratio([], len, None)\n"
              "    return best_ratio\n"
              "best_ratio([], len, None)\n")
    assert callers_of("best_ratio", source) == {"Order.pick", "plan.stage",
                                                 "<module>"}


def test_one_greedy_pick_loop():
    """Every greedy loop picks through `GreedyOrder.pick`; the adaptive
    policy's one choice per call is the only other caller of the argmax."""
    calls = {(p.stem, caller) for p in PACKAGE.glob("*.py")
             for caller in callers_of("best_ratio",
                                      p.read_text(encoding="utf-8"))}
    assert calls == {("budgeted", "GreedyOrder.pick"),
                     ("adaptivegreedy", "AdaptiveGreedyStrategy.next_item")}


def test_one_state_derivation_per_invocation():
    """Within the backbone module only `invocation_plan` derives b's utility
    state, and it passes the state on to `worst_case_realization`."""
    source = (PACKAGE / "mixedgreedy.py").read_text(encoding="utf-8")
    assert callers_of("state_of", source) == {"invocation_plan"}


def method_owners(name: str, source: str) -> set[str]:
    """Classes whose own body defines the method `name`."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == name
                    for item in node.body)}


def test_method_owners_detected():
    source = ("class A:\n    def _evaluate(self, b):\n        pass\n"
              "class B(A):\n    def level(self, s):\n"
              "        def _evaluate():\n            pass\n")
    assert method_owners("_evaluate", source) == {"A"}
    assert method_owners("level", source) == {"B"}


#: The state API every utility gives.
STATE_METHODS = ("root", "step", "level", "state_of")


def test_one_value_formula():
    """Every utility is valued by the base class's one formula,
    level(state_of(b)), and the base class keeps no default state: each
    utility gives its own."""
    source = {p.stem: p.read_text(encoding="utf-8")
              for p in PACKAGE.glob("*.py")}
    owners = {(stem, cls) for stem, text in source.items()
              for cls in method_owners("_evaluate", text)}
    assert owners == {("utility", "UtilityFunction")}
    base_states = {name for name in STATE_METHODS
                   if "UtilityFunction" in method_owners(name, source["utility"])}
    assert base_states == set()


def class_constants(name: str, source: str) -> dict[str, object]:
    """{class: value} for each class whose own body assigns the constant
    `name` (a literal)."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and isinstance(item.value, ast.Constant)
                        and any(isinstance(t, ast.Name) and t.id == name
                                for t in item.targets)):
                    found[node.name] = item.value.value
    return found


def test_class_constants_detected():
    source = ("class A:\n    monotone = True\n"
              "class B(A):\n    monotone = False\n"
              "    def __init__(self):\n        self.monotone = True\n"
              "class C(A):\n    passes = 2\n")
    assert class_constants("monotone", source) == {"A": True, "B": False}


def test_monotone_certificates_declared():
    """The families monotone by their shape are the only classes that
    declare `monotone = True`; the base class declares False, and an OR
    and an induced utility take their operands' certificates."""
    declared = {(p.stem, cls, value) for p in PACKAGE.glob("*.py")
                for cls, value in class_constants(
                    "monotone", p.read_text(encoding="utf-8")).items()}
    assert declared == {("utility", "UtilityFunction", False),
                        ("utility", "CoverageUtility", True),
                        ("utility", "KOfNUtility", True),
                        ("utility", "EliminationUtility", True)}


#: The utility constructors, which the generator leaves to the parser.
UTILITY_BUILDERS = ("CoverageUtility", "KOfNUtility", "OrUtility",
                    "TableUtility", "scenario_count_utility",
                    "scenario_weight_utility")


def test_one_utility_builder():
    """The generator draws descriptors and builds every utility through
    `serialize.build_utility`, importing no utility module."""
    source = (PACKAGE / "generate.py").read_text(encoding="utf-8")
    called = {name for name in UTILITY_BUILDERS if callers_of(name, source)}
    assert called == set()
    assert callers_of("build_utility", source) == {"random_instance"}
    assert sibling_imports(source) == {"core", "serialize"}


def module_names(source: str) -> set[str]:
    """Names a module binds at its top level by assignment."""
    names = set()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_module_names_detected():
    source = ("A = 1\nB, (C, D) = 2, (3, 4)\nE: int = 5\n"
              "def f():\n    F = 6\nclass G:\n    H = 7\n")
    assert module_names(source) == {"A", "B", "C", "D", "E"}


def test_one_family_list():
    """`generate.FAMILIES` is the one list of generated families."""
    owners = {p.stem for p in PACKAGE.glob("*.py")
              if "FAMILIES" in module_names(p.read_text(encoding="utf-8"))}
    assert owners == {"generate"}


#: The exhaustive passes over partial realizations, which read level and
#: weight tables (`utility.partial_table`), and the per-tuple reads of the
#: value memo and the sample they must not make; `extend` builds witnesses.
EXHAUSTIVE_PASSES = {"min_progress_ratio", "check_monotone",
                     "check_submodular", "check_adaptive_submodular"}
MEMO_READS = ("value", "marginal", "expected_marginal", "weight_of")


def memo_reads(source: str) -> set[tuple[str, str]]:
    """(pass, name) for each exhaustive pass whose body, nested functions
    included, calls one of MEMO_READS."""
    return {(caller.split(".")[0], name) for name in MEMO_READS
            for caller in callers_of(name, source)
            if caller.split(".")[0] in EXHAUSTIVE_PASSES}


def test_memo_reads_detected():
    source = ("def check_monotone(g):\n"
              "    return g.value(extend(b, 0, '0'))\n"
              "def check_adaptive_submodular(g, sample):\n"
              "    def gain(b):\n"
              "        return expected_marginal(g, sample, b, 0)\n"
              "    return extend(b, 0, '1')\n"
              "def worst_state(g, b, i):\n"
              "    return marginal(g, b, i, '0')\n")
    assert memo_reads(source) == {("check_monotone", "value"),
                                  ("check_adaptive_submodular",
                                   "expected_marginal")}


def test_exhaustive_passes_read_tables():
    """The four passes read one level table (and a weight table) by code
    arithmetic, not one memo lookup per partial realization."""
    source = (PACKAGE / "utility.py").read_text(encoding="utf-8")
    assert EXHAUSTIVE_PASSES <= {node.name for node in ast.parse(source).body
                                 if isinstance(node, ast.FunctionDef)}
    assert memo_reads(source) == set()


#: Float functions of `math`: the library's arithmetic is exact (ints and
#: `Fraction`s), and ALPHA is a pinned literal rather than a float root.
FLOAT_MATH = {"exp", "expm1", "log", "log1p", "log2", "log10", "sqrt"}


def float_math_calls(source: str) -> set[str]:
    """The FLOAT_MATH functions a module calls, as `math.f` (under any
    alias of the module) or as a name imported from `math`."""
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            functions.update((alias.asname or alias.name, alias.name)
                             for alias in node.names)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            found.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in functions:
            found.add(functions[func.id])
    return found & FLOAT_MATH


def test_float_math_calls_detected():
    source = ("import math\n"
              "import math as m\n"
              "from math import log2 as lg, floor\n"
              "def f(x):\n"
              "    return math.exp(x) + m.sqrt(x) + lg(x) + floor(x)"
              " + math.ceil(x)\n")
    assert float_math_calls(source) == {"exp", "sqrt", "log2"}


def test_no_float_math():
    calls = {p.name: float_math_calls(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in calls.items() if found} == {}
