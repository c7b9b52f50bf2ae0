"""Every module-level import in the package is used by its module, every
private or nested definition is referenced within the package, every
public module-level name is exported by the package or referenced in it,
every exported name is referenced in the package or named in README.md,
every name the package exported before its exports became lazy still
resolves to its submodule's object, the symbolic layers reach no numpy
layer through their top-level imports, and no function calls itself,
directly or not, except the few listed."""

import ast
import importlib
import re
from collections import Counter, defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matlogic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            used |= _annotation_names(annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import os\nfrom typing import List, Dict\nx: 'List[int]' = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree):
    """A module's private module-level functions and classes, the private
    methods of its classes, and its nested defs.  Dunder names, such as a
    module's __getattr__, are hooks the interpreter calls, not private."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def private(d):
        return d.name.startswith("_") and not d.name.endswith("__")

    found = []
    for stmt in tree.body:
        if isinstance(stmt, (*functions, ast.ClassDef)) and private(stmt):
            found.append(stmt)
        if isinstance(stmt, ast.ClassDef):
            found += [m for m in stmt.body if isinstance(m, functions) and private(m)]
    for node in ast.walk(tree):
        if isinstance(node, functions):
            found += [d for d in ast.walk(node) if d is not node and isinstance(d, functions)]
    return found


def _names(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(sources):
    """(module, line, name) of each private or nested definition that no code
    of the package outside the definition itself refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, d.lineno, d.name)
        for module, tree in trees.items()
        for d in _private_definitions(tree)
        if everywhere[d.name] == _names(d)[d.name]
    )


def test_detects_unreferenced_definitions():
    source = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "class _C:\n"
        "    def __init__(self):\n        self._n()\n"
        "    def _m(self):\n        return 0\n"
        "    def _n(self):\n        return 0\n"
        "def f():\n"
        "    def inner():\n        return 1\n"
        "    def again(x):\n        return again(x)\n"
        "    return _C\n"
        "def __getattr__(name):\n    return name\n"
    )
    assert unreferenced_definitions({"m": source}) == [
        ("m", 3, "_dead"),
        ("m", 8, "_m"),
        ("m", 13, "inner"),
        ("m", 15, "again"),
    ]


def test_no_unreferenced_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == []


def _public_definitions(tree):
    """(name, statement) for each public module-level function, class and
    assigned name of a module."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, stmt) for name in names if not name.startswith("_")]
    return found


def _exported(tree):
    """(module, name) of each name that __init__.py exports: by a top-level
    ``from .x import`` line, or in its lazy export table ``_EXPORTS``, a
    literal dict from submodule to names."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            out |= {(f"{stmt.module}.py", alias.name) for alias in stmt.names}
        elif isinstance(stmt, ast.Assign) and "_EXPORTS" in [
            t.id for t in stmt.targets if isinstance(t, ast.Name)
        ]:
            table = ast.literal_eval(stmt.value)
            out |= {(f"{module}.py", name) for module, names in table.items() for name in names}
    return out


def unused_public_names(sources, users):
    """(module, line, name) of each public module-level name of the package
    that __init__.py does not export and that no code outside its own
    definition refers to, in the package or in the users' sources."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    exported = _exported(trees.get("__init__.py", ast.Module(body=[])))
    everywhere = sum(
        (_names(ast.parse(source)) for source in users.values()),
        sum((_names(tree) for tree in trees.values()), Counter()),
    )
    return sorted(
        (module, stmt.lineno, name)
        for module, tree in trees.items()
        if module != "__init__.py"
        for name, stmt in _public_definitions(tree)
        if (module, name) not in exported and everywhere[name] == _names(stmt)[name]
    )


def test_detects_unused_public_names():
    sources = {
        "__init__.py": "from .m import api\n",
        "m.py": (
            "LIMIT = 3\n"
            "TABLE = (1, 2)\n"
            "SCHEMA: dict = {}\n"
            "def api():\n    return helper() + LIMIT\n"
            "def helper():\n    return 0\n"
            "def orphan():\n    return orphan()\n"
            "class Dead:\n    pass\n"
        ),
    }
    users = {"test_m.py": "from m import SCHEMA\nassert SCHEMA == {}\n"}
    assert unused_public_names(sources, users) == [
        ("m.py", 2, "TABLE"),
        ("m.py", 8, "orphan"),
        ("m.py", 10, "Dead"),
    ]
    # the lazy export table exports what it lists, and only that
    sources["__init__.py"] = '_EXPORTS = {"m": ("api", "Dead")}\n'
    assert unused_public_names(sources, users) == [("m.py", 2, "TABLE"), ("m.py", 8, "orphan")]
    sources["__init__.py"] = '_EXPORTS = {"m": ("api",)}\n'
    assert unused_public_names(sources, users) == [
        ("m.py", 2, "TABLE"),
        ("m.py", 8, "orphan"),
        ("m.py", 10, "Dead"),
    ]


def test_no_unused_public_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    root = SRC.parent.parent
    users = {
        str(p): p.read_text(encoding="utf-8")
        for d in ("tests", "bench")
        for p in (root / d).glob("*.py")
    }
    assert unused_public_names(sources, users) == []


# the names the package exported before its exports became lazy, by submodule
EXPORTED = {
    "algebra": (
        "Congruence", "FiniteAlgebra", "TermFunction", "clone_functions",
        "congruence_closure_pairs", "direct_product", "evaluate_term", "find_isomorphism",
        "generated_subalgebra", "greatest_congruence_below", "is_congruence",
        "minimal_generating_set", "quotient_by_congruence", "term_table",
    ),
    "decide": (
        "DecisionReport", "atlas_equivalence", "atlas_inclusion", "has_theorems",
        "theorem_inclusion", "weak_equivalence",
    ),
    "eqlogic": (
        "BridgeResult", "CheckResult", "EDerivation", "Equality", "EqConsequenceResult", "Step",
        "SYSTEMS", "bridge_implicational", "check_e_derivation", "decide_ground_equational",
        "eq_consequence", "ground_closure", "parse_equality", "s_translate",
    ),
    "intprover": (
        "ProofTree", "Sequent", "check_proof", "expand_iff", "g3_prove", "glivenko_check",
        "int_leq", "int_ll", "int_relation", "int_sim", "provable", "rn_classify", "rn_power",
    ),
    "lang": (
        "App", "Const", "Formula", "ParseError", "Signature", "Substitution", "Var", "app",
        "conj", "const", "disj", "enumerate_formulas", "format_formula", "iff", "imp", "neg",
        "parse_formula", "subformulas", "var", "variables", "CLASSICAL_SIGNATURE",
        "INT_SIGNATURE",
    ),
    "limits": ("CapExceeded", "DEFAULT_CAPS", "ResourceCaps"),
    "lindenbaum": (
        "RepresentativeSet", "free_matrix_algebra", "indistinguishable", "representatives",
        "restricted_theorems",
    ),
    "matrices": (
        "Atlas", "ConsequenceResult", "Matrix", "PRESET_NAMES", "ValidityResult",
        "boolean_matrix", "combine_matrices", "consequence", "godel_chain",
        "greatest_compatible_congruence", "is_valid", "make_preset", "reduced_matrix",
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exports_resolve_to_their_submodules(module):
    import matlogic

    submodule = importlib.import_module(f"matlogic.{module}")
    for name in EXPORTED[module]:
        assert getattr(matlogic, name) is getattr(submodule, name), name
        assert name in matlogic.__all__ and name in dir(matlogic), name
    star: dict = {}
    exec("from matlogic import *", star)
    assert {n: star[n] for n in EXPORTED[module]} == {n: getattr(submodule, n) for n in EXPORTED[module]}


def undocumented_exports(sources, readme):
    """(module, name) of each name in __init__.py's export table that no code
    of the package outside the name's own definition refers to and that the
    readme does not name inside backticks."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    documented = {
        word
        for span in re.findall(r"`([^`\n]+)`", readme)
        for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)
    }
    defined = {
        (module, name): stmt
        for module, tree in trees.items()
        for name, stmt in _public_definitions(tree)
    }
    return sorted(
        (module, name)
        for module, name in _exported(trees["__init__.py"])
        if everywhere[name] == _names(defined[module, name])[name] and name not in documented
    )


def test_detects_undocumented_exports():
    sources = {
        "__init__.py": '_EXPORTS = {"m": ("api", "helper", "orphan", "Doc", "Named")}\n',
        "m.py": (
            "def api():\n    return helper()\n"
            "def helper():\n    return 0\n"
            "def orphan():\n    return orphan()\n"
            "class Doc:\n    pass\n"
            "class Named:\n    pass\n"
        ),
    }
    readme = "Call `m.Doc()` for a document; Named is named but not quoted.\n```\napi()\n```\n"
    assert undocumented_exports(sources, readme) == [
        ("m.py", "Named"),
        ("m.py", "api"),
        ("m.py", "orphan"),
    ]
    readme += "`api` and `orphan(x)` are library calls; so is `Named`.\n"
    assert undocumented_exports(sources, readme) == []


def test_every_export_is_used_or_documented():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert undocumented_exports(sources, readme) == []


def test_unknown_names_raise_attribute_error():
    import matlogic

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        matlogic.nope


def top_level_imports(source):
    """The modules that a module's top-level import statements name, outside
    any if, try or def: package modules by their bare name, others by their
    top-level package."""
    out = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Import):
            out |= {alias.name.split(".")[0] for alias in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.level:
            out |= {stmt.module} if stmt.module else {alias.name for alias in stmt.names}
        elif isinstance(stmt, ast.ImportFrom):
            out.add(stmt.module.split(".")[0])
    return out


def reached_imports(sources, module):
    """Every module that importing the package module runs an import of,
    following the package's own modules through their top-level imports."""
    reached, todo = set(), [module]
    while todo:
        for name in top_level_imports(sources[todo.pop()]):
            if name not in reached:
                reached.add(name)
                if name in sources:
                    todo.append(name)
    return reached


# the layers that import numpy, and the modules that must not reach them
MATRIX_LAYERS = {"numpy", "algebra", "matrices", "decide", "lindenbaum"}
SYMBOLIC = ("__init__", "lang", "limits", "intprover", "eqlogic", "cli")


def test_detects_reached_imports():
    sources = {
        "cli": "from . import eqlogic\nif X:\n    import numpy\ndef f():\n    from . import decide\n",
        "eqlogic": "import os.path\nfrom .lang import var\n",
        "lang": "from .algebra import _close\n",
        "algebra": "import numpy as np\n",
    }
    assert reached_imports(sources, "cli") == {"eqlogic", "os", "lang", "algebra", "numpy"}


@pytest.mark.parametrize("module", SYMBOLIC)
def test_symbolic_layers_import_no_matrix_layer(module):
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert reached_imports(sources, module) & MATRIX_LAYERS == set()


def _own_calls(definition, by_name):
    """The functions a definition calls in its own body, outside the defs and
    classes nested in it: f(...) resolves to every function named f, and
    self.f(...) to every function or method named f."""
    out = set()
    todo = list(ast.iter_child_nodes(definition))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out |= by_name[func.id]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id == "self":
                    out |= by_name[func.attr]
        todo.extend(ast.iter_child_nodes(node))
    return out


def call_cycles(source):
    """Qualified names of the functions, methods and nested defs of a module
    that lie on a cycle of its call graph, the graph built by name."""
    functions = {}
    todo = [(ast.parse(source), "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    functions[prefix + child.name] = child
                todo.append((child, f"{prefix}{child.name}."))
            else:
                todo.append((child, prefix))
    by_name = defaultdict(set)
    for qualified, definition in functions.items():
        by_name[definition.name].add(qualified)
    calls = {q: _own_calls(d, by_name) for q, d in functions.items()}
    cyclic = []
    for start, callees in calls.items():
        seen, todo = set(), list(callees)
        while todo:
            q = todo.pop()
            if q == start:
                cyclic.append(start)
                break
            if q not in seen:
                seen.add(q)
                todo.extend(calls[q])
    return sorted(cyclic)


def test_detects_call_cycles():
    source = (
        "class P:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        return self.c() or self.a()\n"
        "    def c(self):\n        return leaf()\n"
        "def leaf():\n    return 0\n"
        "def fmt(f):\n"
        "    def go(g):\n        return [go(x) for x in g]\n"
        "    return go(f)\n"
        "def walk(f):\n"
        "    stack = [f]\n"
        "    while stack:\n        stack.pop()\n"
        "    return leaf()\n"
    )
    assert call_cycles(source) == ["P.a", "P.b", "fmt.go"]


# the functions allowed to call themselves, by module
ALLOWED_CYCLES = {
    # calls the module's variables(), not itself: the graph is built by name
    "eqlogic.py": ["Equality.variables"],
}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_call_cycles(path):
    assert call_cycles(path.read_text(encoding="utf-8")) == ALLOWED_CYCLES.get(path.name, [])
