"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the library's vectorized evaluation:
they walk formulas recursively and loop over assignments with itertools,
so agreement between the two is meaningful.
"""

import copy
import itertools
import json
import re
from typing import Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import strategies as st

from matlogic import lang
from matlogic import (
    App,
    Atlas,
    Congruence,
    Const,
    FiniteAlgebra,
    Formula,
    Matrix,
    Signature,
    TermFunction,
    Var,
    app,
    const,
    term_table,
    var,
)
from matlogic.lang import (
    AND,
    CLASSICAL_SIGNATURE,
    IFF,
    IMP,
    NOT,
    OR,
    ParseError,
    _VAR_RE,
    _postorder,
)
from matlogic.cli import WorkspaceError, _expect, _segment
from matlogic.decide import DecisionReport, _cap_report, _scan_setup
from matlogic.limits import DEFAULT_CAPS, CapExceeded, ResourceCaps
from matlogic.matrices import _filter_mask, consequence

import numpy as np


@pytest.fixture
def forget_new_formulas():
    """Sweep the formulas a test interned and let go of, and the texts printed
    on them: a 3,000-deep chain of a binary connective keeps 20-40 MB of text."""
    yield
    lang.sweep()


def settled_pool_size() -> int:
    """The intern pool's size once a sweep has walked all of it, so that it
    holds only the applications something references."""
    lang._walked = 0  # so that the next sweep walks the whole pool
    lang.sweep()
    return len(lang._app_pool)


@pytest.fixture
def chain3_join() -> Matrix:
    # three-element chain with join and bottom constant, designated {1}
    sig = Signature.of({"∨": 2, "0": 0})
    alg = FiniteAlgebra(
        sig,
        ["0", "1/2", "1"],
        {"∨": np.maximum.outer(np.arange(3), np.arange(3)), "0": np.int64(0)},
    )
    return Matrix(alg, frozenset({2}))


@pytest.fixture
def chain3_arrow() -> Matrix:
    # three-element chain with the residuated arrow and bottom constant
    sig = Signature.of({"→": 2, "0": 0})
    idx = np.arange(3)
    imp = np.where(idx[:, None] <= idx[None, :], 2, idx[None, :] * np.ones((3, 3), int))
    alg = FiniteAlgebra(
        sig, ["0", "1/2", "1"], {"→": imp.astype(np.int64), "0": np.int64(0)}
    )
    return Matrix(alg, frozenset({2}))


def eval_slow(alg: FiniteAlgebra, f, assignment):
    """Recursive term evaluation, no numpy."""
    if isinstance(f, Var):
        return assignment[f.index]
    if isinstance(f, Const):
        return int(alg.table(f.name))
    val = alg.table(f.connective)
    for a in f.args:
        val = val[eval_slow(alg, a, assignment)]
    return int(val)


def all_assignments(alg, var_indices):
    for combo in itertools.product(range(alg.size), repeat=len(var_indices)):
        yield dict(zip(var_indices, combo))


def valid_slow(matrix, f) -> bool:
    from matlogic import variables

    return all(
        eval_slow(matrix.algebra, f, a) in matrix.designated
        for a in all_assignments(matrix.algebra, variables(f))
    )


def first_refuter_slow(atlas, premises, conclusion):
    """First (assignment, filter index), assignments in p1-major order, under
    which a filter holds every premise but not the conclusion; None if none."""
    from matlogic import variables

    vs = sorted({v for g in list(premises) + [conclusion] for v in variables(g)})
    for a in all_assignments(atlas.algebra, vs):
        for fi, d in enumerate(atlas.filters):
            if all(eval_slow(atlas.algebra, p, a) in d for p in premises) and (
                eval_slow(atlas.algebra, conclusion, a) not in d
            ):
                return tuple(sorted(a.items())), fi
    return None


def consequence_slow(atlas, premises, conclusion) -> bool:
    return first_refuter_slow(atlas, premises, conclusion) is None


def sliced_tables_slow(alg, formulas, var_order, slice_rows):
    """(start, formula values) per slice of the assignments to var_order: the
    full-column evaluator that support-shaped scans replaced.  Slices hold
    k**s rows, s the largest with k**s at most slice_rows; the last s
    variables have one column of k**s values, every other variable one value
    per slice, and every subformula is gathered at every row of every slice."""
    k, n = alg.size, len(var_order)
    s = max(e for e in range(n + 1) if k**e <= slice_rows)
    rows = k**s
    low = dict(zip(var_order[n - s :], np.indices((k,) * s, dtype=np.int64).reshape(s, rows)))
    high = [(v, k ** (n - s - pos)) for pos, v in enumerate(var_order[: n - s], start=1)]
    flat = {name: table.ravel() for name, table in alg.tables.items()}
    position, order = _postorder(formulas)
    for i in range(k ** (n - s)):
        columns = {**low, **{v: np.full(rows, i // weight % k) for v, weight in high}}
        values = []
        for g in order:
            if isinstance(g, App):
                j = values[position[g.args[0]]]
                for a in g.args[1:]:
                    j = j * k + values[position[a]]
                values.append(flat[g.connective].take(j))
            elif isinstance(g, Var):
                values.append(columns[g.index])
            else:
                values.append(np.full(rows, int(flat[g.name][0]), dtype=np.int64))
        yield i * rows, [values[position[f]] for f in formulas]


def eq_refuter_slow(mode, algebras, premises, goal):
    """(algebra index, assignment) of the first counterexample to an
    equational consequence in mode E or EL, or None."""
    def first_difference(alg, prem, g):
        vs = sorted({v for e in list(prem) + [g] for v in e.variables()})
        for a in all_assignments(alg, vs):
            holds = all(eval_slow(alg, e.lhs, a) == eval_slow(alg, e.rhs, a) for e in prem)
            if holds and eval_slow(alg, g.lhs, a) != eval_slow(alg, g.rhs, a):
                return tuple(sorted(a.items()))
        return None

    for ai, alg in enumerate(algebras):
        if mode == "E":
            found = first_difference(alg, premises, goal)
        elif all(first_difference(alg, [], e) is None for e in premises):
            found = first_difference(alg, [], goal)
        else:
            found = None
        if found is not None:
            return ai, found
    return None


def write_workspace(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def replaced(doc, path, value):
    """A copy of a JSON document with the node at path (keys and indices)
    replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


EX_TR_DOC = {
    "signature": {"connectives": [{"name": "∨", "arity": 2}, {"name": "0", "arity": 0}]},
    "algebras": {
        "A": {
            "elements": ["0", "1/2", "1"],
            "operations": {
                "∨": [["0", "1/2", "1"], ["1/2", "1/2", "1"], ["1", "1", "1"]],
                "0": "0",
            },
        }
    },
    "matrices": {"M": {"algebra": "A", "designated": ["1"]}},
}

EX_NONTR_DOC = {
    "signature": {"connectives": [{"name": "→", "arity": 2}, {"name": "0", "arity": 0}]},
    "algebras": {
        "A": {
            "elements": ["0", "1/2", "1"],
            "operations": {
                "→": [["1", "1", "1"], ["0", "1", "1"], ["0", "1/2", "1"]],
                "0": "0",
            },
        }
    },
    "matrices": {"M": {"algebra": "A", "designated": ["1"]}},
}


# an E1 derivation of p3 & p4 ~ p1 & p4 from its premises, using every E1 rule
DERIV_E1_DOC = {
    "system": "E1",
    "premises": ["p1 ~ p2", "p2 ~ p3"],
    "steps": [
        {"equality": "p1 ~ p2", "rule": "premise"},
        {"equality": "p2 ~ p3", "rule": "premise"},
        {"equality": "p1 ~ p3", "rule": "trans", "refs": [0, 1]},
        {"equality": "p3 ~ p1", "rule": "sym", "refs": [2]},
        {"equality": "p4 ~ p4", "rule": "axiom"},
        {"equality": "p3 & p4 ~ p1 & p4", "rule": "cong", "refs": [3, 4], "connective": "∧"},
    ],
}

# an E2s derivation with a simultaneous replacement and a substitution
DERIV_E2S_DOC = {
    "system": "E2s",
    "premises": ["p1 ~ p2", "p3 ~ p1"],
    "steps": [
        {"equality": "p1 ~ p2", "rule": "premise"},
        {"equality": "p3 ~ p1", "rule": "premise"},
        {"equality": "p1 & p3 ~ p1 & p3", "rule": "axiom"},
        {
            "equality": "p2 & p1 ~ p1 & p3",
            "rule": "replace",
            "refs": [2],
            "occurrences": [
                {"path": {"side": "l", "at": [0]}, "ref": 0},
                {"path": {"side": "l", "at": [1]}, "ref": 1},
            ],
        },
        {"equality": "p2 & p4 ~ p4 & p3", "rule": "subst", "refs": [3], "substitution": {"p1": "p4"}},
    ],
}


def parse_table_slow(raw, arity, elements, pointer):
    """A table of element names as an array of element indices, walked
    recursively: one call per table dimension, checking each node before its
    entries, left to right."""
    index = {e: i for i, e in enumerate(elements)}
    k = len(elements)

    def go(node, depth, ptr):
        if depth == 0:
            _expect(isinstance(node, str), ptr, "expected an element name")
            _expect(node in index, ptr, f"unknown element {node!r}")
            return index[node]
        _expect(isinstance(node, list), ptr, "expected an array")
        _expect(len(node) == k, ptr, f"row has {len(node)} entries, expected {k}")
        return [go(x, depth - 1, f"{ptr}/{i}") for i, x in enumerate(node)]

    return np.array(go(raw, arity, pointer), dtype=np.int64)


class WorkspaceSlow(NamedTuple):
    signature: Signature
    algebras: Dict[str, FiniteAlgebra]
    matrices: Dict[str, Matrix]
    atlases: Dict[str, Atlas]
    caps: ResourceCaps


def load_spec_slow(path: str) -> WorkspaceSlow:
    """cli.load_spec as it was before it kept parsed workspaces: the file read
    as text and validated and built in one pass, every algebra, matrix and
    atlas at once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise WorkspaceError("/", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise WorkspaceError("/", f"invalid JSON: {exc}")
    _expect(isinstance(doc, dict), "/", "top level must be an object")
    known = {"signature", "algebras", "matrices", "atlases", "options"}
    for key in doc:
        _expect(key in known, f"/{_segment(key)}", "unknown top-level key")

    def member(key):
        value = doc.get(key, {})
        _expect(type(value) is dict, f"/{key}", "expected an object")
        return value

    def element_set(raw, alg, pointer):
        _expect(isinstance(raw, list), pointer, "expected an array")
        idxs = set()
        for i, e in enumerate(raw):
            _expect(
                isinstance(e, str) and e in alg.elements,
                f"{pointer}/{i}",
                f"{e!r} is not a carrier element",
            )
            idxs.add(alg.element_index(e))
        return frozenset(idxs)

    sig_doc = doc.get("signature")
    _expect(isinstance(sig_doc, dict), "/signature", "missing or not an object")
    conns = sig_doc.get("connectives")
    _expect(isinstance(conns, list), "/signature/connectives", "missing or not an array")
    ops = {}
    for i, c in enumerate(conns):
        ptr = f"/signature/connectives/{i}"
        _expect(isinstance(c, dict), ptr, "expected an object")
        _expect(isinstance(c.get("name"), str), f"{ptr}/name", "expected a string")
        _expect(
            type(c.get("arity")) is int and c["arity"] >= 0,
            f"{ptr}/arity",
            "expected a nonnegative integer",
        )
        _expect(c["name"] not in ops, f"{ptr}/name", "duplicate connective")
        ops[c["name"]] = c["arity"]
    try:
        signature = Signature.of(ops)
    except ValueError as exc:
        raise WorkspaceError("/signature", str(exc))

    algebras = {}
    for name, adoc in member("algebras").items():
        ptr = f"/algebras/{_segment(name)}"
        _expect(isinstance(adoc, dict), ptr, "expected an object")
        elements = adoc.get("elements")
        _expect(
            isinstance(elements, list) and all(isinstance(e, str) for e in elements),
            f"{ptr}/elements",
            "expected an array of strings",
        )
        operations = adoc.get("operations")
        _expect(isinstance(operations, dict), f"{ptr}/operations", "expected an object")
        tables = {}
        for op_name, arity in signature.operations:
            op_ptr = f"{ptr}/operations/{_segment(op_name)}"
            _expect(op_name in operations, op_ptr, "missing operation table")
            tables[op_name] = parse_table_slow(operations[op_name], arity, elements, op_ptr)
        for op_name in operations:
            _expect(
                op_name in signature,
                f"{ptr}/operations/{_segment(op_name)}",
                "operation not in signature",
            )
        try:
            algebras[name] = FiniteAlgebra(signature, elements, tables)
        except ValueError as exc:
            raise WorkspaceError(ptr, str(exc))

    matrices = {}
    for name, mdoc in member("matrices").items():
        ptr = f"/matrices/{_segment(name)}"
        _expect(isinstance(mdoc, dict), ptr, "expected an object")
        aref = mdoc.get("algebra")
        _expect(
            isinstance(aref, str) and aref in algebras,
            f"{ptr}/algebra",
            f"unknown algebra {aref!r}",
        )
        alg = algebras[aref]
        matrices[name] = Matrix(alg, element_set(mdoc.get("designated"), alg, f"{ptr}/designated"))

    atlases = {}
    for name, adoc in member("atlases").items():
        ptr = f"/atlases/{_segment(name)}"
        _expect(isinstance(adoc, dict), ptr, "expected an object")
        aref = adoc.get("algebra")
        _expect(
            isinstance(aref, str) and aref in algebras,
            f"{ptr}/algebra",
            f"unknown algebra {aref!r}",
        )
        alg = algebras[aref]
        filters_doc = adoc.get("filters")
        _expect(
            isinstance(filters_doc, list) and filters_doc,
            f"{ptr}/filters",
            "expected a nonempty array",
        )
        fams = tuple(
            element_set(fdoc, alg, f"{ptr}/filters/{fi}") for fi, fdoc in enumerate(filters_doc)
        )
        atlases[name] = Atlas(alg, fams)

    opts = member("options")
    caps_kwargs = {}
    for key in ("max_clone", "max_tuples", "memo_limit"):
        if key in opts:
            _expect(
                type(opts[key]) is int and opts[key] > 0,
                f"/options/{_segment(key)}",
                "expected a positive integer",
            )
            caps_kwargs[key] = opts[key]
    for key in opts:
        _expect(
            key in ("max_clone", "max_tuples", "memo_limit"),
            f"/options/{_segment(key)}",
            "unknown option",
        )
    return WorkspaceSlow(signature, algebras, matrices, atlases, ResourceCaps(**caps_kwargs))


# one connective of each arity 0-3
ARITIES = {"c": 0, "u": 1, "b": 2, "t": 3}


@st.composite
def algebras(draw):
    """An algebra of 1-5 elements over a nonempty subset of ARITIES."""
    k = draw(st.integers(1, 5))
    names = draw(st.lists(st.sampled_from(sorted(ARITIES)), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sig = Signature.of({name: ARITIES[name] for name in names})
    tables = {
        name: rng.integers(0, k, size=(k,) * arity, dtype=np.int64)
        for name, arity in sig.operations
    }
    return FiniteAlgebra(sig, [f"e{i}" for i in range(k)], tables)


# ---------------------------------------------------------------------------
# congruence oracles: the loop nests the shared refinement and closure
# primitives replaced, kept as they were


def is_congruence_slow(alg, part) -> bool:
    """Exhaustive compatibility check of a partition with all operations."""
    k = alg.size
    if len(part.labels) != k:
        return False
    for name, arity in alg.signature.proper_connectives:
        table = alg.table(name)
        for left in itertools.product(range(k), repeat=arity):
            for right in itertools.product(range(k), repeat=arity):
                if all(part.related(a, b) for a, b in zip(left, right)):
                    if not part.related(int(table[left]), int(table[right])):
                        return False
    return True


def congruence_closure_pairs_slow(alg, pairs):
    """Least congruence of the algebra containing the given pairs."""
    k = alg.size
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    for a, b in pairs:
        union(int(a), int(b))

    # propagate: single-coordinate substitution suffices by transitivity
    changed = True
    while changed:
        changed = False
        for name, arity in alg.signature.proper_connectives:
            table = alg.table(name)
            for combo in itertools.product(range(k), repeat=arity):
                for pos in range(arity):
                    x = combo[pos]
                    for y in range(x + 1, k):
                        if find(x) != find(y):
                            continue
                        other = combo[:pos] + (y,) + combo[pos + 1 :]
                        if union(int(table[combo]), int(table[other])):
                            changed = True
    return Congruence.from_labels([find(e) for e in range(k)])


def greatest_congruence_below_slow(alg, part):
    """Greatest congruence refining the given partition.

    Iterated splitting: two elements stay together only if every
    one-coordinate substitution keeps their images in a common block.
    """
    k = alg.size
    labels = list(Congruence.from_labels(part.labels).labels)

    def compatible(a: int, b: int) -> bool:
        for name, arity in alg.signature.proper_connectives:
            table = alg.table(name)
            for pos in range(arity):
                for context in itertools.product(range(k), repeat=arity - 1):
                    ca = context[:pos] + (a,) + context[pos:]
                    cb = context[:pos] + (b,) + context[pos:]
                    if labels[int(table[ca])] != labels[int(table[cb])]:
                        return False
        return True

    changed = True
    while changed:
        changed = False
        new_labels = list(labels)
        next_label = max(labels) + 1
        for block in Congruence.from_labels(tuple(labels)).blocks():
            if len(block) < 2:
                continue
            anchor = block[0]
            moved = []
            for e in block[1:]:
                if not compatible(anchor, e):
                    moved.append(e)
            if moved:
                # split strictly: keep anchor-compatible elements together
                for e in moved:
                    new_labels[e] = next_label
                next_label += 1
                changed = True
        labels = list(Congruence.from_labels(tuple(new_labels)).labels)
    return Congruence.from_labels(tuple(labels))


class _UnionFindSlow:
    def __init__(self) -> None:
        self.parent = {}

    def add(self, t) -> None:
        self.parent.setdefault(t, t)

    def find(self, t):
        p = self.parent[t]
        while p is not self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[t] = p
        return p

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        self.parent[ra] = rb
        return True


def _head_slow(t):
    if isinstance(t, Var):
        return ("var", t.index)
    if isinstance(t, Const):
        return ("const", t.name)
    assert isinstance(t, App)
    return ("app", t.connective)


def ground_closure_slow(premises, extra_terms=()):
    """Congruence closure of the premises over all their subterms (plus any
    extra terms), with variables treated as opaque constants.  Returns the
    class index of every term in the universe."""
    universe = []
    seen = set()

    def collect(t) -> None:
        if t in seen:
            return
        seen.add(t)
        if isinstance(t, App):
            for a in t.args:
                collect(a)
        universe.append(t)

    for e in premises:
        collect(e.lhs)
        collect(e.rhs)
    for t in extra_terms:
        collect(t)

    uf = _UnionFindSlow()
    for t in universe:
        uf.add(t)

    pending = [(e.lhs, e.rhs) for e in premises]
    while pending:
        a, b = pending.pop()
        if uf.find(a) is uf.find(b):
            continue
        uf.union(a, b)
        # re-propagate: matching signatures force parent merges
        sig_table = {}
        for t in universe:
            if not isinstance(t, App):
                continue
            key = (_head_slow(t),) + tuple(uf.find(x) for x in t.args)
            other = sig_table.get(key)
            if other is None:
                sig_table[key] = t
            elif uf.find(other) is not uf.find(t):
                pending.append((other, t))

    labels = {}
    roots = {}
    for t in universe:
        r = uf.find(t)
        labels[t] = roots.setdefault(r, len(roots))
    return labels


# ---------------------------------------------------------------------------
# generation and quotient oracles: the subalgebra-building generating-set
# search and the itertools.product table loops, kept as they were


def generated_subalgebra_slow(alg, seed):
    """Generated element indices (ascending), witnesses in discovery order,
    and the subalgebra on those elements."""
    found = {}
    order = []

    def add(e: int, witness) -> bool:
        if e in found:
            return False
        found[e] = witness
        order.append(e)
        return True

    for i, e in enumerate(seed, start=1):
        add(int(e), var(i))
    for name in alg.signature.constants:
        add(int(alg.table(name)), const(name))

    changed = True
    while changed:
        changed = False
        snapshot = list(order)
        for name, arity in alg.signature.proper_connectives:
            table = alg.table(name)
            for combo in itertools.product(snapshot, repeat=arity):
                value = int(table[combo])
                if value not in found:
                    witness = app(name, tuple(found[e] for e in combo))
                    add(value, witness)
                    changed = True

    indices = tuple(sorted(order))
    position = {e: i for i, e in enumerate(indices)}
    sub_tables = {}
    for name, arity in alg.signature.operations:
        table = alg.table(name)
        shape = (len(indices),) * arity
        out = np.zeros(shape, dtype=np.int64)
        for combo in itertools.product(range(len(indices)), repeat=arity):
            value = int(table[tuple(indices[c] for c in combo)])
            if value not in position:
                raise ValueError("generated set not closed (internal error)")
            out[combo] = position[value]
        sub_tables[name] = out
    sub = FiniteAlgebra(alg.signature, [alg.elements[e] for e in indices], sub_tables)
    return indices, found, sub


def minimal_generating_set_slow(alg, max_size=None):
    """Smallest m with an m-element generating set (seeds in lexicographic
    order), plus the first such seed."""
    k = alg.size
    bound = k if max_size is None else min(max_size, k)
    start = 0 if alg.signature.constants else 1
    for m in range(start, bound + 1):
        for seed in itertools.combinations(range(k), m):
            indices, _, _ = generated_subalgebra_slow(alg, seed)
            if len(indices) == k:
                return m, seed
    raise ValueError(f"no generating set of size <= {bound}")


def representatives_by_enumeration(
    alg: FiniteAlgebra,
    n: int,
    max_depth: int = 32,
    max_count: int = 2_000_000,
) -> Tuple[Tuple[TermFunction, ...], int]:
    """Independent oracle for ``representatives``.

    Walks the canonical enumeration depth by depth, but builds each stratum
    only from previously selected representatives (replacing a subformula by
    an indistinguishable one never changes the class, so nothing is lost).
    Every table is computed through ``term_table`` on the formula itself,
    exercising a different code path than the vectorised closure.  Returns
    the entries and the first depth whose stratum added nothing new.
    """
    keys: List[Tuple[int, ...]] = []
    formulas: List[Formula] = []
    seen: Dict[Tuple[int, ...], int] = {}
    count = 0

    def add(f: Formula) -> bool:
        nonlocal count
        count += 1
        if count > max_count:
            raise CapExceeded("max_clone", max_count, "enumeration oracle")
        key = tuple(int(x) for x in term_table(alg, f, n))
        if key in seen:
            return False
        seen[key] = len(keys)
        keys.append(key)
        formulas.append(f)
        return True

    for i in range(1, n + 1):
        add(var(i))
    for name in alg.signature.constants:
        add(const(name))

    depth = 1
    while depth <= max_depth:
        base = len(formulas)
        added = False
        for name, arity in alg.signature.proper_connectives:
            for combo in itertools.product(range(base), repeat=arity):
                args = tuple(formulas[c] for c in combo)
                if not args or max(a.depth for a in args) != depth - 1:
                    continue
                if add(app(name, args)):
                    added = True
        if not added:
            return (
                tuple(TermFunction(n, k, f) for k, f in zip(keys, formulas)),
                depth,
            )
        depth += 1
    raise CapExceeded("max_clone", max_count, "enumeration oracle did not stabilise")


def quotient_by_congruence_slow(alg, cong):
    """Quotient algebra plus the projection (element index -> block index)."""
    if len(cong.labels) != alg.size:
        raise ValueError("partition size mismatch")
    if not is_congruence_slow(alg, cong):
        raise ValueError("partition is not a congruence")
    blocks = cong.blocks()
    names = ["{" + ",".join(alg.elements[e] for e in block) + "}" for block in blocks]
    tables = {}
    for name, arity in alg.signature.operations:
        table = alg.table(name)
        shape = (len(blocks),) * arity
        out = np.zeros(shape, dtype=np.int64)
        for combo in itertools.product(range(len(blocks)), repeat=arity):
            reps = tuple(blocks[c][0] for c in combo)
            out[combo] = cong.labels[int(table[reps])]
        tables[name] = out
    return FiniteAlgebra(alg.signature, names, tables), tuple(cong.labels)


# ---------------------------------------------------------------------------
# formula-language oracles: the tokenizer, the recursive-descent parser, the
# recursive printer and the equality splitter, kept as they were

_TOKEN_RE_SLOW = re.compile(r"<->|->|[()~&|,]|[^()~&|,<>\-=\s]+")


def tokenize_slow(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE_SLOW.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(0), pos))
        pos = m.end()
    return tokens


_SYMBOL_BINDINGS_SLOW = {"~": NOT, "&": AND, "|": OR, "->": IMP, "<->": IFF}
_INFIX_SLOW = {IFF: ("<->", 1), IMP: ("->", 2), OR: ("|", 3), AND: ("&", 4)}
_NEG_PREC_SLOW = 5


def format_formula_slow(f) -> str:
    def go(g, parent_prec: int) -> str:
        if isinstance(g, Var):
            return f"p{g.index}"
        if isinstance(g, Const):
            return g.name
        assert isinstance(g, App)
        name = g.connective
        if name == NOT and len(g.args) == 1:
            return "~" + go(g.args[0], _NEG_PREC_SLOW)
        entry = _INFIX_SLOW.get(name)
        if entry is not None and len(g.args) == 2:
            symbol, prec = entry
            if name in (IMP, IFF):  # right associative
                left = go(g.args[0], prec + 1)
                right = go(g.args[1], prec)
            else:  # left associative
                left = go(g.args[0], prec)
                right = go(g.args[1], prec + 1)
            text = f"{left} {symbol} {right}"
            if prec < parent_prec:
                text = f"({text})"
            return text
        return f"{name}({', '.join(go(a, 0) for a in g.args)})"

    return go(f, 0)


class ParserSlow:
    def __init__(self, tokens, signature, length: int):
        self.tokens = tokens
        self.sig = signature
        self.i = 0
        self.length = length

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def parse_formula(self):
        return self.parse_iff()

    def parse_iff(self):
        left = self.parse_imp()
        if self.peek() == "<->":
            self.i += 1
            name = _SYMBOL_BINDINGS_SLOW["<->"]
            if name not in self.sig:
                raise ParseError(f"operator '<->' has no connective {name!r} in signature", self.pos())
            right = self.parse_iff()
            return app(name, (left, right))
        return left

    def parse_imp(self):
        left = self.parse_or()
        if self.peek() == "->":
            self.i += 1
            name = _SYMBOL_BINDINGS_SLOW["->"]
            if name not in self.sig:
                raise ParseError(f"operator '->' has no connective {name!r} in signature", self.pos())
            right = self.parse_imp()  # right associative
            return app(name, (left, right))
        return left

    def parse_or(self):
        out = self.parse_and()
        while self.peek() == "|":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS_SLOW["|"]
            if name not in self.sig:
                raise ParseError(f"operator '|' has no connective {name!r} in signature", pos)
            out = app(name, (out, self.parse_and()))
        return out

    def parse_and(self):
        out = self.parse_unary()
        while self.peek() == "&":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS_SLOW["&"]
            if name not in self.sig:
                raise ParseError(f"operator '&' has no connective {name!r} in signature", pos)
            out = app(name, (out, self.parse_unary()))
        return out

    def parse_unary(self):
        if self.peek() == "~":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS_SLOW["~"]
            if name not in self.sig:
                raise ParseError(f"operator '~' has no connective {name!r} in signature", pos)
            return app(name, (self.parse_unary(),))
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        pos = self.pos()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok == "(":
            self.i += 1
            out = self.parse_formula()
            self.expect(")")
            return out
        if tok in ("", ")", ","):
            raise ParseError(f"unexpected token {tok!r}", pos)
        self.i += 1
        m = _VAR_RE.match(tok)
        if m:
            return var(int(m.group(1)))
        if tok in self.sig:
            arity = self.sig.arity(tok)
            if arity == 0:
                return const(tok)
            self.expect("(")
            args = [self.parse_formula()]
            while self.peek() == ",":
                self.i += 1
                args.append(self.parse_formula())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"connective {tok!r} expects {arity} arguments, got {len(args)}", pos
                )
            return app(tok, tuple(args))
        raise ParseError(f"unknown symbol {tok!r}", pos)


def parse_formula_slow(text: str, signature=CLASSICAL_SIGNATURE):
    tokens = tokenize_slow(text)
    parser = ParserSlow(tokens, signature, len(text))
    out = parser.parse_formula()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek()!r}", parser.pos())
    return out


def parse_equality_slow(text: str, signature):
    """(lhs, rhs) of ``term ~ term``, split at the first top-level ``~``
    that leaves two well-formed terms."""
    tokens = tokenize_slow(text)
    depth = 0
    last_error = None
    for i, (tok, _pos) in enumerate(tokens):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif tok == "~" and depth == 0 and i > 0:
            try:
                left = ParserSlow(tokens[:i], signature, len(text))
                lhs = left.parse_formula()
                if left.peek() is not None:
                    raise ParseError("trailing input on left of '~'", left.pos())
                right = ParserSlow(tokens[i + 1 :], signature, len(text))
                rhs = right.parse_formula()
                if right.peek() is not None:
                    raise ParseError("trailing input on right of '~'", right.pos())
                return lhs, rhs
            except ParseError as exc:
                last_error = exc
    if last_error is not None:
        raise last_error
    raise ParseError("no top-level '~' separator found", 0)


# ---------------------------------------------------------------------------
# atlas inclusion oracle: the big-integer bitmask scan that the boolean
# closure of theories replaced, reading the representatives' tables directly


def _column_masks_slow(member):
    """member is a bool matrix (representatives x assignments); returns one
    integer per column with bit r set when representative r is in."""
    packed = np.packbits(member.astype(np.uint8), axis=0, bitorder="little")
    return [
        int.from_bytes(packed[:, col].tobytes(), "little")
        for col in range(member.shape[1])
    ]


def atlas_inclusion_slow(a1, a2, caps=DEFAULT_CAPS, m=None):
    """decide.atlas_inclusion as a scan of candidate entailments between
    representative sets, each set a Python integer bitmask."""
    question = "atlas-inclusion"
    if a1.algebra.signature != a2.algebra.signature:
        raise ValueError("atlases must share a signature")
    try:
        common, fam1, fam2, reps, stats = _scan_setup(a1, a2, caps, m, "m")
        size = stats["m"]
        R = len(reps)
        if not R:
            return DecisionReport(question, "yes", None, stats)
        k = common.size
        tuples = k**size
        caps.check_tuples(tuples)
        stacked = np.stack([np.asarray(tf.table, dtype=np.int64) for tf in reps])

        def family_masks(filters):
            # assignment-major, filter-minor ordering
            cols = [_column_masks_slow(_filter_mask(d, k)[stacked]) for d in filters]
            return [cols[fi][a] for a in range(tuples) for fi in range(len(filters))]

        masks1 = family_masks(fam1)
        masks2 = family_masks(fam2)
        full = (1 << R) - 1

        def entails_side1(xmask, r0):
            for m1 in masks1:
                if xmask & ~m1 == 0 and not (m1 >> r0) & 1:
                    return False
            return True

        for t_mask in masks2:
            if t_mask == full:
                continue
            entailed = full
            for m1 in masks1:
                if t_mask & ~m1 == 0:
                    entailed &= m1
                    if entailed == t_mask:
                        break
            violations = entailed & ~t_mask
            if not violations:
                continue
            r0 = (violations & -violations).bit_length() - 1
            premise_ids = [r for r in range(R) if (t_mask >> r) & 1]
            xmask = t_mask
            for p in premise_ids:
                trial = xmask & ~(1 << p)
                if entails_side1(trial, r0):
                    xmask = trial
            chosen = [reps[r].witness for r in range(R) if (xmask >> r) & 1]
            concl = reps[r0].witness
            keep = consequence(a1, chosen, concl, caps)
            drop = consequence(a2, chosen, concl, caps)
            if not keep.holds or drop.holds:
                raise AssertionError("counterexample sequent failed re-validation")
            stats["separating_assignment"] = drop.assignment
            stats["separating_filter"] = drop.filter_index
            return DecisionReport(question, "no", (tuple(chosen), concl), stats)
        return DecisionReport(question, "yes", None, stats)
    except CapExceeded as exc:
        return _cap_report(question, exc, m=m)


# ---------------------------------------------------------------------------
# proof-search oracle: the loop-checked prover as it was, sorting each
# antecedent by depth and printed text at every step.  A sequent is an
# (antecedent, succedent) pair and a proof a (rule, sequent, premises,
# principal) tuple.


def _ordered_slow(s):
    return sorted(s, key=lambda f: (f.depth, str(f)))


def _is_slow(f, name) -> bool:
    return isinstance(f, App) and f.connective == name


class ProverSlow:
    def __init__(self, caps=DEFAULT_CAPS):
        self.caps = caps
        self.success = {}
        self.failure = {}

    def _note(self) -> None:
        self.caps.check_memo(len(self.success) + len(self.failure))

    def prove(self, seq, path=frozenset()):
        cached = self.success.get(seq)
        if cached is not None:
            return cached, True
        if seq in self.failure:
            return None, True
        if seq in path:
            return None, False
        ant, suc = seq

        if suc is not None and suc in ant:
            return self._won(seq, ("axiom", seq, (), suc))

        path = path | {seq}

        for f in _ordered_slow(ant):
            if _is_slow(f, AND):
                a, b = f.args
                for piece in (a, b):
                    if piece not in ant:
                        sub, clean = self.prove((ant | {piece}, suc), path)
                        if sub is None:
                            return self._lost(seq, clean)
                        return self._won(seq, ("∧-2", seq, (sub,), f))
            elif _is_slow(f, OR):
                a, b = f.args
                if a not in ant and b not in ant:
                    left, cl = self.prove((ant | {a}, suc), path)
                    if left is None:
                        return self._lost(seq, cl)
                    right, cr = self.prove((ant | {b}, suc), path)
                    if right is None:
                        return self._lost(seq, cr)
                    return self._won(seq, ("∨-2", seq, (left, right), f))

        if suc is not None and _is_slow(suc, IMP):
            a, b = suc.args
            sub, clean = self.prove((ant | {a}, b), path)
            if sub is None:
                return self._lost(seq, clean)
            return self._won(seq, ("→-1", seq, (sub,), suc))
        if suc is not None and _is_slow(suc, NOT):
            (a,) = suc.args
            sub, clean = self.prove((ant | {a}, None), path)
            if sub is None:
                return self._lost(seq, clean)
            return self._won(seq, ("¬-1", seq, (sub,), suc))
        if suc is not None and _is_slow(suc, AND):
            a, b = suc.args
            left, cl = self.prove((ant, a), path)
            if left is None:
                return self._lost(seq, cl)
            right, cr = self.prove((ant, b), path)
            if right is None:
                return self._lost(seq, cr)
            return self._won(seq, ("∧-1", seq, (left, right), suc))

        all_clean = True
        if suc is not None and _is_slow(suc, OR):
            for piece in suc.args:
                sub, clean = self.prove((ant, piece), path)
                if sub is not None:
                    return self._won(seq, ("∨-1", seq, (sub,), suc))
                all_clean &= clean
        for f in _ordered_slow(ant):
            if _is_slow(f, IMP):
                a, b = f.args
                if b in ant:
                    continue
                first, c1 = self.prove((ant, a), path)
                if first is None:
                    all_clean &= c1
                    continue
                second, c2 = self.prove((ant | {b}, suc), path)
                if second is None:
                    all_clean &= c2
                    continue
                return self._won(seq, ("→-2", seq, (first, second), f))
            elif _is_slow(f, NOT):
                (a,) = f.args
                if suc == a:
                    continue
                sub, clean = self.prove((ant, a), path)
                if sub is not None:
                    return self._won(seq, ("¬-2", seq, (sub,), f))
                all_clean &= clean
        return self._lost(seq, all_clean)

    def _won(self, seq, tree):
        self.success[seq] = tree
        self._note()
        return tree, True

    def _lost(self, seq, clean):
        if clean:
            self.failure[seq] = True
            self._note()
        return None, clean


# ---------------------------------------------------------------------------
# ladder-class oracle: classification by proof search, one provability test
# and then one interprovability test per ladder index


def rn_classify_slow(f, max_index=24, caps=DEFAULT_CAPS):
    from matlogic.intprover import _ladder, int_sim, provable
    from matlogic.lang import Substitution, variables

    vs = variables(f)
    if len(vs) > 1:
        raise ValueError("classification needs a formula in at most one variable")
    if vs and vs[0] != 1:
        f = Substitution.of({vs[0]: var(1)}).apply(f)
    if provable(f, caps):
        return "omega"
    for k, g in zip(range(max_index + 1), _ladder(var(1))):
        if int_sim(f, g, caps):
            return k
    return None


# ---------------------------------------------------------------------------
# formula-walk oracles: the variable collector and the prover's language
# check as they were, visiting a shared subformula once per occurrence

_ALLOWED_SLOW = {NOT: 1, AND: 2, OR: 2, IMP: 2}


def variables_slow(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.index)
        elif isinstance(g, App):
            stack.extend(g.args)
    return tuple(sorted(out))


def check_language_slow(f) -> None:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Const):
            raise ValueError(f"constant {g.name!r} not supported by the prover")
        if isinstance(g, App):
            if _ALLOWED_SLOW.get(g.connective) != len(g.args):
                raise ValueError(
                    f"connective {g.connective!r}/{len(g.args)} not supported by the prover"
                )
            stack.extend(g.args)
