"""Finite algebras and term-function machinery.

An algebra interprets every signature symbol by a finite operation table.
Term functions over n variables are tabulated flat, one entry per
assignment tuple; assignments are ordered lexicographically with p1 as
the most significant digit.  The clone closure discovers term functions
breadth first by witness depth, which makes the attached witness of each
function the first formula in canonical enumeration order that realises
its table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .lang import (
    App,
    Formula,
    Signature,
    Var,
    app,
    const,
    var,
)
from .limits import DEFAULT_CAPS, CapExceeded, ResourceCaps


class FiniteAlgebra:
    """Finite algebra: named elements plus one table per signature symbol.

    Tables are integer ndarrays of shape ``(k,) * arity`` holding element
    indices; a constant's table is a scalar array.
    """

    __slots__ = ("signature", "elements", "tables", "_index")

    def __init__(
        self,
        signature: Signature,
        elements: Sequence[str],
        tables: Mapping[str, np.ndarray],
    ) -> None:
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element names")
        if not elements:
            raise ValueError("empty carrier")
        self.signature = signature
        self.elements = tuple(elements)
        k = len(self.elements)
        fixed: Dict[str, np.ndarray] = {}
        for name, arity in signature.operations:
            if name not in tables:
                raise ValueError(f"missing table for {name!r}")
            t = np.asarray(tables[name], dtype=np.int64)
            if t.shape != (k,) * arity:
                raise ValueError(
                    f"table for {name!r} has shape {t.shape}, expected {(k,) * arity}"
                )
            if t.size and (t.min() < 0 or t.max() >= k):
                raise ValueError(f"table for {name!r} has out-of-range entries")
            t.setflags(write=False)
            fixed[name] = t
        extra = set(tables) - {name for name, _ in signature.operations}
        if extra:
            raise ValueError(f"tables for unknown symbols {sorted(extra)}")
        self.tables = fixed
        self._index = {name: i for i, name in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def table(self, name: str) -> np.ndarray:
        return self.tables[name]

    def element_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown element {name!r}") from None

    def same_tables(self, other: "FiniteAlgebra") -> bool:
        if self.signature != other.signature or self.elements != other.elements:
            return False
        return all(np.array_equal(self.tables[n], other.tables[n]) for n in self.tables)

    def __repr__(self) -> str:
        return f"FiniteAlgebra({len(self.elements)} elements, {len(self.tables)} operations)"


# ---------------------------------------------------------------------------
# term evaluation
#
# A flat table holds a formula's value under each of the k**n assignments to
# a variable order, listed lexicographically with the first variable most
# significant.  ``_formula_tables`` is the one evaluator; everything that
# needs formula values goes through it.


class _Unbound(KeyError):
    """Raised for the leftmost variable of a formula that has no column."""

    def __init__(self, index: int) -> None:
        super().__init__(f"assignment missing variable p{index}")
        self.index = index


def _lex_columns(k: int, var_order: Sequence[int]) -> Dict[int, np.ndarray]:
    """Value of each variable in each of the k**n assignments to var_order."""
    n = len(var_order)
    idx = np.arange(k**n, dtype=np.int64)
    return {v: (idx // k ** (n - pos)) % k for pos, v in enumerate(var_order, start=1)}


def _assignment_at(
    flat: int, var_order: Sequence[int], k: int
) -> Tuple[Tuple[int, int], ...]:
    """The assignment at a flat table index, as sorted (variable, element) pairs."""
    n = len(var_order)
    pairs = ((v, (flat // k ** (n - pos)) % k) for pos, v in enumerate(var_order, start=1))
    return tuple(sorted(pairs))


def _formula_tables(
    alg: FiniteAlgebra,
    formulas: Sequence[Formula],
    columns: Mapping[int, np.ndarray],
    size: int,
) -> List[np.ndarray]:
    """Value tables of the formulas, given each variable's column of length size.

    The distinct subformulas are first listed without recursion, each after
    its arguments, in the order a left-to-right recursive walk finishes them;
    one loop then evaluates the list.  Nesting depth is therefore unbounded,
    the first unbound variable met is the leftmost one, and the values, shared
    by all the formulas, are freed on return.
    """
    position: Dict[Formula, int] = {}
    order: List[Formula] = []
    for f in formulas:
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if g in position:
                continue
            if expanded or not isinstance(g, App):
                position[g] = len(order)
                order.append(g)
            else:
                stack.append((g, True))
                stack.extend((a, False) for a in reversed(g.args))
    values: List[np.ndarray] = []
    for g in order:
        if isinstance(g, App):
            args = tuple(values[position[a]] for a in g.args)
            values.append(alg.tables[g.connective][args])
        elif isinstance(g, Var):
            if g.index not in columns:
                raise _Unbound(g.index)
            values.append(columns[g.index])
        else:
            values.append(np.full(size, int(alg.tables[g.name]), dtype=np.int64))
    return [values[position[f]] for f in formulas]


def evaluate_term(alg: FiniteAlgebra, f: Formula, assignment: Mapping[int, int]) -> int:
    """Value of f under an assignment of element indices to variable indices."""
    columns = {v: np.array([e], dtype=np.int64) for v, e in assignment.items()}
    (table,) = _formula_tables(alg, [f], columns, 1)
    return int(table[0])


def term_table(alg: FiniteAlgebra, f: Formula, n: int) -> np.ndarray:
    """Flat table of f as an n-ary term function (all variables must be <= pn)."""
    columns = _lex_columns(alg.size, range(1, n + 1))
    try:
        (table,) = _formula_tables(alg, [f], columns, alg.size**n)
    except _Unbound as exc:
        raise ValueError(f"variable p{exc.index} exceeds arity {n}") from None
    return np.array(table, dtype=np.int64)


@dataclass(frozen=True)
class TermFunction:
    """An n-ary term function over an algebra: flat table plus a witness
    formula of minimal canonical-enumeration position realising it."""

    arity: int
    table: Tuple[int, ...]
    witness: Formula

    def values(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)


# ---------------------------------------------------------------------------
# clone closure


def _closure_rounds(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps
) -> List[Tuple[np.ndarray, Formula]]:
    """Discovery-ordered list of (flat table, witness) for the n-ary clone.

    Round d adds exactly the functions whose minimal witness has depth d;
    candidates combine earlier-round entries, at least one from round d-1,
    scanning connectives in name order and argument tuples lexicographically
    by discovery position.
    """
    k = alg.size
    size = k**n
    caps.check_tuples(size)
    entries: List[Tuple[np.ndarray, Formula]] = []
    seen: set = set()
    # dedup keys: base-k packing when it fits a machine word, raw bytes otherwise
    fits_word = size * math.log2(max(k, 2)) < 62
    powers = (
        (k ** np.arange(size - 1, -1, -1, dtype=np.int64)) if fits_word else None
    )

    def pack(table: np.ndarray):
        if fits_word:
            return int(table @ powers)
        return table.tobytes()

    def add(table: np.ndarray, witness: Formula) -> bool:
        key = pack(table)
        if key in seen:
            return False
        seen.add(key)
        entries.append((table, witness))
        caps.check_clone(len(entries))
        return True

    seeds = [var(i) for i in range(1, n + 1)] + [const(c) for c in alg.signature.constants]
    columns = _lex_columns(k, range(1, n + 1))
    for witness, table in zip(seeds, _formula_tables(alg, seeds, columns, size)):
        add(np.ascontiguousarray(table), witness)

    round_start = 0
    while True:
        boundary = len(entries)
        if round_start == boundary:
            break
        frontier_lo = round_start
        tabs = [t for t, _ in entries[:boundary]]
        found_any = False
        for name, arity in alg.signature.proper_connectives:
            table = alg.table(name)
            if arity == 1:
                for i in range(frontier_lo, boundary):
                    if add(table[tabs[i]], app(name, (entries[i][1],))):
                        found_any = True
            elif arity == 2:
                stacked = np.stack(tabs) if tabs else None
                for i1 in range(boundary):
                    lo = 0 if i1 >= frontier_lo else frontier_lo
                    if lo >= boundary:
                        continue
                    block = table[tabs[i1][None, :], stacked[lo:boundary]]
                    if fits_word:
                        keys = list((block @ powers).tolist())
                    else:
                        keys = [block[off].tobytes() for off in range(block.shape[0])]
                    for off in range(boundary - lo):
                        key = keys[off]
                        if key in seen:
                            continue
                        i2 = lo + off
                        seen.add(key)
                        entries.append(
                            (
                                np.ascontiguousarray(block[off]),
                                app(name, (entries[i1][1], entries[i2][1])),
                            )
                        )
                        caps.check_clone(len(entries))
                        found_any = True
            else:
                for combo in itertools.product(range(boundary), repeat=arity):
                    if max(combo) < frontier_lo:
                        continue
                    args = tuple(tabs[i] for i in combo)
                    witness = app(name, tuple(entries[i][1] for i in combo))
                    if add(table[args], witness):
                        found_any = True
        if not found_any:
            break
        round_start = boundary
    return entries


def clone_discovery_order(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> List[TermFunction]:
    """n-ary clone in witness discovery order (canonical enumeration order)."""
    return [
        TermFunction(n, tuple(int(x) for x in table), witness)
        for table, witness in _closure_rounds(alg, n, caps)
    ]


def clone_functions(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> List[TermFunction]:
    """n-ary clone, canonically ordered by table contents."""
    return sorted(clone_discovery_order(alg, n, caps), key=lambda tf: tf.table)


# ---------------------------------------------------------------------------
# subalgebras and generation


def generated_subalgebra(
    alg: FiniteAlgebra, seed: Sequence[int]
) -> Tuple[Tuple[int, ...], Dict[int, Formula], "FiniteAlgebra"]:
    """Subuniverse generated by the seed elements.

    Returns the generated element indices in discovery order, a witness term
    for each (over p1..pm naming the seed in order, plus constants), and the
    subalgebra on those elements.
    """
    found: Dict[int, Formula] = {}
    order: List[int] = []

    def add(e: int, witness: Formula) -> bool:
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
    sub_tables: Dict[str, np.ndarray] = {}
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


def minimal_generating_set(
    alg: FiniteAlgebra, max_size: Optional[int] = None
) -> Tuple[int, Tuple[int, ...]]:
    """Smallest m with a verified m-element generating set, plus one such set.

    Seeds are scanned in lexicographic element-index order, so the result is
    deterministic.  The full carrier always generates, so this terminates.
    """
    k = alg.size
    bound = k if max_size is None else min(max_size, k)
    start = 0 if alg.signature.constants else 1
    for m in range(start, bound + 1):
        for seed in itertools.combinations(range(k), m):
            indices, _, _ = generated_subalgebra(alg, seed)
            if len(indices) == k:
                return m, seed
    raise ValueError(f"no generating set of size <= {bound}")


def generates_carrier(alg: FiniteAlgebra, seed: Sequence[int]) -> bool:
    if not seed and not alg.signature.constants:
        return alg.size == 0
    indices, _, _ = generated_subalgebra(alg, seed)
    return len(indices) == alg.size


# ---------------------------------------------------------------------------
# products


def direct_product(a1: FiniteAlgebra, a2: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; element (i, j) maps to index i * |A2| + j."""
    if a1.signature != a2.signature:
        raise ValueError("product requires a common signature")
    k1, k2 = a1.size, a2.size
    elements = [f"({e1},{e2})" for e1 in a1.elements for e2 in a2.elements]
    tables: Dict[str, np.ndarray] = {}
    for name, arity in a1.signature.operations:
        t1, t2 = a1.table(name), a2.table(name)
        if arity == 0:
            tables[name] = np.array(int(t1) * k2 + int(t2), dtype=np.int64)
            continue
        grids = np.indices((k1 * k2,) * arity)
        left = tuple(g // k2 for g in grids)
        right = tuple(g % k2 for g in grids)
        tables[name] = t1[left] * k2 + t2[right]
    return FiniteAlgebra(a1.signature, elements, tables)


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class Congruence:
    """Partition of the carrier given by normalised block labels: labels are
    assigned by first occurrence, so equal partitions compare equal."""

    labels: Tuple[int, ...]

    @staticmethod
    def from_labels(raw: Sequence[int]) -> "Congruence":
        remap: Dict[int, int] = {}
        out = []
        for x in raw:
            if x not in remap:
                remap[x] = len(remap)
            out.append(remap[x])
        return Congruence(tuple(out))

    @property
    def block_count(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def blocks(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.block_count)]
        for e, b in enumerate(self.labels):
            out[b].append(e)
        return out

    def related(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]


def identity_congruence(k: int) -> Congruence:
    return Congruence(tuple(range(k)))


def is_congruence(alg: FiniteAlgebra, part: Congruence) -> bool:
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


def congruence_closure_pairs(
    alg: FiniteAlgebra, pairs: Iterable[Tuple[int, int]]
) -> Congruence:
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


def greatest_congruence_below(alg: FiniteAlgebra, part: Congruence) -> Congruence:
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


def quotient_by_congruence(
    alg: FiniteAlgebra, cong: Congruence
) -> Tuple[FiniteAlgebra, Tuple[int, ...]]:
    """Quotient algebra plus the projection (element index -> block index)."""
    if len(cong.labels) != alg.size:
        raise ValueError("partition size mismatch")
    if not is_congruence(alg, cong):
        raise ValueError("partition is not a congruence")
    blocks = cong.blocks()
    names = ["{" + ",".join(alg.elements[e] for e in block) + "}" for block in blocks]
    tables: Dict[str, np.ndarray] = {}
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
# isomorphism


def find_isomorphism(
    a1: FiniteAlgebra,
    a2: FiniteAlgebra,
    designated1: Optional[frozenset] = None,
    designated2: Optional[frozenset] = None,
) -> Optional[Tuple[int, ...]]:
    """Backtracking search for an isomorphism a1 -> a2 (optionally matching
    designated sets).  Returns the image tuple, or None."""
    if a1.signature != a2.signature or a1.size != a2.size:
        return None
    if (designated1 is None) != (designated2 is None):
        raise ValueError("designated sets must be given for both algebras or neither")
    if designated1 is not None and len(designated1) != len(designated2 or frozenset()):
        return None
    k = a1.size
    ops = a1.signature.operations

    # constants pin their own images
    image: List[Optional[int]] = [None] * k
    used = [False] * k
    for name, arity in ops:
        if arity == 0:
            e1, e2 = int(a1.table(name)), int(a2.table(name))
            if image[e1] is not None and image[e1] != e2:
                return None
            if image[e1] is None:
                if used[e2]:
                    return None
                image[e1] = e2
                used[e2] = True

    def consistent(e: int) -> bool:
        if designated1 is not None:
            assert designated2 is not None
            if (e in designated1) != (image[e] in designated2):
                return False
        for name, arity in ops:
            if arity == 0:
                continue
            t1, t2 = a1.table(name), a2.table(name)
            assigned = [x for x in range(k) if image[x] is not None]
            for combo in itertools.product(assigned, repeat=arity):
                if e not in combo:
                    continue
                out = int(t1[combo])
                if image[out] is None:
                    continue
                mapped = tuple(image[c] for c in combo)
                if int(t2[mapped]) != image[out]:
                    return False
        return True

    def backtrack(e: int) -> bool:
        if e == k:
            # final full check including outputs not previously pinned
            for name, arity in ops:
                if arity == 0:
                    continue
                t1, t2 = a1.table(name), a2.table(name)
                for combo in itertools.product(range(k), repeat=arity):
                    mapped = tuple(image[c] for c in combo)  # type: ignore[misc]
                    if image[int(t1[combo])] != int(t2[mapped]):
                        return False
            return True
        if image[e] is not None:
            return backtrack(e + 1)
        for target in range(k):
            if used[target]:
                continue
            image[e] = target
            used[target] = True
            if consistent(e) and backtrack(e + 1):
                return True
            image[e] = None
            used[target] = False
        return False

    if backtrack(0):
        return tuple(int(x) for x in image)  # type: ignore[arg-type]
    return None
