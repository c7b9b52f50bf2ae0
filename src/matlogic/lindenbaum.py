"""Indistinguishability over an algebra and restricted Lindenbaum structures.

Two formulas in variables p1..pn are indistinguishable over an algebra when
they induce the same n-ary term function.  The classes of this relation are
finitely many, and each class is represented by its first formula in
canonical enumeration order.  The worker here is the clone closure from the
algebra module; a direct formula-enumeration procedure with depth
stabilisation is kept as an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import (
    FiniteAlgebra,
    TermFunction,
    _operations_on,
    clone_discovery_order,
    term_table,
)
from .lang import Formula
from .limits import DEFAULT_CAPS, CapExceeded, ResourceCaps
from .matrices import Matrix


def indistinguishable(alg: FiniteAlgebra, f: Formula, g: Formula, n: int) -> bool:
    """Same induced n-ary term function (variables must lie within p1..pn)."""
    return bool(np.array_equal(term_table(alg, f, n), term_table(alg, g, n)))


@dataclass(frozen=True)
class RepresentativeSet:
    """Complete set of representatives of the indistinguishability classes of
    n-variable formulas over an algebra, in canonical enumeration order."""

    algebra: FiniteAlgebra
    n: int
    entries: Tuple[TermFunction, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def witnesses(self) -> Tuple[Formula, ...]:
        return tuple(tf.witness for tf in self.entries)

    def class_of(self, f: Formula) -> Optional[int]:
        """Index of the entry indistinguishable from f, if any variables fit."""
        key = tuple(int(x) for x in term_table(self.algebra, f, self.n))
        for i, tf in enumerate(self.entries):
            if tf.table == key:
                return i
        return None


def representatives(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> RepresentativeSet:
    return RepresentativeSet(alg, n, tuple(clone_discovery_order(alg, n, caps)))


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
    import itertools

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

    from .lang import app, const, var

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


def restricted_theorems(
    m: Matrix, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> Tuple[TermFunction, ...]:
    """Representatives whose term function lands in the designated set
    everywhere: the n-variable theorems of the matrix, up to
    indistinguishability."""
    reps = representatives(m.algebra, n, caps).entries
    return tuple(tf for tf in reps if m.designated.issuperset(tf.table))


def _free_elements(alg: FiniteAlgebra, n: int, caps: ResourceCaps) -> RepresentativeSet:
    """The representatives, which are the free algebra's elements; there must be one."""
    reps = representatives(alg, n, caps)
    if not reps.entries:
        raise ValueError(f"no {n}-variable formulas: the free algebra would be empty")
    return reps


def free_matrix_algebra(
    m: Matrix, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> Tuple[Matrix, RepresentativeSet]:
    """The algebra of n-ary term functions (elements named by their witness
    formulas) with the designated set inherited pointwise: the restricted
    Lindenbaum matrix of the given matrix."""
    reps = _free_elements(m.algebra, n, caps)
    names = [str(tf.witness) for tf in reps.entries]
    tables = _operations_on(m.algebra, np.array([tf.table for tf in reps.entries]))
    for name, arity in m.algebra.signature.operations:
        if (tables[name] < 0).any():
            kind = "a constant" if arity == 0 else "an operation"
            raise AssertionError(f"clone not closed under {kind}")
    alg = FiniteAlgebra(m.algebra.signature, names, tables)
    designated = frozenset(
        i for i, tf in enumerate(reps.entries) if m.designated.issuperset(tf.table)
    )
    return Matrix(alg, designated), reps
