"""Indistinguishability over an algebra and restricted Lindenbaum structures.

Two formulas in variables p1..pn are indistinguishable over an algebra when
they induce the same n-ary term function.  The classes of this relation are
finitely many, and each class is represented by its first formula in
canonical enumeration order.  The worker is the clone closure from the
algebra module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .algebra import (
    FiniteAlgebra,
    TermFunction,
    _operations_on,
    clone_discovery_order,
    term_table,
)
from .lang import Formula
from .limits import DEFAULT_CAPS, ResourceCaps
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


def representatives(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> RepresentativeSet:
    return RepresentativeSet(alg, n, tuple(clone_discovery_order(alg, n, caps)))


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
