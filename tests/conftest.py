"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the library's vectorized evaluation:
they walk formulas recursively and loop over assignments with itertools,
so agreement between the two is meaningful.
"""

import itertools
import json

import pytest

from matlogic import (
    App,
    Const,
    FiniteAlgebra,
    Matrix,
    Signature,
    Var,
)

import numpy as np


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
