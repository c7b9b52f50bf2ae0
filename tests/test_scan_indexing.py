"""The index arithmetic of the valuation scans against the recursive oracles.

A scan applies a connective by gathering from its raveled table at the
arguments' values read base k, and cuts the assignments into slices of k**s
rows, s the largest with k**s at most _SLICE_ROWS.  The cases here make the
joint indices large (a carrier of 300 elements, ternary connectives on 5-7
elements) and patch _SLICE_ROWS to values that are not powers of k, so that
an index computed in too narrow a type, or a slice cut at the wrong row,
shows as a wrong first counterexample.
"""

from unittest import mock

import numpy as np
import pytest

from matlogic import (
    Atlas,
    FiniteAlgebra,
    Signature,
    app,
    consequence,
    const,
    is_valid,
    make_preset,
    parse_formula,
    term_table,
    var,
)
from matlogic import algebra
from matlogic.limits import DEFAULT_CAPS
from matlogic.eqlogic import Equality, eq_consequence

from conftest import eq_refuter_slow, first_refuter_slow


def outcome(result):
    return result.assignment, result.filter_index


def test_a_carrier_of_300_elements():
    # joint indices of a binary connective reach 300**2 - 1, past 2**16
    g = make_preset("Gn", 300)
    alg, sig = g.algebra, g.algebra.signature
    below_top = Atlas(alg, (frozenset(range(299)),))
    meet = parse_formula("p1 & p2", sig)
    # only the last assignment sends p1 & p2 out of the first filter
    assert outcome(is_valid(below_top, meet)) == (((1, 299), (2, 299)), 0)
    for text in ("(p1 -> p2) | (p2 -> p1)", "p2 -> p1", "~p1 | ~~p2"):
        f = parse_formula(text, sig)
        expected = first_refuter_slow(g.as_atlas(), [], f) or (None, None)
        assert outcome(is_valid(g, f)) == expected
    premise = parse_formula("~p1", sig)
    expected = first_refuter_slow(below_top, [premise], meet)
    assert outcome(consequence(below_top, [premise], meet)) == expected
    goal = Equality(parse_formula("p1 & ~~p2", sig), parse_formula("p1", sig))
    assert eq_refuter_slow("E", [alg], [], goal) == (0, ((1, 1), (2, 0)))
    assert eq_consequence("E", [alg], [], goal).assignment == ((1, 1), (2, 0))


def ternary_algebra(k, seed):
    """k elements, a constant and a unary and a ternary connective; tables
    mostly 0, so that other values first appear late."""
    sig = Signature.of({"c": 0, "u": 1, "t": 3})
    rng = np.random.default_rng(seed)
    weights = [0.85] + [0.15 / (k - 1)] * (k - 1)
    tables = {
        name: rng.choice(k, size=(k,) * arity, p=weights).astype(np.int64)
        for name, arity in sig.operations
    }
    return FiniteAlgebra(sig, [f"e{i}" for i in range(k)], tables)


def ternary_formulas():
    p1, p2, p3, p4 = (var(i) for i in range(1, 5))
    t = lambda a, b, c: app("t", (a, b, c))  # noqa: E731
    u = lambda a: app("u", (a,))  # noqa: E731
    return [
        t(p1, p2, p3),
        t(p3, u(p1), t(p2, p4, const("c"))),
        u(t(t(p4, p3, p2), p1, u(p2))),
    ]


@pytest.mark.parametrize("rows", [None, 2, 6, 50, 100, 1000])
@pytest.mark.parametrize("k", [5, 6, 7])
def test_ternary_connectives_at_slice_sizes_not_powers_of_k(k, rows):
    alg = ternary_algebra(k, seed=k)
    forms = ternary_formulas()
    # each formula against the values it takes last first, in turn
    atlas = Atlas(alg, tuple(frozenset(range(k)) - {v} for v in range(k)))
    cases = [([], f) for f in forms] + [(forms[:1], forms[1]), (forms[1:2], forms[2])]
    equalities = [Equality(forms[0], forms[1]), Equality(forms[2], var(4))]
    patch = mock.patch.object(algebra, "_SLICE_ROWS", rows or algebra._SLICE_ROWS)
    with patch:
        got = [outcome(consequence(atlas, premises, f)) for premises, f in cases]
        got_eq = [eq_consequence("E", [alg], [], e).assignment for e in equalities]
        got_eq.append(eq_consequence("E", [alg], equalities[:1], equalities[1]).assignment)
    expected = [first_refuter_slow(atlas, premises, f) or (None, None) for premises, f in cases]
    expected_eq = [eq_refuter_slow("E", [alg], [], e) for e in equalities]
    expected_eq.append(eq_refuter_slow("E", [alg], equalities[:1], equalities[1]))
    assert got == expected
    assert got_eq == [None if e is None else e[1] for e in expected_eq]


@pytest.mark.parametrize(
    "k, n, rows",
    [(k, n, rows) for k, n in [(2, 5), (3, 4), (5, 3), (7, 2)] for rows in (1, 3, 10, 100, 1 << 14)]
    + [(300, 2, 1000), (300, 2, 1 << 14)],
)
def test_slices_are_the_largest_power_of_k(k, n, rows):
    g = make_preset("Gn", k)
    f = parse_formula(" -> ".join(f"~~p{i}" for i in range(n, 0, -1)), g.algebra.signature)
    size = max(k**s for s in range(n + 1) if k**s <= rows)
    with mock.patch.object(algebra, "_SLICE_ROWS", rows):
        var_order, slices = algebra._sliced_tables(g.algebra, [f], DEFAULT_CAPS)
        slices = list(slices)
    assert var_order == list(range(1, n + 1))
    assert [start for start, _ in slices] == list(range(0, k**n, size))
    assert all(len(table) == size for _, (table,) in slices)
    whole = np.concatenate([table for _, (table,) in slices])
    assert whole.tolist() == term_table(g.algebra, f, n).tolist()
