"""Valuation scans against the full-column evaluator (sliced_tables_slow in
conftest), and the work a scan does.

A scan gives each subformula values shaped by its own variables, and keeps
the values of a subformula that uses none of the variables fixed per slice
from the first slice on.  The cases here check every slice's values and the
first counterexamples against the evaluator that gathered every subformula
at every row: carriers of 1-7 elements, a ternary connective, a constant,
formulas without variables, variables that are not contiguous, and slices of
2, 6, 50 and 1000 rows.
"""

import collections
import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from matlogic import (
    App,
    Atlas,
    FiniteAlgebra,
    Matrix,
    Signature,
    app,
    consequence,
    const,
    evaluate_term,
    is_valid,
    make_preset,
    parse_formula,
    term_table,
    var,
    variables,
)
from matlogic import algebra
from matlogic.limits import DEFAULT_CAPS
from matlogic.eqlogic import Equality, eq_consequence
from matlogic.lang import _postorder

from conftest import eval_slow, sliced_tables_slow

SLICE_ROWS = (2, 6, 50, 1000)
# most assignments a generated case scans
MOST_ROWS = 2500


@st.composite
def scan_cases(draw):
    """An algebra of 1-7 elements with a constant, a unary, a binary and
    sometimes a ternary connective; formulas over a few of p1..p12; and a
    variable order holding their variables and perhaps one more."""
    arities = {"c": 0, "u": 1, "b": 2, **({"t": 3} if draw(st.booleans()) else {})}
    sig = Signature.of(arities)
    k = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # tables mostly 0 make the other values rare, so that they first appear late
    common = 1.0 if k == 1 else draw(st.sampled_from([1 / k, 0.85]))
    weights = [common] + [(1 - common) / max(k - 1, 1)] * (k - 1)
    tables = {
        name: rng.choice(k, size=(k,) * arity, p=weights).astype(np.int64)
        for name, arity in sig.operations
    }
    alg = FiniteAlgebra(sig, [f"e{i}" for i in range(k)], tables)
    most = max(n for n in range(8) if k**n <= MOST_ROWS)
    indices = draw(st.lists(st.integers(1, 12), max_size=min(most, 5), unique=True))
    leaves = [var(i) for i in indices] * 2 + [const("c")]
    connectives = [(name, arity) for name, arity in sig.operations if arity > 0]

    def formula():
        pool = [draw(st.sampled_from(leaves)) for _ in range(draw(st.integers(1, 4)))]
        while len(pool) > 1 or draw(st.integers(0, 3)) == 3:
            name, arity = draw(st.sampled_from(connectives))
            taken = min(arity, len(pool))
            args = [pool.pop(draw(st.integers(0, len(pool) - 1))) for _ in range(taken)]
            args += [draw(st.sampled_from(leaves)) for _ in range(arity - len(args))]
            pool.append(app(name, tuple(args)))
        return pool[0]

    forms = [formula() for _ in range(draw(st.integers(1, 4)))]
    used = {v for f in forms for v in variables(f)}
    spare = [i for i in range(1, 13) if i not in used]
    if len(used) < most and draw(st.booleans()):
        used.add(draw(st.sampled_from(spare)))
    return alg, forms, sorted(used)


def scanned(alg, forms, var_order, rows):
    # a bare variable per place in var_order puts in the scan those no formula uses
    with mock.patch.object(algebra, "_SLICE_ROWS", rows):
        order, slices = algebra._sliced_tables(alg, [*forms, *map(var, var_order)], DEFAULT_CAPS)
        assert order == var_order
        return [(start, [t.tolist() for t in tables[: len(forms)]]) for start, tables in slices]


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_every_slice_matches_the_full_column_evaluator(case):
    alg, forms, var_order = case
    for rows in SLICE_ROWS:
        expected = [
            (start, [t.tolist() for t in tables])
            for start, tables in sliced_tables_slow(alg, forms, var_order, rows)
        ]
        assert scanned(alg, forms, var_order, rows) == expected


def slow_rows(alg, forms, var_order):
    """Each formula's values at every assignment to var_order, in order."""
    slices = [tables for _, tables in sliced_tables_slow(alg, forms, var_order, MOST_ROWS)]
    return [np.concatenate(column) for column in zip(*slices)]


def assignment_at(flat, var_order, k):
    """The assignment at a flat row index, as sorted (variable, element) pairs."""
    digits = next(itertools.islice(itertools.product(range(k), repeat=len(var_order)), flat, None))
    return tuple(zip(var_order, digits))


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.data())
def test_first_refuters_match_the_full_column_evaluator(case, data):
    alg, forms, _ = case
    k = alg.size
    *premises, conclusion = forms
    filters = data.draw(st.lists(st.frozensets(st.integers(0, k - 1)), min_size=1, max_size=3))
    atlas = Atlas(alg, tuple(filters))
    var_order = sorted({v for f in forms for v in variables(f)})
    *held, last = slow_rows(alg, forms, var_order)
    refutations = []
    for fi, d in enumerate(atlas.filters):
        bad = ~np.isin(last, list(d))
        for t in held:
            bad &= np.isin(t, list(d))
        if bad.any():
            refutations.append((int(np.argmax(bad)), fi))
    expected = (None, None)
    if refutations:
        flat, fi = min(refutations)
        expected = (assignment_at(flat, var_order, k), fi)
    equalities = [Equality(a, b) for a, b in zip(forms, forms[1:] + forms[:1])]
    *kept, goal = equalities
    differs = slow_rows(alg, [goal.lhs, goal.rhs], var_order)
    bad = differs[0] != differs[1]
    for e in kept:
        lhs, rhs = slow_rows(alg, [e.lhs, e.rhs], var_order)
        bad &= lhs == rhs
    expected_eq = assignment_at(int(np.argmax(bad)), var_order, k) if bad.any() else None
    for rows in SLICE_ROWS:
        with mock.patch.object(algebra, "_SLICE_ROWS", rows):
            result = consequence(atlas, premises, conclusion)
            assert (result.assignment, result.filter_index) == expected
            assert eq_consequence("E", [alg], kept, goal).assignment == expected_eq


@settings(max_examples=100, deadline=None)
@given(scan_cases(), st.data())
def test_term_tables_and_single_values(case, data):
    alg, forms, var_order = case
    n = max(var_order, default=0)
    assignment = {v: data.draw(st.integers(0, alg.size - 1)) for v in range(1, n + 1)}
    for f in forms:
        assert evaluate_term(alg, f, assignment) == eval_slow(alg, f, assignment)
        if alg.size**n <= MOST_ROWS:
            (expected,) = slow_rows(alg, [f], range(1, n + 1))
            assert term_table(alg, f, n).tolist() == expected.tolist()


class CountingTable(np.ndarray):
    """A connective table that records how many cells each gather reads."""

    gathers = []

    def take(self, indices, *args, **kwargs):
        CountingTable.gathers.append(int(np.size(indices)))
        return np.asarray(self).take(indices, *args, **kwargs)


def test_a_scan_gathers_each_unchanging_subformula_once():
    # 4**10 assignments in slices of 4**7 rows: p1..p3 are fixed in a slice
    g4 = make_preset("Gn", 4).algebra
    sig = g4.signature
    a = parse_formula("((p1 -> p2) & (p3 | ~p4)) -> (p5 | ~~p1)", sig)
    b = parse_formula("((p6 -> p7) & (p8 | ~p9)) -> (p10 | ~~p6)", sig)
    f = parse_formula(f"({a}) -> (({b}) -> ({a}))", sig)
    counted = FiniteAlgebra(sig, g4.elements, g4.tables)
    counted.tables = {name: t.view(CountingTable) for name, t in g4.tables.items()}
    CountingTable.gathers = []
    assert is_valid(Matrix(counted, frozenset({3})), f).valid
    slices, low = 4**3, set(range(4, 11))
    expected = collections.Counter()
    for g in _postorder([f])[1]:
        if isinstance(g, App):
            used = set(variables(g))
            expected[4 ** len(used & low)] += slices if used - low else 1
    assert collections.Counter(CountingTable.gathers) == expected
    # gathering every subformula at every row reads 18 times 4**10
    assert sum(CountingTable.gathers) < 3 * 4**10
