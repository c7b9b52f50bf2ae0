"""The valuation scans against the recursive oracles, at several slice sizes.

Validity, consequence and equational consequence report the first
counterexample in lexicographic order (and, for atlases, the first filter).
Each generated case is checked at the default slice size and at slices of
1, 3 and 7 rows, so that refutations fall inside later slices and on slice
boundaries.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from matlogic import (
    Atlas,
    FiniteAlgebra,
    Signature,
    app,
    consequence,
    const,
    disj,
    is_valid,
    make_preset,
    neg,
    var,
    variables,
)
from matlogic import algebra
from matlogic.eqlogic import Equality, eq_consequence

from conftest import all_assignments, eq_refuter_slow, eval_slow, first_refuter_slow

SLICE_ROWS = (None, 1, 3, 7)


def at_each_slice_size(decide):
    """decide() at the default slice size and at each patched one."""
    out = []
    for rows in SLICE_ROWS:
        if rows is None:
            out.append(decide())
        else:
            with mock.patch.object(algebra, "_SLICE_ROWS", rows):
                out.append(decide())
    return out


def signatures():
    # a constant, so that formulas without variables exist, and a unary and a
    # binary connective; sometimes a ternary one
    return st.sampled_from(
        [Signature.of({"c": 0, "u": 1, "b": 2}), Signature.of({"c": 0, "u": 1, "b": 2, "t": 3})]
    )


def algebra_over(sig):
    @st.composite
    def build(draw):
        k = draw(st.integers(2, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # tables mostly 0 make the other values rare, so that they first
        # appear late in a formula's table
        common = draw(st.sampled_from([1 / k, 0.9]))
        weights = [common] + [(1 - common) / (k - 1)] * (k - 1)
        tables = {
            name: rng.choice(k, size=(k,) * arity, p=weights).astype(np.int64)
            for name, arity in sig.operations
        }
        return FiniteAlgebra(sig, [f"e{i}" for i in range(k)], tables)

    return build()


def formulas_over(sig, indices):
    """Formulas over most of the variables p_i for i in indices and the
    constant; constants only when indices is empty."""
    leaves = [var(i) for i in indices] * 3 + [const("c")]
    connectives = [(name, arity) for name, arity in sig.operations if arity > 0]

    @st.composite
    def build(draw):
        # most of the variables, and a few more leaves
        pool = [var(i) for i in indices if draw(st.integers(0, 3)) > 0]
        pool += draw(st.lists(st.sampled_from(leaves), min_size=0 if pool else 1, max_size=3))
        while len(pool) > 1 or draw(st.integers(0, 3)) == 3:
            name, arity = draw(st.sampled_from(connectives))
            taken = min(arity, len(pool))
            args = [pool.pop(draw(st.integers(0, len(pool) - 1))) for _ in range(taken)]
            args += [draw(st.sampled_from(leaves)) for _ in range(arity - taken)]
            pool.append(app(name, tuple(args)))
        return pool[0]

    return build()


@st.composite
def scan_cases(draw):
    """An algebra of 2-4 elements and formulas over 0-5 of the variables p1..p7."""
    sig = draw(signatures())
    alg = draw(algebra_over(sig))
    count = draw(st.integers(0, 5))
    indices = draw(st.lists(st.integers(1, 7), min_size=count, max_size=count, unique=True))
    return sig, alg, formulas_over(sig, indices)


@st.composite
def atlas_cases(draw):
    """An atlas, premises and a conclusion.  One filter leaves out only the
    conclusion value that first appears last, so that it refutes late."""
    sig, alg, forms = draw(scan_cases())
    premises, conclusion = draw(st.lists(forms, max_size=2)), draw(forms)
    filters = draw(st.lists(st.frozensets(st.integers(0, alg.size - 1)), max_size=3))
    rows = [eval_slow(alg, conclusion, a) for a in all_assignments(alg, variables(conclusion))]
    late = frozenset(rows) - {max(set(rows), key=rows.index)}
    at = draw(st.integers(0, len(filters)))
    return Atlas(alg, tuple(filters[:at] + [late] + filters[at:])), premises, conclusion


def outcome_of(result):
    return result.assignment, result.filter_index


def eq_outcome_of(result):
    return result.algebra_index, result.assignment


@settings(max_examples=150, deadline=None)
@given(atlas_cases())
def test_validity_matches_oracle(case):
    atlas, _, conclusion = case
    expected = first_refuter_slow(atlas, [], conclusion) or (None, None)
    got = at_each_slice_size(lambda: outcome_of(is_valid(atlas, conclusion)))
    assert got == [expected] * len(SLICE_ROWS)


@settings(max_examples=150, deadline=None)
@given(atlas_cases())
def test_consequence_matches_oracle(case):
    atlas, premises, conclusion = case
    expected = first_refuter_slow(atlas, premises, conclusion) or (None, None)
    got = at_each_slice_size(lambda: outcome_of(consequence(atlas, premises, conclusion)))
    assert got == [expected] * len(SLICE_ROWS)


@st.composite
def eq_cases(draw):
    sig, alg, forms = draw(scan_cases())
    others = draw(st.lists(algebra_over(sig), max_size=2))
    equalities = st.builds(Equality, forms, forms)
    return [alg, *others], draw(st.lists(equalities, max_size=2)), draw(equalities)


@settings(max_examples=150, deadline=None)
@given(eq_cases(), st.sampled_from(["E", "EL"]))
def test_eq_consequence_matches_oracle(case, mode):
    algebras, premises, goal = case
    expected = eq_refuter_slow(mode, algebras, premises, goal) or (None, None)
    got = at_each_slice_size(lambda: eq_outcome_of(eq_consequence(mode, algebras, premises, goal)))
    assert got == [expected] * len(SLICE_ROWS)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_a_clause_is_refuted_at_its_one_row(case):
    # over B2c, the disjunction of the literals false at row r is false there alone
    n, r = case
    b2 = make_preset("B2c")
    bits = [(r >> (n - i)) & 1 for i in range(1, n + 1)]
    literals = [neg(var(i)) if bit else var(i) for i, bit in enumerate(bits, start=1)]
    clause = functools.reduce(disj, literals)
    expected = (tuple(enumerate(bits, start=1)), 0)
    assert at_each_slice_size(lambda: outcome_of(is_valid(b2, clause))) == [expected] * len(SLICE_ROWS)
    both = Atlas(b2.algebra, (frozenset({0, 1}), frozenset({1})))
    top = const("⊤")
    got = at_each_slice_size(lambda: outcome_of(consequence(both, [top], clause)))
    assert got == [(expected[0], 1)] * len(SLICE_ROWS)
    goal = Equality(clause, top)
    got = at_each_slice_size(lambda: eq_consequence("E", [b2.algebra], [], goal).assignment)
    assert got == [expected[0]] * len(SLICE_ROWS)


def test_constant_formulas_have_one_row():
    sig = Signature.of({"c": 0, "u": 1, "b": 2})
    tables = {"c": np.int64(1), "u": np.array([1, 0]), "b": np.array([[0, 0], [0, 1]])}
    alg = FiniteAlgebra(sig, ["e0", "e1"], tables)
    c = const("c")
    atlas = Atlas(alg, (frozenset({0}), frozenset({1})))
    for f in (c, app("u", (app("u", (c,)),))):
        got = at_each_slice_size(lambda: outcome_of(is_valid(atlas, f)))
        assert got == [((), 0)] * len(SLICE_ROWS)
    goal = Equality(c, app("b", (c, c)))
    got = at_each_slice_size(lambda: eq_consequence("E", [alg], [], goal).holds)
    assert got == [True] * len(SLICE_ROWS)
