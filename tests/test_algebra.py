import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matlogic import (
    Congruence,
    Equality,
    FiniteAlgebra,
    Signature,
    clone_functions,
    congruence_closure_pairs,
    consequence,
    decide_ground_equational,
    direct_product,
    eq_consequence,
    evaluate_term,
    find_isomorphism,
    generated_subalgebra,
    greatest_congruence_below,
    ground_closure,
    imp,
    is_congruence,
    is_valid,
    make_preset,
    minimal_generating_set,
    neg,
    parse_formula,
    quotient_by_congruence,
    term_table,
    var,
)
from matlogic.lindenbaum import representatives

from conftest import algebras, eval_slow


def test_evaluate_term_matches_slow_walk(chain3_arrow):
    alg = chain3_arrow.algebra
    f = parse_formula("(p1 -> 0) -> p2", alg.signature)
    for a1 in range(3):
        for a2 in range(3):
            asg = {1: a1, 2: a2}
            assert evaluate_term(alg, f, asg) == eval_slow(alg, f, asg)


def test_term_table_layout(chain3_arrow):
    # p1 is the most significant digit of the assignment index
    alg = chain3_arrow.algebra
    t = term_table(alg, var(1), 2)
    assert list(t) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    t2 = term_table(alg, var(2), 2)
    assert list(t2) == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_unbound_variable_errors_name_the_leftmost(chain3_arrow):
    alg = chain3_arrow.algebra
    f = parse_formula("(p1 -> p5) -> p3", alg.signature)
    with pytest.raises(KeyError, match="assignment missing variable p5"):
        evaluate_term(alg, f, {1: 0})
    with pytest.raises(ValueError, match="variable p5 exceeds arity 2"):
        term_table(alg, f, 2)


def test_element_indices_out_of_range_are_refused(chain3_arrow):
    # a flat gather at p1 * 3 + p2 would read another cell, not fail
    alg = chain3_arrow.algebra
    f = parse_formula("p1 -> p2", alg.signature)
    for assignment in ({1: 0, 2: 3}, {1: -1, 2: 0}):
        with pytest.raises(ValueError, match="element index out of range 0..2"):
            evaluate_term(alg, f, assignment)


class TestEvaluationKernel:
    def test_deep_formula_evaluates_without_recursion(self):
        # 3,000 negations: deeper than the interpreter's recursion limit
        m = make_preset("L3")
        f = var(1)
        for _ in range(3000):
            f = neg(f)
        alg = m.algebra
        assert evaluate_term(alg, f, {1: 1}) == 1
        assert list(term_table(alg, f, 1)) == [0, 1, 2]
        res = is_valid(m, f)
        assert (res.valid, res.assignment, res.filter_index) == (False, ((1, 0),), 0)
        assert consequence(m, [var(1)], f).holds
        assert eq_consequence("E", [alg], [], Equality(f, var(1))).holds

    def test_deep_ground_closure_returns(self):
        f = var(1)
        for _ in range(3000):
            f = neg(f)
        labels = ground_closure([Equality(f, var(2))])
        assert len(labels) == 3002 and len(set(labels.values())) == 3001
        assert labels[f] == labels[var(2)] != labels[var(1)]
        ok, _ = decide_ground_equational([Equality(f, var(1))], Equality(neg(f), neg(var(1))))
        assert ok

    def test_scan_leaves_no_reference_cycle(self):
        m = make_preset("L3")
        f = parse_formula("p1 | ~p2 -> p3", m.algebra.signature)
        gc.collect()
        gc.disable()
        try:
            is_valid(m, f)
            term_table(m.algebra, f, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestClone:
    def test_one_variable_clone_of_arrow_chain(self, chain3_arrow):
        fns = representatives(chain3_arrow.algebra, 1).entries
        witnesses = [str(f.witness) for f in fns]
        assert witnesses == [
            "p1",
            "0",
            "p1 -> p1",
            "p1 -> 0",
            "(p1 -> 0) -> p1",
            "((p1 -> 0) -> p1) -> p1",
        ]

    def test_one_variable_clone_of_join_chain(self, chain3_join):
        fns = representatives(chain3_join.algebra, 1).entries
        assert [str(f.witness) for f in fns] == ["p1", "0"]

    def test_clone_functions_are_distinct_and_closed(self, chain3_arrow):
        alg = chain3_arrow.algebra
        fns = clone_functions(alg, 1)
        tables = {f.table for f in fns}
        assert len(tables) == len(fns)
        imp_t = alg.table("→")
        for f in fns:
            for g in fns:
                combined = tuple(
                    int(imp_t[f.table[i], g.table[i]]) for i in range(len(f.table))
                )
                assert combined in tables


class TestSubalgebra:
    def test_generated_subalgebra_chain(self, chain3_arrow):
        alg = chain3_arrow.algebra
        idxs, witnesses, sub = generated_subalgebra(alg, [1])
        # 1/2 generates everything: 1/2 -> 0 = 0, 1/2 -> 1/2 = 1
        assert set(idxs) == {0, 1, 2}
        assert sub.size == 3

    def test_constants_always_included(self, chain3_arrow):
        idxs, _, _ = generated_subalgebra(chain3_arrow.algebra, [])
        assert 0 in set(idxs)

    def test_minimal_generating_set(self, chain3_arrow):
        m, seed = minimal_generating_set(chain3_arrow.algebra, 3)
        assert m == 1
        idxs, _, _ = generated_subalgebra(chain3_arrow.algebra, seed)
        assert len(idxs) == chain3_arrow.algebra.size

    def test_godel_chain_needs_inner_elements(self):
        g5 = make_preset("Gn", 5)
        m, seed = minimal_generating_set(g5.algebra, 5)
        assert m == 3  # the three interior chain points


class TestProduct:
    def test_product_tables_componentwise(self, chain3_arrow):
        alg = chain3_arrow.algebra
        prod = direct_product(alg, alg)
        imp_t, pt = alg.table("→"), prod.table("→")
        for i in range(3):
            for j in range(3):
                for a in range(3):
                    for b in range(3):
                        expected = imp_t[i, a] * 3 + imp_t[j, b]
                        assert pt[i * 3 + j, a * 3 + b] == expected

    def test_product_element_names(self, chain3_arrow):
        prod = direct_product(chain3_arrow.algebra, chain3_arrow.algebra)
        assert prod.size == 9
        assert "(0,1)" in prod.elements or "(0, 1)" in prod.elements


class TestCongruence:
    def test_closure_pairs_respects_operations(self, chain3_join):
        alg = chain3_join.algebra
        cong = congruence_closure_pairs(alg, [(1, 2)])
        assert is_congruence(alg, cong)
        assert cong.related(1, 2)

    def test_greatest_below_refines(self, chain3_arrow):
        alg = chain3_arrow.algebra
        # collapse 1/2 with 1 is not a congruence here (arrow separates them)
        upper = Congruence.from_labels([0, 1, 1])
        best = greatest_congruence_below(alg, upper)
        assert is_congruence(alg, best)
        # every block of the result stays inside a block of the upper bound
        for block in best.blocks():
            assert len({upper.labels[e] for e in block}) == 1

    @pytest.mark.parametrize("pair", [(-1, 0), (5, 0), (0, 3)])
    def test_closure_pairs_rejects_elements_out_of_range(self, pair):
        with pytest.raises(ValueError, match="out of range"):
            congruence_closure_pairs(make_preset("L3").algebra, [(0, 1), pair])

    @pytest.mark.parametrize("labels", [(0, 1), (0, 1, 2, 3)])
    def test_greatest_below_rejects_partitions_of_another_size(self, labels):
        with pytest.raises(ValueError, match="partition size mismatch"):
            greatest_congruence_below(make_preset("L3").algebra, Congruence(labels))

    @pytest.mark.parametrize("labels", [(0, 0), (0, 0, 0, 0)])
    def test_partitions_of_another_size_are_not_congruences(self, labels):
        assert not is_congruence(make_preset("L3").algebra, Congruence(labels))

    def test_quotient_preserves_operations(self, chain3_join):
        alg = chain3_join.algebra
        cong = congruence_closure_pairs(alg, [(0, 1)])
        quot, proj = quotient_by_congruence(alg, cong)
        jt, qt = alg.table("∨"), quot.table("∨")
        for a in range(3):
            for b in range(3):
                assert qt[proj[a], proj[b]] == proj[jt[a, b]]


class TestIsomorphism:
    def test_self_isomorphism(self, chain3_arrow):
        alg = chain3_arrow.algebra
        iso = find_isomorphism(alg, alg, frozenset({2}), frozenset({2}))
        assert iso is not None
        assert iso[2] == 2

    def test_no_isomorphism_for_distinct_tables(self, chain3_arrow, chain3_join):
        sig = chain3_arrow.algebra.signature
        reversed_imp = FiniteAlgebra(
            sig,
            ["0", "1/2", "1"],
            {"→": chain3_arrow.algebra.table("→").T.copy(), "0": np.int64(0)},
        )
        iso = find_isomorphism(
            chain3_arrow.algebra, reversed_imp, frozenset({2}), frozenset({2})
        )
        assert iso is None

    @settings(max_examples=200, deadline=None)
    @given(algebras(), st.randoms(use_true_random=False), st.booleans())
    def test_least_isomorphism_against_all_permutations(self, alg, rnd, designate):
        # a relabelled copy, sometimes with one table entry changed
        k = alg.size
        perm = list(range(k))
        rnd.shuffle(perm)
        inverse = np.argsort(perm)
        tables = {
            name: np.asarray(perm)[t[np.ix_(*[inverse] * t.ndim)]] if t.ndim else np.int64(perm[int(t)])
            for name, t in alg.tables.items()
        }
        name = rnd.choice(sorted(tables))
        if tables[name].ndim and rnd.random() < 0.3:
            tables[name] = tables[name].copy()
            tables[name].flat[0] = (tables[name].flat[0] + 1) % k
        other = FiniteAlgebra(alg.signature, alg.elements, tables)
        d1 = frozenset(range(0, k, 2)) if designate else None
        d2 = frozenset(perm[e] for e in d1) if designate else None

        def is_isomorphism(image):
            if designate and any((e in d1) != (image[e] in d2) for e in range(k)):
                return False
            return all(
                image[int(t[combo])] == int(other.table(n)[tuple(image[c] for c in combo)])
                for n, t in alg.tables.items()
                for combo in itertools.product(range(k), repeat=t.ndim)
            )

        least = next(filter(is_isomorphism, itertools.permutations(range(k))), None)
        assert find_isomorphism(alg, other, d1, d2) == least
