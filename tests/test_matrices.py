import itertools
import tracemalloc
from unittest import mock

import pytest

from matlogic import algebra, lang, matrices
from matlogic import (
    Atlas,
    CapExceeded,
    Matrix,
    ResourceCaps,
    combine_matrices,
    consequence,
    enumerate_formulas,
    greatest_compatible_congruence,
    is_valid,
    make_preset,
    parse_formula,
    reduced_matrix,
    var,
)
from matlogic.limits import Memo

from conftest import first_refuter_slow, valid_slow


def B2():
    return make_preset("B2")


def L3():
    return make_preset("L3")


class TestPresets:
    def test_preset_shapes(self):
        assert B2().algebra.size == 2
        assert make_preset("B2c").algebra.size == 2
        assert L3().algebra.size == 3
        assert make_preset("L3modal").algebra.size == 3
        assert make_preset("Gn", 4).algebra.size == 4
        assert make_preset("LCchain", 5).algebra.size == 5

    def test_chain_element_names(self):
        g4 = make_preset("Gn", 4)
        assert list(g4.algebra.elements) == ["0", "1/3", "2/3", "1"]

    def test_lukasiewicz_tables(self):
        alg = L3().algebra
        imp_t = alg.table("→")
        assert [list(r) for r in imp_t] == [[2, 2, 2], [1, 2, 2], [0, 1, 2]]
        assert list(alg.table("¬")) == [2, 1, 0]

    def test_modal_tables(self):
        alg = make_preset("L3modal").algebra
        assert list(alg.table("□")) == [0, 0, 2]
        assert list(alg.table("◇")) == [0, 2, 2]

    def test_a_kept_preset_is_the_same_read_only_matrix(self):
        l3 = L3()
        assert L3() is l3
        for table in l3.algebra.tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_a_chain_over_the_cell_budget_is_built_per_call(self, monkeypatch):
        monkeypatch.setattr(matrices, "_PRESETS", Memo(matrices._PRESETS.budget))
        # three binary tables of 105**2 cells and one unary: 33,180 > 2**15
        g105 = make_preset("Gn", 105)
        assert make_preset("Gn", 105) is not g105
        assert matrices._PRESETS == {}
        assert make_preset("Gn", 104) is make_preset("Gn", 104)

    def test_the_cell_budget_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(matrices, "_PRESETS", Memo(100))
        # L3 30 cells, B2 18, G3 30, L3modal 36
        l3 = L3()
        B2()
        assert L3() is l3
        make_preset("Gn", 3)
        make_preset("L3modal")
        assert list(matrices._PRESETS) == [("L3", None), ("Gn", 3), ("L3modal", None)]


class TestValidity:
    def test_first_refuting_assignment_is_lexicographic(self):
        m = L3()
        res = is_valid(m, parse_formula("p1 | ~p1", m.algebra.signature))
        assert not res.valid
        # p1 = 0 gives 0|1 = 1 designated, so the first refuter is p1 = 1/2
        assert res.assignment == ((1, 1),)
        assert res.filter_index == 0

    def test_matches_slow_oracle_on_enumerated_formulas(self):
        for m in (B2(), L3(), make_preset("Gn", 3)):
            sig = m.algebra.signature
            for f in enumerate_formulas(sig, n_vars=2, max_depth=2, max_count=300):
                res = is_valid(m, f)
                assert res.valid == valid_slow(m, f)
                refuter = first_refuter_slow(m.as_atlas(), [], f) or (None, None)
                assert (res.assignment, res.filter_index) == refuter

    def test_cap_exceeded(self):
        m = L3()
        f = parse_formula(
            "p1 & p2 & p3 & p4 & p5 & p6 & p7 & p8 & p9 & p10", m.algebra.signature
        )
        with pytest.raises(CapExceeded):
            is_valid(m, f, ResourceCaps(max_tuples=100))

    @pytest.mark.parametrize(
        "text, refuter",
        [
            (" | ".join(f"p{i}" for i in range(1, 11)), tuple((i, 0) for i in range(1, 11))),
            # prelinearity around a cycle: some p_i is at most the next
            (" | ".join(f"(p{i} -> p{i % 10 + 1})" for i in range(1, 11)), None),
        ],
        ids=["refuted-first", "valid"],
    )
    def test_ten_variable_scan_memory_is_bounded(self, text, refuter):
        # 4**10 assignments; evaluated whole, each subformula's table alone
        # takes 8 MiB
        g4 = make_preset("Gn", 4)
        f = parse_formula(text, g4.algebra.signature)
        tracemalloc.start()
        try:
            result = is_valid(g4, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.valid, result.assignment) == (refuter is None, refuter)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "text, slices",
        [
            (" | ".join(f"p{i}" for i in range(1, 11)), 1),
            (" | ".join(f"(p{i} -> p{i % 10 + 1})" for i in range(1, 11)), 4**3),
        ],
        ids=["refuted-first", "valid"],
    )
    def test_a_scan_walks_its_formulas_once(self, text, slices):
        # 4**10 assignments in slices of 4**7 rows, and one walk for all of
        # them, which also gives the variables
        g4 = make_preset("Gn", 4)
        f = parse_formula(text, g4.algebra.signature)
        starts = []

        def counted(*args):
            var_order, slices = algebra._sliced_tables(*args)

            def counting():
                for start, tables in slices:
                    starts.append(start)
                    yield start, tables

            return var_order, counting()

        with mock.patch("matlogic.matrices._sliced_tables", counted), mock.patch(
            "matlogic.algebra._postorder", wraps=lang._postorder
        ) as walk, mock.patch("matlogic.lang.subformulas", wraps=lang.subformulas) as sets:
            is_valid(g4, f)
        assert starts == list(range(0, slices * 4**7, 4**7))
        assert (walk.call_count, sets.call_count) == (1, 0)


class TestConsequence:
    def test_modus_ponens_in_l3(self):
        m = L3()
        sig = m.algebra.signature
        res = consequence(
            m,
            [parse_formula("p1", sig), parse_formula("p1 -> p2", sig)],
            parse_formula("p2", sig),
        )
        assert res.holds

    def test_failure_reports_first_separator(self):
        m = L3()
        sig = m.algebra.signature
        res = consequence(m, [parse_formula("p1 | p2", sig)], parse_formula("p1", sig))
        assert not res.holds
        # first assignment in p1-major order sending the premise to 1: p1=0, p2=1
        assert res.assignment == ((1, 0), (2, 2))

    def test_matches_slow_oracle(self):
        m = make_preset("Gn", 3)
        sig = m.algebra.signature
        forms = list(enumerate_formulas(sig, n_vars=2, max_depth=1, max_count=40))
        two_filters = Atlas(m.algebra, (frozenset({2}), frozenset({1, 2})))
        for atlas in (m.as_atlas(), two_filters):
            for prem, concl in itertools.islice(
                itertools.product(forms, forms), 0, 400
            ):
                res = consequence(atlas, [prem], concl)
                refuter = first_refuter_slow(atlas, [prem], concl)
                assert res.holds == (refuter is None)
                assert (res.assignment, res.filter_index) == (refuter or (None, None))

    def test_atlas_consequence_intersects_members(self):
        l3 = L3()
        alg = l3.algebra
        a = Atlas(alg, (frozenset({2}), frozenset({1, 2})))
        sig = alg.signature
        prem = [parse_formula("p1", sig), parse_formula("p1 -> p2", sig)]
        concl = parse_formula("p2", sig)
        single = [
            consequence(Matrix(alg, d), prem, concl).holds for d in a.filters
        ]
        assert consequence(a, prem, concl).holds == all(single)


class TestCombinations:
    def test_signature_mismatch_rejected(self):
        m1, m2 = make_preset("Gn", 3), B2()
        with pytest.raises(ValueError):
            combine_matrices("product", m1, m2)

    def test_sum_and_product_identities(self):
        m1, m2 = make_preset("Gn", 3), make_preset("Gn", 2)
        prod = combine_matrices("product", m1, m2)
        both = combine_matrices("sum", m1, m2)
        sig = m1.algebra.signature
        for f in enumerate_formulas(sig, n_vars=1, max_depth=2, max_count=200):
            v1, v2 = is_valid(m1, f).valid, is_valid(m2, f).valid
            assert is_valid(prod, f).valid == (v1 and v2)
            assert is_valid(both, f).valid == (v1 or v2)

    def test_lsum_rsum_keep_one_side(self):
        m1, m2 = make_preset("Gn", 3), make_preset("Gn", 2)
        lsum = combine_matrices("lsum", m1, m2)
        rsum = combine_matrices("rsum", m1, m2)
        sig = m1.algebra.signature
        for f in enumerate_formulas(sig, n_vars=1, max_depth=2, max_count=100):
            assert is_valid(lsum, f).valid == is_valid(m1, f).valid
            assert is_valid(rsum, f).valid == is_valid(m2, f).valid


class TestReduction:
    def test_reduced_matrix_of_redundant_matrix(self):
        import numpy as np
        from matlogic import FiniteAlgebra, Signature

        # duplicate the Boolean matrix: elements 0,1 and mirror copies 0',1'
        sig = Signature.of({"→": 2})
        imp = np.array(
            [
                [1, 1, 3, 3],
                [0, 1, 2, 3],
                [1, 1, 3, 3],
                [0, 1, 2, 3],
            ],
            dtype=np.int64,
        )
        alg = FiniteAlgebra(sig, ["0", "1", "0x", "1x"], {"→": imp})
        m = Matrix(alg, frozenset({1, 3}))
        cong = greatest_compatible_congruence(m)
        assert cong.related(0, 2) and cong.related(1, 3)
        red, proj = reduced_matrix(m)
        assert red.algebra.size == 2
        assert is_valid(red, var(1)).valid == is_valid(m, var(1)).valid

    def test_reduced_preset_is_already_reduced(self):
        for name in ("B2", "L3"):
            m = make_preset(name)
            red, _ = reduced_matrix(m)
            assert red.algebra.size == m.algebra.size
