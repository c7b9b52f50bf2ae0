import pytest

from matlogic import (
    enumerate_formulas,
    free_matrix_algebra,
    imp,
    indistinguishable,
    is_valid,
    make_preset,
    parse_formula,
    representatives,
    restricted_theorems,
    term_table,
    var,
)

from conftest import representatives_by_enumeration


class TestIndistinguishable:
    def test_arrow_chain_examples(self, chain3_arrow):
        alg = chain3_arrow.algebra
        sig = alg.signature
        f = parse_formula("p1 -> p1", sig)
        g = parse_formula("0 -> 0", sig)
        assert indistinguishable(alg, f, g, 1)
        assert not indistinguishable(alg, var(1), f, 1)


class TestRepresentatives:
    def test_clone_and_enumeration_agree(self, chain3_arrow, chain3_join):
        for m in (chain3_arrow, chain3_join):
            fast = representatives(m.algebra, 1)
            slow, depth = representatives_by_enumeration(m.algebra, 1)
            assert [t.table for t in fast.entries] == [t.table for t in slow]
            assert [t.witness for t in fast.entries] == [t.witness for t in slow]

    def test_every_small_formula_has_a_representative(self, chain3_arrow):
        alg = chain3_arrow.algebra
        reps = representatives(alg, 1)
        tables = {t.table for t in reps.entries}
        for f in enumerate_formulas(alg.signature, 1, max_depth=3, max_count=2000):
            assert tuple(int(x) for x in term_table(alg, f, 1)) in tables


class TestRestrictedTheorems:
    def test_join_chain_has_none(self, chain3_join):
        assert restricted_theorems(chain3_join, 1) == ()

    def test_arrow_chain_has_identity(self, chain3_arrow):
        thms = restricted_theorems(chain3_arrow, 1)
        assert imp(var(1), var(1)) in [t.witness for t in thms]


class TestFreeMatrixAlgebra:
    def test_boolean_sizes(self):
        b2c = make_preset("B2c")
        for n, size in ((0, 2), (1, 4), (2, 16)):
            free, reps = free_matrix_algebra(b2c, n)
            assert free.algebra.size == size

    def test_empty_clone_has_no_free_algebra(self):
        # no variables and no constants: no formulas at all
        with pytest.raises(ValueError, match="no 0-variable formulas"):
            free_matrix_algebra(make_preset("B2"), 0)

    def test_free_algebra_validates_same_theorems(self, chain3_arrow):
        free, reps = free_matrix_algebra(chain3_arrow, 1)
        sig = chain3_arrow.algebra.signature
        for f in enumerate_formulas(sig, 1, max_depth=2, max_count=50):
            assert is_valid(free, f).valid == is_valid(chain3_arrow, f).valid
