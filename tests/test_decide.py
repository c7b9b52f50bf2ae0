import itertools
import random
from unittest import mock

import numpy as np
import pytest

from matlogic import algebra
from matlogic.cli import run_command
from matlogic import (
    Atlas,
    FiniteAlgebra,
    Matrix,
    ResourceCaps,
    Signature,
    atlas_equivalence,
    atlas_inclusion,
    consequence,
    enumerate_formulas,
    has_theorems,
    is_valid,
    make_preset,
    parse_formula,
    theorem_inclusion,
    weak_equivalence,
)

from hypothesis import given, settings, strategies as st

from matlogic import decide
from conftest import atlas_inclusion_slow, consequence_slow
from test_atlas_differential import atlas_pairs


class TestHasTheorems:
    def test_join_chain_trivial(self, chain3_join):
        rep = has_theorems(chain3_join)
        assert rep.answer == "no"

    def test_arrow_chain_nontrivial(self, chain3_arrow):
        rep = has_theorems(chain3_arrow)
        assert rep.answer == "yes"
        assert str(rep.witness) == "p1 -> p1"
        assert is_valid(chain3_arrow, rep.witness).valid

    def test_empty_designated_fast_path(self, chain3_arrow):
        m = Matrix(chain3_arrow.algebra, frozenset())
        assert has_theorems(m).answer == "no"


class TestTheoremInclusion:
    def test_l3_theorems_hold_classically(self):
        l3 = make_preset("L3")
        b2 = Matrix(
            make_preset("Gn", 2).algebra, frozenset({1})
        )  # Boolean matrix over the shared {¬,∧,∨,→} signature
        rep = theorem_inclusion(l3, b2)
        assert rep.answer == "yes"

    def test_classical_theorems_fail_in_l3(self):
        l3 = make_preset("L3")
        b2 = Matrix(make_preset("Gn", 2).algebra, frozenset({1}))
        rep = theorem_inclusion(b2, l3)
        assert rep.answer == "no"
        # the witness really separates the two matrices
        assert is_valid(b2, rep.witness).valid
        assert not is_valid(l3, rep.witness).valid

    def test_chain_theorems_shrink_as_chains_grow(self):
        for n in (2, 3, 4):
            big = make_preset("Gn", n + 1)
            small = make_preset("Gn", n)
            assert theorem_inclusion(big, small, n=2).answer == "yes"
        # at two variables a separator exists only for the smallest pair;
        # larger chains agree on their two-variable fragments
        assert theorem_inclusion(make_preset("Gn", 2), make_preset("Gn", 3), n=2).answer == "no"

    def test_spot_check_flagged_in_stats(self):
        g4, g5 = make_preset("Gn", 4), make_preset("Gn", 5)
        rep = theorem_inclusion(g5, g4, n=1)
        assert rep.stats.get("sound") is False


class TestWeakEquivalence:
    def test_presets_self_equivalent(self):
        for m in (make_preset("B2"), make_preset("L3"), make_preset("Gn", 3)):
            assert weak_equivalence(m, m).answer == "yes"

    def test_isomorphic_copies_equivalent(self, chain3_arrow):
        alg = chain3_arrow.algebra
        relabeled = FiniteAlgebra(
            alg.signature,
            ["a", "b", "c"],
            {name: alg.table(name) for name, _ in alg.signature.operations},
        )
        other = Matrix(relabeled, frozenset({2}))
        assert weak_equivalence(chain3_arrow, other).answer == "yes"


class TestBothDirections:
    @pytest.mark.parametrize(
        "argv, exit_code, builds",
        [
            # shared tables: one clone serves both directions
            (["weq", "--preset", "L3", "--preset", "L3"], 0, 1),
            (["weq", "--preset", "G3", "--preset", "LC3"], 0, 1),
            (["atlas-eq", "--preset", "L3", "--preset", "L3"], 0, 1),
            # G4 x G3 forward, then G3 x G4 backward: the products differ
            (["weq", "--preset", "G4", "--preset", "G3"], 1, 2),
            # a forward no ends the question before the backward direction
            (["weq", "--preset", "G3", "--preset", "L3", "--n", "1"], 1, 1),
        ],
    )
    def test_a_clone_is_built_once_per_algebra(self, argv, exit_code, builds):
        algebra._CLONES.clear()
        with mock.patch.object(algebra, "_closure_rounds", wraps=algebra._closure_rounds) as build:
            code, _ = run_command(argv)
        assert (code, build.call_count) == (exit_code, builds)


def random_matrix(rng, sig, size):
    tables = {}
    for name, arity in sig.operations:
        shape = (size,) * arity
        tables[name] = rng.integers(0, size, size=shape, dtype=np.int64)
        if arity == 0:
            tables[name] = np.int64(int(tables[name]))
    alg = FiniteAlgebra(sig, [f"e{i}" for i in range(size)], tables)
    designated = frozenset(
        i for i in range(size) if rng.integers(0, 2)
    ) or frozenset({0})
    return Matrix(alg, designated)


class TestRandomCombinationIdentities:
    def test_product_and_sum_against_direct_validity(self):
        from matlogic import combine_matrices

        sig = Signature.of({"¬": 1, "→": 2})
        rng = np.random.default_rng(20260826)
        for trial in range(10):
            size = int(rng.integers(2, 4))
            m1 = random_matrix(rng, sig, size)
            m2 = random_matrix(rng, sig, int(rng.integers(2, 4)))
            prod = combine_matrices("product", m1, m2)
            tsum = combine_matrices("sum", m1, m2)
            for f in enumerate_formulas(sig, 1, max_depth=2, max_count=60):
                v1, v2 = is_valid(m1, f).valid, is_valid(m2, f).valid
                assert is_valid(prod, f).valid == (v1 and v2)
                assert is_valid(tsum, f).valid == (v1 or v2)


class TestAtlasInclusion:
    def test_singleton_vs_two_filter_lukasiewicz(self):
        l3 = make_preset("L3")
        alg = l3.algebra
        a1 = Atlas(alg, (frozenset({2}),))
        a2 = Atlas(alg, (frozenset({2}), frozenset({1, 2})))
        # the two-filter atlas derives strictly less
        assert atlas_inclusion(a2, a1, m=2).answer == "yes"
        rep = atlas_inclusion(a1, a2, m=2)
        assert rep.answer == "no"
        premises, conclusion = rep.witness
        assert consequence(a1, premises, conclusion).holds
        assert not consequence(a2, premises, conclusion).holds

    def test_modus_ponens_separates(self):
        # the sequent {p, p -> q} / q holds with filter {1} only
        l3 = make_preset("L3")
        alg = l3.algebra
        sig = alg.signature
        a1 = Atlas(alg, (frozenset({2}),))
        a2 = Atlas(alg, (frozenset({2}), frozenset({1, 2})))
        prem = [parse_formula("p1", sig), parse_formula("p1 -> p2", sig)]
        concl = parse_formula("p2", sig)
        assert consequence(a1, prem, concl).holds
        assert not consequence(a2, prem, concl).holds

    def test_equivalence_of_identical_atlases(self):
        a = make_preset("L3").as_atlas()
        assert atlas_equivalence(a, a).answer == "yes"

    def test_inclusion_agrees_with_slow_consequence_scan(self, chain3_arrow):
        alg = chain3_arrow.algebra
        a1 = Atlas(alg, (frozenset({2}),))
        a2 = Atlas(alg, (frozenset({1, 2}),))
        rep12 = atlas_inclusion(a1, a2, m=1)
        rep21 = atlas_inclusion(a2, a1, m=1)
        # cross-check each reported witness with the slow oracle
        for rep, src, dst in ((rep12, a1, a2), (rep21, a2, a1)):
            if rep.answer == "no":
                premises, conclusion = rep.witness
                assert consequence_slow(src, premises, conclusion)
                assert not consequence_slow(dst, premises, conclusion)


@settings(max_examples=200, deadline=None)
@given(atlas_pairs(), st.sampled_from([None, 0, 1, 2]), st.sampled_from([1, 2, 5]))
def test_atlas_inclusion_closes_side_2_theories_in_blocks(pair, m, block):
    # the first violation, its premises and stats do not depend on the block size
    a1, a2 = pair
    caps = ResourceCaps(max_clone=100, max_tuples=100)
    with mock.patch.object(decide, "_THEORY_BLOCK", block):
        assert atlas_inclusion(a1, a2, caps, m) == atlas_inclusion_slow(a1, a2, caps, m)
