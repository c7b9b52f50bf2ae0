"""Generated subalgebras, generating sets and quotients against the code they
replaced (the slow oracles in conftest): same elements, same witnesses in
the same order, same tables and the same error texts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matlogic import (
    Congruence,
    FiniteAlgebra,
    Signature,
    generated_subalgebra,
    greatest_congruence_below,
    minimal_generating_set,
    quotient_by_congruence,
)

from conftest import (
    algebras,
    generated_subalgebra_slow,
    minimal_generating_set_slow,
    quotient_by_congruence_slow,
)


def outcome(fn, *args):
    """The call's result, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def algebra_seeds(draw):
    alg = draw(algebras())
    seed = draw(st.lists(st.integers(0, alg.size - 1), max_size=3))
    return alg, seed


class TestGenerationAgainstSubalgebraSearch:
    @settings(max_examples=300, deadline=None)
    @given(algebra_seeds())
    def test_generated_subalgebra(self, case):
        alg, seed = case
        got = outcome(generated_subalgebra, alg, seed)
        want = outcome(generated_subalgebra_slow, alg, seed)
        if want[0] == "ValueError":
            assert got == want
            return
        indices, witnesses, sub = got
        assert indices == want[0]
        assert list(witnesses.items()) == list(want[1].items())
        assert sub.same_tables(want[2])

    @settings(max_examples=300, deadline=None)
    @given(algebras(), st.sampled_from([None, 0, 1, 2]))
    def test_generating_sets(self, alg, max_size):
        assert outcome(minimal_generating_set, alg, max_size) == outcome(
            minimal_generating_set_slow, alg, max_size
        )


def test_empty_seed_without_constants_has_no_subalgebra():
    alg = FiniteAlgebra(Signature.of({"u": 1}), ["a", "b"], {"u": np.array([1, 0])})
    for fn in (generated_subalgebra, generated_subalgebra_slow):
        with pytest.raises(ValueError, match="empty carrier"):
            fn(alg, [])


@st.composite
def algebra_congruences(draw):
    alg = draw(algebras())
    raw = draw(st.lists(st.integers(0, alg.size - 1), min_size=alg.size, max_size=alg.size))
    return alg, greatest_congruence_below(alg, Congruence(tuple(raw)))


class TestQuotientAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(algebra_congruences())
    def test_same_quotient(self, case):
        alg, cong = case
        quot, projection = quotient_by_congruence(alg, cong)
        slow_quot, slow_projection = quotient_by_congruence_slow(alg, cong)
        assert projection == slow_projection
        assert quot.same_tables(slow_quot)
