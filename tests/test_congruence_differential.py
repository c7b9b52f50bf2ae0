"""The congruence computations and the ground decider against the loop nests
they replaced (the slow oracles in conftest): same partitions, same labels,
and for the ground closure the same terms in the same order."""

from hypothesis import given, settings, strategies as st

from matlogic import (
    Congruence,
    Equality,
    app,
    congruence_closure_pairs,
    const,
    greatest_congruence_below,
    ground_closure,
    is_congruence,
    var,
)

from conftest import (
    algebras,
    congruence_closure_pairs_slow,
    greatest_congruence_below_slow,
    ground_closure_slow,
    is_congruence_slow,
)

@st.composite
def algebra_partition_pairs(draw):
    alg = draw(algebras())
    k = alg.size
    element = st.integers(0, k - 1)
    # raw labels, not normalised, over a wider range than the carrier
    raw = draw(st.lists(st.integers(-2, 2 * k), min_size=k, max_size=k))
    pairs = draw(st.lists(st.tuples(element, element), max_size=4))
    return alg, Congruence(tuple(raw)), pairs


class TestCongruenceAgainstLoopNests:
    @settings(max_examples=300, deadline=None)
    @given(algebra_partition_pairs())
    def test_same_partitions(self, case):
        alg, part, pairs = case
        least = congruence_closure_pairs(alg, pairs)
        assert least == congruence_closure_pairs_slow(alg, pairs)
        greatest = greatest_congruence_below(alg, part)
        assert greatest == greatest_congruence_below_slow(alg, part)
        for p in (part, least, greatest):
            assert is_congruence(alg, p) == is_congruence_slow(alg, p)
        assert is_congruence(alg, least) and is_congruence(alg, greatest)


def terms(n_vars=3):
    leaves = st.one_of(st.integers(1, n_vars).map(var), st.just(const("k")))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(lambda f: app("f", (f,))),
            st.tuples(kids, kids).map(lambda t: app("g", t)),
        ),
        max_leaves=6,
    )


class TestGroundClosureAgainstRescan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.builds(Equality, terms(), terms()), max_size=6),
        st.lists(terms(), max_size=2),
    )
    def test_same_labels_in_same_order(self, premises, extra):
        got = ground_closure(premises, extra)
        assert list(got.items()) == list(ground_closure_slow(premises, extra).items())
