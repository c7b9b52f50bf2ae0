"""The proof search against the prover it replaced (``ProverSlow`` in
conftest, which sorts each antecedent by printed text at every step): the
same proof tree node by node, the same number of settled sequents, and a
``CapExceeded`` at the same memo limit."""

import pytest
from hypothesis import given, settings, strategies as st

from matlogic import Sequent, app, imp, parse_formula, rn_power, var
from matlogic.intprover import _Prover
from matlogic.lang import AND, IMP, NOT, OR
from matlogic.limits import CapExceeded, ResourceCaps

from conftest import ProverSlow

CONNECTIVES = [(NOT, 1), (AND, 2), (OR, 2), (IMP, 2)]


def formulas():
    def extend(kids):
        return st.sampled_from(CONNECTIVES).flatmap(
            lambda entry: st.tuples(*[kids] * entry[1]).map(lambda args: app(entry[0], args))
        )

    return st.recursive(st.integers(1, 3).map(var), extend, max_leaves=8)


sequents = st.tuples(
    st.frozensets(formulas(), max_size=4), st.one_of(st.none(), formulas())
)


def outcome(prover, seq):
    """The proof (None if there is none) and the number of settled
    sequents, or "cap" if the memo limit was hit."""
    try:
        tree, _ = prover.prove(seq)
    except CapExceeded:
        return "cap"
    return tree, len(prover.success) + len(prover.failure)


def same_proofs(got, want) -> bool:
    """Walks both trees on an explicit stack, comparing each node's rule,
    sequent and principal formula."""
    stack = [(got, want)]
    while stack:
        g, w = stack.pop()
        if g is None or w is None:
            if g is not w:
                return False
            continue
        rule, (ant, suc), premises, principal = w
        seq = g.sequent
        if (g.rule, seq.antecedent, seq.succedent, g.principal) != (rule, ant, suc, principal):
            return False
        if len(g.premises) != len(premises):
            return False
        stack.extend(zip(g.premises, premises))
    return True


def compare(seq, caps):
    got = outcome(_Prover(caps), Sequent(*seq))
    want = outcome(ProverSlow(caps), seq)
    if want == "cap" or got == "cap":
        assert got == want
        return
    assert got[1] == want[1]
    assert same_proofs(got[0], want[0])


class TestProverAgainstSortingEveryStep:
    @settings(max_examples=400, deadline=None)
    @given(sequents)
    def test_random_sequents(self, seq):
        compare(seq, ResourceCaps())

    @settings(max_examples=200, deadline=None)
    @given(sequents, st.integers(0, 40))
    def test_small_memo_limits(self, seq, limit):
        compare(seq, ResourceCaps(memo_limit=limit))

    def test_ladder_implications(self):
        # loop cuts and memo hits, as in the classification of the ladder
        for i in range(14):
            for j in range(14):
                compare((frozenset(), imp(rn_power(i), rn_power(j))), ResourceCaps())

    @pytest.mark.parametrize(
        "text",
        [" & ".join(f"p{i}" for i in range(1, 301)) + " -> p300", "~" * 300 + "p1"],
        ids=["conjunction-300", "negation-300"],
    )
    def test_deep_formulas(self, text):
        # the deepest inputs the recursive oracle still answers under pytest
        compare((frozenset(), parse_formula(text)), ResourceCaps())
