import functools

import pytest

from matlogic import (
    CLASSICAL_SIGNATURE,
    ProofTree,
    Sequent,
    check_proof,
    conj,
    disj,
    expand_iff,
    g3_prove,
    glivenko_check,
    imp,
    int_leq,
    int_ll,
    int_relation,
    int_sim,
    neg,
    parse_formula,
    provable,
    rn_classify,
    rn_power,
    var,
)
from matlogic import intprover
from matlogic.intprover import _box, _forced, _ladder_model, _ladder_ups
from matlogic.limits import CapExceeded, ResourceCaps


def fml(text):
    return expand_iff(parse_formula(text, CLASSICAL_SIGNATURE))


PROVABLE = [
    "p1 -> p1",
    "p1 -> (p2 -> p1)",
    "(p1 -> p2) -> ((p1 -> (p2 -> p3)) -> (p1 -> p3))",
    "p1 -> (p2 -> (p1 & p2))",
    "(p1 & p2) -> p1",
    "(p1 & p2) -> p2",
    "p1 -> (p1 | p2)",
    "p2 -> (p1 | p2)",
    "(p1 -> p3) -> ((p2 -> p3) -> ((p1 | p2) -> p3))",
    "(p1 -> p2) -> ((p1 -> ~p2) -> ~p1)",
    "p1 -> (~p1 -> p2)",
    "~~(p1 | ~p1)",
    "(p1 & p2) -> (p2 & p1)",
]

UNPROVABLE = [
    "((p1 -> p2) -> p1) -> p1",
    "p1 | ~p1",
    "~~p1 -> p1",
    "~(p1 & p2) -> (~p1 | ~p2)",
    "(p1 -> p2) | (p2 -> p1)",
]


class TestProver:
    @pytest.mark.parametrize("text", PROVABLE)
    def test_provable(self, text):
        assert provable(fml(text))

    @pytest.mark.parametrize("text", UNPROVABLE)
    def test_unprovable(self, text):
        assert not provable(fml(text))

    @pytest.mark.parametrize("text", PROVABLE)
    def test_proofs_replay(self, text):
        tree = g3_prove((), fml(text))
        assert tree is not None
        assert check_proof(tree)

    def test_sequent_with_premises(self):
        p, q = var(1), var(2)
        tree = g3_prove((p, imp(p, q)), q)
        assert tree is not None and check_proof(tree)

    def test_empty_succedent_from_contradiction(self):
        p = var(1)
        tree = g3_prove((p, neg(p)), None)
        assert tree is not None and check_proof(tree)

    def test_deep_proof_replays(self):
        # p1 => p1, then p1 => f | p2 from p1 => f, 3,000 times
        p1, p2 = var(1), var(2)

        def chain(tampered=None):
            f = p1
            node = ProofTree("axiom", Sequent(frozenset({p1}), p1), ())
            for i in range(3000):
                f = disj(f, p2)
                ant = frozenset({p2} if i == tampered else {p1})
                node = ProofTree("∨-1", Sequent(ant, f), (node,))
            return node

        tree = chain()
        assert tree.size() == 3001
        assert check_proof(tree)
        assert not check_proof(chain(tampered=1500))

    def test_constants_rejected(self):
        from matlogic import const

        with pytest.raises(ValueError):
            g3_prove((), imp(const("⊤"), const("⊤")))


class TestRelations:
    def test_leq_examples(self):
        p = var(1)
        assert int_leq(p, neg(neg(p)))
        assert not int_leq(neg(neg(p)), p)

    def test_sim_is_mutual(self):
        p = var(1)
        f = conj(p, p)
        assert int_sim(p, f)
        assert int_sim(f, p)
        assert not int_sim(p, neg(p))

    def test_ll_strict_examples(self):
        # f << g asks for (g -> f) -> g to be a theorem
        assert int_ll(rn_power(0), rn_power(4))
        assert not int_ll(rn_power(0), rn_power(1))
        rel = int_relation(var(1), neg(var(1)))
        assert rel["incomparable"]

    def test_relation_dict_consistency(self):
        p = var(1)
        rel = int_relation(p, neg(neg(p)))
        assert rel["leq"] and not rel["geq"] and not rel["sim"]


class TestLadder:
    def test_power_definitions(self):
        p = var(1)
        assert rn_power(0) == conj(p, neg(p))
        assert rn_power(1) == neg(p)
        assert rn_power(2) == p
        assert rn_power("omega") == imp(p, p)
        assert rn_power(3) == imp(rn_power(1), rn_power(0))
        assert rn_power(4) == disj(rn_power(1), rn_power(2))
        assert rn_power(5) == imp(rn_power(3), rn_power(2))
        assert rn_power(6) == disj(rn_power(3), rn_power(4))

    def test_deep_power_without_recursion(self):
        # the ladder's depth grows by one every two indices; not printed,
        # since the text grows exponentially
        f = rn_power(5000)
        assert f.depth == 2501
        assert f == disj(rn_power(4997), rn_power(4998))
        assert rn_power(4999) == imp(rn_power(4997), rn_power(4996))

    @pytest.mark.parametrize("i", range(9))
    def test_powers_unprovable(self, i):
        assert not provable(rn_power(i))

    def test_omega_provable(self):
        assert provable(rn_power("omega"))

    def test_classify_known_values(self):
        p = var(1)
        assert rn_classify(neg(neg(neg(p)))) == 1
        assert rn_classify(neg(neg(p))) == 3
        assert rn_classify(disj(p, neg(p))) == 4
        assert rn_classify(imp(p, p)) == "omega"

    def test_classify_renames_variable(self):
        assert rn_classify(neg(neg(var(4)))) == 3


class TestLadderFrame:
    """The finite ladder frame that ``rn_classify`` evaluates on."""

    @staticmethod
    def points(mask):
        return {w for w in range(mask.bit_length()) if mask >> w & 1}

    def test_up_sets_follow_the_recurrence(self):
        ups = [self.points(m) for m in _ladder_ups(40)]
        assert ups[:3] == [{0}, {1}, {0, 2}]
        for i in range(3, 40):
            assert ups[i] == {i} | ups[i - 2] | ups[i - 3]

    def test_frame_is_a_partial_order_and_every_prefix_an_up_set(self):
        ups = [self.points(m) for m in _ladder_ups(40)]
        for i, up in enumerate(ups):
            assert i in up and max(up) == i  # reflexive, sees only points below
            for j in up:
                assert ups[j] <= up  # transitive
                assert j == i or i not in ups[j]  # antisymmetric

    def test_separation_and_least_size(self):
        formulas = [rn_power(k) for k in range(61)]
        sets = {}

        def ladder(n):
            if n not in sets:
                ups = _ladder_ups(n)
                box = functools.partial(_box, ups=ups)
                sets[n] = [_forced(f, box, {1: 1}) for f in formulas]
            return sets[n]

        def separates(n, max_index):
            got, whole = ladder(n), (1 << n) - 1
            m = next(m for m in range(0, 60, 2) if got[m] == got[m + 1] == whole)
            assert all(s == whole for s in got[m:])
            first = got[: max_index + 1]
            return (
                whole not in first
                and len(set(first)) == len(first)
                and not set(first) & set(got[max_index + 1 : m + 2])
            )

        for max_index in range(41):
            model = _ladder_model(max_index)
            n = len(model.ups)
            assert model.ups == tuple(_ladder_ups(n)) and model.whole == (1 << n) - 1
            assert separates(n, max_index) and not separates(n - 1, max_index), max_index
            assert model.classes == {s: k for k, s in enumerate(ladder(n)[: max_index + 1])}
        assert len(_ladder_model(24).ups) == 14

    def test_ladder_up_to_27_makes_no_proof_search(self, monkeypatch):
        built = []

        class Counted(intprover._Prover):
            def __init__(self, caps):
                built.append(caps)
                super().__init__(caps)

        monkeypatch.setattr(intprover, "_Prover", Counted)
        for k in range(28):
            assert rn_classify(rn_power(k)) == (k if k <= 24 else None)
        assert built == []
        assert rn_classify(imp(var(2), var(2))) == "omega"  # whole: the prover decides
        assert len(built) == 1

    def test_deep_ladder_formula(self):
        # rn_power(200) has about 200 distinct subformulas but an exponential
        # number of occurrences; every walk of the classification visits
        # each distinct subformula once
        assert rn_classify(rn_power(200), max_index=200) == 200

    def test_memo_limit_is_reached_only_on_a_whole_set(self):
        # the proof-search loop ran out of memo here; the frame needs none
        caps = ResourceCaps(memo_limit=10)
        assert rn_classify(rn_power(9), caps=caps) == 9
        with pytest.raises(CapExceeded):
            rn_classify(rn_power("omega"), caps=ResourceCaps(memo_limit=0))


class TestGlivenko:
    def test_classical_laws(self):
        for text in ("p1 | ~p1", "~~p1 -> p1", "((p1 -> p2) -> p1) -> p1"):
            res = glivenko_check(parse_formula(text, CLASSICAL_SIGNATURE))
            assert res["classically_valid"]
            assert res["double_negation_provable"]
            assert res["agree"]

    def test_non_tautology(self):
        res = glivenko_check(parse_formula("p1 -> p2", CLASSICAL_SIGNATURE))
        assert not res["classically_valid"]
        assert not res["double_negation_provable"]
        assert res["agree"]

    def test_iff_expanded(self):
        res = glivenko_check(parse_formula("~~p1 <-> p1", CLASSICAL_SIGNATURE))
        assert res["agree"] and res["classically_valid"]
