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
