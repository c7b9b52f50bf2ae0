import itertools
import random
from unittest import mock

import pytest

from matlogic import (
    CheckResult,
    EDerivation,
    Equality,
    Signature,
    Step,
    Substitution,
    app,
    bridge_implicational,
    check_e_derivation,
    conj,
    decide_ground_equational,
    disj,
    enumerate_formulas,
    eq_consequence,
    ground_closure,
    imp,
    make_preset,
    neg,
    parse_equality,
    s_translate,
    var,
)

from matlogic import lang
from conftest import eq_refuter_slow


SIG = Signature.of({"¬": 1, "∧": 2, "∨": 2, "→": 2})


def eq(text):
    return parse_equality(text, SIG)


class TestParseEquality:
    def test_basic(self):
        e = eq("p1 ~ ~p2")
        assert e.lhs == var(1) and e.rhs == neg(var(2))

    def test_separator_inside_operators(self):
        e = eq("p1 & p2 ~ p2 & p1")
        assert e.lhs == conj(var(1), var(2))

    def test_str_round_trip(self):
        e = eq("p1 -> p2 ~ p2")
        assert parse_equality(str(e), SIG) == e

    @pytest.mark.parametrize(
        "text, depths",
        [
            ("~" * 3000 + "p1 ~ p1", (3000, 0)),
            ("p1 ~ " + "~" * 3000 + "p1", (0, 3000)),
            ("~" * 3000 + "p1", None),
        ],
        ids=["deep-left", "deep-right", "no-split"],
    )
    def test_a_few_parses_whatever_the_count_of_tildes(self, text, depths):
        # only the separator where a parse of the whole input stops, and the
        # last one for the error, are tried
        with mock.patch("matlogic.eqlogic._parse", wraps=lang._parse) as parse:
            if depths is None:
                with pytest.raises(lang.ParseError, match="unexpected end of input"):
                    eq(text)
            else:
                e = eq(text)
                assert (e.lhs.depth, e.rhs.depth) == depths
        assert parse.call_count <= 5

    @pytest.mark.parametrize(
        "text",
        ["p1 ~ p2", "~p1 ~ ~~p2", "p1 & ~p2 ~ ~(p2 -> p1)", "p1 ~ " + "~" * 3000 + "p1"],
    )
    def test_a_well_formed_equality_is_parsed_once_a_side(self, text):
        with mock.patch("matlogic.eqlogic._parse", wraps=lang._parse) as parse:
            eq(text)
        assert parse.call_count == 2


class TestDerivationChecking:
    def test_e1_symmetry_and_transitivity(self):
        prem = [eq("p1 ~ p2"), eq("p2 ~ p3")]
        deriv = EDerivation(
            "E1",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p2 ~ p3"), "premise"),
                Step(eq("p1 ~ p3"), "trans", (0, 1)),
                Step(eq("p3 ~ p1"), "sym", (2,)),
            ),
        )
        assert check_e_derivation(deriv, prem).ok

    def test_e1_congruence(self):
        prem = [eq("p1 ~ p2")]
        deriv = EDerivation(
            "E1",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p3 ~ p3"), "axiom"),
                Step(eq("p1 & p3 ~ p2 & p3"), "cong", (0, 1), connective="∧"),
            ),
        )
        assert check_e_derivation(deriv, prem).ok

    def test_cong_with_too_few_references_interns_nothing(self, forget_new_formulas):
        prem = [eq("p1 ~ p2")]
        deriv = EDerivation(
            "E1",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p1 & p1 ~ p2 & p2"), "cong", (0,), connective="∧"),
            ),
        )
        malformed = ("∧", (var(1),))
        assert malformed not in lang._app_pool
        res = check_e_derivation(deriv, prem)
        reason = "cong has 1 references for 2 arguments"
        assert (res.ok, res.step_index, res.reason) == (False, 1, reason)
        assert malformed not in lang._app_pool

    def test_e1_rejects_wrong_transitivity(self):
        prem = [eq("p1 ~ p2")]
        deriv = EDerivation(
            "E1",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p1 ~ p3"), "trans", (0, 0)),
            ),
        )
        res = check_e_derivation(deriv, prem)
        assert not res.ok and res.step_index == 1

    def test_e2_simultaneous_replacement(self):
        prem = [eq("p1 ~ p2"), eq("p3 ~ p1")]
        base = eq("p1 & p3 ~ p1 & p3")
        deriv = EDerivation(
            "E2",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p3 ~ p1"), "premise"),
                Step(base, "axiom"),
                Step(
                    eq("p2 & p1 ~ p1 & p3"),
                    "replace",
                    (2,),
                    occurrences=(
                        (("l", (0,)), 0),
                        (("l", (1,)), 1),
                    ),
                ),
            ),
        )
        assert check_e_derivation(deriv, prem).ok

    def test_e3_rejects_two_distinct_equations(self):
        prem = [eq("p1 ~ p2"), eq("p3 ~ p1")]
        deriv = EDerivation(
            "E3",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("p3 ~ p1"), "premise"),
                Step(eq("p1 & p3 ~ p1 & p3"), "axiom"),
                Step(
                    eq("p2 & p1 ~ p1 & p3"),
                    "replace",
                    (2,),
                    occurrences=((("l", (0,)), 0), (("l", (1,)), 1)),
                ),
            ),
        )
        res = check_e_derivation(deriv, prem)
        assert not res.ok

    def test_e1_rejects_replace(self):
        deriv = EDerivation(
            "E1",
            (
                Step(eq("p1 ~ p1"), "axiom"),
                Step(eq("p1 ~ p1"), "replace", (0,), occurrences=((("l", ()), 0),)),
            ),
        )
        assert not check_e_derivation(deriv, []).ok

    def test_substitution_rule_only_in_s_variants(self):
        prem = [eq("p1 ~ ~p1")]
        sub = Substitution.of({1: conj(var(2), var(3))})
        steps = (
            Step(eq("p1 ~ ~p1"), "premise"),
            Step(
                Equality(conj(var(2), var(3)), neg(conj(var(2), var(3)))),
                "subst",
                (0,),
                substitution=sub,
            ),
        )
        assert check_e_derivation(EDerivation("E1s", steps), prem).ok
        assert not check_e_derivation(EDerivation("E1", steps), prem).ok

    def test_overlapping_occurrences_rejected(self):
        prem = [eq("p1 ~ p2")]
        deriv = EDerivation(
            "E2",
            (
                Step(eq("p1 ~ p2"), "premise"),
                Step(eq("~p1 ~ ~p1"), "axiom"),
                Step(
                    eq("~p2 ~ ~p1"),
                    "replace",
                    (1,),
                    occurrences=((("l", ()), 0), (("l", (0,)), 0)),
                ),
            ),
        )
        res = check_e_derivation(deriv, prem)
        assert not res.ok and "overlap" in res.reason

    @pytest.mark.parametrize(
        "occurrence, reason",
        [
            ((("l", (-3,)), 0), "path ('l', (-3,)) does not address a subterm"),
            ((("l", (0,)), 9), "reference to a non-preceding step"),
            ((("l", (0,)), -1), "reference to a non-preceding step"),
        ],
    )
    def test_occurrences_outside_the_derivation_fail_their_step(self, occurrence, reason):
        steps = (
            Step(eq("p1 ~ p2"), "premise"),
            Step(eq("~p1 ~ ~p1"), "axiom"),
            Step(eq("~p2 ~ ~p1"), "replace", (1,), occurrences=(occurrence,)),
        )
        res = check_e_derivation(EDerivation("E2", steps), [eq("p1 ~ p2")])
        assert (res.ok, res.step_index, res.reason) == (False, 2, reason)


    def test_replacement_deep_in_a_term(self):
        # p1 under 3,000 alternating disjunctions and negations
        def tower(f):
            for i in range(3000):
                f = neg(f) if i % 2 else disj(f, var(3))
            return f

        down = ("l", (0,) * 3000)
        base = Equality(tower(var(1)), tower(var(1)))
        steps = (
            Step(eq("p1 ~ p2"), "premise"),
            Step(base, "axiom"),
            Step(Equality(tower(var(2)), tower(var(1))), "replace", (1,), occurrences=((down, 0),)),
        )
        assert check_e_derivation(EDerivation("E3", steps), [eq("p1 ~ p2")]).ok
        beyond = (("l", (0,) * 3001), 0)
        res = check_e_derivation(
            EDerivation("E3", steps[:2] + (Step(base, "replace", (1,), occurrences=(beyond,)),)),
            [eq("p1 ~ p2")],
        )
        assert not res.ok and "does not address" in res.reason

class TestGroundDecider:
    def test_transitive_chain(self):
        premises = [eq("p1 ~ p2"), eq("p2 ~ p3")]
        ok, _ = decide_ground_equational(premises, eq("p1 ~ p3"))
        assert ok

    def test_congruence_propagation(self):
        premises = [eq("p1 ~ p2")]
        ok, _ = decide_ground_equational(premises, eq("~p1 ~ ~p2"))
        assert ok

    def test_nested_propagation(self):
        premises = [eq("p1 ~ p2"), eq("~p2 ~ p3")]
        ok, _ = decide_ground_equational(premises, eq("~p1 ~ p3"))
        assert ok

    def test_negative(self):
        ok, _ = decide_ground_equational([eq("p1 ~ p2")], eq("p1 ~ p3"))
        assert not ok

    def test_variables_opaque(self):
        # no substitution happens: p1 ~ p2 does not give p3 ~ p4
        ok, _ = decide_ground_equational([eq("p1 ~ p2")], eq("p3 ~ p4"))
        assert not ok


def brute_force_e1(premises, goal, max_rounds=6):
    """Saturation over the subterm universe: naive E1-style closure."""
    from matlogic import subformulas

    universe = set()
    for e in list(premises) + [goal]:
        universe |= set(subformulas(e.lhs)) | set(subformulas(e.rhs))
    related = {(t, t) for t in universe}
    related |= {(e.lhs, e.rhs) for e in premises if e.lhs in universe and e.rhs in universe}
    for _ in range(max_rounds):
        new = set()
        for (a, b) in related:
            if (b, a) not in related:
                new.add((b, a))
        for (a, b) in related:
            for (c, d) in related:
                if b == c and (a, d) not in related:
                    new.add((a, d))
        # one-step congruence inside the universe
        for t in universe:
            if not hasattr(t, "args"):
                continue
            for i, arg in enumerate(t.args):
                for (a, b) in related:
                    if a == arg:
                        lifted = app(t.connective, t.args[:i] + (b,) + t.args[i + 1 :])
                        if lifted in universe and (t, lifted) not in related:
                            new.add((t, lifted))
        if not new:
            break
        related |= new
    return (goal.lhs, goal.rhs) in related


class TestGroundAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(20260826)

        def rand_term(depth):
            if depth == 0 or rng.random() < 0.4:
                return var(rng.randint(1, 3))
            if rng.random() < 0.3:
                return neg(rand_term(depth - 1))
            return conj(rand_term(depth - 1), rand_term(depth - 1))

        for _ in range(100):
            premises = [
                Equality(rand_term(2), rand_term(2)) for _ in range(rng.randint(1, 3))
            ]
            goal = Equality(rand_term(2), rand_term(2))
            fast, _ = decide_ground_equational(premises, goal)
            assert fast == brute_force_e1(premises, goal)


class TestEqConsequence:
    def test_el_vs_e_separation(self):
        b2c = make_preset("B2c")
        sig = b2c.algebra.signature
        prem = [parse_equality("p1 ~ ⊤", sig)]
        goal = parse_equality("p1 ~ ~⊤", sig)
        e = eq_consequence("E", [b2c.algebra], prem, goal)
        el = eq_consequence("EL", [b2c.algebra], prem, goal)
        assert not e.holds
        assert el.holds

    def test_e_mode_valid_inference(self):
        b2c = make_preset("B2c")
        sig = b2c.algebra.signature
        prem = [parse_equality("p1 ~ p2", sig)]
        goal = parse_equality("~p1 ~ ~p2", sig)
        assert eq_consequence("E", [b2c.algebra], prem, goal).holds

    def test_e_mode_counterexample_reported(self):
        b2c = make_preset("B2c")
        sig = b2c.algebra.signature
        res = eq_consequence(
            "E", [b2c.algebra], [], parse_equality("p1 ~ ⊤", sig)
        )
        assert not res.holds
        assert res.algebra_index == 0
        assert res.assignment is not None

    @pytest.mark.parametrize("mode", ["E", "EL"])
    def test_matches_slow_oracle(self, mode):
        b2c = make_preset("B2c").algebra
        chains = [make_preset("Gn", 3).algebra, make_preset("L3").algebra]
        # holds identically in L3 and B2c, not in G3: EL then skips G3
        involution = Equality(neg(neg(var(1))), var(1))
        for algebras in ([b2c], chains):
            sig = algebras[0].signature
            terms = list(enumerate_formulas(sig, n_vars=2, max_depth=2, max_count=40))
            equalities = [Equality(a, b) for a, b in itertools.combinations(terms, 2)][::7]
            for i, goal in enumerate(equalities):
                premises = [[], [equalities[(5 * i) % len(equalities)]], [involution]][i % 3]
                res = eq_consequence(mode, algebras, premises, goal)
                expected = eq_refuter_slow(mode, algebras, premises, goal)
                assert res.holds == (expected is None)
                assert (res.algebra_index, res.assignment) == (expected or (None, None))


class TestBridges:
    def test_translation_shape(self):
        e = eq("p1 ~ p2")
        t = s_translate(e)
        assert t == conj(imp(var(1), var(2)), imp(var(2), var(1)))

    def test_eb_proves_distributivity(self):
        sig = make_preset("B2c").algebra.signature
        goal = parse_equality("p1 & (p2 | p3) ~ (p1 & p2) | (p1 & p3)", sig)
        assert bridge_implicational("EB", [], goal).holds

    def test_eh_refuses_double_negation(self):
        sig = make_preset("B2c").algebra.signature
        goal = parse_equality("~~p1 ~ p1", sig)
        assert not bridge_implicational("EH", [], goal).holds

    def test_eh_proves_intuitionistic_identity(self):
        goal = eq("p1 & p1 ~ p1")
        assert bridge_implicational("EH", [], goal).holds

    def test_eh_rejects_constants(self):
        sig = make_preset("B2c").algebra.signature
        goal = parse_equality("⊤ ~ ⊤", sig)
        with pytest.raises(ValueError):
            bridge_implicational("EH", [], goal)

    def test_eb_rejects_constants_outside_b2c(self):
        goal = parse_equality("c ~ c", Signature.of({"c": 0, "∧": 2}))
        with pytest.raises(ValueError, match="connective 'c'/0 not supported by B2c"):
            bridge_implicational("EB", [], goal)

    def test_bridge_with_premises(self):
        goal = eq("p1 ~ p3")
        prem = [eq("p1 ~ p2"), eq("p2 ~ p3")]
        assert bridge_implicational("EB", prem, goal).holds
        assert bridge_implicational("EH", prem, goal).holds
