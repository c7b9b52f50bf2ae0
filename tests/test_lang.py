import pytest

from matlogic import lang
from matlogic import (
    CLASSICAL_SIGNATURE,
    const,
    INT_SIGNATURE,
    App,
    Const,
    ParseError,
    Signature,
    Substitution,
    Var,
    app,
    conj,
    disj,
    enumerate_formulas,
    expand_iff,
    format_formula,
    iff,
    imp,
    neg,
    parse_formula,
    rn_power,
    subformulas,
    var,
    variables,
)

from conftest import settled_pool_size


class TestSignature:
    def test_of_and_lookup(self):
        sig = Signature.of({"¬": 1, "→": 2, "0": 0})
        assert sig.arity("¬") == 1
        assert sig.arity("→") == 2
        assert "0" in sig
        assert "∧" not in sig
        assert sig.constants == ("0",)

    def test_rejects_variable_shaped_names(self):
        with pytest.raises(ValueError):
            Signature.of({"p1": 1})

    def test_rejects_reserved_characters(self):
        for bad in ("(", "a b", "x,y", "~"):
            with pytest.raises(ValueError):
                Signature.of({bad: 1})


class TestFormulaConstruction:
    def test_interning(self):
        f = imp(var(1), var(2))
        g = imp(var(1), var(2))
        assert f is g

    def test_variables_sorted_unique(self):
        f = conj(var(3), imp(var(1), var(3)))
        assert variables(f) == (1, 3)

    def test_subformulas(self):
        f = imp(var(1), neg(var(1)))
        subs = subformulas(f)
        assert var(1) in subs and neg(var(1)) in subs and f in subs

    def test_parser_enforces_arity(self):
        sig = Signature.of({"□": 1, "→": 2})
        with pytest.raises(ParseError):
            parse_formula("□(p1, p2)", sig)


POOL_SIGNATURE = Signature.of(
    {"¬": 1, "∧": 2, "∨": 2, "→": 2, "↔": 2, "□": 1, "⊥": 0, "t": 3}
)
PARSED = [
    parse_formula(text, POOL_SIGNATURE)
    for text in [
        "p1",
        "⊥",
        "~p1 -> p2 & p1 | ⊥",
        "□(p1 <-> □(p1)) <-> (p1 <-> p2)",
        "t(p1, ~p2, t(⊥, p1 & p1, □(p3))) -> p1",
        "(p1 -> p2) -> (p2 -> p3) -> p1 -> p3",
    ]
]
OUTPUTS = {
    "parse_formula": lambda: PARSED,
    "Substitution.apply": lambda: [
        Substitution.of({1: parse_formula("p2 <-> □(⊥)", POOL_SIGNATURE), 3: var(1)}).apply(f)
        for f in PARSED
    ],
    "expand_iff": lambda: [expand_iff(f) for f in PARSED],
    "rn_power": lambda: [rn_power(k, 2) for k in range(31)] + [rn_power("omega")],
    "enumerate_formulas": lambda: enumerate_formulas(
        POOL_SIGNATURE, n_vars=2, max_depth=2, max_count=600
    ),
}


class TestInterning:
    """Every formula the library returns is built through the pools, so
    equal formulas are the same object and identity equality is sound."""

    @pytest.mark.parametrize("source", sorted(OUTPUTS))
    def test_every_node_is_the_pooled_one(self, source):
        for f in OUTPUTS[source]():
            for g in lang._postorder([f])[1]:
                if isinstance(g, App):
                    assert app(g.connective, g.args) is g
                elif isinstance(g, Var):
                    assert var(g.index) is g
                else:
                    assert const(g.name) is g
            assert parse_formula(str(f), POOL_SIGNATURE) is f, str(f)


class TestSubstitution:
    def test_apply(self):
        s = Substitution.of({1: neg(var(2))})
        assert s.apply(imp(var(1), var(1))) == imp(neg(var(2)), neg(var(2)))


class TestParser:
    def test_round_trip(self):
        texts = [
            "p1 -> p2 -> p3",
            "~(p1 & p2) <-> (~p1 | ~p2)",
            "((p1 -> p2) -> p1) -> p1",
            "p1 & p2 & p3 | p4",
        ]
        for text in texts:
            f = parse_formula(text, CLASSICAL_SIGNATURE)
            again = parse_formula(format_formula(f), CLASSICAL_SIGNATURE)
            assert f == again

    def test_precedence(self):
        f = parse_formula("~p1 & p2 | p3 -> p4", CLASSICAL_SIGNATURE)
        assert f == imp(disj(conj(neg(var(1)), var(2)), var(3)), var(4))

    def test_implication_right_associative(self):
        f = parse_formula("p1 -> p2 -> p3", CLASSICAL_SIGNATURE)
        assert f == imp(var(1), imp(var(2), var(3)))

    def test_named_connective_prefix_form(self):
        sig = Signature.of({"→": 2, "□": 1, "0": 0})
        f = parse_formula("□(p1 -> 0)", sig)
        assert f == app("□", (imp(var(1), const("0")),))

    def test_error_position(self):
        with pytest.raises(ParseError):
            parse_formula("p1 ->", CLASSICAL_SIGNATURE)
        with pytest.raises(ParseError):
            parse_formula("p1 & & p2", CLASSICAL_SIGNATURE)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("p1 -> q", CLASSICAL_SIGNATURE)

    @pytest.mark.parametrize(
        "text", ["p1 -> p2", "p1 ->", "p1 <-> p2", "p1 <->", "p1 & p2", "p1 | p2"]
    )
    def test_missing_operator_connective_is_reported_at_the_operator(self, text):
        sig = Signature.of({"¬": 1})
        with pytest.raises(ParseError) as info:
            parse_formula(text, sig)
        assert info.value.position == 3
        assert str(info.value).startswith(f"operator {text.split()[1]!r} has no connective")


def _nested(step, depth=3000):
    f = var(1)
    for _ in range(depth):
        f = step(f)
    return f


DEEP_SIGNATURE = Signature.of({"¬": 1, "∧": 2, "∨": 2, "→": 2, "↔": 2, "□": 1})


@pytest.mark.usefixtures("forget_new_formulas")
class TestDeepNesting:
    """Parsing and printing use no recursion, so nesting depth is unbounded."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("connective", ["∧", "∨", "→", "↔"])
    def test_binary_round_trip(self, connective, side):
        if side == "left":
            f = _nested(lambda g: app(connective, (g, var(1))))
        else:
            f = _nested(lambda g: app(connective, (var(1), g)))
        assert parse_formula(str(f), DEEP_SIGNATURE) == f

    @pytest.mark.parametrize("connective", ["¬", "□"], ids=["negation", "prefix"])
    def test_unary_round_trip(self, connective):
        f = _nested(lambda g: app(connective, (g,)))
        assert parse_formula(str(f), DEEP_SIGNATURE) == f

    def test_parentheses(self):
        assert parse_formula("(" * 3000 + "p1" + ")" * 3000, DEEP_SIGNATURE) == var(1)
        f = _nested(lambda g: neg(neg(g)), 1500)
        text = "~(" * 3000 + "p1" + ")" * 3000
        assert parse_formula(text, DEEP_SIGNATURE) == f
        assert parse_formula(str(f), DEEP_SIGNATURE) == f


class TestSweep:
    def test_a_held_formula_survives_and_a_dropped_one_goes(self):
        before = settled_pool_size()
        held = parse_formula("(p71 -> p72) & ~p73")
        parse_formula("p74 | (p75 <-> p76)")  # dropped at once
        lang.sweep()
        assert parse_formula(str(held)) is held
        assert len(lang._app_pool) == before + 3  # held, p71 -> p72 and ~p73

    def test_a_dropped_deep_chain_goes_in_one_sweep(self):
        before = settled_pool_size()
        f = _nested(lambda g: app("∧", (g, var(1))))
        assert len(str(f)) > 3000  # a text on every link
        del f
        lang.sweep()
        assert len(lang._app_pool) == before


class TestEnumeration:
    def test_depth_zero_first(self):
        sig = Signature.of({"→": 2, "0": 0})
        first_two = []
        for f in enumerate_formulas(sig, n_vars=1, max_depth=0, max_count=10):
            first_two.append(f)
        assert first_two == [var(1), const("0")]

    def test_depth_one_order(self):
        sig = Signature.of({"→": 2, "0": 0})
        got = list(enumerate_formulas(sig, n_vars=1, max_depth=1, max_count=100))
        z = const("0")
        expected_tail = [
            imp(var(1), var(1)),
            imp(var(1), z),
            imp(z, var(1)),
            imp(z, z),
        ]
        assert got[:2] == [var(1), z]
        assert got[2:] == expected_tail

    def test_count_cap(self):
        got = list(
            enumerate_formulas(CLASSICAL_SIGNATURE, n_vars=2, max_depth=3, max_count=50)
        )
        assert len(got) == 50
