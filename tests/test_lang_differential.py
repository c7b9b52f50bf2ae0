"""The formula tokenizer, parser, printer and equality splitter against the
code they replaced (the oracles in conftest): the same formula, or a
ParseError with the same text.

The one intended difference: a missing ``->`` or ``<->`` connective is now
reported at the operator's own position, as ``~``, ``&`` and ``|`` always
were, so that error is compared without its position."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from matlogic import (
    ParseError,
    Signature,
    app,
    const,
    format_formula,
    parse_equality,
    parse_formula,
    var,
)
from matlogic.lang import AND, IFF, IMP, NOT, OR

from conftest import format_formula_slow, parse_equality_slow, parse_formula_slow, tokenize_slow

SIGNATURES = [
    Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, IFF: 2, "c": 0, "u": 1, "b": 2, "t": 3}),
    Signature.of({NOT: 1, OR: 2, IFF: 2, "c": 0, "b": 2}),  # no → and no ∧
    Signature.of({NOT: 2, AND: 2, IMP: 2, "u": 1, "t": 3}),  # ¬ is binary
    Signature.of({AND: 1, OR: 3, IMP: 2, "c": 0, "d": 0}),  # no ¬ or ↔
]
# names of arity 0-3 somewhere above, the operators' own names, and "q",
# which no signature has
NAMES = ["c", "d", "u", "b", "t", "q", NOT, AND, OR, IMP, IFF]
TOKENS = ["p1", "p2", "p3", "~", "&", "|", "->", "<->", "(", ")", ","] + NAMES
# characters that start no token on their own, and whitespace other than a
# space: no-break space, em space and the file separator
STRAY = ["-", "<", ">", "=", "\t", "\u00a0", "\u2003", "\x1c"]

_MOVED = re.compile(r"(operator '(?:->|<->)' has no connective .*) \(at position \d+\)$")


def outcome(parse, text, sig):
    """The parsed result, or the ParseError's text (a moved position dropped)."""
    try:
        return parse(text, sig)
    except ParseError as exc:
        return ("ParseError", _MOVED.sub(r"\1", str(exc)))


def equality_outcome(text, sig):
    got = outcome(parse_equality, text, sig)
    return got if isinstance(got, tuple) else (got.lhs, got.rhs)


signatures = st.sampled_from(SIGNATURES)


@st.composite
def token_strings(draw):
    """Random tokens and stray characters, each followed by a space or by
    nothing."""
    token = st.tuples(st.sampled_from(TOKENS + STRAY), st.sampled_from([" ", ""]))
    parts = draw(st.lists(token, max_size=14))
    return "".join(tok + sep for tok, sep in parts)


def formulas(connectives, constants=()):
    leaves = st.one_of(st.integers(1, 3).map(var), *[st.just(const(c)) for c in constants])

    def extend(kids):
        return st.sampled_from(connectives).flatmap(
            lambda entry: st.tuples(*[kids] * entry[1]).map(lambda args: app(entry[0], args))
        )

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def signature_formulas(draw):
    sig = draw(signatures)
    return sig, draw(formulas(sig.proper_connectives, sig.constants))


@st.composite
def mutated(draw, text):
    """The text's tokens with 0-2 of them inserted, deleted or replaced."""
    tokens = [tok for tok, _ in tokenize_slow(text)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            tokens.insert(at, draw(st.sampled_from(TOKENS)))
        elif at < len(tokens):
            if edit == "delete":
                del tokens[at]
            else:
                tokens[at] = draw(st.sampled_from(TOKENS))
    return " ".join(tokens)


class TestParserAgainstRecursiveDescent:
    @settings(max_examples=1000, deadline=None)
    @given(token_strings(), signatures)
    def test_random_token_strings(self, text, sig):
        assert outcome(parse_formula, text, sig) == outcome(parse_formula_slow, text, sig)

    @settings(max_examples=400, deadline=None)
    @given(signature_formulas(), st.data())
    def test_mutated_printed_formulas(self, case, data):
        sig, f = case
        text = data.draw(mutated(format_formula_slow(f)))
        assert outcome(parse_formula, text, sig) == outcome(parse_formula_slow, text, sig)


class TestEqualityAgainstRecursiveDescent:
    @settings(max_examples=800, deadline=None)
    @given(token_strings(), signatures)
    def test_random_token_strings(self, text, sig):
        assert equality_outcome(text, sig) == outcome(parse_equality_slow, text, sig)

    @settings(max_examples=300, deadline=None)
    @given(signature_formulas(), signature_formulas(), st.data())
    def test_mutated_printed_equalities(self, left, right, data):
        sig, lhs = left
        rhs = right[1]
        text = data.draw(mutated(f"{format_formula_slow(lhs)} ~ {format_formula_slow(rhs)}"))
        assert equality_outcome(text, sig) == outcome(parse_equality_slow, text, sig)


# every operator name at 1-3 arguments, plus prefix names of arity 0-3
PRINTER_CONNECTIVES = [(name, n) for name in (NOT, AND, OR, IMP, IFF) for n in (1, 2, 3)] + [
    ("u", 1),
    ("b", 2),
    ("t", 3),
]


class TestPrinterAgainstRecursivePrinter:
    @settings(max_examples=400, deadline=None)
    @given(formulas(PRINTER_CONNECTIVES, ["c", "d"]))
    def test_random_formulas(self, f):
        assert format_formula(f) == format_formula_slow(f)
        assert str(f) == format_formula_slow(f)


# well-formed texts over SIGNATURES[0] that use every operator, a constant and
# prefix connectives of one to three arguments
POSITION_FORMULAS = [
    "~(p1 & b(p2, c)) -> t(p1, u(p2), p3) <-> p1 | ~p2",
    "u(~p1)&(p2|c)->p3",
]
POSITION_EQUALITIES = [
    "b(p1, ~p2) & c ~ t(p1, p2, p3) -> ~u(p1)",
    "~p1~~p2",
    "(p1 ~ p2) ~ p3",
]
# errors at the end of the input, and arity errors of prefix connectives
END_AND_ARITY_FORMULAS = [
    "", " ", "p1 &", "p1 ->", "p1 <->  ", "~", "(", "(p1", "b(p1,", "b(p1", "t(p1, p2",
    "u", "u(", "b(p1)", "t(p1, p2)", "u(p1, p2)", "b(p1, p2, p3)", "t(p1, p2, p3, p1)",
    "~b(p1) & p2", "u(b(p1, p2, p3))", "p1 & )", "b(, p1)",
]
END_AND_ARITY_EQUALITIES = [
    "p1 ~", "~", "p1 ~ p2 |", "p1 & ~", "p1 ~ b(p1,", "b(p1) ~ p2", "p1 ~ t(p1, p2)",
    "u(p1, p2) ~ p1 ~ p2", "p1 ~ ~", "(p1 ~ p2", "p1 ~ p2)", "p1 p2 ~ p3", "p1 ~ p2 p3",
]


def with_stray(text):
    """text with one of '<', '>', '-', '=', '~' inserted at each position."""
    return [text[:k] + ch + text[k:] for k in range(len(text) + 1) for ch in "<>-=~"]


class TestErrorPositionsAgainstRecursiveDescent:
    @pytest.mark.parametrize("sig", SIGNATURES, ids=range(len(SIGNATURES)))
    def test_formulas_with_a_stray_character_anywhere(self, sig):
        for base in POSITION_FORMULAS:
            for text in [base, *with_stray(base)]:
                got = outcome(parse_formula, text, sig)
                assert got == outcome(parse_formula_slow, text, sig), text

    @pytest.mark.parametrize("sig", SIGNATURES, ids=range(len(SIGNATURES)))
    def test_equalities_with_a_stray_character_anywhere(self, sig):
        for base in POSITION_EQUALITIES:
            for text in [base, *with_stray(base)]:
                got = equality_outcome(text, sig)
                assert got == outcome(parse_equality_slow, text, sig), text

    @pytest.mark.parametrize("sig", SIGNATURES, ids=range(len(SIGNATURES)))
    def test_errors_at_the_end_and_of_arity(self, sig):
        for text in END_AND_ARITY_FORMULAS:
            got = outcome(parse_formula, text, sig)
            assert got == outcome(parse_formula_slow, text, sig), text
        for text in END_AND_ARITY_FORMULAS + END_AND_ARITY_EQUALITIES:
            got = equality_outcome(text, sig)
            assert got == outcome(parse_equality_slow, text, sig), text

    def test_the_cases_reach_each_kind_of_error(self):
        sig = SIGNATURES[0]
        texts = [t for base in POSITION_FORMULAS for t in with_stray(base)]
        texts += END_AND_ARITY_FORMULAS
        messages = []
        for text in texts:
            try:
                parse_formula(text, sig)
            except ParseError as exc:
                messages.append(str(exc))
        for kind in [
            "unexpected character",
            "unexpected end of input",
            "unexpected token",
            "unknown symbol",
            "expected '('",
            "expected ')'",
            "trailing input",
            "connective 'b' expects 2 arguments",
            "connective 't' expects 3 arguments",
        ]:
            assert any(m.startswith(kind) for m in messages), kind
