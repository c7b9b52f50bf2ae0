"""Propositional language core: signatures, formulas, parsing, printing.

Formulas are interned immutable trees.  Variables are ``p1, p2, ...``;
every other symbol (connective or constant) belongs to a signature.  The
concrete syntax binds ``~ & | -> <->`` to the signature names
``¬ ∧ ∨ → ↔`` when present; any other connective is written prefix, as
``name(arg, ...)``.  Precedence: ``~`` binds tightest, then ``&``, ``|``,
``->`` (right associative), ``<->`` loosest.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

NOT, AND, OR, IMP, IFF = "¬", "∧", "∨", "→", "↔"

_VAR_RE = re.compile(r"p([1-9][0-9]*)$")

# characters that can never appear in a symbol name (they are delimiters)
_RESERVED_CHARS = set("()~&|,<>-= \t\r\n")


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_symbol_name(name: str) -> None:
    if not name:
        raise ValueError("empty symbol name")
    if _VAR_RE.match(name):
        raise ValueError(f"symbol name {name!r} clashes with variable syntax")
    bad = set(name) & _RESERVED_CHARS
    if bad:
        raise ValueError(f"symbol name {name!r} contains reserved characters {sorted(bad)}")


@dataclass(frozen=True)
class Signature:
    """Finite set of connectives with arities.  Arity-0 symbols are constants."""

    operations: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, arity in self.operations:
            _check_symbol_name(name)
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def arity(self, name: str) -> int:
        for op, ar in self.operations:
            if op == name:
                return ar
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(op == name for op, _ in self.operations)

    @property
    def constants(self) -> Tuple[str, ...]:
        return tuple(sorted(op for op, ar in self.operations if ar == 0))

    @property
    def proper_connectives(self) -> Tuple[Tuple[str, int], ...]:
        """Symbols of arity >= 1, in name order."""
        return tuple(sorted((op, ar) for op, ar in self.operations if ar >= 1))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.operations)


INT_SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2})
CLASSICAL_SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, IFF: 2})


class Formula:
    """Immutable propositional formula.  Instances are interned, so equal
    formulas are usually the same object; equality falls back to structure."""

    __slots__ = ("_hash", "_depth")

    _hash: int
    _depth: int

    def __hash__(self) -> int:
        return self._hash

    @property
    def depth(self) -> int:
        return self._depth

    def __repr__(self) -> str:
        return f"Formula({format_formula(self)!r})"

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = ("index",)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Var) and other.index == self.index

    __hash__ = Formula.__hash__


class Const(Formula):
    __slots__ = ("name",)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Const) and other.name == self.name

    __hash__ = Formula.__hash__


class App(Formula):
    __slots__ = ("connective", "args")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, App)
            and self._hash == other._hash
            and other.connective == self.connective
            and other.args == self.args
        )

    __hash__ = Formula.__hash__


_var_pool: Dict[int, Var] = {}
_const_pool: Dict[str, Const] = {}
_app_pool: Dict[Tuple[str, Tuple[Formula, ...]], App] = {}


def var(index: int) -> Var:
    f = _var_pool.get(index)
    if f is None:
        if index < 1:
            raise ValueError("variable indices start at 1")
        f = Var.__new__(Var)
        f.index = index  # type: ignore[misc]
        f._hash = hash(("var", index))
        f._depth = 0
        _var_pool[index] = f
    return f


def const(name: str) -> Const:
    f = _const_pool.get(name)
    if f is None:
        _check_symbol_name(name)
        f = Const.__new__(Const)
        f.name = name  # type: ignore[misc]
        f._hash = hash(("const", name))
        f._depth = 0
        _const_pool[name] = f
    return f


def app(connective: str, args: Sequence[Formula]) -> Formula:
    key = (connective, tuple(args))
    f = _app_pool.get(key)
    if f is None:
        if not args:
            return const(connective)
        f = App.__new__(App)
        f.connective = connective  # type: ignore[misc]
        f.args = key[1]  # type: ignore[misc]
        f._hash = hash(("app", connective, key[1]))
        f._depth = 1 + max(a._depth for a in key[1])
        _app_pool[key] = f
    return f


def neg(a: Formula) -> Formula:
    return app(NOT, (a,))


def conj(a: Formula, b: Formula) -> Formula:
    return app(AND, (a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return app(OR, (a, b))


def imp(a: Formula, b: Formula) -> Formula:
    return app(IMP, (a, b))


def iff(a: Formula, b: Formula) -> Formula:
    return app(IFF, (a, b))


def variables(f: Formula) -> Tuple[int, ...]:
    """Sorted variable indices occurring in f."""
    out: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.index)
        elif isinstance(g, App):
            stack.extend(g.args)
    return tuple(sorted(out))


def subformulas(f: Formula) -> set[Formula]:
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, App):
            stack.extend(g.args)
    return out


# ---------------------------------------------------------------------------
# substitutions


@dataclass(frozen=True)
class Substitution:
    """Finite map from variable indices to formulas; identity elsewhere."""

    bindings: Tuple[Tuple[int, Formula], ...]

    @staticmethod
    def of(mapping: Mapping[int, Formula]) -> "Substitution":
        return Substitution(tuple(sorted(mapping.items())))

    def as_dict(self) -> Dict[int, Formula]:
        return dict(self.bindings)

    def apply(self, f: Formula) -> Formula:
        table = self.as_dict()
        memo: Dict[Formula, Formula] = {}

        def go(g: Formula) -> Formula:
            cached = memo.get(g)
            if cached is not None:
                return cached
            if isinstance(g, Var):
                out = table.get(g.index, g)
            elif isinstance(g, Const):
                out = g
            else:
                assert isinstance(g, App)
                out = app(g.connective, tuple(go(a) for a in g.args))
            memo[g] = out
            return out

        return go(f)

    def compose(self, other: "Substitution") -> "Substitution":
        """self after other: (self.compose(other)).apply(f) == self.apply(other.apply(f))."""
        out = {v: self.apply(t) for v, t in other.bindings}
        for v, t in self.bindings:
            out.setdefault(v, t)
        return Substitution.of(out)


# ---------------------------------------------------------------------------
# printing

_INFIX = {IFF: ("<->", 1), IMP: ("->", 2), OR: ("|", 3), AND: ("&", 4)}
_NEG_PREC = 5


def format_formula(f: Formula) -> str:
    def go(g: Formula, parent_prec: int) -> str:
        if isinstance(g, Var):
            return f"p{g.index}"
        if isinstance(g, Const):
            return g.name
        assert isinstance(g, App)
        name = g.connective
        if name == NOT and len(g.args) == 1:
            body = go(g.args[0], _NEG_PREC)
            text = "~" + body
            return text  # unary never needs outer parens at higher levels
        entry = _INFIX.get(name)
        if entry is not None and len(g.args) == 2:
            symbol, prec = entry
            if name in (IMP, IFF):  # right associative
                left = go(g.args[0], prec + 1)
                right = go(g.args[1], prec)
            else:  # left associative
                left = go(g.args[0], prec)
                right = go(g.args[1], prec + 1)
            text = f"{left} {symbol} {right}"
            if prec < parent_prec:
                text = f"({text})"
            return text
        return f"{name}({', '.join(go(a, 0) for a in g.args)})"

    return go(f, 0)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"<->|->|[()~&|,]|[^()~&|,<>\-=\s]+")

_SYMBOL_BINDINGS = {"~": NOT, "&": AND, "|": OR, "->": IMP, "<->": IFF}


def _tokenize(text: str) -> List[Tuple[str, int]]:
    tokens: List[Tuple[str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, int]], signature: Signature, length: int):
        self.tokens = tokens
        self.sig = signature
        self.i = 0
        self.length = length

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_imp()
        if self.peek() == "<->":
            self.i += 1
            name = _SYMBOL_BINDINGS["<->"]
            if name not in self.sig:
                raise ParseError(f"operator '<->' has no connective {name!r} in signature", self.pos())
            right = self.parse_iff()
            return app(name, (left, right))
        return left

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek() == "->":
            self.i += 1
            name = _SYMBOL_BINDINGS["->"]
            if name not in self.sig:
                raise ParseError(f"operator '->' has no connective {name!r} in signature", self.pos())
            right = self.parse_imp()  # right associative
            return app(name, (left, right))
        return left

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek() == "|":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS["|"]
            if name not in self.sig:
                raise ParseError(f"operator '|' has no connective {name!r} in signature", pos)
            out = app(name, (out, self.parse_and()))
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek() == "&":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS["&"]
            if name not in self.sig:
                raise ParseError(f"operator '&' has no connective {name!r} in signature", pos)
            out = app(name, (out, self.parse_unary()))
        return out

    def parse_unary(self) -> Formula:
        if self.peek() == "~":
            pos = self.pos()
            self.i += 1
            name = _SYMBOL_BINDINGS["~"]
            if name not in self.sig:
                raise ParseError(f"operator '~' has no connective {name!r} in signature", pos)
            return app(name, (self.parse_unary(),))
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        pos = self.pos()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok == "(":
            self.i += 1
            out = self.parse_formula()
            self.expect(")")
            return out
        if tok in ("", ")", ","):
            raise ParseError(f"unexpected token {tok!r}", pos)
        self.i += 1
        m = _VAR_RE.match(tok)
        if m:
            return var(int(m.group(1)))
        if tok in self.sig:
            arity = self.sig.arity(tok)
            if arity == 0:
                return const(tok)
            self.expect("(")
            args = [self.parse_formula()]
            while self.peek() == ",":
                self.i += 1
                args.append(self.parse_formula())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"connective {tok!r} expects {arity} arguments, got {len(args)}", pos
                )
            return app(tok, tuple(args))
        raise ParseError(f"unknown symbol {tok!r}", pos)


def parse_formula(text: str, signature: Signature = CLASSICAL_SIGNATURE) -> Formula:
    tokens = _tokenize(text)
    parser = _Parser(tokens, signature, len(text))
    out = parser.parse_formula()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek()!r}", parser.pos())
    return out


# ---------------------------------------------------------------------------
# canonical enumeration

def enumerate_formulas(
    signature: Signature,
    n_vars: int,
    max_depth: Optional[int] = None,
    max_count: Optional[int] = None,
) -> Iterator[Formula]:
    """Yield all formulas over p1..pn and the signature in canonical order.

    Canonical order is by depth, then within a depth stratum: variables by
    index, constants by name (depth 0); compound formulas by connective name,
    then argument positions left to right, arguments compared by their own
    position in this enumeration.
    """
    ordered: List[Formula] = []
    count = 0

    class CapHint(Exception):
        pass

    def emit(f: Formula) -> Formula:
        nonlocal count
        count += 1
        if max_count is not None and count > max_count:
            raise CapHint
        ordered.append(f)
        return f

    try:
        for i in range(1, n_vars + 1):
            yield emit(var(i))
        for name in signature.constants:
            yield emit(const(name))
        depth = 1
        while max_depth is None or depth <= max_depth:
            start = len(ordered)
            prev = list(ordered)  # everything of depth < current
            for name, arity in signature.proper_connectives:
                for combo in itertools.product(range(len(prev)), repeat=arity):
                    args = tuple(prev[i] for i in combo)
                    if max(a.depth for a in args) != depth - 1:
                        continue
                    yield emit(app(name, args))
            if len(ordered) == start:
                return  # no formulas at this depth; none deeper either
            depth += 1
    except CapHint:
        return
