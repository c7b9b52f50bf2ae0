"""Propositional language core: signatures, formulas, parsing, printing.

Formulas are interned immutable DAGs: each is built once, through ``var``,
``const`` and ``app``, so equal formulas are the same object and compare and
hash by identity.  Variables are ``p1, p2, ...``; every other symbol
(connective or constant) belongs to a signature.  The concrete syntax binds
``~ & | -> <->`` to the signature names ``¬ ∧ ∨ → ↔`` when present; any
other connective is written prefix, as ``name(arg, ...)``.  Precedence: ``~``
binds tightest, then ``&``, ``|``, ``->`` (right associative), ``<->``
loosest.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

NOT, AND, OR, IMP, IFF = "¬", "∧", "∨", "→", "↔"
TOP, BOT = "⊤", "⊥"

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
        arities: Dict[str, int] = {}
        for name, arity in self.operations:
            _check_symbol_name(name)
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            if name in arities:
                raise ValueError(f"duplicate symbol {name!r}")
            arities[name] = arity
        object.__setattr__(self, "_arities", arities)

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def arity(self, name: str) -> int:
        return self._arities[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    @cached_property
    def _syntax(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        return _syntax_tables(self)

    @property
    def constants(self) -> Tuple[str, ...]:
        return tuple(sorted(op for op, ar in self.operations if ar == 0))

    @property
    def proper_connectives(self) -> Tuple[Tuple[str, int], ...]:
        """Symbols of arity >= 1, in name order."""
        return tuple(sorted((op, ar) for op, ar in self.operations if ar >= 1))


INT_SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2})
CLASSICAL_SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, IFF: 2})
# the B2c preset's signature, and the one equations are read in by default
BOOLEAN_SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, IFF: 2, TOP: 0, BOT: 0})
# the ways matrices.combine_matrices combines two matrices
COMBINE_KINDS = ("lsum", "rsum", "product", "sum")


class Formula:
    """Immutable propositional formula.  Instances are interned, so equal
    formulas are the same object: equality and hashing are by identity."""

    __slots__ = ("_depth", "_text")

    _depth: int
    _text: Optional[str]  # set once printed; variables and constants at creation

    @property
    def depth(self) -> int:
        return self._depth

    def __repr__(self) -> str:
        return f"Formula({format_formula(self)!r})"

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = ("index",)


class Const(Formula):
    __slots__ = ("name",)


class App(Formula):
    __slots__ = ("connective", "args")


_var_pool: Dict[int, Var] = {}
_const_pool: Dict[str, Const] = {}
_app_pool: Dict[Tuple[str, Tuple[Formula, ...]], App] = {}
_swept = _walked = 0  # the pool's size after the last sweep, and after the last walk over all of it


def var(index: int) -> Var:
    f = _var_pool.get(index)
    if f is None:
        if index < 1:
            raise ValueError("variable indices start at 1")
        f = Var.__new__(Var)
        f.index = index  # type: ignore[misc]
        f._depth = 0
        f._text = f"p{index}"
        _var_pool[index] = f
    return f


def const(name: str) -> Const:
    f = _const_pool.get(name)
    if f is None:
        _check_symbol_name(name)
        f = Const.__new__(Const)
        f.name = name  # type: ignore[misc]
        f._depth = 0
        f._text = name
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
        f._depth = 1 + max(a._depth for a in key[1])
        f._text = None
        _app_pool[key] = f
    return f


def sweep() -> None:
    """Drop the applications only the pool holds, newest first: a dropped term goes in one pass."""
    global _swept, _walked
    start = _swept if len(_app_pool) < 2 * _walked else 0  # doubled: walk all of it
    keys = list(itertools.islice(reversed(_app_pool), len(_app_pool) - start))[::-1]
    while keys:  # the previous key, which holds its arguments, goes as the next is popped
        if sys.getrefcount(_app_pool[key := keys.pop()]) == 2:  # the pool's and the call's
            del _app_pool[key]
    _swept, _walked = len(_app_pool), (_walked if start else len(_app_pool))


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
    return tuple(sorted(g.index for g in subformulas(f) if isinstance(g, Var)))


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


def _postorder(formulas: Iterable[Formula]) -> Tuple[Dict[Formula, int], List[Formula]]:
    """The distinct subformulas of the formulas, each after its arguments, in
    the order a left-to-right recursive walk finishes them, and each one's
    position in that list.  Listed without recursion, so nesting depth is
    unbounded."""
    position: Dict[Formula, int] = {}
    order: List[Formula] = []
    for f in formulas:
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if g in position:
                continue
            if expanded or not isinstance(g, App):
                position[g] = len(order)
                order.append(g)
            else:
                stack.append((g, True))
                stack.extend((a, False) for a in reversed(g.args))
    return position, order


def _close(
    n: int,
    apps: Sequence[Tuple[int, str, Sequence[int]]],
    pairs: Iterable[Tuple[int, int]],
) -> List[int]:
    """The least partition of the nodes 0..n-1 that relates the pairs and is
    closed under the applications, as labels numbered by first occurrence.

    An application (node, head, args) says that node is head applied to the
    args.  A union-find keeps the classes, and a table keys each application
    by its signature: its head and its args' roots.  Two applications with
    one signature relate their nodes.  After a merge, only the applications
    on the merged-away class's use-list are signed again (Downey, Sethi and
    Tarjan, JACM 27(4), 1980); one with a repeated argument is on it twice,
    and signing it again changes nothing.  Nothing recurses.
    """
    parent = list(range(n))
    uses: List[List[int]] = [[] for _ in range(n)]
    signed: Dict[Tuple, int] = {}
    pending = list(pairs)
    for i, (node, head, args) in enumerate(apps):  # no merge yet: args are roots
        for a in args:
            uses[a].append(i)
        other = signed.setdefault((head, *args), node)
        if other != node:
            pending.append((node, other))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def sign(i: int) -> None:
        node, head, args = apps[i]
        other = signed.setdefault((head, *map(find, args)), node)
        if other != node:
            pending.append((node, other))

    while pending:
        a, b = map(find, pending.pop())
        if a == b:
            continue
        if len(uses[a]) > len(uses[b]):
            a, b = b, a
        parent[a] = b
        moved, uses[a] = uses[a], []
        uses[b].extend(moved)
        for i in moved:
            sign(i)
    first: Dict[int, int] = {}
    return [first.setdefault(find(x), len(first)) for x in range(n)]


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
        position, order = _postorder([f])
        out: List[Formula] = []
        for g in order:
            if isinstance(g, App):
                out.append(app(g.connective, tuple(out[position[a]] for a in g.args)))
            else:
                out.append(table.get(g.index, g) if isinstance(g, Var) else g)
        return out[-1]


# ---------------------------------------------------------------------------
# concrete syntax: one table for the parser and the printer

# connective: (symbol, argument count, binding strength, right associative).
# A stronger operator binds more tightly; with any other argument count the
# connective is written prefix, as every other connective is.
_OPERATORS = {
    NOT: ("~", 1, 5, False),
    AND: ("&", 2, 4, False),
    OR: ("|", 2, 3, False),
    IMP: ("->", 2, 2, True),
    IFF: ("<->", 2, 1, True),
}


def _wrapped(f: Formula, strength: int) -> str:
    """f's text as an operand of an operator that binds that strongly."""
    entry = _OPERATORS.get(f.connective) if isinstance(f, App) else None
    if entry is not None and entry[1] == len(f.args) and entry[2] < strength:
        return f"({f._text})"
    return f._text


def _printed(g: App) -> str:
    """g's text, printed from its arguments' texts, which are set, and kept."""
    entry = _OPERATORS.get(g.connective)
    if entry is None or entry[1] != len(g.args):
        g._text = f"{g.connective}({', '.join(a._text for a in g.args)})"
    elif entry[1] == 1:
        g._text = entry[0] + _wrapped(g.args[0], entry[2])
    else:
        symbol, _, strength, right = entry
        left = _wrapped(g.args[0], strength + 1 if right else strength)
        g._text = f"{left} {symbol} {_wrapped(g.args[1], strength if right else strength + 1)}"
    return g._text


def format_formula(f: Formula) -> str:
    """f's text.  Each formula is printed after its arguments, without
    recursion, and keeps its text, so nesting depth is unbounded and a
    formula is printed once."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g._text is not None:
            stack.pop()
            continue
        assert isinstance(g, App)
        missing = [a for a in g.args if a._text is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        _printed(g)
    return f._text


# ---------------------------------------------------------------------------
# parsing

# a token, or a character that starts none (an error); whitespace is skipped
_TOKEN_RE = re.compile(r"<->|->|[()~&|,]|[^()~&|,<>\-=\s]+|\S")
_STRAY = frozenset("<>-=")


def _error(message: str, text: str, tokens: List[str], index: int) -> ParseError:
    """A ParseError at tokens[index] (text's, or a prefix of them), or at the
    end of text past the last; positions are found by a rescan, on error only."""
    matches = itertools.islice(_TOKEN_RE.finditer(text), index, None)
    return ParseError(message, next(matches).start() if index < len(tokens) else len(text))


def _tokenize(text: str) -> List[str]:
    """text's tokens, by one findall; a position is found only for an error."""
    tokens = _TOKEN_RE.findall(text)
    if not _STRAY.isdisjoint(tokens):  # '<', '>', '-' or '=' outside '->' and '<->'
        i = next(i for i, tok in enumerate(tokens) if tok in _STRAY)
        raise _error(f"unexpected character {tokens[i]!r}", text, tokens, i)
    return tokens


# A frame is a pending operator or an open bracket: (binding strength, 0 for
# a bracket; connective, None for a parenthesis; index of its first operand;
# index of its token).
_Frame = Tuple[int, Optional[str], int, int]


def _syntax_tables(signature: Signature) -> Tuple[Dict[str, object], Dict[str, object]]:
    """What a token means where an operand starts (prefix) and after one
    (infix): a constant; (strength, connective, whether '(' follows) for a
    frame; (strength, connective, strength to reduce to) for a binary
    operator; or the message of the error it is there."""
    prefix: Dict[str, object] = {"(": (0, None, False)}
    prefix.update((tok, f"unexpected token {tok!r}") for tok in (")", ","))
    for name, arity in signature.operations:
        prefix[name] = const(name) if arity == 0 else (0, name, True)
    infix: Dict[str, object] = {}
    for name, (symbol, count, strength, right) in _OPERATORS.items():
        if name not in signature:
            entry: object = f"operator {symbol!r} has no connective {name!r} in signature"
        elif count == 1:
            entry = (strength, name, False)
        else:
            entry = (strength, name, strength if right else strength - 1)
        (prefix if count == 1 else infix)[symbol] = entry
    return prefix, infix


@lru_cache(maxsize=1024)
def _variable(tok: str) -> Optional[Var]:
    m = _VAR_RE.match(tok)
    return var(int(m.group(1))) if m else None


def _parse(
    tokens: List[str], signature: Signature, text: str, start: int = 0
) -> Tuple[Formula, int]:
    """The formula at tokens[start:] and the index of the first token after
    it.  Operator precedence over two explicit stacks, one of operands and
    one of frames, so nesting depth is unbounded.  Tokens are tracked by
    index, and an error's position in text is computed when it is raised."""
    prefix, infix = signature._syntax
    operands: List[Formula] = []
    frames: List[_Frame] = []
    i, n = start, len(tokens)
    while True:
        # an operand: prefix operators and open brackets, then an atom
        while True:
            if i == n:
                raise _error("unexpected end of input", text, tokens, i)
            tok = tokens[i]
            i += 1
            entry = prefix.get(tok) or _variable(tok) or f"unknown symbol {tok!r}"
            if type(entry) is tuple:
                strength, name, call = entry
                frames.append((strength, name, len(operands), i - 1))
                if call:
                    if i == n or tokens[i] != "(":
                        raise _error("expected '('", text, tokens, i)
                    i += 1
                continue
            if type(entry) is str:
                raise _error(entry, text, tokens, i - 1)
            operands.append(entry)
            break
        # after an operand: a binary operator, or the end of a bracket's part
        while True:
            tok = tokens[i] if i < n else None
            entry = infix.get(tok, (0, None, 0))  # not an operator: reduce to a bracket
            if type(entry) is str:
                raise _error(entry, text, tokens, i)
            strength, name, bound = entry
            while frames and frames[-1][0] > bound:  # the operators binding more strongly
                _, op, base, _ = frames.pop()
                operands[base:] = [app(op, operands[base:])]
            if name is not None:
                frames.append((strength, name, len(operands) - 1, i))
                i += 1
                break
            if not frames:
                return operands[0], i
            _, name, base, at = frames[-1]
            if tok == "," and name is not None:
                i += 1
                break
            if tok != ")":
                raise _error("expected ')'", text, tokens, i)
            i += 1
            frames.pop()
            if name is not None:
                arity, args = signature.arity(name), operands[base:]
                if len(args) != arity:
                    message = f"connective {name!r} expects {arity} arguments, got {len(args)}"
                    raise _error(message, text, tokens, at)
                operands[base:] = [app(name, args)]


def parse_formula(text: str, signature: Signature = CLASSICAL_SIGNATURE) -> Formula:
    tokens = _tokenize(text)
    out, end = _parse(tokens, signature, text)
    if end < len(tokens):
        raise _error(f"trailing input {tokens[end]!r}", text, tokens, end)
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

    def by_depth() -> Iterator[Formula]:
        ordered: List[Formula] = [var(i) for i in range(1, n_vars + 1)]
        ordered += [const(name) for name in signature.constants]
        yield from ordered
        depth = 1
        while max_depth is None or depth <= max_depth:
            prev = list(ordered)  # everything of depth < current
            for name, arity in signature.proper_connectives:
                for combo in itertools.product(range(len(prev)), repeat=arity):
                    args = tuple(prev[i] for i in combo)
                    if max(a.depth for a in args) == depth - 1:
                        ordered.append(app(name, args))
                        yield ordered[-1]
            if len(ordered) == len(prev):
                return  # no formulas at this depth; none deeper either
            depth += 1

    formulas = by_depth()
    return formulas if max_count is None else itertools.islice(formulas, max(max_count, 0))
