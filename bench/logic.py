"""The benchmark's own formulas, algebras and reference oracle.

Nothing here imports matlogic.  Formulas are plain Python values: an int
``i`` is the variable p<i>, a str is a constant, and a tuple
``(connective, arg, ...)`` is an application.  The printer follows the
CLI's concrete syntax, so generated inputs go to the program as text and
its answers come back as text that ``parse`` reads.  Every witness the
program returns is re-checked here by direct evaluation over the tables
the benchmark generated, so the check never runs the layer under test.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

NOT, AND, OR, IMP, IFF = "¬", "∧", "∨", "→", "↔"
BOX, DIA, TOP, BOT = "□", "◇", "⊤", "⊥"

_INFIX = {IFF: ("<->", 1), IMP: ("->", 2), OR: ("|", 3), AND: ("&", 4)}
_SYMBOL = {"~": NOT, "&": AND, "|": OR, "->": IMP, "<->": IFF}


# ---------------------------------------------------------------------------
# syntax


def fmt(f, parent: int = 0) -> str:
    """Text of a formula in the CLI syntax, with the CLI's own bracketing."""
    if isinstance(f, int):
        return f"p{f}"
    if isinstance(f, str):
        return f
    conn, args = f[0], f[1:]
    if conn == NOT and len(args) == 1:
        return "~" + fmt(args[0], 5)
    if conn in _INFIX and len(args) == 2:
        symbol, prec = _INFIX[conn]
        if conn in (IMP, IFF):
            left, right = fmt(args[0], prec + 1), fmt(args[1], prec)
        else:
            left, right = fmt(args[0], prec), fmt(args[1], prec + 1)
        text = f"{left} {symbol} {right}"
        return f"({text})" if prec < parent else text
    return f"{conn}({', '.join(fmt(a) for a in args)})"


_TOKEN = re.compile(r"\s*(<->|->|[()~&|,]|[^()~&|,<>\-=\s]+)")


def parse(text: str, arities: Dict[str, int]):
    """Read a formula printed by the program (inverse of ``fmt``)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def binary(level):
        # levels: 0 <->, 1 ->, 2 |, 3 &
        if level == 4:
            return unary()
        sym = ("<->", "->", "|", "&")[level]
        left = binary(level + 1)
        if level <= 1:  # right associative
            if peek() == sym:
                take()
                return (_SYMBOL[sym], left, binary(level))
            return left
        while peek() == sym:
            take()
            left = (_SYMBOL[sym], left, binary(level + 1))
        return left

    def unary():
        if peek() == "~":
            take()
            return (NOT, unary())
        tok = take()
        if tok == "(":
            out = binary(0)
            if take() != ")":
                raise ValueError(f"unbalanced brackets in {text!r}")
            return out
        if re.fullmatch(r"p[1-9][0-9]*", tok):
            return int(tok[1:])
        if arities.get(tok) == 0:
            return tok
        if tok in arities:
            if take() != "(":
                raise ValueError(f"expected '(' after {tok!r}")
            args = [binary(0)]
            while peek() == ",":
                take()
                args.append(binary(0))
            if take() != ")":
                raise ValueError(f"unbalanced brackets in {text!r}")
            return (tok, *args)
        raise ValueError(f"unknown symbol {tok!r} in {text!r}")

    out = binary(0)
    if i != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def variables(f) -> FrozenSet[int]:
    if isinstance(f, int):
        return frozenset((f,))
    if isinstance(f, str):
        return frozenset()
    return frozenset().union(*(variables(a) for a in f[1:]))


def subterms(f, out: Optional[set] = None) -> set:
    out = set() if out is None else out
    if f not in out:
        out.add(f)
        if isinstance(f, tuple):
            for a in f[1:]:
                subterms(a, out)
    return out


# ---------------------------------------------------------------------------
# algebras


class Algebra:
    """Finite algebra over named elements; ``ops`` maps a connective to
    (arity, table), with tables as nested lists of element indices."""

    def __init__(self, elements: Sequence[str], ops: Dict[str, Tuple[int, object]]):
        self.elements = list(elements)
        self.ops = ops

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def arities(self) -> Dict[str, int]:
        return {c: a for c, (a, _) in self.ops.items()}

    def apply(self, conn: str, args: Sequence[int]) -> int:
        arity, table = self.ops[conn]
        for a in args:
            table = table[a]
        return table

    def eval(self, f, assign: Dict[int, int]) -> int:
        if isinstance(f, int):
            return assign[f]
        if isinstance(f, str):
            return self.ops[f][1]
        return self.apply(f[0], [self.eval(a, assign) for a in f[1:]])

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def to_doc(self) -> dict:
        """Workspace JSON for this algebra."""

        def names(node, depth):
            if depth == 0:
                return self.elements[node]
            return [names(x, depth - 1) for x in node]

        return {
            "elements": list(self.elements),
            "operations": {c: names(t, a) for c, (a, t) in self.ops.items()},
        }


def _table(arity: int, k: int, fn) -> object:
    if arity == 0:
        return fn()
    if arity == 1:
        return [fn(x) for x in range(k)]
    return [[fn(x, y) for y in range(k)] for x in range(k)]


def godel(n: int) -> Algebra:
    """The n-element Goedel chain with the CLI preset's element names."""
    top = n - 1
    return Algebra(
        [str(Fraction(i, n - 1)) for i in range(n)],
        {
            NOT: (1, _table(1, n, lambda x: top if x == 0 else 0)),
            AND: (2, _table(2, n, min)),
            OR: (2, _table(2, n, max)),
            IMP: (2, _table(2, n, lambda x, y: top if x <= y else y)),
        },
    )


def lukasiewicz3(modal: bool = False) -> Algebra:
    ops = {
        NOT: (1, [2, 1, 0]),
        AND: (2, _table(2, 3, min)),
        OR: (2, _table(2, 3, max)),
        IMP: (2, _table(2, 3, lambda x, y: min(2, 2 - x + y))),
    }
    if modal:
        ops[BOX] = (1, [0, 0, 2])
        ops[DIA] = (1, [0, 2, 2])
    return Algebra(["0", "1/2", "1"], ops)


def boolean(constants: bool) -> Algebra:
    ops = {
        NOT: (1, [1, 0]),
        AND: (2, _table(2, 2, min)),
        OR: (2, _table(2, 2, max)),
        IMP: (2, _table(2, 2, lambda x, y: 1 if x <= y else 0)),
        IFF: (2, _table(2, 2, lambda x, y: 1 if x == y else 0)),
    }
    if constants:
        ops[TOP] = (0, 1)
        ops[BOT] = (0, 0)
    return Algebra(["0", "1"], ops)


def preset(name: str) -> Algebra:
    """Tables of the CLI presets B2, B2c, L3, L3modal and G<n>, written out
    independently of the program.  Every preset designates its top only."""
    if name in ("B2", "B2c"):
        return boolean(name == "B2c")
    if name in ("L3", "L3modal"):
        return lukasiewicz3(name == "L3modal")
    if name.startswith("G"):
        return godel(int(name[1:]))
    raise ValueError(name)


def random_algebra(rng: random.Random, k: int, sig: Dict[str, int]) -> Algebra:
    names = [f"e{i}" for i in range(k)]
    ops = {c: (a, _table(a, k, lambda *xs: rng.randrange(k))) for c, a in sig.items()}
    return Algebra(names, ops)


def isomorphic_copy(alg: Algebra, perm: Sequence[int], prefix: str) -> Algebra:
    """Copy with element i renamed to position perm[i]."""
    k = alg.size
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    names = [f"{prefix}{alg.elements[inv[j]]}" for j in range(k)]
    ops = {}
    for c, (a, _) in alg.ops.items():
        ops[c] = (a, _table(a, k, lambda *ys: perm[alg.apply(c, [inv[y] for y in ys])]))
    return Algebra(names, ops)


def product(a1: Algebra, a2: Algebra) -> Algebra:
    """Direct product; the pair (i, j) sits at index i * |a2| + j."""
    k2 = a2.size
    k = a1.size * k2
    names = [f"({x},{y})" for x in a1.elements for y in a2.elements]
    ops = {}
    for c, (a, _) in a1.ops.items():

        def op(*xs, c=c):
            left = a1.apply(c, [x // k2 for x in xs])
            right = a2.apply(c, [x % k2 for x in xs])
            return left * k2 + right

        ops[c] = (a, _table(a, k, op))
    return Algebra(names, ops)


# ---------------------------------------------------------------------------
# reference decisions over small algebras


def clone(alg: Algebra) -> set:
    """All unary term functions, as value tuples, by closing the identity
    and the constants under the operations."""
    k = alg.size
    found = {tuple(range(k))}
    found |= {tuple([t] * k) for a, t in alg.ops.values() if a == 0}
    frontier = set(found)
    while frontier:
        items = list(found)
        new = set()
        for c, (a, _) in alg.ops.items():
            for combo in itertools.product(items, repeat=a):
                if a and any(fn in frontier for fn in combo):
                    key = tuple(alg.apply(c, args) for args in zip(*combo))
                    if key not in found:
                        new.add(key)
        found |= new
        frontier = new
    return found


def valid_everywhere(alg: Algebra, designated: Iterable[int], f) -> bool:
    """Brute-force validity of f over all assignments to its variables."""
    des = set(designated)
    vs = sorted(variables(f))
    for values in itertools.product(range(alg.size), repeat=len(vs)):
        if alg.eval(f, dict(zip(vs, values))) not in des:
            return False
    return True


def identity_holds(alg: Algebra, lhs, rhs) -> bool:
    vs = sorted(variables(lhs) | variables(rhs))
    for values in itertools.product(range(alg.size), repeat=len(vs)):
        assign = dict(zip(vs, values))
        if alg.eval(lhs, assign) != alg.eval(rhs, assign):
            return False
    return True


def entails(alg: Algebra, filters, premises, conclusion) -> bool:
    """Brute-force finite-premise consequence in an atlas."""
    vs = sorted(frozenset().union(*(variables(g) for g in [*premises, conclusion])))
    for values in itertools.product(range(alg.size), repeat=len(vs)):
        assign = dict(zip(vs, values))
        for d in filters:
            if all(alg.eval(p, assign) in d for p in premises):
                if alg.eval(conclusion, assign) not in d:
                    return False
    return True


def has_unary_theorem(alg: Algebra, designated) -> bool:
    des = set(designated)
    return any(all(v in des for v in fn) for fn in clone(alg))


def unary_inclusion(a1: Algebra, d1, a2: Algebra, d2) -> bool:
    """Theorem inclusion of (a1, d1) in (a2, d2) scanned over one variable,
    as the CLI does with ``--n 1``: over the common algebra, which is a1
    itself when the two algebras are the same and their product otherwise."""
    d1, d2 = set(d1), set(d2)
    if a1.elements == a2.elements and a1.ops == a2.ops:
        fns = [(fn, fn) for fn in clone(a1)]
    else:
        k2 = a2.size
        fns = [
            ([v // k2 for v in fn], [v % k2 for v in fn])
            for fn in clone(product(a1, a2))
        ]
    return not any(
        all(v in d1 for v in left) and not all(v in d2 for v in right)
        for left, right in fns
    )


def greatest_compatible_congruence(alg: Algebra, filters) -> List[FrozenSet[int]]:
    """Brute force over all partitions: the coarsest congruence whose blocks
    do not cross any filter (congruences below a partition form a lattice,
    so the coarsest compatible one is unique)."""
    k = alg.size
    best = None
    for labels in _partitions(k):
        if any(len({e in d for e in range(k) if labels[e] == b}) > 1
               for d in filters for b in set(labels)):
            continue
        if not _is_congruence(alg, labels):
            continue
        if best is None or len(set(labels)) < len(set(best)):
            best = labels
    blocks: Dict[int, set] = {}
    for e, b in enumerate(best):
        blocks.setdefault(b, set()).add(e)
    return [frozenset(b) for b in blocks.values()]


def _partitions(k: int):
    def go(prefix, used):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            yield from go(prefix + [b], max(used, b + 1))

    yield from go([], 0)


def _is_congruence(alg: Algebra, labels) -> bool:
    k = alg.size
    for c, (a, _) in alg.ops.items():
        for pos in range(a):
            for ctx in itertools.product(range(k), repeat=a - 1):
                for x in range(k):
                    for y in range(x + 1, k):
                        if labels[x] != labels[y]:
                            continue
                        ax = list(ctx[:pos]) + [x] + list(ctx[pos:])
                        ay = list(ctx[:pos]) + [y] + list(ctx[pos:])
                        if labels[alg.apply(c, ax)] != labels[alg.apply(c, ay)]:
                            return False
    return True


# ---------------------------------------------------------------------------
# formula generators


def random_formula(rng: random.Random, depth: int, nvars: int, conns: Sequence[Tuple[str, int]],
                   leaf_stop: float = 0.25):
    """Random formula of depth at most ``depth`` over p1..p<nvars>."""
    if depth == 0 or rng.random() < leaf_stop:
        return rng.randint(1, nvars)
    conn, arity = rng.choice(conns)
    return (conn, *(random_formula(rng, depth - 1, nvars, conns, leaf_stop) for _ in range(arity)))


def sized_formula(rng: random.Random, depths: Sequence[int], nvars: int, conns,
                  max_nodes: int, min_nodes: int = 0, leaf_stop: float = 0.3):
    """Random formula whose depth is one of ``depths`` and whose number of
    connective occurrences lies in [min_nodes, max_nodes]."""
    while True:
        f = random_formula(rng, rng.choice(depths), nvars, conns, leaf_stop)
        if depth(f) in depths and min_nodes <= nodes(f) <= max_nodes:
            return f


def depth(f) -> int:
    return 1 + max(depth(a) for a in f[1:]) if isinstance(f, tuple) else 0


def nodes(f) -> int:
    return 1 + sum(nodes(a) for a in f[1:]) if isinstance(f, tuple) else 0


def formula_with_nodes(rng: random.Random, nodes: int, vs: Sequence[int], conns):
    """Random formula with exactly ``nodes`` connective occurrences, every
    variable of ``vs`` used at least once."""
    while True:
        f = _shaped(rng, nodes, vs, conns)
        if variables(f) == frozenset(vs):
            return f


def _shaped(rng, nodes, vs, conns):
    if nodes == 0:
        return rng.choice(vs)
    conn, arity = rng.choice(conns)
    if arity == 1:
        return (conn, _shaped(rng, nodes - 1, vs, conns))
    left = rng.randint(0, nodes - 1)
    return (conn, _shaped(rng, left, vs, conns), _shaped(rng, nodes - 1 - left, vs, conns))


def distinct_internal(f) -> int:
    return sum(1 for g in subterms(f) if isinstance(g, tuple))


# Hilbert-style axioms of intuitionistic logic.  Every substitution instance
# is provable, so it is valid in every Goedel chain and in B2.
def int_axiom(i: int, a, b, c):
    return [
        (IMP, a, (IMP, b, a)),
        (IMP, (IMP, a, (IMP, b, c)), (IMP, (IMP, a, b), (IMP, a, c))),
        (IMP, (AND, a, b), a),
        (IMP, (AND, a, b), b),
        (IMP, a, (IMP, b, (AND, a, b))),
        (IMP, a, (OR, a, b)),
        (IMP, b, (OR, a, b)),
        (IMP, (IMP, a, c), (IMP, (IMP, b, c), (IMP, (OR, a, b), c))),
        (IMP, (NOT, a), (IMP, a, b)),
        (IMP, (IMP, a, b), (IMP, (IMP, a, (NOT, b)), (NOT, a))),
    ][i]


INT_AXIOMS = 10


# Lukasiewicz's axioms: every instance is valid in the three-valued
# Lukasiewicz matrix, with or without the modal operators.
def luk_axiom(i: int, a, b, c):
    return [
        (IMP, a, (IMP, b, a)),
        (IMP, (IMP, a, b), (IMP, (IMP, b, c), (IMP, a, c))),
        (IMP, (IMP, (IMP, a, b), b), (IMP, (IMP, b, a), a)),
        (IMP, (IMP, (NOT, a), (NOT, b)), (IMP, b, a)),
    ][i]


LUK_AXIOMS = 4


def rn_power(k: int, p: int = 1):
    """The Rieger-Nishimura ladder: 0 is p & ~p, 1 is ~p, 2 is p,
    2n+3 is (2n+1 -> 2n) and 2n+4 is (2n+1 | 2n+2)."""
    memo = {0: (AND, p, (NOT, p)), 1: (NOT, p), 2: p}
    for j in range(3, k + 1):
        n = (j - 3) // 2 if j % 2 else (j - 4) // 2
        memo[j] = (IMP, memo[2 * n + 1], memo[2 * n]) if j % 2 else (OR, memo[2 * n + 1], memo[2 * n + 2])
    return memo[k]
