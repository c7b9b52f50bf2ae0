"""Terminating sequent prover for propositional intuitionistic logic.

Sequents have a set antecedent and at most one succedent formula, over the
connectives ~ & | -> only.  Search is backward, on an explicit stack:
invertible rules first, then the choice rules (right disjunction, left
implication, left negation), with a loop check along the current branch and
memoisation of settled sequents.  Left rules keep their principal formula,
so the search space is the finite set of subformula-closed sequents and the
search terminates.

Every returned proof is replayable: ``check_proof`` re-verifies each node
against the rule schemata with no reference to the search code paths.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .lang import (
    AND,
    IFF,
    IMP,
    NOT,
    OR,
    App,
    Const,
    Formula,
    Substitution,
    _postorder,
    app,
    conj,
    disj,
    format_formula,
    imp,
    neg,
    var,
    variables,
)
from .limits import DEFAULT_CAPS, ResourceCaps

_ALLOWED = {NOT: 1, AND: 2, OR: 2, IMP: 2}


def _check_language(f: Formula) -> None:
    """Raise the error of the first node, in right-to-left preorder, that the
    prover rejects.  A node met again had its whole subtree checked before,
    so each distinct subformula is checked once, and the error raised is the
    one a walk over every occurrence would raise first."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Const):
            raise ValueError(f"constant {g.name!r} not supported by the prover")
        if isinstance(g, App):
            if _ALLOWED.get(g.connective) != len(g.args):
                raise ValueError(
                    f"connective {g.connective!r}/{len(g.args)} not supported by the prover"
                )
            stack.extend(g.args)


def expand_iff(f: Formula) -> Formula:
    """Replace every biconditional by the conjunction of two implications."""
    position, order = _postorder([f])
    out: List[Formula] = []
    for g in order:
        if not isinstance(g, App):
            out.append(g)
            continue
        args = tuple(out[position[a]] for a in g.args)
        if g.connective == IFF and len(args) == 2:
            out.append(conj(imp(args[0], args[1]), imp(args[1], args[0])))
        else:
            out.append(app(g.connective, args))
    return out[-1]


class Sequent(NamedTuple):
    antecedent: FrozenSet[Formula]
    succedent: Optional[Formula]

    def __str__(self) -> str:
        left = ", ".join(str(f) for f in _ordered(self.antecedent))
        right = str(self.succedent) if self.succedent is not None else ""
        return f"{left} => {right}".strip()


def _ordered(s: Iterable[Formula]) -> List[Formula]:
    """By depth, then by printed text."""
    return sorted(s, key=lambda f: (f._depth, f._text or format_formula(f)))


@dataclass(frozen=True)
class ProofTree:
    rule: str
    sequent: Sequent
    premises: Tuple["ProofTree", ...]
    principal: Optional[Formula] = None

    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().premises)
        return count


def _is(f: Formula, name: str) -> bool:
    return isinstance(f, App) and f.connective == name


# A rule application: (rule, principal formula, premises), each premise as
# (the formula it adds to the antecedent or None, its succedent), so that it
# becomes a sequent only when it is tried.
_Step = Tuple[str, Formula, Tuple[Tuple[Optional[Formula], Optional[Formula]], ...]]


class _Prover:
    def __init__(self, caps: ResourceCaps):
        self.caps = caps
        self.success: Dict[Sequent, ProofTree] = {}
        self.failure: Dict[Sequent, bool] = {}
        # each antecedent's ∧/∨ formulas and its →/¬ formulas, ordered
        self.orders: Dict[FrozenSet[Formula], Tuple[List[App], List[App]]] = {}

    def _order(self, ant: FrozenSet[Formula]) -> Tuple[List[App], List[App]]:
        order = self.orders.get(ant)
        if order is None:
            ranked = [f for f in _ordered(ant) if isinstance(f, App)]
            order = self.orders[ant] = (
                [f for f in ranked if f.connective in (AND, OR)],
                [f for f in ranked if f.connective in (IMP, NOT)],
            )
        return order

    def _steps(self, seq: Sequent) -> Iterator[_Step]:
        """The rule applications to try on seq, in order: an invertible step
        alone if there is one, else the choice points."""
        ant, suc = seq.antecedent, seq.succedent
        splits, choices = self._order(ant)
        for f in splits:
            a, b = f.args
            if f.connective == AND:
                if a not in ant or b not in ant:
                    yield "∧-2", f, ((a if a not in ant else b, suc),)
                    return
            elif a not in ant and b not in ant:
                yield "∨-2", f, ((a, suc), (b, suc))
                return
        if isinstance(suc, App):
            a = suc.args[0]
            if suc.connective == IMP:
                yield "→-1", suc, ((a, suc.args[1]),)
                return
            if suc.connective == NOT:
                yield "¬-1", suc, ((a, None),)
                return
            if suc.connective == AND:
                yield "∧-1", suc, ((None, a), (None, suc.args[1]))
                return
            if suc.connective == OR:
                for piece in suc.args:
                    yield "∨-1", suc, ((None, piece),)
        for f in choices:
            a = f.args[0]
            if f.connective == IMP:
                if f.args[1] not in ant:  # else the second premise repeats the conclusion
                    yield "→-2", f, ((None, a), (f.args[1], suc))
            elif suc != a:  # else the premise repeats the conclusion
                yield "¬-2", f, ((None, a),)

    def prove(self, goal: Sequent) -> Tuple[Optional[ProofTree], bool]:
        """Returns (proof or None, clean) for goal.  A failure is clean when
        it did not rely on cutting a loop (meeting a sequent already on the
        stack), and only then is it memoised.

        The search is depth first on an explicit stack.  A frame is a list
        [sequent, its pending steps, the step being tried, the proofs of that
        step's premises so far, whether every failed step failed cleanly].
        A step fails at its first unproved premise."""
        stack: List[list] = []
        on_stack: set[Sequent] = set()
        seq = goal
        while True:
            # settle seq at once, or open a frame for it
            tree = self.success.get(seq)
            clean = True
            if tree is None and seq not in self.failure:
                if seq in on_stack:
                    clean = False
                elif seq.succedent is not None and seq.succedent in seq.antecedent:
                    tree = self._won(seq, ProofTree("axiom", seq, (), seq.succedent))
                else:
                    on_stack.add(seq)
                    stack.append([seq, self._steps(seq), None, (), True])
            # hand the outcome down until a frame has a premise to try; a new
            # frame takes its first step as if a step before it had failed
            while stack:
                frame = stack[-1]
                seq, steps, step, proofs, _ = frame
                if tree is None:
                    frame[4] &= clean
                    step = frame[2] = next(steps, None)
                    proofs = frame[3] = ()
                else:
                    proofs = frame[3] = proofs + (tree,)
                if step is None:
                    clean = frame[4]
                    self._lost(seq, clean)
                elif len(proofs) < len(step[2]):
                    added, suc = step[2][len(proofs)]
                    ant = seq.antecedent
                    seq = Sequent(ant if added is None else ant | {added}, suc)
                    break
                else:
                    tree = self._won(seq, ProofTree(step[0], seq, proofs, step[1]))
                stack.pop()
                on_stack.discard(seq)
            else:
                return tree, clean

    def _won(self, seq: Sequent, tree: ProofTree) -> ProofTree:
        self.success[seq] = tree
        self.caps.check_memo(len(self.success) + len(self.failure))
        return tree

    def _lost(self, seq: Sequent, clean: bool) -> None:
        if clean:
            self.failure[seq] = True
            self.caps.check_memo(len(self.success) + len(self.failure))


def g3_prove(
    antecedent: Sequence[Formula],
    succedent: Optional[Formula],
    caps: ResourceCaps = DEFAULT_CAPS,
) -> Optional[ProofTree]:
    for f in list(antecedent) + ([succedent] if succedent is not None else []):
        _check_language(f)
    seq = Sequent(frozenset(antecedent), succedent)
    tree, _ = _Prover(caps).prove(seq)
    return tree


def provable(f: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    return g3_prove((), f, caps) is not None


# ---------------------------------------------------------------------------
# independent proof verification


def _rule_holds(tree: ProofTree) -> bool:
    """Does the node follow from its premises by its rule?"""
    seq = tree.sequent
    ant, suc = seq.antecedent, seq.succedent
    kids = tree.premises
    ok = False
    if tree.rule == "axiom":
        ok = not kids and suc is not None and suc in ant
    elif tree.rule == "∧-2":
        f = tree.principal
        if len(kids) == 1 and _is(f, AND) and f in ant:
            a, b = f.args  # type: ignore[union-attr]
            k = kids[0].sequent
            ok = k.succedent == suc and k.antecedent in (ant | {a}, ant | {b})
    elif tree.rule == "∨-2":
        f = tree.principal
        if len(kids) == 2 and _is(f, OR) and f in ant:
            a, b = f.args  # type: ignore[union-attr]
            k1, k2 = kids[0].sequent, kids[1].sequent
            ok = (
                k1 == Sequent(ant | {a}, suc)
                and k2 == Sequent(ant | {b}, suc)
            )
    elif tree.rule == "→-1":
        if len(kids) == 1 and suc is not None and _is(suc, IMP):
            a, b = suc.args  # type: ignore[union-attr]
            ok = kids[0].sequent == Sequent(ant | {a}, b)
    elif tree.rule == "¬-1":
        if len(kids) == 1 and suc is not None and _is(suc, NOT):
            (a,) = suc.args  # type: ignore[union-attr]
            ok = kids[0].sequent == Sequent(ant | {a}, None)
    elif tree.rule == "∧-1":
        if len(kids) == 2 and suc is not None and _is(suc, AND):
            a, b = suc.args  # type: ignore[union-attr]
            ok = kids[0].sequent == Sequent(ant, a) and kids[1].sequent == Sequent(ant, b)
    elif tree.rule == "∨-1":
        if len(kids) == 1 and suc is not None and _is(suc, OR):
            a, b = suc.args  # type: ignore[union-attr]
            ok = kids[0].sequent in (Sequent(ant, a), Sequent(ant, b))
    elif tree.rule == "→-2":
        f = tree.principal
        if len(kids) == 2 and _is(f, IMP) and f in ant:
            a, b = f.args  # type: ignore[union-attr]
            ok = (
                kids[0].sequent == Sequent(ant, a)
                and kids[1].sequent == Sequent(ant | {b}, suc)
            )
    elif tree.rule == "¬-2":
        f = tree.principal
        if len(kids) == 1 and _is(f, NOT) and f in ant:
            (a,) = f.args  # type: ignore[union-attr]
            ok = kids[0].sequent == Sequent(ant, a)
    return ok


def check_proof(tree: ProofTree) -> bool:
    """Replay a proof tree against the rule schemata."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not _rule_holds(node):
            return False
        stack.extend(node.premises)
    return True


# ---------------------------------------------------------------------------
# provability relations


def int_leq(f: Formula, g: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """f entails g as a provable implication."""
    return provable(imp(f, g), caps)


def int_sim(f: Formula, g: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    return int_leq(f, g, caps) and int_leq(g, f, caps)


def int_ll(f: Formula, g: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """Strong order: (g -> f) -> g is provable."""
    return provable(imp(imp(g, f), g), caps)


def int_relation(f: Formula, g: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> Dict[str, bool]:
    le = int_leq(f, g, caps)
    ge = int_leq(g, f, caps)
    return {
        "leq": le,
        "geq": ge,
        "sim": le and ge,
        "ll": int_ll(f, g, caps),
        "incomparable": not le and not ge,
    }


# ---------------------------------------------------------------------------
# the one-variable ladder


def _ladder(p: Formula) -> Iterator[Formula]:
    """The ladder formulas in p, from index 0 up, each built from earlier ones."""
    ladder = [conj(p, neg(p)), neg(p), p]
    yield from ladder
    for k in itertools.count(3):  # 2n+3 = (2n+1 -> 2n), 2n+4 = (2n+1 | 2n+2)
        ladder.append(imp(ladder[k - 2], ladder[k - 3]) if k % 2 else disj(ladder[k - 3], ladder[k - 2]))
        yield ladder[k]


def rn_power(index: Union[int, str], variable: int = 1) -> Formula:
    """The one-variable ladder formulas: 0 is p&~p, 1 is ~p, 2 is p,
    then 2n+3 = (2n+1 -> 2n) and 2n+4 = (2n+1 | 2n+2); 'omega' is p->p."""
    p = var(variable)
    if index == "omega":
        return imp(p, p)
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"bad ladder index {index!r}")
    return next(itertools.islice(_ladder(p), index, None))


# The ladder frame: points 0, 1, 2, ..., each seeing itself and the points
# its up-set lists, with the variable forced at point 0 only.  Point i sees
# only points below it, so the first n points are an up-set and forcing on
# them is forcing in the whole frame.  Sets of points are int bitmasks.


def _ladder_ups(n: int) -> List[int]:
    """up(0) = {0}, up(1) = {1}, up(2) = {0, 2}, and
    up(i) = {i} ∪ up(i-2) ∪ up(i-3) from 3 on, for the first n points."""
    ups: List[int] = []
    for i in range(n):
        ups.append((1, 2, 5)[i] if i < 3 else 1 << i | ups[i - 2] | ups[i - 3])
    return ups


def _box(bad: int, ups: Sequence[int]) -> int:
    """The points that see no point of ``bad``."""
    out = 0
    for w, up in enumerate(ups):
        if not up & bad:
            out |= 1 << w
    return out


def _forced(f: Formula, box: Callable[[int], int], atoms: Mapping[int, int]) -> int:
    """The points of a Kripke model at which f, a formula over ~ & | ->, is
    forced, where variable v is forced at the points atoms[v] and box(bad)
    is the set of points that see no point of bad."""
    position, order = _postorder([f])
    sets: List[int] = []
    for g in order:
        if not isinstance(g, App):
            sets.append(atoms[g.index])
            continue
        a = sets[position[g.args[0]]]
        if g.connective == NOT:
            sets.append(box(a))
            continue
        b = sets[position[g.args[1]]]
        if g.connective == AND:
            sets.append(a & b)
        elif g.connective == OR:
            sets.append(a | b)
        else:
            sets.append(box(a & ~b))
    return sets[-1]


def _ladder_sets(ups: Sequence[int]) -> List[int]:
    """The sets of ladder formulas 0, 1, ..., m + 1 on the frame, where m is
    the first even index at which m and m + 1 are both whole.  Every later
    ladder formula is whole too, since then m + 2 = (m - 1 | m) and
    m + 3 = (m + 1 -> m) are whole."""
    whole = (1 << len(ups)) - 1
    sets = [0, _box(1, ups), 1]
    while not (len(sets) % 2 == 0 and sets[-1] == sets[-2] == whole):
        k = len(sets)
        sets.append(_box(sets[k - 2] & ~sets[k - 3], ups) if k % 2 else sets[k - 3] | sets[k - 2])
    return sets


@dataclass(frozen=True)
class _LadderModel:
    ups: Tuple[int, ...]
    whole: int
    classes: Dict[int, int]  # the set of ladder formula k -> k, for k <= max_index


def _separates(n: int, max_index: int) -> Optional[_LadderModel]:
    """The model on the first n points, if on them ladder formulas 0 to
    max_index have pairwise distinct sets, none is whole, and none has the
    set of a later ladder formula."""
    ups = _ladder_ups(n)
    sets = _ladder_sets(ups)
    whole = (1 << n) - 1
    cut = max(max_index + 1, 0)
    first = sets[:cut]
    if whole in first:
        return None
    classes = {s: k for k, s in enumerate(first)}
    if len(classes) < len(first) or not classes.keys().isdisjoint(sets[cut:]):
        return None
    return _LadderModel(tuple(ups), whole, classes)


@functools.lru_cache(maxsize=16)
def _ladder_model(max_index: int) -> _LadderModel:
    """The least prefix of the ladder frame that separates ladder formulas 0
    to max_index (14 points at 24)."""
    n = 1
    while (model := _separates(n, max_index)) is None:
        n += 1
    return model


def rn_classify(
    f: Formula, max_index: int = 24, caps: ResourceCaps = DEFAULT_CAPS
) -> Optional[Union[int, str]]:
    """Ladder class of a one-variable formula: the unique index whose ladder
    formula is interprovable with it ('omega' for theses), or None if that
    index is above ``max_index``.

    The class is read off one evaluation of f on a finite prefix of the
    Rieger–Nishimura ladder frame, the one-variable universal Kripke model
    (Rieger 1949; Nishimura, "On formulas of one variable in intuitionistic
    propositional calculus", JSL 25, 1960).  Three facts make the answer
    exact:

    - Kripke soundness: interprovable formulas are forced at the same
      points, and a thesis is forced at every point (is whole).
    - Rieger–Nishimura: f is interprovable with exactly one of p -> p and
      the ladder formulas, and the ladder formulas are pairwise not
      interprovable.
    - Separation, checked when the prefix is built: on it, ladder formulas
      0 to max_index have pairwise distinct sets, none is whole, and none
      has the set of a later ladder formula.

    So if f's set is ladder formula k's, f is neither a thesis nor any other
    ladder formula, and its class is k.  If the set is not whole and is no
    ladder formula's up to max_index, f is neither a thesis nor in a class
    up to max_index: None.  If it is whole, f is a thesis or in a class
    above max_index, and only then does proof search decide between
    'omega' and None.
    """
    vs = variables(f)
    if len(vs) > 1:
        raise ValueError("classification needs a formula in at most one variable")
    _check_language(f)
    model = _ladder_model(max_index)
    forced = _forced(f, functools.partial(_box, ups=model.ups), dict.fromkeys(vs, 1))
    if forced != model.whole:
        return model.classes.get(forced)
    if vs and vs[0] != 1:
        f = Substitution.of({vs[0]: var(1)}).apply(f)
    return "omega" if provable(f, caps) else None


# ---------------------------------------------------------------------------
# double-negation bridge to the two-element matrix


def glivenko_check(f: Formula, caps: ResourceCaps = DEFAULT_CAPS) -> Dict[str, bool]:
    """Compare two-element-matrix validity of f with provability of ~~f.

    A two-valued valuation is a one-point Kripke model, so f is classically
    valid when it is forced at every point of the discrete frame on all
    valuations, where each point sees only itself and box(bad) is the
    complement of bad.  One pass takes at most 2^16 points: the first 16
    variables vary within a pass, the others from pass to pass."""
    expanded = expand_iff(f)
    vs = variables(expanded)
    caps.check_tuples(2 ** len(vs))
    _check_language(expanded)
    inner, outer = vs[:16], vs[16:]
    whole = (1 << (1 << len(inner))) - 1
    # the j-th inner variable holds at the points whose bit j is set
    atoms = {
        v: whole // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
        for j, v in enumerate(inner)
    }
    classical = True
    for r in range(1 << len(outer)):
        atoms.update((v, whole * (r >> i & 1)) for i, v in enumerate(outer))
        if _forced(expanded, lambda bad: whole ^ bad, atoms) != whole:
            classical = False
            break
    intuit = provable(neg(neg(expanded)), caps)
    return {"classically_valid": classical, "double_negation_provable": intuit, "agree": classical == intuit}
