"""Equational consequence: semantics, derivation checking, ground decision,
and the implicational bridges.

An equality is a pair of terms, written ``lhs ~ rhs``.  Semantic
consequence comes in two modes over a class of algebras: mode E quantifies
over valuations pointwise (premises satisfied under a valuation force the
goal under that valuation), mode EL quantifies per algebra (only algebras
validating every premise identically are required to validate the goal).

Derivations are checked, not searched, against three interchangeable rule
systems: E1 (symmetry, transitivity, congruence), E2 (simultaneous
replacement with several equations), E3 (replacement with one equation);
the s-variants add a substitution rule.  Ground equality is decided by
congruence closure.  The bridges translate an equality into the
biimplication conjunction and consult the two-element matrix (EB) or the
intuitionistic prover (EH).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .lang import (
    App,
    Formula,
    ParseError,
    Signature,
    Substitution,
    Var,
    _close,
    _error,
    _parse,
    _postorder,
    _tokenize,
    app,
    conj,
    imp,
    variables,
)
from .limits import DEFAULT_CAPS, ResourceCaps


@dataclass(frozen=True)
class Equality:
    lhs: Formula
    rhs: Formula

    def reversed(self) -> "Equality":
        return Equality(self.rhs, self.lhs)

    def variables(self) -> Tuple[int, ...]:
        return tuple(sorted(set(variables(self.lhs)) | set(variables(self.rhs))))

    def __str__(self) -> str:
        return f"{self.lhs} ~ {self.rhs}"


def parse_equality(text: str, signature: Signature) -> Equality:
    """Parse ``term ~ term`` at the first top-level ``~`` that splits the input
    into two well-formed terms.  Only the one where a parse of all the tokens
    stops can, so each side is parsed once, the right from the next index.
    Failing that, the last top-level ``~`` is tried, and its failure reported."""
    tokens = _tokenize(text)
    try:
        lhs, split = _parse(tokens, signature, text)
        if tokens[split : split + 1] == ["~"]:
            rhs, end = _parse(tokens, signature, text, split + 1)
            if end == len(tokens):
                return Equality(lhs, rhs)
    except ParseError:
        pass
    depth, split = 0, None
    for i, tok in enumerate(tokens):
        depth += (tok == "(") - (tok == ")")
        if tok == "~" and depth == 0 and i > 0:
            split = i
    if split is None:
        raise ParseError("no top-level '~' separator found", 0)
    lhs, end = _parse(tokens[:split], signature, text)
    if end < split:
        raise _error("trailing input on left of '~'", text, tokens, end)
    rhs, end = _parse(tokens, signature, text, split + 1)
    if end < len(tokens):
        raise _error("trailing input on right of '~'", text, tokens, end)
    return Equality(lhs, rhs)


# ---------------------------------------------------------------------------
# occurrences

Side = str  # "l" or "r"
Path = Tuple[Side, Tuple[int, ...]]


def subterm_at(eq: Equality, path: Path) -> Formula:
    side, pos = path
    t = eq.lhs if side == "l" else eq.rhs
    for i in pos:
        if not isinstance(t, App) or not 0 <= i < len(t.args):
            raise ValueError(f"path {path} does not address a subterm")
        t = t.args[i]
    return t


def replace_at(eq: Equality, path: Path, new: Formula) -> Equality:
    side, pos = path
    if side not in ("l", "r"):
        raise ValueError(f"bad side {side!r}")
    t = eq.lhs if side == "l" else eq.rhs
    spine = []  # each App on the path, with the argument the path takes
    for i in pos:
        if not isinstance(t, App) or not 0 <= i < len(t.args):
            raise ValueError(f"path {path} does not address a subterm")
        spine.append((t, i))
        t = t.args[i]
    for t, i in reversed(spine):
        args = list(t.args)
        args[i] = new
        new = app(t.connective, tuple(args))
    return Equality(new, eq.rhs) if side == "l" else Equality(eq.lhs, new)


def _paths_disjoint(paths: Sequence[Path]) -> bool:
    for a, b in itertools.combinations(paths, 2):
        if a[0] != b[0]:
            continue
        pa, pb = a[1], b[1]
        shorter = min(len(pa), len(pb))
        if pa[:shorter] == pb[:shorter]:
            return False
    return True


# ---------------------------------------------------------------------------
# derivations

SYSTEMS = ("E1", "E2", "E3", "E1s", "E2s", "E3s")


@dataclass(frozen=True)
class Step:
    """One line of a derivation with its justification.

    rule is one of: axiom, premise, sym, trans, cong, replace, subst.
    refs index earlier steps.  For replace, occurrences pairs a path in the
    base equality with the ref supplying the equation used there.
    """

    equality: Equality
    rule: str
    refs: Tuple[int, ...] = ()
    occurrences: Tuple[Tuple[Path, int], ...] = ()
    connective: Optional[str] = None
    substitution: Optional[Substitution] = None


@dataclass(frozen=True)
class EDerivation:
    system: str
    steps: Tuple[Step, ...]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    step_index: Optional[int] = None
    reason: Optional[str] = None


def _rules_of(system: str) -> frozenset:
    base = {"axiom", "premise", "sym"}
    core = system.rstrip("s")
    if core == "E1":
        base |= {"trans", "cong"}
    else:  # E2 or E3
        base |= {"replace"}
    if system.endswith("s"):
        base |= {"subst"}
    return frozenset(base)


def check_e_derivation(
    deriv: EDerivation, premises: Sequence[Equality]
) -> CheckResult:
    """Verify every step of a derivation against its system's rules."""
    if deriv.system not in SYSTEMS:
        raise ValueError(f"unknown system {deriv.system!r}")
    allowed = _rules_of(deriv.system)
    premise_set = set(premises)
    for i, step in enumerate(deriv.steps):
        if step.rule not in allowed:
            return CheckResult(False, i, f"rule {step.rule!r} not in system {deriv.system}")
        if any(r < 0 or r >= i for r in step.refs):
            return CheckResult(False, i, "reference to a non-preceding step")
        eq = step.equality
        if step.rule == "axiom":
            if eq.lhs != eq.rhs:
                return CheckResult(False, i, "axiom instance must equate a term with itself")
        elif step.rule == "premise":
            if eq not in premise_set:
                return CheckResult(False, i, "equality is not among the premises")
        elif step.rule == "sym":
            if len(step.refs) != 1:
                return CheckResult(False, i, "sym takes one reference")
            if deriv.steps[step.refs[0]].equality.reversed() != eq:
                return CheckResult(False, i, "sym conclusion is not the reversal")
        elif step.rule == "trans":
            if len(step.refs) != 2:
                return CheckResult(False, i, "trans takes two references")
            e1 = deriv.steps[step.refs[0]].equality
            e2 = deriv.steps[step.refs[1]].equality
            if e1.rhs != e2.lhs or eq != Equality(e1.lhs, e2.rhs):
                return CheckResult(False, i, "trans conclusion does not chain the references")
        elif step.rule == "cong":
            if step.connective is None:
                return CheckResult(False, i, "cong needs a connective")
            parts = [deriv.steps[r].equality for r in step.refs]
            if not parts:
                return CheckResult(False, i, "cong needs at least one reference")
            lhs, rhs = eq.lhs, eq.rhs
            if not all(isinstance(t, App) and t.connective == step.connective for t in (lhs, rhs)):
                return CheckResult(False, i, "cong conclusion does not apply the connective")
            for t in (lhs, rhs):
                if len(t.args) != len(parts):
                    reason = f"cong has {len(parts)} references for {len(t.args)} arguments"
                    return CheckResult(False, i, reason)
            # formulas are interned: the arguments are compared by identity, and nothing is built
            if any(a is not p.lhs or b is not p.rhs for a, b, p in zip(lhs.args, rhs.args, parts)):
                return CheckResult(False, i, "cong conclusion does not apply the connective")
        elif step.rule == "replace":
            if len(step.refs) != 1:
                return CheckResult(False, i, "replace takes one base reference")
            if not step.occurrences:
                return CheckResult(False, i, "replace needs designated occurrences")
            if not _paths_disjoint([p for p, _ in step.occurrences]):
                return CheckResult(False, i, "designated occurrences overlap")
            if deriv.system.rstrip("s") == "E3":
                if len({r for _, r in step.occurrences}) != 1:
                    return CheckResult(False, i, "single-equation replacement only")
            base = deriv.steps[step.refs[0]].equality
            current = base
            try:
                for path, r in step.occurrences:
                    if not 0 <= r < i:
                        return CheckResult(False, i, "reference to a non-preceding step")
                    used = deriv.steps[r].equality
                    if subterm_at(base, path) != used.lhs:
                        return CheckResult(False, i, f"occurrence at {path} is not the equation's left term")
                    current = replace_at(current, path, used.rhs)
            except ValueError as exc:
                return CheckResult(False, i, str(exc))
            if current != eq:
                return CheckResult(False, i, "replacement result differs from conclusion")
        else:  # subst, the one allowed rule left
            if len(step.refs) != 1 or step.substitution is None:
                return CheckResult(False, i, "subst takes one reference and a substitution")
            src = deriv.steps[step.refs[0]].equality
            want = Equality(step.substitution.apply(src.lhs), step.substitution.apply(src.rhs))
            if eq != want:
                return CheckResult(False, i, "subst conclusion is not the instance")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# semantic consequence


@dataclass(frozen=True)
class EqConsequenceResult:
    holds: bool
    algebra_index: Optional[int] = None
    assignment: Optional[Tuple[Tuple[int, int], ...]] = None


def _first_difference(
    alg, premises: Sequence[Equality], goal: Equality, caps: ResourceCaps
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """First assignment, in lexicographic order over the sorted variables, that
    satisfies every premise and separates the goal's sides; the scan stops at its slice."""
    import numpy as np

    from .algebra import _assignment_at, _sliced_tables

    terms = [t for e in (*premises, goal) for t in (e.lhs, e.rhs)]
    var_order, slices = _sliced_tables(alg, terms, caps)
    for start, tables in slices:
        bad = tables[-2] != tables[-1]
        for lhs, rhs in zip(tables[:-2:2], tables[1:-2:2]):
            bad &= lhs == rhs
        flat = int(np.argmax(bad))
        if bad[flat]:
            return _assignment_at(start + flat, var_order, alg.size)
    return None


def eq_consequence(
    mode: str,
    algebras: Sequence,
    premises: Sequence[Equality],
    goal: Equality,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> EqConsequenceResult:
    """Mode "E": pointwise over valuations of each algebra.  Mode "EL":
    only algebras validating every premise must validate the goal."""
    if mode not in ("E", "EL"):
        raise ValueError(f"unknown mode {mode!r}")
    if any(alg.signature != algebras[0].signature for alg in algebras):
        raise ValueError("algebras must share a signature")
    for ai, alg in enumerate(algebras):
        if mode == "E":
            refuter = _first_difference(alg, premises, goal, caps)
        elif any(_first_difference(alg, (), e, caps) is not None for e in premises):
            continue
        else:
            refuter = _first_difference(alg, (), goal, caps)
        if refuter is not None:
            return EqConsequenceResult(False, ai, refuter)
    return EqConsequenceResult(True)


# ---------------------------------------------------------------------------
# ground decision by congruence closure


def ground_closure(
    premises: Sequence[Equality], extra_terms: Sequence[Formula] = ()
) -> Dict[Formula, int]:
    """Congruence closure of the premises over all their subterms (plus any
    extra terms), with variables treated as opaque constants.  Returns the
    class index of every term in the universe, each after its subterms, in
    _postorder's order; that one walk also reads each application's argument
    positions, as the application is finished."""
    position: Dict[Formula, int] = {}
    apps = []
    stack = [*(t for e in premises for t in (e.lhs, e.rhs)), *extra_terms][::-1]
    while stack:
        t = stack.pop()
        if t in position:
            continue
        if isinstance(t, App):
            args = [*map(position.get, t.args)]
            if None in args:  # finished once its arguments are
                stack.extend((t, *reversed(t.args)))
                continue
            apps.append((len(position), t.connective, args))
        position[t] = len(position)
    pairs = [(position[e.lhs], position[e.rhs]) for e in premises]
    return dict(zip(position, _close(len(position), apps, pairs)))


def decide_ground_equational(
    premises: Sequence[Equality], goal: Equality
) -> Tuple[bool, Dict[Formula, int]]:
    """Is the goal a ground equational consequence of the premises (variables
    read as constants)?  Also returns the closure partition as the witness."""
    labels = ground_closure(premises, (goal.lhs, goal.rhs))
    return labels[goal.lhs] == labels[goal.rhs], labels


# ---------------------------------------------------------------------------
# bridges


def s_translate(eq: Equality) -> Formula:
    """An equality as the conjunction of the two implications."""
    return conj(imp(eq.lhs, eq.rhs), imp(eq.rhs, eq.lhs))


@dataclass(frozen=True)
class BridgeResult:
    holds: bool
    translated_premises: Tuple[Formula, ...]
    translated_goal: Formula
    witness: Optional[Tuple[Tuple[int, int], ...]] = None


def bridge_implicational(
    target: str,
    premises: Sequence[Equality],
    goal: Equality,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> BridgeResult:
    """Route an equational question through the biimplication translation.

    target "EB": consequence in the two-element Boolean matrix (with
    constants).  target "EH": derivability of the translated sequent in the
    intuitionistic sequent calculus.
    """
    xs = tuple(s_translate(e) for e in premises)
    g = s_translate(goal)
    if target == "EB":
        from .matrices import consequence, make_preset

        b2c = make_preset("B2c")
        ops = set(b2c.algebra.signature.operations)
        for h in _postorder((*xs, g))[1]:
            if isinstance(h, Var):
                continue
            op = (h.connective, len(h.args)) if isinstance(h, App) else (h.name, 0)
            if op not in ops:
                raise ValueError("connective %r/%d not supported by B2c" % op)
        res = consequence(b2c, xs, g, caps)
        return BridgeResult(res.holds, xs, g, res.assignment)
    if target == "EH":
        from .intprover import g3_prove

        tree = g3_prove(xs, g, caps)
        return BridgeResult(tree is not None, xs, g)
    raise ValueError(f"unknown bridge target {target!r}")
