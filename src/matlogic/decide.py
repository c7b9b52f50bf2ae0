"""Decision procedures over finite matrices and atlases.

All three questions reduce to scans of representative term functions over a
common algebra: triviality looks for one designated-everywhere
representative; theorem inclusion compares validity of each representative
on the two sides of a combined matrix; atlas inclusion closes every theory
of the second atlas under the first atlas's consequence operation and looks
for a representative the closure adds.

The variable count used for the representative scan matters for soundness:
the scan is conclusive when the refuting side's algebra is generated by
that many elements.  By default the smallest verified generating size is
used.  A caller-supplied smaller count still runs and is reported as a spot
check (stats carry ``sound: False``).

Counterexamples are always re-validated against the original matrices or
atlases before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import (
    FiniteAlgebra,
    TermFunction,
    clone_discovery_order,
    minimal_generating_set,
)
from .limits import DEFAULT_CAPS, CapExceeded, ResourceCaps
from .matrices import (
    Atlas,
    Matrix,
    _cyl_left,
    _cyl_right,
    _filter_mask,
    consequence,
    direct_product,
    is_valid,
)


# side-2 theories closed at once by atlas_inclusion; bounds its (block, side-1
# theories) array
_THEORY_BLOCK = 1 << 10


@dataclass(frozen=True)
class DecisionReport:
    question: str
    answer: str  # "yes" | "no" | "cap-exceeded"
    witness: Optional[object] = None
    stats: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.answer not in ("yes", "no", "cap-exceeded"):
            raise ValueError(f"bad answer {self.answer!r}")


def _cap_report(question: str, exc: CapExceeded, **stats: object) -> DecisionReport:
    info = dict(stats)
    info.update({"cap": exc.cap, "limit": exc.limit})
    return DecisionReport(question, "cap-exceeded", None, info)


def has_theorems(m: Matrix, caps: ResourceCaps = DEFAULT_CAPS) -> DecisionReport:
    """Does the matrix have any valid formula at all?  Scans the one-variable
    representatives (theoremhood collapses variables, so one variable is
    enough)."""
    question = "has-theorems"
    if not m.designated:
        return DecisionReport(question, "no", None, {"reason": "empty designated set"})
    try:
        reps = clone_discovery_order(m.algebra, 1, caps)
    except CapExceeded as exc:
        return _cap_report(question, exc, n=1)
    stats = {"n": 1, "representatives": len(reps)}
    for tf in reps:
        if m.designated.issuperset(tf.table):
            check = is_valid(m, tf.witness, caps)
            if not check.valid:
                raise AssertionError("representative failed re-validation")
            return DecisionReport(question, "yes", tf.witness, stats)
    return DecisionReport(question, "no", None, stats)


def _resolve_scan_size(
    alg: FiniteAlgebra, requested: Optional[int]
) -> Tuple[int, bool, Optional[Tuple[int, ...]]]:
    """Pick the representative scan arity: (size, sound, generating seed)."""
    if requested is None:
        size, seed = minimal_generating_set(alg)
        return max(size, 1), True, seed
    try:
        _, seed = minimal_generating_set(alg, requested)
    except ValueError:
        return requested, False, None
    return requested, True, seed


def _scan_setup(
    a1: Atlas,
    a2: Atlas,
    caps: ResourceCaps,
    requested: Optional[int],
    size_key: str,
) -> Tuple[
    FiniteAlgebra,
    Tuple[frozenset, ...],
    Tuple[frozenset, ...],
    List[TermFunction],
    Dict[str, object],
]:
    """Both filter families over one common algebra, its representatives and
    the scan's stats (the scan size under size_key).

    The common algebra is the shared one when the tables agree, else the
    direct product with the first family cylindrified on the left factor and
    the second on the right.  The scan size is a2's generating size: a
    separating formula or sequent can always be rewritten over generator
    terms of the refuting side, so that many variables make the scan
    conclusive.  A smaller requested size still runs, as a spot check.
    """
    if a1.algebra.same_tables(a2.algebra):
        common, fam1, fam2 = a1.algebra, a1.filters, a2.filters
    else:
        common = direct_product(a1.algebra, a2.algebra)
        k1, k2 = a1.algebra.size, a2.algebra.size
        fam1 = tuple(_cyl_left(d, k2) for d in a1.filters)
        fam2 = tuple(_cyl_right(d, k1, k2) for d in a2.filters)
    size, sound, seed = _resolve_scan_size(a2.algebra, requested)
    reps = clone_discovery_order(common, size, caps)
    stats: Dict[str, object] = {
        size_key: size,
        "sound": sound,
        "representatives": len(reps),
        "common_carrier": common.size,
    }
    if seed is not None:
        stats["generating_seed"] = seed
    return common, fam1, fam2, reps, stats


def _both_directions(
    question: str, inclusion, x, y, caps: ResourceCaps, size: Optional[int]
) -> DecisionReport:
    """The inclusion forward, then backward: the first answer other than yes,
    with its direction, else yes with the forward stats."""
    fwd = inclusion(x, y, caps, size)
    rep, direction = fwd, "forward"
    if fwd.answer == "yes":
        rep, direction = inclusion(y, x, caps, size), "backward"
    if rep.answer == "yes":
        return DecisionReport(question, "yes", None, {**fwd.stats})
    return DecisionReport(question, rep.answer, rep.witness, {"direction": direction, **rep.stats})


def theorem_inclusion(
    m1: Matrix,
    m2: Matrix,
    caps: ResourceCaps = DEFAULT_CAPS,
    n: Optional[int] = None,
) -> DecisionReport:
    """Are all theorems of m1 theorems of m2?

    Both matrices are laid over one common algebra, and every representative
    valid on the m1 side is checked on the m2 side.
    """
    question = "theorem-inclusion"
    if m1.algebra.signature != m2.algebra.signature:
        raise ValueError("matrices must share a signature")
    try:
        setup = _scan_setup(m1.as_atlas(), m2.as_atlas(), caps, n, "n")
        _, (d1,), (d2,), reps, stats = setup
        for tf in reps:
            if d1.issuperset(tf.table) and not d2.issuperset(tf.table):
                break
        else:
            return DecisionReport(question, "yes", None, stats)
        keep = is_valid(m1, tf.witness, caps)
        drop = is_valid(m2, tf.witness, caps)
        if not keep.valid or drop.valid:
            raise AssertionError("witness failed re-validation")
        stats["refuting_assignment"] = drop.assignment
        return DecisionReport(question, "no", tf.witness, stats)
    except CapExceeded as exc:
        return _cap_report(question, exc, n=n)


def weak_equivalence(
    m1: Matrix,
    m2: Matrix,
    caps: ResourceCaps = DEFAULT_CAPS,
    n: Optional[int] = None,
) -> DecisionReport:
    """Same theorem set in both directions."""
    return _both_directions("weak-equivalence", theorem_inclusion, m1, m2, caps, n)


def atlas_inclusion(
    a1: Atlas,
    a2: Atlas,
    caps: ResourceCaps = DEFAULT_CAPS,
    m: Optional[int] = None,
) -> DecisionReport:
    """Is every consequence of the first atlas a consequence of the second?

    Both filter families are laid over one common algebra.  A theory is the
    set of representatives one filter keeps at one assignment.  Each side-2
    theory is closed under side 1: the representatives in every side-1
    theory that contains it.  A representative of the closure outside the
    theory is a consequence of side 1 that side 2 refutes.  The first such
    one, in assignment-major then filter order, is reported with premises
    greedily dropped while side 1 still entails it, and re-validated.
    Side-2 theories are closed in order, a block of _THEORY_BLOCK at a time,
    up to the first block holding a violation.
    """
    question = "atlas-inclusion"
    if a1.algebra.signature != a2.algebra.signature:
        raise ValueError("atlases must share a signature")
    try:
        common, fam1, fam2, reps, stats = _scan_setup(a1, a2, caps, m, "m")
        if not reps:
            # no formulas over m variables, so no sequent can separate the atlases
            return DecisionReport(question, "yes", None, stats)
        k = common.size
        tables = np.array([tf.table for tf in reps]).T  # (assignments, R)

        def theories(filters) -> np.ndarray:
            # row a * len(filters) + f: the representatives filter f keeps at assignment a
            masks = np.array([_filter_mask(d, k) for d in filters])
            return masks[:, tables].transpose(1, 0, 2).reshape(-1, len(reps))

        side1, side2 = theories(fam1), theories(fam2)
        for lo in range(0, len(side2), _THEORY_BLOCK):
            block = side2[lo : lo + _THEORY_BLOCK]
            above = ~(block @ ~side1.T)  # [t, s]: block theory t lies within side-1 theory s
            violations = ~(above @ ~side1) & ~block
            hits = np.flatnonzero(violations.any(axis=1))
            if hits.size:
                break
        else:
            return DecisionReport(question, "yes", None, stats)
        theory = block[hits[0]].copy()
        r0 = int(np.argmax(violations[hits[0]]))
        # side 1 entails r0 from the premises while each side-1 theory without
        # r0 misses at least one of them
        outside = ~side1[~side1[:, r0]]
        missing = (outside & theory).sum(axis=1)
        for p in np.flatnonzero(theory):
            lacking = outside[:, p]
            if (missing[lacking] > 1).all():
                missing[lacking] -= 1
                theory[p] = False
        chosen = [reps[r].witness for r in np.flatnonzero(theory)]
        concl = reps[r0].witness
        keep = consequence(a1, chosen, concl, caps)
        drop = consequence(a2, chosen, concl, caps)
        if not keep.holds or drop.holds:
            raise AssertionError("counterexample sequent failed re-validation")
        stats["separating_assignment"] = drop.assignment
        stats["separating_filter"] = drop.filter_index
        return DecisionReport(question, "no", (tuple(chosen), concl), stats)
    except CapExceeded as exc:
        return _cap_report(question, exc, m=m)


def atlas_equivalence(
    a1: Atlas,
    a2: Atlas,
    caps: ResourceCaps = DEFAULT_CAPS,
    m: Optional[int] = None,
) -> DecisionReport:
    """Same consequences in both directions."""
    return _both_directions("atlas-equivalence", atlas_inclusion, a1, a2, caps, m)
