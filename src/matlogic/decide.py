"""Decision procedures over finite matrices and atlases.

All three questions reduce to scans of representative term functions over a
common algebra: triviality looks for one designated-everywhere
representative; theorem inclusion compares validity of each representative
on the two sides of a combined matrix; atlas inclusion scans candidate
entailments between representative sets.

The variable count used for the representative scan matters for soundness:
the scan is conclusive when the common algebra is generated by that many
elements.  By default the smallest verified generating size is used.  A
caller-supplied smaller count still runs and is reported as a spot check
(stats carry ``sound: False``).

Counterexamples are always re-validated against the original matrices or
atlases before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import (
    FiniteAlgebra,
    clone_discovery_order,
    minimal_generating_set,
)
from .limits import DEFAULT_CAPS, CapExceeded, ResourceCaps
from .matrices import (
    Atlas,
    Matrix,
    _filter_mask,
    combine_atlases,
    consequence,
    direct_product,
    is_valid,
)


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


def has_theorems(
    m: Matrix, caps: ResourceCaps = DEFAULT_CAPS, n: int = 1
) -> DecisionReport:
    """Does the matrix have any valid formula at all?  Scans the one-variable
    representatives (theoremhood collapses variables, so one variable is
    enough)."""
    question = "has-theorems"
    if not m.designated:
        return DecisionReport(question, "no", None, {"reason": "empty designated set"})
    try:
        reps = clone_discovery_order(m.algebra, n, caps)
    except CapExceeded as exc:
        return _cap_report(question, exc, n=n)
    for tf in reps:
        if all(v in m.designated for v in tf.table):
            check = is_valid(m, tf.witness, caps)
            if not check.valid:
                raise AssertionError("representative failed re-validation")
            return DecisionReport(
                question, "yes", tf.witness, {"n": n, "representatives": len(reps)}
            )
    return DecisionReport(question, "no", None, {"n": n, "representatives": len(reps)})


def _resolve_scan_size(
    alg: FiniteAlgebra, requested: Optional[int]
) -> Tuple[int, bool, Optional[Tuple[int, ...]]]:
    """Pick the representative scan arity: (size, sound, generating seed)."""
    if requested is None:
        size, seed = minimal_generating_set(alg)
        return max(size, 1), True, seed
    found_size, seed = minimal_generating_set(alg, max_size=min(requested, alg.size))
    if found_size <= requested:
        return requested, True, seed
    return requested, False, None


def theorem_inclusion(
    m1: Matrix,
    m2: Matrix,
    caps: ResourceCaps = DEFAULT_CAPS,
    n: Optional[int] = None,
) -> DecisionReport:
    """Are all theorems of m1 theorems of m2?

    Both matrices are laid over one common algebra (the direct product, or
    the shared algebra when the carriers agree), and every representative
    valid on the m1 side is checked on the m2 side.
    """
    question = "theorem-inclusion"
    if m1.algebra.signature != m2.algebra.signature:
        raise ValueError("matrices must share a signature")
    if m1.algebra.same_tables(m2.algebra):
        common = m1.algebra
        d1, d2 = m1.designated, m2.designated
    else:
        common = direct_product(m1.algebra, m2.algebra)
        k2 = m2.algebra.size
        d1 = frozenset(i * k2 + j for i in m1.designated for j in range(k2))
        d2 = frozenset(i * k2 + j for i in range(m1.algebra.size) for j in m2.designated)
    try:
        found = None
        # arity bound: a separating formula can always be rewritten over
        # generator terms of the refuting side, so m2's generating size is
        # enough while staying sound
        try:
            size, sound, seed = _resolve_scan_size(m2.algebra, n)
        except ValueError:
            size, sound, seed = (n if n is not None else m2.algebra.size), False, None
        reps = clone_discovery_order(common, size, caps)
        stats: Dict[str, object] = {
            "n": size,
            "sound": sound,
            "representatives": len(reps),
            "common_carrier": common.size,
        }
        if seed is not None:
            stats["generating_seed"] = seed
        for tf in reps:
            in_m1 = all(v in d1 for v in tf.table)
            in_m2 = all(v in d2 for v in tf.table)
            if in_m1 and not in_m2:
                found = tf.witness
                break
        if found is None:
            return DecisionReport(question, "yes", None, stats)
        if not is_valid(m1, found, caps).valid or is_valid(m2, found, caps).valid:
            raise AssertionError("witness failed re-validation")
        refuter = is_valid(m2, found, caps)
        stats["refuting_assignment"] = refuter.assignment
        return DecisionReport(question, "no", found, stats)
    except CapExceeded as exc:
        return _cap_report(question, exc, n=n)


def weak_equivalence(
    m1: Matrix,
    m2: Matrix,
    caps: ResourceCaps = DEFAULT_CAPS,
    n: Optional[int] = None,
) -> DecisionReport:
    """Same theorem set in both directions."""
    fwd = theorem_inclusion(m1, m2, caps, n)
    if fwd.answer != "yes":
        return DecisionReport(
            "weak-equivalence", fwd.answer, fwd.witness, {"direction": "forward", **fwd.stats}
        )
    bwd = theorem_inclusion(m2, m1, caps, n)
    if bwd.answer != "yes":
        return DecisionReport(
            "weak-equivalence", bwd.answer, bwd.witness, {"direction": "backward", **bwd.stats}
        )
    return DecisionReport("weak-equivalence", "yes", None, {**fwd.stats})


def _column_masks(member: np.ndarray) -> List[int]:
    """member is a bool matrix (representatives x assignments); returns one
    integer per column with bit r set when representative r is in."""
    packed = np.packbits(member.astype(np.uint8), axis=0, bitorder="little")
    out = []
    for col in range(member.shape[1]):
        out.append(int.from_bytes(packed[:, col].tobytes(), "little"))
    return out


def atlas_inclusion(
    a1: Atlas,
    a2: Atlas,
    caps: ResourceCaps = DEFAULT_CAPS,
    m: Optional[int] = None,
) -> DecisionReport:
    """Is every consequence of the first atlas a consequence of the second?

    Both filter families are laid over one common algebra; a violation is a
    set of representatives entailing another on the first side while some
    valuation-filter slice of the second side separates them.  Reported
    counterexample sequents are greedily minimised and re-validated.
    """
    question = "atlas-inclusion"
    if a1.algebra.signature != a2.algebra.signature:
        raise ValueError("atlases must share a signature")
    if a1.algebra.same_tables(a2.algebra):
        common = a1.algebra
        fam1, fam2 = a1.filters, a2.filters
    else:
        left = combine_atlases("lsum", a1, a2)
        right = combine_atlases("rsum", a1, a2)
        common = left.algebra
        fam1, fam2 = left.filters, right.filters
    try:
        # like theorem inclusion, the refuting side's generating size bounds
        # the variables a separating sequent needs
        try:
            size, sound, seed = _resolve_scan_size(a2.algebra, m)
        except ValueError:
            size, sound, seed = (m if m is not None else a2.algebra.size), False, None
        reps = clone_discovery_order(common, size, caps)
        R = len(reps)
        k = common.size
        tuples = k**size
        caps.check_tuples(tuples)
        stacked = np.stack([tf.values() for tf in reps])  # (R, tuples)
        stats: Dict[str, object] = {
            "m": size,
            "sound": sound,
            "representatives": R,
            "common_carrier": k,
        }
        if seed is not None:
            stats["generating_seed"] = seed

        def family_masks(filters) -> List[int]:
            # assignment-major, filter-minor ordering
            masks: List[int] = []
            cols = [_column_masks(_filter_mask(d, k)[stacked]) for d in filters]
            for a in range(tuples):
                for fi in range(len(filters)):
                    masks.append(cols[fi][a])
            return masks

        masks1 = family_masks(fam1)
        masks2 = family_masks(fam2)
        full = (1 << R) - 1

        def entails_side1(xmask: int, r0: int) -> bool:
            for m1 in masks1:
                if xmask & ~m1 == 0 and not (m1 >> r0) & 1:
                    return False
            return True

        for t_mask in masks2:
            if t_mask == full:
                continue
            entailed = full
            for m1 in masks1:
                if t_mask & ~m1 == 0:
                    entailed &= m1
                    if entailed == t_mask:
                        break
            violations = entailed & ~t_mask
            if not violations:
                continue
            r0 = (violations & -violations).bit_length() - 1
            premise_ids = [r for r in range(R) if (t_mask >> r) & 1]
            xmask = t_mask
            for p in premise_ids:
                trial = xmask & ~(1 << p)
                if entails_side1(trial, r0):
                    xmask = trial
            chosen = [reps[r].witness for r in range(R) if (xmask >> r) & 1]
            concl = reps[r0].witness
            keep = consequence(a1, chosen, concl, caps)
            drop = consequence(a2, chosen, concl, caps)
            if not keep.holds or drop.holds:
                raise AssertionError("counterexample sequent failed re-validation")
            stats["separating_assignment"] = drop.assignment
            stats["separating_filter"] = drop.filter_index
            return DecisionReport(question, "no", (tuple(chosen), concl), stats)
        return DecisionReport(question, "yes", None, stats)
    except CapExceeded as exc:
        return _cap_report(question, exc, m=m)


def atlas_equivalence(
    a1: Atlas,
    a2: Atlas,
    caps: ResourceCaps = DEFAULT_CAPS,
    m: Optional[int] = None,
) -> DecisionReport:
    fwd = atlas_inclusion(a1, a2, caps, m)
    if fwd.answer != "yes":
        return DecisionReport(
            "atlas-equivalence", fwd.answer, fwd.witness, {"direction": "forward", **fwd.stats}
        )
    bwd = atlas_inclusion(a2, a1, caps, m)
    if bwd.answer != "yes":
        return DecisionReport(
            "atlas-equivalence", bwd.answer, bwd.witness, {"direction": "backward", **bwd.stats}
        )
    return DecisionReport("atlas-equivalence", "yes", None, {**fwd.stats})
