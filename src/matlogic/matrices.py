"""Logical matrices and atlases: validity, consequence, combination.

A matrix is an algebra with one designated subset; an atlas carries a
nonempty family of designated subsets over one algebra.  Validity and
finite-premise consequence are decided by exhausting valuations; reported
counterexamples are deterministic: the first assignment in lexicographic
tuple order (p-variables ascending, element indices as digits), and for
atlases the first filter in family order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    Congruence,
    FiniteAlgebra,
    _assignment_at,
    _sliced_tables,
    direct_product,
    greatest_congruence_below,
    quotient_by_congruence,
)
from .lang import (
    AND,
    BOOLEAN_SIGNATURE,
    BOT,
    CLASSICAL_SIGNATURE,
    COMBINE_KINDS,
    IFF,
    IMP,
    INT_SIGNATURE,
    NOT,
    OR,
    TOP,
    Formula,
    Signature,
)
from .limits import DEFAULT_CAPS, Memo, ResourceCaps


@dataclass(frozen=True)
class Matrix:
    algebra: FiniteAlgebra
    designated: frozenset

    def __post_init__(self) -> None:
        for e in self.designated:
            if not (0 <= e < self.algebra.size):
                raise ValueError(f"designated index {e} out of range")

    def as_atlas(self) -> "Atlas":
        return Atlas(self.algebra, (self.designated,))


@dataclass(frozen=True)
class Atlas:
    algebra: FiniteAlgebra
    filters: Tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if not self.filters:
            raise ValueError("atlas needs at least one filter")
        seen = set()
        deduped = []
        for d in self.filters:
            for e in d:
                if not (0 <= e < self.algebra.size):
                    raise ValueError(f"filter index {e} out of range")
            if d not in seen:
                seen.add(d)
                deduped.append(frozenset(d))
        object.__setattr__(self, "filters", tuple(deduped))


# ---------------------------------------------------------------------------
# validity and consequence


def _filter_mask(d: frozenset, k: int) -> np.ndarray:
    mask = np.zeros(k, dtype=bool)
    for e in d:
        mask[e] = True
    return mask


def _first_refutation(
    atlas: Atlas,
    premises: Sequence[Formula],
    conclusion: Formula,
    caps: ResourceCaps,
) -> Optional[Tuple[Tuple[Tuple[int, int], ...], int]]:
    """First assignment, in lexicographic order over the sorted variables,
    under which some filter holds every premise but not the conclusion, and
    the family position of the first such filter; None if there is none.
    Scanned slice by slice, up to the first slice that holds a refutation."""
    alg = atlas.algebra
    var_order, slices = _sliced_tables(alg, [*premises, conclusion], caps)
    masks = [_filter_mask(d, alg.size) for d in atlas.filters]
    for start, tables in slices:
        refutations = []
        for fi, mask in enumerate(masks):
            bad = ~mask[tables[-1]]
            for t in tables[:-1]:
                bad &= mask[t]
            if bad.any():
                refutations.append((int(np.argmax(bad)), fi))
        if refutations:
            flat, fi = min(refutations)
            return _assignment_at(start + flat, var_order, alg.size), fi
    return None


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    # first refuting assignment (variable index -> element index) and the
    # family position of the refuting filter, if invalid
    assignment: Optional[Tuple[Tuple[int, int], ...]] = None
    filter_index: Optional[int] = None


def is_valid(
    target: "Matrix | Atlas", f: Formula, caps: ResourceCaps = DEFAULT_CAPS
) -> ValidityResult:
    atlas = target.as_atlas() if isinstance(target, Matrix) else target
    refutation = _first_refutation(atlas, (), f, caps)
    if refutation is None:
        return ValidityResult(True)
    return ValidityResult(False, *refutation)


@dataclass(frozen=True)
class ConsequenceResult:
    holds: bool
    assignment: Optional[Tuple[Tuple[int, int], ...]] = None
    filter_index: Optional[int] = None


def consequence(
    target: "Matrix | Atlas",
    premises: Sequence[Formula],
    conclusion: Formula,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> ConsequenceResult:
    """Finite-premise consequence: every valuation sending all premises into
    a filter sends the conclusion there too (checked per filter)."""
    atlas = target.as_atlas() if isinstance(target, Matrix) else target
    refutation = _first_refutation(atlas, tuple(premises), conclusion, caps)
    if refutation is None:
        return ConsequenceResult(True)
    return ConsequenceResult(False, *refutation)


# ---------------------------------------------------------------------------
# combinations


def _cyl_left(d: frozenset, k2: int) -> frozenset:
    return frozenset(i * k2 + j for i in d for j in range(k2))


def _cyl_right(d: frozenset, k1: int, k2: int) -> frozenset:
    return frozenset(i * k2 + j for i in range(k1) for j in d)


def combine_matrices(kind: str, m1: Matrix, m2: Matrix) -> Matrix:
    """Matrix combinations on the product algebra.

    lsum keeps the left designated set (cylindrified), rsum the right;
    product intersects them, sum unites them.
    """
    if kind not in COMBINE_KINDS:
        raise ValueError(f"unknown combination {kind!r}")
    alg = direct_product(m1.algebra, m2.algebra)
    k1, k2 = m1.algebra.size, m2.algebra.size
    left = _cyl_left(m1.designated, k2)
    right = _cyl_right(m2.designated, k1, k2)
    if kind == "lsum":
        designated = left
    elif kind == "rsum":
        designated = right
    elif kind == "product":
        designated = left & right
    else:
        designated = left | right
    return Matrix(alg, designated)


# ---------------------------------------------------------------------------
# compatible congruences


def greatest_compatible_congruence(target: "Matrix | Atlas") -> Congruence:
    """Greatest congruence of the algebra whose blocks do not cross any
    filter: start from the filter-membership-profile partition and refine."""
    atlas = target.as_atlas() if isinstance(target, Matrix) else target
    k = atlas.algebra.size
    profiles: Dict[Tuple[bool, ...], int] = {}
    labels = []
    for e in range(k):
        prof = tuple(e in d for d in atlas.filters)
        labels.append(profiles.setdefault(prof, len(profiles)))
    return greatest_congruence_below(atlas.algebra, Congruence.from_labels(labels))


def reduced_matrix(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Quotient by the greatest compatible congruence, with the projection."""
    cong = greatest_compatible_congruence(m)
    quotient, proj = quotient_by_congruence(m.algebra, cong)
    designated = frozenset(proj[e] for e in m.designated)
    return Matrix(quotient, designated), proj


# ---------------------------------------------------------------------------
# presets

BOX, DIA = "□", "◇"
_L3M_SIG = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, BOX: 1, DIA: 1})


def _boolean_tables(sig: Signature) -> Dict[str, np.ndarray]:
    t: Dict[str, np.ndarray] = {}
    if NOT in sig:
        t[NOT] = np.array([1, 0])
    if AND in sig:
        t[AND] = np.array([[0, 0], [0, 1]])
    if OR in sig:
        t[OR] = np.array([[0, 1], [1, 1]])
    if IMP in sig:
        t[IMP] = np.array([[1, 1], [0, 1]])
    if IFF in sig:
        t[IFF] = np.array([[1, 0], [0, 1]])
    if TOP in sig:
        t[TOP] = np.array(1)
    if BOT in sig:
        t[BOT] = np.array(0)
    return t


def boolean_matrix(sig: Signature = CLASSICAL_SIGNATURE) -> Matrix:
    """Two-element Boolean matrix over any subset of the Boolean symbols."""
    return Matrix(FiniteAlgebra(sig, ["0", "1"], _boolean_tables(sig)), frozenset({1}))


def _lukasiewicz3(signature: Signature) -> FiniteAlgebra:
    tables: Dict[str, np.ndarray] = {
        NOT: np.array([2, 1, 0]),
        AND: np.minimum.outer(np.arange(3), np.arange(3)),
        OR: np.maximum.outer(np.arange(3), np.arange(3)),
        IMP: np.array([[2, 2, 2], [1, 2, 2], [0, 1, 2]]),
    }
    if BOX in signature:
        tables[BOX] = np.array([0, 0, 2])
    if DIA in signature:
        tables[DIA] = np.array([0, 2, 2])
    return FiniteAlgebra(signature, ["0", "1/2", "1"], tables)


def godel_chain(n: int, signature: Signature = INT_SIGNATURE) -> FiniteAlgebra:
    """n-element chain with min, max, relative pseudcomplement arrow and the
    induced negation."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    names = [str(Fraction(i, n - 1)) for i in range(n)]
    idx = np.arange(n)
    imp_t = np.where(idx[:, None] <= idx[None, :], n - 1, idx[None, :] * np.ones((n, n), dtype=np.int64))
    imp_t = imp_t.astype(np.int64)
    tables = {
        AND: np.minimum.outer(idx, idx),
        OR: np.maximum.outer(idx, idx),
        IMP: imp_t,
        NOT: np.where(idx == 0, n - 1, 0).astype(np.int64),
    }
    if IFF in signature:
        tables[IFF] = np.minimum(imp_t, imp_t.T)
    return FiniteAlgebra(signature, names, tables)


PRESET_NAMES = ("B2", "B2c", "L3", "L3modal", "Gn", "LCchain")

# Presets are kept between calls (_PRESETS), keyed by name and size; a matrix
# and its tables are read-only.  An entry weighs a cell per table entry, so a
# preset over the budget is built per call.
_PRESETS = Memo(1 << 15)  # G4 takes 52 cells, L3modal 36, G100 30,100


def make_preset(name: str, n: Optional[int] = None) -> Matrix:
    """Built-in matrices, built again only when new to the process.

    B2       two-element Boolean matrix ({¬,∧,∨,→,↔}, designated {1})
    B2c      B2 extended with constants ⊤ and ⊥
    L3       three-valued Lukasiewicz matrix, designated {1}
    L3modal  L3 plus the unary □ and ◇ operations
    Gn       n-element chain matrix, designated {1} (requires n)
    LCchain  alias family: the n-element chain presentation (requires n)
    """
    m = _PRESETS.recall((name, n))
    if m is None:
        m = _build_preset(name, n)
        _PRESETS.keep((name, n), m, sum(t.size for t in m.algebra.tables.values()))
    return m


def _build_preset(name: str, n: Optional[int]) -> Matrix:
    if name == "B2":
        return boolean_matrix(CLASSICAL_SIGNATURE)
    if name == "B2c":
        return boolean_matrix(BOOLEAN_SIGNATURE)
    if name == "L3":
        return Matrix(_lukasiewicz3(INT_SIGNATURE), frozenset({2}))
    if name == "L3modal":
        return Matrix(_lukasiewicz3(_L3M_SIG), frozenset({2}))
    if name in ("Gn", "LCchain"):
        if n is None:
            raise ValueError(f"preset {name!r} needs a size parameter")
        alg = godel_chain(n)
        return Matrix(alg, frozenset({n - 1}))
    raise ValueError(f"unknown preset {name!r}")
