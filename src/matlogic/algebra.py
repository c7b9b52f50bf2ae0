"""Finite algebras and term-function machinery.

An algebra interprets every signature symbol by a finite operation table.
Term functions over n variables are tabulated flat, one entry per
assignment tuple; assignments are ordered lexicographically with p1 as
the most significant digit.  The clone closure discovers term functions
breadth first by witness depth, which makes the attached witness of each
function the first formula in canonical enumeration order that realises
its table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .lang import (
    App,
    Formula,
    Signature,
    Var,
    _close,
    _postorder,
    app,
    const,
    var,
)
from .limits import DEFAULT_CAPS, Memo, ResourceCaps


class FiniteAlgebra:
    """Finite algebra: named elements plus one table per signature symbol.

    Tables are integer ndarrays of shape ``(k,) * arity`` holding element
    indices; a constant's table is a scalar array.
    """

    __slots__ = ("signature", "elements", "tables", "_index")

    def __init__(
        self,
        signature: Signature,
        elements: Sequence[str],
        tables: Mapping[str, np.ndarray],
    ) -> None:
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element names")
        if not elements:
            raise ValueError("empty carrier")
        self.signature = signature
        self.elements = tuple(elements)
        k = len(self.elements)
        fixed: Dict[str, np.ndarray] = {}
        for name, arity in signature.operations:
            if name not in tables:
                raise ValueError(f"missing table for {name!r}")
            t = np.asarray(tables[name], dtype=np.int64)
            if t.shape != (k,) * arity:
                raise ValueError(
                    f"table for {name!r} has shape {t.shape}, expected {(k,) * arity}"
                )
            if t.size and (t.min() < 0 or t.max() >= k):
                raise ValueError(f"table for {name!r} has out-of-range entries")
            t.setflags(write=False)
            fixed[name] = t
        extra = set(tables) - {name for name, _ in signature.operations}
        if extra:
            raise ValueError(f"tables for unknown symbols {sorted(extra)}")
        self.tables = fixed
        self._index = {name: i for i, name in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def table(self, name: str) -> np.ndarray:
        return self.tables[name]

    def element_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown element {name!r}") from None

    def same_tables(self, other: "FiniteAlgebra") -> bool:
        if self.signature != other.signature or self.elements != other.elements:
            return False
        return all(np.array_equal(self.tables[n], other.tables[n]) for n in self.tables)

    def __repr__(self) -> str:
        return f"FiniteAlgebra({len(self.elements)} elements, {len(self.tables)} operations)"


# ---------------------------------------------------------------------------
# term evaluation
#
# A flat table holds a formula's value under each of the k**n assignments to
# a variable order, listed lexicographically with the first variable most
# significant.  ``_formula_tables``, the one evaluator, walks the formulas
# once and then evaluates them on each slice of assignments it is given.  A
# slice is a grid with one axis per grid variable, whose values are that
# axis's range(k) (``_axes``); every other variable and every constant has a
# 0-d value.  A connective is a flat gather, its raveled table at the
# arguments' values read base k, and broadcasting makes each value span only
# the axes of its own variables.  A scan for a first counterexample takes
# slices of k**s rows, s the largest with k**s at most _SLICE_ROWS, the last
# s variables as the grid, and stops at the first slice holding one, so no
# array outgrows a slice; values over the grid alone are kept from the first.
_SLICE_ROWS = 1 << 14


class _Unbound(KeyError):
    """Raised for the leftmost variable of a formula that has no value."""

    def __init__(self, index: int) -> None:
        super().__init__(f"assignment missing variable p{index}")
        self.index = index


@functools.lru_cache(maxsize=64)
def _axes(k: int, s: int) -> Tuple[np.ndarray, ...]:
    """Axis i of a (k,) * s grid: range(k) shaped to broadcast along it (read-only)."""
    axes = np.ix_(*[np.arange(k, dtype=np.int64)] * s)
    for axis in axes:
        axis.setflags(write=False)
    return axes


def _assignment_at(
    flat: int, var_order: Sequence[int], k: int
) -> Tuple[Tuple[int, int], ...]:
    """The assignment at a flat table index, as sorted (variable, element) pairs."""
    n = len(var_order)
    pairs = ((v, (flat // k ** (n - pos)) % k) for pos, v in enumerate(var_order, start=1))
    return tuple(sorted(pairs))


def _formula_tables(
    alg: FiniteAlgebra,
    formulas: Sequence[Formula],
    grid: Sequence[int],
    slices: Iterable[Mapping[int, int]],
    walk: Optional[Tuple[Dict[Formula, int], List[Formula]]] = None,
) -> Iterator[List[np.ndarray]]:
    """Flat tables of the formulas over the grid variables, in order, on each
    slice, given as the value of every other variable.  One _postorder walk
    (walk, if the caller has made it) serves every slice, so nesting depth is
    unbounded and the first unbound variable met is the leftmost one.  A
    subformula over grid variables and constants alone is evaluated in the
    first slice and kept; the other values are dropped before the next slice
    is taken.  Only the requested formulas are spread over the whole grid,
    and only those not spanning it."""
    k, flat = alg.size, {name: table.ravel() for name, table in alg.tables.items()}
    shape, axes = (k,) * len(grid), dict(zip(grid, _axes(k, len(grid))))
    position, order = walk or _postorder(formulas)
    steps = [
        (i, g, [position[a] for a in g.args] if isinstance(g, App) else None)
        for i, g in enumerate(order)
    ]
    values: List = [None] * len(order)
    todo, kept = steps, None
    for high in slices:
        columns = {**axes, **high}
        for i, g, args in todo:
            if args is not None:
                j = values[args[0]]
                for a in args[1:]:
                    j = j * k + values[a]
                values[i] = flat[g.connective].take(j)
            elif isinstance(g, Var):
                if g.index not in columns:
                    raise _Unbound(g.index)
                values[i] = columns[g.index]
            else:
                values[i] = alg.tables[g.name]
        tables = [values[position[f]] for f in formulas]
        yield [
            t.ravel() if type(t) is np.ndarray and t.shape == shape else np.full(shape, t).ravel()
            for t in tables
        ]
        if kept is None:
            # a step varies when it reads a variable outside the grid, directly or not
            varies: List[bool] = []
            for _, g, args in steps:
                outside = isinstance(g, Var) and g.index not in axes
                varies.append(outside or args is not None and any(varies[a] for a in args))
            kept = [None if v else x for v, x in zip(varies, values)]
            todo = [step for step, v in zip(steps, varies) if v]
        values[:] = kept


def _sliced_tables(
    alg: FiniteAlgebra, formulas: Sequence[Formula], caps: ResourceCaps
) -> Tuple[List[int], Iterator[Tuple[int, List[np.ndarray]]]]:
    """The formulas' sorted variables and, per slice of the assignments to
    them, in order, (start, formula values).  The walk that evaluates the
    formulas gives the variables, and the tuple cap is checked before any
    slice is taken."""
    walk = _postorder(formulas)
    var_order = sorted(g.index for g in walk[1] if isinstance(g, Var))
    k, n = alg.size, len(var_order)
    caps.check_tuples(k**n)
    s = max(e for e in range(n + 1) if k**e <= _SLICE_ROWS)
    high = [(v, k ** (n - s - pos)) for pos, v in enumerate(var_order[: n - s], start=1)]
    slices = ({v: i // weight % k for v, weight in high} for i in range(k ** (n - s)))
    tables = _formula_tables(alg, formulas, var_order[n - s :], slices, walk)
    return var_order, zip(range(0, k**n, k**s), tables)


def evaluate_term(alg: FiniteAlgebra, f: Formula, assignment: Mapping[int, int]) -> int:
    """Value of f under an assignment of element indices to variable indices."""
    if any(not 0 <= e < alg.size for e in assignment.values()):
        raise ValueError(f"element index out of range 0..{alg.size - 1}")
    (table,) = next(_formula_tables(alg, [f], (), [assignment]))
    return int(table[0])


def term_table(alg: FiniteAlgebra, f: Formula, n: int) -> np.ndarray:
    """Flat table of f as an n-ary term function (all variables must be <= pn)."""
    try:
        (table,) = next(_formula_tables(alg, [f], range(1, n + 1), [{}]))
    except _Unbound as exc:
        raise ValueError(f"variable p{exc.index} exceeds arity {n}") from None
    return np.array(table, dtype=np.int64)


@dataclass(frozen=True)
class TermFunction:
    """An n-ary term function over an algebra: flat table plus a witness
    formula of minimal canonical-enumeration position realising it."""

    arity: int
    table: Tuple[int, ...]
    witness: Formula


# ---------------------------------------------------------------------------
# clone closure
#
# Candidate term functions are handled through codes rather than tables.
# The k**n positions of a flat table are cut into groups of `span`
# consecutive positions (past the end, the first position again), and a
# table is summarised by its code on each group: its digits read base k.
# One lookup per connective, shaped (prefix, last argument), maps the
# arguments' joint code on a group to the result's code there.  A key packs
# the codes times their place values into 62-bit words: an int64 when one
# word holds them, else the words' bytes as a void scalar.
#
# A round's argument tuples are taken as grids, prefix rows times a run of
# last arguments; the other tuples a grid holds add nothing: each was a
# candidate before or, for a symmetric connective, permutes an earlier one.
# A group costs a gather of lookup rows at the prefix rows, scaled by its
# place value, and a gather of their columns at the last arguments, so
# nothing is built per candidate.  Rounds of at most _SMALL_ROUND tuples an
# arity share joint codes between the connectives of that arity and check
# all candidates at once, as Python overhead dominates there.  Grids hold
# at most _CELLS key words, lookups _LOOKUP_ENTRIES unless the table has more.
#
# A term function maps each point x into the subuniverse that x1..xn and the
# constants generate, so an n-ary clone holds at most U functions, U the
# product over the k**n points of those subuniverses' sizes (_clone_bound);
# a clone of U functions holds every such map, so no later candidate is new
# and the closure stops.  U is computed at the first grid round, and cut off
# past max_clone, where the clone cap would stop the closure first.
#
# Finished clones are kept between calls (_CLONES), keyed by signature, k, n
# and the tables' bytes (tables of at most _LOOKUP_ENTRIES entries), not
# element names.  An entry weighs one cell, k**n a function and one per table
# entry, so empty clones count too.  A hit checks the tuple cap, then the
# clone cap on its length, as a build does, whose count only grows.

# clone of G3 at n = 2: 3.0-3.7 ms at 2**10 to 2**14, 7.6 ms at 2**15 (2 vCPU Xeon)
_SMALL_ROUND = 1 << 12
_CELLS = 1 << 15
_LOOKUP_ENTRIES = 1 << 12
# most possible keys for which a key index keeps a row at each possible key,
# not a hash table (clone of L3 at n = 2, 9**5 keys: 0.23 s against 1.6 s hashed)
_DENSE_KEYS = 1 << 22


class _Codes:
    """Groups, codes and keys of flat tables of `size` values below k; a
    group spans as many positions as the lookups of connectives of at most
    `arity` arguments allow."""

    def __init__(self, k: int, size: int, arity: int) -> None:
        span = 1
        while span < size and k ** ((span + 1) * arity) <= _LOOKUP_ENTRIES:
            span += 1
        groups = -(-size // span)
        span = -(-size // groups)  # as even as the groups allow
        per_word = 1
        while per_word < groups and k ** (span * (per_word + 1)) <= 2**62:
            per_word += 1
        self.words = -(-groups // per_word)
        self.per_word = per_word = -(-groups // self.words)
        groups = self.words * per_word  # groups past the table's end repeat its first position
        self.k = k
        self.size = size
        self.span = span
        self.groups = groups
        self.radix = k**span
        self.digit_weights = k ** np.arange(span - 1, -1, -1, dtype=np.int64)
        self.place_values = self.radix ** np.arange(per_word - 1, -1, -1, dtype=np.int64)
        self.digit_weights.setflags(write=False)
        self.place_values.setflags(write=False)
        # distinct keys when one word holds them
        self.space = self.radix**groups if self.words == 1 else None

    def codes(self, tables: np.ndarray) -> np.ndarray:
        """The (groups, count) codes of the rows of a (count, size) table array."""
        positions = np.arange(self.groups * self.span)
        positions[self.size :] = 0
        cells = tables[:, positions.reshape(self.groups, self.span)]
        return np.ascontiguousarray((cells @ self.digit_weights).T)

    def tables(self, codes: np.ndarray) -> np.ndarray:
        """The (count, size) tables of (groups, count) codes, as uint8 when k <= 256."""
        digits = codes.T[:, :, None] // self.digit_weights % self.k
        flat = digits.reshape(codes.shape[1], self.groups * self.span)[:, : self.size]
        return flat.astype(np.uint8 if self.k <= 256 else np.int64)

    def keys(self, codes: np.ndarray) -> np.ndarray:
        """Keys of the columns of codes (or of key words), equal exactly when the tables are."""
        if len(codes) > self.words:
            codes = self.place_values @ codes.reshape(self.words, self.per_word, -1)
        if self.words == 1:
            return codes[0]
        return np.ascontiguousarray(codes.T).view(np.dtype((np.void, 8 * self.words))).ravel()

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The (groups, count) codes of keys."""
        words = keys.view(np.int64).reshape(len(keys), self.words).T
        codes = words[:, None] // self.place_values[:, None] % self.radix
        return codes.reshape(self.groups, len(keys))

    def joint(self, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Joint codes (groups, rows), first argument most significant, of argument columns."""
        joint = codes.take(rows[0], axis=1) if len(rows) else np.zeros((self.groups, 1), np.int64)
        for r in rows[1:]:
            joint = joint * self.radix + codes.take(r, axis=1)
        return joint


class _Operation:
    """A connective as a lookup from its arguments' joint code on a group of
    `span` digits below k to the result's code there, shaped
    (joint code of all arguments but the last, code of the last)."""

    def __init__(self, table: np.ndarray, k: int, span: int) -> None:
        self.arity = arity = table.ndim
        self.symmetric = arity > 1 and all(
            (table == table.swapaxes(j, j + 1)).all() for j in range(arity - 1)
        )
        flat = table.ravel()
        if span == 1:
            # one digit per argument: the joint code is the table position
            lookup = flat
        else:
            lookup = k ** np.arange(span - 1, -1, -1) @ flat[_digit_cells(k, span, arity)]
        self.lookup = lookup.reshape(-1, k**span)
        self.lookup.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _digit_cells(k: int, span: int, arity: int) -> np.ndarray:
    """Row d: the table position that digit d of each argument selects, at
    each joint code of `arity` arguments on a group of `span` digits
    (read-only)."""
    digits = np.indices((k,) * (arity * span)).reshape(arity, span, -1)
    cells = digits[0]
    for row in digits[1:]:
        cells = cells * k + row
    cells.setflags(write=False)
    return cells


_Grid = Tuple[np.ndarray, int, int]  # prefix rows, lo, hi


def _grid_rows(
    arity: int, count: int, frontier: int, symmetric: bool, r0: int, r1: int
) -> Tuple[np.ndarray, int]:
    """Prefix rows r0..r1-1 over range(count), less decreasing ones when
    symmetric, as an (arity - 1, rows) array, and the least last argument of
    their tuples holding an index >= frontier, non-decreasing when symmetric
    (count if none)."""
    if arity <= 2:
        # a row's rank is its argument
        prefix = np.arange(r0, r1)[None][: arity - 1]
        top, least_last = r1 - 1 if arity == 2 else -1, r0
    else:
        prefix = np.arange(r0, r1) // count ** np.arange(arity - 2, -1, -1)[:, None] % count
        if symmetric:
            prefix = prefix[:, (prefix[:-1] <= prefix[1:]).all(axis=0)]
        top, least_last = int(prefix.max(initial=-1)), int(prefix[-1].min(initial=count))
    # the last argument of a non-decreasing tuple is its largest
    return prefix, max(frontier, least_last) if symmetric else 0 if top >= frontier else frontier


def _grids(arity: int, count: int, frontier: int, symmetric: bool, cells: int) -> Iterator[_Grid]:
    """Grids (prefix rows, lo, hi) of at most `cells` tuples, each prefix row
    then each last argument in lo..hi-1, that hold those tuples in order."""
    rows_per_grid = max(1, cells // count)
    prefix_count = count ** (arity - 1)
    for r0 in range(0, prefix_count, rows_per_grid):
        r1 = min(r0 + rows_per_grid, prefix_count)
        prefix, lo = _grid_rows(arity, count, frontier, symmetric, r0, r1)
        for c0 in range(lo, count, cells):
            yield prefix, c0, min(c0 + cells, count)


def _grid_words(op: _Operation, layout: _Codes, codes: np.ndarray, grid: _Grid) -> np.ndarray:
    """Key words (words, cells) of the connective on the grid, arguments given by codes."""
    prefix, lo, hi = grid
    joint, rows = layout.joint(codes, prefix), prefix.shape[1]
    words = np.zeros((layout.words, rows, hi - lo), dtype=np.int64)
    scratch = np.empty((rows, hi - lo), dtype=np.int64)
    for g in range(layout.groups):
        part = op.lookup.take(joint[g], axis=0)
        part *= layout.place_values[g % layout.per_word]
        words[g // layout.per_word] += part.take(codes[g, lo:hi], axis=1, out=scratch, mode="clip")
    return words.reshape(layout.words, -1)


class _KeyIndex:
    """The row of each key added, numbered from 0 in order of adding, -1 for
    a key never added.  Up to _DENSE_KEYS possible keys, an array indexed by
    key; past that, an open-addressing table on the keys' 64-bit hashes with
    power-of-two slots and linear probing, at most half full (rehashed into
    twice the slots when an add would pass that); a key is found only where
    it equals the row's key, word for word."""

    def __init__(self, layout: _Codes, keys: np.ndarray) -> None:
        self.words, self.count = layout.words, 0
        if layout.space is not None and layout.space <= _DENSE_KEYS:
            self.dense = np.full(layout.space, -1, np.int32)
        else:
            # keys by row; later rows hold words -1, which no key has, so the last answers an empty slot's -1
            self.dense, self.slots = None, np.full(1 << 10, -1)
            self.stored = np.full((513, self.words), -1).view(keys.dtype).ravel()
        self.add(keys)

    def hashes(self, words: np.ndarray) -> np.ndarray:
        """Hashes of keys as (keys, words) arrays: the words times odd multipliers, summed mod 2**64."""
        columns = words.view(np.uint64).T
        hashes = columns[0] * np.uint64(0x9E3779B97F4A7C15)
        for j, column in enumerate(columns[1:], start=2):
            hashes += column * np.uint64(j * 0x9E3779B97F4A7C15 % 2**64 | 1)
        return hashes

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """The first slot of each key's probe sequence: its hash's high bits."""
        shift = np.uint64(65 - len(self.slots).bit_length())
        hashes = self.hashes(keys.view(np.int64).reshape(len(keys), self.words))
        return (hashes.view(np.uint64) >> shift).view(np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense[keys]
        at = self._probe(keys)
        rows = self.slots[at]
        found = np.where(self.stored[rows] == keys, rows, -1)
        todo = ((rows >= 0) & (found < 0)).nonzero()[0]  # keys whose slot holds another key
        while len(todo):
            at[todo] = (at[todo] + 1) & (len(self.slots) - 1)
            rows = self.slots[at[todo]]
            same = self.stored[rows] == keys[todo]
            found[todo[same]] = rows[same]
            todo = todo[(rows >= 0) & ~same]
        return found

    def add(self, keys: np.ndarray) -> None:
        """Gives distinct keys never added before the next rows."""
        rows = np.arange(self.count, self.count + len(keys))
        self.count += len(keys)
        if self.dense is not None:
            self.dense[keys] = rows
            return
        if 2 * self.count > len(self.slots):  # every row goes into the new slots
            size = 1 << (2 * self.count - 1).bit_length()
            stored = np.full((size // 2 + 1, self.words), -1).view(keys.dtype).ravel()
            stored[: rows[0]] = self.stored[: rows[0]]
            self.slots, self.stored, rows = np.full(size, -1), stored, np.arange(self.count)
        self.stored[self.count - len(keys) : self.count] = keys
        # each row takes the first free slot from its probe's; of rows wanting one, the one written there
        at = self._probe(self.stored[rows])
        while len(rows):
            taken = self.slots[at]
            self.slots[at] = np.where(taken < 0, rows, taken)
            left = self.slots[at] != rows
            rows, at = rows[left], (at[left] + 1) & (len(self.slots) - 1)


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct key."""
    if len(keys) < 2:
        return np.arange(len(keys))
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    first = order[starts]
    first.sort()
    return first


def _append_first_new(
    pieces: Sequence[Tuple[str, _Grid]],
    codes: np.ndarray,
    layout: _Codes,
    seen: _KeyIndex,
    chunks: List[np.ndarray],
    witnesses: List[Formula],
) -> None:
    """Appends the first candidate of each key not yet seen, in order, to
    chunks (its codes) and witnesses, and adds their keys to seen; the
    candidates are the cells of (connective, grid) pieces, as codes or key words."""
    keys = layout.keys(codes)
    fresh = (seen.find(keys) < 0).nonzero()[0]
    if not len(fresh):
        return
    new = fresh[_first_occurrences(keys[fresh])]
    chunks.append(codes[:, new] if len(codes) == layout.groups else layout.decode(keys[new]))
    seen.add(keys[new])
    ends = list(itertools.accumulate(g[0].shape[1] * (g[2] - g[1]) for _, g in pieces))
    cuts = new.searchsorted(ends).tolist()
    for (name, (prefix, lo, hi)), start, end, offset in zip(pieces, [0] + cuts, cuts, [0] + ends):
        if start < end:
            rows = prefix.T.tolist()
            for cell in (new[start:end] - offset).tolist():
                args = (*rows[cell // (hi - lo)], lo + cell % (hi - lo))
                witnesses.append(app(name, tuple(witnesses[i] for i in args)))


def _clone_bound(alg: FiniteAlgebra, n: int, limit: int) -> int:
    """The product over the k**n points x of |Sg(x1..xn, constants)|, the most
    functions an n-ary clone can hold, or a partial product past limit."""
    sizes: Dict[int, int] = {}  # by the point's coordinate set, as a bitmask
    bound = 1
    for point in itertools.product(range(alg.size), repeat=n):
        mask = sum(1 << x for x in set(point))
        if mask not in sizes:
            sizes[mask] = len(_generate(alg, point))
        bound *= sizes[mask]
        if bound > limit:
            break
    return bound


def _closure_rounds(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps
) -> Tuple[np.ndarray, List[Formula]]:
    """Discovery-ordered flat tables (one row each) and witnesses of the n-ary clone.

    Round d adds exactly the functions whose minimal witness has depth d.
    Its candidates apply each connective, in name order, to argument tuples
    over the functions of earlier rounds with at least one from round d-1,
    the tuples in lexicographic order of discovery positions.  The
    candidates go through in grids of consecutive candidates: keys already
    seen are dropped, and the first occurrence of each remaining key is
    appended, in candidate order, with its candidate as witness.  For a
    connective whose table is symmetric, a tuple that is not non-decreasing
    repeats a permutation listed before it in the same round and is
    skipped.  The clone cap is checked after every grid, and the closure
    stops once the clone holds U functions, the subuniverse bound (see above).
    """
    if n < 0:
        raise ValueError(f"the number of variables must be at least 0, got {n}")
    k = alg.size
    size = k**n
    caps.check_tuples(size)
    arity = max([a for _, a in alg.signature.proper_connectives], default=1)
    layout = _Codes(k, size, arity)
    seeds = [var(i) for i in range(1, n + 1)] + [const(c) for c in alg.signature.constants]
    seed_tables = np.array(next(_formula_tables(alg, seeds, range(1, n + 1), [{}])), dtype=np.int64)
    seed_codes = layout.codes(seed_tables.reshape(len(seeds), size))
    seed_keys = layout.keys(seed_codes)
    first = _first_occurrences(seed_keys)
    chunks = [seed_codes[:, first]]
    witnesses = [seeds[i] for i in first.tolist()]
    seen = _KeyIndex(layout, seed_keys[first])
    caps.check_clone(len(witnesses))

    connectives = [
        (name, _Operation(alg.table(name), k, layout.span)) for name, _ in alg.signature.proper_connectives
    ]
    cells, round_start, bound = max(1, _CELLS // layout.words), 0, None
    while connectives and round_start < len(witnesses) and len(witnesses) != bound:
        count = len(witnesses)
        codes = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
        chunks = [codes]
        if count**arity > _SMALL_ROUND:
            if bound is None:
                bound = _clone_bound(alg, n, caps.max_clone)
            for name, op in connectives:
                for grid in _grids(op.arity, count, round_start, op.symmetric, cells):
                    if len(witnesses) == bound:  # each later connective breaks at once too
                        break
                    words = _grid_words(op, layout, codes, grid)
                    _append_first_new([(name, grid)], words, layout, seen, chunks, witnesses)
                    caps.check_clone(len(witnesses))
        else:
            joints: Dict[int, Tuple[_Grid, np.ndarray]] = {}
            pieces, results = [], []
            for name, op in connectives:
                if op.arity not in joints:
                    prefix, lo = _grid_rows(op.arity, count, round_start, False, 0, count ** (op.arity - 1))
                    joint = codes[:, lo:] if op.arity == 1 else (
                        (layout.joint(codes, prefix) * layout.radix)[:, :, None] + codes[:, None, lo:]
                    ).reshape(layout.groups, -1)
                    joints[op.arity] = (prefix, lo, count), joint
                grid, joint = joints[op.arity]
                pieces.append((name, grid))
                results.append(op.lookup.take(joint))
            _append_first_new(pieces, np.concatenate(results, axis=1), layout, seen, chunks, witnesses)
            caps.check_clone(len(witnesses))
        round_start = count
    return layout.tables(np.concatenate(chunks, axis=1)), witnesses


def _operations_on(alg: FiniteAlgebra, tables: np.ndarray) -> Dict[str, np.ndarray]:
    """Each operation applied to the rows of tables, pairwise distinct flat
    tables over one arity, as row indices in an array of shape
    (rows,) * arity; -1 where the result is not a row."""
    count, size = tables.shape
    layout = _Codes(alg.size, size, max([a for _, a in alg.signature.proper_connectives], default=1))
    codes = layout.codes(tables)
    rows = _KeyIndex(layout, layout.keys(codes)).find
    out: Dict[str, np.ndarray] = {}
    for name, arity in alg.signature.operations:
        if arity == 0:
            constant = np.full((1, size), alg.table(name))
            out[name] = rows(layout.keys(layout.codes(constant)))[0]
            continue
        op, cells = _Operation(alg.table(name), alg.size, layout.span), max(1, _CELLS // layout.words)
        grids = _grids(arity, count, 0, False, cells)
        blocks = [rows(layout.keys(_grid_words(op, layout, codes, g))) for g in grids]
        out[name] = np.concatenate(blocks).reshape((count,) * arity)
    return out


_CLONES = Memo(1 << 18)  # L3's binary clone takes 35,023 cells; a clone-decide batch's median, 115


def clone_discovery_order(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> List[TermFunction]:
    """n-ary clone in witness discovery order (canonical enumeration order), a new list
    each call; kept by tables in _CLONES, caps checked on a hit (see above)."""
    key = None  # alg.tables is in signature order
    if all(t.size <= _LOOKUP_ENTRIES for t in alg.tables.values()):
        key = (alg.signature, alg.size, n, b"".join(t.tobytes() for t in alg.tables.values()))
        clone = _CLONES.recall(key)
        if clone is not None:
            caps.check_tuples(alg.size**n)
            caps.check_clone(len(clone))
            return list(clone)
    rows, witnesses = _closure_rounds(alg, n, caps)
    clone = tuple(TermFunction(n, tuple(row), w) for row, w in zip(rows.tolist(), witnesses))
    if key is not None:
        _CLONES.keep(key, clone, 1 + len(clone) * alg.size**n + sum(t.size for t in alg.tables.values()))
    return list(clone)


def clone_functions(
    alg: FiniteAlgebra, n: int, caps: ResourceCaps = DEFAULT_CAPS
) -> List[TermFunction]:
    """n-ary clone, canonically ordered by table contents."""
    return sorted(clone_discovery_order(alg, n, caps), key=lambda tf: tf.table)


# ---------------------------------------------------------------------------
# subalgebras and generation


def _generate(alg: FiniteAlgebra, seed: Sequence[int]) -> Dict[int, Formula]:
    """The elements the seed generates, in discovery order, each with a
    witness term over p1..pm naming the seed in order, plus constants."""
    found: Dict[int, Formula] = {}
    for i, e in enumerate(seed, start=1):
        found.setdefault(int(e), var(i))
    for name in alg.signature.constants:
        found.setdefault(int(alg.table(name)), const(name))
    changed = True
    while changed:
        changed = False
        snapshot = list(found)
        for name, arity in alg.signature.proper_connectives:
            table = alg.table(name)
            for combo in itertools.product(snapshot, repeat=arity):
                value = int(table[combo])
                if value not in found:
                    found[value] = app(name, tuple(found[e] for e in combo))
                    changed = True
    return found


def generated_subalgebra(
    alg: FiniteAlgebra, seed: Sequence[int]
) -> Tuple[Tuple[int, ...], Dict[int, Formula], "FiniteAlgebra"]:
    """Subuniverse generated by the seed elements.

    Returns the generated element indices in ascending order, a witness term
    for each in discovery order (over p1..pm naming the seed in order, plus
    constants), and the subalgebra on those elements.
    """
    found = _generate(alg, seed)
    indices = tuple(sorted(found))
    chosen = np.array(indices, dtype=np.int64)
    position = np.full(alg.size, -1, dtype=np.int64)
    position[chosen] = np.arange(len(indices))
    sub_tables = {
        name: position[alg.table(name)[np.ix_(*[chosen] * arity)]]
        for name, arity in alg.signature.operations
    }
    sub = FiniteAlgebra(alg.signature, [alg.elements[e] for e in indices], sub_tables)
    return indices, found, sub


def minimal_generating_set(
    alg: FiniteAlgebra, max_size: Optional[int] = None
) -> Tuple[int, Tuple[int, ...]]:
    """Smallest m with a verified m-element generating set, plus one such set.

    Seeds are scanned in lexicographic element-index order, so the result is
    deterministic.  The full carrier always generates, so this terminates.
    """
    k = alg.size
    bound = k if max_size is None else min(max_size, k)
    start = 0 if alg.signature.constants else 1
    for m in range(start, bound + 1):
        for seed in itertools.combinations(range(k), m):
            if len(_generate(alg, seed)) == k:
                return m, seed
    raise ValueError(f"no generating set of size <= {bound}")


# ---------------------------------------------------------------------------
# products


def direct_product(a1: FiniteAlgebra, a2: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; element (i, j) maps to index i * |A2| + j."""
    if a1.signature != a2.signature:
        raise ValueError("product requires a common signature")
    k1, k2 = a1.size, a2.size
    elements = [f"({e1},{e2})" for e1 in a1.elements for e2 in a2.elements]
    tables: Dict[str, np.ndarray] = {}
    for name, arity in a1.signature.operations:
        t1, t2 = a1.table(name), a2.table(name)
        if arity == 0:
            tables[name] = np.array(int(t1) * k2 + int(t2), dtype=np.int64)
            continue
        grids = np.indices((k1 * k2,) * arity)
        left = tuple(g // k2 for g in grids)
        right = tuple(g % k2 for g in grids)
        tables[name] = t1[left] * k2 + t2[right]
    return FiniteAlgebra(a1.signature, elements, tables)


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class Congruence:
    """Partition of the carrier given by normalised block labels: labels are
    assigned by first occurrence, so equal partitions compare equal."""

    labels: Tuple[int, ...]

    @staticmethod
    def from_labels(raw: Sequence[int]) -> "Congruence":
        remap: Dict[int, int] = {}
        out = []
        for x in raw:
            if x not in remap:
                remap[x] = len(remap)
            out.append(remap[x])
        return Congruence(tuple(out))

    @property
    def block_count(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def blocks(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.block_count)]
        for e, b in enumerate(self.labels):
            out[b].append(e)
        return out

    def related(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]


def _refine(alg: FiniteAlgebra, labels: Sequence[int]) -> List[int]:
    """The greatest congruence below the partition that labels gives, as
    labels numbered by first occurrence.

    An element's row is its label followed by the labels of its images in
    every one-coordinate context: each connective, argument position and
    assignment of the other arguments.  Elements are relabelled by first
    occurrence of their rows until no block splits.  Nothing recurses.
    """
    k = alg.size
    contexts = [
        np.moveaxis(alg.table(name), pos, 0).reshape(k, -1)
        for name, arity in alg.signature.proper_connectives
        for pos in range(arity)
    ]
    images = np.concatenate([np.arange(k)[:, None], *contexts], axis=1)
    blocks = len(set(labels))
    while True:
        first: Dict[Tuple[int, ...], int] = {}
        rows = np.asarray(labels)[images].tolist()
        labels = [first.setdefault(tuple(row), len(first)) for row in rows]
        if len(first) == blocks:
            return labels
        blocks = len(first)


def is_congruence(alg: FiniteAlgebra, part: Congruence) -> bool:
    """Whether the partition is compatible with every operation: refining it
    splits no block."""
    labels = Congruence.from_labels(part.labels).labels
    return len(labels) == alg.size and tuple(_refine(alg, labels)) == labels


def congruence_closure_pairs(
    alg: FiniteAlgebra, pairs: Iterable[Tuple[int, int]]
) -> Congruence:
    """Least congruence of the algebra containing the given pairs."""
    k = alg.size
    pairs = [(int(a), int(b)) for a, b in pairs]
    if any(not 0 <= e < k for pair in pairs for e in pair):
        raise ValueError(f"element index out of range 0..{k - 1}")
    apps = [
        (node, name, args)
        for name, arity in alg.signature.proper_connectives
        for node, args in zip(
            alg.table(name).ravel().tolist(),
            np.indices((k,) * arity).reshape(arity, -1).T.tolist(),
        )
    ]
    return Congruence(tuple(_close(k, apps, pairs)))


def greatest_congruence_below(alg: FiniteAlgebra, part: Congruence) -> Congruence:
    """Greatest congruence refining the given partition."""
    if len(part.labels) != alg.size:
        raise ValueError("partition size mismatch")
    return Congruence(tuple(_refine(alg, part.labels)))


def quotient_by_congruence(
    alg: FiniteAlgebra, cong: Congruence
) -> Tuple[FiniteAlgebra, Tuple[int, ...]]:
    """Quotient algebra plus the projection (element index -> block index)."""
    if len(cong.labels) != alg.size:
        raise ValueError("partition size mismatch")
    if not is_congruence(alg, cong):
        raise ValueError("partition is not a congruence")
    blocks = cong.blocks()
    names = ["{" + ",".join(alg.elements[e] for e in block) + "}" for block in blocks]
    firsts = np.array([block[0] for block in blocks], dtype=np.int64)
    labels = np.array(cong.labels, dtype=np.int64)
    tables = {
        name: labels[alg.table(name)[np.ix_(*[firsts] * arity)]]
        for name, arity in alg.signature.operations
    }
    return FiniteAlgebra(alg.signature, names, tables), tuple(cong.labels)


# ---------------------------------------------------------------------------
# isomorphism


def find_isomorphism(
    a1: FiniteAlgebra,
    a2: FiniteAlgebra,
    designated1: Optional[frozenset] = None,
    designated2: Optional[frozenset] = None,
) -> Optional[Tuple[int, ...]]:
    """Backtracking search for an isomorphism a1 -> a2 (optionally matching
    designated sets).  Returns the least image tuple, or None."""
    if a1.signature != a2.signature or a1.size != a2.size:
        return None
    if (designated1 is None) != (designated2 is None):
        raise ValueError("designated sets must be given for both algebras or neither")
    if designated1 is not None and len(designated1) != len(designated2 or frozenset()):
        return None
    k = a1.size
    tables = [(a1.table(name), a2.table(name)) for name, _ in a1.signature.operations]
    image: List[Optional[int]] = [None] * k

    def consistent() -> bool:
        done = [x for x in range(k) if image[x] is not None]
        if designated1 is not None and any(
            (x in designated1) != (image[x] in designated2) for x in done  # type: ignore[operator]
        ):
            return False
        return all(
            image[int(t1[combo])] in (None, int(t2[tuple(image[c] for c in combo)]))  # type: ignore[misc]
            for t1, t2 in tables
            for combo in itertools.product(done, repeat=t1.ndim)
        )

    # depth-first on an explicit stack: element d tries the unused targets
    # in ascending order from tried[d] on, so the first isomorphism met is
    # the least one
    tried, depth = [0] * k, 0
    while 0 <= depth < k:
        image[depth] = None
        target = next((t for t in range(tried[depth], k) if t not in image), None)
        tried[depth] = 0 if target is None else target + 1
        if target is not None:
            image[depth] = target
        depth += -1 if target is None else consistent()
    return tuple(int(x) for x in image) if depth == k else None  # type: ignore[arg-type]
