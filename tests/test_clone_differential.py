"""The clone closure against the formula enumeration it replaced
(conftest.representatives_by_enumeration, which tabulates every formula
through term_table): the same tables and witnesses in the same order, with
seen keys indexed densely or by hash, with candidates taken any number at a
time, and the clone cap raised exactly when the clone outgrows it.  The
subuniverse bound at which the closure stops is never exceeded, and is
reached where the connectives preserve every subuniverse and nothing more."""

import contextlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from matlogic import CapExceeded, ResourceCaps, direct_product, godel_chain, make_preset
from matlogic import algebra
from matlogic.algebra import clone_discovery_order

from conftest import algebras, representatives_by_enumeration

# formulas the enumeration may tabulate before a case is too large to compare
ENUMERATED = 2_000


@st.composite
def clones(draw, enumerated=ENUMERATED):
    """(algebra, n, the enumeration's (table, witness) pairs), for cases the
    enumeration settles within `enumerated` formulas."""
    alg = draw(algebras())
    n = draw(st.sampled_from([0, 1, 2]))
    try:
        entries, _ = representatives_by_enumeration(alg, n, max_count=enumerated)
    except CapExceeded:
        assume(False)
    return alg, n, [(t.table, t.witness) for t in entries]


def closure(alg, n, caps=ResourceCaps()):
    # a kept clone would answer in place of the closure under test
    algebra._CLONES.clear()
    return [(t.table, t.witness) for t in clone_discovery_order(alg, n, caps)]


@contextlib.contextmanager
def chunk_cells(cells):
    """Every round's candidates taken in grids of at most `cells` at a time."""
    with mock.patch.object(algebra, "_CELLS", cells), mock.patch.object(algebra, "_SMALL_ROUND", 0):
        yield


class TestCloneAgainstEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(clones())
    def test_same_tables_and_witnesses(self, case):
        alg, n, expected = case
        assert closure(alg, n) == expected
        with mock.patch.object(algebra, "_DENSE_KEYS", 0):
            assert closure(alg, n) == expected

    @settings(max_examples=100, deadline=None)
    @given(clones(enumerated=400), st.sampled_from([1, 2, 7]))
    def test_any_chunk_size(self, case, cells):
        alg, n, expected = case
        with chunk_cells(cells):
            assert closure(alg, n) == expected
            with mock.patch.object(algebra, "_DENSE_KEYS", 0):
                assert closure(alg, n) == expected

    @settings(max_examples=100, deadline=None)
    @given(clones(), st.data())
    def test_cap_raised_exactly_past_the_clone(self, case, data):
        alg, n, expected = case
        max_clone = data.draw(st.integers(0, len(expected) + 1))
        caps = ResourceCaps(max_clone=max_clone)
        if len(expected) > max_clone:
            try:
                closure(alg, n, caps)
            except CapExceeded as exc:
                assert (exc.cap, exc.limit) == ("max_clone", max_clone)
            else:
                raise AssertionError("no CapExceeded")
        else:
            assert closure(alg, n, caps) == expected


# a limit no bound below reaches: the conftest algebras' is at most 5**25
NO_LIMIT = 10**18


class TestCloneBound:
    @pytest.mark.parametrize(
        "preset, n",
        [("L3", 1), ("L3", 2), ("L3modal", 1), ("L3modal", 2)]
        + [(preset, n) for preset in ("B2", "B2c") for n in (1, 2, 3)],
    )
    def test_reached(self, preset, n):
        alg = make_preset(preset).algebra
        assert algebra._clone_bound(alg, n, NO_LIMIT) == len(closure(alg, n))

    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: make_preset("Gn", 4).algebra, 2),
            (lambda: direct_product(make_preset("L3").algebra, godel_chain(4)), 1),
        ],
        ids=["G4", "L3xG4"],
    )
    def test_not_reached(self, build, n):
        alg = build()
        assert algebra._clone_bound(alg, n, NO_LIMIT) > len(closure(alg, n))

    def test_a_partial_product_past_the_limit(self):
        # L3 at n = 2: 2**4 * 3**5, factors 2 at the point (0, 0) and 3 at (0, 1/2) first
        alg = make_preset("L3").algebra
        assert algebra._clone_bound(alg, 2, 3888) == 3888
        assert algebra._clone_bound(alg, 2, 5) == 6

    @pytest.mark.parametrize("preset, size", [("B2", 0), ("B2c", 2)])
    def test_zero_variables(self, preset, size):
        # the one point is the empty tuple, and its subuniverse the constants'
        alg = make_preset(preset).algebra
        expected = closure(alg, 0)
        assert algebra._clone_bound(alg, 0, NO_LIMIT) == len(expected) == size
        with chunk_cells(1):
            assert closure(alg, 0) == expected

    def test_no_grid_runs_once_the_clone_holds_the_bound(self):
        alg, full = make_preset("L3").algebra, []
        append = algebra._append_first_new

        def recorded(pieces, codes, layout, seen, chunks, witnesses):
            full.append(len(witnesses) == 3888)
            append(pieces, codes, layout, seen, chunks, witnesses)

        with mock.patch.object(algebra, "_append_first_new", recorded):
            assert len(closure(alg, 2)) == 3888
        assert full and not any(full)

    def test_never_exceeded_and_stops_chunked_closures(self):
        # every round is taken in grids, so each closure with a round reads the bound
        bound, append, stops = algebra._clone_bound, algebra._append_first_new, []

        @settings(max_examples=100, deadline=None)
        @given(clones(enumerated=400), st.sampled_from([1, 2, 7]))
        def check(case, cells):
            alg, n, expected = case
            assert len(expected) <= bound(alg, n, NO_LIMIT)
            bounds = []

            def recorded_bound(*args):
                bounds.append(bound(*args))
                return bounds[-1]

            def recorded_append(pieces, codes, layout, seen, chunks, witnesses):
                assert len(witnesses) not in bounds  # no grid runs once the bound is reached
                append(pieces, codes, layout, seen, chunks, witnesses)

            with chunk_cells(cells), mock.patch.multiple(
                algebra, _clone_bound=recorded_bound, _append_first_new=recorded_append
            ):
                assert closure(alg, n) == expected
            stops.extend(b for b in bounds if b == len(expected))

        check()
        assert stops
