"""The clone closure against the formula enumeration it replaced
(conftest.representatives_by_enumeration, which tabulates every formula
through term_table): the same tables and witnesses in the same order, with
seen keys indexed densely or by hash, with candidates taken any number at a
time, and the clone cap raised exactly when the clone outgrows it."""

import contextlib
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from matlogic import CapExceeded, ResourceCaps
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
