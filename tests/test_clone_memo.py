"""The clone memo: a kept clone answers for the closure exactly, caps and
all, its key is the tables and not the element names, and what it keeps
stays within the memo's budget of cells."""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from matlogic import CapExceeded, FiniteAlgebra, ResourceCaps, Signature, godel_chain, make_preset
from matlogic import algebra
from matlogic.algebra import clone_discovery_order

from conftest import algebras

# largest clone the property tests build
SMALL = 64


@contextlib.contextmanager
def counting_builds():
    with mock.patch.object(algebra, "_closure_rounds", wraps=algebra._closure_rounds) as build:
        yield build


def outcome(alg, n, caps=ResourceCaps()):
    try:
        return [(t.table, t.witness) for t in clone_discovery_order(alg, n, caps)]
    except CapExceeded as exc:
        return exc.cap, exc.limit


def small_clone(alg, n):
    """The clone built from an empty memo, for clones of at most SMALL functions."""
    algebra._CLONES.clear()
    try:
        return clone_discovery_order(alg, n, ResourceCaps(max_clone=SMALL))
    except CapExceeded:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(algebras(), st.sampled_from([0, 1, 2]))
def test_a_hit_equals_a_fresh_build(alg, n):
    built = small_clone(alg, n)
    with counting_builds() as build:
        hit = clone_discovery_order(alg, n)
        assert build.call_count == 0
    assert hit == built and hit is not built
    built.clear()
    assert clone_discovery_order(alg, n) == hit


@settings(max_examples=60, deadline=None)
@given(algebras(), st.sampled_from([0, 1, 2]))
def test_a_hit_raises_what_a_build_raises(alg, n):
    clone = small_clone(alg, n)
    limits = [ResourceCaps(max_clone=m) for m in range(len(clone) + 2)]
    for caps in limits + [ResourceCaps(max_tuples=alg.size**n - 1)]:
        algebra._CLONES.clear()
        built = outcome(alg, n, caps)
        clone_discovery_order(alg, n)
        with counting_builds() as build:
            assert outcome(alg, n, caps) == built
            assert build.call_count == 0


def _unary(name, table, elements=None):
    sig = Signature.of({name: 1})
    return FiniteAlgebra(sig, elements or [f"e{i}" for i in range(len(table))], {name: np.array(table)})


def test_the_key_is_the_tables_not_the_names():
    algebra._CLONES.clear()
    with counting_builds() as build:
        clone_discovery_order(_unary("u", [1, 2, 0]), 1)
        clone_discovery_order(_unary("u", [1, 2, 0], ["a", "b", "c"]), 1)
        assert build.call_count == 1
        clone_discovery_order(_unary("u", [1, 0, 2]), 1)
        clone_discovery_order(_unary("v", [1, 2, 0]), 1)
        clone_discovery_order(_unary("u", [1, 2, 0]), 2)
        assert build.call_count == 4
        l3 = make_preset("L3").algebra
        renamed = FiniteAlgebra(l3.signature, ["a", "b", "c"], l3.tables)
        assert outcome(l3, 1) == outcome(renamed, 1)
        assert build.call_count == 5


def test_kept_cells_stay_within_the_bound():
    algebra._CLONES.clear()
    rng = np.random.default_rng(20261019)
    keys = []
    with mock.patch.object(algebra._CLONES, "budget", 4_000):
        while len(keys) < 300:
            k, n = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            alg = _unary("u", rng.integers(0, k, size=k).tolist())
            key = (k, n, alg.table("u").tobytes())
            if key in keys:
                continue
            keys.append(key)
            clone_discovery_order(alg, n)
            entries = algebra._CLONES.values()
            assert algebra._CLONES.weight == sum(cells for _, cells in entries) <= 4_000
        kept = [(key[1], key[2], key[3]) for key in algebra._CLONES]
        assert 0 < len(kept) < 300 and kept == keys[-len(kept):]
        for (_, k, n, tables), (clone, cells) in algebra._CLONES.items():
            assert cells == 1 + len(clone) * k**n + len(tables) // 8
        oldest = next(iter(algebra._CLONES))
        clone_discovery_order(_unary("u", np.frombuffer(oldest[3], dtype=np.int64)), oldest[2])
        assert list(algebra._CLONES)[-1] == oldest


def test_an_entry_over_the_bound_is_returned_not_kept():
    algebra._CLONES.clear()
    l3 = make_preset("L3").algebra
    expected = outcome(l3, 1)
    cells = 1 + 3 * len(expected) + sum(t.size for t in l3.tables.values())
    for bound, kept in [(cells - 1, 0), (cells, 1)]:
        algebra._CLONES.clear()
        with mock.patch.object(algebra._CLONES, "budget", bound), counting_builds() as build:
            assert outcome(l3, 1) == expected
            assert (len(algebra._CLONES), build.call_count) == (kept, 1)


def test_a_table_over_the_lookup_entries_is_not_kept():
    algebra._CLONES.clear()
    alg = godel_chain(65)  # binary tables of 4,225 entries
    assert max(t.size for t in alg.tables.values()) > algebra._LOOKUP_ENTRIES
    with counting_builds() as build:
        first = outcome(alg, 1)
        assert outcome(alg, 1) == first
        assert not algebra._CLONES and build.call_count == 2
