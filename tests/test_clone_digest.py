"""Differential guard for the clone closure and the restricted Lindenbaum
algebra: the digests below were recorded from the per-candidate closure, so
any rewrite must reproduce every table, witness and discovery position."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from matlogic import (
    CapExceeded,
    FiniteAlgebra,
    ResourceCaps,
    Signature,
    direct_product,
    free_matrix_algebra,
    godel_chain,
    make_preset,
)
from matlogic import algebra
from matlogic.algebra import clone_discovery_order

from conftest import representatives_by_enumeration


def _clone_digest(alg, n, caps=ResourceCaps()):
    # a kept clone would answer in place of the closure under test
    algebra._CLONES.clear()
    h = hashlib.sha256()
    fns = clone_discovery_order(alg, n, caps)
    for tf in fns:
        h.update(np.asarray(tf.table, dtype=np.int64).tobytes())
        h.update(str(tf.witness).encode())
        h.update(b"\0")
    return len(fns), h.hexdigest()


@pytest.mark.parametrize(
    "build, n, count, digest",
    [
        (lambda: make_preset("L3").algebra, 2, 3888, "dd493835ac39f5c93f24872226a7b3d9a10c07f9e44c40e35416c8538a690344"),
        (lambda: make_preset("Gn", 4).algebra, 2, 342, "361359fe618c070a233793fdf235f3f164cdb6a94b8d176ec3c2757e948cd64c"),
        # 36 tuples of 6 values do not fit a 62-bit packed key
        (lambda: direct_product(godel_chain(3), godel_chain(2)), 2, 162, "16f96d281401dea0bf0ab8a46096925f2a6bf48b8650cbe103527f0569e8bafb"),
    ],
    ids=["L3", "G4", "G3xG2"],
)
def test_clone_discovery_order_digest(build, n, count, digest):
    assert _clone_digest(build(), n) == (count, digest)


def test_large_carrier_clone_stays_small():
    # 1,000 elements: every table position is a group of its own, and the
    # per-connective lookups must not grow with k**n times k**arity
    alg = godel_chain(1000)
    tracemalloc.start()
    try:
        result = _clone_digest(alg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (6, "ea3399a2e3f68089565fd4147d5ff9a2d16ebbf0df34c6bfc276210b6ce1ca35")
    assert peak < 16 * 2**20


def test_binary_l3_clone_stays_small():
    # 3,888 functions from about 30M candidates, taken a grid at a time
    alg = make_preset("L3").algebra
    tracemalloc.start()
    try:
        result = _clone_digest(alg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (3888, "dd493835ac39f5c93f24872226a7b3d9a10c07f9e44c40e35416c8538a690344")
    assert peak < 3 * 2**20


def test_free_matrix_algebra_digest():
    free, reps = free_matrix_algebra(make_preset("Gn", 4), 2)
    h = hashlib.sha256()
    for name in free.algebra.elements:
        h.update(name.encode() + b"\0")
    for name, _ in free.algebra.signature.operations:
        h.update(name.encode())
        h.update(np.asarray(free.algebra.table(name), dtype=np.int64).tobytes())
    h.update(repr(sorted(free.designated)).encode())
    assert (free.algebra.size, h.hexdigest()) == (342, "3954a9fe06d8fc1a95996b659c9bf0f8ae69c2819b1bbff4136e348ea3402701")


@pytest.mark.parametrize("max_clone", [1, 2, 7, 40])
def test_small_clone_cap_raises(max_clone):
    with pytest.raises(CapExceeded) as exc:
        _clone_digest(make_preset("L3").algebra, 2, ResourceCaps(max_clone=max_clone))
    assert (exc.value.cap, exc.value.limit) == ("max_clone", max_clone)


def test_clone_cap_one_below_and_at_the_bound():
    # L3's binary clone holds every function the subuniverse bound allows
    alg = make_preset("L3").algebra
    with pytest.raises(CapExceeded) as exc:
        _clone_digest(alg, 2, ResourceCaps(max_clone=3887))
    assert (exc.value.cap, exc.value.limit) == ("max_clone", 3887)
    assert _clone_digest(alg, 2, ResourceCaps(max_clone=3888)) == (
        3888,
        "dd493835ac39f5c93f24872226a7b3d9a10c07f9e44c40e35416c8538a690344",
    )


def _if_then_else() -> FiniteAlgebra:
    # with the constant the clone is every Boolean function, reached over several rounds
    sig = Signature.of({"ite": 3, "¬": 1, "⊤": 0})
    ite = np.empty((2, 2, 2), dtype=np.int64)
    for c in range(2):
        for a in range(2):
            for b in range(2):
                ite[c, a, b] = a if c else b
    return FiniteAlgebra(sig, ["0", "1"], {"ite": ite, "¬": np.array([1, 0]), "⊤": np.array(1)})


@pytest.mark.parametrize("n", [1, 2])
def test_ternary_clone_matches_enumeration(n):
    alg = _if_then_else()
    fast = clone_discovery_order(alg, n)
    slow, _ = representatives_by_enumeration(alg, n)
    assert [t.table for t in fast] == [t.table for t in slow]
    assert [t.witness for t in fast] == [t.witness for t in slow]


def test_colliding_key_hashes_keep_the_digest():
    # wide keys hashed by their first word alone: functions that agree on
    # the first word collide, and are told apart by their other words
    def first_word(self, words):
        return words[:, 0].copy()

    with mock.patch.object(algebra._KeyIndex, "hashes", first_word):
        alg = direct_product(godel_chain(3), godel_chain(2))
        assert _clone_digest(alg, 2, ResourceCaps(max_clone=162)) == (
            162,
            "16f96d281401dea0bf0ab8a46096925f2a6bf48b8650cbe103527f0569e8bafb",
        )
