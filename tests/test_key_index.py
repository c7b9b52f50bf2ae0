"""The clone engine's key index: every key added reads back as its row, in
order of adding, across rehashes, and a key never added reads -1."""

import numpy as np
import pytest

from matlogic import algebra


@pytest.mark.parametrize(
    "k, size, arity, dense",
    [(3, 9, 2, True), (4, 16, 2, False), (6, 36, 2, False)],
    ids=["dense", "one-word", "two-word"],
)
def test_rows_read_back_after_rehashes(k, size, arity, dense):
    layout = algebra._Codes(k, size, arity)
    rng = np.random.default_rng(20261020)
    tables = np.unique(rng.integers(0, k, (6_000, size)), axis=0)
    tables = tables[rng.permutation(len(tables))]
    keys = layout.keys(layout.codes(tables))
    added, missing = keys[:5_000], keys[5_000:]
    index = algebra._KeyIndex(layout, added[:10])
    assert (index.dense is not None) == dense
    for lo, hi in [(10, 11), (11, 400), (400, 2_000), (2_000, 2_000), (2_000, 5_000)]:
        index.add(added[lo:hi])
        assert index.find(added[:hi]).tolist() == list(range(hi))
    assert index.find(missing).tolist() == [-1] * len(missing)
    if not dense:
        assert len(index.slots) == 1 << 14  # grown from 2**10 slots, at most half full
