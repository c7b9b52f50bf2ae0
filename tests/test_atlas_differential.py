"""Atlas inclusion against the bitmask scan it replaced (the slow oracle in
conftest): the same answer, witness sequent and stats, on one shared
algebra and on a direct product, with caps that fire and caps that do not."""

import numpy as np
from hypothesis import given, settings, strategies as st

from matlogic import Atlas, FiniteAlgebra, ResourceCaps, Signature, atlas_inclusion

from conftest import ARITIES, atlas_inclusion_slow


def _algebra(sig, k, seed):
    rng = np.random.default_rng(seed)
    tables = {
        name: rng.integers(0, k, size=(k,) * arity, dtype=np.int64)
        for name, arity in sig.operations
    }
    return FiniteAlgebra(sig, [f"e{i}" for i in range(k)], tables)


@st.composite
def filter_families(draw, k):
    subsets = st.frozensets(st.integers(0, k - 1), max_size=k)
    return tuple(draw(st.lists(subsets, min_size=1, max_size=3)))


@st.composite
def atlas_pairs(draw):
    """Two atlases over one signature, on one algebra or on two, of 1-3
    elements each."""
    names = draw(st.lists(st.sampled_from(sorted(ARITIES)), min_size=1, unique=True))
    sig = Signature.of({name: ARITIES[name] for name in names})
    seeds = st.integers(0, 2**32 - 1)
    alg1 = _algebra(sig, draw(st.integers(1, 3)), draw(seeds))
    alg2 = alg1 if draw(st.booleans()) else _algebra(sig, draw(st.integers(1, 3)), draw(seeds))
    fam1 = draw(filter_families(alg1.size))
    fam2 = draw(filter_families(alg2.size))
    return Atlas(alg1, fam1), Atlas(alg2, fam2)


class TestAtlasInclusionAgainstBitmasks:
    @settings(max_examples=400, deadline=None)
    @given(
        atlas_pairs(),
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([4, 100]),
        st.sampled_from([20, 100]),
    )
    def test_same_report(self, pair, m, max_clone, max_tuples):
        a1, a2 = pair
        caps = ResourceCaps(max_clone=max_clone, max_tuples=max_tuples)
        assert atlas_inclusion(a1, a2, caps, m) == atlas_inclusion_slow(a1, a2, caps, m)
