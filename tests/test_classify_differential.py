"""Ladder classification against the proof-search oracle
(``rn_classify_slow`` in conftest): the same answer on ladder formulas,
on seeded random one-variable formulas at two index bounds, and on
theses."""

import functools
import random

import pytest

from matlogic import (
    CLASSICAL_SIGNATURE,
    conj,
    disj,
    imp,
    neg,
    parse_formula,
    rn_classify,
    rn_power,
    var,
)
from matlogic.lang import Substitution

from conftest import rn_classify_slow


@functools.lru_cache(maxsize=None)
def oracle(f, max_index):
    return rn_classify_slow(f, max_index)


def random_formula(rng, depth, p, root=True):
    if depth == 0 or (not root and rng.random() < 0.2):
        return p
    pick = rng.random()
    if pick < 0.25:
        return neg(random_formula(rng, depth - 1, p, False))
    left = random_formula(rng, depth - 1, p, False)
    right = random_formula(rng, depth - 1, p, False)
    if pick < 0.5:
        return conj(left, right)
    if pick < 0.75:
        return disj(left, right)
    return imp(left, right)


def random_formulas(seed, count):
    rng = random.Random(seed)
    return [random_formula(rng, rng.randint(1, 6), var(rng.randint(1, 4))) for _ in range(count)]


@pytest.mark.parametrize("variable", [1, 2, 3, 4])
def test_ladder_formulas(variable):
    for k in range(15):
        f = rn_power(k, variable)
        # the oracle renames the variable to p1 before it searches
        want = oracle(rn_power(k), 24)
        assert want == k
        assert rn_classify(f) == want, k


def test_ladder_formulas_above_the_bound():
    # on the 4-point frame for bound 5, ladder formulas from 8 on are whole,
    # so these answers come from proof search, the others from the frame
    for k in range(6, 15):
        want = oracle(rn_power(k), 5)
        assert want is None
        assert rn_classify(rn_power(k, 2), 5) == want, k


def renamed(f):
    return Substitution.of({v: var(1) for v in range(2, 5)}).apply(f)


@pytest.mark.parametrize("max_index", [24, 5])
def test_random_formulas(max_index):
    for f in random_formulas(20261019, 500):
        assert rn_classify(f, max_index) == oracle(renamed(f), max_index), str(f)


@pytest.mark.parametrize("max_index", [-1, -3])
def test_negative_bound(max_index):
    # no ladder index is in range, so only theses get a class
    for f in random_formulas(20261019, 50):
        assert rn_classify(f, max_index) == oracle(renamed(f), max_index), str(f)


THESES = [
    "p1 -> p1",
    "~(p1 & ~p1)",
    "~~(p1 | ~p1)",
    "(~~p1 -> p1) -> (p1 | ~p1) -> (~~p1 -> p1)",
    "~~~p1 -> ~p1",
    "((p1 -> ~p1) -> ~p1) | p1 -> ~~(p1 | ~p1)",
    "p3 -> (~p3 -> p3 & ~p3)",
    "(p2 | ~p2 -> ~p2) -> ~p2",
]


@pytest.mark.parametrize("text", THESES)
def test_theses(text):
    f = parse_formula(text, CLASSICAL_SIGNATURE)
    assert rn_classify_slow(f) == "omega"
    assert rn_classify(f) == "omega"
