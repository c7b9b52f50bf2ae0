"""The variable collector and the prover's language check against the walks
they replaced (``variables_slow`` and ``check_language_slow`` in conftest):
the same variable tuple, and the same ``ValueError`` text or none, on
formulas that share subformulas.

The inputs are seeded random DAGs over a signature with a constant and two
connectives the prover rejects, and the ladder formulas, whose printed size
grows exponentially with their index while their distinct subformulas grow
linearly."""

import random

import pytest

from matlogic import Signature, app, const, rn_power, var, variables
from matlogic.intprover import _check_language
from matlogic.lang import AND, IFF, IMP, NOT, OR, _postorder

from conftest import check_language_slow, variables_slow

# ↔ and □ are connectives the prover rejects, ⊥ a constant it rejects
SIGNATURE = Signature.of({NOT: 1, AND: 2, OR: 2, IMP: 2, IFF: 2, "□": 1, "⊥": 0})


def random_dag(rng, size):
    """A formula built from a pool of size nodes, each compound node taking
    its arguments from earlier nodes, so subformulas are shared."""
    pool = [var(i) for i in range(1, rng.randint(1, 4) + 1)]
    if rng.random() < 0.3:
        pool.append(const("⊥"))
    connectives = [NOT, AND, OR, IMP, IMP, AND, IFF, "□"]
    while len(pool) < size:
        name = rng.choice(connectives)
        # prefer recent nodes, so the formula grows deep as well as wide
        args = [pool[max(0, len(pool) - 1 - int(rng.expovariate(0.3)))]]
        if SIGNATURE.arity(name) == 2:
            args.append(rng.choice(pool))
        pool.append(app(name, args))
    return pool[-1]


def outcome(check, f):
    try:
        check(f)
    except ValueError as e:
        return str(e)
    return None


def rejected_nodes(f):
    return [
        g
        for g in _postorder([f])[1]
        if getattr(g, "connective", getattr(g, "name", None)) in ("⊥", IFF, "□")
    ]


@pytest.mark.parametrize("seed", range(8))
def test_random_dags(seed):
    rng = random.Random(20261019 + seed)
    several_bad = 0
    for _ in range(60):
        f = random_dag(rng, rng.randint(2, 40))
        assert variables(f) == variables_slow(f), str(f)
        assert outcome(_check_language, f) == outcome(check_language_slow, f), str(f)
        several_bad += len(rejected_nodes(f)) >= 2
    # where two nodes are rejected, the old walk's order picks the error
    assert several_bad >= 10


@pytest.mark.parametrize("index", range(31))
def test_ladder_formulas(index):
    f = rn_power(index, 3)
    assert variables(f) == variables_slow(f) == (3,)
    assert outcome(_check_language, f) is outcome(check_language_slow, f) is None
    # the same formula under a rejected connective, and beside a rejected constant
    for g in (app("□", (f,)), app(AND, (app(IFF, (f, f)), const("⊥")))):
        assert outcome(_check_language, g) == outcome(check_language_slow, g)
