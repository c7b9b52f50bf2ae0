"""End-to-end acceptance checks.

Each check prints a single pass/fail line on the real stderr stream so the
verdicts stay visible even under pytest's output capture.
"""

import contextlib
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from matlogic import (
    Atlas,
    CLASSICAL_SIGNATURE,
    Equality,
    FiniteAlgebra,
    Matrix,
    Signature,
    app,
    atlas_inclusion,
    bridge_implicational,
    combine_matrices,
    conj,
    consequence,
    const,
    decide_ground_equational,
    disj,
    enumerate_formulas,
    eq_consequence,
    expand_iff,
    free_matrix_algebra,
    glivenko_check,
    has_theorems,
    imp,
    int_ll,
    int_sim,
    is_valid,
    make_preset,
    neg,
    parse_equality,
    parse_formula,
    provable,
    representatives,
    rn_classify,
    rn_power,
    term_table,
    theorem_inclusion,
    var,
    weak_equivalence,
)

from conftest import representatives_by_enumeration


def _say(line):
    print(line, file=sys.__stderr__, flush=True)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        _say(f"criterion {num:>2}: FAIL - {label}")
        raise
    _say(f"criterion {num:>2}: PASS - {label}")


def fml(text, sig=CLASSICAL_SIGNATURE):
    return parse_formula(text, sig)


def tables_equal(alg, left, right, n):
    return np.array_equal(term_table(alg, left, n), term_table(alg, right, n))


# ---------------------------------------------------------------------------
# 1. two-valued tautologies


CLASSICAL_TAUTOLOGIES = [
    "p1 -> p1",
    "~(p1 & ~p1)",
    "p1 | ~p1",
    "p1 -> (p2 -> p1)",
    "~p1 -> (p1 -> p2)",
    "((p1 -> p2) -> p1) -> p1",
    "~~p1 <-> p1",
    "~(p1 & p2) <-> (~p1 | ~p2)",
    "~(p1 | p2) <-> (~p1 & ~p2)",
]


def test_criterion_1_classical_tautologies():
    with criterion(1, "all 9 listed two-valued tautologies are valid in B2"):
        b2 = make_preset("B2")
        for text in CLASSICAL_TAUTOLOGIES:
            assert is_valid(b2, fml(text)).valid, text


# ---------------------------------------------------------------------------
# 2. three-valued Lukasiewicz matrix


def test_criterion_2_lukasiewicz():
    with criterion(2, "Lukasiewicz three-valued laws, refuters and identities"):
        l3 = make_preset("L3")
        sig = l3.algebra.signature
        half = l3.algebra.elements.index("1/2")

        for text in ("p1 | ~p1", "((p1 -> p2) -> p1) -> p1"):
            res = is_valid(l3, parse_formula(text, sig))
            assert not res.valid
            # the reported first refuter sends p1 to the middle value
            assert dict(res.assignment)[1] == half

        for text in (
            "p1 -> (p2 -> p1)",
            "(p1 -> p2) -> ((p2 -> p3) -> (p1 -> p3))",
            "(~p1 -> ~p2) -> (p2 -> p1)",
            "((p1 -> ~p1) -> p1) -> p1",
        ):
            assert is_valid(l3, parse_formula(text, sig)).valid, text

        # with both non-zero values designated the disjunction below fails
        wide = Matrix(l3.algebra, frozenset({half, l3.algebra.elements.index("1")}))
        res = is_valid(wide, parse_formula("~(p1 -> ~p1) | ~(~p1 -> p1)", sig))
        assert not res.valid
        assert res.assignment == ((1, half),)

        modal = make_preset("L3modal")
        alg = modal.algebra
        x, y = var(1), var(2)
        assert tables_equal(alg, disj(x, y), imp(imp(x, y), y), 2)
        assert tables_equal(alg, conj(x, y), neg(disj(neg(x), neg(y))), 2)
        assert tables_equal(alg, app("◇", (x,)), imp(neg(x), x), 1)
        assert tables_equal(alg, app("□", (x,)), neg(app("◇", (neg(x),))), 1)


# ---------------------------------------------------------------------------
# 3. Goedel chains


def test_criterion_3_goedel_chains():
    with criterion(3, "Goedel-chain refutations, prelinearity and chain of theories"):
        g3 = make_preset("Gn", 3)
        sig = g3.algebra.signature
        assert not is_valid(g3, parse_formula("((p1 -> p2) -> p1) -> p1", sig)).valid
        assert not is_valid(g3, parse_formula("~~p1 -> p1", sig)).valid

        lin = "(p1 -> p2) | (p2 -> p1)"
        for n in range(2, 7):
            assert is_valid(make_preset("Gn", n), parse_formula(lin, sig)).valid
            assert is_valid(make_preset("LCchain", n), parse_formula(lin, sig)).valid

        for n in range(2, 5):
            big = make_preset("Gn", n + 1)
            small = make_preset("Gn", n)
            assert theorem_inclusion(big, small, n=2).answer == "yes"


@pytest.mark.xfail(
    strict=True,
    reason="with the standard three-element Goedel operations both De Morgan "
    "equivalences are valid (negation only takes the extreme values), so no "
    "refuting assignment exists; see the project decision log",
)
def test_criterion_3_de_morgan_refutation_subitem():
    g3 = make_preset("Gn", 3)
    sig = g3.algebra.signature
    refuted = not is_valid(g3, parse_formula("~(p1 & p2) <-> (~p1 | ~p2)", sig)).valid
    refuted = refuted and not is_valid(
        g3, parse_formula("~(p1 | p2) <-> (~p1 & ~p2)", sig)
    ).valid
    assert refuted


# ---------------------------------------------------------------------------
# 4. worked three-element examples


def test_criterion_4_worked_examples(chain3_join, chain3_arrow):
    with criterion(4, "three-element join/arrow examples: representatives and theorems"):
        reps = representatives(chain3_join.algebra, 1)
        assert sorted(str(f) for f in reps.witnesses()) == ["0", "p1"]
        assert has_theorems(chain3_join).answer == "no"

        reps = representatives(chain3_arrow.algebra, 1)
        expected = [
            "p1",
            "0",
            "p1 -> p1",
            "p1 -> 0",
            "(p1 -> 0) -> p1",
            "((p1 -> 0) -> p1) -> p1",
        ]
        assert [str(f) for f in reps.witnesses()] == expected
        rep = has_theorems(chain3_arrow)
        assert rep.answer == "yes"
        assert str(rep.witness) == "p1 -> p1"

        # the depth-by-depth oracle stabilizes at depth 4 with the same classes
        entries, depth = representatives_by_enumeration(chain3_arrow.algebra, 1)
        assert len(entries) == 6
        assert depth == 4


# ---------------------------------------------------------------------------
# 5. free matrix algebras over the Boolean preset


BOOLEAN_IDENTITIES = [
    ("p1 & p2", "p2 & p1"),
    ("p1 | p2", "p2 | p1"),
    ("p1 & (p2 & p3)", "(p1 & p2) & p3"),
    ("p1 | (p2 | p3)", "(p1 | p2) | p3"),
    ("(p1 & p2) | p2", "p2"),
    ("p1 & (p1 | p2)", "p1"),
    ("p1 & (p2 | p3)", "(p1 & p2) | (p1 & p3)"),
    ("p1 | (p2 & p3)", "(p1 | p2) & (p1 | p3)"),
    ("p1 & ⊤", "p1"),
    ("p1 | ⊤", "⊤"),
    ("(p1 & ~p1) | p2", "p2"),
    ("(p1 | ~p1) & p2", "p2"),
]


def test_criterion_5_free_algebras():
    with criterion(5, "free Boolean matrix algebras have 2/4/16 elements and satisfy the lattice axioms"):
        b2c = make_preset("B2c")
        sig = b2c.algebra.signature
        started = time.perf_counter()
        for n, size in ((0, 2), (1, 4), (2, 16)):
            free, _ = free_matrix_algebra(b2c, n)
            assert free.algebra.size == size
            for left, right in BOOLEAN_IDENTITIES:
                assert tables_equal(
                    free.algebra, parse_formula(left, sig), parse_formula(right, sig), 3
                ), (n, left)
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 6. decision procedures


def _random_matrix(rng, sig, size):
    tables = {}
    for name, arity in sig.operations:
        shape = (size,) * arity
        tables[name] = rng.integers(0, size, size=shape, dtype=np.int64)
    alg = FiniteAlgebra(sig, [f"e{i}" for i in range(size)], tables)
    designated = frozenset(i for i in range(size) if rng.integers(0, 2)) or frozenset({0})
    return Matrix(alg, designated)


def test_criterion_6_decision_procedures():
    with criterion(6, "theorem inclusion, weak equivalence, combination identities, atlas inclusion"):
        l3 = make_preset("L3")
        sig = l3.algebra.signature
        b2 = make_preset("Gn", 2)  # two-element Boolean matrix over the same signature
        assert theorem_inclusion(l3, b2).answer == "yes"
        rep = theorem_inclusion(b2, l3)
        assert rep.answer == "no"
        # the witness lies in the class of Peirce's law: a two-valued
        # tautology that the three-valued matrix refutes
        assert is_valid(b2, rep.witness).valid
        assert not is_valid(l3, rep.witness).valid
        peirce = parse_formula("((p1 -> p2) -> p1) -> p1", sig)
        assert is_valid(b2, peirce).valid and not is_valid(l3, peirce).valid

        presets = [
            make_preset("B2"),
            make_preset("B2c"),
            make_preset("L3"),
            make_preset("L3modal"),
            make_preset("Gn", 3),
            make_preset("LCchain", 3),
        ]
        for m in presets:
            assert weak_equivalence(m, m).answer == "yes"

        small_sig = Signature.of({"¬": 1, "→": 2})
        rng = np.random.default_rng(20260826)
        for _ in range(10):
            m1 = _random_matrix(rng, small_sig, int(rng.integers(2, 4)))
            m2 = _random_matrix(rng, small_sig, int(rng.integers(2, 4)))
            prod = combine_matrices("product", m1, m2)
            tsum = combine_matrices("sum", m1, m2)
            for f in enumerate_formulas(small_sig, 1, max_depth=2, max_count=60):
                v1, v2 = is_valid(m1, f).valid, is_valid(m2, f).valid
                assert is_valid(prod, f).valid == (v1 and v2)
                assert is_valid(tsum, f).valid == (v1 or v2)

        alg = l3.algebra
        one = alg.elements.index("1")
        half = alg.elements.index("1/2")
        strict = Atlas(alg, (frozenset({one}),))
        wide = Atlas(alg, (frozenset({one}), frozenset({half, one})))
        assert atlas_inclusion(wide, strict).answer == "yes"
        rep = atlas_inclusion(strict, wide)
        assert rep.answer == "no"
        premises, conclusion = rep.witness
        assert consequence(strict, list(premises), conclusion).holds
        assert not consequence(wide, list(premises), conclusion).holds
        # detachment itself separates the two atlases
        mp = [parse_formula("p1", sig), parse_formula("p1 -> p2", sig)]
        q = parse_formula("p2", sig)
        assert consequence(strict, mp, q).holds
        assert not consequence(wide, mp, q).holds


# ---------------------------------------------------------------------------
# 7. intuitionistic prover and the single-variable ladder


INT_AXIOM_INSTANCES = [
    "p1 -> p1",
    "p1 -> (p2 -> p1)",
    "(p1 -> p2) -> ((p1 -> (p2 -> p3)) -> (p1 -> p3))",
    "p1 -> (p2 -> (p1 & p2))",
    "(p1 & p2) -> p1",
    "(p1 & p2) -> p2",
    "p1 -> (p1 | p2)",
    "p2 -> (p1 | p2)",
    "(p1 -> p3) -> ((p2 -> p3) -> ((p1 | p2) -> p3))",
    "(p1 -> p2) -> ((p1 -> ~p2) -> ~p1)",
    "p1 -> (~p1 -> p2)",
]


def test_criterion_7_intuitionistic_ladder():
    with criterion(7, "sequent prover on axioms and the one-variable ladder"):
        for text in INT_AXIOM_INSTANCES:
            assert provable(expand_iff(fml(text))), text
        for i in range(9):
            assert not provable(rn_power(i)), i

        started = time.perf_counter()
        for i in range(9):
            for j in range(i, 9):
                assert int_sim(rn_power(i), rn_power(j)) == (i == j), (i, j)
        assert time.perf_counter() - started < 60.0

        for n in range(3):
            assert int_sim(conj(rn_power(2 * n + 1), rn_power(2 * n + 3)), rn_power(2 * n))
            assert int_sim(imp(rn_power(2 * n + 1), rn_power(2 * n + 3)), rn_power(2 * n + 3))
            assert int_sim(imp(rn_power(2 * n + 3), rn_power(2 * n + 1)), rn_power(2 * n + 1))
            assert int_ll(rn_power(n), rn_power(n + 4))
            assert int_sim(
                imp(imp(rn_power(2 * n + 1), rn_power(2 * n)), rn_power(2 * n)),
                rn_power(2 * n + 1),
            )

        p = var(1)
        assert rn_classify(neg(neg(neg(p)))) == 1
        assert rn_classify(neg(neg(p))) == 3
        assert rn_classify(disj(p, neg(p))) == 4
        for k in range(13, 25):
            assert rn_classify(rn_power(k)) == k, k
        for k in range(25, 28):
            assert rn_classify(rn_power(k)) is None, k
        for f in (app("□", (p,)), conj(p, const("⊤"))):
            with pytest.raises(ValueError, match="not supported by the prover"):
                rn_classify(f)


# ---------------------------------------------------------------------------
# 8. double-negation bridge


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return var(rng.randint(1, 2))
    pick = rng.random()
    if pick < 0.25:
        return neg(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    if pick < 0.5:
        return conj(left, right)
    if pick < 0.75:
        return disj(left, right)
    return imp(left, right)


def test_criterion_8_double_negation_bridge():
    with criterion(8, "two-valued validity matches double-negation provability on 200 formulas"):
        rng = random.Random(20260826)
        for _ in range(200):
            f = _random_formula(rng, 4)
            assert glivenko_check(f)["agree"], str(f)


# ---------------------------------------------------------------------------
# 9. equational systems


def test_criterion_9_equational():
    with criterion(9, "ground decider vs brute force, E/EL separation, both bridges"):
        from test_eqlogic import brute_force_e1

        rng = random.Random(20260826)

        def rand_term(depth):
            if depth == 0 or rng.random() < 0.4:
                return var(rng.randint(1, 3))
            if rng.random() < 0.3:
                return neg(rand_term(depth - 1))
            return conj(rand_term(depth - 1), rand_term(depth - 1))

        for _ in range(100):
            premises = [Equality(rand_term(2), rand_term(2)) for _ in range(rng.randint(1, 3))]
            goal = Equality(rand_term(2), rand_term(2))
            fast, _ = decide_ground_equational(premises, goal)
            assert fast == brute_force_e1(premises, goal)

        b2c = make_preset("B2c")
        sig = b2c.algebra.signature
        prem = [parse_equality("p1 ~ ⊤", sig)]
        goal = parse_equality("p1 ~ ~⊤", sig)
        assert not eq_consequence("E", [b2c.algebra], prem, goal).holds
        assert eq_consequence("EL", [b2c.algebra], prem, goal).holds

        dist = parse_equality("p1 & (p2 | p3) ~ (p1 & p2) | (p1 & p3)", sig)
        assert bridge_implicational("EB", [], dist).holds
        dne = parse_equality("~~p1 ~ p1", sig)
        assert not bridge_implicational("EH", [], dne).holds


# ---------------------------------------------------------------------------
# 10. property-based metatheory


def test_criterion_10_metaproperties():
    with criterion(10, "property-based metatheory suite (500 cases per property)"):
        suite = Path(__file__).with_name("test_properties.py")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(suite)],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parents[1]),
        )
        assert result.returncode == 0, result.stdout + result.stderr
