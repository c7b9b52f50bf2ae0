"""The classical half of ``glivenko_check`` against the two-element matrix
scan: ``classically_valid`` must equal ``is_valid(make_preset("B2"), f)``
on hypothesis-drawn formulas over 1-8 variables (with ↔), on the ladder
formulas 0-20 and on formulas over more variables than one evaluation
pass holds; and the max_tuples cap must still stop it before it starts.

Proof search is stubbed out where only the classical half is compared: the
double negation of a random formula can take long to refute."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from matlogic import (
    CapExceeded,
    ResourceCaps,
    conj,
    disj,
    glivenko_check,
    iff,
    imp,
    is_valid,
    make_preset,
    neg,
    rn_power,
    var,
)
from matlogic.cli import run_command

B2 = make_preset("B2")


def classically_valid(f, caps=ResourceCaps()):
    with mock.patch("matlogic.intprover.provable", return_value=False):
        return glivenko_check(f, caps)["classically_valid"]


def formulas(n):
    binary = [conj, disj, imp, iff]
    return st.recursive(
        st.integers(1, n).map(var),
        lambda sub: st.one_of(
            sub.map(neg),
            st.tuples(st.sampled_from(binary), sub, sub).map(lambda t: t[0](t[1], t[2])),
        ),
        max_leaves=14,
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(formulas))
def test_agrees_with_the_b2_scan(f):
    assert classically_valid(f) == is_valid(B2, f).valid


@pytest.mark.parametrize("k", range(21))
def test_ladder_formulas(k):
    f = rn_power(k)
    res = glivenko_check(f)
    assert res["classically_valid"] == is_valid(B2, f).valid
    assert res["agree"]


def _big(op, parts):
    out = parts[0]
    for p in parts[1:]:
        out = op(out, p)
    return out


@pytest.mark.parametrize("n", [16, 17, 18])
def test_many_variables(n):
    ps = [var(i) for i in range(1, n + 1)]
    cases = [
        _big(disj, ps),  # false only where every variable is
        _big(disj, [neg(p) for p in ps]),  # false only where every variable is true
        disj(_big(conj, ps), _big(disj, [neg(p) for p in ps])),  # valid
        imp(_big(conj, ps[:-1]), ps[-1]),  # false only at one valuation
        iff(ps[0], _big(disj, [ps[0], _big(conj, ps[1:])])),  # false where p1 fails and the rest hold
    ]
    for f in cases:
        assert classically_valid(f) == is_valid(B2, f).valid, f


def test_cap_comes_before_any_evaluation():
    f = _big(disj, [var(i) for i in range(1, 12)])
    with pytest.raises(CapExceeded, match="max_tuples"):
        classically_valid(f, ResourceCaps(max_tuples=2**10))
    assert classically_valid(f, ResourceCaps(max_tuples=2**11)) is False


def test_cli_stops_at_max_tuples():
    text = " | ".join(f"p{i}" for i in range(1, 26))
    code, out = run_command(["int", "glivenko", text])
    assert code == 3
    assert out == f"cap exceeded: cap exceeded: max_tuples (limit {2**24})"
