"""The ground decider at workload size against the code it replaced: the
closure's terms in ``_postorder``'s order with ``ground_closure_slow``'s
labels, and ``eq ground`` reports, text and JSON, equal byte for byte to
reports assembled from ``parse_equality_slow``, ``ground_closure_slow`` and
``format_formula_slow``.

The premise sets are seeded: 70-100 premises whose terms are built from a
shared pool, so the universe has many terms reached from several premises,
and a chain t0 ~ t1 ~ t2 among them."""

import json
import random

import pytest

from matlogic import Equality, app, ground_closure, var
from matlogic.cli import run_command
from matlogic.lang import AND, BOOLEAN_SIGNATURE, IMP, NOT, OR, _postorder

from conftest import format_formula_slow, ground_closure_slow, parse_equality_slow

CONNECTIVES = [(NOT, 1), (AND, 2), (OR, 2), (IMP, 2)]


def premise_set(rng, count):
    """count premises over p1..p4 of 8-11 nodes a side, the last two a
    shuffled-in chain t0 ~ t1 ~ t2, the chain's terms, and one more term."""
    fillers = [var(i) for i in range(1, 5)]
    starts = list(fillers)
    size = dict.fromkeys(fillers, 1)

    def term():
        # a pool term of at most 6 nodes, wrapped in applications whose
        # other arguments are pool terms of at most 3; each new application
        # small enough joins the pools
        t = rng.choice(starts)
        while size[t] < 8:
            name, arity = rng.choice(CONNECTIVES)
            args = [t] + [rng.choice(fillers) for _ in range(arity - 1)]
            rng.shuffle(args)
            t = app(name, args)
            if t not in size:
                size[t] = 1 + sum(size[a] for a in args)
                for pool, bound in ((fillers, 3), (starts, 6)):
                    if size[t] <= bound:
                        pool.append(t)
        return t

    t0, t1, t2 = term(), term(), term()
    premises = [Equality(term(), term()) for _ in range(count - 2)]
    premises += [Equality(t0, t1), Equality(t1, t2)]
    rng.shuffle(premises)
    return premises, (t0, t1, t2), term()


@pytest.mark.parametrize("block", range(6))
def test_closure_order_and_labels_at_workload_size(block):
    shared = 0
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(seed)
        premises, (t0, _, t2), q = premise_set(rng, rng.randint(70, 100))
        extra = (app(IMP, (t0, q)), app(IMP, (t2, q)))
        got = ground_closure(premises, extra)
        terms = [t for e in premises for t in (e.lhs, e.rhs)] + list(extra)
        assert list(got) == _postorder(terms)[1]
        assert list(got.items()) == list(ground_closure_slow(premises, extra).items())
        assert got[extra[0]] == got[extra[1]]
        shared += len(got) < sum(len(_postorder([t])[1]) for t in terms) // 2
    # most sets share more than half of their subterm occurrences
    assert shared >= 40


def report_slow(argv_premises, goal_text, as_json):
    """The eq ground report, assembled from the oracles."""
    def equality(text):
        return Equality(*parse_equality_slow(text, BOOLEAN_SIGNATURE))

    premises = [equality(text) for text in argv_premises]
    goal = equality(goal_text)
    labels = ground_closure_slow(premises, (goal.lhs, goal.rhs))
    classes = {}
    for t, c in labels.items():
        classes.setdefault(c, []).append(format_formula_slow(t))
    partition = [sorted(v) for _, v in sorted(classes.items())]
    holds = labels[goal.lhs] == labels[goal.rhs]
    if as_json:
        doc = {"command": "eq ground", "answer": "yes" if holds else "no"}
        if not holds:
            doc["witness"] = partition
        doc["stats"] = {"classes": partition}
        return json.dumps(doc, ensure_ascii=False, sort_keys=True)
    if holds:
        return "ground consequence: yes"
    return f"ground consequence: no\nclosure classes: {partition}"


@pytest.mark.parametrize("holds", [True, False], ids=["yes", "no"])
def test_eq_ground_reports_equal_the_oracles(holds):
    rng = random.Random(f"eq ground/{holds}")
    premises, (t0, _, t2), q = premise_set(rng, 80)
    # C[t0] ~ C[t2] follows from the chain; p9 occurs in no premise
    lhs = app(IMP, (t0 if holds else var(9), q))
    rhs = app(IMP, (t2 if holds else t0, q))
    goal_text = f"{format_formula_slow(lhs)} ~ {format_formula_slow(rhs)}"
    texts = [f"{format_formula_slow(e.lhs)} ~ {format_formula_slow(e.rhs)}" for e in premises]
    argv = ["eq", "ground", goal_text]
    for text in texts:
        argv += ["--premise", text]
    for as_json in (False, True):
        code, text = run_command(argv + ["--json"] * as_json)
        assert code == (0 if holds else 1)
        assert text == report_slow(texts, goal_text, as_json)
