"""Malformed workspace and derivation files keep the exit-code contract.

Every node of a valid workspace (``data/corpus_ws.json``) and of two valid
derivations is replaced in turn by a value of each JSON kind.  Every such
file must be answered with an exit code, never an exception, and a
replacement of another JSON kind than the node's, which no place in either
schema accepts, must be answered with exit 2 and a JSON pointer.  The
table walker of the workspace loader is also compared with the recursive
walk it replaced, on randomly mutated tables.
"""

import copy
import json
import random
from pathlib import Path

import numpy as np
import pytest

from matlogic.cli import WorkspaceError, _table_entries, run_command

from conftest import DERIV_E1_DOC, DERIV_E2S_DOC, parse_table_slow, replaced, write_workspace

WORKSPACE = json.loads(
    (Path(__file__).parent / "data" / "corpus_ws.json").read_text(encoding="utf-8")
)
REPLACEMENTS = (None, True, 5, "x", [], {}, ["x"])


def _nodes(doc):
    """The path of every node of a JSON document, the root's first."""
    out, todo = [], [((), doc)]
    while todo:
        path, node = todo.pop()
        out.append(path)
        if isinstance(node, dict):
            todo.extend((path + (k,), v) for k, v in node.items())
        elif isinstance(node, list):
            todo.extend((path + (i,), v) for i, v in enumerate(node))
    return out


def _kind(value):
    """A JSON value's kind: bool is not a number, and integers are numbers."""
    return "number" if type(value) in (int, float) else type(value).__name__


def _check_mutations(tmp_path, doc, path, argv):
    node = doc
    for key in path:
        node = node[key]
    for value in REPLACEMENTS:
        file = write_workspace(tmp_path / "doc.json", replaced(doc, path, value))
        code, text = run_command([a.replace("@FILE@", file) for a in argv])
        assert code in (0, 1, 2, 3), (path, value)
        if _kind(value) != _kind(node):
            assert code == 2 and text.startswith("error: /"), (path, value, text)


@pytest.mark.parametrize("path", _nodes(WORKSPACE), ids=lambda p: "/".join(map(str, p)) or "-")
def test_workspace_mutations_keep_the_exit_code_contract(tmp_path, path):
    argv = ["valid", "--file", "@FILE@", "--matrix", "M", "p1 -> p1"]
    _check_mutations(tmp_path, WORKSPACE, path, argv)


@pytest.mark.parametrize(
    "doc, path",
    [(DERIV_E1_DOC, p) for p in _nodes(DERIV_E1_DOC)]
    + [(DERIV_E2S_DOC, p) for p in _nodes(DERIV_E2S_DOC)],
    ids=lambda x: x["system"] if isinstance(x, dict) else "/".join(map(str, x)) or "-",
)
def test_derivation_mutations_keep_the_exit_code_contract(tmp_path, doc, path):
    _check_mutations(tmp_path, doc, path, ["eq", "derive-check", "@FILE@"])


def test_the_unmutated_files_are_answered_yes(tmp_path):
    file = write_workspace(tmp_path / "ws.json", WORKSPACE)
    assert run_command(["valid", "--file", file, "--matrix", "M", "p1 -> p1"]) == (0, "valid: p1 -> p1")
    for doc in (DERIV_E1_DOC, DERIV_E2S_DOC):
        file = write_workspace(tmp_path / "d.json", doc)
        assert run_command(["eq", "derive-check", file]) == (0, "derivation checks")


def _outcome(walk, raw, arity, elements):
    try:
        table = walk(raw, arity, elements, "/t")
    except WorkspaceError as exc:
        return str(exc)
    return table.shape, table.dtype, table.tolist()


def _mutate(rng, raw, elements):
    """raw with one node, at a random place, replaced by another value, or
    with a row shortened or lengthened there."""
    raw = copy.deepcopy(raw)
    paths = [p for p in _nodes(raw) if p]
    if not paths:
        return rng.choice([*REPLACEMENTS, "y", elements[-1]])
    path = rng.choice(paths)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    change = rng.randrange(3)
    if change == 0:
        parent[path[-1]] = rng.choice([*REPLACEMENTS, "y", rng.choice(elements)])
    elif change == 1:
        del parent[path[-1]]
    else:
        parent.insert(path[-1], rng.choice(elements))
    return raw


def _random_table(rng, elements, arity):
    if arity == 0:
        return rng.choice(elements)
    return [_random_table(rng, elements, arity - 1) for _ in elements]


def _table(raw, arity, elements, pointer):
    """A table's validated entries, shaped as the workspace builds them."""
    entries = _table_entries(raw, arity, elements, pointer)
    return np.array(entries, dtype=np.int64).reshape((len(elements),) * arity)


def test_table_walk_agrees_with_the_recursive_walk():
    rng = random.Random(7)
    outcomes = []
    for _ in range(3000):
        elements = ["0", "1", "2"][: rng.randint(1, 3)]
        arity = rng.randint(0, 3)
        raw = _random_table(rng, elements, arity)
        for _ in range(rng.randint(0, 2)):
            raw = _mutate(rng, raw, elements)
        got = _outcome(_table, raw, arity, elements)
        assert got == _outcome(parse_table_slow, raw, arity, elements), (raw, arity, elements)
        outcomes.append(got)
    assert any(not isinstance(got, str) for got in outcomes)
    for error in ("expected an element name", "expected an array", "unknown element", "entries, expected"):
        assert any(error in got for got in outcomes if isinstance(got, str)), error
