"""cli.load_spec against the loader it replaced (conftest.load_spec_slow).

Every node of a valid workspace (``data/corpus_ws.json``) is replaced in
turn by a value of each JSON kind.  Both loaders must reject such a file
with the same message, or load the same workspace from it.  ``load_spec`` is
called twice on each file, so that the second call answers from what the
first one kept.
"""

import json
from pathlib import Path

import pytest

from matlogic.cli import WorkspaceError, load_spec

from conftest import load_spec_slow, replaced, write_workspace
from test_malformed_inputs import REPLACEMENTS, WORKSPACE, _nodes


def outcome(load, path):
    """The loader's error text, or the workspace it loaded."""
    try:
        spec = load(path)
    except WorkspaceError as exc:
        return str(exc)
    return spec


def assert_same_workspace(got, want):
    assert got.signature == want.signature
    assert got.caps == want.caps
    assert list(got.algebras) == list(want.algebras)
    for name, alg in want.algebras.items():
        assert got.algebras[name].same_tables(alg), name
    assert list(got.matrices) == list(want.matrices)
    for name, m in want.matrices.items():
        assert got.matrices[name].algebra.same_tables(m.algebra), name
        assert got.matrices[name].designated == m.designated, name
    assert list(got.atlases) == list(want.atlases)
    for name, a in want.atlases.items():
        assert got.atlases[name].algebra.same_tables(a.algebra), name
        assert got.atlases[name].filters == a.filters, name


def assert_agrees(path):
    want = outcome(load_spec_slow, path)
    for _ in range(2):
        got = outcome(load_spec, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert_same_workspace(got, want)
    return want


@pytest.mark.parametrize("path", _nodes(WORKSPACE), ids=lambda p: "/".join(map(str, p)) or "-")
def test_every_single_node_mutation_loads_as_before(tmp_path, path):
    for value in REPLACEMENTS:
        assert_agrees(write_workspace(tmp_path / "doc.json", replaced(WORKSPACE, path, value)))


def test_the_unmutated_workspace_loads_as_before():
    assert not isinstance(assert_agrees(str(Path(__file__).parent / "data" / "corpus_ws.json")), str)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_error_positions_count_a_line_end_as_one_character(tmp_path, newline):
    # a file read as text has its line ends translated to "\n" before the
    # JSON decoder counts lines, columns and characters
    text = json.dumps(WORKSPACE, indent=2).replace("\n", newline)
    for cut in (len(text) // 2, len(text) - 3):
        file = tmp_path / "ws.json"
        file.write_bytes(text[:cut].encode("utf-8"))
        assert assert_agrees(str(file)).startswith("/: invalid JSON: ")
