"""Differential test for `free-algebra`: the command reports from the
representatives alone, so its reports must equal the ones read off the
matrix that `free_matrix_algebra` builds.  Building that matrix also checks,
on each preset, that the clone is closed under every operation."""

import json
from unittest import mock

import pytest

from matlogic import algebra, free_matrix_algebra
from matlogic.cli import resolve_preset, run_command

PRESETS = ("B2", "B2c", "L3", "L3modal", "G3", "G4")
CASES = [(preset, n) for n in (1, 2) for preset in PRESETS]


@pytest.mark.parametrize("preset, n", CASES, ids=str)
def test_free_algebra_reports_the_built_free_matrix(preset, n):
    free, _ = free_matrix_algebra(resolve_preset(preset), n)
    size, elements = free.algebra.size, list(free.algebra.elements)
    designated = sorted(free.algebra.elements[e] for e in free.designated)
    argv = ["free-algebra", "--preset", preset, "--n", str(n)]
    assert run_command(argv) == (
        0,
        f"free matrix algebra on {n} variables: {size} elements\ndesignated: {designated}",
    )
    code, text = run_command(argv + ["--json"])
    assert (code, json.loads(text)) == (
        0,
        {
            "answer": "info",
            "command": "free-algebra",
            "stats": {"designated": designated, "elements": elements, "size": size},
            "witness": elements,
        },
    )


def test_free_tables_are_the_same_with_hashed_keys():
    # past _DENSE_KEYS possible keys, the closure and the operations look keys up by hash
    for preset, n in CASES:
        expected = free_matrix_algebra(resolve_preset(preset), n)[0].algebra
        algebra._CLONES.clear()
        with mock.patch.object(algebra, "_DENSE_KEYS", 0):
            free = free_matrix_algebra(resolve_preset(preset), n)[0].algebra
        assert free.elements == expected.elements and free.same_tables(expected), (preset, n)
