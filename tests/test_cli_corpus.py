"""Frozen CLI corpus: every recorded invocation must reproduce its exit code
and report text byte for byte.

``data/cli_corpus.json`` holds ``{"argv", "exit", "text"}`` records; the
token ``@DATA@`` in an argument stands for the ``data`` directory, where the
workspace the invocations name lives.
"""

import json
from pathlib import Path

import pytest

from matlogic.cli import run_command

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "cli_corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: " ".join(c["argv"]))
def test_replays_byte_for_byte(case):
    argv = [a.replace("@DATA@", str(DATA)) for a in case["argv"]]
    assert run_command(argv) == (case["exit"], case["text"])
