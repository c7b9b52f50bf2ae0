"""Frozen CLI corpus: every recorded invocation must reproduce its exit code
and report text byte for byte.

``data/cli_corpus.json`` holds ``{"argv", "exit", "text"}`` records; the
token ``@DATA@`` in an argument stands for the ``data`` directory, where the
workspace the invocations name lives.  The corpus is also replayed in
two fresh interpreters under different hash seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matlogic
from matlogic.cli import run_command

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "cli_corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: " ".join(c["argv"]))
def test_replays_byte_for_byte(case):
    argv = [a.replace("@DATA@", str(DATA)) for a in case["argv"]]
    assert run_command(argv) == (case["exit"], case["text"])


def test_replays_forward_then_reversed_in_one_process():
    # each query sweeps the formulas it let go of, and their addresses are
    # reused by later queries, so no report may depend on the order of a set
    # or dict keyed by formulas
    want = [(case["exit"], case["text"]) for case in CORPUS]
    argvs = [[a.replace("@DATA@", str(DATA)) for a in case["argv"]] for case in CORPUS]
    assert [run_command(argv) for argv in argvs] == want
    assert [run_command(argv) for argv in reversed(argvs)] == want[::-1]


# replays the corpus in a fresh interpreter and prints [exit, text] pairs
_REPLAY = """
import json, sys
from pathlib import Path
from matlogic.cli import run_command
data = Path(sys.argv[1])
corpus = json.loads((data / "cli_corpus.json").read_text(encoding="utf-8"))
argvs = ([a.replace("@DATA@", str(data)) for a in c["argv"]] for c in corpus)
sys.stdout.write(json.dumps([run_command(argv) for argv in argvs]))
"""


def test_replays_under_two_hash_seeds():
    # formulas hash by address and strings by a per-process seed, so no
    # report may depend on the iteration order of a set or dict of them
    src = str(Path(matlogic.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", _REPLAY, str(DATA)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        )
    want = [[case["exit"], case["text"]] for case in CORPUS]
    for run in runs:
        out, err = run.communicate()
        assert run.returncode == 0, err.decode("utf-8", "replace")
        assert json.loads(out) == want
