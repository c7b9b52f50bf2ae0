"""Determinism check for the benchmark's workloads.

    python3 bench/determinism.py [--workload NAME ...]

For each workload (all of them, or only those named with ``--workload``) it
makes two traced runs of seed ``SEED`` and one of seed ``OTHER_SEED``, each in
a fresh process.  Within the seed, the generated inputs, every query's exit
code and the exact work counters (``algebra.clone_functions``,
``matrices.scan_tuples``, ``intprover.prove_calls``, ``eqlogic.ground_terms``
and the other counts) must repeat; the second seed must change the inputs.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SEED, OTHER_SEED = 1, 2


def traced_summary(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True,
    ).stdout.splitlines()
    summary = next(json.loads(line[len("# summary "):]) for line in out if line.startswith("# summary "))
    summary["correct"] = json.loads(out[-1])["correct"]
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args()
    ok = True
    for workload in args.workload or list(workloads.WORKLOADS):
        first, second = (traced_summary(workload, SEED) for _ in range(2))
        other = traced_summary(workload, OTHER_SEED)
        checks = {
            "all runs correct": first["correct"] and second["correct"] and other["correct"],
            "same inputs within the seed": first["inputs_sha256"] == second["inputs_sha256"],
            "same exit codes within the seed": first["verdicts"] == second["verdicts"],
            "same counts within the seed": first["counts"] == second["counts"],
            "other seed changes the inputs": first["inputs_sha256"] != other["inputs_sha256"],
        }
        for name, passed in checks.items():
            print(f"{workload}: {'ok  ' if passed else 'FAIL'} {name}")
            ok &= passed
        print(f"{workload}: counts {json.dumps(first['counts'], sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
