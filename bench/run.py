"""matlogic benchmark: seeded CLI workloads driven in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload clone-decide --seed 1 --seconds 20 --trace 0

It imports ``matlogic`` from ``src/`` of the current directory and calls
``matlogic.cli.run_command`` in a closed loop: one client, one process, no
threads, the next query sent when the previous one has returned.  The
workload's batches come from ``workloads.build(workload, seed, rep)``.  A run
measures ``round(--seconds / workloads.BATCH_SECONDS[workload])`` batches, at
least one: a fixed amount of work for given arguments, whatever the host's
speed, so the program's memory, which grows with the formulas it has interned,
peaks at the same point on every run of a seed.  The set-up samples (fresh
interpreters) are spread over the run, between queries.  Every query's exit
code and witness is checked after its batch, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each query
of batch 0 twice, untraced and under ``trace.Tracer``, and reports the
per-layer metrics.  The last line of standard output is the JSON result; the lines
before it repeat the metrics for people.  A run exits 0 once it has
measured, correct or not; it exits 2 without a result when the checkout has
no ``src/matlogic``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from trace import Tracer  # noqa: E402

SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
WORK_DIR = Path(".bench_work")

# A fresh interpreter that imports matlogic, answers one query and prints
# its exit code.  The parent times it from spawn to that line.
SETUP_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from matlogic.cli import run_command\n"
    "code, _ = run_command(json.loads(sys.argv[2]))\n"
    "print(code, flush=True)\n"
)

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _per_layer_units(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_program(src: Path):
    if not (src / "matlogic" / "__init__.py").is_file():
        sys.stderr.write(f"error: no matlogic package under {src}; run from a checkout root\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import matlogic.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "matlogic").resolve():
        sys.stderr.write(f"error: imported matlogic from {cli.__file__}, not {src}\n")
        sys.exit(2)
    return cli


def verify(query, code, text, error):
    """Failure reason for one answered query, or None."""
    if error is not None:
        return error
    if code != query.expect:
        return f"exit {code}, expected {query.expect}: {text[:200]}"
    if query.check is not None and code in (0, 1):
        try:
            return query.check(json.loads(text))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"report does not re-check: {exc!r}"
    return None


def ask(cli, query):
    """One timed query: (seconds, exit code, report text, error)."""
    start = time.perf_counter()
    try:
        code, text = cli.run_command(query.argv + ["--json"])
        error = None
    except Exception as exc:  # a query raising out of run_command is a failure, not a crash
        code, text, error = None, "", f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    # The scan buffers of matrices._tables_over hang off a reference cycle (a
    # recursive closure) until the cyclic collector runs, at a point in some
    # later query that depends on the seed; two queries' buffers then count
    # toward peak_rss_mib together (618 to 837 MiB by seed on valuation-scan).
    # A process per query, as the CLI runs, frees them at exit.  Collecting
    # the young generations here stands in for that; it is outside the
    # query's time and so outside the measured time.
    gc.collect(1)
    return seconds, code, text, error


def failure(query, code, text, error):
    reason = verify(query, code, text, error)
    return None if reason is None else f"{' '.join(query.argv)[:160]}: {reason}"


def spawn_setup(src: Path, query):
    """Time from spawning a fresh interpreter to its first answer, and a
    failure reason if the answer was wrong."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(src), json.dumps(query.argv)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wrong = None
    if line.strip() != str(query.expect):
        wrong = f"set-up query {' '.join(query.argv)}: answered {line.strip()!r}, expected {query.expect}"
    return elapsed, wrong


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(cli, args, src: Path, workdir: Path):
    n_batches = max(1, round(args.seconds / workloads.BATCH_SECONDS[args.workload]))
    batches = [workloads.build(args.workload, args.seed, rep) for rep in range(n_batches)]
    for batch in batches:
        batch.write(workdir)
    setup_query = batches[0].queries[0]
    cli.run_command(setup_query.argv)  # warm-up: imports that happen on first use

    # setup_s is the median of SETUP_RUNS spawns spread evenly over the run's
    # queries: the host's speed changes every few seconds, and samples spread
    # over the run see the same mix of speeds as the queries do.  The spawns
    # are not part of the measured time.
    n_queries = sum(len(b.queries) for b in batches)
    setup_before = {k * n_queries // SETUP_RUNS for k in range(SETUP_RUNS)}
    setup_times, latencies, failures = [], [], []
    for batch in batches:
        answers = []
        for q in batch.queries:
            if len(latencies) + len(answers) in setup_before:
                elapsed, wrong = spawn_setup(src, setup_query)
                setup_times.append(elapsed)
                failures += [wrong] if wrong else []
            answers.append(ask(cli, q))
        failures += [f for f in (failure(q, *a[1:]) for q, a in zip(batch.queries, answers)) if f]
        latencies += [a[0] for a in answers]
    measured = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": len(latencies) / measured,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {args.workload} seed {args.seed}: {len(latencies)} queries in {n_batches} batches, "
          f"{measured:.3f} s measured, {len(setup_times)} set-up spawns; "
          f"failed_ratio {len(failures) / len(latencies)}")
    return metrics, E2E_UNITS, len(latencies), failures


def traced(cli, args, workdir: Path, trace_path: Path):
    batch = workloads.build(args.workload, args.seed, 0)
    batch.write(workdir)
    cli.run_command(batch.queries[0].argv)  # warm-up, as in the untraced run
    tracer = Tracer()
    failures, verdicts, ratios = [], [], []
    for i, q in enumerate(batch.queries):
        codes, seconds_by = {}, {}
        tracer.qid = i
        # Each query runs untraced and traced back to back, in alternating
        # order.  trace.overhead_pct is the median over queries of traced ÷
        # untraced time: a batch total would be dominated by whichever run
        # of one heavy query came first (the 10-variable G4 scan takes 25%
        # longer the first time).
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                seconds, code, text, error = ask(cli, q)
            finally:
                tracer.uninstall()
            seconds_by[on] = seconds
            codes[on] = code
            failures.append(failure(q, code, text, error))
        verdicts.append(codes[True])
        ratios.append(seconds_by[True] / seconds_by[False])
        if codes[True] != codes[False]:
            failures.append(f"{' '.join(q.argv)[:160]}: tracing changed the exit code")
    failures = [f for f in failures if f]
    failures += [f"trace: {p}" for p in tracer.check(len(batch.queries))]
    tracer.write(trace_path)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    busy = tracer.layer_self_times()
    total = sum(busy.values())
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(batch.fingerprint().encode()).hexdigest(),
        "verdicts": verdicts,
        "counts": {k: v for k, v in metrics.items() if _per_layer_units(k) in ("count", "ratio")},
        "layer_self_share": {k: round(v / total, 4) for k, v in sorted(busy.items(), key=lambda kv: -kv[1])},
    }
    print("# summary " + json.dumps(summary, sort_keys=True))
    units = {k: _per_layer_units(k) for k in metrics}
    return metrics, units, 2 * len(batch.queries), failures


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = Path("src").resolve()
    cli = load_program(src)
    workdir = (WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}").resolve()
    trace_path = (WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl").resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # workspace paths in the generated argv are relative to the work dir
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        if args.trace:
            metrics, units, attempted, failures = traced(cli, args, workdir, trace_path)
        else:
            metrics, units, attempted, failures = end_to_end(cli, args, src, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
