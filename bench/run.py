"""Benchmark of halfspace-lab: wall time and the query ledger, end to end.

    python3 bench/run.py --workload learn-refine --seed 0 --seconds 15 --trace 0

Runs one workload (see workloads.py) in this process for about
``--seconds`` seconds of whole rounds, checks every output, and prints a
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, queries,
peak_rss_mb).  ``--trace 1`` first runs untraced rounds for half the time,
then traced rounds for the rest, and reports the per-layer metrics of
tracing.py; it writes the spans of its last traced round to
``.bench_runs/``.  ``--smoke`` shrinks every workload so that all of them
and all their checks run in seconds.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
RUNS_DIR = ".bench_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter on this workload until it
    has imported everything and built its inputs."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--smoke"] if args.smoke else [])
    t = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t


def run_rounds(workload, seconds: float, after_round=None) -> tuple[list[float], list]:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outcomes.append(workload.round())
        times.append(time.perf_counter() - t)
        if after_round is not None:
            after_round()
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "halfspace_lab").is_dir():
        print(f"bench: no halfspace_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_only:
        os._exit(0)
    setup_s = statistics.median(setup_probe(args) for _ in range(SETUP_REPEATS))

    seconds = args.seconds / 2 if args.trace else args.seconds
    times, outcomes = run_rounds(workload, seconds)
    wall_s = statistics.median(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "queries": (outcomes[0].queries, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.trace:
        from tracing import LAYER_METRICS, Tracer, layer_metrics

        tracer = Tracer()
        ends = [0]  # span index where each traced round ends
        with tracer.installed():
            traced_times, traced = run_rounds(workload, seconds, lambda: ends.append(len(tracer.spans)))
        outcomes += traced
        per_round = [layer_metrics(tracer.spans[:end], first) for first, end in zip(ends, ends[1:])]
        os.makedirs(RUNS_DIR, exist_ok=True)
        tracer.write_spans(Path(RUNS_DIR) / f"spans-{args.workload}-seed{args.seed}.jsonl", ends[-2])
        layer = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        layer["trace.wall_s"] = statistics.median(traced_times)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall_s
        metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS.items()}

    problems = [p for o in outcomes for p in o.problems]
    # every round repeats the same operations, so their query counts agree;
    # a traced round sees each charged query at the ledger or the pool
    consistent = all(o.per_op == outcomes[0].per_op for o in outcomes)
    if not consistent:
        problems.append(f"rounds charged different queries: {[o.per_op for o in outcomes]}")
    if args.trace:
        seen = [r["oracles.query_batch.rows"] + r["lowerbound.game.reveals"] for r in per_round]
        if any(n != outcomes[0].queries for n in seen):
            consistent = False
            problems.append(f"traced rounds saw {seen} queries, not {outcomes[0].queries}")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(f"bench: {len(outcomes)} rounds, queries per operation {outcomes[0].per_op}", file=sys.stderr)
    result = {
        "correct": consistent,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(Path(RUNS_DIR) / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
