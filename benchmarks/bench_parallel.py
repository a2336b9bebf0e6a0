"""BENCH-PARALLEL — serial sweep vs time-domain range-partitioned execution.

Standalone (non-pytest) benchmark of :func:`repro.parallel.execute_parallel`
against the serial sweep kernels on the Figure-5 Contain-join Poisson
workload (long X lifespans containing short Y lifespans).  The parallel
run uses the shared-memory shard runtime over the persistent worker
pool (``mode="process"``, pool warmed outside the timed region),
outputs are multiset-cross-checked against serial (a divergence is a
hard failure regardless of speed), wall-clock keeps the best of
``--repeats`` with the full per-repeat variance record, and everything
lands in a JSON report.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --sizes 10000 100000 --workers 4 --out /tmp/parallel.json

A kernel-level comparison, not a source of claims: the measured speedup
is recorded per row and the script exits non-zero only when parallel
and serial outputs diverge.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import peak_rss_bytes, run_profile, timing_stats  # noqa: E402
from repro.model import TS_ASC  # noqa: E402
from repro.parallel import execute_parallel, warm_pool  # noqa: E402
from repro.streams import (  # noqa: E402
    BACKENDS,
    TemporalOperator,
    TupleStream,
    lookup,
)
from repro.workload import PoissonWorkload, fixed_duration  # noqa: E402

def make_inputs(n):
    """The Figure-5 Poisson pair: arrival rate 0.5, X lifespans of 40
    chronons containing Y lifespans of 10 (same generator and seeds as
    BENCH-BACKEND so the two reports are comparable)."""
    x = PoissonWorkload(n, 0.5, fixed_duration(40), name="X").generate(1)
    y = PoissonWorkload(n, 0.5, fixed_duration(10), name="Y").generate(2)
    return x, y


def canonical(results):
    """Order-insensitive signature of a join output."""
    return sorted(
        (a.surrogate, b.surrogate) for a, b in results
    )


def run_serial(entry, x_rel, y_rel, backend):
    x_stream = TupleStream.from_relation(x_rel, name="X")
    y_stream = TupleStream.from_relation(y_rel, name="Y")
    start = time.perf_counter()
    out = entry.build(x_stream, y_stream, backend=backend).run()
    return time.perf_counter() - start, out


def run_parallel(entry, x_rel, y_rel, backend, workers):
    start = time.perf_counter()
    outcome = execute_parallel(
        entry,
        list(x_rel.tuples),
        list(y_rel.tuples),
        shards=workers,
        workers=workers,
        backend=backend,
        mode="process",
    )
    return time.perf_counter() - start, outcome


def measure(n, x, y, backend, workers, repeats):
    entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
    x_rel = x.sorted_by(TS_ASC)
    y_rel = y.sorted_by(TS_ASC)

    serial_times, parallel_times = [], []
    serial_out = parallel_outcome = None
    for _ in range(repeats):
        elapsed, serial_out = run_serial(entry, x_rel, y_rel, backend)
        serial_times.append(elapsed)
    # Warm the persistent pool (spawn + module imports) outside the
    # timed region: queries after the first see a warm pool, and that
    # steady state is what the rows report.
    warm_pool(workers)
    run_parallel(entry, x_rel, y_rel, backend, workers)
    for _ in range(repeats):
        elapsed, parallel_outcome = run_parallel(
            entry, x_rel, y_rel, backend, workers
        )
        parallel_times.append(elapsed)

    if canonical(serial_out) != canonical(parallel_outcome.results):
        raise AssertionError(
            f"{entry.cell.label} n={n} backend={backend}: parallel output "
            f"diverges from serial ({len(parallel_outcome.results)} vs "
            f"{len(serial_out)} rows)"
        )

    serial_stats = timing_stats(serial_times)
    parallel_stats = timing_stats(parallel_times)
    return {
        "cell": entry.cell.label,
        "backend": backend,
        "n": n,
        "workers": workers,
        "mode": parallel_outcome.mode,
        "output": len(serial_out),
        "serial_seconds": round(serial_stats["best"], 6),
        "parallel_seconds": round(parallel_stats["best"], 6),
        "speedup": round(
            serial_stats["best"] / max(parallel_stats["best"], 1e-9), 2
        ),
        "serial_timing": serial_stats,
        "parallel_timing": parallel_stats,
        "partition": parallel_outcome.plan.as_dict(),
        "shard_runs": [run.as_dict() for run in parallel_outcome.shard_runs],
        "peak_rss_bytes": peak_rss_bytes(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10000, 100000],
        help="input cardinalities per relation",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="shard/worker count for the parallel runs (default 4)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per configuration (best kept, variance recorded)",
    )
    parser.add_argument(
        "--out",
        default="bench_parallel.json",
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    run_started = time.perf_counter()
    results = []
    for n in sorted(args.sizes):
        x, y = make_inputs(n)
        for backend in BACKENDS:
            row = measure(n, x, y, backend, args.workers, args.repeats)
            results.append(row)
            print(
                f"n={n:>7d} {backend:8s} "
                f"serial {row['serial_seconds']:8.4f}s  "
                f"parallel[{args.workers}] "
                f"{row['parallel_seconds']:8.4f}s  "
                f"speedup {row['speedup']:5.2f}x  "
                f"out={row['output']}  mode={row['mode']}"
            )

    report = {
        "benchmark": "parallel-partition",
        "description": (
            "serial sweep vs time-domain range-partitioned execution "
            "(process mode) on the Figure-5 Poisson contain-join "
            "workload (X duration 40, Y duration 10, arrival rate 0.5)"
        ),
        "repeats": args.repeats,
        "workers": args.workers,
        "cpu_count": os.cpu_count() or 1,
        "backends": list(BACKENDS),
        "results": results,
        "profile": run_profile(run_started),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
