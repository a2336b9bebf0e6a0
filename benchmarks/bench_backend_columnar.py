"""BENCH-BACKEND — tuple-at-a-time vs the batch sweep, under both of its
labels (``columnar`` and ``fused``).

Standalone (non-pytest) benchmark comparing the three backend labels
on every cell of Tables 1-3 (``repro.columnar.CELLS``), over the
paper's Figure-5/6 Poisson inputs (long X lifespans, short Y
lifespans; a varied-duration Z for the self semijoins).  All backends
run the same registry cell on the same pre-sorted relations; outputs
are cross-checked, and every
row carries per-repeat ``timing_stats`` (all samples, best, mean,
stdev) gathered after one untimed warm-up run per backend.

For the join cells both batch labels produce their ``(xi, yj)``
index columns inside the timed kernel; only the payload pairs stay lazy
(:class:`~repro.columnar.fused.LazyPairs`), and building them is
measured separately as ``<backend>_expand_seconds`` — consumers that
never touch the pairs never pay it.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_columnar.py \
        --sizes 1000 10000 100000 --out /tmp/backend_columnar.json

A kernel-level comparison, not a source of claims: it exits non-zero
only when the backends disagree on a cell's output, or when
``columnar`` and ``fused`` — one path under two names — disagree on a
cell's comparisons, eviction checks or high-water mark.  What a query
pays end to end is measured by ``bench/run.py``.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import peak_rss_bytes, run_profile  # noqa: E402
from repro.columnar import CELLS  # noqa: E402
from repro.columnar.fused import LazyPairs  # noqa: E402
from repro.streams import (  # noqa: E402
    BACKENDS,
    TemporalOperator,
    TupleStream,
    lookup,
)
from repro.workload import (  # noqa: E402
    PoissonWorkload,
    fixed_duration,
    uniform_duration,
)


def make_inputs(n):
    """The Figure-5/6 Poisson pair — arrival rate 0.5, X lifespans of 40
    chronons containing Y lifespans of 10 — plus a varied-duration Z for
    the self semijoin (fixed durations can never nest)."""
    x = PoissonWorkload(n, 0.5, fixed_duration(40), name="X").generate(1)
    y = PoissonWorkload(n, 0.5, fixed_duration(10), name="Y").generate(2)
    z = PoissonWorkload(
        n, 0.7, uniform_duration(5, 45), name="Z"
    ).generate(3)
    return x, y, z


def operands(cell, x, y, z):
    """A cell's (X, Y) inputs: Z alone for a self semijoin, the short Y
    lifespans as the contained side of a Contained-semijoin, else X
    and Y."""
    if cell.y_order is None:
        return z, None
    if cell.operator is TemporalOperator.CONTAINED_SEMIJOIN:
        return y, x
    return x, y


def run_once(entry, x_rel, y_rel, backend):
    """One timed build+run on pre-sorted relations."""
    x_stream = TupleStream.from_relation(x_rel, name="X")
    y_stream = (
        TupleStream.from_relation(y_rel, name="Y")
        if y_rel is not None
        else None
    )
    start = time.perf_counter()
    if y_stream is None:
        processor = entry.build(x_stream, backend=backend)
    else:
        processor = entry.build(x_stream, y_stream, backend=backend)
    out = processor.run()
    elapsed = time.perf_counter() - start
    return elapsed, out, processor.metrics


def timing_stats(samples):
    """Per-repeat variance record attached to every row."""
    return {
        "samples": [round(s, 6) for s in samples],
        "best": round(min(samples), 6),
        "mean": round(statistics.fmean(samples), 6),
        "stdev": round(
            statistics.stdev(samples) if len(samples) > 1 else 0.0, 6
        ),
    }


def measure_cell(cell, x, y, repeats):
    entry = lookup(cell.operator, cell.x_order, cell.y_order)
    label = cell.label
    x_rel = x.sorted_by(cell.x_order)
    y_rel = y.sorted_by(cell.y_order) if y is not None else None
    row = {"operator": cell.operator.value, "cell": label, "n": len(x)}
    row["timing_stats"] = {}
    counts = {}
    for backend in BACKENDS:
        run_once(entry, x_rel, y_rel, backend)  # warm-up, untimed
        samples = []
        for _ in range(repeats):
            elapsed, out, metrics = run_once(entry, x_rel, y_rel, backend)
            samples.append(elapsed)
        counts[backend] = len(out)
        stats = timing_stats(samples)
        row["timing_stats"][backend] = stats
        row[f"{backend}_seconds"] = stats["best"]
        row[f"{backend}_high_water"] = metrics.workspace_high_water
        row[f"{backend}_comparisons"] = metrics.comparisons
        row[f"{backend}_eviction_checks"] = metrics.eviction_checks
        if isinstance(out, LazyPairs):
            # Price the deferred payload expansion separately: the
            # sweep's consumers see len()/metrics for free and only a
            # touch of the pairs pays this.
            expand_start = time.perf_counter()
            pairs = out._materialise()
            row[f"{backend}_expand_seconds"] = round(
                time.perf_counter() - expand_start, 6
            )
            assert len(pairs) == len(out)
    if len(set(counts.values())) != 1:
        raise AssertionError(
            f"{label} n={len(x)}: backends disagree on output size "
            f"({counts})"
        )
    for count in ("comparisons", "eviction_checks", "high_water"):
        if row[f"columnar_{count}"] != row[f"fused_{count}"]:
            raise AssertionError(
                f"{label} n={len(x)}: columnar and fused disagree on "
                f"{count} ({row[f'columnar_{count}']} vs "
                f"{row[f'fused_{count}']})"
            )
    row["output"] = counts["tuple"]
    row["speedup"] = round(
        row["tuple_seconds"] / max(row["columnar_seconds"], 1e-9), 2
    )
    row["fused_speedup"] = round(
        row["tuple_seconds"] / max(row["fused_seconds"], 1e-9), 2
    )
    row["fused_vs_columnar"] = round(
        row["columnar_seconds"] / max(row["fused_seconds"], 1e-9), 2
    )
    row["peak_rss_bytes"] = peak_rss_bytes()
    return row


def first_cell_rows(x, y):
    """The first cell's operator row (``ProcessorMetrics.to_dict()``)
    per backend, attached to the JSON report so perf numbers come with
    their passes/comparisons/state-high-water and backend/kernel
    provenance."""
    cell = next(iter(CELLS.values()))
    entry = lookup(cell.operator, cell.x_order, cell.y_order)
    x_rel = x.sorted_by(cell.x_order)
    y_rel = y.sorted_by(cell.y_order)
    return {
        backend: run_once(entry, x_rel, y_rel, backend)[2].to_dict()
        for backend in BACKENDS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1000, 10000, 100000],
        help="input cardinalities per relation",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per cell after one untimed warm-up "
        "(best kept as the row's number; all samples reported)",
    )
    parser.add_argument(
        "--out",
        default="bench_backend_columnar.json",
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    run_started = time.perf_counter()
    results = []
    for n in sorted(args.sizes):
        x, y, z = make_inputs(n)
        for cell in CELLS.values():
            row = measure_cell(cell, *operands(cell, x, y, z), args.repeats)
            results.append(row)
            print(
                f"n={n:>7d} {row['cell']:34s} "
                f"tuple {row['tuple_seconds']:8.4f}s  "
                f"columnar {row['columnar_seconds']:8.4f}s  "
                f"fused {row['fused_seconds']:8.4f}s  "
                f"{row['fused_speedup']:5.2f}x/"
                f"{row['fused_vs_columnar']:4.2f}x  "
                f"out={row['output']}"
            )

    row_n = min(args.sizes)
    row_x, row_y, _ = make_inputs(row_n)

    report = {
        "benchmark": "backend-columnar",
        "description": (
            "tuple-at-a-time vs the batch sweep (labels columnar and "
            "fused) on every Tables 1-3 cell over the "
            "Figure-5/6 Poisson workloads (X duration 40, Y duration "
            "10, arrival rate 0.5)"
        ),
        "repeats": args.repeats,
        "warmup": 1,
        "backends": list(BACKENDS),
        "results": results,
        "operator_rows": {
            "cell": results[0]["cell"],
            "n": row_n,
            "operators": first_cell_rows(row_x, row_y),
        },
        "profile": run_profile(run_started),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
