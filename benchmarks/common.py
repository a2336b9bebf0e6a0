"""Helpers of the standalone timing script ``bench_parallel.py``."""

import resource
import statistics
import sys
import time


def peak_rss_bytes():
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalise so
    benchmark reports are comparable across machines."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def run_profile(started_at):
    """The per-run perf-trajectory record benchmarks attach to their
    JSON reports: wall time since ``started_at`` (a ``time.perf_counter``
    reading) and the process peak RSS."""
    return {
        "wall_seconds": round(time.perf_counter() - started_at, 6),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def timing_stats(samples):
    """Per-repeat variance record for a benchmark report: the best-of
    number the speedup rows use, plus min/median/mean/stdev/max over
    the repeats so a lucky best can be spotted."""
    values = sorted(float(s) for s in samples)
    return {
        "n": len(values),
        "best": values[0],
        "min": values[0],
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "max": values[-1],
        "samples": values,
    }
