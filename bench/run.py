"""The repo's benchmark: Quel text in, rows out, four workloads, a
per-layer ledger.  See ``bench/README.md``.

One workload, as the driver calls it (the last line of standard output
is the result object)::

    python3 bench/run.py --workload fig5_contain --seed 7 \
        --seconds 20 --trace 0

A full set — every workload in a process of its own, rounds
interleaved across workloads — written to a file::

    python3 bench/run.py --seed 1990 --out untraced.json [--record]
    python3 bench/run.py --seed 1990 --traced --out traced.json
    python3 bench/run.py --compare untraced.json again.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
from workloads import (  # noqa: E402
    CONFIRM_SEED,
    DEFAULT_SEED,
    REDUCED_SCALE,
    WORKLOADS,
    content_hash,
)

HISTORY = BENCH / "history.jsonl"

#: Rounds of a full set (the driver's runs are bounded by --seconds).
UNTRACED_ROUNDS = 21
TRACED_ROUNDS = 5
SMOKE_ROUNDS = 2

END_TO_END = tuple(f"query_s.{c}" for c in measure.CONFIGS) + (
    "setup_s",
    "peak_rss_mb",
)


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith(("query_s.", "wall_s.")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if (
        name.endswith("_share")
        or name.startswith("ratio.")
        or name.endswith((".auto_regret", ".speedup", ".rows_per_input"))
    ):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def gated_rounds():
    """Rounds on the parent's command: ``ready`` once set up, then one
    round per line read (``last`` marks the final one), each answered
    with ``done``."""
    print("ready", flush=True)
    for line in sys.stdin:
        final = line.strip() == "last"
        yield final
        print("done", flush=True)
        if final:
            return


def run_workload(args) -> int:
    measure.hold_full_collections()
    tally = measure.Tally()
    (instance, hashes, reference), set_ups = measure.timed_set_ups(
        args.workload, args.seed, args.scale, tally
    )
    rounds = (
        gated_rounds()
        if args.gated
        else measure.deadline_rounds(args.seconds)
    )
    if args.trace:
        samples = layers.per_layer(instance, reference, tally, rounds)
        values = layers.derive(samples, tally)
    else:
        # The untraced run: no spans, no ``repro.obs`` tracer.
        samples = measure.run_rounds(
            rounds,
            lambda index, digest: measure.query_round(
                instance, reference, tally, index, digest
            ),
        )
        samples["setup_s"] = set_ups
        samples["peak_rss_mb"] = [measure.peak_rss_mb()]
        values = {
            name: statistics.median(samples[name]) for name in END_TO_END
        }

    failed_share = tally.failed / tally.attempted
    print(
        f"{args.workload}: seed {args.seed}, scale 1/{args.scale}, "
        f"{len(next(iter(samples.values())))} rounds, "
        f"{'traced' if args.trace else 'untraced'}"
    )
    shown = dict(values, failed_share=failed_share)
    if not args.trace:
        # What the clock read, beside the calibrated end-to-end times.
        shown.update(
            (name, statistics.median(samples[name]))
            for name in samples
            if name.startswith("wall_s.")
        )
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.6f} {unit_of(name)}")
    detail = {
        "inputs": hashes,
        "reference_rows": reference,
        "failed_share": failed_share,
        "notes": tally.notes,
        "samples": samples,
    }
    print("detail: " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# a full set: one process per workload, rounds interleaved
# ----------------------------------------------------------------------
def _await(child, token: str) -> None:
    for line in child.stdout:
        if line.strip() == token:
            return
    raise SystemExit(f"a workload process ended before {token!r}")


def run_set(args) -> int:
    scale = REDUCED_SCALE if args.smoke else 1
    rounds = (
        SMOKE_ROUNDS
        if args.smoke
        else TRACED_ROUNDS if args.traced else UNTRACED_ROUNDS
    )
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--seed", str(args.seed),
        "--trace", str(int(args.traced)),
        "--scale", str(scale),
        "--gated",
    ]
    children: dict[str, subprocess.Popen] = {}
    try:
        # One at a time, so that no set-up competes with another.
        for name in WORKLOADS:
            children[name] = subprocess.Popen(
                argv + ["--workload", name],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            _await(children[name], "ready")
        for index in range(rounds):
            command = "last\n" if index == rounds - 1 else "round\n"
            for child in children.values():
                child.stdin.write(command)
                child.stdin.flush()
                _await(child, "done")
        outputs = {}
        for name, child in children.items():
            child.stdin.close()
            outputs[name] = child.stdout.read()
            if child.wait() not in (0, 1):
                raise SystemExit(f"{name}: exited {child.returncode}")
    finally:
        for child in children.values():
            child.kill()
            child.wait()

    report = {
        "benchmark": "bench",
        "seed": args.seed,
        "scale": scale,
        "traced": args.traced,
        "rounds": rounds,
        "git": git_state(),
        "host": host_fingerprint(),
        "workloads": {},
    }
    failed = 0
    for name, output in outputs.items():
        lines = output.splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n")
        detail = json.loads(lines[-2].removeprefix("detail: "))
        result = json.loads(lines[-1])
        failed += result["failed"]
        samples = detail.pop("samples")
        for metric, entry in result["metrics"].items():
            if metric in samples:
                entry.update(measure.summary(samples.pop(metric)))
        detail["other_samples"] = samples
        report["workloads"][name] = {**result, **detail}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.record:
        record(report)
    return 0 if failed == 0 else 1


def git_state() -> dict:
    def git(*argv: str) -> str:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *argv],
            capture_output=True,
            text=True,
        )
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
    }


def host_fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def record(report: dict) -> None:
    """One line per run: the trajectory survives regenerated reports."""
    line = {
        key: report[key]
        for key in ("git", "seed", "host", "scale", "traced", "rounds")
    }
    line["workloads"] = {
        name: {
            "failed_share": result["failed_share"],
            "metrics": {
                metric: entry["value"]
                for metric, entry in result["metrics"].items()
            },
        }
        for name, result in report["workloads"].items()
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps(line) + "\n")
    print(f"appended to {HISTORY}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(first: dict, second: dict, better: str, bound: float) -> str:
    """``second`` against ``first`` for one metric: a change is a
    difference of medians beyond the bound.  A spread (distance
    between the quartiles over the median) wider than the bound leaves
    the pairing unresolved, unless every sample of one side beats
    every sample of the other."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (second["value"] - first["value"]) / first["value"]
    a = [sign * s for s in first.get("samples", [first["value"]])]
    b = [sign * s for s in second.get("samples", [second["value"]])]
    spread = max(
        (side["q3"] - side["q1"]) / side["value"]
        for side in (first, second)
    )
    if spread > bound and not (max(b) < min(a) or min(b) > max(a)):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > bound:
        return "improved"
    return "unchanged"


def compare(first_path: str, second_path: str) -> int:
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for name in first["workloads"]:
        a, b = (side["workloads"][name] for side in (first, second))
        print(name)
        for metric in declared["end_to_end"]:
            one, two = (
                side["metrics"][metric["name"]] for side in (a, b)
            )
            outcome = verdict(one, two, metric["better"], metric["bound"])
            bad += outcome in ("regressed", "unresolved")
            print(
                f"  {metric['name']:18s} {metric['unit']:4s}"
                + "".join(
                    f"  {s['value']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
                    f" n={s['n']}"
                    for s in (one, two)
                )
                + f"  {outcome}"
            )
        outcome = (
            "regressed" if b["failed_share"] > a["failed_share"]
            else "unchanged"
        )
        bad += outcome == "regressed"
        print(
            f"  {'failed_share':18s} ratio  {a['failed_share']:.4f}"
            f"  {b['failed_share']:.4f}  {outcome}"
        )
    return 1 if bad else 0


def print_pins() -> int:
    """The content pins of the documented seeds, for
    ``inputs.sha256.json``."""
    pins = {
        str(seed): {
            name: {
                relation: content_hash(tuples)
                for relation, tuples in sorted(
                    build(seed).catalog.items()
                )
            }
            for name, build in WORKLOADS.items()
        }
        for seed in (DEFAULT_SEED, CONFIRM_SEED)
    }
    print(json.dumps(pins, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="how long one workload measures (with --workload)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 1 = the per-layer run",
    )
    parser.add_argument(
        "--scale", type=int, default=1,
        help="divide every workload's cardinality by this",
    )
    parser.add_argument(
        "--gated", action="store_true",
        help="with --workload: run rounds on stdin's command",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="full set: the separate per-layer run",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="full set at 1/16 scale, 2 rounds",
    )
    parser.add_argument("--out", help="full set: write the JSON here")
    parser.add_argument(
        "--record", action="store_true",
        help="full set: append one line to bench/history.jsonl",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument(
        "--pins", action="store_true",
        help="print the content pins of the documented seeds",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.pins:
        return print_pins()
    if args.workload:
        return run_workload(args)
    return run_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
