"""Set-up, correctness checks and the untraced end-to-end rounds.

A *query* is the whole path on Quel text: ``parse_query`` ->
``translate`` -> ``algebra.optimize`` -> (``semantically_optimize``) ->
``execute_hybrid`` with an explicit planner -> ``len(rows)`` on a
materialised row list, so the fused backend pays for ``LazyPairs`` and
every backend pays for the row bridge.  Closed loop, one client.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.algebra import optimize
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import parse_query, run_query, translate
from repro.semantic import semantically_optimize

from workloads import REDUCED_SCALE, WORKLOADS, Instance, content_hash

#: One planner configuration per end-to-end ``query_s.*`` metric.
CONFIGS = ("tuple", "columnar", "fused", "auto")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

PINS_PATH = Path(__file__).resolve().parent / "inputs.sha256.json"


@dataclass
class Tally:
    """Operations attempted and failed — the ``failed_share`` ledger.
    An operation is one query; it fails when it raises or when its rows
    differ from the reference."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)
        print(f"FAILED: {note}", file=sys.stderr)


def hold_full_collections() -> None:
    """Keep full (oldest-generation) collections out of the timed
    regions: ``gc.collect()`` runs before every query instead.

    A full collection costs in proportion to the whole heap and fires
    when promotions cross a quarter of it, so whether one or two land
    inside a query flips with a few hundred objects either way — a
    10-20% step in a 0.2 s query that follows the seed, not the code.
    The young generations still collect inside the query: that cost is
    proportional to what the query itself allocates."""
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)


#: Wall time of ``_reference_loop`` on the 2-core sizing box in a quiet
#: spell: what makes a calibrated second a wall second there.
REFERENCE_LOOP_S = 0.0113


def _reference_loop() -> int:
    """Fixed work of the engine's kind — tuple allocation, integer
    compares, dict stores — in batches small enough not to show in
    ``peak_rss_mb``."""
    matched = 0
    seen = {}
    for _ in range(40):
        rows = [(i, i * 7 % 1013, i + 40) for i in range(2_000)]
        for start, key, end in rows:
            if start < end and key > 5:
                matched += 1
            seen[key] = start
    return matched + len(seen)


def slowdown() -> float:
    """How much slower than its reference speed the box runs right
    now: the reference loop's wall time over ``REFERENCE_LOOP_S``.

    The end-to-end times are divided by the slowdown measured just
    before them.  The shared box this benchmark was sized on changes
    speed by 25-35% for seconds to minutes at a time (no steal time
    shows; a query that runs no stream code swings with the rest), and
    ten-run spreads of raw wall medians then exceed any bound the
    contract allows.  In such a spell 5-second block medians of raw
    query time ranged over 22-28%, of calibrated time over 7%."""
    gc.collect()
    started = time.perf_counter()
    _reference_loop()
    return (time.perf_counter() - started) / REFERENCE_LOOP_S


def _no_span(name: str):
    return nullcontext()


def run_pipeline(instance: Instance, planner, span: Callable = _no_span):
    """The query path, stage by stage.  ``span`` wraps each call into a
    layer; the untraced run passes nothing and times only the whole."""
    catalog = instance.catalog
    with span("query.parse_s"):
        ast = parse_query(instance.text)
    with span("query.translate_s"):
        plan = translate(ast, catalog)
    with span("algebra.rewrite_s"):
        plan = optimize(plan)
    report = None
    if instance.semantic:
        with span("semantic.optimize_s"):
            plan, report = semantically_optimize(plan, catalog)
    with span("optimizer.execute_s"):
        execution = execute_hybrid(plan, catalog, planner=planner)
    return plan, report, execution


def timed_query(
    instance: Instance,
    planner,
    tally: Tally,
    label: str,
    expect_rows: Optional[int] = None,
):
    """One closed-loop query: collect garbage outside the timed region,
    time text-in to ``len(rows)``-out, count it, check its row count.
    Returns ``(seconds, execution)``, or ``None`` when it raised."""
    tally.attempted += 1
    gc.collect()
    started = time.perf_counter()
    try:
        _, _, execution = run_pipeline(instance, planner)
        produced = len(execution.rows)
    except Exception:
        # The benchmark must report the failure, not die of it.
        tally.fail(f"{label} raised:\n{traceback.format_exc()}")
        return None
    seconds = time.perf_counter() - started
    if expect_rows is not None and produced != expect_rows:
        tally.fail(f"{label}: {produced} rows, reference {expect_rows}")
    return seconds, execution


def row_digest(rows: list) -> str:
    """Order-insensitive digest of a result (rows sort: they are flat
    tuples of ints and strings)."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def check_pins(workload: str, seed: int, hashes: dict) -> None:
    """Inputs are pinned by content for the documented seeds: a
    generator drift fails here instead of quietly moving a number."""
    pinned = json.loads(PINS_PATH.read_text()).get(str(seed))
    if pinned is not None and pinned[workload] != hashes:
        raise SystemExit(
            f"{workload}: generated inputs for seed {seed} no longer "
            f"match {PINS_PATH.name}: {hashes} != {pinned[workload]}"
        )


def oracle_check(instance: Instance, tally: Tally) -> None:
    """Reduced scale: every config's row multiset against the
    conventional nested-loop path and against ``run_query``'s own
    stream path."""
    oracle = Counter(
        run_query(
            instance.text,
            instance.catalog,
            semantic=instance.semantic,
            streams=False,
        ).rows
    )
    tally.attempted += 1
    streamed = run_query(
        instance.text,
        instance.catalog,
        semantic=instance.semantic,
        streams=True,
    ).rows
    if Counter(streamed) != oracle:
        tally.fail(f"{instance.workload}: run_query(streams=True) != oracle")
    for config in CONFIGS:
        outcome = timed_query(
            instance,
            TemporalJoinPlanner(backend=config),
            tally,
            f"{instance.workload}/{config} (reduced scale)",
        )
        if outcome and Counter(outcome[1].rows) != oracle:
            tally.fail(f"{instance.workload}/{config}: rows != oracle")


def set_up(workload: str, seed: int, scale: int, tally: Tally):
    """Generate, verify the content pin, check against the oracle at
    reduced scale, and run one untimed warm-up query per config.
    Returns the instance, its input hashes and the reference row
    count every timed query must reproduce."""
    build = WORKLOADS[workload]
    instance = build(seed, scale)
    hashes = {
        name: content_hash(relation)
        for name, relation in sorted(instance.catalog.items())
    }
    if scale == 1:
        check_pins(workload, seed, hashes)
    oracle_check(build(seed, scale * REDUCED_SCALE), tally)
    reference = None
    for config in CONFIGS:
        outcome = timed_query(
            instance,
            TemporalJoinPlanner(backend=config),
            tally,
            f"{workload}/{config} (warm-up)",
            expect_rows=reference,
        )
        if outcome and reference is None:
            reference = len(outcome[1].rows)
    return instance, hashes, reference


def timed_set_ups(workload: str, seed: int, scale: int, tally: Tally):
    """``SETUPS`` full set-ups, in calibrated seconds; the last one's
    instance is measured."""
    samples = []
    before = slowdown()
    for _ in range(SETUPS):
        started = time.perf_counter()
        prepared = set_up(workload, seed, scale, tally)
        wall = time.perf_counter() - started
        # A set-up is long enough for the box to change speed under
        # it: calibrate on both sides.
        after = slowdown()
        samples.append(wall / ((before + after) / 2.0))
        before = after
    return prepared, samples


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def deadline_rounds(seconds: float) -> Iterator[bool]:
    """Yield one flag per round — is this the final one? — until
    ``seconds`` have been measured.  The final round is the one that,
    taking as long as the round before it, ends past the deadline."""
    started = time.perf_counter()
    previous = 0.0
    while True:
        now = time.perf_counter()
        final = now - started + previous >= seconds
        yield final
        if final:
            return
        previous = time.perf_counter() - now


def rotated(index: int) -> tuple[str, ...]:
    """Config order of round ``index``: rotating it lands a noisy
    period on every config alike."""
    shift = index % len(CONFIGS)
    return CONFIGS[shift:] + CONFIGS[:shift]


def query_round(
    instance: Instance,
    reference: int,
    tally: Tally,
    index: int,
    digest: bool,
) -> dict[str, float]:
    """One query per config: ``query_s.<config>`` in calibrated seconds
    and ``wall_s.<config>`` as the clock read, for each that ran.  With
    ``digest`` the sorted rows must also agree across configs."""
    seconds: dict[str, float] = {}
    digests = {}
    for config in rotated(index):
        factor = slowdown()
        outcome = timed_query(
            instance,
            TemporalJoinPlanner(backend=config),
            tally,
            f"{instance.workload}/{config} round {index}",
            expect_rows=reference,
        )
        if outcome is None:
            continue
        seconds[f"query_s.{config}"] = outcome[0] / factor
        seconds[f"wall_s.{config}"] = outcome[0]
        if digest:
            digests[config] = row_digest(outcome[1].rows)
    if len(set(digests.values())) > 1:
        tally.fail(
            f"{instance.workload} round {index}: sorted-row digests "
            f"differ across configs: {digests}"
        )
    return seconds


def run_rounds(
    rounds: Iterable[bool], one_round: Callable[[int, bool], dict]
) -> dict[str, list]:
    """Call ``one_round(index, digest)`` per round and gather what it
    returns by name.  Digests are checked in the first and the final
    round."""
    samples: dict[str, list] = {}
    for index, final in enumerate(rounds):
        values = one_round(index, index == 0 or final)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB on
    Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def summary(samples: list[float]) -> dict:
    """Median, quartiles, n and every sample."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }
