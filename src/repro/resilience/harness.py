"""Worker-containment differential sweep over Tables 1-3.

The parallel runtime's claim is *containment*: a worker that dies,
stalls, or hands back a torn result segment costs at most one shard
re-dispatch, never the answer.  :func:`worker_chaos_sweep` is that
claim as an executable: it runs every supported cell twice through the
shared-memory process runtime (clean and under a seeded
:class:`~repro.resilience.faults.WorkerFaultPlan`), diffs the runs, and
returns a serialisable result the chaos CI job uploads as an artifact.

Determinism contract: the dataset is derived from the sweep seed alone
and the faulted shard from ``(seed, cell key, shard count)``, so one
seed pins the whole sweep, faults included.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..model.sortorder import sort_tuples
from ..model.tuples import TemporalTuple
from ..streams.registry import (
    BACKENDS,
    TemporalOperator,
    supported_entries,
)
from .faults import WorkerFaultKind, WorkerFaultPlan, derived_rng


def generate_relation(
    seed: int, label: str, count: int, horizon: int = 24
) -> List[TemporalTuple]:
    """A deterministic, tie-heavy relation for differential runs.

    Endpoints are drawn from a small domain with a handful of fixed
    durations, so equal TS/TE values — the tie cases PR 1 made
    tie-safe — occur constantly rather than occasionally.
    """
    rng = derived_rng("chaos-data", seed, label)
    durations = (1, 2, 3, 5, 8)
    tuples = []
    for i in range(count):
        ts = rng.randrange(horizon)
        te = ts + rng.choice(durations)
        tuples.append(TemporalTuple(f"{label}{i}", rng.randrange(5), ts, te))
    return tuples


@dataclass(frozen=True)
class WorkerChaosCell:
    """The containment-differential verdict for one registry cell.

    A cell passes when the faulted process-mode run produced the exact
    output of the fault-free process-mode run (same merge order, so
    byte-identical), stayed in process mode (no inline fallback),
    contained the fault within one shard re-dispatch, and never forced
    a pool rebuild.
    """

    operator: str
    x_order: str
    y_order: Optional[str]
    backend: str
    results_match: bool
    mode: str
    shard_retries: int
    worker_deaths: int
    speculations: int
    pool_rebuilds: int
    output_rows: int

    @property
    def ok(self) -> bool:
        return (
            self.results_match
            and self.mode == "process"
            and self.shard_retries <= 1
            and self.pool_rebuilds == 0
        )


@dataclass
class WorkerChaosResult:
    """Every cell's verdict for one worker-fault kind."""

    seed: int
    kind: str
    cells: List[WorkerChaosCell] = field(default_factory=list)

    @property
    def all_contained(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[WorkerChaosCell]:
        return [cell for cell in self.cells if not cell.ok]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "worker_fault": self.kind,
            "cells": len(self.cells),
            "all_contained": self.all_contained,
            "total_shard_retries": sum(
                cell.shard_retries for cell in self.cells
            ),
            "total_worker_deaths": sum(
                cell.worker_deaths for cell in self.cells
            ),
            "total_speculations": sum(
                cell.speculations for cell in self.cells
            ),
            "failures": [
                {
                    "operator": cell.operator,
                    "x_order": cell.x_order,
                    "y_order": cell.y_order,
                    "backend": cell.backend,
                    "results_match": cell.results_match,
                    "mode": cell.mode,
                    "shard_retries": cell.shard_retries,
                    "pool_rebuilds": cell.pool_rebuilds,
                }
                for cell in self.failures
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        return (
            f"worker chaos seed={self.seed} fault={self.kind}: "
            f"{len(self.cells)} cells, {len(self.failures)} escapes"
        )


def worker_chaos_sweep(
    seed: int = 0,
    kind: WorkerFaultKind = WorkerFaultKind.KILL,
    backends: Sequence[str] = BACKENDS,
    relation_size: int = 48,
    shards: int = 3,
    stall_seconds: float = 0.8,
    straggler_after: Optional[float] = None,
) -> WorkerChaosResult:
    """Containment differential: worker-level faults must cost at most
    one shard re-dispatch, never the answer.

    Every supported cell x backend runs twice through the shared-memory
    process runtime: once clean, once with a seeded
    :class:`WorkerFaultPlan` that kills, stalls, or corrupts exactly
    one shard's carrier.  Both runs merge shards in cut order, so the
    faulted run must reproduce the clean output *byte-identically* —
    while staying in process mode (no inline fallback), spending at
    most one shard re-dispatch, and never poisoning the pool into a
    rebuild.
    """
    from ..parallel.executor import execute_parallel
    from ..parallel.pool import pool_stats

    if straggler_after is None and kind is WorkerFaultKind.STALL:
        # Speculation must trip well inside the stall, or the faulted
        # run just waits the stall out and the sweep measures nothing.
        straggler_after = max(stall_seconds / 4, 0.05)
    plan = WorkerFaultPlan(
        seed=seed, kind=kind, stall_seconds=stall_seconds
    )
    outcome = WorkerChaosResult(seed=seed, kind=kind.value)
    base_x = generate_relation(seed, "x", relation_size)
    base_y = generate_relation(seed, "y", relation_size)
    for operator in TemporalOperator:
        for entry in supported_entries(operator):
            xs = sort_tuples(base_x, entry.x_order)
            ys = (
                sort_tuples(base_y, entry.y_order)
                if entry.y_order is not None
                else None
            )
            for backend in entry.backends:
                if backend not in backends:
                    continue
                clean = execute_parallel(
                    entry,
                    xs,
                    ys,
                    shards=shards,
                    backend=backend,
                    mode="process",
                )
                rebuilds_before = pool_stats()["rebuilds"]
                faulted = execute_parallel(
                    entry,
                    xs,
                    ys,
                    shards=shards,
                    backend=backend,
                    mode="process",
                    worker_fault_plan=plan,
                    straggler_after=straggler_after,
                )
                if kind is WorkerFaultKind.STALL:
                    # Quiesce: the speculation *winner* resolved the
                    # batch, but the stalled loser is still holding
                    # its worker.  Without this drain, stalled
                    # workers pile up across cells, later batches
                    # queue behind them, and queued-but-healthy
                    # shards get speculated too — the cells stop
                    # measuring one fault each.
                    time.sleep(plan.stall_seconds)
                outcome.cells.append(
                    WorkerChaosCell(
                        operator=entry.operator.value,
                        x_order=str(entry.x_order),
                        y_order=(
                            str(entry.y_order)
                            if entry.y_order is not None
                            else None
                        ),
                        backend=backend,
                        results_match=(
                            list(clean.results)
                            == list(faulted.results)
                        ),
                        mode=faulted.mode,
                        shard_retries=faulted.containment.get(
                            "shard_retries", 0
                        ),
                        worker_deaths=faulted.containment.get(
                            "worker_deaths", 0
                        ),
                        speculations=faulted.containment.get(
                            "speculations", 0
                        ),
                        pool_rebuilds=(
                            pool_stats()["rebuilds"] - rebuilds_before
                        ),
                        output_rows=len(faulted.results),
                    )
                )
    return outcome


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the chaos CI job: run one seeded worker-containment
    sweep, write the report artifact, exit non-zero on any escape."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Worker-containment differential over Tables 1-3"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=48)
    parser.add_argument(
        "--worker-fault",
        choices=[kind.value for kind in WorkerFaultKind],
        default=WorkerFaultKind.KILL.value,
        help="the carrier fault to inject (default: kill)",
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="shards per cell"
    )
    parser.add_argument(
        "--out", default=None, help="write the sweep report JSON here"
    )
    options = parser.parse_args(argv)
    result = worker_chaos_sweep(
        seed=options.seed,
        kind=WorkerFaultKind(options.worker_fault),
        relation_size=options.size,
        shards=options.shards,
    )
    print(result.summary())
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"report written to {options.out}")
    return 0 if result.all_contained else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
