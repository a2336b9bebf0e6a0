"""External merge sort over heap files.

Establishing a sort order is the price of admission for the paper's
stream algorithms; the optimizer must weigh that price against the
nested-loop alternative.  This implementation does classic run
generation followed by k-way merging, charging all page traffic so the
optimizer's cost model can reason about "sort then stream" plans.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Optional

from ..errors import StorageError
from ..model.sortorder import SortOrder, sort_tuples
from ..model.tuples import TemporalTuple
from ..obs.trace import get_tracer
from .heap_file import HeapFile
from .iostats import IOStats


class ExternalSortResult:
    """The sorted output file plus the sort's cost summary."""

    def __init__(
        self,
        output: HeapFile,
        runs_generated: int,
        merge_passes: int,
        stats: IOStats,
        skipped_presorted: bool = False,
    ) -> None:
        self.output = output
        self.runs_generated = runs_generated
        self.merge_passes = merge_passes
        self.stats = stats
        #: True when the sortedness pre-check found the input already
        #: ordered and the sort was skipped entirely (the one
        #: verification scan is the only I/O charged).
        self.skipped_presorted = skipped_presorted

    @property
    def total_passes(self) -> int:
        """Read passes over the data: one for run generation (or the
        sortedness verification scan) plus one per merge pass."""
        return 1 + self.merge_passes


def external_sort(
    source: HeapFile,
    order: SortOrder,
    memory_pages: int = 8,
    fan_in: Optional[int] = None,
    stats: Optional[IOStats] = None,
    presort_check: bool = True,
) -> ExternalSortResult:
    """Sort ``source`` by ``order`` using bounded memory.

    Parameters
    ----------
    source:
        The heap file of :class:`TemporalTuple` records to sort.
    order:
        Target sort order.
    memory_pages:
        Workspace size in pages for run generation; each initial run
        holds at most ``memory_pages * page_capacity`` tuples.
    fan_in:
        Maximum runs merged at once; defaults to ``memory_pages - 1``
        (one page reserved for output), the textbook setting.
    stats:
        Accounting sink; defaults to a fresh :class:`IOStats`.
    presort_check:
        Verify sortedness with one early-exit scan first; an already
        ordered input is returned as-is with zero runs written (the
        common case for the resilience DEGRADE re-sort and for the
        parallel partitioner's per-shard sorts, whose inputs are order-
        preserving subsequences of sorted relations).  The check aborts
        at the first out-of-order pair, so an unsorted input pays only
        a prefix re-read.
    """
    if memory_pages < 2:
        raise StorageError("external sort needs at least two memory pages")
    accounting = stats if stats is not None else IOStats()
    merge_width = fan_in if fan_in is not None else max(2, memory_pages - 1)
    if merge_width < 2:
        raise StorageError("merge fan-in must be at least two")

    if presort_check:
        skipped = _presorted_result(source, order, accounting)
        if skipped is not None:
            return skipped

    run_capacity = memory_pages * source.page_capacity
    run_counter = count()

    tracer = get_tracer()
    with tracer.span(
        "sort:external", source=source.name, order=str(order)
    ) as span:
        # --------------------------------------------------------------
        # pass 0: run generation
        # --------------------------------------------------------------
        runs: list[HeapFile] = []
        buffer: list[TemporalTuple] = []
        spilled_tuples = 0

        def flush_run() -> None:
            nonlocal spilled_tuples
            if not buffer:
                return
            run = HeapFile(
                f"{source.name}.run{next(run_counter)}",
                page_capacity=source.page_capacity,
                stats=accounting,
            )
            run.extend(sort_tuples(buffer, order))
            runs.append(run)
            spilled_tuples += len(buffer)
            buffer.clear()

        for record in source.scan(stats=accounting):
            buffer.append(record)
            if len(buffer) >= run_capacity:
                flush_run()
        flush_run()
        runs_generated = len(runs)

        if not runs:
            empty = HeapFile(
                f"{source.name}.sorted",
                page_capacity=source.page_capacity,
                stats=accounting,
            )
            result = ExternalSortResult(empty, 0, 0, accounting)
        else:
            # ----------------------------------------------------------
            # merge passes
            # ----------------------------------------------------------
            merge_passes = 0
            while len(runs) > 1:
                merge_passes += 1
                next_runs: list[HeapFile] = []
                for group_start in range(0, len(runs), merge_width):
                    group = runs[group_start : group_start + merge_width]
                    if len(group) == 1:
                        next_runs.append(group[0])
                        continue
                    merged = HeapFile(
                        f"{source.name}.run{next(run_counter)}",
                        page_capacity=source.page_capacity,
                        stats=accounting,
                    )
                    merged.extend(_merge(group, order, accounting))
                    next_runs.append(merged)
                runs = next_runs

            output = runs[0]
            output.name = f"{source.name}.sorted"
            result = ExternalSortResult(
                output, runs_generated, merge_passes, accounting
            )

        if tracer.enabled:
            span.set(
                runs_generated=result.runs_generated,
                merge_passes=result.merge_passes,
                total_passes=result.total_passes,
                spilled_tuples=spilled_tuples,
            )
        return result


def _presorted_result(
    source: HeapFile, order: SortOrder, accounting: IOStats
) -> Optional[ExternalSortResult]:
    """One early-exit verification scan; the no-op sort result when
    ``source`` already obeys ``order``, else ``None``."""
    tracer = get_tracer()
    with tracer.span(
        "sort:presort-check", source=source.name, order=str(order)
    ) as span:
        previous: Optional[TemporalTuple] = None
        checked = 0
        sorted_input = True
        for record in source.scan(stats=accounting):
            checked += 1
            if previous is not None and not order.check(previous, record):
                sorted_input = False
                break
            previous = record
        if tracer.enabled:
            span.set(sorted=sorted_input, tuples_checked=checked)
    if not sorted_input:
        return None
    return ExternalSortResult(
        source, 0, 0, accounting, skipped_presorted=True
    )


def _merge(runs, order: SortOrder, stats: IOStats):
    """K-way merge of already-sorted runs.

    Ordering may include descending / non-numeric keys, which plain
    tuple comparison cannot express, so the heap is keyed on a sequence
    number per run and ordered by pairwise comparisons via the order's
    check() through a wrapper.
    """
    key_fn = _total_key(order)
    iterators = [run.scan(stats=stats) for run in runs]
    heap: list[tuple] = []
    for run_index, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (key_fn(first), run_index, first))
    while heap:
        _, run_index, record = heapq.heappop(heap)
        yield record
        following = next(iterators[run_index], None)
        if following is not None:
            heapq.heappush(
                heap, (key_fn(following), run_index, following)
            )


def _total_key(order: SortOrder) -> Callable[[TemporalTuple], tuple]:
    """A total key for heap ordering: the order's own key function,
    tie-broken by full lifespan so heap entries never compare tuples."""

    primary = order.key_function()

    def key(record: TemporalTuple) -> tuple:
        return (
            primary(record),
            record.valid_from,
            record.valid_to,
            repr(record.surrogate),
            repr(record.value),
        )

    return key
