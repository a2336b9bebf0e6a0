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
    run_namer: Optional[Callable[[int], str]] = None,
    presort_check: bool = True,
    run_sort_workers: int = 1,
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
    run_sort_workers:
        Sort initial runs in parallel with this many forked workers
        (CPU parallelism for pass 0; merging stays serial).  Raises the
        transient memory bound to ``run_sort_workers`` buffered runs —
        the coordinator holds one batch of unsorted chunks while the
        pool sorts it.  Any pool failure falls back to inline sorting.
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
    naming = run_namer or (lambda i: f"{source.name}.run{i}")
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
        pending_chunks: list[list[TemporalTuple]] = []
        spilled_tuples = 0

        def write_run(sorted_records: list[TemporalTuple]) -> None:
            nonlocal spilled_tuples
            run = HeapFile(
                naming(next(run_counter)),
                page_capacity=source.page_capacity,
                stats=accounting,
            )
            run.extend(sorted_records)
            runs.append(run)
            spilled_tuples += len(sorted_records)

        def drain_pending() -> None:
            if not pending_chunks:
                return
            for chunk in _sort_chunks(
                pending_chunks, order, run_sort_workers
            ):
                write_run(chunk)
            pending_chunks.clear()

        def flush_run() -> None:
            if not buffer:
                return
            if run_sort_workers > 1:
                pending_chunks.append(list(buffer))
                if len(pending_chunks) >= run_sort_workers:
                    drain_pending()
            else:
                write_run(sort_tuples(buffer, order))
            buffer.clear()

        for record in source.scan(stats=accounting):
            buffer.append(record)
            if len(buffer) >= run_capacity:
                flush_run()
        flush_run()
        drain_pending()
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
                        naming(next(run_counter)),
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
                run_sort_workers=run_sort_workers,
            )
        return result


#: Fork-inherited state for parallel run sorting (set only while a
#: pool is alive; workers read it copy-on-write instead of having the
#: sort order pickled per task).
_RUN_SORT_ORDER: Optional[SortOrder] = None


def _run_sort_worker(chunk: list[TemporalTuple]) -> list[TemporalTuple]:
    return sort_tuples(chunk, _RUN_SORT_ORDER)


def _sort_chunks(
    chunks: list[list[TemporalTuple]], order: SortOrder, workers: int
) -> list[list[TemporalTuple]]:
    """Sort run chunks, forking a pool when it can actually help;
    falls back to inline sorting on any pool failure."""
    global _RUN_SORT_ORDER
    if workers > 1 and len(chunks) > 1:
        import multiprocessing

        _RUN_SORT_ORDER = order
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(
                processes=min(workers, len(chunks))
            ) as pool:
                return pool.map(_run_sort_worker, chunks)
        except Exception:
            pass
        finally:
            _RUN_SORT_ORDER = None
    return [sort_tuples(chunk, order) for chunk in chunks]


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
