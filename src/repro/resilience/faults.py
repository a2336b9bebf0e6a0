"""Deterministic, seeded fault injection for the storage layer.

A :class:`FaultPlan` decides — purely as a function of ``(seed, file
name, page index, logical read sequence)`` — whether a page read
faults, and how:

* ``TRANSIENT`` — the read raises
  :class:`~repro.errors.TransientIOError`; a retry heals it;
* ``CORRUPT`` — the read returns a tampered copy of the page whose
  checksum verification fails
  (:class:`~repro.errors.PageCorruptionError`); a re-read heals it;
* ``SLOW`` — the read succeeds but records a latency penalty.

Because the draw is keyed on the *logical* read (not the attempt), a
faulted read faults identically on every run with the same seed, and
heals deterministically after ``duration`` attempts — which is what
lets the chaos suite demand byte-identical results from faulty and
fault-free runs.  Reads listed in ``persistent`` never heal; they are
how tests exercise the :class:`~repro.errors.StorageFaultError` path.

:class:`ResilientHeapFile` wraps a :class:`~repro.storage.heap_file.
HeapFile` with a plan and a retry policy.  It quacks like a heap file
(``scan``/``page``/``num_pages``/…), so tuple streams and the
external sort run over it unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, FrozenSet, Iterator, Optional, Sequence, Tuple

from ..errors import TransientIOError
from ..storage.heap_file import HeapFile
from ..storage.iostats import IOStats
from ..storage.page import Page
from .recovery import ExecutionReport
from .retry import RetryPolicy, derived_rng, retry_call


class FaultKind(enum.Enum):
    """The fault species a plan can inject."""

    TRANSIENT = "transient"
    CORRUPT = "corrupt"
    SLOW = "slow"


@dataclass
class FaultEvent:
    """One injected fault, with its eventual disposition.

    ``resolution`` starts as ``"pending"`` and becomes ``"retried"``
    (a later attempt of the same read succeeded), ``"slow"`` (latency
    only), or ``"surfaced"`` (the retry budget ran out and the fault
    escaped as a :class:`~repro.errors.StorageFaultError`).
    """

    kind: FaultKind
    file_name: str
    page_index: int
    sequence: int
    attempt: int
    resolution: str = "pending"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of storage faults.

    Parameters
    ----------
    seed:
        Root of all randomness; two plans with equal parameters inject
        identical faults.
    rate:
        Probability that a logical page read faults.
    kinds:
        The fault species to draw from (uniformly).
    duration:
        Attempts for which a drawn fault persists before healing; must
        stay below the retry budget for transients to heal invisibly.
    persistent:
        ``(file name, page index)`` pairs that fault on *every*
        attempt — these exhaust any retry budget and surface as
        :class:`~repro.errors.StorageFaultError`.
    slow_penalty:
        Simulated latency units charged per SLOW fault.
    """

    seed: int
    rate: float = 0.1
    kinds: Tuple[FaultKind, ...] = (FaultKind.TRANSIENT,)
    duration: int = 1
    persistent: FrozenSet[Tuple[str, int]] = frozenset()
    slow_penalty: float = 5.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("fault rate must lie in [0, 1]")
        if self.duration < 1:
            raise ValueError("fault duration must be at least 1 attempt")
        if not self.kinds:
            raise ValueError("a fault plan needs at least one fault kind")

    def draw(
        self, file_name: str, page_index: int, sequence: int, attempt: int
    ) -> Optional[FaultKind]:
        """The fault (if any) this logical read sees on ``attempt``."""
        if (file_name, page_index) in self.persistent:
            return self.kinds[0]
        if attempt >= self.duration:
            return None  # healed
        rng = derived_rng(self.seed, file_name, page_index, sequence)
        if rng.random() >= self.rate:
            return None
        return self.kinds[rng.randrange(len(self.kinds))]


class WorkerFaultKind(enum.Enum):
    """Worker-level fault species the parallel chaos sweep injects."""

    KILL = "kill"  # worker dies mid-shard (os._exit before the run)
    STALL = "stall"  # worker sleeps long enough to look like a straggler
    CORRUPT_RESULT = "corrupt-result"  # result segment fails its crc32


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded, deterministic worker-level fault for one shard.

    Unlike :class:`FaultPlan` (which perturbs page reads *inside* a
    shard), this plan perturbs the shard's *carrier*: the worker
    process dies, stalls, or hands back a torn result segment.  The
    target shard is a pure function of ``(seed, cell key, shard
    count)``, so a chaos run replays identically; the fault is gated on
    the dispatch attempt (``attempts=1`` fires on the first dispatch
    only), so the containment machinery's single re-dispatch
    deterministically heals it — the property the differential oracle
    asserts.

    Parameters
    ----------
    seed:
        Root of the target-shard draw.
    kind:
        Which carrier fault to inject.
    attempts:
        Dispatch attempts for which the fault persists; keep it below
        the shard-retry cap for the differential to hold.
    stall_seconds:
        Sleep injected by ``STALL`` (the speculation threshold in tests
        must sit below this).
    exit_code:
        Process exit status used by ``KILL``.
    """

    seed: int
    kind: WorkerFaultKind = WorkerFaultKind.KILL
    attempts: int = 1
    stall_seconds: float = 2.0
    exit_code: int = 3

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a worker fault must persist for >=1 attempt")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")

    def target_shard(self, key: str, shard_count: int) -> int:
        """Which shard of ``shard_count`` carries the fault for ``key``
        (typically ``"<operator>/<backend>"``)."""
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        rng = derived_rng("worker-fault", self.seed, key)
        return rng.randrange(shard_count)

    def task_fault(self) -> dict:
        """The plain-dict form shipped inside the shard task (tasks
        cross the process boundary as dicts, never dataclasses)."""
        return {
            "kind": self.kind.value,
            "attempts": self.attempts,
            "stall_seconds": self.stall_seconds,
            "exit_code": self.exit_code,
        }


def _tampered_copy(page: Page) -> Page:
    """A shallow copy of ``page`` whose stored checksum is wrong — the
    simulated form of a torn or bit-flipped read.  Verification on the
    copy genuinely fails; the underlying page stays pristine."""
    bad = Page(page.page_id, capacity=page.capacity)
    for record in page:
        bad.append(record)
    bad._checksum ^= 0xDEADBEEF
    return bad


@dataclass
class FaultInjectionStats:
    """Per-wrapper tally of what the plan actually injected."""

    injected: int = 0
    healed: int = 0
    surfaced: int = 0
    slow: int = 0


class ResilientHeapFile:
    """A heap file behind fault injection and retry-with-backoff.

    Drop-in for :class:`~repro.storage.heap_file.HeapFile` wherever
    pages are *read* (streams, external sort); writes pass
    straight through to the wrapped file.
    """

    def __init__(
        self,
        inner: HeapFile,
        plan: FaultPlan,
        retry: Optional[RetryPolicy] = None,
        report: Optional[ExecutionReport] = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.report = report
        self.fault_stats = FaultInjectionStats()
        self._sequence = 0

    # ------------------------------------------------------------------
    # heap-file façade
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def page_capacity(self) -> int:
        return self.inner.page_capacity

    @property
    def stats(self) -> IOStats:
        return self.inner.stats

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    @property
    def num_records(self) -> int:
        return self.inner.num_records

    def append(self, record: Any) -> None:
        self.inner.append(record)

    def extend(self, records) -> None:
        self.inner.extend(records)

    def records(self) -> list:
        return self.inner.records()

    def __len__(self) -> int:
        return self.inner.num_records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientHeapFile({self.inner!r}, plan={self.plan})"

    # ------------------------------------------------------------------
    # faulty reads
    # ------------------------------------------------------------------
    def page(self, index: int, stats: Optional[IOStats] = None) -> Page:
        """One page read through the fault plan and the retry loop."""
        accounting = stats if stats is not None else self.inner.stats
        sequence = self._sequence
        self._sequence += 1
        pending: list[FaultEvent] = []

        def mark(resolution: str) -> None:
            for event in pending:
                if event.resolution == "pending":
                    event.resolution = resolution

        def attempt_read(attempt: int) -> Page:
            kind = self.plan.draw(self.name, index, sequence, attempt)
            if kind is None:
                page = self.inner.page(index, stats=accounting)
                mark("retried")
                if pending:
                    self.fault_stats.healed += len(pending)
                return page
            event = FaultEvent(kind, self.name, index, sequence, attempt)
            pending.append(event)
            self.fault_stats.injected += 1
            accounting.record_fault()
            if self.report is not None:
                self.report.note_fault(event)
            if kind is FaultKind.SLOW:
                # Latency, not an error: deliver the page, charge the
                # penalty.
                event.resolution = "slow"
                self.fault_stats.slow += 1
                accounting.record_slow_read(self.plan.slow_penalty)
                if self.report is not None:
                    self.report.note_slow(self.plan.slow_penalty)
                return self.inner.page(index, stats=accounting)
            # A failed attempt still touches the device.
            accounting.record_page_read()
            if kind is FaultKind.TRANSIENT:
                raise TransientIOError(
                    f"transient read fault on {self.name!r} page {index} "
                    f"(attempt {attempt})"
                )
            # CORRUPT: the read "succeeds" but delivers a tampered
            # page; checksum verification raises PageCorruptionError.
            _tampered_copy(self.inner._pages[index]).verify()
            raise AssertionError("tampered page passed verification")

        def on_retry(error: BaseException, delay: float) -> None:
            accounting.record_retry(delay)
            if self.report is not None:
                self.report.note_retry(delay)

        try:
            return retry_call(
                attempt_read,
                self.retry,
                key=(self.name, index, sequence),
                on_retry=on_retry,
            )
        except Exception:
            mark("surfaced")
            self.fault_stats.surfaced += len(pending)
            if self.report is not None:
                self.report.note_storage_error()
            raise

    def scan(self, stats: Optional[IOStats] = None) -> Iterator[Any]:
        """Sequential scan with per-page fault injection and retries."""
        accounting = stats if stats is not None else self.inner.stats
        accounting.record_scan()
        for index in range(self.inner.num_pages):
            page = self.page(index, stats=accounting)
            for record in page:
                accounting.record_tuple_read()
                yield record


def wrap_sources(
    files: Sequence[HeapFile],
    plan: FaultPlan,
    retry: Optional[RetryPolicy] = None,
    report: Optional[ExecutionReport] = None,
) -> list[ResilientHeapFile]:
    """Wrap several heap files under one plan/report (convenience for
    the chaos harness)."""
    return [
        ResilientHeapFile(f, plan, retry=retry, report=report)
        for f in files
    ]
