"""Per-query budgets and the cooperative cancellation token.

Design constraints, in order:

1. **Near-zero cost when disabled.**  The hot paths ask
   :func:`active_token` (one thread-local attribute read) and skip
   everything on ``None``.  No budget, no token, no cost.
2. **Checkpoint granularity, never per-tuple.**  Checks live at page
   reads, stream pass boundaries, columnar batch drains, workspace
   *inserts* (already metered), and the shard-collect poll loop.
   Detection latency for a blown deadline is therefore bounded by the
   checkpoint interval (one page / one poll tick), which is the
   guarantee the acceptance criterion states.
3. **Thread-local installation.**  Nothing stops two threads from
   running queries in one process; a module global would let query A's
   deadline cancel query B.  Worker processes install their own token
   from the remaining-deadline seconds shipped in the task dict.

Charges are deliberately monotonic counters on the token, so EXPLAIN
ANALYZE can report how much of each budget a query actually spent.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from ..errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryCancelledError,
)


@dataclass(frozen=True)
class QueryBudget:
    """Declarative per-query resource caps.  ``None`` means unbounded.

    * ``deadline_seconds`` — wall-clock budget from token creation;
    * ``workspace_tuple_cap`` — max concurrent workspace state tuples
      (a *governance* bound layered over the paper's per-operator
      Tables 1-3 bound; breaching it is terminal, not a spill trigger);
    * ``page_read_cap`` — max physical heap-file page reads;
    * ``shm_byte_cap`` — max shared-memory bytes mapped for the query's
      parallel segments.
    """

    deadline_seconds: Optional[float] = None
    workspace_tuple_cap: Optional[int] = None
    page_read_cap: Optional[int] = None
    shm_byte_cap: Optional[int] = None

    def is_bounded(self) -> bool:
        return any(
            cap is not None
            for cap in (
                self.deadline_seconds,
                self.workspace_tuple_cap,
                self.page_read_cap,
                self.shm_byte_cap,
            )
        )

    def with_deadline(self, deadline_seconds: float) -> "QueryBudget":
        """This budget with a (tighter) deadline merged in."""
        if (
            self.deadline_seconds is not None
            and self.deadline_seconds <= deadline_seconds
        ):
            return self
        return replace(self, deadline_seconds=deadline_seconds)

    def as_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "workspace_tuple_cap": self.workspace_tuple_cap,
            "page_read_cap": self.page_read_cap,
            "shm_byte_cap": self.shm_byte_cap,
        }


class CancellationToken:
    """The runtime carrier of one query's :class:`QueryBudget`.

    The token is created when the query starts (the deadline clock
    starts ticking then), installed thread-locally for the duration of
    the run, and consulted by the checkpoints.  ``cancel()`` may be
    called from any thread; the run observes it at its next checkpoint.
    """

    __slots__ = (
        "budget",
        "started_at",
        "deadline_at",
        "pages_read",
        "shm_bytes",
        "workspace_peak",
        "checkpoints",
        "_clock",
        "_cancelled",
        "_cancel_reason",
    )

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget if budget is not None else QueryBudget()
        self._clock = clock
        self.started_at = clock()
        self.deadline_at: Optional[float] = (
            self.started_at + self.budget.deadline_seconds
            if self.budget.deadline_seconds is not None
            else None
        )
        self.pages_read = 0
        self.shm_bytes = 0
        self.workspace_peak = 0
        self.checkpoints = 0
        self._cancelled = False
        self._cancel_reason = "cancelled"

    # ------------------------------------------------------------------
    # external control
    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; safe from any thread.  The running
        query raises :class:`QueryCancelledError` at its next
        checkpoint."""
        self._cancel_reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (``None`` when unbounded); may
        be negative once the deadline has passed."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - self._clock()

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def check(self) -> None:
        """The plain checkpoint: cancellation, then deadline."""
        self.checkpoints += 1
        if self._cancelled:
            raise QueryCancelledError(
                f"query cancelled: {self._cancel_reason}",
                reason=self._cancel_reason,
            )
        if self.deadline_at is not None and self._clock() > self.deadline_at:
            elapsed = self.elapsed()
            raise DeadlineExceededError(
                "query deadline of "
                f"{self.budget.deadline_seconds:.3f}s exceeded after "
                f"{elapsed:.3f}s",
                elapsed=elapsed,
            )

    def charge_pages(self, pages: int = 1) -> None:
        """Charge physical page reads, then run the plain checkpoint."""
        self.pages_read += pages
        cap = self.budget.page_read_cap
        if cap is not None and self.pages_read > cap:
            raise BudgetExceededError(
                f"page-read budget of {cap} pages exceeded "
                f"({self.pages_read} read)",
                resource="pages",
                spent=self.pages_read,
                cap=cap,
            )
        self.check()

    def charge_workspace(self, size: int) -> None:
        """Record a workspace high-water observation against the
        workspace-tuple cap.  Called from the already-metered insert
        path, so no new per-tuple work is added when ungoverned."""
        if size > self.workspace_peak:
            self.workspace_peak = size
        cap = self.budget.workspace_tuple_cap
        if cap is not None and size > cap:
            raise BudgetExceededError(
                f"workspace budget of {cap} tuples exceeded "
                f"({size} concurrent)",
                resource="workspace",
                spent=size,
                cap=cap,
            )

    def charge_shm(self, nbytes: int) -> None:
        """Charge shared-memory bytes mapped for this query."""
        self.shm_bytes += nbytes
        cap = self.budget.shm_byte_cap
        if cap is not None and self.shm_bytes > cap:
            raise BudgetExceededError(
                f"shared-memory budget of {cap} bytes exceeded "
                f"({self.shm_bytes} mapped)",
                resource="shm_bytes",
                spent=self.shm_bytes,
                cap=cap,
            )
        self.check()

    def as_dict(self) -> dict:
        """Spend summary for EXPLAIN ANALYZE / audit records."""
        return {
            "budget": self.budget.as_dict(),
            "elapsed_seconds": round(self.elapsed(), 6),
            "pages_read": self.pages_read,
            "workspace_peak": self.workspace_peak,
            "shm_bytes": self.shm_bytes,
            "checkpoints": self.checkpoints,
            "cancelled": self._cancelled,
        }


# ----------------------------------------------------------------------
# thread-local installation
# ----------------------------------------------------------------------
_STATE = threading.local()


def active_token() -> Optional[CancellationToken]:
    """The token governing the current thread's query, or ``None``.

    This is the hot-path accessor: one thread-local attribute read, no
    allocation.  Checkpoints call it and do nothing on ``None``.
    """
    return getattr(_STATE, "token", None)


def install_token(
    token: Optional[CancellationToken],
) -> Optional[CancellationToken]:
    """Install ``token`` for the current thread; returns the previous
    token so callers can restore it (see :func:`governed`)."""
    previous = getattr(_STATE, "token", None)
    _STATE.token = token
    return previous


@contextmanager
def governed(
    budget: Optional[QueryBudget] = None,
    deadline: Optional[float] = None,
    token: Optional[CancellationToken] = None,
) -> Iterator[CancellationToken]:
    """Run a block under a governance token.

    Either pass an existing ``token`` or let the context build one from
    ``budget``/``deadline`` (a bare ``deadline`` is sugar for
    ``QueryBudget(deadline_seconds=deadline)``).  The token is installed
    thread-locally on entry and the previous token restored on exit, so
    governed blocks nest: an inner block's tighter deadline wins inside
    it, the outer budget resumes after.
    """
    if token is None:
        effective = budget if budget is not None else QueryBudget()
        if deadline is not None:
            effective = effective.with_deadline(deadline)
        token = CancellationToken(effective)
    previous = install_token(token)
    try:
        yield token
    finally:
        install_token(previous)
