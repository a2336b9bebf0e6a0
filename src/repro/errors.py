"""Exception hierarchy for the temporal query processing library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch a single base class.  Subclasses are grouped by the
layer that raises them (model, query language, planning, execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class TemporalModelError(ReproError):
    """Base class for errors in the temporal data model layer."""


class InvalidIntervalError(TemporalModelError):
    """Raised when an interval violates ``ValidFrom < ValidTo``."""


class IntegrityViolationError(TemporalModelError):
    """Raised when a relation violates a declared integrity constraint."""


class SchemaError(ReproError):
    """Raised for unknown attributes or mismatched schemas."""


class QueryLanguageError(ReproError):
    """Base class for errors in the Quel-like query language frontend."""


class LexerError(QueryLanguageError):
    """Raised when the lexer encounters an unrecognised character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(QueryLanguageError):
    """Raised when the parser encounters an unexpected token."""


class TranslationError(QueryLanguageError):
    """Raised when a parsed query cannot be translated to algebra."""


class PlanningError(ReproError):
    """Raised when the optimizer cannot produce a physical plan."""


class PlanStateError(PlanningError):
    """Raised when a planner object's internal invariant is violated —
    e.g. a plan asked to describe its chosen registry entry before one
    was selected.  Always a planner bug; raised as a typed exception so
    the invariant survives ``python -O`` (which strips ``assert``)."""


class UnsupportedSortOrderError(PlanningError):
    """Raised when a stream operator is asked to run on sort orders for
    which no bounded-workspace algorithm exists (the '-' entries in the
    paper's Tables 1-3)."""


class UnsupportedBackendError(PlanningError):
    """Raised when a registry entry is asked for an execution backend
    (e.g. ``"columnar"``) it does not implement, or for a backend name
    that does not exist at all."""


class ExecutionError(ReproError):
    """Raised during plan or stream-processor execution."""


class StreamOrderError(ExecutionError):
    """Raised when a stream's tuples are observed to violate the sort
    order the stream declared.  ``stream_name`` names the offending
    stream, or the operand side (``"X"``/``"Y"``) when the executor's
    up-front check found it; ``None`` when columns were checked
    directly."""

    def __init__(self, message: str, stream_name: str | None = None) -> None:
        super().__init__(message)
        self.stream_name = stream_name


class StreamStateError(ExecutionError):
    """Raised when a :class:`~repro.streams.stream.TupleStream` detects
    an impossible internal state (e.g. no open iterator mid-advance) —
    the stream-machinery sibling of :class:`StreamOrderError`, typed so
    the invariant survives ``python -O``."""


class ProcessorStateError(ExecutionError):
    """Raised when a stream processor's internal invariant is violated
    — a binary operator run without its Y stream, a sweep consuming
    from an empty buffer, an advancement policy with no fallback.
    Always a processor bug, never a data problem; typed (rather than a
    bare ``assert``) so the check survives ``python -O``."""


class WorkspaceStateError(ExecutionError):
    """Raised when a stream processor asks its workspace to retire a
    state tuple the workspace does not hold — always a processor bug,
    surfaced loudly instead of as a bare ``ValueError``."""


class WorkspaceOverflowError(ExecutionError):
    """Raised when a stream processor's state exceeds the configured
    workspace budget — the signal that this sort-order/algorithm
    combination needs either more memory or multiple passes (the
    Section-4.1 trade-off triangle)."""


class GovernanceError(ReproError):
    """Base class for query-governance violations: deadlines, explicit
    cancellation, and resource-budget breaches.

    Governance errors are **terminal by design**: the recovery ladder
    (STRICT/DEGRADE) must never re-sort or spill around one
    — re-running a query that already blew its deadline or budget only
    spends more of the resource the caller asked us to bound.
    :func:`repro.resilience.executor.execute_entry` catches only the
    two recoverable stream errors, so these propagate through every
    rung untouched.
    """


class DeadlineExceededError(GovernanceError):
    """The query's wall-clock deadline passed before it finished.

    Raised cooperatively at the next checkpoint (page read, pass
    boundary, batch drain, or shard-collect poll), so detection latency
    is bounded by the checkpoint interval, not by query length.
    """

    def __init__(self, message: str, elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class QueryCancelledError(GovernanceError):
    """The query was cancelled from outside (another thread holding its
    token, e.g. a client disconnect or an operator kill) via
    :meth:`repro.governance.CancellationToken.cancel`."""

    def __init__(self, message: str, reason: str = "cancelled") -> None:
        super().__init__(message)
        self.reason = reason


class BudgetExceededError(GovernanceError):
    """A resource cap in the query's :class:`~repro.governance.
    QueryBudget` was breached (workspace tuples or page reads).
    ``resource`` names the breached cap."""

    def __init__(
        self, message: str, resource: str = "", spent: int = 0, cap: int = 0
    ) -> None:
        super().__init__(message)
        self.resource = resource
        self.spent = spent
        self.cap = cap


class StorageError(ReproError):
    """Base class for errors in the simulated storage layer."""


class PageCorruptionError(StorageError):
    """A page's stored checksum does not match its records.  Heap files
    live in memory, so a re-read returns the same records: the error is
    final and propagates under every recovery policy."""
