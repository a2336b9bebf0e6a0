"""Local workspace with garbage-collection accounting (Section 4.1).

The paper's central performance quantity is the size of the *local
workspace* — the state tuples a stream processor must retain.  A
:class:`Workspace` is a small tuple store that records every insertion
and eviction and tracks its high-water mark; a shared
:class:`WorkspaceMeter` additionally tracks the *joint* high-water mark
when an operator keeps several state spaces (e.g. X-state and Y-state
of the Contain-join), since the paper's state characterisations are
about the union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Generic,
    Iterator,
    List,
    Optional,
    TypeVar,
)

from ..errors import WorkspaceOverflowError, WorkspaceStateError
from ..model.interval import Disposal, disposable, surviving

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..governance.budget import CancellationToken

T = TypeVar("T")


@dataclass
class WorkspaceMeter:
    """Joint accounting shared by one operator's workspaces."""

    current: int = 0
    high_water: int = 0
    total_inserted: int = 0
    total_discarded: int = 0
    #: When enabled, the state size after every insertion/eviction —
    #: the Figure-5 view of the algorithm's workspace over the sweep.
    trace: Optional[List[int]] = None
    #: Optional hard budget on concurrent state tuples.  Exceeding it
    #: raises :class:`~repro.errors.WorkspaceOverflowError` — modelling
    #: the paper's finite "local workspace" and forcing the trade-off
    #: towards sorting or multiple passes.
    limit: Optional[int] = None
    #: Times the budget was breached (kept even when a recovery policy
    #: later absorbs the overflow by spilling).
    overflows: int = 0
    #: Governance hook: when a query runs under a
    #: :class:`~repro.governance.CancellationToken`, the executor
    #: attaches it here and every insert reports the joint state size
    #: against the budget's ``workspace_tuple_cap``.  Unlike ``limit``
    #: (the paper's per-operator workspace, whose overflow the ladder
    #: may absorb by spilling), a governance breach raises the
    #: non-retryable :class:`~repro.errors.BudgetExceededError`.
    token: Optional["CancellationToken"] = None

    def enable_trace(self) -> None:
        """Start recording the state-size trajectory."""
        if self.trace is None:
            self.trace = [self.current]

    def on_insert(self, count: int = 1) -> None:
        self.current += count
        self.total_inserted += count
        if self.current > self.high_water:
            self.high_water = self.current
        if self.trace is not None:
            self.trace.append(self.current)
        if self.token is not None:
            self.token.charge_workspace(self.current)
        if self.limit is not None and self.current > self.limit:
            self.overflows += 1
            raise WorkspaceOverflowError(
                f"workspace exceeded its budget of {self.limit} state "
                f"tuples"
            )

    def on_discard(self, count: int = 1) -> None:
        self.current -= count
        self.total_discarded += count
        if self.trace is not None:
            self.trace.append(self.current)


class Workspace(Generic[T]):
    """One state space of a stream processor.

    Iteration yields the live state tuples; :meth:`evict` is the
    garbage-collection primitive of the paper's algorithms.
    """

    def __init__(
        self, name: str = "state", meter: Optional[WorkspaceMeter] = None
    ) -> None:
        self.name = name
        self.meter = meter if meter is not None else WorkspaceMeter()
        self.high_water = 0
        self.total_inserted = 0
        self.total_discarded = 0
        self._items: List[T] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, item: T) -> None:
        self._items.append(item)
        self.total_inserted += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        self.meter.on_insert()

    def remove(self, item: T) -> None:
        """Remove one specific state tuple (e.g. a semijoin match that
        has been output and is no longer needed).

        Removal is by *identity*, not equality: relations may hold
        duplicate rows, and equal-but-distinct state tuples must each be
        retired exactly once for the high-water accounting to stay
        truthful.  Asking to remove a tuple that is not in the workspace
        raises :class:`~repro.errors.WorkspaceStateError`.
        """
        for index, existing in enumerate(self._items):
            if existing is item:
                del self._items[index]
                self.total_discarded += 1
                self.meter.on_discard()
                return
        raise WorkspaceStateError(
            f"workspace {self.name!r} asked to remove {item!r}, which it "
            f"does not hold ({len(self._items)} state tuples present)"
        )

    def evict(self, rule: Optional[Disposal], buffer) -> int:
        """Garbage-collect, in one pass, every state tuple the declared
        disposal ``rule`` retires against the opposite ``buffer``
        (``None``: nothing ever is), returning how many were discarded."""
        if rule is None:
            return 0
        return self._retain(surviving(self._items, rule, buffer))

    def evict_newest(self, rule: Optional[Disposal], buffer) -> int:
        """:meth:`evict` for a state whose older tuples all survived
        ``rule`` against this same ``buffer``: only the most recent
        insert is checked, and discarded when the rule retires it."""
        items = self._items
        if not items or not disposable(items[-1], rule, buffer):
            return 0
        items.pop()
        self.total_discarded += 1
        self.meter.on_discard()
        return 1

    def clear(self) -> int:
        """Discard everything (used when the opposite stream is
        exhausted and the state can no longer produce matches)."""
        return self._retain([])

    def replace(self, item: T) -> None:
        """Swap the single state tuple — the operation of the
        one-state-tuple self-semijoin algorithm (Section 4.2.3)."""
        self._retain([])
        self.insert(item)

    def _retain(self, keep: List[T]) -> int:
        discarded = len(self._items) - len(keep)
        if discarded:
            self._items = keep
            self.total_discarded += discarded
            self.meter.on_discard(discarded)
        return discarded

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def items(self) -> List[T]:
        """The live state tuples in insertion order: the store itself,
        not a copy, so read it and never mutate it."""
        return self._items

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def peek(self) -> Optional[T]:
        """The single state tuple, when at most one is kept."""
        return self._items[0] if self._items else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace({self.name!r}, size={len(self._items)}, "
            f"high_water={self.high_water})"
        )


@dataclass(frozen=True)
class WorkspaceReport:
    """Immutable summary of an operator's workspace behaviour, exposed
    through :class:`~repro.streams.metrics.ProcessorMetrics`."""

    high_water: int
    total_inserted: int
    total_discarded: int
    residual: int

    @classmethod
    def from_meter(cls, meter: WorkspaceMeter) -> "WorkspaceReport":
        return cls(
            high_water=meter.high_water,
            total_inserted=meter.total_inserted,
            total_discarded=meter.total_discarded,
            residual=meter.current,
        )
