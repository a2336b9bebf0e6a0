"""Recovery policies and the execution report.

The paper's Section-4.1 trade-off triangle (workspace memory, sort
effort, passes over the input) implies that a violated single-pass
assumption has a *correct* answer that is not a crash: re-sort, or take
more passes.  The :class:`RecoveryPolicy` ladder makes that explicit:

* ``STRICT`` — the seed behaviour: any violated assumption (out-of-order
  tuple, workspace over budget) raises its original exception type;
* ``DEGRADE`` — an out-of-order operand is re-sorted before the
  operator runs, a workspace overflow spills to heap files and finishes
  in extra passes; both are recorded as added passes / taken fallbacks.

Either policy returns the exact answer or raises; neither drops a
tuple.  Neither answers a corrupt page: its checksum fails and
:class:`~repro.errors.PageCorruptionError` propagates under both.
Every recovery action lands in an :class:`ExecutionReport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class RecoveryPolicy(enum.Enum):
    """How the execution layer reacts to violated stream assumptions."""

    #: Fail fast with the original exception types (seed behaviour).
    STRICT = "strict"
    #: Re-sort on order violations; spill and take extra passes on
    #: workspace overflow.
    DEGRADE = "degrade"


@dataclass(frozen=True)
class FallbackEvent:
    """One degradation step the executor took."""

    kind: str  # "re-sort" or "spill"
    detail: str
    passes_added: int


@dataclass
class ExecutionReport:
    """Everything the resilient execution layer did behind the caller's
    back: degradations taken, passes added, violations observed.

    One report records one operator run (its order check, its run, its
    spill); the counters are cumulative.  Reports of separate runs (the shards of a sharded run, the stream
    joins of a query) are kept apart and combined with :meth:`absorb`.
    """

    #: Degradation steps taken under DEGRADE.
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    #: Extra passes over the inputs beyond the single-pass plan
    #: (external-sort passes, spill writes, block re-scans).
    passes_added: int = 0
    #: Workspace-overflow events observed (whether or not degraded).
    workspace_overflows: int = 0
    #: Stream-order violations observed (whether or not degraded).
    order_violations: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def note_fallback(
        self, kind: str, detail: str, passes_added: int
    ) -> None:
        self.fallbacks.append(FallbackEvent(kind, detail, passes_added))
        self.passes_added += passes_added

    def note_order_violation(self) -> None:
        self.order_violations += 1

    def note_workspace_overflow(self) -> None:
        self.workspace_overflows += 1

    def absorb(self, other: "ExecutionReport") -> None:
        """Fold another run's report into this one."""
        self.fallbacks.extend(other.fallbacks)
        self.passes_added += other.passes_added
        self.workspace_overflows += other.workspace_overflows
        self.order_violations += other.order_violations

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "fallbacks": [
                {
                    "kind": event.kind,
                    "detail": event.detail,
                    "passes_added": event.passes_added,
                }
                for event in self.fallbacks
            ],
            "passes_added": self.passes_added,
            "workspace_overflows": self.workspace_overflows,
            "order_violations": self.order_violations,
        }
