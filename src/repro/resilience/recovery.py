"""Recovery policies and the execution report.

The paper's Section-4.1 trade-off triangle (workspace memory, sort
effort, passes over the input) implies that a violated single-pass
assumption has a *correct* answer that is not a crash: re-sort, or take
more passes.  The :class:`RecoveryPolicy` ladder makes that explicit:

* ``STRICT`` — the seed behaviour: any violated assumption (out-of-order
  tuple, workspace over budget, persistent storage fault) raises its
  original exception type;
* ``QUARANTINE`` — tuples that violate the stream's declared order or
  the ``TS < TE`` intra-tuple constraint are skipped into a counted
  side-channel instead of poisoning the sweep;
* ``DEGRADE`` — order violations trigger a re-sort (and an operator
  restart), workspace overflows spill to heap files and finish in extra
  passes; both are recorded as added passes / taken fallbacks.

Every recovery action lands in an :class:`ExecutionReport`, whose
invariant — checked by the chaos suite — is that each injected fault is
accounted for as retried, quarantined, or degraded.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..obs.metrics import active_registry


class RecoveryPolicy(enum.Enum):
    """How the execution layer reacts to violated stream assumptions."""

    #: Fail fast with the original exception types (seed behaviour).
    STRICT = "strict"
    #: Skip order/validity-violating tuples into a counted side-channel.
    QUARANTINE = "quarantine"
    #: Re-sort on order violations; spill and take extra passes on
    #: workspace overflow.
    DEGRADE = "degrade"


@dataclass(frozen=True)
class QuarantineEvent:
    """One tuple diverted to the side-channel instead of processed."""

    stream: str
    reason: str  # "order" or "validity"
    tuple_repr: str


@dataclass(frozen=True)
class FallbackEvent:
    """One degradation step the executor took."""

    kind: str  # "re-sort" or "spill"
    detail: str
    passes_added: int


@dataclass
class ExecutionReport:
    """Everything the resilient execution layer did behind the caller's
    back: faults seen and healed, tuples quarantined, degradations
    taken, passes added.

    One report may be threaded through several components (streams,
    resilient heap files, the executor) of one operator run; the
    counters are cumulative.  Reports of separate runs (the shards of
    a sharded run, the stream joins of a query) are kept apart and
    combined with :meth:`absorb`.
    """

    #: Fault events observed by resilient storage (FaultEvent objects;
    #: typed loosely to keep this module import-free).
    faults: List[Any] = field(default_factory=list)
    #: Read attempts repeated after a retryable fault.
    retries: int = 0
    #: Simulated time spent in retry backoff and slow reads.
    simulated_delay: float = 0.0
    #: Tuples skipped into the side-channel under QUARANTINE.
    quarantined: List[QuarantineEvent] = field(default_factory=list)
    #: Degradation steps taken under DEGRADE.
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    #: Extra passes over the inputs beyond the single-pass plan
    #: (external-sort passes, spill writes, block re-scans).
    passes_added: int = 0
    #: Workspace-overflow events observed (whether or not degraded).
    workspace_overflows: int = 0
    #: Stream-order violations observed (whether or not degraded).
    order_violations: int = 0
    #: Persistent storage faults that surfaced after retries.
    storage_errors: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def note_fault(self, event: Any) -> None:
        self.faults.append(event)
        registry = active_registry()
        if registry is not None:
            kind = getattr(event, "kind", None)
            registry.counter(
                "repro_resilience_faults_total",
                "Storage faults observed by resilient reads",
            ).inc(kind=getattr(kind, "value", str(kind)))

    def note_retry(self, delay: float = 0.0) -> None:
        # The registry's retry counter is bumped in
        # :func:`repro.resilience.retry.retry_call` (the single place
        # every healed fault flows through), not here, so reports
        # layered on top never double-count.
        self.retries += 1
        self.simulated_delay += delay

    def note_slow(self, delay: float) -> None:
        self.simulated_delay += delay

    def note_quarantine(
        self, stream: str, reason: str, item: Any
    ) -> None:
        self.quarantined.append(
            QuarantineEvent(stream, reason, repr(item))
        )
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "repro_resilience_quarantined_total",
                "Tuples diverted to the quarantine side-channel",
            ).inc(reason=reason)

    def note_fallback(
        self, kind: str, detail: str, passes_added: int
    ) -> None:
        self.fallbacks.append(FallbackEvent(kind, detail, passes_added))
        self.passes_added += passes_added
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "repro_recovery_fallbacks_total",
                "Degradation steps taken (recovery-ladder transitions)",
            ).inc(kind=kind)
            registry.counter(
                "repro_recovery_passes_added_total",
                "Extra input passes bought by degradations",
            ).inc(passes_added)

    def note_order_violation(self) -> None:
        self.order_violations += 1
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "repro_resilience_order_violations_total",
                "Declared-order violations observed",
            ).inc()

    def note_workspace_overflow(self) -> None:
        self.workspace_overflows += 1
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "repro_resilience_workspace_overflows_total",
                "Workspace budget breaches observed",
            ).inc()

    def note_storage_error(self) -> None:
        self.storage_errors += 1
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "repro_resilience_storage_errors_total",
                "Persistent storage faults surfaced after retries",
            ).inc()

    def absorb(self, other: "ExecutionReport") -> None:
        """Fold another run's report into this one, without re-triggering
        the note_* metric hooks (that run already counted what it could)."""
        self.faults.extend(other.faults)
        self.retries += other.retries
        self.simulated_delay += other.simulated_delay
        self.quarantined.extend(other.quarantined)
        self.fallbacks.extend(other.fallbacks)
        self.passes_added += other.passes_added
        self.workspace_overflows += other.workspace_overflows
        self.order_violations += other.order_violations
        self.storage_errors += other.storage_errors

    # ------------------------------------------------------------------
    # accounting invariants
    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        return len(self.faults)

    def fault_counts(self) -> dict:
        """Faults by kind name."""
        counts: dict = {}
        for event in self.faults:
            kind = getattr(event, "kind", None)
            name = getattr(kind, "value", str(kind))
            counts[name] = counts.get(name, 0) + 1
        return counts

    def unexplained_faults(self) -> List[Any]:
        """Fault events whose resolution is still pending — the chaos
        suite requires this to be empty after every run."""
        return [
            event
            for event in self.faults
            if getattr(event, "resolution", "pending") == "pending"
        ]

    @property
    def fully_accounted(self) -> bool:
        """True when every injected fault was retried, absorbed as a
        slow read, or surfaced as a storage error."""
        return not self.unexplained_faults()

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "faults_injected": self.faults_injected,
            "fault_counts": self.fault_counts(),
            "retries": self.retries,
            "simulated_delay": self.simulated_delay,
            "quarantined": len(self.quarantined),
            "quarantine_reasons": sorted(
                {event.reason for event in self.quarantined}
            ),
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
            "storage_errors": self.storage_errors,
            "fully_accounted": self.fully_accounted,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"faults={self.faults_injected} retries={self.retries} "
            f"quarantined={len(self.quarantined)} "
            f"passes_added={self.passes_added} "
            f"fallbacks={len(self.fallbacks)} "
            f"storage_errors={self.storage_errors}"
        )
