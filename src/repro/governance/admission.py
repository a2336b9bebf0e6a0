"""Admission control: bounded concurrent-query slots.

The always-on service cannot let an unbounded number of queries run
concurrently — each holds workspace, page reads, and possibly
shared-memory segments.  :class:`AdmissionController` grants at most
``max_concurrent`` slots; a query that cannot get one waits in line up
to ``queue_timeout`` seconds and is then rejected with the typed
:class:`~repro.errors.AdmissionRejectedError` (a governance error, so
the ladder never retries it — the *caller* decides whether to re-queue).

The controller is deliberately tiny: a bounded semaphore plus counters.
It composes with budgets — ``run_query(admission=..., budget=...)``
acquires the slot first, then starts the deadline clock, so time spent
queueing never eats the query's own deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import AdmissionRejectedError
from ..obs.metrics import active_registry


@dataclass(frozen=True)
class AdmissionStats:
    """Counters snapshot for tests and EXPLAIN ANALYZE."""

    max_concurrent: int
    in_flight: int
    admitted: int
    rejected: int
    waited_seconds: float

    def as_dict(self) -> dict:
        return {
            "max_concurrent": self.max_concurrent,
            "in_flight": self.in_flight,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "waited_seconds": round(self.waited_seconds, 6),
        }


class AdmissionController:
    """At most ``max_concurrent`` queries at once; the rest queue with
    a timeout.

    ``queue_timeout`` is the default wait; ``admit(timeout=...)``
    overrides it per query.  A timeout of ``0`` means fail-fast (no
    queueing at all).
    """

    def __init__(
        self, max_concurrent: int, queue_timeout: float = 0.0
    ) -> None:
        if max_concurrent < 1:
            raise AdmissionRejectedError(
                "admission controller needs at least one slot"
            )
        self.max_concurrent = max_concurrent
        self.queue_timeout = queue_timeout
        self._slots = threading.BoundedSemaphore(max_concurrent)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._admitted = 0
        self._rejected = 0
        self._waited_seconds = 0.0

    @contextmanager
    def admit(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Hold a query slot for the duration of the block."""
        wait = self.queue_timeout if timeout is None else timeout
        started = time.monotonic()
        acquired = self._slots.acquire(timeout=max(0.0, wait))
        waited = time.monotonic() - started
        registry = active_registry()
        if not acquired:
            with self._lock:
                self._rejected += 1
                self._waited_seconds += waited
            if registry is not None:
                registry.counter(
                    "repro_governance_admission_rejected_total",
                    "Queries rejected after the admission queue timeout",
                ).inc()
            raise AdmissionRejectedError(
                f"no query slot within {wait:.3f}s "
                f"({self.max_concurrent} already running)",
                waited=waited,
            )
        with self._lock:
            self._admitted += 1
            self._in_flight += 1
            self._waited_seconds += waited
        if registry is not None:
            registry.counter(
                "repro_governance_admitted_total",
                "Queries granted an admission slot",
            ).inc()
            registry.gauge(
                "repro_governance_queries_in_flight",
                "Queries currently holding an admission slot",
            ).set(self._in_flight)
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1
                in_flight = self._in_flight
            self._slots.release()
            if registry is not None:
                registry.gauge(
                    "repro_governance_queries_in_flight",
                    "Queries currently holding an admission slot",
                ).set(in_flight)

    def stats(self) -> AdmissionStats:
        with self._lock:
            return AdmissionStats(
                max_concurrent=self.max_concurrent,
                in_flight=self._in_flight,
                admitted=self._admitted,
                rejected=self._rejected,
                waited_seconds=self._waited_seconds,
            )
