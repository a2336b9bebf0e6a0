"""Hierarchical, zero-dependency tracing.

A :class:`Tracer` records a tree of :class:`Span` objects — query ->
plan -> operator -> pass -> page I/O — each with monotonic start/end
timestamps (``time.perf_counter_ns``), structured attributes, and
instant events.  The module-level *active tracer* defaults to
:data:`NULL_TRACER`, whose ``span``/``event`` calls return a shared
no-op singleton and allocate no :class:`Span` objects at all, so
instrumented code can call it unconditionally on coarse paths and guard
only true hot loops with ``tracer.enabled``.

Exporters:

* :func:`to_jsonl` — one JSON object per finished span (and one per
  instant event), self-describing and grep-friendly;
* :func:`to_chrome_trace` — the Chrome ``chrome://tracing`` /  Perfetto
  trace-event format (``{"traceEvents": [...]}`` with ``ph: "X"``
  complete events), so a query run can be inspected on a real timeline.

Usage::

    tracer = Tracer("fig5")
    with tracer.span("query", source="...") as q:
        with tracer.span("operator:contain-join") as op:
            op.set(passes_x=1)
            tracer.event("stream.pass", stream="X", read=1000)
    json.dump(to_chrome_trace(tracer), fh)

Spans must nest strictly (the tracer keeps a stack); interleaved
lifetimes should be modelled as events instead.  The tracer is not
thread-safe — one tracer per executing query.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

#: Process-wide count of real Span objects ever constructed.  The
#: no-op-overhead test pins this: running instrumented code under the
#: null tracer must not move it (counter-based guard, not timing).
_SPANS_CREATED = 0


def span_creation_count() -> int:
    """How many real :class:`Span` objects were ever created."""
    return _SPANS_CREATED


class Span:
    """One timed node of the trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "attributes",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        attributes: Dict[str, Any],
    ) -> None:
        global _SPANS_CREATED
        _SPANS_CREATED += 1
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attributes = attributes
        self.events: List[dict] = []

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) structured attributes."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> "Span":
        """Record an instant event inside this span."""
        self.events.append(
            {
                "name": name,
                "ts_ns": time.perf_counter_ns() - self._tracer.origin_ns,
                "attributes": attributes,
            }
        )
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    @property
    def duration_ns(self) -> int:
        """Span duration (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attributes": self.attributes,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_ns}ns)"
        )


class _NullSpan:
    """The shared do-nothing span; every null ``span()`` call returns
    this one object, so the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None

    @property
    def duration_ns(self) -> int:
        return 0


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a strictly nested tree of spans and instant events."""

    #: Fast flag instrumented hot paths check before doing any work.
    enabled: bool = True

    def __init__(self, name: str = "trace", io_events: bool = False) -> None:
        self.name = name
        #: When True, the storage layer emits one event per page read —
        #: the finest span level; off by default because page events on
        #: large scans dwarf everything else in the trace.
        self.io_events = io_events
        self.origin_ns = time.perf_counter_ns()
        self._next_id = 1
        self._stack: List[Span] = []
        #: Finished spans, in completion order.
        self.spans: List[Span] = []
        #: Events emitted while no span was open.
        self.orphan_events: List[dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Open a child of the current span (context-manager)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self,
            name,
            self._next_id,
            parent,
            time.perf_counter_ns() - self.origin_ns,
            attributes,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instant event on the current span (or the tracer
        itself when no span is open)."""
        if self._stack:
            self._stack[-1].event(name, **attributes)
        else:
            self.orphan_events.append(
                {
                    "name": name,
                    "ts_ns": time.perf_counter_ns() - self.origin_ns,
                    "attributes": attributes,
                }
            )

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} finished out of order; spans must "
                "nest strictly (use events for interleaved lifetimes)"
            )
        self._stack.pop()
        span.end_ns = time.perf_counter_ns() - self.origin_ns
        self.spans.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def find(self, name: str) -> List[Span]:
        """All finished spans with this exact name."""
        return [s for s in self.spans if s.name == name]

    def roots(self) -> List[Span]:
        """Finished spans with no parent, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: s.start_ns,
        )

    def children_of(self, span: Span) -> List[Span]:
        """Finished direct children of ``span``, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: s.start_ns,
        )

    def walk(self) -> Iterator[tuple]:
        """Depth-first (span, depth) over the finished-span forest."""

        def descend(span: Span, depth: int) -> Iterator[tuple]:
            yield span, depth
            for child in self.children_of(span):
                yield from descend(child, depth + 1)

        for root in self.roots():
            yield from descend(root, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer({self.name!r}, {len(self.spans)} finished, "
            f"{len(self._stack)} open)"
        )


class NullTracer:
    """The always-installed default: every operation is a no-op and
    ``span()`` returns the shared :data:`NULL_SPAN` singleton."""

    __slots__ = ()
    enabled: bool = False
    io_events: bool = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        return None

    @property
    def spans(self) -> tuple:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


NULL_TRACER = NullTracer()

#: The process-local active tracer instrumentation hooks consult.
_ACTIVE: "Tracer | NullTracer" = NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The currently active tracer (the no-op one by default)."""
    return _ACTIVE


def set_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Install ``tracer`` (``None`` -> the null tracer) as the active
    tracer, returning the previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def to_jsonl(tracer: Tracer) -> str:
    """One JSON object per finished span, in completion order, followed
    by any orphan events.  Attributes are serialised with
    ``default=repr`` so exotic values degrade to strings, never crash
    the exporter."""
    lines = []
    for span in tracer.spans:
        record = dict(span.as_dict(), kind="span", trace=tracer.name)
        lines.append(json.dumps(record, sort_keys=True, default=repr))
    for event in tracer.orphan_events:
        record = dict(event, kind="event", trace=tracer.name)
        lines.append(json.dumps(record, sort_keys=True, default=repr))
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(tracer: Tracer) -> dict:
    """The Chrome trace-event JSON object for ``chrome://tracing`` /
    Perfetto: complete (``ph: "X"``) events for spans, instant
    (``ph: "i"``) events for span events, timestamps in microseconds.

    Every span ran in (or, for a process-mode shard, was emitted by)
    the exporting process, so every event carries the exporter's own
    pid/tid, named by one ``process_name`` and one ``thread_name``
    metadata event: the whole query is one track.
    """
    pid = os.getpid()
    tid = threading.get_native_id()
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro:{tracer.name}"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "main"},
        },
    ]
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.name.partition(":")[0],
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": _jsonable(span.attributes),
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": event["ts_ns"] / 1000.0,
                    "args": _jsonable(event["attributes"]),
                }
            )
    for event in tracer.orphan_events:
        events.append(
            {
                "name": event["name"],
                "cat": "event",
                "ph": "i",
                "s": "g",
                "pid": pid,
                "tid": tid,
                "ts": event["ts_ns"] / 1000.0,
                "args": _jsonable(event["attributes"]),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(value: Any) -> Any:
    """Round-trip ``value`` through JSON (repr-ing what doesn't fit) so
    exporter output is always valid."""
    return json.loads(json.dumps(value, default=repr))
