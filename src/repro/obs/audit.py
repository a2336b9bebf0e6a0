"""Per-query audit records: one append-only JSONL line per run.

The always-on-service direction needs a durable, greppable account of
every query the engine ran — what was asked, what plan shape ran it,
which workers touched it, what it cost, and what went wrong — separate
from the (optional, verbose) trace artifacts.  Each ``run_query(...,
audit=...)`` call appends exactly one self-describing JSON object to
the audit log, success or failure:

* identity — ``query_id``, wall-clock timestamp, schema version;
* reproducibility — the normalised query text, a hash of the explained
  logical plan, and a hash of the operator registry (two runs with
  equal hashes executed the same plan shape against the same table of
  algorithms);
* execution — backend, row count, one join row per stream join (the
  measured operator row next to every alternative the planner costed),
  the shard rows (both as EXPLAIN ANALYZE renders them), containment
  counters (retries / worker deaths / pool fallbacks),
  and the governance spend summary when budgeted — all read off the
  result, so the same traced or untraced;
* telemetry — a compact trace summary (span count, root count, wall
  time) when the run was traced; the worker pids are on the shard rows.

The schema is versioned (:data:`AUDIT_SCHEMA_VERSION`);
:func:`validate_record` checks a parsed record against it and is wired
into CI.  ``python -m repro audit`` renders/tails/validates a log.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional

from .explain import render_join, render_shard

AUDIT_SCHEMA_VERSION = 1

#: field -> (required, allowed types).  ``dict``/``list`` fields may be
#: None when the run had nothing to report; identity fields may not.
AUDIT_SCHEMA: Dict[str, tuple] = {
    "schema_version": (True, (int,)),
    "query_id": (True, (str,)),
    "ts_unix": (True, (int, float)),
    "status": (True, (str,)),
    "query": (True, (str,)),
    "registry_hash": (True, (str,)),
    "plan_hash": (False, (str, type(None))),
    "backend": (False, (str, type(None))),
    "rows": (False, (int, type(None))),
    "error": (False, (dict, type(None))),
    "stream_joins": (False, (list, type(None))),
    "shards": (False, (list, type(None))),
    "containment": (False, (dict, type(None))),
    "governance": (False, (dict, type(None))),
    "trace": (False, (dict, type(None))),
}

_STATUSES = ("ok", "error")

#: Monotone per-process sequence folded into query ids.
_SEQUENCE = 0


def _next_query_id(source: str) -> str:
    global _SEQUENCE
    _SEQUENCE += 1
    digest = hashlib.sha256(
        # Audit ids are the sanctioned wall-clock exemption: they must
        # be globally unique across restarts, which monotonic time
        # (process-relative) cannot provide.
        f"{os.getpid()}:{_SEQUENCE}:{time.time_ns()}:{source}".encode()
    ).hexdigest()[:12]
    return f"q{_SEQUENCE:04d}-{digest}"


def normalize_query(source: str, limit: int = 500) -> str:
    """Whitespace-collapsed query text, bounded for the log line."""
    text = " ".join(source.split())
    return text[:limit]


def plan_hash(plan: Optional[object]) -> Optional[str]:
    """SHA-256 of the explained logical plan (shape identity)."""
    if plan is None or not hasattr(plan, "explain"):
        return None
    return hashlib.sha256(plan.explain().encode()).hexdigest()[:16]


def registry_hash() -> str:
    """SHA-256 over a stable description of the operator registry —
    every cell's operator/orders/state class/backends.  Changes exactly
    when the table of available algorithms changes."""
    from ..streams.registry import TemporalOperator, entries_for

    lines: List[str] = []
    for operator in sorted(TemporalOperator, key=lambda o: o.value):
        for entry in entries_for(operator):
            lines.append(
                f"{entry.operator.value}|{entry.x_order}|{entry.y_order}"
                f"|{entry.state_class}|{','.join(entry.backends)}"
                f"|{entry.mirrored}|{entry.order_free}"
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
def build_record(
    source: str,
    result: Optional[object] = None,
    error: Optional[BaseException] = None,
    query_id: Optional[str] = None,
) -> dict:
    """One audit record for a finished (or failed) ``run_query`` call.

    ``result`` is the :class:`~repro.query.runner.QueryResult` on
    success; ``error`` the raised exception on failure.  What ran is
    read off the result's join rows (``StreamJoinInfo.as_dict()``) —
    never off the trace, so a record says the same thing traced or
    untraced.  A run without a tracer leaves ``trace`` ``None``.
    """
    joins = [
        info.as_dict() for info in getattr(result, "stream_joins", None) or ()
    ]
    # Schema v1 lists every join's shard rows in one top-level table.
    shards = [row for join in joins for row in join.pop("shards")]
    containment: Dict[str, int] = {}
    for join in joins:
        for key, value in (join["containment"] or {}).items():
            containment[key] = containment.get(key, 0) + value
    backends = sorted({join["metrics"]["backend"] for join in joins})
    return {
        "schema_version": AUDIT_SCHEMA_VERSION,
        "query_id": query_id or _next_query_id(source),
        # Audit-record timestamps are *meant* to be wall-clock (they
        # anchor the record to operator time for forensics), the one
        # sanctioned exemption to the monotonic-only rule.
        "ts_unix": round(time.time(), 3),
        "status": "error" if error is not None else "ok",
        "query": normalize_query(source),
        "registry_hash": registry_hash(),
        "plan_hash": plan_hash(getattr(result, "plan", None)),
        "backend": ",".join(backends) or None,
        "rows": len(result.rows) if result is not None else None,
        "error": (
            {"type": type(error).__name__, "message": str(error)[:500]}
            if error is not None
            else None
        ),
        "stream_joins": joins or None,
        "shards": shards or None,
        "containment": containment or None,
        "governance": getattr(result, "governance", None),
        "trace": _trace_summary(getattr(result, "trace", None)),
    }


def _trace_summary(trace: Optional[object]) -> Optional[dict]:
    if trace is None or not getattr(trace, "spans", None):
        return None
    spans = trace.spans
    roots = [s for s in spans if s.parent_id is None]
    wall_ns = max((s.end_ns or 0) for s in spans) - min(
        s.start_ns for s in spans
    )
    return {
        "name": getattr(trace, "name", None),
        "spans": len(spans),
        "roots": len(roots),
        "wall_ms": round(wall_ns / 1e6, 3),
    }


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_record(record: Any) -> List[str]:
    """Problems with ``record`` against the versioned schema (empty
    list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    version = record.get("schema_version")
    if not isinstance(version, int) or version < 1:
        problems.append(f"schema_version {version!r} is not a version")
    elif version > AUDIT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than this reader "
            f"({AUDIT_SCHEMA_VERSION})"
        )
    for field, (required, types) in AUDIT_SCHEMA.items():
        if field not in record:
            if required:
                problems.append(f"missing required field {field!r}")
            continue
        value = record[field]
        if not isinstance(value, types):
            problems.append(
                f"field {field!r} is {type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    status = record.get("status")
    if isinstance(status, str) and status not in _STATUSES:
        problems.append(f"status {status!r} not in {_STATUSES}")
    if record.get("status") == "error" and not record.get("error"):
        problems.append("status=error but no error field")
    for index, shard in enumerate(record.get("shards") or []):
        if not isinstance(shard, dict):
            problems.append(f"shards[{index}] is not an object")
            continue
        if not isinstance(shard.get("shard"), int):
            problems.append(f"shards[{index}] has no integer 'shard'")
        if not isinstance(shard.get("attempt"), int):
            problems.append(f"shards[{index}] has no integer 'attempt'")
    return problems


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
class AuditLog:
    """Append-only JSONL audit log at a filesystem path."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)

    def append(self, record: dict) -> None:
        """Append one record as a single JSON line (atomic enough for
        a single process: one ``write`` call per record)."""
        line = json.dumps(record, sort_keys=True, default=repr)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def records(self) -> List[dict]:
        """All parsed records (skipping blank lines)."""
        out: List[dict] = []
        if not os.path.exists(self.path):
            return out
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def tail(self, count: int = 10) -> List[dict]:
        records = self.records()
        return records[-count:] if count > 0 else []


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_record(record: dict) -> str:
    """A human-readable rendering of one audit record; its join and
    shard rows as EXPLAIN ANALYZE renders them."""
    lines: List[str] = []
    status = record.get("status", "?")
    lines.append(
        f"[{record.get('query_id', '?')}] {status.upper()}  "
        f"rows={record.get('rows')}  backend={record.get('backend') or '-'}"
    )
    lines.append(f"  query: {record.get('query', '')[:120]}")
    lines.append(
        f"  plan={record.get('plan_hash') or '-'}  "
        f"registry={record.get('registry_hash') or '-'}"
    )
    error = record.get("error")
    if error:
        lines.append(f"  error: {error.get('type')}: {error.get('message')}")
    for number, join in enumerate(record.get("stream_joins") or [], 1):
        lines.extend(f"  {line}" for line in render_join(join, number))
    shards = record.get("shards") or []
    if shards:
        attempts = sum((s.get("attempt") or 0) + 1 for s in shards)
        lines.append(
            f"  shards: {len(shards)} ({attempts} dispatch attempt(s))"
        )
        lines.extend(f"    {render_shard(shard)}" for shard in shards)
    governance = record.get("governance")
    if governance:
        lines.append(
            f"  governance: elapsed={governance.get('elapsed_seconds')}s "
            f"pages={governance.get('pages_read')} "
            f"workspace_peak={governance.get('workspace_peak')} "
            f"cancelled={governance.get('cancelled')}"
        )
    trace = record.get("trace")
    if trace:
        # The pids are the shard rows'; an older v1 record's
        # ``trace.worker_pids`` is ignored.
        pids = sorted({s["pid"] for s in shards if s.get("pid") is not None})
        lines.append(
            f"  trace: {trace.get('spans')} spans, "
            f"{trace.get('wall_ms')}ms, workers={pids}"
        )
    return "\n".join(lines)


__all__ = [
    "AUDIT_SCHEMA",
    "AUDIT_SCHEMA_VERSION",
    "AuditLog",
    "build_record",
    "normalize_query",
    "plan_hash",
    "registry_hash",
    "render_record",
    "validate_record",
]
