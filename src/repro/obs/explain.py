"""EXPLAIN ANALYZE rendering over a recorded trace.

Given a traced query run (see ``run_query(..., trace=True)``), this
module renders the annotated execution tree the paper's Tables 1-3 are
about: per-operator tuples read, passes over each input, comparisons,
state high-water marks, wall time, and any resilience events — each
quantity the cell claims, measured on the run that just happened.

It sits *above* the engine: nothing in streams/storage/optimizer
imports this module.
"""

from __future__ import annotations

from typing import List, Optional

from .trace import Span, Tracer


def _ms(ns: int) -> str:
    return f"{ns / 1e6:.3f}ms"


def _operator_line(span: Span) -> str:
    """The per-operator annotation: the Table-1/2/3 quantities."""
    a = span.attributes
    parts: List[str] = []
    if "tuples_read_x" in a:
        passes = a.get("pass_reads_x") or []
        detail = (
            "+".join(str(n) for n in passes)
            if len(passes) > 1
            else str(a["tuples_read_x"])
        )
        parts.append(f"x={detail} tuples/{a.get('passes_x', '?')} pass")
    if a.get("tuples_read_y") or a.get("passes_y"):
        passes = a.get("pass_reads_y") or []
        detail = (
            "+".join(str(n) for n in passes)
            if len(passes) > 1
            else str(a["tuples_read_y"])
        )
        parts.append(f"y={detail} tuples/{a.get('passes_y', '?')} pass")
    if "output_count" in a:
        parts.append(f"out={a['output_count']}")
    if "comparisons" in a:
        parts.append(f"cmp={a['comparisons']}")
    if a.get("eviction_checks"):
        parts.append(f"evict={a['eviction_checks']}")
    if a.get("backend") and a["backend"] != "tuple":
        kernel = a.get("kernel")
        parts.append(
            f"via={a['backend']}:{kernel}" if kernel
            else f"via={a['backend']}"
        )
    workspace = a.get("workspace") or {}
    if workspace:
        parts.append(f"state-hw={workspace.get('high_water')}")
    state = a.get("state_high_water") or {}
    if state:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(state.items()))
        parts.append(f"[{inner}]")
    if "buffers" in a:
        parts.append(f"buffers={a['buffers']}")
    resilience = a.get("resilience") or {}
    if resilience and (
        resilience.get("faults_injected")
        or resilience.get("fallbacks")
        or resilience.get("quarantined")
    ):
        parts.append(
            "resilience(faults={faults_injected} retries={retries} "
            "quarantined={quarantined} passes_added={passes_added})".format(
                **{
                    k: resilience.get(k, 0)
                    for k in (
                        "faults_injected",
                        "retries",
                        "quarantined",
                        "passes_added",
                    )
                }
            )
        )
    return "  ".join(parts)


def _generic_line(span: Span) -> str:
    """Compact attribute rendering for non-operator spans."""
    skip = {"error"}
    parts = []
    for key in sorted(span.attributes):
        if key in skip:
            continue
        value = span.attributes[key]
        if isinstance(value, (dict, list)):
            continue
        text = str(value)
        if len(text) > 60:
            text = text[:57] + "..."
        parts.append(f"{key}={text}")
    return " ".join(parts)


def render_span_tree(tracer: Tracer) -> str:
    """The annotated execution tree, one line per span (plus indented
    event lines), depth-first in start order."""
    lines: List[str] = []
    for span, depth in tracer.walk():
        indent = "  " * depth
        annotation = (
            _operator_line(span)
            if span.name.startswith("operator:")
            else _generic_line(span)
        )
        suffix = f"  {annotation}" if annotation else ""
        error = span.attributes.get("error")
        if error:
            suffix += f"  !error={error}"
        lines.append(
            f"{indent}{span.name}  ({_ms(span.duration_ns)}){suffix}"
        )
        for event in span.events:
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(event["attributes"].items())
            )
            lines.append(f"{indent}  * {event['name']}  {attrs}")
    return "\n".join(lines)


def render_explain(
    tracer: Tracer,
    plan: Optional[object] = None,
    governance: Optional[dict] = None,
) -> str:
    """Full EXPLAIN ANALYZE text: the logical plan (when given)
    followed by the annotated span tree, plus the governance spend
    summary when the run was budgeted."""
    sections: List[str] = []
    if plan is not None and hasattr(plan, "explain"):
        sections.append("== logical plan ==")
        sections.append(plan.explain())
    sections.append("== execution trace (EXPLAIN ANALYZE) ==")
    sections.append(render_span_tree(tracer))
    if governance:
        sections.append(render_governance(governance))
    return "\n".join(sections)


def render_governance(governance: dict) -> str:
    """The governance spend summary (``CancellationToken.as_dict()``)
    as an EXPLAIN section: each budgeted resource with spend vs cap,
    unbudgeted ones with bare spend."""
    budget = governance.get("budget") or {}
    lines = ["== governance =="]

    def cap_of(key):
        cap = budget.get(key)
        return "unbounded" if cap is None else str(cap)

    deadline = budget.get("deadline_seconds")
    lines.append(
        f"elapsed={governance.get('elapsed_seconds')}s"
        + (f" of deadline={deadline}s" if deadline is not None else "")
    )
    lines.append(
        f"pages_read={governance.get('pages_read')}"
        f" (cap {cap_of('page_read_cap')})"
    )
    lines.append(
        f"workspace_peak={governance.get('workspace_peak')}"
        f" (cap {cap_of('workspace_tuple_cap')})"
    )
    lines.append(
        f"shm_bytes={governance.get('shm_bytes')}"
        f" (cap {cap_of('shm_byte_cap')})"
    )
    lines.append(
        f"checkpoints={governance.get('checkpoints')}"
        f" cancelled={governance.get('cancelled')}"
    )
    return "\n".join(lines)


def operator_summaries(tracer: Tracer) -> List[dict]:
    """One dict per operator span: name, wall time, and the operator
    row the span carries (``ProcessorMetrics.to_dict()``, the
    Table-1/2/3 quantities) — the trace summary benchmarks attach to
    their JSON."""
    return [
        {
            "operator": span.name[len("operator:"):],
            "wall_ms": round(span.duration_ns / 1e6, 3),
            **span.attributes,
        }
        for span in tracer.spans
        if span.name.startswith("operator:")
    ]


def shard_summaries(tracer: Tracer) -> List[dict]:
    """The shard row each parallel shard span (``shard:<i>``) carries
    (``ShardRun.as_dict()``), in shard order: the partition bounds,
    sweep quantities and resilience outcome EXPLAIN ANALYZE renders as
    the shard table."""
    return sorted(
        (
            dict(span.attributes)
            for span in tracer.spans
            if span.name.startswith("shard:")
        ),
        key=lambda row: row["shard"],
    )


def render_shard_table(tracer: Tracer) -> str:
    """A text table of the parallel shard breakdown, or ``""`` when
    the trace has no shard spans (serial run)."""
    shards = shard_summaries(tracer)
    if not shards:
        return ""
    columns = (
        ("shard", "shard"),
        ("owned", None),
        ("x", "x_tuples"),
        ("y", "y_tuples"),
        ("out", "output_count"),
        ("passes", None),
        ("wall_ms", "wall_ms"),
        ("faults", "faults"),
        ("resid", "residual_filtered"),
        ("att", "attempt"),
    )
    rows = []
    for s in shards:
        row = []
        for header, key in columns:
            if header == "owned":
                row.append(f"[{s['owned_lo']},{s['owned_hi']})")
            elif header == "passes":
                row.append(f"{s['passes_x'] or '?'}x/{s['passes_y'] or '?'}y")
            else:
                value = s.get(key)
                row.append("-" if value is None else str(value))
        rows.append(row)
    headers = [h for h, _ in columns]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    def fmt(values):
        return "  ".join(v.rjust(widths[i]) for i, v in enumerate(values))
    lines = ["== parallel shards ==", fmt(headers)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def parallel_scan_violations(tracer: Tracer) -> List[dict]:
    """Shard spans that ran more than one pass over either input while
    fault-free — each shard of a parallel plan is held to the same
    single-scan guarantee as the serial operator (the extended CI
    gate).  Shards that degraded, quarantined tuples, or absorbed
    injected faults legitimately re-scan and are excluded."""
    violations: List[dict] = []
    for summary in shard_summaries(tracer):
        passes_x = summary.get("passes_x") or 0
        passes_y = summary.get("passes_y") or 0
        fault_free = (
            not (summary.get("faults") or 0)
            and not (summary.get("quarantined") or 0)
            and not (summary.get("fallbacks") or 0)
            and not summary.get("degraded")
        )
        if fault_free and (passes_x > 1 or passes_y > 1):
            violations.append(summary)
    return violations


def single_scan_violations(tracer: Tracer) -> List[dict]:
    """Operator spans that report more than one pass over either input
    — empty on a fault-free run of single-scan algorithms (the CI
    gate)."""
    violations: List[dict] = []
    for summary in operator_summaries(tracer):
        passes_x = summary.get("passes_x") or 0
        passes_y = summary.get("passes_y") or 0
        if passes_x > 1 or passes_y > 1:
            violations.append(summary)
    return violations
