"""EXPLAIN ANALYZE: a query result rendered as text.

Everything printed is read off the result, never off a trace: the
logical plan, one block per join row (``StreamJoinInfo.as_dict()``: the
chosen cell's measured Tables 1-3 counts, each ranked alternative's
``expected_workspace`` / ``expected_output`` beside the measured
high-water and ``output_rows``), the join's shard rows
(``ShardRun.as_dict()``), the conventional engine's ``EngineStats`` and
the governance spend.  So a traced and an untraced run print the same
text apart from the times, each a ``<n>ms`` token.  The audit record's
``stream_joins`` and ``shards`` are those same dicts, and
:func:`~repro.obs.audit.render_record` renders them with the same
functions.

It sits *above* the engine: nothing in streams/storage/optimizer
imports this module.
"""

from __future__ import annotations

from typing import List, Sequence


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _reads(metrics: dict, side: str) -> str:
    """``<reads> tuples/<passes> pass``; a multi-pass run shows each
    pass's reads (``200+200 tuples/2 pass``)."""
    passes = metrics[f"pass_reads_{side}"]
    reads = (
        "+".join(map(str, passes))
        if len(passes) > 1
        else str(metrics[f"tuples_read_{side}"])
    )
    return f"{side}={reads} tuples/{metrics[f'passes_{side}']} pass"


def _recovered(resilience: dict) -> bool:
    """Did the run fall back?  Only a fallback legitimately costs an
    extra pass."""
    return bool(resilience.get("fallbacks"))


def _measured(metrics: dict) -> str:
    """The operator row: the Table-1/2/3 quantities the run measured."""
    parts = [_reads(metrics, "x")]
    if metrics["tuples_read_y"] or metrics["passes_y"]:
        parts.append(_reads(metrics, "y"))
    parts += [
        f"out={metrics['output_count']}",
        f"cmp={metrics['comparisons']}",
        f"evict={metrics['eviction_checks']}",
        f"state-hw={metrics['workspace_high_water']}",
    ]
    if metrics["state_high_water"]:
        inner = ", ".join(
            f"{k}={v}" for k, v in sorted(metrics["state_high_water"].items())
        )
        parts.append(f"[{inner}]")
    parts.append(f"buffers={metrics['buffers']}")
    kernel = metrics["kernel"]
    parts.append(
        f"via={metrics['backend']}" + (f":{kernel}" if kernel else "")
    )
    resilience = metrics["resilience"] or {}
    if _recovered(resilience):
        parts.append(
            f"resilience(fallbacks={len(resilience['fallbacks'])} "
            f"passes_added={resilience['passes_added']})"
        )
    return "  ".join(parts)


def _alternative(alternative: dict) -> List[str]:
    """One ranked alternative as table cells: what it is, its cost, and
    the cost model's expected workspace and output."""
    if alternative["kind"] == "nested-loop":
        label = "nested-loop"
    else:
        kind = (
            "stream"
            if alternative["kind"] == "stream"
            else f"parallel[{alternative['workers']}]-stream"
        )
        sorts = "".join(
            f", sort {side.upper()}"
            for side in ("x", "y")
            if alternative[f"sort_{side}"]
        )
        label = (
            f"{kind}({alternative['backend']}) "
            f"[{alternative['x_order']} / {alternative['y_order']}]{sorts}"
        )
    breakdown = alternative["cost_breakdown"]
    return [
        label,
        f"{alternative['estimated_cost']:.1f}",
        *(
            "-" if key not in breakdown else f"{breakdown[key]:.1f}"
            for key in ("expected_workspace", "expected_output")
        ),
    ]


def _table(rows: List[List[str]]) -> List[str]:
    """Rows of cells, the first left-aligned, the rest right-aligned."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(
            cell.ljust(widths[0]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ).rstrip()
        for row in rows
    ]


def render_join(join: dict, number: int) -> List[str]:
    """One join row's block: the chosen cell and its measured counts,
    what its operands went through, a sharded plan's partition, and
    every ranked alternative's estimates beside the measured values."""
    metrics = join["metrics"]
    lines = [
        f"join {number}: {join['operator']}"
        + ("  (sides swapped)" if join["swapped"] else "")
        + f"  recovery={join['recovery']}  rows={join['output_rows']}"
        + f"  wall={_ms(join['wall_seconds'])}",
        f"  chosen: {join['chosen']}",
        f"  measured: {_measured(metrics)}",
        f"  operands: tuples_built={join.get('tuples_built', '-')}"
        f"  sorted={join.get('sorted', '-')}"
        f"  orders_reused={join.get('orders_reused', '-')}",
    ]
    parallel = join["parallel"]
    if parallel:
        lines.append(
            f"  parallel: mode={parallel['mode']}"
            f"  shards={parallel['effective_shards']}"
            f"  workers={parallel['workers']}"
            f"  skew={parallel['skew_ratio']}"
            f"  replicated={parallel['replicated_total']}"
        )
    if join["containment"]:
        lines.append(
            "  containment: "
            + "  ".join(
                f"{k}={v}" for k, v in sorted(join["containment"].items())
            )
        )
    rows = [["rank  alternative", "cost", "exp-workspace", "exp-output"]]
    for rank, alternative in enumerate(join["alternatives"], 1):
        label, *numbers = _alternative(alternative)
        rows.append([f"{rank:>4}  {label}", *numbers])
    rows.append(
        [
            "      measured",
            "",
            str(metrics["workspace_high_water"]),
            str(join["output_rows"]),
        ]
    )
    lines.extend(f"  {line}" for line in _table(rows))
    return lines


def render_shard(shard: dict) -> str:
    """One shard row: what the shard was cut to, its sweep and its own
    recovery ladder."""
    return (
        f"shard {shard['shard']}: owned=[{shard['owned_lo']},"
        f"{shard['owned_hi']})  x={shard['x_tuples']}  y={shard['y_tuples']}"
        f"  out={shard['output_count']}"
        f"  passes={shard['passes_x']}x/{shard['passes_y']}y"
        f"  evict={shard['eviction_checks']}"
        f"  resid={shard['residual_filtered']}  attempt={shard['attempt']}"
        f"  wall={shard['wall_ms']:.3f}ms"
    )


def render_explain(result) -> str:
    """The full EXPLAIN ANALYZE text of a ``run_query`` (or
    ``execute_hybrid``) result."""
    sections: List[str] = []
    plan = getattr(result, "plan", None)
    if plan is not None:
        sections += ["== logical plan ==", plan.explain()]
    sections.append("== stream joins ==")
    joins = [info.as_dict() for info in result.stream_joins or ()]
    for number, join in enumerate(joins, 1):
        sections += render_join(join, number)
        sections += [f"  {render_shard(shard)}" for shard in join["shards"]]
    if not joins:
        sections.append("(none)")
    sections.append("== conventional engine ==")
    sections.append(
        "  ".join(f"{k}={v}" for k, v in vars(result.stats).items())
    )
    governance = getattr(result, "governance", None)
    if governance:
        sections.append(_governance(governance))
    return "\n".join(sections)


def _governance(governance: dict) -> str:
    """The governance spend summary (``CancellationToken.as_dict()``):
    each budgeted resource with spend vs cap, unbudgeted ones with bare
    spend."""
    budget = governance["budget"] or {}

    def cap(key):
        value = budget.get(key)
        return "unbounded" if value is None else str(value)

    deadline = budget.get("deadline_seconds")
    return "\n".join(
        [
            "== governance ==",
            f"elapsed={_ms(governance['elapsed_seconds'])}"
            + (f" of deadline={deadline}s" if deadline is not None else ""),
            f"pages_read={governance['pages_read']}"
            f" (cap {cap('page_read_cap')})",
            f"workspace_peak={governance['workspace_peak']}"
            f" (cap {cap('workspace_tuple_cap')})",
            f"checkpoints={governance['checkpoints']}"
            f" cancelled={governance['cancelled']}",
        ]
    )


def scan_violations(joins: Sequence[dict]) -> List[str]:
    """The single-scan gate over join rows (``StreamJoinInfo.as_dict()``)
    and their shard rows: one line per row that read an input more than
    once without falling back.  A row whose run fell back legitimately
    re-scans and is excluded — the same rule for a join and for each
    shard, which the Tables 1-3 bounds hold per shard."""
    violations: List[str] = []
    for join in joins:
        metrics = join["metrics"]
        rows = [(join["operator"], metrics, metrics["resilience"] or {})]
        rows += [
            (f"{join['operator']} shard {shard['shard']}", shard, shard)
            for shard in join["shards"]
        ]
        violations += [
            f"{label} reported passes_x={row['passes_x']} "
            f"passes_y={row['passes_y']} without recovery"
            for label, row, resilience in rows
            if not _recovered(resilience)
            and max(row["passes_x"], row["passes_y"]) > 1
        ]
    return violations
