"""Command-line interface: ``python -m repro``.

Subcommands:

* ``query`` — run a Quel-like query against CSV-backed temporal
  relations::

      python -m repro query --relation Faculty=faculty.csv \\
          "range of f is Faculty retrieve (N = f.Name) \\
           where f.Rank = 'Full'"

  ``--semantic`` additionally runs the Section-5 optimizer and prints
  its report; ``--explain`` prints the executed plan.

* ``demo`` — the Superstar walkthrough on generated data (no files
  needed).

* ``audit`` — render, tail, or schema-validate a per-query JSONL audit
  log written by ``run_query(..., audit=...)`` / ``--audit-log``::

      python -m repro audit audit.jsonl --tail 5 --validate

* ``explain-analyze`` — run a query with the stream engine and print
  its EXPLAIN ANALYZE text, rendered from the result: each stream
  join's measured Tables 1-3 counts beside every ranked alternative's
  estimates, its shard rows, and the conventional engine's counters.
  Defaults to a contain-join over generated Faculty data; a trace is
  recorded only when a trace file is asked for::

      python -m repro.cli explain-analyze \\
          --chrome-trace trace.json

  ``--check-single-scan`` exits non-zero if any join row or shard row
  reports more than one pass over an input without falling back (the
  CI gate for the paper's single-scan claims).  The Fig-8 Superstar
  strategies are ``demo``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .errors import ReproError
from .io import load_temporal_csv
from .query.runner import run_query

#: Default query of ``explain-analyze``, serial or parallel: a
#: shardable two-variable contain join over the generated Faculty data.
PARALLEL_DEFAULT_QUEL = """
range of x is Faculty
range of y is Faculty
retrieve (Outer = x.Name, Inner = y.Name)
where x.ValidFrom < y.ValidFrom and y.ValidTo < x.ValidTo
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Temporal query processing (reproduction of Leung & Muntz, "
            "ICDE 1990)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="run a Quel-like query over CSV relations"
    )
    query.add_argument("text", help="the query text")
    query.add_argument(
        "--relation",
        "-r",
        action="append",
        default=[],
        metavar="NAME=FILE.csv",
        help="bind a relation name to a temporal CSV file (repeatable)",
    )
    query.add_argument(
        "--semantic",
        action="store_true",
        help="apply semantic optimization and print its report",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the executed logical plan",
    )
    query.add_argument(
        "--no-rewrite",
        action="store_true",
        help="skip the conventional Figure-3 rewrites",
    )
    _add_governance_arguments(query)
    _add_audit_argument(query)

    commands.add_parser(
        "demo", help="run the Superstar demonstration on generated data"
    )

    audit = commands.add_parser(
        "audit",
        help="render/tail/validate a per-query JSONL audit log",
    )
    audit.add_argument("path", help="the audit JSONL file")
    audit.add_argument(
        "--tail",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N records",
    )
    audit.add_argument(
        "--validate",
        action="store_true",
        help="check every record against the versioned audit schema; "
        "exit non-zero on any problem",
    )
    audit.add_argument(
        "--json",
        action="store_true",
        help="print raw JSON records instead of the rendered summary",
    )

    explain = commands.add_parser(
        "explain-analyze",
        help=(
            "run a query with the stream engine and print its EXPLAIN "
            "ANALYZE text: measured counts beside the planner's estimates "
            "(defaults to a contain-join over generated Faculty data)"
        ),
    )
    explain.add_argument(
        "text",
        nargs="?",
        default=None,
        help="query text (default: a contain-join of Faculty with itself)",
    )
    explain.add_argument(
        "--relation",
        "-r",
        action="append",
        default=[],
        metavar="NAME=FILE.csv",
        help="bind a relation name to a temporal CSV file (repeatable); "
        "without bindings a Faculty relation is generated",
    )
    explain.add_argument(
        "--faculty",
        type=int,
        default=200,
        metavar="N",
        help="faculty members in the generated relation (default 200)",
    )
    explain.add_argument(
        "--seed", type=int, default=7, help="workload seed (default 7)"
    )
    explain.add_argument(
        "--semantic",
        action="store_true",
        help="also run the Section-5 semantic optimizer",
    )
    explain.add_argument(
        "--recovery",
        choices=["strict", "degrade"],
        default="strict",
        help="the recovery policy stream joins run under (default: "
        "strict)",
    )
    explain.add_argument(
        "--io-events",
        action="store_true",
        help="record one trace event per page read in the trace file "
        "(verbose)",
    )
    explain.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="trace the run and write the Chrome trace-event JSON "
        "(chrome://tracing)",
    )
    explain.add_argument(
        "--jsonl",
        metavar="PATH",
        help="trace the run and write the span log as JSONL",
    )
    explain.add_argument(
        "--check-single-scan",
        action="store_true",
        help="exit non-zero if any stream join or parallel shard "
        "reports passes > 1 without falling back",
    )
    explain.add_argument(
        "--parallelism",
        type=int,
        default=None,
        metavar="K",
        help="let the planner shard stream joins over up to K workers "
        "(time-domain range partitioning) and render the per-shard "
        "breakdown",
    )
    _add_governance_arguments(explain)
    _add_audit_argument(explain)
    return parser


def _add_audit_argument(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--audit-log",
        metavar="PATH",
        default=None,
        help="append one JSONL audit record for this query (query id, "
        "plan/registry hashes, shard attempt table, governance spend)",
    )


def _add_governance_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; past it the next governance "
        "checkpoint aborts the query with a DeadlineExceededError",
    )
    command.add_argument(
        "--workspace-budget",
        type=int,
        default=None,
        metavar="TUPLES",
        help="governance cap on concurrent workspace state tuples; a "
        "breach aborts the query with a BudgetExceededError under every "
        "recovery policy (it is not the paper's workspace, which "
        "DEGRADE would spill)",
    )
    command.add_argument(
        "--page-budget",
        type=int,
        default=None,
        metavar="PAGES",
        help="cap on physical heap-file page reads",
    )


def _budget_from_args(args):
    """A QueryBudget from the governance flags, or ``None`` when no
    flag was given (the ungoverned fast path stays flag-free)."""
    if (
        args.deadline is None
        and args.workspace_budget is None
        and args.page_budget is None
    ):
        return None
    from .governance import QueryBudget

    return QueryBudget(
        deadline_seconds=args.deadline,
        workspace_tuple_cap=args.workspace_budget,
        page_read_cap=args.page_budget,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "query":
            return _run_query_command(args)
        if args.command == "explain-analyze":
            return _run_explain_analyze_command(args)
        if args.command == "audit":
            return _run_audit_command(args)
        return _run_demo_command()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_catalog(bindings: Sequence[str]) -> Optional[dict]:
    """The ``--relation NAME=FILE.csv`` bindings as a catalog, or
    ``None`` (reported on stderr) when one is malformed."""
    catalog = {}
    for binding in bindings:
        name, eq, path = binding.partition("=")
        if not eq or not name or not path:
            print(
                f"error: --relation needs NAME=FILE.csv, got {binding!r}",
                file=sys.stderr,
            )
            return None
        catalog[name] = load_temporal_csv(path, relation_name=name)
    return catalog


def _run_query_command(args) -> int:
    catalog = _load_catalog(args.relation)
    if catalog is None:
        return 2
    result = run_query(
        args.text,
        catalog,
        rewrite=not args.no_rewrite,
        semantic=args.semantic,
        budget=_budget_from_args(args),
        audit=args.audit_log,
    )
    if args.explain:
        print(result.plan.explain())
        print()
    if args.semantic and result.semantic_report is not None:
        report = result.semantic_report
        removed = [
            str(c) for finding in report.findings for c in finding.removed
        ]
        print(f"semantic optimizer removed {len(removed)} conjunct(s)")
        for text in removed:
            print(f"  - {text}")
        for containment in report.containments():
            print(
                "  recognised contained-semijoin: "
                f"[{containment.start}, {containment.end}) inside "
                f"{containment.container}"
            )
        print()
    print(",".join(result.schema.attributes))
    for row in result.rows:
        print(",".join(str(v) for v in row))
    print(
        f"-- {len(result.rows)} row(s); {result.stats.scans_started} "
        f"scan(s), {result.stats.comparisons} comparison(s)",
        file=sys.stderr,
    )
    return 0


def _run_explain_analyze_command(args) -> int:
    from .obs import Tracer, to_chrome_trace, to_jsonl
    from .obs.explain import render_explain, scan_violations
    from .resilience.recovery import RecoveryPolicy

    catalog = _load_catalog(args.relation)
    if catalog is None:
        return 2
    if not catalog:
        from .workload import FacultyWorkload

        catalog["Faculty"] = FacultyWorkload(
            faculty_count=args.faculty, continuous=True, full_fraction=1.0
        ).generate(seed=args.seed)
    # The text is rendered from the result; a trace is only for a file.
    tracer = None
    if args.chrome_trace or args.jsonl:
        tracer = Tracer("explain-analyze", io_events=args.io_events)
    result = run_query(
        args.text or PARALLEL_DEFAULT_QUEL,
        catalog,
        semantic=args.semantic,
        streams=True,
        recovery=RecoveryPolicy(args.recovery),
        trace=tracer,
        parallelism=args.parallelism,
        budget=_budget_from_args(args),
        audit=args.audit_log,
    )

    print(render_explain(result))
    print(f"\n-- {len(result.rows)} row(s)", file=sys.stderr)

    if args.chrome_trace:
        with open(args.chrome_trace, "w") as fh:
            json.dump(to_chrome_trace(tracer), fh)
        print(f"chrome trace written to {args.chrome_trace}", file=sys.stderr)
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(to_jsonl(tracer))
        print(f"span log written to {args.jsonl}", file=sys.stderr)

    if args.check_single_scan:
        violations = scan_violations(
            [info.as_dict() for info in result.stream_joins]
        )
        for violation in violations:
            print(f"single-scan violation: {violation}", file=sys.stderr)
        if violations:
            return 1
        print("single-scan check passed", file=sys.stderr)
    return 0


def _run_audit_command(args) -> int:
    from .obs.audit import AuditLog, render_record, validate_record

    if not os.path.exists(args.path):
        print(f"error: no audit log at {args.path}", file=sys.stderr)
        return 2
    log = AuditLog(args.path)
    shown = log.records() if args.tail is None else log.tail(args.tail)
    problems_total = 0
    for record in shown:
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(render_record(record))
        if args.validate:
            for problem in validate_record(record):
                problems_total += 1
                print(
                    f"  INVALID [{record.get('query_id', '?')}]: "
                    f"{problem}",
                    file=sys.stderr,
                )
    if args.validate:
        verdict = (
            "all valid" if not problems_total
            else f"{problems_total} problem(s)"
        )
        print(
            f"-- validated {len(shown)} record(s): {verdict}",
            file=sys.stderr,
        )
    return 1 if problems_total else 0


def _run_demo_command() -> int:
    from .superstar import all_strategies
    from .workload import FacultyWorkload

    faculty = FacultyWorkload(
        faculty_count=200, continuous=True, full_fraction=1.0
    ).generate(seed=7)
    print(
        f"Superstar demo on {len(faculty)} generated faculty tuples "
        f"({len(faculty.surrogates())} members)\n"
    )
    for result in all_strategies(faculty):
        print(
            f"{result.strategy:26s} scans={result.faculty_scans} "
            f"comparisons={result.comparisons:8d} "
            f"peak-state={result.workspace_high_water}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
