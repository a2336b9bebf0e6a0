"""CLI: ``python -m repro.analysis [paths...]``.

Exit codes (CI contract):

* 0 — clean (no findings; with ``--check-plan``, all invariants hold;
  with ``--strict-noqa``, no unused suppressions)
* 1 — findings / plan mismatches / unused suppressions under
  ``--strict-noqa``
* 2 — usage or internal error

Examples::

    python -m repro.analysis src/                # lint the tree
    python -m repro.analysis src/ --json out.json
    python -m repro.analysis --select REP001,REP006 src/
    python -m repro.analysis --list-rules
    python -m repro.analysis --check-plan        # Tables 1-3 theorem check
    python -m repro.analysis src/ --strict-noqa  # fail on dead noqa comments
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .framework import (
    AnalysisFrameworkError,
    all_rules,
    analyze_paths,
    select_rules,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Paper-invariant static analysis: AST lint rules "
            "(REP001, REP003-REP009, including the CFG-based segment "
            "lifecycle rule) and the symbolic Tables 1-3 plan checker."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--check-plan",
        action="store_true",
        help=(
            "run the symbolic Tables 1-3 registry check instead of "
            "(or before) linting"
        ),
    )
    parser.add_argument(
        "--strict-noqa",
        action="store_true",
        help=(
            "exit 1 when a '# repro: noqa' comment no longer "
            "suppresses any finding (requires the full rule set)"
        ),
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=".",
        help="directory findings paths are reported relative to",
    )
    return parser


def _list_rules(out) -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.title}", file=out)
        print(f"        {rule.rationale}", file=out)
    return 0


def _run_plan_check(json_target: Optional[str], out) -> int:
    from .check_registry import check_plan

    report = check_plan()
    print(report.render_human(), file=out)
    if json_target:
        _emit_json(report.to_json(), json_target, out)
    return 0 if report.ok else 1


def _emit_json(payload: str, target: str, out) -> None:
    if target == "-":
        print(payload, file=out)
    else:
        Path(target).write_text(payload + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules(out)
    if args.strict_noqa and args.select:
        print(
            "error: --strict-noqa needs the full rule set; it cannot "
            "be combined with --select (a suppression is only "
            "provably unused when every rule ran)",
            file=sys.stderr,
        )
        return 2
    lints = bool(args.paths) or not args.check_plan
    if args.check_plan:
        status = _run_plan_check(args.json if not lints else None, out)
        if status != 0 or not lints:
            return status
    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    try:
        rules = (
            select_rules([s.strip() for s in args.select.split(",")])
            if args.select
            else None
        )
    except AnalysisFrameworkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = analyze_paths(paths, rules=rules, root=Path(args.root))
    print(report.render_human(), file=out)
    if args.json:
        _emit_json(report.to_json(), args.json, out)
    if report.parse_errors:
        return 2
    if report.findings:
        return 1
    if args.strict_noqa and report.unused_suppressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
