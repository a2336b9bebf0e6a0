"""CLI: ``python -m repro.analysis [--json FILE]``.

Runs the symbolic Tables 1-3 plan check and prints the per-cell diff.
Exit 0 when all 120 cells agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .check_registry import check_plan


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Re-derive the paper's Tables 1-3 from the operator match "
            "conditions and diff them against the executable registry."
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    report = check_plan()
    print(report.render_human(), file=out)
    if args.json == "-":
        print(report.to_json(), file=out)
    elif args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
