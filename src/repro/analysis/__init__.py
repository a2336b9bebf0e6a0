"""Paper-invariant static analysis.

The paper's claims are structural: which (operator, sort-order) cells
of Tables 1-3 admit single-pass evaluation, how much workspace each
retains, and which boundary semantics make the answers tie-safe.  The
test suite enforces those claims dynamically; this package enforces
them *before anything runs*:

* :mod:`repro.analysis.framework` — a small AST lint framework (rule
  registry, per-file visitor dispatch, ``# repro: noqa(RULE)``
  suppressions, human and JSON reporters);
* :mod:`repro.analysis.rules` — the repo-specific rules REP001 and
  REP003-REP006 (tie-safe comparators, seeded randomness in worker
  paths, WorkspaceMeter accounting, context-managed tracer spans, no
  bare ``assert`` in ``src/``);
* :mod:`repro.analysis.tables` — Tables 1-3 encoded as data plus a
  symbolic derivation of single-pass admissibility from each cell's
  sort orders and operator condition (an inequality-closure theorem
  check built on :mod:`repro.semantic.inequality_graph`);
* :mod:`repro.analysis.check_registry` — fails when the code's
  registry disagrees with the paper's tables or with the derivation.

CLI: ``python -m repro.analysis src/`` (exit 0 clean, 1 findings,
2 usage/internal error).  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .framework import (
    AnalysisReport,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    register_rule,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "register_rule",
]
