"""Resilient execution layer: graceful degradation from one-pass
streams.

The submodules are layered so the core vocabulary (policies, reports)
has no dependency on the stream engine:

* :mod:`.recovery` — :class:`RecoveryPolicy` ladder and the
  :class:`ExecutionReport`;
* :mod:`.executor` — the degradation ladder over registry entries
  (re-sort on order violations, spill-and-extra-passes on workspace
  overflow).

A corrupt page is not a rung of the ladder: its checksum fails and
:class:`~repro.errors.PageCorruptionError` propagates under every
policy.
"""

from __future__ import annotations

from .executor import ResilientResult, execute_entry
from .recovery import ExecutionReport, FallbackEvent, RecoveryPolicy

__all__ = [
    "ExecutionReport",
    "FallbackEvent",
    "RecoveryPolicy",
    "ResilientResult",
    "execute_entry",
]
