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

``executor`` imports the stream engine, which itself imports
:mod:`.recovery`; it is therefore loaded lazily here to keep the import
graph acyclic.
"""

from __future__ import annotations

from .recovery import ExecutionReport, FallbackEvent, RecoveryPolicy

__all__ = [
    "ExecutionReport",
    "FallbackEvent",
    "RecoveryPolicy",
    "ResilientResult",
    "execute_entry",
]

#: Names resolved lazily to avoid importing the stream engine (and its
#: processors) as a side effect of importing the core vocabulary.
_LAZY = {
    "ResilientResult": ".executor",
    "execute_entry": ".executor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    return getattr(import_module(module_name, __name__), name)
