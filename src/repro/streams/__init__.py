"""Stream processing engine for temporal operators (Section 4).

Exposes instrumented streams, workspace accounting, advancement
policies, the stream processors themselves, and the executable form of
the paper's Tables 1-3 (:mod:`repro.streams.registry`).
"""

from .metrics import ProcessorMetrics
from .policies import AdvancePolicy, LambdaPolicy, MinKeyPolicy
from .processors import *  # noqa: F401,F403 - curated re-export
from .processors import __all__ as _processors_all
from .registry import (
    BACKENDS,
    STATE_CLASS_DESCRIPTIONS,
    RegistryEntry,
    TemporalOperator,
    entries_for,
    lookup,
    supported_entries,
)
from .stream import TupleStream
from .workspace import Workspace, WorkspaceMeter, WorkspaceReport

__all__ = [
    "AdvancePolicy",
    "BACKENDS",
    "LambdaPolicy",
    "MinKeyPolicy",
    "ProcessorMetrics",
    "RegistryEntry",
    "STATE_CLASS_DESCRIPTIONS",
    "TemporalOperator",
    "TupleStream",
    "Workspace",
    "WorkspaceMeter",
    "WorkspaceReport",
    "entries_for",
    "lookup",
    "supported_entries",
] + list(_processors_all)
