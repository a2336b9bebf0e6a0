"""Semantic query optimization for temporal databases (Section 5)."""

from .bridge import endpoint_of, is_temporal_comparison, to_engine, to_symbolic
from .inequality_graph import ImplicationGraph
from .knowledge import (
    QueryContext,
    background_graph,
    chronological_facts,
    extract_context,
)
from .optimizer import (
    JoinFinding,
    SemanticReport,
    semantically_optimize,
    simplify_predicate,
)
from .recognize import (
    GENERAL_OVERLAP,
    DerivedContainment,
    recognize_allen,
    recognize_derived_containment,
)
from .simplify import (
    SimplificationResult,
    eliminate_redundant,
    equivalent_under,
    is_redundant,
)

__all__ = [
    "DerivedContainment",
    "GENERAL_OVERLAP",
    "ImplicationGraph",
    "JoinFinding",
    "QueryContext",
    "SemanticReport",
    "SimplificationResult",
    "background_graph",
    "chronological_facts",
    "eliminate_redundant",
    "endpoint_of",
    "equivalent_under",
    "extract_context",
    "is_redundant",
    "is_temporal_comparison",
    "recognize_allen",
    "recognize_derived_containment",
    "semantically_optimize",
    "simplify_predicate",
    "to_engine",
    "to_symbolic",
]
