"""Recognition of temporal operators inside inequality conjunctions.

After redundancy elimination, the semantic optimizer asks whether the
surviving conjuncts *are* one of the stream-processable temporal
operators:

* :func:`recognize_allen` — is the condition over two interval
  variables equivalent (under the background knowledge) to one of the
  thirteen Figure-2 relationships, or to the TQuel general overlap?

* :func:`recognize_derived_containment` — the Superstar pattern: the
  condition states that a *derived* interval (here ``[f1.TE, f2.TS)``,
  the period at the associate rank) lies strictly inside a third
  variable's lifespan — i.e. a Contained-semijoin against a derived
  interval (Figure 8(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..allen.relations import ALL_RELATIONS
from ..allen.symbolic import (
    Comparison,
    CompOp,
    Conjunction,
    Endpoint,
    EndpointKind,
    constraint_for,
    general_overlap_constraint,
)
from .inequality_graph import ImplicationGraph

#: Marker returned by :func:`recognize_allen` for the TQuel overlap.
GENERAL_OVERLAP = "general-overlap"


def recognize_allen(
    conjunction: Conjunction,
    x: str,
    y: str,
    background: ImplicationGraph,
) -> Optional[object]:
    """The Allen relation (or :data:`GENERAL_OVERLAP`) equivalent to
    ``conjunction`` under ``background``, else ``None``.

    Equivalence is mutual implication under the background
    (:func:`~repro.semantic.simplify.equivalent_under`), so a condition
    written with redundant or rephrased inequalities is still
    recognised; candidates are tried in Figure-2 order, and a pattern's
    graph is built only once the stated condition implies the pattern.
    """
    stated = background.copy()
    stated.add_conjunction(conjunction)
    for label, pattern in _figure_2_patterns(x, y):
        # Most candidates fall here, on the one graph of what was said.
        if not stated.implies_all(pattern):
            continue
        graph = background.copy()
        graph.add_conjunction(pattern)
        if graph.implies_all(conjunction):
            return label
    return None


def _figure_2_patterns(x: str, y: str) -> Iterator[tuple[object, Conjunction]]:
    """The candidates in Figure-2 order, TQuel's overlap last, each
    built when the one before it has failed."""
    for relation in ALL_RELATIONS:
        yield relation, constraint_for(relation, x, y)
    yield GENERAL_OVERLAP, general_overlap_constraint(x, y)


@dataclass(frozen=True)
class DerivedContainment:
    """The Figure-8(b) pattern: ``container.TS < start`` and
    ``end < container.TE`` — the derived interval ``[start, end)`` lies
    strictly inside ``container``'s lifespan."""

    start: Endpoint
    end: Endpoint
    container: str
    #: True when the background proves the derived interval non-empty
    #: (``start < end``) — the precondition for evaluating the
    #: containment with the single-scan self-semijoin over materialised
    #: derived intervals.
    strict: bool = True

    def as_conjunction(self) -> Conjunction:
        return Conjunction.of(
            Comparison.lt(
                Endpoint(self.container, EndpointKind.TS), self.start
            ),
            Comparison.lt(
                self.end, Endpoint(self.container, EndpointKind.TE)
            ),
        )


def recognize_derived_containment(
    conjunction: Conjunction,
    container: str,
    background: ImplicationGraph,
) -> Optional[DerivedContainment]:
    """Match ``conjunction`` against the derived-interval containment
    pattern with ``container`` as the containing variable.

    Requirements:

    * exactly two strict conjuncts: ``container.TS < e_start`` and
      ``e_end < container.TE`` with ``e_start``/``e_end`` endpoints of
      *other* variables;
    * the derived interval is well-formed: the background implies
      ``e_start < e_end`` (it has positive duration), so the pair of
      inequalities really is a *during* relationship against
      ``[e_start, e_end)``.
    """
    if len(conjunction) != 2:
        return None
    lower = None  # container.TS < e_start
    upper = None  # e_end < container.TE
    for comparison in conjunction:
        if comparison.op is not CompOp.LT:
            return None
        left, right = comparison.left, comparison.right
        if (
            isinstance(left, Endpoint)
            and left.variable == container
            and left.kind is EndpointKind.TS
            and isinstance(right, Endpoint)
            and right.variable != container
        ):
            lower = right
        elif (
            isinstance(right, Endpoint)
            and right.variable == container
            and right.kind is EndpointKind.TE
            and isinstance(left, Endpoint)
            and left.variable != container
        ):
            upper = left
    if lower is None or upper is None:
        return None
    if not background.implies(Comparison.le(lower, upper)):
        return None
    strict = background.implies(Comparison.lt(lower, upper))
    return DerivedContainment(
        start=lower, end=upper, container=container, strict=strict
    )
