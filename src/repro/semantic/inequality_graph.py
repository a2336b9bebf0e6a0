"""Implication graph over interval endpoints.

The semantic optimizer's reasoning core: a directed graph whose nodes
are symbolic terms (endpoints like ``f1.TE`` or integer constants) and
whose edges record known order facts — ``u <= v`` or the stronger
``u < v``.  Equality contributes edges in both directions.

Implication is reachability with strictness accumulation: ``a < b``
follows when a path from ``a`` to ``b`` traverses at least one strict
edge; ``a <= b`` needs any path; ``a = b`` needs non-strict cycles both
ways.  Constant nodes are implicitly ordered by value.

This is the machinery behind the Section-5 observation that
``f1.ValidFrom < f3.ValidTo`` is *redundant* — subsumed by the other
inequalities plus the intra-tuple and chronological-ordering
constraints.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable

from ..allen.symbolic import Comparison, CompOp, Conjunction, Endpoint, Term


def _is_constant(term: Term) -> bool:
    return not isinstance(term, Endpoint)


class ImplicationGraph:
    """Accumulates order facts and answers implication queries."""

    def __init__(self) -> None:
        # node -> {successor: strict?}; parallel edges keep the
        # strongest (strict) version.
        self._edges: Dict[Term, Dict[Term, bool]] = {}
        self._constants: set[int] = set()
        # source -> its best-strictness reachability, kept until the
        # next edge is added; a copy starts with none.
        self._reach: Dict[Term, Dict[Term, bool]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_fact(self, comparison: Comparison) -> None:
        """Record one comparison as ground truth."""
        left, op, right = comparison.left, comparison.op, comparison.right
        if op is CompOp.EQ:
            self._add_edge(left, right, strict=False)
            self._add_edge(right, left, strict=False)
        else:
            self._add_edge(left, right, strict=(op is CompOp.LT))

    def add_conjunction(self, conjunction: Conjunction) -> None:
        for comparison in conjunction:
            self.add_fact(comparison)

    def add_facts(self, comparisons: Iterable[Comparison]) -> None:
        for comparison in comparisons:
            self.add_fact(comparison)

    def copy(self) -> "ImplicationGraph":
        clone = ImplicationGraph()
        clone._edges = {
            node: dict(successors) for node, successors in self._edges.items()
        }
        clone._constants = set(self._constants)
        return clone

    def _add_edge(self, u: Term, v: Term, strict: bool) -> None:
        self._reach.clear()
        self._note_term(u)
        self._note_term(v)
        successors = self._edges.setdefault(u, {})
        successors[v] = successors.get(v, False) or strict

    def _note_term(self, term: Term) -> None:
        self._edges.setdefault(term, {})
        if _is_constant(term):
            # Wire the new constant into the existing constant order.
            for other in self._constants:
                if other < term:
                    self._edges.setdefault(other, {})[term] = True
                elif term < other:
                    self._edges.setdefault(term, {})[other] = True
            self._constants.add(term)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def implies(self, comparison: Comparison) -> bool:
        """Does the recorded knowledge entail ``comparison``?"""
        left, op, right = comparison.left, comparison.op, comparison.right
        if op is CompOp.EQ:
            return self._reaches(left, right) is not None and self._reaches(
                right, left
            ) is not None
        strictness = self._reaches(left, right)
        if strictness is None:
            return False
        if op is CompOp.LE:
            return True
        return strictness  # LT needs a strict link somewhere on the path

    def implies_all(self, conjunction: Conjunction) -> bool:
        return all(self.implies(c) for c in conjunction)

    def _reaches(self, source: Term, target: Term) -> bool | None:
        """Best reachability from source to target: ``None`` when
        unreachable, else whether some path contains a strict edge."""
        if source == target:
            return False  # reachable, not strict (reflexive <=)
        if (
            _is_constant(source)
            and _is_constant(target)
        ):
            if source < target:
                return True
            if source == target:
                return False
        return self._search(source).get(target)

    def _search(self, source: Term) -> Dict[Term, bool]:
        """Best-strictness reachability from ``source``.  A node may be
        revisited when first reached non-strictly and later strictly."""
        best = self._reach.get(source)
        if best is not None:
            return best
        best = {source: False}
        queue: deque[Term] = deque([source])
        while queue:
            node = queue.popleft()
            node_strict = best[node]
            for successor, edge_strict in self._edges.get(node, {}).items():
                strictness = node_strict or edge_strict
                known = best.get(successor)
                if known is None or (strictness and not known):
                    best[successor] = strictness
                    queue.append(successor)
        self._reach[source] = best
        return best

    def is_consistent(self) -> bool:
        """True when no term strictly precedes itself — recorded facts
        admit at least no trivially cyclic contradiction."""
        return all(
            not self._search(node).get(node, False) for node in self._edges
        )
