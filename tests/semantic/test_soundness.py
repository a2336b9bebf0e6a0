"""Model-theoretic soundness of the semantic optimizer.

The optimizer's core contract: under any background knowledge B, the
simplified conjunction keep(C) is *equivalent* to C on every concrete
interval assignment satisfying B.  These tests verify that contract by
brute force — enumerate random conjunctions and backgrounds, then check
all small-domain interval assignments — rather than trusting the
implication graph's own logic to certify itself.
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allen.symbolic import Comparison, CompOp, Conjunction, Endpoint, EndpointKind
from repro.model import Interval
from repro.semantic import ImplicationGraph, eliminate_redundant

VARIABLES = ("u", "v", "w")

#: Every endpoint term over the three variables.
ENDPOINTS = [
    Endpoint(var, kind)
    for var in VARIABLES
    for kind in (EndpointKind.TS, EndpointKind.TE)
]

#: All intervals over a 5-point domain — small enough to enumerate all
#: three-variable assignments (10^3 = 1000 per example).
DOMAIN_INTERVALS = [Interval(a, b) for a, b in combinations(range(5), 2)]

comparison_strategy = st.builds(
    Comparison,
    left=st.sampled_from(ENDPOINTS),
    op=st.sampled_from([CompOp.LT, CompOp.LE, CompOp.EQ]),
    right=st.sampled_from(ENDPOINTS),
)

conjunction_strategy = st.lists(
    comparison_strategy, min_size=1, max_size=4
).map(lambda cs: Conjunction(tuple(cs)))

background_strategy = st.lists(
    comparison_strategy, min_size=0, max_size=3
)


def assignments():
    """Every assignment of the three variables to domain intervals."""
    for triple in product(DOMAIN_INTERVALS, repeat=3):
        yield dict(zip(VARIABLES, triple))


def holds(comparisons, binding) -> bool:
    return all(c.evaluate(binding) for c in comparisons)


class TestEliminateRedundantSoundness:
    @settings(max_examples=60, deadline=None)
    @given(conjunction_strategy, background_strategy)
    def test_equivalence_on_all_models(self, conjunction, background_facts):
        """For every assignment satisfying the background, the original
        and simplified conjunctions agree."""
        background = ImplicationGraph()
        background.add_facts(background_facts)
        result = eliminate_redundant(conjunction, background)
        for binding in assignments():
            if not holds(background_facts, binding):
                continue
            assert conjunction.evaluate(binding) == result.kept.evaluate(
                binding
            )

    @settings(max_examples=60, deadline=None)
    @given(conjunction_strategy)
    def test_kept_is_subset(self, conjunction):
        result = eliminate_redundant(conjunction, ImplicationGraph())
        assert set(result.kept.comparisons) <= set(
            conjunction.comparisons
        )
        assert set(result.kept.comparisons) | set(result.removed) == set(
            conjunction.comparisons
        )


class TestImplicationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(background_strategy, comparison_strategy)
    def test_implies_never_lies(self, facts, candidate):
        """If the graph claims facts => candidate, no concrete model of
        the facts may violate the candidate (completeness is not
        required — soundness is)."""
        graph = ImplicationGraph()
        graph.add_facts(facts)
        if not graph.implies(candidate):
            return
        for binding in assignments():
            if holds(facts, binding):
                assert candidate.evaluate(binding)
