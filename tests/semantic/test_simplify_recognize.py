"""Tests for redundancy elimination and operator recognition."""

import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import optimize
from repro.allen import (
    ALL_RELATIONS,
    AllenRelation,
    constraint_for,
    general_overlap_constraint,
)
from repro.allen.symbolic import (
    Comparison,
    CompOp,
    Conjunction,
    Endpoint,
    EndpointKind,
)
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import TEMPORAL_OPERATORS, parse_query, run_query, translate
from repro.semantic import (
    GENERAL_OVERLAP,
    ImplicationGraph,
    eliminate_redundant,
    equivalent_under,
    is_redundant,
    recognize_allen,
    recognize_derived_containment,
)
from repro.streams import TemporalOperator
from repro.workload import PoissonWorkload, fixed_duration

from tests.backends import PHYSICAL_BACKENDS


def ts(v):
    return Endpoint(v, EndpointKind.TS)


def te(v):
    return Endpoint(v, EndpointKind.TE)


def intra(*variables):
    g = ImplicationGraph()
    for v in variables:
        g.add_fact(Comparison.lt(ts(v), te(v)))
    return g


class TestEliminateRedundant:
    def superstar_theta(self):
        """The four-inequality theta' of the Superstar less-than join."""
        return Conjunction.of(
            Comparison.lt(ts("f1"), te("f3")),
            Comparison.lt(ts("f3"), te("f1")),
            Comparison.lt(ts("f2"), te("f3")),
            Comparison.lt(ts("f3"), te("f2")),
        )

    def test_superstar_reduction(self):
        background = intra("f1", "f2", "f3")
        background.add_fact(Comparison.le(te("f1"), ts("f2")))
        result = eliminate_redundant(self.superstar_theta(), background)
        assert len(result.removed) == 2
        assert set(result.kept.comparisons) == {
            Comparison.lt(ts("f3"), te("f1")),
            Comparison.lt(ts("f2"), te("f3")),
        }

    def test_no_reduction_without_chronological_fact(self):
        background = intra("f1", "f2", "f3")
        result = eliminate_redundant(self.superstar_theta(), background)
        assert not result.any_removed

    def test_duplicate_conjunct_removed(self):
        conj = Conjunction.of(
            Comparison.lt(ts("a"), ts("b")),
            Comparison.lt(ts("a"), ts("b")),
        )
        result = eliminate_redundant(conj, ImplicationGraph())
        assert len(result.kept) == 1

    def test_intra_tuple_conjunct_removed(self):
        conj = Conjunction.of(
            Comparison.lt(ts("a"), te("a")),
            Comparison.lt(te("a"), ts("b")),
        )
        result = eliminate_redundant(conj, intra("a", "b"))
        assert result.kept.comparisons == (
            Comparison.lt(te("a"), ts("b")),
        )

    def test_is_redundant_direct(self):
        others = Conjunction.of(Comparison.lt(ts("a"), ts("b")))
        weaker = Comparison.le(ts("a"), ts("b"))
        assert is_redundant(weaker, others, ImplicationGraph())
        assert not is_redundant(
            Comparison.lt(ts("b"), ts("a")), others, ImplicationGraph()
        )


class TestEquivalentUnder:
    def test_reflexive(self):
        conj = constraint_for(AllenRelation.DURING, "x", "y")
        assert equivalent_under(conj, conj, intra("x", "y"))

    def test_rephrased_equivalence(self):
        """x during y stated with an extra redundant conjunct."""
        during = constraint_for(AllenRelation.DURING, "x", "y")
        padded = during.conjoin(
            Conjunction.of(Comparison.lt(ts("y"), te("x")))
        )
        assert equivalent_under(during, padded, intra("x", "y"))

    def test_non_equivalence(self):
        during = constraint_for(AllenRelation.DURING, "x", "y")
        before = constraint_for(AllenRelation.BEFORE, "x", "y")
        assert not equivalent_under(during, before, intra("x", "y"))


class TestRecognizeAllen:
    def test_during_recognized(self):
        conj = constraint_for(AllenRelation.DURING, "x", "y")
        assert (
            recognize_allen(conj, "x", "y", intra("x", "y"))
            is AllenRelation.DURING
        )

    def test_general_overlap_recognized(self):
        conj = general_overlap_constraint("x", "y")
        assert (
            recognize_allen(conj, "x", "y", intra("x", "y"))
            == GENERAL_OVERLAP
        )

    def test_padded_condition_still_recognized(self):
        conj = constraint_for(AllenRelation.BEFORE, "x", "y").conjoin(
            Conjunction.of(Comparison.lt(ts("x"), te("y")))
        )
        assert (
            recognize_allen(conj, "x", "y", intra("x", "y"))
            is AllenRelation.BEFORE
        )

    def test_unrelated_condition_not_recognized(self):
        conj = Conjunction.of(Comparison.lt(ts("x"), ts("y")))
        assert recognize_allen(conj, "x", "y", intra("x", "y")) is None


class TestRecognizeDerivedContainment:
    def superstar_kept(self):
        return Conjunction.of(
            Comparison.lt(ts("f3"), te("f1")),
            Comparison.lt(ts("f2"), te("f3")),
        )

    def background(self, strict: bool):
        g = intra("f1", "f2", "f3")
        fact = (
            Comparison.lt(te("f1"), ts("f2"))
            if strict
            else Comparison.le(te("f1"), ts("f2"))
        )
        g.add_fact(fact)
        return g

    def test_superstar_pattern_strict(self):
        found = recognize_derived_containment(
            self.superstar_kept(), "f3", self.background(strict=True)
        )
        assert found is not None
        assert found.start == te("f1")
        assert found.end == ts("f2")
        assert found.strict

    def test_superstar_pattern_nonstrict(self):
        found = recognize_derived_containment(
            self.superstar_kept(), "f3", self.background(strict=False)
        )
        assert found is not None
        assert not found.strict

    def test_requires_interval_order(self):
        # Without te(f1) <= ts(f2), [f1.TE, f2.TS) may be inverted.
        found = recognize_derived_containment(
            self.superstar_kept(), "f3", intra("f1", "f2", "f3")
        )
        assert found is None

    def test_wrong_container(self):
        found = recognize_derived_containment(
            self.superstar_kept(), "f1", self.background(strict=True)
        )
        assert found is None

    def test_wrong_shape(self):
        conj = Conjunction.of(
            Comparison.lt(ts("f3"), te("f1")),
            Comparison.lt(ts("f3"), te("f2")),
        )
        assert (
            recognize_derived_containment(
                conj, "f3", self.background(strict=True)
            )
            is None
        )

    def test_as_conjunction_roundtrip(self):
        found = recognize_derived_containment(
            self.superstar_kept(), "f3", self.background(strict=True)
        )
        rebuilt = found.as_conjunction()
        assert equivalent_under(
            rebuilt, self.superstar_kept(), self.background(strict=True)
        )


# ----------------------------------------------------------------------
# recognition asks one graph: same answers as the loop it replaced
# ----------------------------------------------------------------------
OPS = (CompOp.LT, CompOp.LE, CompOp.EQ)
ENDPOINTS = (ts("x"), te("x"), ts("y"), te("y"))
COMPARISONS = tuple(
    Comparison(left, op, right)
    for left in ENDPOINTS
    for op in OPS
    for right in ENDPOINTS
)


def pattern_for(label):
    """Figure 2's constraint for ``x label y``."""
    if label == GENERAL_OVERLAP:
        return general_overlap_constraint("x", "y")
    return constraint_for(label, "x", "y")


def first_equivalent(conjunction, x, y, background):
    """The loop ``recognize_allen`` was: the first label in Figure-2
    order (TQuel's overlap last) whose pattern ``equivalent_under``
    says the condition is."""
    for relation in ALL_RELATIONS:
        pattern = constraint_for(relation, x, y)
        if equivalent_under(conjunction, pattern, background):
            return relation
    overlap = general_overlap_constraint(x, y)
    if equivalent_under(conjunction, overlap, background):
        return GENERAL_OVERLAP
    return None


def third_between():
    """x, then z, then y: a background that orders a third variable
    (so ``x before y`` holds without being said)."""
    g = intra("x", "y", "z")
    g.add_fact(Comparison.le(te("x"), ts("z")))
    g.add_fact(Comparison.le(te("z"), ts("y")))
    return g


BACKGROUNDS = {
    "none": ImplicationGraph,
    "intra": lambda: intra("x", "y"),
    "third-between": third_between,
}


class TestRecognizeAllenIsTheLoop:
    @pytest.mark.parametrize("size", (1, 2))
    def test_every_small_conjunction(self, size):
        """All 1- and 2-comparison conditions over the four endpoints,
        self-comparisons and contradictions (``x.TS < x.TS``) included."""
        recognised = set()
        for comparisons in combinations_with_replacement(COMPARISONS, size):
            conjunction = Conjunction(comparisons)
            expected = first_equivalent(conjunction, "x", "y", intra("x", "y"))
            got = recognize_allen(conjunction, "x", "y", intra("x", "y"))
            assert got == expected, str(conjunction)
            recognised.add(got)
        # MEETS / BEFORE and their inverses, plus "nothing", need one
        # comparison; two reach everything but (strict) OVERLAPS.
        assert len(recognised) == (5 if size == 1 else 13)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                Comparison,
                st.sampled_from(ENDPOINTS + (ts("z"), te("z"), 0, 5)),
                st.sampled_from(OPS),
                st.sampled_from(ENDPOINTS + (ts("z"), te("z"), 0, 5)),
            ),
            min_size=3,
            max_size=6,
        ),
        st.sampled_from(sorted(BACKGROUNDS)),
        st.booleans(),
    )
    def test_drawn_conjunctions(self, comparisons, background, flipped):
        """3-6 comparisons, with constants, a third variable and
        whatever contradictions the draw produces, under each
        background, in both operand orders."""
        x, y = ("y", "x") if flipped else ("x", "y")
        conjunction = Conjunction(tuple(comparisons))
        expected = first_equivalent(
            conjunction, x, y, BACKGROUNDS[background]()
        )
        graph = BACKGROUNDS[background]()
        assert recognize_allen(conjunction, x, y, graph) == expected
        # ... and asking did not teach the background anything.
        assert recognize_allen(conjunction, x, y, graph) == expected

    @pytest.mark.parametrize("background", sorted(BACKGROUNDS))
    def test_every_label_and_its_padded_spelling(self, background):
        for label in (*ALL_RELATIONS, GENERAL_OVERLAP):
            pattern = pattern_for(label)
            for conjunction in (pattern, padded(pattern)):
                graph = BACKGROUNDS[background]()
                expected = first_equivalent(conjunction, "x", "y", graph)
                assert recognize_allen(conjunction, "x", "y", graph) == expected
                if background == "intra":
                    assert expected == label

    def test_under_a_contradictory_background(self):
        """The graph does not reason *ex falso*: a cycle through a
        strict edge makes its own nodes precede themselves and nothing
        else follow, before and after."""

        def contradictory():
            background = intra("x", "y")
            background.add_fact(Comparison.lt(te("x"), ts("x")))
            assert not background.is_consistent()
            return background

        recognised = set()
        for comparison in COMPARISONS:
            conjunction = Conjunction.of(comparison)
            expected = first_equivalent(conjunction, "x", "y", contradictory())
            got = recognize_allen(conjunction, "x", "y", contradictory())
            assert got == expected, str(conjunction)
            recognised.add(got)
        assert len(recognised) > 1


def padded(pattern):
    """``pattern`` plus every strict cross-variable comparison it
    implies under the intra-tuple background, plus a ``<=`` weakening
    of each of those: redundant, so the same relation."""
    graph = intra("x", "y")
    graph.add_conjunction(pattern)
    extra = []
    for left in ENDPOINTS:
        for right in ENDPOINTS:
            strict = Comparison.lt(left, right)
            if left.variable != right.variable and graph.implies(strict):
                extra += [strict, Comparison.le(left, right)]
    assert extra
    return pattern.conjoin(Conjunction(tuple(extra)))


def graph_copies(function, *args):
    """How many ``ImplicationGraph.copy`` calls ``function`` makes."""
    copies = 0
    code = ImplicationGraph.copy.__code__

    def profiler(frame, event, _arg):
        nonlocal copies
        copies += event == "call" and frame.f_code is code

    sys.setprofile(profiler)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, copies


class TestRecognitionBuildsFewGraphs:
    @pytest.mark.parametrize("label", (*ALL_RELATIONS, GENERAL_OVERLAP), ids=str)
    def test_a_figure_2_label_copies_the_graph_at_most_three_times(
        self, label
    ):
        """One graph of what was said, one per pattern that it implies
        (the loop copied twice per candidate tried: up to 28)."""
        pattern = pattern_for(label)
        for conjunction in (pattern, padded(pattern)):
            got, copies = graph_copies(
                recognize_allen, conjunction, "x", "y", intra("x", "y")
            )
            assert got == label
            assert copies <= 3
        _, loop_copies = graph_copies(
            first_equivalent, pattern, "x", "y", intra("x", "y")
        )
        assert loop_copies >= copies

    def test_an_unrecognised_condition_builds_one_graph(self):
        conjunction = Conjunction.of(Comparison.lt(ts("x"), ts("y")))
        got, copies = graph_copies(
            recognize_allen, conjunction, "x", "y", intra("x", "y")
        )
        assert got is None and copies == 1


class TestReachabilityMemo:
    def test_a_fact_added_after_a_query_changes_the_next_answer(self):
        g = intra("a", "b")
        wanted = Comparison.lt(ts("a"), te("b"))
        assert not g.implies(wanted)
        assert not g.implies(wanted)  # answered from what was kept
        g.add_fact(Comparison.le(te("a"), ts("b")))
        assert g.implies(wanted)
        # A strict edge over a kept non-strict answer.
        weak = Comparison.lt(te("a"), ts("b"))
        assert not g.implies(weak)
        g.add_fact(weak)
        assert g.implies(weak)
        # A constant wired in by a later fact.
        assert not g.implies(Comparison.lt(ts("a"), 9))
        g.add_fact(Comparison.le(te("b"), 7))
        assert g.implies(Comparison.lt(ts("a"), 9)) is False  # 9 unknown
        g.add_fact(Comparison.le(9, 9))
        assert g.implies(Comparison.lt(ts("a"), 9))

    def test_consistency_is_re_asked_after_a_new_fact(self):
        g = intra("a")
        assert g.is_consistent()
        g.add_fact(Comparison.le(te("a"), ts("a")))
        assert not g.is_consistent()

    def test_copy_shares_nothing(self):
        g = intra("a", "b")
        fact = Comparison.le(te("a"), ts("b"))
        wanted = Comparison.lt(ts("a"), te("b"))
        assert not g.implies(wanted)
        clone = g.copy()
        clone.add_fact(fact)
        assert clone.implies(wanted)
        assert not g.implies(wanted)
        # ... in either direction: a copy taken after a query keeps
        # answering for itself when the original learns something.
        other = g.copy()
        assert not other.implies(wanted)
        g.add_fact(fact)
        assert g.implies(wanted)
        assert not other.implies(wanted)


# ----------------------------------------------------------------------
# Quel level: a keyword, its inequalities and a padded spelling are one
# join
# ----------------------------------------------------------------------
#: What each temporal keyword runs as (operator, operands swapped);
#: a keyword not listed reaches no stream join.
STREAM_JOIN_FOR = {
    "contains": (TemporalOperator.CONTAIN_JOIN, False),
    "during": (TemporalOperator.CONTAIN_JOIN, True),
    "overlap": (TemporalOperator.OVERLAP_JOIN, False),
    "before": (TemporalOperator.BEFORE_JOIN, False),
    "after": (TemporalOperator.BEFORE_JOIN, True),
}
ALLEN_BY_KEYWORD = {
    relation.value.replace("-", ""): relation for relation in ALL_RELATIONS
}
RANGES = "range of x is X range of y is Y retrieve (A = x.Seq, B = y.Seq) where "


def quel(conjunction):
    return RANGES + " and ".join(
        str(comparison).replace(".TS", ".ValidFrom").replace(".TE", ".ValidTo")
        for comparison in conjunction
    )


@pytest.fixture(scope="module")
def quel_catalog():
    x = PoissonWorkload(60, 0.4, fixed_duration(12), name="X").generate(5)
    y = PoissonWorkload(60, 0.4, fixed_duration(5), name="Y").generate(6)
    return {"X": x, "Y": y}


@pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
@pytest.mark.parametrize("keyword", sorted(TEMPORAL_OPERATORS))
def test_three_spellings_of_a_keyword_are_one_stream_join(
    keyword, backend, quel_catalog
):
    pattern = pattern_for(ALLEN_BY_KEYWORD.get(keyword, GENERAL_OVERLAP))
    texts = (
        RANGES + f"x {keyword} y", quel(pattern), quel(padded(pattern))
    )
    reference = sorted(run_query(texts[0], quel_catalog).rows)
    expected = [STREAM_JOIN_FOR[keyword]] if keyword in STREAM_JOIN_FOR else []
    for text in texts:
        plan = optimize(translate(parse_query(text), quel_catalog))
        executed = execute_hybrid(
            plan, quel_catalog, planner=TemporalJoinPlanner(backend=backend)
        )
        assert [
            (join.operator, join.swapped) for join in executed.stream_joins
        ] == expected
        assert sorted(executed.rows) == reference
