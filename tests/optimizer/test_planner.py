"""Tests for cost-based temporal join planning."""

import random

import pytest

from repro.errors import BudgetExceededError, WorkspaceOverflowError
from repro.governance import QueryBudget, governed
from repro.model import TE_ASC, TE_DESC, TS_ASC, TemporalRelation
from repro.optimizer import CostModel, TemporalJoinPlanner, expected_workspace_for
from repro.optimizer.planner import Alternative
from repro.resilience.recovery import RecoveryPolicy
from repro.stats import collect_statistics
from repro.streams import (
    BACKENDS,
    TemporalOperator,
    contain_predicate,
    supported_entries,
)
from repro.workload import PoissonWorkload, fixed_duration

from tests.backends import PHYSICAL_BACKENDS


def make_relation(n, rate=0.5, duration=20, name="R", seed=1):
    return PoissonWorkload(
        n, rate, fixed_duration(duration), name=name
    ).generate(seed)


@pytest.fixture
def planner():
    return TemporalJoinPlanner()


def shuffled(relation, seed):
    """The relation's tuples in random order, with no declared order."""
    tuples = list(relation.tuples)
    random.Random(seed).shuffle(tuples)
    return TemporalRelation(relation.schema, tuples)


class TestBackendBlindPlanning:
    """The cost model prices cells, not backends: the backend a planner
    runs on changes neither which cell wins nor any price."""

    @pytest.mark.parametrize(
        "operator", list(TemporalOperator), ids=lambda op: op.value
    )
    @pytest.mark.parametrize("inputs", ("sorted", "shuffled"))
    def test_the_backend_never_changes_a_plan(self, operator, inputs):
        x = make_relation(3000, name="X", seed=1)
        y = make_relation(3000, duration=8, name="Y", seed=2)
        if inputs == "sorted":
            x, y = x.sorted_by(TS_ASC), y.sorted_by(TS_ASC)
        else:
            x, y = shuffled(x, 1), shuffled(y, 2)
        if operator.shape == "self":
            y = x
        plans = {}
        for backend in BACKENDS + ("auto",):
            planner = TemporalJoinPlanner(backend=backend, parallelism=4)
            plans[backend] = [
                (a.kind, a.entry, a.sort_x, a.sort_y, a.workers)
                + (a.estimated_cost,)
                for a in planner.alternatives(operator, x, y)
            ]
        kinds = {kind for kind, *_ in plans["tuple"]}
        if supported_entries(operator):
            assert kinds == {"stream", "parallel-stream", "nested-loop"}
        else:
            assert kinds == {"nested-loop"}
        for backend, plan in plans.items():
            assert plan == plans["tuple"], backend

    @pytest.mark.parametrize("backend", (None, "auto"))
    def test_the_default_and_auto_plan_on_the_batch_backend(self, backend):
        planner = (
            TemporalJoinPlanner()
            if backend is None
            else TemporalJoinPlanner(backend=backend)
        )
        assert planner.backend == "columnar"
        x = make_relation(500, name="X", seed=1)
        y = make_relation(500, name="Y", seed=2)
        ranked = planner.alternatives(TemporalOperator.CONTAIN_JOIN, x, y)
        assert {a.backend for a in ranked if a.kind != "nested-loop"} == {
            "columnar"
        }

    def test_the_nested_loop_names_no_backend(self):
        x = make_relation(50, name="X", seed=1)
        y = make_relation(50, name="Y", seed=2)
        ranked = TemporalJoinPlanner(backend="tuple").alternatives(
            TemporalOperator.OVERLAP_JOIN, x, y
        )
        (nested,) = [a for a in ranked if a.kind == "nested-loop"]
        assert nested.backend is None
        assert nested.as_dict()["backend"] is None
        assert nested.describe().startswith("nested-loop (cost ")
        assert Alternative(
            kind="stream",
            entry=None,
            sort_x=False,
            sort_y=False,
            estimated_cost=0.0,
            cost_breakdown={},
        ).as_dict()["backend"] == "columnar"


class TestCostModel:
    def test_pages(self):
        model = CostModel(page_capacity=10)
        assert model.pages(0) == 0
        assert model.pages(1) == 1
        assert model.pages(10) == 1
        assert model.pages(11) == 2

    def test_sort_cost_grows_superlinearly_in_passes(self):
        model = CostModel(page_capacity=4, sort_memory_pages=2)
        small = model.sort_cost(8)
        large = model.sort_cost(800)
        assert large > 100 * small / 8  # more passes, not just more pages

    def test_nested_loop_dominates_for_large_inputs(self):
        model = CostModel()
        assert model.nested_loop_cost(1000, 1000) > model.sort_cost(
            1000
        ) * 2 + model.stream_pass_cost(1000, 1000, 50)

    def test_zero_tuples(self):
        model = CostModel()
        assert model.sort_cost(0) == 0.0
        assert model.scan_cost(0) == 0.0


class TestExpectedWorkspace:
    def test_state_class_ordering(self):
        x = collect_statistics(make_relation(500))
        y = collect_statistics(make_relation(500, seed=2))
        d = expected_workspace_for("d", x, y)
        c = expected_workspace_for("c", x, y)
        a = expected_workspace_for("a", x, y)
        bad = expected_workspace_for("-", x, y)
        assert d == 0.0
        assert d < c < a < bad
        assert bad == 1000.0


class TestPlannerChoices:
    def test_large_inputs_choose_stream(self, planner):
        x = make_relation(600, name="X")
        y = make_relation(600, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "stream"

    def test_tiny_inputs_choose_nested_loop(self, planner):
        x = make_relation(4, name="X")
        y = make_relation(4, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "nested-loop"

    def test_existing_order_avoids_sort(self, planner):
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TS_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "stream"
        assert not choice.sort_x and not choice.sort_y
        assert str(choice.entry.x_order) == "ValidFrom^"

    def test_interesting_order_tips_the_choice(self, planner):
        """With Y already ValidTo-sorted, the (TS^, TE^) entry wins the
        tie because it needs one fewer sort — the 'interesting orders'
        effect."""
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TE_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.entry.state_class == "b"
        assert not choice.sort_x and not choice.sort_y

    def test_semijoin_prefers_buffer_only_entry(self, planner):
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TE_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_SEMIJOIN, x, y)
        assert choice.entry.state_class == "d"

    def test_alternatives_are_ranked(self, planner):
        x = make_relation(300, name="X")
        y = make_relation(300, name="Y", seed=2)
        ranked = planner.alternatives(TemporalOperator.CONTAIN_JOIN, x, y)
        costs = [alt.estimated_cost for alt in ranked]
        assert costs == sorted(costs)
        assert any(alt.kind == "nested-loop" for alt in ranked)


class TestPlannerExecution:
    def test_execute_stream_correctness(self, planner):
        x = make_relation(200, duration=30, name="X")
        y = make_relation(200, duration=6, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        assert profile.chosen.kind == "stream"
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected
        assert profile.metrics is not None
        assert profile.metrics.passes_x == 1

    def test_execute_nested_loop_correctness(self, planner):
        x = make_relation(6, duration=30, name="X")
        y = make_relation(6, duration=6, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        assert profile.chosen.kind == "nested-loop"
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected

    def test_execute_semijoin(self, planner):
        x = make_relation(150, duration=25, name="X")
        y = make_relation(150, duration=5, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_SEMIJOIN, x, y
        )
        expected = sorted(
            a.value
            for a in x
            if any(contain_predicate(a, b) for b in y)
        )
        assert sorted(t.value for t in results) == expected

    def test_before_semijoin_never_needs_sort(self, planner):
        x = make_relation(400, name="X")
        y = make_relation(400, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.BEFORE_SEMIJOIN, x, y)
        assert choice.kind == "stream"
        assert not choice.sort_x and not choice.sort_y

    def test_before_join_falls_back_to_nested_loop(self, planner):
        x = make_relation(100, name="X")
        y = make_relation(100, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.BEFORE_JOIN, x, y)
        assert choice.kind == "nested-loop"


class TestHistogramPlanning:
    def bursty_relation(self, name, seed):
        """A dense burst inside a sparse tail — the workload where the
        stationary workspace model misleads."""
        from repro.model import TemporalRelation, TemporalSchema
        from repro.model.tuples import TemporalTuple

        burst = [
            TemporalTuple(f"{name}b{i}", i, 5000 + i, 5000 + i + 60)
            for i in range(200)
        ]
        tail = [
            TemporalTuple(f"{name}t{i}", 1000 + i, 50 * i, 50 * i + 5)
            for i in range(200)
        ]
        return TemporalRelation(
            TemporalSchema(name, "Id", "Seq"), burst + tail
        )

    def test_histogram_workspace_estimate_is_larger_on_bursts(self):
        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        stationary = TemporalJoinPlanner()
        histogram = TemporalJoinPlanner(use_histograms=True)
        op = TemporalOperator.OVERLAP_JOIN
        flat_ws = stationary.choose(op, x, y).cost_breakdown[
            "expected_workspace"
        ]
        hist_ws = histogram.choose(op, x, y).cost_breakdown[
            "expected_workspace"
        ]
        assert hist_ws > flat_ws * 3

    def test_histogram_estimate_matches_measurement(self):
        from repro.model import TS_ASC

        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        planner = TemporalJoinPlanner(use_histograms=True)
        results, profile = planner.execute(
            TemporalOperator.OVERLAP_JOIN,
            x.sorted_by(TS_ASC),
            y.sorted_by(TS_ASC),
        )
        assert results
        predicted = profile.chosen.cost_breakdown["expected_workspace"]
        measured = profile.metrics.workspace_high_water
        assert predicted * 0.4 <= measured <= predicted * 2.5

    def test_histogram_choice_still_correct(self):
        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        plain_results, _ = TemporalJoinPlanner().execute(
            TemporalOperator.OVERLAP_JOIN, x, y
        )
        hist_results, _ = TemporalJoinPlanner(use_histograms=True).execute(
            TemporalOperator.OVERLAP_JOIN, x, y
        )
        canonical = lambda rs: sorted(
            (a.value, b.value) for a, b in rs
        )
        assert canonical(plain_results) == canonical(hist_results)


class TestWorkspaceBudgetFallback:
    """The trade-off triangle, operationally: when the chosen stream
    plan overflows a finite workspace, STRICT says so and DEGRADE pays
    in extra passes (the spill) and still answers correctly."""

    def inputs(self):
        x = make_relation(300, duration=40, name="X")
        y = make_relation(300, duration=8, name="Y", seed=2)
        return x, y

    def test_generous_budget_streams(self):
        x, y = self.inputs()
        planner = TemporalJoinPlanner()
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y, workspace_budget=10_000
        )
        assert profile.details["execution_report"].workspace_overflows == 0
        assert profile.details["recovery"] == "strict"
        assert profile.chosen.kind == "stream"
        assert results

    def test_tiny_budget_falls_back(self):
        x, y = self.inputs()
        with pytest.raises(WorkspaceOverflowError):
            TemporalJoinPlanner().execute(
                TemporalOperator.CONTAIN_JOIN, x, y, workspace_budget=2
            )
        # The planner's own budget is the default; DEGRADE spills.
        results, profile = TemporalJoinPlanner(workspace_budget=2).execute(
            TemporalOperator.CONTAIN_JOIN,
            x,
            y,
            recovery=RecoveryPolicy.DEGRADE,
        )
        report = profile.details["execution_report"]
        assert [event.kind for event in report.fallbacks] == ["spill"]
        assert report.passes_added >= 1
        # Correctness is preserved through the fallback.
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected

    def test_zero_state_plan_ignores_budget(self):
        x, y = self.inputs()
        planner = TemporalJoinPlanner()
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_SEMIJOIN, x, y, workspace_budget=0
        )
        assert profile.details["execution_report"].workspace_overflows == 0
        assert profile.chosen.entry.state_class in ("c", "d")
        if profile.chosen.entry.state_class == "d":
            assert profile.metrics.workspace_high_water == 0

    @pytest.mark.parametrize("backend", PHYSICAL_BACKENDS)
    @pytest.mark.parametrize("order", (TS_ASC, TE_DESC), ids=("upper", "mirrored"))
    def test_mirrored_cell_honours_the_budget_like_its_twin(self, order, backend):
        """TEv/TEv is the lower-half twin of TS^/TS^: the same state,
        so the same budget breach, whichever half the operands' order
        selects and whichever backend runs the cell — and a governance
        cap of the same size is a different limit with one answer."""
        x, y = (r.sorted_by(order) for r in self.inputs())
        planner = TemporalJoinPlanner(backend=backend, workspace_budget=5)
        with pytest.raises(WorkspaceOverflowError):
            planner.execute(TemporalOperator.CONTAIN_JOIN, x, y)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN,
            x,
            y,
            recovery=RecoveryPolicy.DEGRADE,
        )
        assert profile.chosen.entry.x_order == order
        assert profile.chosen.entry.mirrored is (order is TE_DESC)
        fallbacks = profile.details["execution_report"].fallbacks
        assert [event.kind for event in fallbacks] == ["spill"]
        assert len(results) == sum(
            contain_predicate(a, b) for a in x for b in y
        )
        with governed(budget=QueryBudget(workspace_tuple_cap=5)):
            with pytest.raises(BudgetExceededError):
                TemporalJoinPlanner(backend=backend).execute(
                    TemporalOperator.CONTAIN_JOIN,
                    x,
                    y,
                    recovery=RecoveryPolicy.DEGRADE,
                )
