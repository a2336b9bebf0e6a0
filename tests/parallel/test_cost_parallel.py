"""The parallel-vs-serial decision in the cost model and planner."""

import pytest

from repro.optimizer import CostModel, TemporalJoinPlanner
from repro.optimizer.cost import (
    choose_shard_count,
    expected_replication_per_cut,
)
from repro.stats import collect_statistics
from repro.streams import TemporalOperator
from repro.workload import PoissonWorkload, fixed_duration


def make_relation(n, rate=0.5, duration=20, name="R", seed=1):
    return PoissonWorkload(
        n, rate, fixed_duration(duration), name=name
    ).generate(seed)


class TestChooseShardCount:
    def test_tiny_inputs_stay_serial(self):
        model = CostModel()
        x = collect_statistics(make_relation(40, seed=1))
        y = collect_statistics(make_relation(40, seed=2))
        assert choose_shard_count(model, x, y, 10.0, 8, available_cpus=8) == 1

    def test_large_inputs_go_parallel(self):
        model = CostModel()
        x = collect_statistics(make_relation(4000, seed=1))
        y = collect_statistics(make_relation(4000, seed=2))
        workers = choose_shard_count(model, x, y, 20.0, 8, available_cpus=8)
        assert workers > 1

    def test_max_workers_caps_the_search(self):
        model = CostModel()
        x = collect_statistics(make_relation(4000, seed=1))
        y = collect_statistics(make_relation(4000, seed=2))
        assert choose_shard_count(model, x, y, 20.0, 2, available_cpus=8) <= 2

    def test_single_cpu_prefers_serial(self):
        # Even inputs that clearly justify sharding stay serial when
        # only one core can run them: time-slicing K shards on one CPU
        # pays the coordination for none of the speedup.
        model = CostModel()
        x = collect_statistics(make_relation(4000, seed=1))
        y = collect_statistics(make_relation(4000, seed=2))
        assert choose_shard_count(model, x, y, 20.0, 8, available_cpus=1) == 1

    def test_cpu_count_caps_the_search(self):
        model = CostModel()
        x = collect_statistics(make_relation(4000, seed=1))
        y = collect_statistics(make_relation(4000, seed=2))
        assert choose_shard_count(model, x, y, 20.0, 8, available_cpus=2) <= 2

    def test_default_cpu_clamp_is_host_honest(self):
        # With no explicit grant the search may never exceed the host's
        # core count (the regression: K=4 planned on a 1-CPU box).
        import os

        model = CostModel()
        x = collect_statistics(make_relation(4000, seed=1))
        y = collect_statistics(make_relation(4000, seed=2))
        workers = choose_shard_count(model, x, y, 20.0, 8)
        assert workers <= (os.cpu_count() or 1)

    def test_workers_1_cost_equals_serial_pass(self):
        model = CostModel()
        assert model.parallel_stream_cost(
            1000, 1000, 30.0, workers=1
        ) == model.stream_pass_cost(1000, 1000, 30.0)

    def test_replication_grows_with_interval_length(self):
        short_x = collect_statistics(
            make_relation(500, duration=5, seed=1)
        )
        long_x = collect_statistics(
            make_relation(500, duration=80, seed=1)
        )
        y = collect_statistics(make_relation(500, seed=2))
        assert expected_replication_per_cut(
            long_x, y
        ) > expected_replication_per_cut(short_x, y)


class TestPlannerParallelAlternative:
    def test_parallel_alternative_enumerated(self):
        planner = TemporalJoinPlanner(parallelism=4)
        x = make_relation(3000, name="X", seed=1)
        y = make_relation(3000, name="Y", seed=2)
        ranked = planner.alternatives(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        kinds = {a.kind for a in ranked}
        assert "parallel-stream" in kinds
        parallel = next(
            a for a in ranked if a.kind == "parallel-stream"
        )
        assert 2 <= parallel.workers <= 4
        assert "workers" in parallel.cost_breakdown
        assert parallel.describe().startswith(
            f"parallel[{parallel.workers}]-stream"
        )

    def test_no_parallelism_means_no_parallel_alternatives(self):
        planner = TemporalJoinPlanner()
        x = make_relation(3000, name="X", seed=1)
        y = make_relation(3000, name="Y", seed=2)
        ranked = planner.alternatives(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        assert all(a.kind != "parallel-stream" for a in ranked)

    def test_small_inputs_choose_serial(self):
        planner = TemporalJoinPlanner(parallelism=4)
        x = make_relation(60, name="X", seed=1)
        y = make_relation(60, name="Y", seed=2)
        chosen = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert chosen.kind != "parallel-stream"

    @pytest.mark.parametrize(
        "operator",
        [TemporalOperator.CONTAIN_JOIN, TemporalOperator.OVERLAP_JOIN],
    )
    def test_parallel_execute_matches_serial_rows(self, operator):
        x = make_relation(1500, name="X", seed=3)
        y = make_relation(1500, name="Y", seed=4)
        serial_rows, serial_profile = TemporalJoinPlanner().execute(
            operator, x, y
        )
        parallel_planner = TemporalJoinPlanner(
            parallelism=4, parallel_mode="inline"
        )
        rows, profile = parallel_planner.execute(operator, x, y)
        if profile.chosen.kind == "parallel-stream":
            assert profile.chosen.workers > 1

        def sig(pairs):
            return sorted(
                (a.surrogate, b.surrogate) for a, b in pairs
            )

        assert sig(rows) == sig(serial_rows)
        assert serial_profile.chosen is not None
