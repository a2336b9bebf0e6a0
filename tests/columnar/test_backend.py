"""Backend-selection plumbing: registry, processors, planner."""

import pytest

from repro.columnar import CELLS, ColumnarProcessor
from repro.errors import (
    ExecutionError,
    UnsupportedBackendError,
    UnsupportedSortOrderError,
    WorkspaceOverflowError,
)
from repro.model import (
    TE_ASC,
    TE_DESC,
    TS_ASC,
    TemporalRelation,
    TemporalSchema,
    TemporalTuple,
    sort_tuples,
)
from repro.optimizer.planner import TemporalJoinPlanner
from repro.resilience.recovery import RecoveryPolicy
from repro.streams import (
    BACKENDS,
    TemporalOperator,
    TupleStream,
    lookup,
)
from repro.streams.registry import supported_entries


def T(value, ts, te):
    return TemporalTuple(f"s{value}", value, ts, te)


XS = [T(0, 0, 10), T(1, 2, 6), T(2, 5, 12)]
YS = [T(10, 1, 4), T(11, 3, 6), T(12, 6, 11)]


def stream(tuples, order, name):
    return TupleStream.from_tuples(
        sort_tuples(tuples, order), order=order, name=name
    )


OVERLAP_JOIN = lookup(TemporalOperator.OVERLAP_JOIN, TS_ASC, TS_ASC)
SELF_CONTAIN = lookup(TemporalOperator.SELF_CONTAIN_SEMIJOIN, TS_ASC)


class TestRegistrySelection:
    def test_backends_constant(self):
        assert BACKENDS == ("tuple", "columnar", "fused")

    def test_supported_cells_offer_all_backends(self):
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        assert entry.backends == ("tuple", "columnar", "fused")

    def test_unsupported_cells_offer_neither(self):
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TE_ASC, TE_ASC)
        assert entry.backends == ()
        with pytest.raises(UnsupportedSortOrderError):
            entry.factory_for("columnar")

    def test_unknown_backend_rejected(self):
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        with pytest.raises(UnsupportedBackendError):
            entry.factory_for("vectorised")

    def test_build_backend_dispatch(self):
        entry = lookup(TemporalOperator.CONTAIN_JOIN, TS_ASC, TS_ASC)
        processor = entry.build(
            stream(XS, TS_ASC, "X"),
            stream(YS, TS_ASC, "Y"),
            backend="columnar",
        )
        assert isinstance(processor, ColumnarProcessor)
        assert processor.cell is entry.cell
        assert processor.cell is CELLS["contain-join[TS^,TS^]"]
        assert processor.operator == "columnar-contain-join[TS^,TS^]"
        pairs = processor.run()
        assert sorted((a.value, b.value) for a, b in pairs) == [
            (0, 10),
            (0, 11),
            (2, 12),
        ]


class TestColumnarProcessors:
    def test_admission_check_matches_tuple_backend(self):
        with pytest.raises(UnsupportedSortOrderError):
            OVERLAP_JOIN.build(
                stream(XS, TE_ASC, "X"),
                stream(YS, TS_ASC, "Y"),
                backend="columnar",
            )

    def test_binary_operator_requires_y(self):
        with pytest.raises(TypeError):
            OVERLAP_JOIN.build(stream(XS, TS_ASC, "X"), backend="columnar")

    def test_single_use(self):
        processor = SELF_CONTAIN.build(
            stream(XS, TS_ASC, "X"), backend="columnar"
        )
        processor.run()
        with pytest.raises(ExecutionError):
            processor.run()

    def test_order_violation_surfaces(self):
        from repro.errors import StreamOrderError

        bad = TupleStream.from_tuples(XS[::-1], order=TS_ASC, name="bad")
        processor = SELF_CONTAIN.build(bad, backend="columnar")
        with pytest.raises(StreamOrderError):
            processor.run()

    def test_meter_limit_enforced(self):
        processor = OVERLAP_JOIN.build(
            stream(XS, TS_ASC, "X"),
            stream(YS, TS_ASC, "Y"),
            backend="columnar",
        )
        processor.meter.limit = 1
        with pytest.raises(WorkspaceOverflowError):
            processor.run()

    def test_meter_trace_enabled(self):
        processor = OVERLAP_JOIN.build(
            stream(XS, TS_ASC, "X"),
            stream(YS, TS_ASC, "Y"),
            backend="columnar",
        )
        processor.meter.enable_trace()
        processor.run()
        trace = processor.meter.trace
        assert trace is not None and len(trace) > 1
        assert max(trace) == processor.metrics.workspace.high_water

    def test_metrics_account_like_tuple_backend(self):
        entry = lookup(TemporalOperator.CONTAIN_SEMIJOIN, TS_ASC, TS_ASC)
        results = {}
        for backend in entry.backends:
            processor = entry.build(
                stream(XS, TS_ASC, "X"),
                stream(YS, TS_ASC, "Y"),
                backend=backend,
            )
            out = processor.run()
            results[backend] = sorted(t.value for t in out)
            report = processor.metrics.workspace
            assert report.total_inserted == report.total_discarded
            assert report.residual == 0
        assert results["tuple"] == results["columnar"]


class TestMirroredCells:
    """Lower-half entries run the upper-half cell on negated columns."""

    ENTRY = lookup(TemporalOperator.CONTAIN_JOIN, TE_DESC, TE_DESC)

    @pytest.mark.parametrize("backend", ["columnar", "fused"])
    def test_operator_names_the_mirror_and_admits_mirrored_orders(
        self, backend
    ):
        processor = self.ENTRY.build(
            stream(XS, TE_DESC, "X"), stream(YS, TE_DESC, "Y"),
            backend=backend,
        )
        assert processor.cell is CELLS["contain-join[TS^,TS^]"]
        assert processor.operator == (
            f"mirror({backend}-contain-join[TS^,TS^])"
        )
        assert processor.metrics.kernel == "contain_join_ts_ts"
        with pytest.raises(UnsupportedSortOrderError):
            self.ENTRY.build(
                stream(XS, TS_ASC, "X"), stream(YS, TS_ASC, "Y"),
                backend=backend,
            )

    @pytest.mark.parametrize("backend", ["columnar", "fused"])
    def test_unnegatable_endpoint_overflows_before_any_output(
        self, backend
    ):
        """-2**63 has no time reversal in an int64 column: a typed
        error naming the row, raised before the sweep."""
        xs = XS + [TemporalTuple("floor", 99, -(2**63), 3)]
        processor = self.ENTRY.build(
            stream(xs, TE_DESC, "X"), stream(YS, TE_DESC, "Y"),
            backend=backend,
        )
        with pytest.raises(ExecutionError, match=f"row 3 of 'X'.* {-2**63} "):
            processor.run()
        assert processor.metrics.output_count == 0
        assert processor.metrics.comparisons == 0


class TestPlannerBackend:
    def make_relations(self):
        schema_x = TemporalSchema("X", "Id", "Seq")
        schema_y = TemporalSchema("Y", "Id", "Seq")
        x = TemporalRelation(
            schema_x, sort_tuples(XS * 5, TS_ASC), order=TS_ASC
        )
        y = TemporalRelation(
            schema_y, sort_tuples(YS * 5, TS_ASC), order=TS_ASC
        )
        return x, y

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnsupportedBackendError):
            TemporalJoinPlanner(backend="gpu")

    def test_backends_agree_end_to_end(self):
        x, y = self.make_relations()
        outputs = {}
        for backend in BACKENDS:
            planner = TemporalJoinPlanner(backend=backend)
            results, profile = planner.execute(
                TemporalOperator.OVERLAP_JOIN, x, y
            )
            outputs[backend] = sorted(
                (a.value, b.value) for a, b in results
            )
            if profile.chosen.kind == "stream":
                assert profile.metrics.passes_x == 1
        assert outputs["tuple"] == outputs["columnar"]

    @pytest.mark.parametrize("order", [TS_ASC, TE_DESC], ids=str)
    @pytest.mark.parametrize(
        "base",
        [
            2**42 - 50,  # straddling where the packed store stopped,
            -(2**42) - 50,  # on either side
            2**62 - 300,
            -(2**62),
        ],
    )
    def test_fused_and_auto_take_any_int64_endpoints(self, base, order):
        """Nothing is packed into the batch kernels' slot store, so
        ``auto`` offers every cell on the batch backend wherever the
        endpoints sit, and the cell (``order`` ValidFrom^) and its mirror
        (ValidTov, which sweeps the negated endpoints) run them to the
        same rows under either batch label."""

        def relation(name, rows):
            return TemporalRelation(
                TemporalSchema(name, "Id", "Seq"),
                sort_tuples(
                    [T(i, base + ts, base + te) for i, (ts, te) in rows],
                    order,
                ),
                order=order,
            )

        x = relation("X", enumerate((2 * i, 2 * i + 40) for i in range(120)))
        y = relation(
            "Y", enumerate((2 * i + 1, 2 * i + 11) for i in range(120))
        )
        offered = {True: set(), False: set()}
        for alt in TemporalJoinPlanner(backend="auto").alternatives(
            TemporalOperator.CONTAIN_JOIN, x, y
        ):
            if alt.kind == "stream":
                offered[alt.entry.mirrored].add(alt.backend)
        assert offered[False] == offered[True] == {"columnar"}
        rows = {}
        for backend in ("columnar", "fused", "auto"):
            results, profile = TemporalJoinPlanner(backend=backend).execute(
                TemporalOperator.CONTAIN_JOIN, x, y
            )
            assert profile.chosen.kind == "stream"
            assert profile.chosen.entry.mirrored is (order is TE_DESC)
            rows[backend] = [(a.value, b.value) for a, b in results]
        assert profile.chosen.backend == "columnar"  # auto's pick
        assert rows["fused"] == rows["auto"] == rows["columnar"]
        assert sorted(rows["fused"]) == [
            (i, k)
            for i in range(120)
            for k in range(120)
            if 2 * i < 2 * k + 1 and 2 * k + 11 < 2 * i + 40
        ]

    def test_columnar_planner_skips_tuple_only_cells(self):
        """Every enumerated stream alternative must actually be
        executable on the planner's backend."""
        x, y = self.make_relations()
        planner = TemporalJoinPlanner(backend="columnar")
        for alt in planner.alternatives(
            TemporalOperator.CONTAIN_SEMIJOIN, x, y
        ):
            if alt.kind == "stream":
                assert "columnar" in alt.entry.backends

    def test_workspace_budget_falls_back_to_nested_loop(self):
        """A one-tuple workspace: STRICT raises the overflow, DEGRADE's
        spill (the block nested loop) answers as the tuple backend.
        Operands large enough that a stream cell, not the nested loop,
        wins the plan."""
        x, y = (
            TemporalRelation(
                TemporalSchema(name, "Id", "Seq"),
                [T(i, 2 * i + shift, 2 * i + shift + 9) for i in range(120)],
                order=TS_ASC,
            )
            for name, shift in (("X", 0), ("Y", 1))
        )
        planner = TemporalJoinPlanner(backend="columnar", workspace_budget=1)
        with pytest.raises(WorkspaceOverflowError):
            planner.execute(TemporalOperator.OVERLAP_JOIN, x, y)
        results, profile = planner.execute(
            TemporalOperator.OVERLAP_JOIN,
            x,
            y,
            recovery=RecoveryPolicy.DEGRADE,
        )
        fallbacks = profile.details["execution_report"].fallbacks
        assert [event.kind for event in fallbacks] == ["spill"]
        baseline = TemporalJoinPlanner(backend="tuple").execute(
            TemporalOperator.OVERLAP_JOIN, x, y
        )[0]
        assert sorted((a.value, b.value) for a, b in results) == sorted(
            (a.value, b.value) for a, b in baseline
        )


def test_every_supported_cell_reachable_per_backend():
    """Building every supported cell on every advertised backend must
    yield a runnable processor (mirrored lower-half rows included)."""
    operators = [
        TemporalOperator.CONTAIN_JOIN,
        TemporalOperator.CONTAIN_SEMIJOIN,
        TemporalOperator.CONTAINED_SEMIJOIN,
        TemporalOperator.OVERLAP_JOIN,
        TemporalOperator.OVERLAP_SEMIJOIN,
        TemporalOperator.BEFORE_SEMIJOIN,
    ]
    mirrored_seen = 0
    for operator in operators:
        for entry in supported_entries(operator):
            mirrored_seen += entry.mirrored
            for backend in entry.backends:
                processor = entry.build(
                    stream(XS, entry.x_order, "X"),
                    stream(YS, entry.y_order, "Y"),
                    backend=backend,
                )
                processor.run()
    assert mirrored_seen > 0
