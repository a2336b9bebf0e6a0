"""Per-pass read counters across restarts.

``restart()`` resets order verification but deliberately never the
cumulative counters; before :attr:`TupleStream.pass_reads` a multi-pass
run (a nested-loop inner, or a DEGRADE re-sort) reported one aggregated
``tuples_read`` total with no way to see what each pass cost.  These
tests pin the per-pass breakdown — including through the columnar batch
drain and a traced DEGRADE recovery.
"""

from repro.model import TS_ASC, TemporalTuple, sort_tuples
from repro.obs.trace import Tracer, set_tracer
from repro.resilience import RecoveryPolicy
from repro.resilience.executor import execute_entry
from repro.streams import TemporalOperator, TupleStream, lookup


def tuples(n, start=0):
    return [
        TemporalTuple(f"s{i}", i, start + i, start + i + 5) for i in range(n)
    ]


def drain(stream):
    return list(stream.drain())


class TestPassReads:
    def test_single_pass(self):
        stream = TupleStream.from_tuples(tuples(7), order=TS_ASC)
        drain(stream)
        assert stream.passes == 1
        assert stream.tuples_read == 7
        assert stream.pass_reads == [7]

    def test_restart_reports_each_pass_separately(self):
        stream = TupleStream.from_tuples(tuples(5), order=TS_ASC)
        drain(stream)
        stream.restart()
        drain(stream)
        # The cumulative counters aggregate; the breakdown does not.
        assert stream.passes == 2
        assert stream.tuples_read == 10
        assert stream.pass_reads == [5, 5]

    def test_partial_final_pass(self):
        stream = TupleStream.from_tuples(tuples(5), order=TS_ASC)
        drain(stream)
        stream.restart()
        stream.advance()
        stream.advance()
        assert stream.pass_reads == [5, 2]

    def test_batch_pass_accounting_matches_cursor_passes(self):
        stream = TupleStream.from_tuples(tuples(5), order=TS_ASC)
        stream.note_batch_pass(5)
        assert stream.passes == 1
        assert stream.tuples_read == 5
        assert stream.pass_reads == [5]

    def test_nested_loop_inner_shows_one_entry_per_outer_tuple(self):
        from repro.streams import NestedLoopJoin, overlap_predicate

        xs, ys = tuples(3), tuples(4)
        inner = TupleStream.from_tuples(ys, order=TS_ASC, name="Y")
        NestedLoopJoin(
            TupleStream.from_tuples(xs, order=TS_ASC, name="X"),
            inner,
            overlap_predicate,
        ).run()
        assert inner.passes == len(inner.pass_reads) == len(xs)
        assert sum(inner.pass_reads) == inner.tuples_read
        assert all(n == len(ys) for n in inner.pass_reads)


class TestPassEvents:
    def test_stream_pass_event_carries_per_pass_read_count(self):
        tracer = Tracer("t")
        previous = set_tracer(tracer)
        try:
            with tracer.span("q"):
                stream = TupleStream.from_tuples(tuples(4), order=TS_ASC)
                drain(stream)
                stream.restart()
                stream.advance()
                drain(stream)
        finally:
            set_tracer(previous)
        (span,) = tracer.find("q")
        events = [e for e in span.events if e["name"] == "stream.pass"]
        assert [e["attributes"]["read"] for e in events] == [4, 4]
        assert [e["attributes"]["number"] for e in events] == [1, 2]

    def test_degrade_resort_reports_passes_per_attempt(self):
        entry = lookup(TemporalOperator.OVERLAP_JOIN, TS_ASC, TS_ASC)
        xs = sort_tuples(tuples(12), TS_ASC)
        shuffled = [xs[3], xs[0]] + xs[4:] + [xs[1], xs[2]]
        ys = sort_tuples(tuples(12, start=2), TS_ASC)
        tracer = Tracer("t")
        previous = set_tracer(tracer)
        try:
            with tracer.span("q"):
                outcome = execute_entry(
                    entry,
                    shuffled,
                    ys,
                    policy=RecoveryPolicy.DEGRADE,
                )
        finally:
            set_tracer(previous)
        assert outcome.report.fallbacks
        # The order is checked and the operand re-sorted before the
        # cell runs, so the cell runs once, one pass per operand.
        attempts = tracer.find("attempt")
        assert [a.attributes["number"] for a in attempts] == [1]
        (span,) = tracer.find("q")
        resorts = [e for e in span.events if e["name"] == "recovery.re-sort"]
        assert [e["attributes"]["side"] for e in resorts] == ["X"]
        assert outcome.metrics.passes_x == 1
        assert outcome.metrics.pass_reads_x == [
            outcome.metrics.tuples_read_x
        ]
