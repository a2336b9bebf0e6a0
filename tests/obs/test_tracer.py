"""The span tree: strict nesting, ordering, and both exporters.

Property tests generate arbitrary tree shapes and verify the tracer
reconstructs exactly that shape with consistent parent/child timing;
the exporters must produce valid JSONL / Chrome trace-event output for
any of them.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    to_chrome_trace,
    to_jsonl,
)

#: Arbitrary tree shapes as nested lists: [] is a leaf, [t1, t2] a node
#: with two subtrees.
tree_shapes = st.recursive(
    st.just([]),
    lambda child: st.lists(child, max_size=3),
    max_leaves=15,
)


def record_tree(tracer, shape, prefix="n"):
    """Open one span per node, children strictly inside parents."""
    with tracer.span(prefix):
        for i, child in enumerate(shape):
            record_tree(tracer, child, f"{prefix}.{i}")


def count_nodes(shape):
    return 1 + sum(count_nodes(child) for child in shape)


def shape_of(tracer, span):
    return [shape_of(tracer, child) for child in tracer.children_of(span)]


class TestNesting:
    @settings(max_examples=50, deadline=None)
    @given(shape=tree_shapes)
    def test_tree_shape_round_trips(self, shape):
        tracer = Tracer("t")
        record_tree(tracer, shape)
        roots = tracer.roots()
        assert len(roots) == 1
        assert shape_of(tracer, roots[0]) == shape
        assert len(tracer.spans) == count_nodes(shape)
        assert tracer.open_spans == 0

    @settings(max_examples=50, deadline=None)
    @given(shape=tree_shapes)
    def test_children_nest_inside_parent_times(self, shape):
        tracer = Tracer("t")
        record_tree(tracer, shape)
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            assert span.end_ns is not None
            assert span.end_ns >= span.start_ns
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

    @settings(max_examples=50, deadline=None)
    @given(shape=tree_shapes)
    def test_walk_is_depth_first_in_start_order(self, shape):
        tracer = Tracer("t")
        record_tree(tracer, shape)
        walked = list(tracer.walk())
        assert len(walked) == len(tracer.spans)
        # Depth-first in start order == ascending span ids (creation
        # order), with each child one level below its parent.
        assert [s.span_id for s, _ in walked] == sorted(
            s.span_id for s in tracer.spans
        )
        depth_of = {s.span_id: d for s, d in walked}
        for span, depth in walked:
            if span.parent_id is not None:
                assert depth == depth_of[span.parent_id] + 1
            else:
                assert depth == 0

    def test_completion_is_post_order(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a.0"):
                    pass
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.spans] == ["a.0", "a", "b", "root"]

    def test_out_of_order_finish_raises(self):
        tracer = Tracer("t")
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(ValueError, match="out of order"):
            outer.finish()

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer("t")
        with pytest.raises(RuntimeError):
            with tracer.span("q"):
                raise RuntimeError("boom")
        (span,) = tracer.find("q")
        assert span.attributes["error"] == "RuntimeError"
        assert span.end_ns is not None

    def test_events_attach_to_current_span(self):
        tracer = Tracer("t")
        tracer.event("orphan", at="top")
        with tracer.span("q"):
            tracer.event("inside", n=1)
        assert [e["name"] for e in tracer.orphan_events] == ["orphan"]
        (span,) = tracer.find("q")
        assert span.events[0]["name"] == "inside"
        assert span.events[0]["attributes"] == {"n": 1}

    def test_set_and_attributes(self):
        tracer = Tracer("t")
        with tracer.span("q", a=1) as span:
            span.set(b=2)
        assert span.attributes == {"a": 1, "b": 2}


class TestActiveTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_set_and_restore(self):
        tracer = Tracer("t")
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is previous


class TestExporters:
    @settings(max_examples=25, deadline=None)
    @given(shape=tree_shapes)
    def test_jsonl_lines_parse_and_cover_every_span(self, shape):
        tracer = Tracer("t")
        record_tree(tracer, shape)
        lines = [
            line for line in to_jsonl(tracer).splitlines() if line
        ]
        records = [json.loads(line) for line in lines]
        assert len(records) == len(tracer.spans)
        for record in records:
            assert record["kind"] == "span"
            assert record["trace"] == "t"
            assert record["end_ns"] >= record["start_ns"]

    @settings(max_examples=25, deadline=None)
    @given(shape=tree_shapes)
    def test_chrome_trace_is_valid_json_with_complete_events(self, shape):
        tracer = Tracer("t")
        record_tree(tracer, shape)
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        for event in complete:
            assert event["dur"] >= 0
            assert {"name", "ts", "pid", "tid"} <= set(event)
        assert any(e["ph"] == "M" for e in events)

    def test_chrome_trace_instant_events(self):
        tracer = Tracer("t")
        with tracer.span("q"):
            tracer.event("stream.pass", stream="X", read=10)
        doc = to_chrome_trace(tracer)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "stream.pass"
        assert instants[0]["args"] == {"stream": "X", "read": 10}

    def test_exporters_survive_unserialisable_attributes(self):
        tracer = Tracer("t")
        with tracer.span("q", obj=object()):
            pass
        assert json.loads(to_jsonl(tracer).splitlines()[0])
        json.dumps(to_chrome_trace(tracer))


class TestChromeTracks:
    def test_own_process_ids_are_real(self):
        import os
        import threading

        tracer = Tracer("t")
        with tracer.span("q"):
            pass
        doc = to_chrome_trace(tracer)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_native_id()
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[os.getpid()] == "repro:t"

    def test_every_pid_has_thread_metadata(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        doc = to_chrome_trace(tracer)
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        thread_meta = {
            e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert pids <= thread_meta
