"""EXPLAIN ANALYZE: the traced run_query surface, the renderer, and the
CLI subcommand end to end (artifact files included)."""

import json

import pytest

from repro.cli import main
from repro.obs.explain import (
    operator_summaries,
    render_explain,
    render_span_tree,
    single_scan_violations,
)
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer
from repro.query import run_query
from repro.workload import PoissonWorkload, fixed_duration

DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)


def catalog(n=120):
    x = PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": x, "Y": y}


class TestRunQueryTrace:
    def test_untraced_by_default(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        assert result.trace is None
        assert get_tracer() is NULL_TRACER

    def test_trace_true_records_query_tree(self):
        result = run_query(DURING_QUERY, catalog(), streams=True, trace=True)
        tracer = result.trace
        assert tracer is not None and tracer.open_spans == 0
        (query,) = tracer.find("query")
        assert query.attributes["rows"] == len(result.rows)
        # The hybrid planner, the one body that runs a cell (STRICT
        # when no recovery policy was asked for) and the stream
        # operator all report in.
        assert any(s.name.startswith("plan:") for s in tracer.spans)
        (attempt,) = tracer.find("attempt")
        assert attempt.attributes["policy"] == "strict"
        operators = [
            s for s in tracer.spans if s.name.startswith("operator:")
        ]
        assert [s.parent_id for s in operators] == [attempt.span_id]
        assert all(
            s.attributes["passes_x"] == 1 and s.attributes["passes_y"] == 1
            for s in operators
        )
        assert get_tracer() is NULL_TRACER

    def test_existing_tracer_is_reused(self):
        tracer = Tracer("mine")
        result = run_query(
            DURING_QUERY, catalog(), streams=True, trace=tracer
        )
        assert result.trace is tracer

    def test_traced_rows_match_untraced(self):
        cat = catalog()
        plain = run_query(DURING_QUERY, cat, streams=True)
        traced = run_query(DURING_QUERY, cat, streams=True, trace=True)
        assert traced.rows == plain.rows


class TestRendering:
    @pytest.fixture()
    def traced(self):
        return run_query(DURING_QUERY, catalog(), streams=True, trace=True)

    def test_span_tree_has_indented_operator_lines(self, traced):
        text = render_span_tree(traced.trace)
        lines = text.splitlines()
        assert lines[0].startswith("query  (")
        op_lines = [ln for ln in lines if "operator:" in ln]
        assert op_lines and all(ln.startswith("  ") for ln in op_lines)
        assert any("pass" in ln and "cmp=" in ln for ln in op_lines)

    def test_render_explain_includes_plan(self, traced):
        text = render_explain(traced.trace, traced.plan)
        assert "== logical plan ==" in text
        assert "== execution trace (EXPLAIN ANALYZE) ==" in text

    def test_operator_summaries_and_single_scan_gate(self, traced):
        summaries = operator_summaries(traced.trace)
        assert summaries
        for summary in summaries:
            assert summary["passes_x"] == 1
            assert summary["pass_reads_x"] == [summary["tuples_read_x"]]
            assert summary["wall_ms"] >= 0
        assert single_scan_violations(traced.trace) == []

    def test_single_scan_violations_flag_multi_pass(self):
        tracer = Tracer("t")
        with tracer.span("operator:x", passes_x=2, pass_reads_x=[5, 5]):
            pass
        violations = single_scan_violations(tracer)
        assert [v["operator"] for v in violations] == ["x"]


class TestCli:
    def test_default_superstar_run_with_artifacts(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "spans.jsonl"
        code = main(
            [
                "explain-analyze",
                "--faculty",
                "40",
                "--chrome-trace",
                str(chrome),
                "--prometheus",
                str(prom),
                "--jsonl",
                str(jsonl),
                "--check-single-scan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== execution trace (EXPLAIN ANALYZE) ==" in out
        assert "operator:" in out
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        prom_text = prom.read_text()
        assert "repro_stream_passes_total" in prom_text
        assert "repro_operator_runs_total" in prom_text
        for line in jsonl.read_text().splitlines():
            json.loads(line)

    def test_explicit_query_over_csv(self, tmp_path, capsys):
        cat = catalog(n=40)
        paths = {}
        for name, relation in cat.items():
            path = tmp_path / f"{name}.csv"
            schema = relation.schema
            lines = [
                f"{schema.surrogate_name},{schema.value_name},"
                "ValidFrom,ValidTo"
            ]
            lines += [
                f"{t.surrogate},{t.value},{t.valid_from},{t.valid_to}"
                for t in relation.tuples
            ]
            path.write_text("\n".join(lines) + "\n")
            paths[name] = path
        code = main(
            [
                "explain-analyze",
                DURING_QUERY,
                "-r",
                f"X={paths['X']}",
                "-r",
                f"Y={paths['Y']}",
                "--check-single-scan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== logical plan ==" in out
        assert "operator:" in out
