"""EXPLAIN ANALYZE: the traced run_query surface, the renderer over the
result, the single-scan gate over join and shard rows, and the CLI
subcommand end to end (artifact files included)."""

import json
import re

import pytest

from repro.algebra import optimize
from repro.cli import main
from repro.obs.explain import render_explain, scan_violations
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import parse_query, run_query, translate
from repro.workload import PoissonWorkload, fixed_duration

DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)


def catalog(n=120):
    x = PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": x, "Y": y}


def masked(text):
    """The text with every time (a ``<n>ms`` token) blanked."""
    return re.sub(r"[0-9.]+ms\b", "-ms", text)


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
        # The span is the operator's time; its counts are the join row's.
        assert [s.attributes for s in operators] == [{}]
        (join,) = result.stream_joins
        assert (join.metrics.passes_x, join.metrics.passes_y) == (1, 1)
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
    def result(self):
        return run_query(DURING_QUERY, catalog(), streams=True)

    def test_join_block_shows_measured_counts(self, result):
        text = render_explain(result)
        (join,) = result.stream_joins
        metrics = join.metrics
        assert "join 1: contain-join  (sides swapped)" in text
        assert (
            f"x={metrics.tuples_read_x} tuples/1 pass  "
            f"y={metrics.tuples_read_y} tuples/1 pass  "
            f"out={join.output_rows}  cmp={metrics.comparisons}"
        ) in text
        assert f"tuples_built=0  sorted={join.sorted}" in text
        # The conventional engine's counters close the text.
        assert text.splitlines()[-1] == (
            f"scans_started={result.stats.scans_started}"
            f"  rows_scanned={result.stats.rows_scanned}"
            f"  comparisons={result.stats.comparisons}"
            f"  rows_materialized={result.stats.rows_materialized}"
        )

    def test_render_explain_includes_plan(self, result):
        text = render_explain(result)
        assert text.startswith("== logical plan ==\n" + result.plan.explain())
        assert "== stream joins ==" in text
        assert "== conventional engine ==" in text

    def test_every_alternative_shows_its_estimates(self, result):
        """Each ranked alternative's expected workspace and output, and
        under them the measured high-water and rows."""
        lines = render_explain(result).splitlines()
        (join,) = result.stream_joins
        header = lines.index(
            next(line for line in lines if "exp-workspace" in line)
        )
        count = len(join.profile.alternatives)
        ranked = lines[header + 1 : header + 1 + count]
        for rank, (line, alternative) in enumerate(
            zip(ranked, join.profile.alternatives), 1
        ):
            cells = line.split()
            assert cells[0] == str(rank)
            breakdown = alternative.cost_breakdown
            assert cells[-3:] == [
                f"{alternative.estimated_cost:.1f}",
                *(
                    f"{breakdown[key]:.1f}" if key in breakdown else "-"
                    for key in ("expected_workspace", "expected_output")
                ),
            ]
        measured = lines[header + 1 + len(ranked)].split()
        assert measured == [
            "measured",
            str(join.workspace_high_water),
            str(join.output_rows),
        ]

    def test_single_scan_gate_passes_on_the_join_rows(self, result):
        joins = [info.as_dict() for info in result.stream_joins]
        assert joins and joins[0]["metrics"]["passes_x"] == 1
        assert scan_violations(joins) == []

    def test_single_scan_violations_flag_multi_pass(self):
        """One rule for join rows and shard rows: more than one pass
        without recovery is a violation; a row that fell back is
        excused."""

        def join(passes_x, shards=(), fallbacks=()):
            return {
                "operator": "contain-join",
                "metrics": {
                    "passes_x": passes_x,
                    "passes_y": 1,
                    "resilience": {"fallbacks": list(fallbacks)},
                },
                "shards": list(shards),
            }

        def shard(index, passes_y, fallbacks=0):
            return {
                "shard": index,
                "passes_x": 1,
                "passes_y": passes_y,
                "fallbacks": fallbacks,
            }

        assert scan_violations([join(1, [shard(0, 1)])]) == []
        resorted = join(2, fallbacks=[{"kind": "re-sort"}])
        assert scan_violations([resorted]) == []
        assert scan_violations([join(1, [shard(0, 2, fallbacks=1)])]) == []
        joins = [join(2), join(1, [shard(0, 1), shard(1, 2)])]
        assert scan_violations(joins) == [
            "contain-join reported passes_x=2 passes_y=1 without recovery",
            "contain-join shard 1 reported passes_x=1 passes_y=2 "
            "without recovery",
        ]


MODES = {
    "serial": {},
    "inline-2": {"parallelism": 2, "parallel_mode": "inline"},
    "process-2": {"parallelism": 2, "parallel_mode": "process"},
}


def explained(backend, mode, traced):
    """EXPLAIN ANALYZE of one hybrid run of the during-query at a size
    where a 2-shard plan wins on every backend."""
    cat = catalog(150)
    plan = optimize(translate(parse_query(DURING_QUERY), cat))
    planner = TemporalJoinPlanner(backend=backend, **MODES[mode])
    previous = set_tracer(Tracer("explained")) if traced else None
    try:
        executed = execute_hybrid(plan, cat, planner=planner)
    finally:
        if traced:
            set_tracer(previous)
    return render_explain(executed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", ["tuple", "columnar", "fused"])
def test_explain_is_the_same_traced_or_untraced(backend, mode):
    """The text is rendered from the result: tracing the query changes
    nothing in it but the times."""
    plain = explained(backend, mode, traced=False)
    traced = explained(backend, mode, traced=True)
    assert masked(traced) == masked(plain)
    assert f"via={backend}" in plain
    assert ("shard 1:" in plain) == (mode != "serial")


class TestCli:
    def test_default_run_with_artifacts(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        code = main(
            [
                "explain-analyze",
                "--faculty",
                "40",
                "--chrome-trace",
                str(chrome),
                "--jsonl",
                str(jsonl),
                "--check-single-scan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "join 1: contain-join" in out
        assert "measured: x=" in out
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        names = [
            json.loads(line)["name"]
            for line in jsonl.read_text().splitlines()
        ]
        assert "query" in names
        assert any(name.startswith("operator:") for name in names)

    def test_trace_files_do_not_change_the_text(self, tmp_path, capsys):
        """A trace is recorded only for a trace file, and the text is
        the same with or without one."""
        assert main(["explain-analyze", "--faculty", "40"]) == 0
        plain = capsys.readouterr().out
        chrome = tmp_path / "trace.json"
        args = ["explain-analyze", "--faculty", "40", "--chrome-trace"]
        assert main(args + [str(chrome)]) == 0
        traced = capsys.readouterr().out
        assert masked(traced) == masked(plain)
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_budgeted_run_renders_governance(self, capsys):
        code = main(
            ["explain-analyze", "--faculty", "40", "--page-budget", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        section = out[out.index("== governance ==") :].splitlines()
        assert re.fullmatch(r"elapsed=[0-9.]+ms", section[1])
        assert re.fullmatch(r"pages_read=\d+ \(cap 1000\)", section[2])
        assert section[3].endswith("(cap unbounded)")

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
        assert "join 1: contain-join" in out
