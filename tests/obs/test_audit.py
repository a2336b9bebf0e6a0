"""Per-query audit records: schema, construction, the append-only log,
the run_query hook (success and failure), and the CLI subcommand."""

import json
from dataclasses import fields

import pytest

from repro.algebra import optimize
from repro.cli import main
from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    AuditLog,
    build_record,
    normalize_query,
    registry_hash,
    render_record,
    validate_record,
)
from repro.obs.explain import render_join, render_shard
from repro.obs.trace import Tracer, set_tracer
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.parallel import ShardRun
from repro.query import parse_query, run_query, translate
from repro.resilience.recovery import RecoveryPolicy
from repro.streams import ProcessorMetrics
from repro.workload import PoissonWorkload, fixed_duration

DURING_QUERY = (
    "range of a is X range of b is Y "
    "retrieve (A = a.Seq, B = b.Seq) where a during b"
)


def catalog(n=120):
    x = PoissonWorkload(n, 0.4, fixed_duration(4), name="X").generate(5)
    y = PoissonWorkload(n, 0.4, fixed_duration(30), name="Y").generate(6)
    return {"X": x, "Y": y}


class TestRecordConstruction:
    def test_success_record_is_schema_valid(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        record = build_record(DURING_QUERY, result=result)
        assert validate_record(record) == []
        assert record["status"] == "ok"
        assert record["rows"] == len(result.rows)
        assert record["schema_version"] == AUDIT_SCHEMA_VERSION
        assert record["plan_hash"] and len(record["plan_hash"]) == 16
        assert record["registry_hash"] == registry_hash()
        assert record["error"] is None
        assert "metrics" not in record
        # JSON-serialisable as-is: that is the JSONL contract.
        json.dumps(record)

    def test_error_record_captures_exception(self):
        record = build_record("retrieve oops", error=ValueError("boom"))
        assert validate_record(record) == []
        assert record["status"] == "error"
        assert record["error"] == {"type": "ValueError", "message": "boom"}
        assert record["rows"] is None

    def test_query_ids_are_unique_and_sequenced(self):
        a = build_record("q", error=ValueError("x"))["query_id"]
        b = build_record("q", error=ValueError("x"))["query_id"]
        assert a != b
        assert a.startswith("q") and "-" in a

    def test_normalize_collapses_whitespace_and_bounds(self):
        assert normalize_query("  a \n\t b  ") == "a b"
        assert len(normalize_query("x" * 2000)) == 500

    def test_registry_hash_is_stable(self):
        assert registry_hash() == registry_hash()
        assert len(registry_hash()) == 16

    def test_stream_join_entries_recorded(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        record = build_record(DURING_QUERY, result=result)
        joins = record["stream_joins"]
        assert joins and joins[0]["output_rows"] == len(result.rows)
        # The front door plans on the batch backend; the record names
        # what ran.
        assert record["backend"] == result.stream_joins[0].metrics.backend
        assert record["backend"] == "columnar"

    def test_nested_loop_alternative_names_no_backend(self):
        """The nested loop runs no registry cell, so its ranked row
        carries no backend; every stream row carries the one that
        would run it."""
        result = run_query(DURING_QUERY, catalog(), streams=True)
        record = build_record(DURING_QUERY, result=result)
        ranked = record["stream_joins"][0]["alternatives"]
        backends = {row["kind"]: row["backend"] for row in ranked}
        assert backends == {"nested-loop": None, "stream": "columnar"}

    def test_backend_is_none_without_a_stream_join(self):
        result = run_query(DURING_QUERY, catalog())
        record = build_record(DURING_QUERY, result=result)
        assert record["stream_joins"] is None
        assert record["backend"] is None


MODES = {
    "serial": {},
    "inline-2": {"parallelism": 2, "parallel_mode": "inline"},
    "process-2": {"parallelism": 2, "parallel_mode": "process"},
}
#: What legitimately differs between two runs of one query: clocks and
#: which worker took the shard.  A worker never traces, so its
#: ``worker_spans_created`` is 0 traced or not and must match.
VOLATILE = {"wall_seconds", "wall_ms", "pid"}


def audited(backend, mode, recovery, traced):
    """One hybrid run of the during-query at a size where a 2-shard
    plan wins on every backend: (audit record, tracer)."""
    cat = catalog(150)
    plan = optimize(translate(parse_query(DURING_QUERY), cat))
    planner = TemporalJoinPlanner(backend=backend, **MODES[mode])
    tracer = Tracer("audited") if traced else None
    previous = set_tracer(tracer) if traced else None
    # ``None``: the caller names no policy (the id ``legacy`` is kept
    # from when that was a mode of its own; it is STRICT).
    policy = {} if recovery is None else {"recovery": recovery}
    try:
        executed = execute_hybrid(plan, cat, planner=planner, **policy)
    finally:
        if traced:
            set_tracer(previous)
    return build_record(DURING_QUERY, result=executed), tracer


def stable(rows):
    return [
        {k: v for k, v in row.items() if k not in VOLATILE} for row in rows
    ]


@pytest.mark.parametrize(
    "recovery", [None, RecoveryPolicy.DEGRADE], ids=["legacy", "degrade"]
)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", ["tuple", "columnar", "fused", "auto"])
def test_record_is_the_same_traced_or_untraced(backend, mode, recovery):
    """The record is built from the result's rows, never from the
    trace: tracing a query changes no join row and no shard row."""
    plain, _ = audited(backend, mode, recovery, traced=False)
    traced, tracer = audited(backend, mode, recovery, traced=True)
    for record in (plain, traced):
        assert validate_record(record) == []
        json.dumps(record)
        (join,) = record["stream_joins"]
        assert join["recovery"] == (recovery or RecoveryPolicy.STRICT).value
        assert record["backend"] == join["metrics"]["backend"]
        assert record["backend"] == join["alternatives"][0]["backend"]
        if backend != "auto":
            assert record["backend"] == backend
        assert bool(record["shards"]) == (mode != "serial")
        # Measured next to estimated, per join.
        assert join["metrics"]["output_count"] == join["output_rows"]
        estimates = join["alternatives"][0]["cost_breakdown"]
        assert {"expected_workspace", "expected_output"} <= set(estimates)
    assert stable(traced["stream_joins"]) == stable(plain["stream_joins"])
    assert stable(traced["shards"] or []) == stable(plain["shards"] or [])
    # One ``shard:<i>`` span per shard row, identified as the row is.
    spans = [s for s in tracer.spans if s.name.startswith("shard:")]
    assert [
        (span.attributes["shard"], span.attributes["attempt"])
        for span in spans
    ] == [(row["shard"], row["attempt"]) for row in traced["shards"] or []]


#: What a span may say of its shard: which one, which dispatch attempt,
#: which worker — what names the shard row it times.
IDENTITY = {"shard", "attempt", "pid"}
#: Every key of the operator row and of the shard row.
COUNTED = set(ProcessorMetrics().to_dict()) | set(
    ShardRun(*[0] * len(fields(ShardRun))).as_dict()
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", ["tuple", "columnar", "fused"])
def test_spans_carry_timings_not_counts(backend, mode):
    """The counts live once, on the result's rows: no operator, shard
    or stream-join span repeats a key of either row, identity aside."""
    _, tracer = audited(backend, mode, None, traced=True)
    spans = [
        s
        for s in tracer.spans
        if s.name.startswith(("operator:", "shard:", "stream-join:"))
    ]
    # A worker does not trace: a process-mode shard is its row-timed
    # ``shard:<i>`` span alone, with no operator span under it.
    in_workers = any(
        s.name.startswith("parallel:") and s.attributes["mode"] == "process"
        for s in tracer.spans
    )
    operators = any(s.name.startswith("operator:") for s in spans)
    assert operators == (not in_workers)
    assert any(s.name.startswith("stream-join:") for s in spans)
    sharded = any(s.name.startswith("shard:") for s in spans)
    assert sharded == (mode != "serial")
    for span in spans:
        assert not (set(span.attributes) & COUNTED) - IDENTITY, (
            span.name,
            span.attributes,
        )


class TestValidation:
    def base(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        return build_record(DURING_QUERY, result=result)

    def test_missing_required_field_flagged(self):
        record = self.base()
        del record["query_id"]
        assert any("query_id" in p for p in validate_record(record))

    def test_wrong_type_flagged(self):
        record = self.base()
        record["rows"] = "many"
        assert any("rows" in p for p in validate_record(record))

    def test_newer_schema_version_flagged(self):
        record = self.base()
        record["schema_version"] = AUDIT_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_record(record))

    def test_error_status_requires_error_payload(self):
        record = self.base()
        record["status"] = "error"
        assert any("error" in p for p in validate_record(record))

    def test_shard_rows_need_shard_and_attempt(self):
        record = self.base()
        record["shards"] = [{"output_count": 3}]
        problems = validate_record(record)
        assert any("'shard'" in p for p in problems)
        assert any("'attempt'" in p for p in problems)

    def test_non_dict_record_rejected(self):
        assert validate_record([1, 2]) != []

    def test_version_1_record_with_metrics_still_validates(self):
        """Version-1 records written while a metrics registry existed
        carry a ``metrics`` snapshot; the key is now unknown, and
        unknown keys are ignored, so old logs stay valid."""
        assert AUDIT_SCHEMA_VERSION == 1
        record = {
            "backend": None,
            "containment": None,
            "error": None,
            "governance": None,
            "metrics": {
                "repro_workspace_state_tuples": {
                    "count": 0,
                    "kind": "histogram",
                    "max": None,
                    "sum": 0.0,
                },
            },
            "plan_hash": "a76e325f78f48a0e",
            "query": "range of a is X retrieve (A = a.Seq) where a.Seq < 3",
            "query_id": "q0001-f91c27bda7b1",
            "registry_hash": "a77374006b81d5ab",
            "rows": 3,
            "schema_version": 1,
            "shards": None,
            "status": "ok",
            "stream_joins": None,
            "trace": None,
            "ts_unix": 1792201040.058,
        }
        assert validate_record(record) == []

    def test_version_1_record_with_speculations_still_validates(self):
        """Version-1 records written while the pool re-dispatched slow
        shards carry that counter in ``containment``; the counter is
        gone, and old logs stay valid and renderable."""
        assert AUDIT_SCHEMA_VERSION == 1
        shard = {
            "attempt": 0,
            "backend": "fused",
            "degraded": False,
            "eviction_checks": 1288,
            "fallbacks": 0,
            "kernel": "contain_join_ts_ts",
            "operator": "contain-join",
            "output_count": 1161,
            "owned_hi": 300,
            "owned_lo": 0,
            "passes_x": 1,
            "passes_y": 1,
            "pid": 28895,
            "residual_filtered": 0,
            "shard": 0,
            "wall_ms": 3.887,
            "worker_spans_created": 0,
            "x_tuples": 300,
            "y_tuples": 311,
        }
        record = {
            "backend": "fused",
            "containment": {
                "shard_retries": 0,
                "speculations": 0,
                "worker_deaths": 0,
            },
            "error": None,
            "governance": None,
            "plan_hash": "bf48eb2c516de0d8",
            "query": (
                "range of x is Faculty range of y is Faculty retrieve "
                "(Outer = x.Name, Inner = y.Name) where x.ValidFrom < "
                "y.ValidFrom and y.ValidTo < x.ValidTo"
            ),
            "query_id": "q0001-cf3bb56f5e70",
            "registry_hash": "a77374006b81d5ab",
            "rows": 2060,
            "schema_version": 1,
            "shards": [shard],
            "status": "ok",
            "stream_joins": None,
            "trace": None,
            "ts_unix": 1792201040.058,
        }
        assert validate_record(record) == []
        assert "q0001-cf3bb56f5e70" in render_record(record)


class TestAuditLog:
    def test_append_records_tail_round_trip(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for i in range(5):
            log.append(
                build_record(f"query {i}", error=ValueError(str(i)))
            )
        records = log.records()
        assert len(records) == 5
        assert [r["query"] for r in log.tail(2)] == ["query 3", "query 4"]
        assert all(validate_record(r) == [] for r in records)

    def test_missing_file_reads_empty(self, tmp_path):
        assert AuditLog(tmp_path / "nope.jsonl").records() == []


class TestRunQueryHook:
    def test_one_record_per_call(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        cat = catalog()
        run_query(DURING_QUERY, cat, streams=True, audit=path)
        run_query(DURING_QUERY, cat, streams=True, audit=str(path))
        records = AuditLog(path).records()
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)
        # Same query, same registry: identical plan/registry hashes.
        assert records[0]["plan_hash"] == records[1]["plan_hash"]
        assert records[0]["registry_hash"] == records[1]["registry_hash"]

    def test_traced_run_embeds_trace_summary_and_shards(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        result = run_query(
            DURING_QUERY,
            catalog(),
            streams=True,
            trace=True,
            parallelism=2,
            audit=path,
        )
        (record,) = AuditLog(path).records()
        assert validate_record(record) == []
        assert record["trace"]["spans"] == len(result.trace.spans)
        shards = record["shards"] or []
        spans = [
            s.attributes
            for s in result.trace.spans
            if s.name.startswith("shard:")
        ]
        assert [s["shard"] for s in shards] == [s["shard"] for s in spans]
        assert [s["attempt"] for s in shards] == [
            s["attempt"] for s in spans
        ]

    def test_failure_is_audited_then_reraised(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with pytest.raises(Exception):
            run_query("this is not a query", catalog(), audit=path)
        (record,) = AuditLog(path).records()
        assert record["status"] == "error"
        assert record["error"]["type"]


class TestRendering:
    def test_render_mentions_the_essentials(self):
        result = run_query(DURING_QUERY, catalog(), streams=True)
        text = render_record(build_record(DURING_QUERY, result=result))
        assert "OK" in text
        assert f"rows={len(result.rows)}" in text
        assert "plan=" in text

    def test_v1_record_with_trace_worker_pids_still_reads(self):
        """A v1 record written when the trace summary carried
        ``worker_pids`` still validates and renders; the renderer's
        ``workers=`` comes from the shard rows."""
        result = run_query(
            DURING_QUERY, catalog(), streams=True, trace=True, parallelism=2
        )
        record = build_record(DURING_QUERY, result=result)
        assert "worker_pids" not in record["trace"]
        record["trace"]["worker_pids"] = [4242]
        assert record["schema_version"] == 1
        assert validate_record(record) == []
        pids = sorted(
            {s["pid"] for s in record["shards"] or [] if s["pid"] is not None}
        )
        assert f"workers={pids}" in render_record(record)

    def test_render_error_record(self):
        text = render_record(
            build_record("bad", error=RuntimeError("kaput"))
        )
        assert "ERROR" in text and "kaput" in text


class TestCliAudit:
    def run_cli(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_validate_ok_log(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        run_query(DURING_QUERY, catalog(), streams=True, audit=path)
        code, out, err = self.run_cli(
            ["audit", str(path), "--validate"], capsys
        )
        assert code == 0
        assert "all valid" in err
        assert "OK" in out

    def test_validate_flags_bad_record(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        record = build_record("q", error=ValueError("x"))
        del record["query_id"]
        log.append(record)
        code, _, err = self.run_cli(
            ["audit", str(path), "--validate"], capsys
        )
        assert code == 1
        assert "INVALID" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["audit", str(tmp_path / "nope.jsonl")], capsys
        )
        assert code == 2

    def test_json_output_parses(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        run_query(DURING_QUERY, catalog(), streams=True, audit=path)
        code, out, _ = self.run_cli(
            ["audit", str(path), "--json", "--tail", "1"], capsys
        )
        assert code == 0
        assert json.loads(out.strip())["status"] == "ok"

    def test_explain_analyze_writes_audit_log(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        code = main(
            [
                "explain-analyze",
                "--faculty",
                "60",
                "--parallelism",
                "2",
                "--audit-log",
                str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        records = AuditLog(path).records()
        assert records and records[-1]["status"] == "ok"
        assert all(validate_record(r) == [] for r in records)

    def test_default_explain_analyze_is_audited(self, tmp_path, capsys):
        """Without query text explain-analyze still runs through
        run_query, so it is audited like any other run."""
        path = tmp_path / "audit.jsonl"
        code = main(
            ["explain-analyze", "--faculty", "60", "--audit-log", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        (record,) = AuditLog(path).records()
        assert validate_record(record) == []
        assert record["trace"] is None
        (join,) = record["stream_joins"]
        assert join["operator"] == "contain-join"

    @pytest.mark.parametrize(
        "tail, shown", [(None, 5), (0, 0), (2, 2), (-2, 0), (9, 5)]
    )
    def test_tail_shows_the_last_n_records(
        self, tmp_path, capsys, tail, shown
    ):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        for i in range(5):
            log.append(build_record(f"query {i}", error=ValueError(str(i))))
        args = ["audit", str(path), "--json"]
        if tail is not None:
            args += ["--tail", str(tail)]
        code, out, _ = self.run_cli(args, capsys)
        assert code == 0
        queries = [json.loads(line)["query"] for line in out.splitlines()]
        assert queries == [f"query {i}" for i in range(5 - shown, 5)]

    def test_render_uses_the_explain_join_block(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        result = run_query(
            DURING_QUERY, catalog(), streams=True, parallelism=2, audit=path
        )
        code, out, _ = self.run_cli(["audit", str(path)], capsys)
        assert code == 0
        (record,) = AuditLog(path).records()
        for line in render_join(record["stream_joins"][0], 1):
            assert f"  {line}" in out
        for shard in record["shards"] or []:
            assert render_shard(shard) in out
        (join,) = result.stream_joins
        assert f"rows={join.output_rows}" in out
