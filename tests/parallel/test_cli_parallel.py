"""CLI surface: ``explain-analyze --parallelism K`` renders the
per-shard breakdown and the extended single-scan gate covers shards."""

import json

from repro.cli import main


class TestExplainAnalyzeParallelism:
    def test_parallelism_renders_shard_table(self, capsys):
        code = main(
            [
                "explain-analyze",
                "--parallelism",
                "2",
                "--faculty",
                "3000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "  parallel: mode=" in captured.out
        # one row per shard, under its join
        lines = [
            line
            for line in captured.out.splitlines()
            if line.startswith("  shard ")
        ]
        assert [line.split(":")[0] for line in lines] == [
            "  shard 0",
            "  shard 1",
        ], captured.out

    def test_single_scan_gate_covers_shards(self, capsys):
        code = main(
            [
                "explain-analyze",
                "--parallelism",
                "2",
                "--faculty",
                "3000",
                "--check-single-scan",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "single-scan check passed" in captured.err

    def test_small_input_still_works_serially(self, capsys):
        """The cost model may pick serial below the parallel break-even;
        the flag must not force a degenerate sharding."""
        code = main(
            ["explain-analyze", "--parallelism", "4", "--faculty", "50"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "  chosen: " in captured.out

    def test_artifacts_include_shard_spans(self, tmp_path, capsys):
        jsonl = tmp_path / "spans.jsonl"
        code = main(
            [
                "explain-analyze",
                "--parallelism",
                "2",
                "--faculty",
                "3000",
                "--jsonl",
                str(jsonl),
            ]
        )
        capsys.readouterr()
        assert code == 0
        names = [
            json.loads(line)["name"]
            for line in jsonl.read_text().splitlines()
            if '"kind": "span"' in line
        ]
        assert any(name.startswith("shard:") for name in names)
        assert any(name.startswith("parallel:") for name in names)
