"""Smoke test of the benchmark itself (not part of tier-1)::

    python -m pytest bench/test_smoke.py

Runs ``bench/run.py --smoke`` (1/16 scale, 2 rounds) and checks that
what it emits is what ``BENCHMARK.json`` declares, that the ledger
closes, and that every count repeats exactly across two runs.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def smoke(out: Path, *flags: str) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)]
        + list(flags),
        check=True,
        capture_output=True,
        timeout=120,
    )
    return json.loads(out.read_text())["workloads"]


def units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_untraced_emits_the_declared_end_to_end_metrics(tmp_path):
    workloads = smoke(tmp_path / "untraced.json")
    assert list(workloads) == [w["name"] for w in DECLARED["workloads"]]
    for result in workloads.values():
        assert units(result["metrics"]) == declared("end_to_end")
        assert result["correct"] and result["failed_share"] == 0


def test_traced_emits_the_declared_layers_and_counts_repeat(tmp_path):
    first = smoke(tmp_path / "first.json", "--traced")
    second = smoke(tmp_path / "second.json", "--traced")
    for name, result in first.items():
        metrics = result["metrics"]
        assert units(metrics) == declared("per_layer")
        assert result["correct"] and result["failed_share"] == 0
        # Full scale must stay under 0.02 (README); here a query is
        # ~2 ms, the spans' own bookkeeping close to 1% of it, and the
        # median is over two rounds.
        assert metrics["ledger.residual_share"]["value"] <= 0.05
        for metric, entry in metrics.items():
            if entry["unit"] == "count":
                again = second[name]["metrics"][metric]["value"]
                assert entry["value"] == again, (name, metric)
    joins = {
        name: result["metrics"]["optimizer.stream_joins"]["value"]
        for name, result in first.items()
    }
    assert joins == {
        "fig5_contain": 1,
        "deep_state": 1,
        "tie_overlap": 1,
        "fig8_superstar": 0,
    }
