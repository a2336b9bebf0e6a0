"""The ``python -m repro.analysis`` CLI exit-code contract.

Exercised in-process through ``main(argv, out=...)`` — the same entry
point the interpreter uses — so the CI contract (0 clean / 1 findings
/ 2 usage errors) is pinned without paying subprocess start-up 1600
times.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.framework import validate_report

FIXTURES = Path(__file__).parent / "fixtures" / "repo"
REPO_SRC = Path(__file__).parent.parent.parent / "src"


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_exit_zero_on_clean_tree():
    code, output = _run(str(REPO_SRC), "--root", str(REPO_SRC))
    assert code == 0
    assert "0 findings" in output


def test_exit_one_on_fixture_corpus():
    code, output = _run(str(FIXTURES), "--root", str(FIXTURES))
    assert code == 1
    assert "31 findings" in output and "(2 suppressed)" in output


def test_exit_two_on_missing_path():
    code, _ = _run("no/such/path")
    assert code == 2


def test_exit_two_on_unknown_rule_id():
    code, _ = _run(str(FIXTURES), "--select", "REP999")
    assert code == 2


def test_select_narrows_to_one_rule():
    code, output = _run(
        str(FIXTURES), "--select", "REP006", "--root", str(FIXTURES)
    )
    assert code == 1
    assert "1 finding in" in output


def test_json_report_to_stdout():
    code, output = _run(
        str(FIXTURES), "--root", str(FIXTURES), "--json", "-"
    )
    assert code == 1
    payload = json.loads(output[output.index("{"):])
    assert payload["schema_version"] == 1
    assert len(payload["findings"]) == 31


def test_json_report_to_file(tmp_path):
    target = tmp_path / "report.json"
    code, _ = _run(
        str(FIXTURES), "--root", str(FIXTURES), "--json", str(target)
    )
    assert code == 1
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert {f["rule"] for f in payload["findings"]} == {
        "REP001", "REP003", "REP004", "REP005", "REP006", "REP007",
        "REP008", "REP009",
    }
    assert validate_report(payload) == []


def test_list_rules_catalogue():
    code, output = _run("--list-rules")
    assert code == 0
    for rule_id in ("REP001", "REP003", "REP004", "REP005", "REP006",
                    "REP007", "REP008", "REP009"):
        assert rule_id in output


def test_check_plan_alone_exits_zero():
    code, output = _run("--check-plan")
    assert code == 0
    assert "plan check OK: 120 cells, 0 mismatches" in output


def test_check_plan_combined_with_lint():
    code, output = _run("--check-plan", str(REPO_SRC))
    assert code == 0
    assert "plan check OK" in output and "0 findings" in output


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    code, output = _run(str(bad))
    assert code == 2
    assert "PARSE ERROR" in output


def test_strict_noqa_fails_on_dead_suppression(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text(
        "import time\n\nx = 1  # repro: noqa(REP003)\n", encoding="utf-8"
    )
    code, output = _run(str(stale))
    assert code == 0  # without the flag the dead noqa is tolerated
    code, output = _run(str(stale), "--strict-noqa")
    assert code == 1
    assert "unused suppression" in output


def test_strict_noqa_rejects_select():
    code, _ = _run(str(FIXTURES), "--strict-noqa", "--select", "REP001")
    assert code == 2


def test_real_tree_survives_strict_noqa():
    # Every noqa in src/ must be load-bearing.
    code, output = _run(
        str(REPO_SRC), "--root", str(REPO_SRC), "--strict-noqa"
    )
    assert code == 0
    assert "unused suppression" not in output
