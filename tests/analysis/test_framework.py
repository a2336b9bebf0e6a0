"""The lint framework itself: suppressions, reporters, registry."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.framework import (
    REPORT_SCHEMA_VERSION,
    AnalysisFrameworkError,
    AnalysisReport,
    Finding,
    Rule,
    SourceModule,
    UnusedSuppression,
    analyze_paths,
    is_suppressed,
    register_rule,
    select_rules,
    suppressions_for,
    validate_report,
)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_bare_noqa_suppresses_every_rule():
    text = "x = 1  # repro: noqa\n"
    supp = suppressions_for(text)
    assert supp == {1: None}
    finding = Finding("REP999", "m", "f.py", 1, 1)
    assert is_suppressed(finding, supp)


def test_coded_noqa_suppresses_only_listed_rules():
    text = "x = 1  # repro: noqa(REP001, REP006)\n"
    supp = suppressions_for(text)
    assert supp[1] == frozenset({"REP001", "REP006"})
    assert is_suppressed(Finding("REP001", "m", "f.py", 1, 1), supp)
    assert not is_suppressed(Finding("REP003", "m", "f.py", 1, 1), supp)


def test_noqa_inside_string_literal_is_inert():
    text = 's = "# repro: noqa"\nassert s\n'
    assert suppressions_for(text) == {}


def test_noqa_on_other_line_does_not_apply():
    supp = suppressions_for("x = 1  # repro: noqa\ny = 2\n")
    assert not is_suppressed(Finding("REP001", "m", "f.py", 2, 1), supp)


def test_flake8_noqa_is_not_ours():
    assert suppressions_for("import x  # noqa: F401\n") == {}


# ----------------------------------------------------------------------
# source modules
# ----------------------------------------------------------------------
def _module(text: str, posixpath: str) -> SourceModule:
    return SourceModule(Path(posixpath), text, posixpath)


def test_in_dir_matches_parent_directories_only():
    module = _module("x = 1\n", "src/repro/parallel/executor.py")
    assert module.in_dir("parallel")
    assert not module.in_dir("executor")
    assert not module.in_dir("storage")


def test_is_file_matches_path_suffix():
    module = _module("x = 1\n", "src/repro/model/interval.py")
    assert module.is_file("model/interval.py")
    assert not module.is_file("model/tuples.py")


def test_parents_map_links_calls_to_withitems():
    module = _module(
        "with tracer.span('x'):\n    pass\n", "src/repro/obs/x.py"
    )
    call = next(
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
    )
    assert isinstance(module.parents[call], ast.withitem)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_report_json_shape():
    report = AnalysisReport(
        findings=[Finding("REP001", "msg", "a.py", 3, 7)],
        files_scanned=2,
        suppressed=1,
    )
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 1
    assert payload["files_scanned"] == 2
    assert payload["suppressed"] == 1
    assert payload["unused_suppressions"] == []
    assert payload["findings"] == [
        {"rule": "REP001", "message": "msg", "path": "a.py", "line": 3,
         "col": 7}
    ]
    assert validate_report(payload) == []


def test_validate_report_names_every_defect():
    payload = json.loads(AnalysisReport(files_scanned=1).to_json())
    payload["schema_version"] = 99
    payload["findings"] = [{"rule": "REP001", "path": "a.py"}]
    payload["extra_key"] = True
    del payload["suppressed"]
    problems = "\n".join(validate_report(payload))
    assert "schema_version" in problems
    assert "extra_key" in problems
    assert "suppressed" in problems
    assert "message" in problems  # missing finding key


def test_validate_report_rejects_non_dict():
    assert validate_report([]) != []


def test_report_human_rendering_and_clean_flag():
    report = AnalysisReport(files_scanned=3)
    assert report.clean
    assert report.render_human().endswith(
        "0 findings in 3 files (0 suppressed)"
    )
    report.findings.append(Finding("REP006", "bare assert", "b.py", 9, 5))
    assert not report.clean
    assert "b.py:9:5: REP006 bare assert" in report.render_human()


def test_unused_suppressions_collected_and_rendered(tmp_path):
    mod = tmp_path / "quiet.py"
    mod.write_text("x = 1  # repro: noqa\n", encoding="utf-8")
    report = analyze_paths([mod], root=tmp_path)
    assert report.clean  # a dead noqa alone does not dirty the report
    assert [
        (u.path, u.line, u.codes) for u in report.unused_suppressions
    ] == [("quiet.py", 1, ())]
    unused = report.unused_suppressions[0]
    assert isinstance(unused, UnusedSuppression)
    assert "unused suppression" in unused.render()
    assert "unused suppression" in report.render_human()


def test_selection_ignores_out_of_scope_suppressions(tmp_path):
    # Under --select, a noqa for a rule that is not running is neither
    # used nor dead — it must not be flagged.
    mod = tmp_path / "quiet.py"
    mod.write_text("x = 1  # repro: noqa(REP001)\n", encoding="utf-8")
    report = analyze_paths(
        [mod], rules=select_rules(["REP006"]), root=tmp_path
    )
    assert report.unused_suppressions == []


def test_parse_errors_mark_report_dirty(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = analyze_paths([bad])
    assert report.parse_errors and not report.clean


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
def test_select_rules_unknown_id_raises():
    with pytest.raises(AnalysisFrameworkError, match="REP999"):
        select_rules(["REP999"])


def test_register_rule_rejects_duplicate_ids():
    class Impostor(Rule):
        id = "REP001"
        title = "impostor"

        def check(self, module):
            return iter(())

    with pytest.raises(AnalysisFrameworkError, match="duplicate"):
        register_rule(Impostor)


def test_register_rule_requires_an_id():
    class Nameless(Rule):
        def check(self, module):
            return iter(())

    with pytest.raises(AnalysisFrameworkError, match="no id"):
        register_rule(Nameless)
