"""The REP rules against the fixture corpus and the real tree.

Two directions per rule: the violation fixtures must fire at exact
(rule, path, line) coordinates (no blind spots), and the clean
fixtures plus the whole of ``src/repro`` must stay silent (no false
positives).  The fixture tree mirrors the repo layout because the
rules scope by path fragment.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import all_rules, analyze_paths, select_rules

FIXTURES = Path(__file__).parent / "fixtures" / "repo"
REPO_SRC = Path(__file__).parent.parent.parent / "src" / "repro"

#: Every finding the corpus must produce, exactly.
EXPECTED = {
    ("REP001", "streams/rep001_violation.py", 5),
    ("REP001", "streams/rep001_violation.py", 9),
    ("REP001", "streams/rep001_violation.py", 13),
    ("REP001", "streams/rep001_violation.py", 17),
    ("REP001", "streams/rep001_violation.py", 21),
    ("REP001", "streams/rep001_violation.py", 25),
    ("REP001", "streams/rep001_violation.py", 29),
    ("REP001", "streams/rep001_violation.py", 33),
    ("REP001", "streams/rep_suppressed.py", 14),
    ("REP003", "parallel/rep003_violation.py", 7),
    ("REP003", "parallel/rep003_violation.py", 8),
    ("REP003", "parallel/rep003_violation.py", 12),
    ("REP003", "parallel/rep003_violation.py", 16),
    ("REP003", "parallel/rep003_violation.py", 16),
    ("REP003", "parallel/rep003_violation.py", 20),
    ("REP003", "governance/rep003_violation.py", 7),
    ("REP004", "columnar/kernels.py", 4),
    ("REP004", "streams/rep004_violation.py", 5),
    ("REP005", "obs/rep005_violation.py", 5),
    ("REP005", "obs/rep005_violation.py", 11),
    ("REP006", "streams/rep006_violation.py", 5),
    ("REP007", "parallel/rep007_violation.py", 7),
    ("REP007", "parallel/rep007_violation.py", 14),
    ("REP007", "parallel/rep007_violation.py", 27),
    ("REP007", "parallel/rep007_violation.py", 31),
    ("REP007", "parallel/rep007_violation.py", 36),
    ("REP008", "storage/heap_file.py", 1),
    ("REP008", "storage/heap_file.py", 10),
    ("REP008", "storage/heap_file.py", 14),
    ("REP009", "resilience/rep009_violation.py", 9),
    ("REP009", "resilience/rep009_violation.py", 17),
}

#: Fixture files that must produce no findings at all.
CLEAN_FIXTURES = [
    "model/interval.py",
    "model/rep003_scope.py",
    "streams/rep001_clean.py",
    "parallel/rep003_clean.py",
    "governance/rep003_clean.py",
    "streams/rep004_clean.py",
    "obs/rep005_clean.py",
    "streams/rep006_clean.py",
    "parallel/rep007_clean.py",
    "streams/rep008_clean.py",
    "resilience/rep009_clean.py",
]


@pytest.fixture(scope="module")
def corpus_report():
    return analyze_paths([FIXTURES], root=FIXTURES)


def test_corpus_produces_exactly_the_expected_findings(corpus_report):
    got = {(f.rule, f.path, f.line) for f in corpus_report.findings}
    # The two REP003 findings on line 16 collapse in a set; compare
    # multiset cardinality separately.
    assert got == EXPECTED
    assert len(corpus_report.findings) == 31
    assert not corpus_report.parse_errors


def test_every_rule_fires_somewhere(corpus_report):
    fired = {f.rule for f in corpus_report.findings}
    assert fired == {r.id for r in all_rules()}


def test_suppressions_are_counted(corpus_report):
    # rep_suppressed.py: REP006 silenced by code, REP001 by blanket.
    assert corpus_report.suppressed == 2


def test_mismatched_noqa_code_does_not_suppress(corpus_report):
    # noqa(REP003) on a REP001 violation leaves the finding live.
    assert ("REP001", "streams/rep_suppressed.py", 14) in {
        (f.rule, f.path, f.line) for f in corpus_report.findings
    }


def test_mismatched_noqa_is_reported_unused(corpus_report):
    # ...and the same stale noqa(REP003) is surfaced as unused, so
    # --strict-noqa keeps the exemption list honest.
    assert [
        (u.path, u.line, u.codes)
        for u in corpus_report.unused_suppressions
    ] == [("streams/rep_suppressed.py", 14, ("REP003",))]


@pytest.mark.parametrize("relative", CLEAN_FIXTURES)
def test_clean_fixtures_stay_silent(relative):
    report = analyze_paths([FIXTURES / relative], root=FIXTURES)
    assert report.clean, [f.render() for f in report.findings]


def test_single_rule_selection_restricts_findings():
    report = analyze_paths(
        [FIXTURES], rules=select_rules(["REP006"]), root=FIXTURES
    )
    assert {f.rule for f in report.findings} == {"REP006"}
    assert len(report.findings) == 1


def test_real_tree_is_clean():
    """The acceptance criterion: the linter exits 0 on src/repro."""
    report = analyze_paths([REPO_SRC], root=REPO_SRC.parent.parent)
    assert report.clean, "\n" + "\n".join(
        f.render() for f in report.findings
    )
    assert report.files_scanned > 100


def test_shm_noqa_suppressions_are_load_bearing(tmp_path):
    """Stripping the justified REP007 noqas from the real shm.py must
    re-fire the rule — the exemptions are suppressing live findings,
    not decorating dead lines."""
    text = (REPO_SRC / "parallel" / "shm.py").read_text(encoding="utf-8")
    assert text.count("# repro: noqa(REP007)") == 3
    target_dir = tmp_path / "parallel"
    target_dir.mkdir()
    doctored = target_dir / "shm.py"
    doctored.write_text(
        text.replace("  # repro: noqa(REP007)", ""), encoding="utf-8"
    )
    report = analyze_paths([doctored], root=tmp_path)
    assert report.findings and {f.rule for f in report.findings} == {
        "REP007"
    }
    assert len(report.findings) == 3


def test_chained_comparison_yields_one_finding(corpus_report):
    # a.valid_from <= point < a.valid_to is one hazard, not two.
    chain_findings = [
        f
        for f in corpus_report.findings
        if f.path == "streams/rep001_violation.py" and f.line == 17
    ]
    assert len(chain_findings) == 1
