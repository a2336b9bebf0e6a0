"""The ``python -m repro.analysis [--json FILE]`` exit-code contract.

Exercised in-process through ``main(argv, out=...)`` — the same entry
point the interpreter uses — so the CI contract (0 all cells agree,
1 a mismatch) is pinned without paying subprocess start-up.
"""

from __future__ import annotations

import dataclasses
import io
import json

from repro.analysis.__main__ import main
from repro.analysis.tables import TS_UP
from repro.streams import registry as registry_module
from repro.streams.registry import TemporalOperator


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_plan_alone_exits_zero():
    code, output = _run()
    assert code == 0
    assert output.strip() == "plan check OK: 120 cells, 0 mismatches"


def test_exit_one_on_a_corrupted_cell(monkeypatch):
    registry = dict(registry_module._registry())
    key = (TemporalOperator.CONTAIN_JOIN, TS_UP, TS_UP)
    entry = registry[key]
    registry[key] = dataclasses.replace(
        entry, cell=dataclasses.replace(entry.cell, state_class="d")
    )
    monkeypatch.setattr(registry_module, "_registry", lambda: registry)
    code, output = _run()
    assert code == 1
    assert "MISMATCH contain-join ([ValidFrom^], [ValidFrom^])" in output
    assert "registry declares class 'd'" in output
    assert output.endswith("plan check FAIL: 120 cells, 1 mismatches\n")


def test_json_report_to_stdout():
    code, output = _run("--json", "-")
    assert code == 0
    payload = json.loads(output[output.index("{"):])
    assert payload == {"version": 1, "cells_checked": 120, "mismatches": []}


def test_json_report_to_file(tmp_path):
    target = tmp_path / "plan-check.json"
    code, _ = _run("--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["cells_checked"] == 120 and payload["mismatches"] == []
