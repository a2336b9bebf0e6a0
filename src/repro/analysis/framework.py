"""AST lint framework: rules, suppressions, reporters.

Deliberately dependency-free and small.  A :class:`Rule` inspects one
:class:`SourceModule` (the parsed AST plus path/line context) and
yields :class:`Finding` objects; :func:`analyze_paths` walks a file
set, dispatches every registered rule per file, filters findings
through ``# repro: noqa(...)`` suppressions, and returns an
:class:`AnalysisReport` that the CLI renders as human text or JSON.

Suppression syntax (modelled on flake8's ``noqa``, but namespaced so
the two cannot collide)::

    risky_line()  # repro: noqa(REP001)
    other_line()  # repro: noqa(REP001, REP006)
    anything()    # repro: noqa

A bare ``noqa`` suppresses every rule on that line; the parenthesised
form suppresses only the listed rule ids.  Suppressions are counted in
the report so a CI job can surface how many exemptions exist, and
suppressions that no longer suppress anything are reported as *unused*
(``--strict-noqa`` turns them into a failure) so the exemption list
ratchets down instead of accreting.

The JSON report is schema-versioned (``schema_version``, currently
:data:`REPORT_SCHEMA_VERSION`), mirroring ``repro.obs.audit``:
:func:`validate_report` checks a parsed report against the schema so
CI artifact consumers can rely on its shape.
"""

from __future__ import annotations

import abc
import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from ..errors import ReproError


class AnalysisFrameworkError(ReproError):
    """Raised for misuse of the lint framework itself (duplicate rule
    ids, unknown rule selection, unreadable inputs)."""


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ----------------------------------------------------------------------
# source modules
# ----------------------------------------------------------------------
class SourceModule:
    """One parsed Python file under analysis."""

    def __init__(self, path: Path, text: str, display_path: str) -> None:
        self.path = path
        self.text = text
        #: The path rendered in findings (relative where possible).
        self.display_path = display_path
        #: Forward-slash path used by rules for scope decisions, so the
        #: same rule logic works on every platform and on fixture trees.
        self.posix = path.as_posix()
        self.tree = ast.parse(text, filename=str(path))
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def in_dir(self, fragment: str) -> bool:
        """True when ``fragment`` (e.g. ``"parallel"``) names one of the
        file's parent directories."""
        return f"/{fragment}/" in self.posix

    def is_file(self, suffix: str) -> bool:
        """True when the posix path ends with ``suffix`` (e.g.
        ``"model/interval.py"``)."""
        return self.posix.endswith(suffix)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule.id,
            message=message,
            path=self.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
        )

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the module AST (built lazily; used
        e.g. to decide whether a call is a ``with`` context item)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
class Rule(abc.ABC):
    """One lint rule.  Subclasses set the class attributes and
    implement :meth:`check`."""

    #: Stable identifier, e.g. ``"REP001"``.
    id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: The paper claim (or engineering invariant) the rule protects.
    rationale: str = ""

    @abc.abstractmethod
    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for one source module."""


_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise AnalysisFrameworkError(
            f"rule {rule_cls.__name__} has no id"
        )
    existing = _RULE_REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise AnalysisFrameworkError(
            f"duplicate rule id {rule_cls.id!r} "
            f"({existing.__name__} vs {rule_cls.__name__})"
        )
    _RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, in id order."""
    from . import rules as _builtin  # noqa: F401  (registers on import)
    from . import flow_rules as _flow  # noqa: F401  (REP007-REP009)

    return [
        _RULE_REGISTRY[rule_id]() for rule_id in sorted(_RULE_REGISTRY)
    ]


def select_rules(ids: Sequence[str]) -> List[Rule]:
    """Instantiate only the requested rule ids."""
    available = {rule.id: rule for rule in all_rules()}
    missing = [rule_id for rule_id in ids if rule_id not in available]
    if missing:
        raise AnalysisFrameworkError(
            f"unknown rule id(s): {', '.join(sorted(missing))}; "
            f"available: {', '.join(sorted(available))}"
        )
    return [available[rule_id] for rule_id in ids]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<codes>[A-Z0-9_,\s]+?)\s*\))?",
)


def suppressions_for(text: str) -> Dict[int, Optional[frozenset]]:
    """Map line number -> suppressed rule ids (``None`` = all rules).

    Comments are located with :mod:`tokenize` rather than a substring
    scan so a ``# repro: noqa`` inside a string literal does not
    suppress anything.
    """
    suppressed: Dict[int, Optional[frozenset]] = {}
    lines = iter(text.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except tokenize.TokenError:  # unterminated constructs: best effort
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        codes = match.group("codes")
        if codes is None:
            suppressed[line] = None
        else:
            ids = frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            )
            previous = suppressed.get(line, frozenset())
            if previous is None:
                continue  # blanket suppression already in force
            suppressed[line] = ids | previous
    return suppressed


def is_suppressed(
    finding: Finding, suppressed: Dict[int, Optional[frozenset]]
) -> bool:
    entry = suppressed.get(finding.line, frozenset())
    if entry is None:
        return True
    return finding.rule in entry


# ----------------------------------------------------------------------
# the analysis driver
# ----------------------------------------------------------------------
#: Version of the JSON report schema (``AnalysisReport.to_dict``).
#: Bump on any key addition/removal/retyping, mirroring
#: ``repro.obs.audit.AUDIT_SCHEMA_VERSION``.
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class UnusedSuppression:
    """A ``# repro: noqa`` comment that suppressed no finding."""

    path: str
    line: int
    #: The listed rule ids; empty for a blanket ``noqa``.
    codes: tuple

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "codes": list(self.codes),
        }

    def render(self) -> str:
        spelled = f"({', '.join(self.codes)})" if self.codes else ""
        return (
            f"{self.path}:{self.line}: unused suppression "
            f"'# repro: noqa{spelled}' — no finding is suppressed here"
        )


@dataclass
class AnalysisReport:
    """Aggregate result of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)
    unused_suppressions: List[UnusedSuppression] = field(
        default_factory=list
    )

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "parse_errors": list(self.parse_errors),
            "findings": [finding.to_dict() for finding in self.findings],
            "unused_suppressions": [
                unused.to_dict() for unused in self.unused_suppressions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_human(self) -> str:
        out = [finding.render() for finding in self.findings]
        out.extend(f"PARSE ERROR: {error}" for error in self.parse_errors)
        out.extend(
            unused.render() for unused in self.unused_suppressions
        )
        noun = "finding" if len(self.findings) == 1 else "findings"
        out.append(
            f"{len(self.findings)} {noun} in {self.files_scanned} files "
            f"({self.suppressed} suppressed)"
        )
        return "\n".join(out)


_REPORT_SCHEMA = {
    "schema_version": int,
    "files_scanned": int,
    "suppressed": int,
    "parse_errors": list,
    "findings": list,
    "unused_suppressions": list,
}
_FINDING_SCHEMA = {
    "rule": str,
    "message": str,
    "path": str,
    "line": int,
    "col": int,
}


def validate_report(record: dict) -> List[str]:
    """Validate a parsed ``--json`` report against schema v1.

    Returns a list of problems (empty = valid), mirroring
    ``repro.obs.audit.validate_record`` so CI artifact consumers have
    one validation idiom for both.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"report must be an object, got {type(record).__name__}"]
    for key, expected in _REPORT_SCHEMA.items():
        if key not in record:
            problems.append(f"missing key {key!r}")
        elif not isinstance(record[key], expected):
            problems.append(
                f"key {key!r} must be {expected.__name__}, got "
                f"{type(record[key]).__name__}"
            )
    extra = sorted(set(record) - set(_REPORT_SCHEMA))
    if extra:
        problems.append(f"unknown key(s): {', '.join(extra)}")
    if record.get("schema_version") != REPORT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {record.get('schema_version')!r} != "
            f"{REPORT_SCHEMA_VERSION}"
        )
    for index, finding in enumerate(record.get("findings") or []):
        if not isinstance(finding, dict):
            problems.append(f"findings[{index}] must be an object")
            continue
        for key, expected in _FINDING_SCHEMA.items():
            if not isinstance(finding.get(key), expected):
                problems.append(
                    f"findings[{index}].{key} must be "
                    f"{expected.__name__}"
                )
    for index, unused in enumerate(record.get("unused_suppressions") or []):
        if not isinstance(unused, dict) or not {
            "path",
            "line",
            "codes",
        } <= set(unused):
            problems.append(
                f"unused_suppressions[{index}] must have "
                "path/line/codes"
            )
    return problems


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_module(path: Path, root: Optional[Path] = None) -> SourceModule:
    text = path.read_text(encoding="utf-8")
    display = path.as_posix()
    if root is not None:
        try:
            display = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return SourceModule(path, text, display)


def analyze_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run ``rules`` (default: all registered) over every Python file
    reachable from ``paths``."""
    active = list(rules) if rules is not None else all_rules()
    active_ids = {rule.id for rule in active}
    report = AnalysisReport()
    for path in iter_python_files(paths):
        try:
            module = load_module(path, root=root)
        except (OSError, SyntaxError, ValueError) as error:
            report.parse_errors.append(f"{path}: {error}")
            continue
        report.files_scanned += 1
        suppressed = suppressions_for(module.text)
        used_lines: set = set()
        for rule in active:
            for finding in rule.check(module):
                if is_suppressed(finding, suppressed):
                    report.suppressed += 1
                    used_lines.add(finding.line)
                else:
                    report.findings.append(finding)
        for line, codes in sorted(suppressed.items()):
            if line in used_lines:
                continue
            # Under --select only a subset of rules ran: a suppression
            # naming rules that did not run is not provably unused.
            if codes is not None and not codes & active_ids:
                continue
            report.unused_suppressions.append(
                UnusedSuppression(
                    path=module.display_path,
                    line=line,
                    codes=tuple(sorted(codes)) if codes else (),
                )
            )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.unused_suppressions.sort(key=lambda u: (u.path, u.line))
    return report
