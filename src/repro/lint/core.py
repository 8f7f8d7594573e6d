"""Lint framework core: findings, rules, suppressions, drivers.

Rules are small classes registered via :func:`register`; each receives a
fully parsed :class:`ModuleInfo` and yields :class:`Finding` objects.
The drivers apply per-line ``# repro-lint: disable=RULE[,RULE...]``
suppressions *after* the rules run, so suppressed findings are still
counted (and reported as suppressed in the JSON summary) — a suppression
hides a finding, it never hides the fact that one existed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "SuppressionSite",
    "TraceStep",
    "all_rules",
    "collect_suppressions",
    "get_rules",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
]

#: ``# repro-lint: disable=R001`` or ``# repro-lint: disable=R001,R003``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)"
)


@dataclass(frozen=True)
class TraceStep:
    """One hop of a finding's def→use / control-flow trace (always in
    the finding's own file: every analysis is per-function)."""

    line: int            # 1-based line in the finding's file
    note: str            # "read of self._sessions_active", "await ..."

    def as_dict(self) -> dict:
        return {"line": self.line, "note": self.note}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str            # "R001"
    path: str            # repo-relative path of the offending module
    line: int            # 1-based line number
    message: str         # human-readable description
    symbol: str = ""     # class/function the finding anchors to, if any
    suppressed: bool = False
    #: Optional dataflow trace (def→use chain, await crossings ...).
    trace: tuple = ()

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        where = f"{self.path}:{self.line}"
        anchor = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}{anchor} {self.message}{tag}"

    def as_dict(self) -> dict:
        payload = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
            "suppressed": self.suppressed,
        }
        if self.trace:
            payload["trace"] = [step.as_dict() for step in self.trace]
        return payload


class _ParentAnnotator(ast.NodeVisitor):
    """Attach a ``_lint_parent`` attribute to every AST node."""

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]
        super().generic_visit(node)


def parents(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ancestors of ``node`` (requires :class:`ModuleInfo` parsing)."""
    current = getattr(node, "_lint_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_lint_parent", None)


class ModuleInfo:
    """A parsed module plus everything rules need to inspect it.

    ``relpath`` uses "/" separators and is what rules match packages
    against (``predictors/``, ``eval/`` ...).  Tests may pass a *virtual*
    path to lint an in-memory source string as if it lived anywhere in
    the tree — the self-check test replays the historical
    ``PipelinedPredictor.reset()`` bug exactly this way.
    """

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.relpath)
        _ParentAnnotator().visit(self.tree)
        self._suppressions = self._parse_suppressions()

    # -- suppressions ---------------------------------------------------

    def _parse_suppressions(self) -> Dict[int, set]:
        table: Dict[int, set] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            # Documentation *about* the directive quotes it in literal
            # backticks (``# repro-lint: ...``); only unquoted
            # occurrences are live directives.
            start = match.start()
            if start > 0 and text[start - 1] == "`":
                continue
            rules = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
            table[number] = rules
        return table

    def suppressed(self, line: int, rule: str) -> bool:
        """Is ``rule`` disabled on ``line`` (same physical line only)?"""
        return rule in self._suppressions.get(line, set())

    def suppression_lines(self) -> Dict[int, set]:
        """Every ``disable=`` directive in this module, line → rule ids
        (a copy — for the suppression-debt audit)."""
        return {line: set(rules) for line, rules in self._suppressions.items()}

    # -- convenience ----------------------------------------------------

    def in_package(self, *segments: str) -> bool:
        """True when the module path contains any of ``segments`` as a
        path component (``info.in_package("predictors", "timing")``)."""
        parts = self.relpath.split("/")
        return any(segment in parts for segment in segments)

    def segment(self, node: ast.AST) -> str:
        """Best-effort source text of ``node`` (for messages)."""
        try:
            return ast.get_source_segment(self.source, node) or ""
        except Exception:  # pragma: no cover - defensive
            return ""


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`check`.  Registration happens via the :func:`register`
    decorator, which keys the registry by ``id``.  A rule sees one
    module at a time; nothing it reports depends on which other files
    share the run.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        symbol: str = "",
        trace: Sequence[TraceStep] = (),
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            message=message,
            symbol=symbol,
            trace=tuple(trace),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry, keyed by rule id (``R001`` ...)."""
    return dict(_REGISTRY)


def get_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (default: every registered one)."""
    if ids is None:
        return [cls() for _, cls in sorted(_REGISTRY.items())]
    unknown = [rule_id for rule_id in ids if rule_id not in _REGISTRY]
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule(s) {unknown}; known rules: {known}")
    return [_REGISTRY[rule_id]() for rule_id in ids]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        """Findings that are *not* suppressed."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        """Clean run: no unsuppressed findings and no parse errors."""
        return not self.active and not self.errors


def lint_module(
    module: ModuleInfo, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run ``rules`` over one parsed module, applying suppressions."""
    findings: List[Finding] = []
    for rule in rules if rules is not None else get_rules():
        for found in rule.check(module):
            if module.suppressed(found.line, found.rule):
                found = Finding(
                    rule=found.rule,
                    path=found.path,
                    line=found.line,
                    message=found.message,
                    symbol=found.symbol,
                    suppressed=True,
                    trace=found.trace,
                )
            findings.append(found)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_source(
    source: str,
    relpath: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint an in-memory source string under a (possibly virtual) path."""
    return lint_module(ModuleInfo(relpath, source), get_rules(rules))


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    ``root`` anchors the repo-relative paths in findings; it defaults to
    the current working directory when the files live under it.
    """
    selected = get_rules(rules)
    base = (root or Path.cwd()).resolve()
    result = LintResult()
    for file_path in _iter_python_files(Path(p) for p in paths):
        resolved = file_path.resolve()
        try:
            relpath = str(resolved.relative_to(base))
        except ValueError:
            relpath = str(file_path)
        try:
            source = resolved.read_text(encoding="utf-8")
            module = ModuleInfo(relpath, source)
        except (OSError, SyntaxError) as exc:
            result.errors.append(f"{relpath}: {exc}")
            continue
        result.files_checked += 1
        result.findings.extend(lint_module(module, selected))
    return result


@dataclass(frozen=True)
class SuppressionSite:
    """One in-tree ``repro-lint: disable=`` directive."""

    path: str
    line: int
    rules: tuple          # rule ids named by the directive
    text: str             # the source line carrying the directive
    justified: bool       # a comment/docstring sits within reach above

    def format(self) -> str:
        rules = ",".join(self.rules)
        status = "" if self.justified else "  [UNJUSTIFIED]"
        return f"{self.path}:{self.line}: {rules}{status}  {self.text.strip()}"


#: How many lines above a directive may carry its justification.
_JUSTIFICATION_REACH = 6


def _has_justification(lines: List[str], line: int) -> bool:
    """A suppression is justified when an explanatory comment or a
    docstring sits on the same line after the directive, or within the
    preceding few lines (matching the documented convention that every
    suppression's neighbourhood explains *why* the rule is wrong here)."""
    text = lines[line - 1]
    match = _SUPPRESS_RE.search(text)
    if match is not None and text[match.end():].strip(" -—:#"):
        return True
    start = max(0, line - 1 - _JUSTIFICATION_REACH)
    for neighbour in lines[start:line - 1]:
        stripped = neighbour.strip()
        if '"""' in stripped or "'''" in stripped:
            return True
        if "#" in neighbour and _SUPPRESS_RE.search(neighbour) is None:
            return True
    return False


def collect_suppressions(
    paths: Sequence[Path],
    root: Optional[Path] = None,
) -> List[SuppressionSite]:
    """Inventory every suppression directive under ``paths``."""
    base = (root or Path.cwd()).resolve()
    sites: List[SuppressionSite] = []
    for file_path in _iter_python_files(Path(p) for p in paths):
        resolved = file_path.resolve()
        try:
            relpath = str(resolved.relative_to(base))
        except ValueError:
            relpath = str(file_path)
        try:
            source = resolved.read_text(encoding="utf-8")
            module = ModuleInfo(relpath, source)
        except (OSError, SyntaxError):
            continue
        for line, rules in sorted(module.suppression_lines().items()):
            sites.append(
                SuppressionSite(
                    path=relpath,
                    line=line,
                    rules=tuple(sorted(rules)),
                    text=module.lines[line - 1],
                    justified=_has_justification(module.lines, line),
                )
            )
    sites.sort(key=lambda s: (s.path, s.line))
    return sites
