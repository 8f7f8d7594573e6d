"""Render lint results as text, JSON, or SARIF 2.1.0.

The text and JSON forms are byte-stable for findings without traces —
CI diffs and downstream parsers rely on that.  Findings carrying a
dataflow trace append indented ``trace:`` lines (text) or a ``trace``
key (JSON).  SARIF is for code-scanning UIs: each finding becomes a
``result`` whose ``codeFlows`` replay the def→use chain.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .core import Finding, LintResult, all_rules

__all__ = ["render_text", "render_json", "render_sarif", "summary_dict"]


def summary_dict(result: LintResult) -> Dict[str, object]:
    """Machine-readable run summary (embedded in the JSON report)."""
    by_rule: Dict[str, int] = {}
    for finding in result.active:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "files_checked": result.files_checked,
        "findings": len(result.active),
        "suppressed": len(result.suppressed),
        "errors": list(result.errors),
        "by_rule": dict(sorted(by_rule.items())),
        "ok": result.ok,
    }


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    """Human-readable report, one finding per line plus a summary."""
    lines = []
    for finding in result.findings:
        if finding.suppressed and not show_suppressed:
            continue
        lines.append(finding.format())
        for step in finding.trace:
            lines.append(
                f"    trace: {finding.path}:{step.line}  {step.note}"
            )
    for error in result.errors:
        lines.append(f"error: {error}")
    summary = summary_dict(result)
    lines.append(
        f"{summary['files_checked']} file(s) checked:"
        f" {summary['findings']} finding(s),"
        f" {summary['suppressed']} suppressed"
    )
    if result.active:
        counts = ", ".join(
            f"{rule}={count}" for rule, count in summary["by_rule"].items()
        )
        lines.append(f"by rule: {counts}")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Full machine-readable report (findings + summary + rule catalogue)."""
    payload = {
        "summary": summary_dict(result),
        "findings": [finding.as_dict() for finding in result.findings],
        "rules": {
            rule_id: {"title": cls.title, "rationale": cls.rationale}
            for rule_id, cls in sorted(all_rules().items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _sarif_location(path: str, line: int) -> Dict[str, object]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": max(1, line)},
        }
    }


def _sarif_result(finding: Finding) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": "warning",
        "message": {"text": finding.message},
        "locations": [_sarif_location(finding.path, finding.line)],
    }
    if finding.symbol:
        result["properties"] = {"symbol": finding.symbol}
    if finding.suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    if finding.trace:
        locations: List[Dict[str, object]] = []
        for step in finding.trace:
            location = _sarif_location(finding.path, step.line)
            location["message"] = {"text": step.note}
            locations.append({"location": location})
        result["codeFlows"] = [
            {"threadFlows": [{"locations": locations}]}
        ]
    return result


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 report for code-scanning UIs (one run, one tool)."""
    rules = [
        {
            "id": rule_id,
            "name": cls.title,
            "shortDescription": {"text": cls.title},
            "fullDescription": {"text": cls.rationale},
        }
        for rule_id, cls in sorted(all_rules().items())
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": [
                    _sarif_result(finding)
                    for finding in result.findings
                ],
                "invocations": [
                    {
                        "executionSuccessful": not result.errors,
                        "toolExecutionNotifications": [
                            {
                                "level": "error",
                                "message": {"text": error},
                            }
                            for error in result.errors
                        ],
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
