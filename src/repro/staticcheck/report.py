"""Reporters and exit codes for the invariant linter.

Exit codes are part of the CI contract and never change meaning:

* ``EXIT_CLEAN``    (0) — no unsuppressed findings
* ``EXIT_FINDINGS`` (1) — at least one unsuppressed finding
* ``EXIT_USAGE``    (2) — bad invocation (unknown rule id, missing path)
"""

from __future__ import annotations

import json
from typing import Any

from repro.staticcheck.model import LintResult
from repro.staticcheck.rules import describe_rules, rule_ids, ruleset_digest

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

JSON_REPORT_VERSION = 1


def exit_code_for(result: LintResult) -> int:
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


def render_text(result: LintResult) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary."""
    lines = [finding.render() for finding in result.findings]
    lines.append(
        f"checked {result.files_checked} file(s): "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressions)} suppressed"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (schema asserted by the tier-1 suite)."""
    counts: dict[str, int] = {rule_id: 0 for rule_id in rule_ids()}
    for finding in result.findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload: dict[str, Any] = {
        "version": JSON_REPORT_VERSION,
        "files_checked": result.files_checked,
        "counts": counts,
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in result.findings
        ],
        "suppressed": [
            {
                "rule": suppression.finding.rule_id,
                "path": suppression.finding.path,
                "line": suppression.finding.line,
                "reason": suppression.reason,
            }
            for suppression in result.suppressions
        ],
        "exit_code": exit_code_for(result),
        "cached_files": result.cached_files,
        "reparsed_files": result.reparsed_files,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 — the interchange format CI annotation tooling eats.

    Every registered rule appears in the tool component (so rule
    metadata is stable run-to-run even with zero findings); suppressed
    findings are emitted with a populated ``suppressions`` array, as
    the spec prescribes, so dashboards can audit waivers.
    """
    ids = rule_ids()
    rule_index = {rule_id: i for i, rule_id in enumerate(ids)}

    def location(finding: Any) -> dict[str, Any]:
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    # SARIF columns are 1-based; findings carry 0-based.
                    "startColumn": finding.col + 1,
                },
            }
        }

    def sarif_result(finding: Any, suppressed_reason: Any = None) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [location(finding)],
        }
        if finding.rule_id in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule_id]
        if suppressed_reason is not None:
            entry["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": suppressed_reason,
                }
            ]
        return entry

    results = [sarif_result(finding) for finding in result.findings]
    results.extend(
        sarif_result(s.finding, suppressed_reason=s.reason)
        for s in result.suppressions
    )
    payload: dict[str, Any] = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-staticcheck",
                        "version": ruleset_digest(),
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": title},
                            }
                            for rule_id, title in describe_rules()
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True)
