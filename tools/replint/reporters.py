"""Text and JSON renderings of a :class:`~tools.replint.core.LintResult`.

Reports deliberately exclude timing, so two runs over the same tree
render byte-identically; the CLI prints wall time to stderr instead.
"""

from __future__ import annotations

import json

from tools.replint.core import LintResult


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [f.format() for f in result.parse_errors + result.findings]
    total = len(result.findings) + len(result.parse_errors)
    lines.append(
        f"replint: {result.files_scanned} files, "
        f"{len(result.checks)} checks, {total} finding(s)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (the CI artifact)."""
    findings = result.parse_errors + result.findings
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "checks": [
            {
                "id": check.id,
                "name": check.name,
                "description": check.description,
            }
            for check in result.checks
        ],
        "findings": [
            {
                "check": f.check,
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in findings
        ],
        "counts": {"new": len(findings)},
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2)
