"""Content-hash incremental cache for the lint driver.

One JSON file (``.repro-lint-cache.json`` by convention) maps each
linted file's display path to its last result, keyed on the sha256 of
the file's *content* — not its mtime, so checkouts, copies and CI cache
restores all hit. The whole cache is invalidated when either

* the linter's source changes (``ruleset_digest()`` is a sha256 over
  every module of :mod:`repro.staticcheck`), or
* the lint configuration changes (``LintConfig.fingerprint()``),

because a cached "clean" verdict is only as good as the rules and knobs
that produced it. A cache that fails to load for any reason (missing,
truncated, foreign schema) degrades to an empty cache — caching is an
optimization, never a correctness input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.staticcheck.config import LintConfig
from repro.staticcheck.model import Edit, Finding, LintResult, Suppression
from repro.staticcheck.rules import ruleset_digest

CACHE_VERSION = 1
DEFAULT_CACHE_NAME = ".repro-lint-cache.json"


def content_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _finding_to_dict(finding: Finding) -> dict:
    payload = {
        "rule": finding.rule_id,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }
    if finding.fix:
        payload["fix"] = [edit.to_dict() for edit in finding.fix]
    return payload


def _finding_from_dict(payload: dict) -> Finding:
    return Finding(
        rule_id=payload["rule"],
        path=payload["path"],
        line=payload["line"],
        col=payload["col"],
        message=payload["message"],
        fix=tuple(Edit.from_dict(e) for e in payload.get("fix", ())),
    )


class LintCache:
    """The per-run view of the cache file: load once, look up per file,
    record fresh results, save once."""

    def __init__(self, path: Union[str, Path], config: LintConfig) -> None:
        self.path = Path(path)
        self._ruleset = ruleset_digest()
        self._config_fp = config.fingerprint()
        self._files: dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if (
            payload.get("version") != CACHE_VERSION
            or payload.get("ruleset") != self._ruleset
            or payload.get("config") != self._config_fp
        ):
            # Stale rule pack or different knobs: start over.
            self._dirty = True
            return
        files = payload.get("files")
        if isinstance(files, dict):
            self._files = files

    def lookup(self, display_path: str, digest: str) -> Optional[LintResult]:
        """The cached result for this exact content, or None on a miss."""
        entry = self._files.get(display_path)
        if not entry or entry.get("sha256") != digest:
            return None
        try:
            result = LintResult(files_checked=1, cached_files=1)
            result.findings.extend(
                _finding_from_dict(f) for f in entry["findings"]
            )
            result.suppressions.extend(
                Suppression(
                    finding=_finding_from_dict(s["finding"]),
                    reason=s["reason"],
                )
                for s in entry["suppressions"]
            )
            return result
        except (KeyError, TypeError):
            return None

    def record(self, display_path: str, digest: str, result: LintResult) -> None:
        self._files[display_path] = {
            "sha256": digest,
            "findings": [_finding_to_dict(f) for f in result.findings],
            "suppressions": [
                {"finding": _finding_to_dict(s.finding), "reason": s.reason}
                for s in result.suppressions
            ],
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "ruleset": self._ruleset,
            "config": self._config_fp,
            "files": self._files,
        }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._dirty = False
