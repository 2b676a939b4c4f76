"""Lint driver: walk files, parse, run rules, apply noqa suppressions.

Suppression syntax (one per line, silences findings reported *on that
line*)::

    risky_call()  # repro: noqa[REP001] -- justification for the waiver

A directive without a ``[RULES]`` list silences every rule on the line,
and the ``-- reason`` tail is optional to the *parser* — but the
repository's self-check rejects both forms in ``src/``: every waiver
must name its rule ids and carry a written justification.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.staticcheck.config import DEFAULT_CONFIG, LintConfig
from repro.staticcheck.model import Finding, LintResult, ModuleInfo, Suppression
from repro.staticcheck.rules import ALL_RULES

PARSE_RULE_ID = "PARSE"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"  # the marker
    r"(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"  # optional [REP001,REP008]
    r"(?:\s*--\s*(?P<reason>.*?))?\s*$"  # optional -- justification
)


def parse_suppressions(source: str) -> dict[int, tuple[Optional[frozenset[str]], str]]:
    """Per-line noqa directives: line -> (rule ids or None for all, reason)."""
    directives: dict[int, tuple[Optional[frozenset[str]], str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules_text = match.group("rules")
        rules = (
            None
            if rules_text is None
            else frozenset(r.strip() for r in rules_text.split(",") if r.strip())
        )
        directives[lineno] = (rules, (match.group("reason") or "").strip())
    return directives


def module_name_for(path: Union[str, Path]) -> tuple[str, bool]:
    """Resolve a file path to a dotted module name by walking up through
    ``__init__.py`` package markers. Returns (module, is_package)."""
    resolved = Path(path).resolve()
    is_package = resolved.name == "__init__.py"
    parts: list[str] = [] if is_package else [resolved.stem]
    directory = resolved.parent
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(reversed(parts)), is_package


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _apply_suppressions(
    findings: Iterable[Finding], source: str
) -> tuple[list[Finding], list[Suppression]]:
    directives = parse_suppressions(source)
    active: list[Finding] = []
    suppressed: list[Suppression] = []
    for finding in sorted(findings, key=lambda f: (f.line, f.col, f.rule_id)):
        directive = directives.get(finding.line)
        if directive is not None:
            rules, reason = directive
            if rules is None or finding.rule_id in rules:
                suppressed.append(Suppression(finding=finding, reason=reason))
                continue
        active.append(finding)
    return active, suppressed


def lint_source(
    source: str,
    module: str,
    path: str = "<memory>",
    config: LintConfig = DEFAULT_CONFIG,
    is_package: bool = False,
) -> LintResult:
    """Lint one in-memory module (the unit tests' entry point)."""
    result = LintResult(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                rule_id=PARSE_RULE_ID,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        )
        return result
    info = ModuleInfo(
        path=path, module=module, tree=tree, source=source, is_package=is_package
    )
    raw: list[Finding] = []
    for rule in ALL_RULES:
        if config.wants(rule.rule_id):
            raw.extend(rule.check(info, config))
    active, suppressed = _apply_suppressions(raw, source)
    result.findings.extend(active)
    result.suppressions.extend(suppressed)
    return result


def _lint_unit(item: tuple[str, str, str, bool, LintConfig]) -> LintResult:
    """Process-pool work unit: lint one already-read source string.

    Top-level (picklable) on purpose; the parent reads and hashes every
    file, so workers only parse and run rules.
    """
    source, module, path, is_package, config = item
    return lint_source(
        source, module=module, path=path, config=config, is_package=is_package
    )


def lint_paths(
    paths: Sequence[Union[str, Path]],
    config: LintConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    cache_path: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths`` (files or directories).

    ``jobs > 1`` fans file units out over a process pool; results are
    assembled in file-walk order, so the report is byte-identical to a
    serial run. ``cache_path`` enables the content-hash incremental
    cache: unchanged files are answered without re-parsing.
    """
    from repro.staticcheck.cache import LintCache, content_digest

    cache = LintCache(cache_path, config) if cache_path is not None else None

    # Phase 1 (serial): read + hash every file, answer cache hits.
    slots: list[Optional[LintResult]] = []
    pending: list[tuple[int, str, tuple[str, str, str, bool, LintConfig]]] = []
    for path in iter_python_files(paths):
        display = str(path)
        module, is_package = module_name_for(path)
        source = path.read_text(encoding="utf-8")
        digest = content_digest(source) if cache is not None else ""
        cached = cache.lookup(display, digest) if cache is not None else None
        if cached is not None:
            slots.append(cached)
            continue
        slots.append(None)
        pending.append(
            (len(slots) - 1, digest, (source, module, display, is_package, config))
        )

    # Phase 2: lint the misses — serially, or over a process pool.
    if pending:
        units = [unit for _, _, unit in pending]
        if jobs > 1 and len(pending) > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            ) as pool:
                fresh = list(pool.map(_lint_unit, units))
        else:
            fresh = [_lint_unit(unit) for unit in units]
        for (slot, digest, unit), result in zip(pending, fresh):
            result.reparsed_files = result.files_checked
            slots[slot] = result
            if cache is not None:
                cache.record(unit[2], digest, result)

    if cache is not None:
        cache.save()

    # Phase 3 (serial): merge in file-walk order for deterministic output.
    total = LintResult()
    for result in slots:
        assert result is not None
        total.extend(result)
    return total


def fix_paths(
    paths: Sequence[Union[str, Path]],
    config: LintConfig = DEFAULT_CONFIG,
) -> tuple[int, int]:
    """Apply every finding's autofix in place (``repro lint --fix``).

    Returns ``(files rewritten, findings fixed)``. Files are re-linted
    from their fixed content, so a fix that exposes another fixable
    finding lands on the next invocation, never blindly in one pass.
    """
    from repro.staticcheck.fixes import apply_fixes

    files_changed = 0
    total_fixed = 0
    for path in iter_python_files(paths):
        module, is_package = module_name_for(path)
        source = path.read_text(encoding="utf-8")
        result = lint_source(
            source, module=module, path=str(path), config=config,
            is_package=is_package,
        )
        fixed_source, fixed = apply_fixes(source, result.findings)
        if fixed:
            path.write_text(fixed_source, encoding="utf-8")
            files_changed += 1
            total_fixed += fixed
    return files_changed, total_fixed
