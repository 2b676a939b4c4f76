"""``repro.staticcheck``: the repo's own invariant linter.

PR 1's engine promises byte-identical datasets at any worker or shard
count. That guarantee rests on coding conventions — seeded RNGs only,
no wall-clock reads outside the sanctioned modules, sorted iteration of
sets, and pickle-safe worker entry points. This package enforces those
conventions statically, at CI time, with a small AST-based rule
framework:

* :mod:`repro.staticcheck.model`   — findings, suppressions, results
* :mod:`repro.staticcheck.config`  — per-rule configuration + defaults
* :mod:`repro.staticcheck.driver`  — file walking, parsing, noqa filter
* :mod:`repro.staticcheck.report`  — text / JSON reporters, exit codes
* :mod:`repro.staticcheck.rules`   — the REP001, REP003, REP006..REP011
  rule pack

Inline suppressions use ``# repro: noqa[REP001] -- reason`` comments;
the self-check test requires every suppression in ``src/`` to carry a
reason.

The package deliberately imports nothing else from ``repro`` (it sits
at the bottom of the layer DAG it enforces) and nothing outside the
standard library.
"""

from repro.staticcheck.config import DEFAULT_CONFIG, LintConfig
from repro.staticcheck.driver import lint_paths, lint_source
from repro.staticcheck.model import Finding, LintResult, Suppression
from repro.staticcheck.report import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.staticcheck.rules import ALL_RULES, rule_ids

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "Finding",
    "LintConfig",
    "LintResult",
    "Suppression",
    "lint_paths",
    "lint_source",
    "rule_ids",
]
