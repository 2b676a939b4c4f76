"""The REP rule registry."""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.staticcheck.rules.base import Rule
from repro.staticcheck.rules.rep001_determinism import DeterminismRule
from repro.staticcheck.rules.rep003_layering import LayeringRule
from repro.staticcheck.rules.rep005_serialization import SerializationContractRule
from repro.staticcheck.rules.rep006_telemetry import TelemetryBoundaryRule
from repro.staticcheck.rules.rep007_taint import TaintTrackingRule
from repro.staticcheck.rules.rep008_flow_iteration import FlowIterationRule
from repro.staticcheck.rules.rep009_worker_reach import WorkerReachabilityRule
from repro.staticcheck.rules.rep010_perf import PerfSmellRule


def ruleset_digest(root: Path = Path(__file__).resolve().parent.parent) -> str:
    """The rule-pack version: a sha256 over the linter's own source
    (every ``*.py`` under ``root``, in sorted path order). Any edit to a
    rule, the flow analysis or the driver yields a new digest, so the
    incremental cache cannot serve verdicts of an older pack."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


ALL_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    LayeringRule(),
    SerializationContractRule(),
    TelemetryBoundaryRule(),
    TaintTrackingRule(),
    FlowIterationRule(),
    WorkerReachabilityRule(),
    PerfSmellRule(),
)


def rule_ids() -> list[str]:
    return [rule.rule_id for rule in ALL_RULES]


def describe_rules() -> list[tuple[str, str]]:
    return [(rule.rule_id, rule.title) for rule in ALL_RULES]
