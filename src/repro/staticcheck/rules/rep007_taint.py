"""REP007 — nondeterminism must not *flow* into serialized artifacts.

REP001 quarantines whole modules: it flags the ``time.time()`` call
itself, everywhere outside the sanctioned clock modules. But the actual
reproducibility contract is finer — a wall-clock or unordered-iteration
**value** must never reach a serialization sink, even inside a module
that is allowed to read the clock for its own (never-serialized)
purposes. This rule runs the :mod:`repro.staticcheck.flow` taint
analysis per function and reports every flow from a nondeterminism
source into a serialization sink, with the witness path in the message
(``source line N -> ... -> sink line M``), so the finding explains
itself instead of pointing at an innocent-looking ``json.dumps``.

Sources: wall-clock reads (``time.*``, ``datetime.now``...), entropy
draws (``os.urandom``, module-level ``random.*``, ``uuid.uuid4``,
``secrets.*``), and order materialized from ``set``/``dict`` iteration.

Sinks: ``json.dump``/``json.dumps`` / ``pickle.dump*`` arguments,
digest inputs (``hashlib.*`` constructor arguments), record
constructors (calls resolving into ``rep007_record_modules``), and
values returned from serialization methods (``to_dict``/``to_json``/
``as_dict``).

Sanitizers: ``sorted(...)`` (and the commutative reductions ``sum``/
``len``/``min``/``max``/``any``/``all``) clear order taint; nothing
clears a value taint — a laundered timestamp is still a timestamp.
"""

from __future__ import annotations

import ast

from repro.staticcheck.config import LintConfig
from repro.staticcheck.flow.taint import TaintAnalysis, TaintFlow
from repro.staticcheck.model import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule, resolve_call_target
from repro.staticcheck.rules._flow import module_analyses, sink_calls, scope_name

_LABEL_WHY = {
    "wallclock": "a wall-clock value",
    "entropy": "an OS-entropy value",
    "order": "a value ordered by set/dict iteration",
    "unordered": "an unordered collection",
}

#: Labels worth reporting at a serialization sink. ``iterorder`` is
#: excluded: a scalar drawn from a set is a deterministic value — only
#: its position is not, and position is an ordered-output concern
#: (REP008), not a serialization one.
_SINK_LABELS = frozenset({"wallclock", "entropy", "order", "unordered"})


class TaintTrackingRule(Rule):
    rule_id = "REP007"
    title = "nondeterminism must not flow into serialization sinks"

    def check(self, module: ModuleInfo, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for analysis in module_analyses(module):
            findings.extend(self._check_scope(module, analysis, config))
        return findings

    def _check_scope(
        self, module: ModuleInfo, analysis: TaintAnalysis, config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        is_sink_scope = scope_name(analysis.cfg) in config.rep007_sink_returns
        for node in analysis.cfg.statements():
            for call in sink_calls(node):
                sink = self._sink_description(call, analysis, config)
                if sink is None:
                    continue
                for arg in self._sink_args(call):
                    for flow in analysis.flows_at(arg, node):
                        if flow.label in _SINK_LABELS:
                            findings.append(
                                self._report(module, arg, sink, flow)
                            )
            stmt = node.stmt
            if (
                is_sink_scope
                and isinstance(stmt, ast.Return)
                and stmt.value is not None
            ):
                sink = f"return of {scope_name(analysis.cfg)}()"
                for flow in analysis.flows_at(stmt.value, node):
                    if flow.label in _SINK_LABELS:
                        findings.append(
                            self._report(module, stmt.value, sink, flow)
                        )
        return findings

    def _sink_description(
        self, call: ast.Call, analysis: TaintAnalysis, config: LintConfig
    ) -> str | None:
        target = resolve_call_target(call, analysis.table)
        if target is None:
            return None
        if target in config.rep007_sink_calls:
            return f"{target}(...)"
        for prefix in config.rep007_digest_prefixes:
            if target.startswith(prefix):
                return f"digest input {target}(...)"
        for record_module in config.rep007_record_modules:
            if target.startswith(record_module + "."):
                ctor = target.rsplit(".", 1)[1]
                return f"record constructor {ctor}(...)"
        return None

    @staticmethod
    def _sink_args(call: ast.Call):
        for arg in call.args:
            yield arg.value if isinstance(arg, ast.Starred) else arg
        for keyword in call.keywords:
            yield keyword.value

    def _report(
        self, module: ModuleInfo, at: ast.expr, sink: str, flow: TaintFlow
    ) -> Finding:
        return self.finding(
            module,
            at,
            f"{_LABEL_WHY[flow.label]} reaches {sink}: {flow.render_path()}",
        )
