"""REP008 — unordered iteration order must not reach ordered outputs.

CPython randomizes string hashing per process (PYTHONHASHSEED), so the
iteration order of a ``set``/``frozenset`` of strings differs between
runs and between pool workers. This rule follows that order through
each function with the :mod:`repro.staticcheck.flow` taint analysis and
reports where it actually *reaches an ordered output*:

* a value whose sequence position derives from set iteration
  (``iterorder``), or an ordered container built from one (``order``:
  ``list(s)``, ``[*s]``, ``[x for x in s]``, ``dict.fromkeys(s)``, a
  dict filled in a loop over ``s``, ``acc += [x]``), appended/inserted
  into an ordered container, printed, returned or yielded, or stored
  where other scopes read it — an attribute (``self.rows = list(s)``)
  or, at module level, any binding;
* an ordered container built from one passed to any call the analysis
  does not model (``writer.writerow(list(s))``);
* any of those, or the set itself, iterated by ``extend``, ``str.join``,
  ``file.write``/``writelines`` or ``yield from``.

Commutative folds stay clean (``^ | &``, ``len``/``sum``/``min``/
``max``/``any``/``all``), and so does appending a whole set object.
Dict iteration is only tainted when the dict itself was built from
unordered input: plain dicts iterate in insertion order.

Each finding anchors at the *iteration site* the leaking order came
from — reported once however many sinks it reaches — and carries the
``sorted(...)`` autofix around it; the message gives the witness path
from the set to the first sink. Once a round's sites are found the
scope is re-solved as if they were sorted, so every site that reaches
a sink is reported, not only the one a shared sink saw first (and a
waiver on one site cannot hide another).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.config import LintConfig
from repro.staticcheck.flow.cfg import CFGNode
from repro.staticcheck.flow.taint import (
    APPEND_METHODS,
    EXTEND_METHODS,
    ORDER_LABELS,
    ORDER_SANITIZERS,
    ORDERING_CALLS,
    POSITION_LABELS,
    SET_CONSTRUCTORS,
    TaintAnalysis,
    TaintFlow,
)
from repro.staticcheck.model import Edit, Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule
from repro.staticcheck.rules._flow import (
    module_analyses,
    stmt_expressions,
    walk_expr,
)

_WRITE_METHODS = frozenset({"write", "writelines"})
#: Calls the taint analysis models: their result carries (or clears)
#: the order of what they are handed, so the argument is no sink.
_MODELED_CALLS = ORDER_SANITIZERS | SET_CONSTRUCTORS | ORDERING_CALLS
_ORDERED = frozenset({"order"})

# (expression reaching the sink, sink description, labels that leak there)
_Sink = tuple[ast.expr, str, frozenset[str]]


def _sinks(node: CFGNode, module_scope: bool) -> Iterator[_Sink]:
    """Every ordered output evaluated at this CFG node, a ``return``
    or a binding after the sinks nested inside its value."""
    for expr in stmt_expressions(node):
        for sub in walk_expr(expr):
            if isinstance(sub, ast.Yield) and sub.value is not None:
                yield sub.value, "yield", POSITION_LABELS
            elif isinstance(sub, ast.YieldFrom):
                yield sub.value, "yield from", ORDER_LABELS
            elif isinstance(sub, ast.Call):
                yield from _call_sinks(sub)
    stmt = node.stmt
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        yield stmt.value, "return", POSITION_LABELS
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        yield from _binding_sinks(stmt, module_scope)


def _call_sinks(call: ast.Call) -> Iterator[_Sink]:
    func = call.func
    method = func.attr if isinstance(func, ast.Attribute) else None
    name = func.id if isinstance(func, ast.Name) else None
    if call.args and method in APPEND_METHODS:
        # Appending a *set object* leaves the container's order alone;
        # only position-tainted values pollute it.
        yield call.args[-1], f"ordered container ({method})", POSITION_LABELS
    elif call.args and method in EXTEND_METHODS:
        yield call.args[-1], f"ordered container ({method})", ORDER_LABELS
    elif call.args and method == "join":
        yield call.args[0], "str.join", ORDER_LABELS
    elif call.args and method in _WRITE_METHODS:
        yield call.args[0], f"output stream ({method})", ORDER_LABELS
    elif name == "print":
        for arg in call.args:
            yield arg, "print", POSITION_LABELS
    elif name not in _MODELED_CALLS:
        # Any other callee may keep or emit the container it is handed.
        for arg in (*call.args, *(k.value for k in call.keywords)):
            yield arg, "a call argument", _ORDERED


def _escapes(target: ast.expr, module_scope: bool) -> bool:
    """Does binding ``target`` store into state other scopes read: an
    attribute, or any name at module level?"""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_escapes(t, module_scope) for t in target.elts)
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    return module_scope or isinstance(target, ast.Attribute)


def _binding_sinks(
    stmt: ast.Assign | ast.AnnAssign | ast.AugAssign, module_scope: bool
) -> Iterator[_Sink]:
    if stmt.value is None or (
        isinstance(stmt, ast.AugAssign) and not isinstance(stmt.op, ast.Add)
    ):
        return  # commutative folds keep no order
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    for target in targets:
        if _escapes(target, module_scope):
            yield stmt.value, "a binding other scopes read", POSITION_LABELS
            if isinstance(target, ast.Subscript):
                yield target.slice, "a binding other scopes read", POSITION_LABELS


def _sorted_fix(site: ast.expr) -> tuple[Edit, ...]:
    """Wrap the iterated expression in ``sorted(...)``."""
    end_line, end_col = site.end_lineno, site.end_col_offset
    if end_line is None or end_col is None:
        return ()
    return (
        Edit(
            line=site.lineno, col=site.col_offset,
            end_line=site.lineno, end_col=site.col_offset,
            replacement="sorted(",
        ),
        Edit(
            line=end_line, col=end_col,
            end_line=end_line, end_col=end_col,
            replacement=")",
        ),
    )


class FlowIterationRule(Rule):
    rule_id = "REP008"
    title = "set/dict iteration order must not reach ordered outputs"

    def check(self, module: ModuleInfo, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for analysis in module_analyses(module):
            module_scope = isinstance(analysis.cfg.scope, ast.Module)
            reported: frozenset[ast.expr] = frozenset()
            while True:
                found = self._scan(module, analysis, module_scope, reported)
                if not found:
                    break
                findings.extend(found.values())
                reported |= found.keys()
                analysis = analysis.with_sorted(reported)
        return findings

    def _scan(
        self,
        module: ModuleInfo,
        analysis: TaintAnalysis,
        module_scope: bool,
        reported: frozenset[ast.expr],
    ) -> dict[ast.expr, Finding]:
        """One finding per iteration site not yet reported."""
        found: dict[ast.expr, Finding] = {}
        for node in analysis.cfg.statements():
            for at, sink, labels in _sinks(node, module_scope):
                for flow in analysis.flows_at(at, node):
                    if flow.label not in labels:
                        continue
                    site = self._site(analysis, flow, at, node)
                    anchor = site or at
                    if anchor not in reported and anchor not in found:
                        found[anchor] = self._report(
                            module, anchor, site, sink, flow
                        )
        return found

    @staticmethod
    def _site(
        analysis: TaintAnalysis, flow: TaintFlow, at: ast.expr, node: CFGNode
    ) -> Optional[ast.expr]:
        """Where the leaking order was made: the first iteration site on
        the witness, or — when the sink iterates the set itself — the set
        operand inside ``at`` that plain calls (``str``, ``map``) passed
        through, so the fix reads ``str(sorted(s))``."""
        if flow.label != "unordered":
            return analysis.site_of(flow)
        env = analysis.env_before(node)
        while isinstance(at, ast.Call) and isinstance(at.func, ast.Name):
            operands = (*at.args, *(k.value for k in at.keywords))
            inner = next(
                (o for o in operands
                 if "unordered" in analysis.taint_of(o, env)),
                None,
            )
            if inner is None:
                break
            at = inner
        return at

    def _report(
        self,
        module: ModuleInfo,
        anchor: ast.expr,
        site: Optional[ast.expr],
        sink: str,
        flow: TaintFlow,
    ) -> Finding:
        """Anchored at the iteration site — or, when the witness lost
        it, at the sink argument, with no fix to offer."""
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=anchor.lineno,
            col=anchor.col_offset,
            message=(
                f"set/dict iteration order reaches {sink}; wrap the "
                f"iteration in sorted(...): {flow.render_path()}"
            ),
            fix=_sorted_fix(site) if site is not None else (),
        )
