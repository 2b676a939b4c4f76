"""Shared plumbing between the flow-aware rules (REP007/REP008).

Running the taint solver is the expensive part of a flow rule, and both
REP007 and REP008 want the same solved analyses over the same module.
Rules execute back-to-back per module inside the driver, so a
single-entry memo keyed on the parsed tree gives a perfect hit rate
without holding every linted module alive.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.flow.cfg import CFG, CFGNode, build_cfg
from repro.staticcheck.flow.taint import (
    TaintAnalysis,
    TaintSpec,
    class_set_fields,
    sequence_functions,
)
from repro.staticcheck.model import ModuleInfo
from repro.staticcheck.rules.base import import_table

_MEMO: Optional[tuple[ast.Module, list[TaintAnalysis]]] = None


def module_analyses(module: ModuleInfo) -> list[TaintAnalysis]:
    """A solved :class:`TaintAnalysis` per scope: the module's top level
    first, then every function definition in source order. A method
    starts from the ``self.*`` sets its class assigns in any method, so
    ``list(self.seen)`` is tracked wherever ``self.seen = set()`` sits."""
    global _MEMO
    if _MEMO is not None and _MEMO[0] is module.tree:
        return _MEMO[1]
    table = import_table(module.tree)
    spec = TaintSpec(sequence_calls=sequence_functions(module.tree))
    functions = [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    solved = {
        func: TaintAnalysis(build_cfg(func), table, spec).run()
        for func in functions
    }
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        entry = class_set_fields(cls)
        for method in methods:
            for key, taint in solved[method].attribute_sets().items():
                entry.setdefault(key, taint)
        if entry:
            for method in methods:
                solved[method] = TaintAnalysis(
                    build_cfg(method), table, spec, entry
                ).run()
    analyses = [TaintAnalysis(build_cfg(module.tree), table, spec).run()]
    analyses.extend(solved[func] for func in functions)
    _MEMO = (module.tree, analyses)
    return analyses


_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def stmt_expressions(node: CFGNode) -> Iterator[ast.expr]:
    """The expressions evaluated *at* this CFG node: the whole statement
    for simple statements, only the header (test/iterable/subject) for
    compound ones — their bodies are separate CFG nodes."""
    stmt = node.stmt
    if stmt is None:
        return
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
    elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
        yield stmt.subject
    else:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield child


def walk_expr(expr: ast.expr) -> Iterator[ast.AST]:
    """Walk an expression tree without entering nested def/lambda bodies."""
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _OPAQUE):
            stack.extend(ast.iter_child_nodes(node))


def sink_calls(node: CFGNode) -> Iterator[ast.Call]:
    """Every call evaluated at this CFG node, outermost first."""
    for expr in stmt_expressions(node):
        for sub in walk_expr(expr):
            if isinstance(sub, ast.Call):
                yield sub


def scope_name(cfg: CFG) -> str:
    scope = cfg.scope
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return scope.name
    return "<module>"
