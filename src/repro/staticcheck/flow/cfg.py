"""Statement-level control-flow graphs for one function (or module) body.

A :class:`CFG` has one node per *simple* statement plus synthetic entry
and exit nodes. Compound statements (``if``/``while``/``for``/``try``/
``with``) contribute a node for their header expression — the test or
iterable is evaluated there — and edges into their bodies. ``break``,
``continue``, ``return`` and ``raise`` cut the fall-through edge and
jump to the loop exit / loop header / function exit respectively.

The graph is deliberately conservative where Python is dynamic:

* both branch edges of every ``if``/``while`` are always present (no
  constant folding);
* every ``try`` body statement may also jump to each handler (any
  statement can raise);
* ``match`` statements fan out to every case arm.

That over-approximation is exactly what a *may*-analysis (taint,
reaching definitions) wants: a fact holds at a node if it can hold on
any path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
ScopeNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class CFGNode:
    """One program point: a simple statement or a compound header."""

    index: int
    stmt: Optional[ast.stmt]  # None for the synthetic entry/exit
    label: str
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass
class CFG:
    """A control-flow graph; node 0 is entry, node 1 is exit."""

    nodes: list[CFGNode]
    scope: ScopeNode

    ENTRY = 0
    EXIT = 1

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def statements(self) -> Iterator[CFGNode]:
        """Every real (non-synthetic) node, in source order."""
        for node in self.nodes[2:]:
            yield node


class _Builder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self, scope: ScopeNode) -> None:
        self.cfg = CFG(nodes=[], scope=scope)
        self._new_node(None, "entry")
        self._new_node(None, "exit")
        # (break targets, continue targets) per enclosing loop.
        self._loop_stack: list[tuple[int, int]] = []
        # Exception-handler entry nodes of every enclosing try.
        self._handler_stack: list[list[int]] = []

    def _new_node(self, stmt: Optional[ast.stmt], label: str) -> int:
        index = len(self.cfg.nodes)
        self.cfg.nodes.append(CFGNode(index=index, stmt=stmt, label=label))
        return index

    def build(self, body: list[ast.stmt]) -> CFG:
        tails = self._sequence(body, [CFG.ENTRY])
        for tail in tails:
            self.cfg.add_edge(tail, CFG.EXIT)
        return self.cfg

    # -- statement sequencing ------------------------------------------

    def _sequence(self, body: list[ast.stmt], preds: list[int]) -> list[int]:
        """Thread ``body`` after ``preds``; returns the fall-through tails."""
        current = preds
        for stmt in body:
            current = self._statement(stmt, current)
            if not current:  # unreachable after break/return/raise
                break
        return current

    def _statement(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is not None:
            return handler(stmt, preds)
        node = self._new_node(stmt, type(stmt).__name__)
        self._link(preds, node)
        self._maybe_raise(node)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg.add_edge(node, CFG.EXIT)
            return []
        if isinstance(stmt, ast.Break):
            if self._loop_stack:
                self.cfg.add_edge(node, self._loop_stack[-1][0])
                return []
        if isinstance(stmt, ast.Continue):
            if self._loop_stack:
                self.cfg.add_edge(node, self._loop_stack[-1][1])
                return []
        return [node]

    def _link(self, preds: list[int], node: int) -> None:
        for pred in preds:
            self.cfg.add_edge(pred, node)

    def _maybe_raise(self, node: int) -> None:
        """Any statement inside a try may transfer to its handlers."""
        for handlers in self._handler_stack:
            for handler in handlers:
                self.cfg.add_edge(node, handler)

    # -- compound statements -------------------------------------------

    def _stmt_If(self, stmt: ast.If, preds: list[int]) -> list[int]:
        head = self._new_node(stmt, "if")
        self._link(preds, head)
        self._maybe_raise(head)
        then_tails = self._sequence(stmt.body, [head])
        else_tails = self._sequence(stmt.orelse, [head]) if stmt.orelse else [head]
        return then_tails + else_tails

    def _loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], preds: list[int],
        label: str,
    ) -> list[int]:
        head = self._new_node(stmt, label)
        self._link(preds, head)
        self._maybe_raise(head)
        # A placeholder node would complicate indexing; the loop exit is
        # modelled as "whatever follows head's false edge", collected via
        # a join list the break statements also target.
        join = self._new_node(None, f"{label}-exit")
        self._loop_stack.append((join, head))
        body_tails = self._sequence(stmt.body, [head])
        self._loop_stack.pop()
        for tail in body_tails:
            self.cfg.add_edge(tail, head)  # back edge
        else_tails = (
            self._sequence(stmt.orelse, [head]) if stmt.orelse else [head]
        )
        for tail in else_tails:
            self.cfg.add_edge(tail, join)
        return [join]

    def _stmt_While(self, stmt: ast.While, preds: list[int]) -> list[int]:
        return self._loop(stmt, preds, "while")

    def _stmt_For(self, stmt: ast.For, preds: list[int]) -> list[int]:
        return self._loop(stmt, preds, "for")

    def _stmt_AsyncFor(self, stmt: ast.AsyncFor, preds: list[int]) -> list[int]:
        return self._loop(stmt, preds, "for")

    def _with(self, stmt: Union[ast.With, ast.AsyncWith], preds: list[int]) -> list[int]:
        head = self._new_node(stmt, "with")
        self._link(preds, head)
        self._maybe_raise(head)
        return self._sequence(stmt.body, [head])

    _stmt_With = _with
    _stmt_AsyncWith = _with

    def _stmt_Try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        head = self._new_node(stmt, "try")
        self._link(preds, head)
        self._maybe_raise(head)
        handler_heads: list[int] = []
        handler_nodes: list[tuple[ast.ExceptHandler, int]] = []
        for handler in stmt.handlers:
            hnode = self._new_node(None, "except")
            handler_heads.append(hnode)
            handler_nodes.append((handler, hnode))
        self._handler_stack.append(handler_heads)
        body_tails = self._sequence(stmt.body, [head])
        self._handler_stack.pop()
        else_tails = (
            self._sequence(stmt.orelse, body_tails)
            if stmt.orelse
            else body_tails
        )
        tails = list(else_tails)
        for handler, hnode in handler_nodes:
            tails.extend(self._sequence(handler.body, [hnode]))
        if stmt.finalbody:
            tails = self._sequence(stmt.finalbody, tails or [head])
        return tails

    _stmt_TryStar = _stmt_Try

    def _stmt_Match(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        head = self._new_node(stmt, "match")
        self._link(preds, head)
        self._maybe_raise(head)
        tails: list[int] = [head]  # no case may match
        for case in stmt.cases:  # type: ignore[attr-defined]
            tails.extend(self._sequence(case.body, [head]))
        return tails

    # Nested definitions are opaque to the enclosing flow: the def/class
    # statement executes (binding a name) but its body does not.
    def _opaque(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        node = self._new_node(stmt, type(stmt).__name__)
        self._link(preds, node)
        self._maybe_raise(node)
        return [node]

    _stmt_FunctionDef = _opaque
    _stmt_AsyncFunctionDef = _opaque
    _stmt_ClassDef = _opaque


def build_cfg(scope: ScopeNode) -> CFG:
    """The CFG of one function body (or a module's top level)."""
    return _Builder(scope).build(list(scope.body))


def function_cfgs(tree: ast.Module) -> Iterator[tuple[FunctionNode, CFG]]:
    """(function, CFG) for every def in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, build_cfg(node)
