"""REP009 — worker safety: pickle-safe entry points, no reachable
module-state mutation.

The engine ships work to ``multiprocessing`` pools, so results must not
depend on which worker ran which shard first. Submission points are
attribute calls named ``imap``/``imap_unordered``/``map``/
``apply_async``/``submit``/... (``LintConfig.rep009_submit_methods``,
first argument: a *task*) plus the ``initializer=``/``target=`` keywords
of any call (``rep009_callable_kwargs``: an *initializer*). At each one
the callable must be a **module-level function** — lambdas, nested
closures and bound-method attributes either fail to pickle or smuggle
unpickled state across the process boundary.

The rule then builds the module's call graph
(:mod:`repro.staticcheck.flow.callgraph`), seeds it with every task
plus any configured entry points (``rep009_entry_points``, as
``module:function``), and flags, in the task and every function it
*reaches*:

* ``global`` rebinding;
* in-place mutation of a module-level binding — subscript or attribute
  assignment (``_CACHE[key] = ...``, ``mod.attr = ...``) and calls to
  mutating methods (``append``/``add``/``update``/``pop``/...) whose
  receiver is a module-level name.

Pool initializers stay exempt (the keywords above and ``_init*``-named
functions): per-process setup is *supposed* to write the module state
the tasks later read.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.staticcheck.config import LintConfig
from repro.staticcheck.flow.callgraph import build_call_graph
from repro.staticcheck.model import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule

_MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "remove", "pop",
        "popleft", "clear", "add", "discard", "update", "setdefault",
        "popitem", "sort", "reverse",
    }
)


def _module_level_bindings(tree: ast.Module) -> set[str]:
    """Names bound by the module's own top-level statements."""
    bound: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bound.update(_target_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_target_names(stmt.target))
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound.add(alias.asname or alias.name.split(".", 1)[0])
    return bound


def _nested_only(tree: ast.Module) -> set[str]:
    """Names defined only inside another function's body (closures)."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.update(
                inner.name
                for inner in ast.walk(outer)
                if inner is not outer
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return nested - {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


class WorkerReachabilityRule(Rule):
    rule_id = "REP009"
    title = (
        "executor callables must be module-level, and no worker task may "
        "mutate module state"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> list[Finding]:
        tree = module.tree
        findings: list[Finding] = []
        tasks: set[str] = set()
        initializers: set[str] = set()
        submitted = list(self._submitted(tree, config))
        nested = _nested_only(tree) if submitted else set()
        for worker, is_task in submitted:
            findings.extend(self._check_shape(module, worker, nested))
            if isinstance(worker, ast.Name):
                (tasks if is_task else initializers).add(worker.id)
        for dotted in config.rep009_entry_points:
            mod, _, func = dotted.partition(":")
            if mod == module.module and func:
                tasks.add(func)
        if not tasks:
            return findings
        graph = build_call_graph(tree)
        exempt = initializers | {
            name for name in graph.functions if name.startswith("_init")
        }
        reachable = [
            name
            for name in graph.reachable_from(*sorted(tasks))
            if name not in exempt
        ]
        module_names = _module_level_bindings(tree)
        for name in reachable:
            func = graph.functions[name]
            findings.extend(
                self._check_function(
                    module, func, name, name in tasks, module_names
                )
            )
        return findings

    @staticmethod
    def _submitted(
        tree: ast.Module, config: LintConfig
    ) -> Iterator[tuple[ast.expr, bool]]:
        """(callable expression, is it a task) at every submission point."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in config.rep009_submit_methods
                and node.args
            ):
                yield node.args[0], True
            for keyword in node.keywords:
                if keyword.arg in config.rep009_callable_kwargs:
                    yield keyword.value, False

    def _check_shape(
        self, module: ModuleInfo, worker: ast.expr, nested: set[str]
    ) -> list[Finding]:
        """A submitted callable must be a module-level function."""
        problem: Optional[str] = None
        if isinstance(worker, ast.Lambda):
            problem = "lambdas do not pickle; define a module-level function"
        elif isinstance(worker, ast.Name) and worker.id in nested:
            problem = (
                f"{worker.id!r} is a nested function (a closure); "
                f"workers need a module-level entry point"
            )
        elif isinstance(worker, ast.Attribute):
            problem = (
                f"bound attribute {worker.attr!r} drags its instance "
                f"across the process boundary; use a module-level function"
            )
        return [] if problem is None else [self.finding(module, worker, problem)]

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        name: str,
        is_entry: bool,
        module_names: set[str],
    ) -> Iterable[Finding]:
        local_rebinds = self._locally_bound(func)
        via = "" if is_entry else f" (reachable from a worker task via {name!r})"
        who = f"worker task {name!r}" if is_entry else f"function {name!r}"
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module,
                    node,
                    f"{who} rebinds module-level state "
                    f"({', '.join(node.names)}){via}; move one-time setup "
                    f"into the pool initializer",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = self._mutated_base(target)
                    if (
                        base is not None
                        and base in module_names
                        and base not in local_rebinds
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"worker-reachable function {name!r} mutates "
                            f"module-level {base!r} in place{via}; move the "
                            f"write into the pool initializer",
                        )
            elif isinstance(node, ast.Call):
                receiver = self._mutating_receiver(node)
                if (
                    receiver is not None
                    and receiver in module_names
                    and receiver not in local_rebinds
                ):
                    yield self.finding(
                        module,
                        node,
                        f"worker-reachable function {name!r} calls a "
                        f"mutating method on module-level {receiver!r}{via}; "
                        f"workers must not mutate shared module state",
                    )

    @staticmethod
    def _locally_bound(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Parameter and local-assignment names shadowing module ones."""
        bound = {arg.arg for arg in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
            *((func.args.vararg,) if func.args.vararg else ()),
            *((func.args.kwarg,) if func.args.kwarg else ()),
        )}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.update(_target_names(target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound.update(_target_names(node.target))
            elif isinstance(node, ast.comprehension):
                bound.update(_target_names(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        bound.update(_target_names(item.optional_vars))
        return bound

    @staticmethod
    def _mutated_base(target: ast.expr) -> str | None:
        """The root name of a subscript/attribute assignment target."""
        node = target
        seen_container = False
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            seen_container = True
            node = node.value
        if seen_container and isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _mutating_receiver(call: ast.Call) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            return func.value.id
        return None
