"""Taint analysis over the CFG: sources, sanitizers, sinks, witnesses.

The lattice maps each local variable (and each ``name.attr`` slot, so
``self.seen`` is tracked like a local) to a set of taint *labels*, each
carrying a **witness** — the chain of ``(line, col, step)`` hops the
taint took from its source. Labels:

* ``wallclock`` / ``entropy`` — the value derives from a real-clock
  read or an OS entropy draw (``time.time``, ``os.urandom``,
  ``random.random``, ...). Nothing sanitizes a value taint: sorting a
  list of timestamps still yields nondeterministic bytes.
* ``unordered`` — the value is an unordered collection (``set``/
  ``frozenset`` displays, constructors, comprehensions, set algebra).
* ``iterorder`` — the value was produced by iterating an unordered
  collection: its *sequence position* is nondeterministic even though
  the value itself may be pure.
* ``order`` — an ordered container (list/tuple/str/dict) whose element
  order derives from unordered iteration: ``list(a_set)``, ``[*a_set]``,
  ``[x for x in a_set]``, ``dict.fromkeys(a_set)``, a dict
  comprehension over a set, ``acc.append(x)``/``acc.extend(a_set)``/
  ``acc[x] = ...``/``acc += [x]`` with ``x`` drawn from a set.

Every hop where unordered input acquires a sequence order — a ``for``
header, a comprehension, ``list(...)``, ``*``-unpacking,
``dict.fromkeys``, ``extend`` — is an *iteration site*:
:meth:`TaintAnalysis.site_of` maps an order flow back to the first one
on its witness, the expression a ``sorted(...)`` wrap fixes.

``sorted(...)`` is the canonical sanitizer: it clears every order
label (``unordered``/``iterorder``/``order``) but never a value label.
Commutative reductions (``sum``/``len``/``min``/``max``/``any``/
``all``) likewise produce order-clean results, and ``iterorder`` taint
deliberately does **not** propagate through the commutative operators —
``total ^= len(tag)`` or ``bits |= flag`` folded over a set is
deterministic. ``+`` is the exception: concatenation does not commute,
so ``acc += [x]`` or ``acc = acc + x`` over set elements builds an
``order``-tainted value (an integer total wants ``sum(...)``).

The analysis is intra-procedural and conservative: unknown calls pass
their arguments' taint through to the result — a set handed to ``str``,
``map`` or ``dict`` leaves an unordered result — except that neither an
unknown method's result nor that of a module function declared to
return a sequence (``TaintSpec.sequence_calls``) is taken for the set
it was handed: that function's own body is analysed on its own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.staticcheck.flow.cfg import CFG, CFGNode
from repro.staticcheck.flow.lattice import Analysis, assigned_names, solve_forward

# One witness step: (source line, column, human-readable hop description).
WitnessStep = tuple[int, int, str]
Witness = tuple[WitnessStep, ...]
# label -> best witness for it.
Taint = dict[str, Witness]
# variable (or ``name.attr`` slot) -> taint.
TaintEnv = dict[str, Taint]

#: Witness chains are capped so loop-carried taint reaches a fixed
#: point: once a chain is this long, further hops stop extending it.
WITNESS_CAP = 16

ORDER_LABELS = frozenset({"unordered", "iterorder", "order"})
VALUE_LABELS = frozenset({"wallclock", "entropy"})
#: Labels that mean "this value's sequence position came from a set".
POSITION_LABELS = frozenset({"iterorder", "order"})

#: resolved call target -> (label, source description)
DEFAULT_VALUE_SOURCES: dict[str, tuple[str, str]] = {}
for _name in (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
):
    DEFAULT_VALUE_SOURCES[f"time.{_name}"] = ("wallclock", f"time.{_name}()")
for _name in ("now", "utcnow", "today"):
    DEFAULT_VALUE_SOURCES[f"datetime.datetime.{_name}"] = (
        "wallclock", f"datetime.{_name}()"
    )
DEFAULT_VALUE_SOURCES["datetime.date.today"] = ("wallclock", "date.today()")
for _name in ("random", "randint", "randrange", "choice", "shuffle",
              "uniform", "sample", "getrandbits", "betavariate"):
    DEFAULT_VALUE_SOURCES[f"random.{_name}"] = (
        "entropy", f"random.{_name}()"
    )
DEFAULT_VALUE_SOURCES["os.urandom"] = ("entropy", "os.urandom()")
DEFAULT_VALUE_SOURCES["os.getrandom"] = ("entropy", "os.getrandom()")
DEFAULT_VALUE_SOURCES["uuid.uuid1"] = ("entropy", "uuid.uuid1()")
DEFAULT_VALUE_SOURCES["uuid.uuid4"] = ("entropy", "uuid.uuid4()")
for _name in ("token_bytes", "token_hex", "token_urlsafe", "randbits",
              "choice", "randbelow"):
    DEFAULT_VALUE_SOURCES[f"secrets.{_name}"] = (
        "entropy", f"secrets.{_name}()"
    )

#: Calls whose result is order-clean regardless of argument order.
ORDER_SANITIZERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all"}
)
#: Calls whose result is itself an unordered collection.
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: Calls that materialize their argument's iteration order.
ORDERING_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})
#: Set methods that keep the receiver's unordered nature.
SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: In-place methods that add one element to an ordered container, and
#: those that iterate their argument into it.
APPEND_METHODS = frozenset({"append", "insert", "appendleft"})
EXTEND_METHODS = frozenset({"extend", "extendleft"})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_SEQUENCE_ANNOTATIONS = frozenset({"list", "tuple", "str", "List", "Tuple"})


def _annotation_name(annotation: Optional[ast.expr]) -> str:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    return _annotation_name(annotation) in _SET_ANNOTATIONS


def sequence_functions(tree: ast.Module) -> frozenset[str]:
    """Module-level functions declared to return a list, tuple or str:
    what :attr:`TaintSpec.sequence_calls` names for calls in ``tree``."""
    return frozenset(
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _annotation_name(stmt.returns) in _SEQUENCE_ANNOTATIONS
    )


def env_key(expr: ast.expr) -> Optional[str]:
    """The env slot an expression names: ``x`` or ``x.attr``, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


# A node with a source position: where a witness hop happens.
_Located = Union[ast.stmt, ast.expr, ast.arg]


def _step(node: _Located, text: str) -> WitnessStep:
    return (node.lineno, node.col_offset, text)


def class_set_fields(cls: ast.ClassDef) -> TaintEnv:
    """Set-annotated class-body fields (dataclass style) as ``self.*``
    slots — with :meth:`TaintAnalysis.attribute_sets`, the entry env of
    the class's methods."""
    return {
        f"self.{stmt.target.id}": {
            "unordered": (_step(stmt, "annotated: set"),)
        }
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and _annotation_is_set(stmt.annotation)
    }


def _join_taint(left: Taint, right: Taint) -> Taint:
    """Union of labels; ties between witnesses break deterministically
    toward the shorter (then lexicographically smaller) chain."""
    merged = dict(left)
    for label, witness in right.items():
        existing = merged.get(label)
        if existing is None or (len(witness), witness) < (
            len(existing), existing
        ):
            merged[label] = witness
    return merged


def _extend(witness: Witness, node: _Located, step: str) -> Witness:
    if len(witness) >= WITNESS_CAP:
        return witness
    if witness and witness[-1][0] == node.lineno:
        return witness  # same-line hops add noise, not information
    return witness + (_step(node, step),)


def _drop(taint: Taint, labels: frozenset[str]) -> Taint:
    return {label: w for label, w in taint.items() if label not in labels}


@dataclass(frozen=True)
class TaintSpec:
    """What counts as a source / sanitizer for one analysis run."""

    value_sources: dict[str, tuple[str, str]] = field(
        default_factory=lambda: dict(DEFAULT_VALUE_SOURCES)
    )
    track_order: bool = True
    track_values: bool = True
    #: Plain-name calls whose result is an ordered sequence, not a set
    #: passed in (``def f(...) -> list[str]`` in the same module).
    sequence_calls: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TaintFlow:
    """One tainted value observed at a program point of interest."""

    label: str
    witness: Witness
    line: int  # the sink line

    def render_path(self) -> str:
        steps = [f"line {line} ({step})" for line, _, step in self.witness]
        steps.append(f"sink line {self.line}")
        return " -> ".join(steps)


class _TaintLattice(Analysis[TaintEnv]):
    def __init__(self, analysis: "TaintAnalysis") -> None:
        self._analysis = analysis

    def initial(self) -> TaintEnv:
        return self._analysis.entry_env()

    def bottom(self) -> TaintEnv:
        return {}

    def join(self, left: TaintEnv, right: TaintEnv) -> TaintEnv:
        if not left:
            return {name: dict(t) for name, t in right.items()}
        if not right:
            return {name: dict(t) for name, t in left.items()}
        merged = {name: dict(t) for name, t in left.items()}
        for name, taint in right.items():
            merged[name] = _join_taint(merged.get(name, {}), taint)
        return merged

    def transfer(self, fact: TaintEnv, node: CFGNode) -> TaintEnv:
        return self._analysis.transfer(fact, node)


class TaintAnalysis:
    """Run the taint lattice over one function (or module) CFG.

    After :meth:`run`, ``env_before(node)`` answers the variable->taint
    map holding when the node's expressions are evaluated, and
    :meth:`taint_of` evaluates any expression's taint under an env.
    ``entry`` seeds slots the scope inherits — the ``self.*`` sets a
    method's class assigns elsewhere. Each of ``sorted_sites`` is
    evaluated as if wrapped in ``sorted(...)``.
    """

    def __init__(
        self,
        cfg: CFG,
        import_table: dict[str, str],
        spec: Optional[TaintSpec] = None,
        entry: Optional[TaintEnv] = None,
        sorted_sites: frozenset[ast.expr] = frozenset(),
    ) -> None:
        self.cfg = cfg
        self.table = import_table
        self.spec = spec or TaintSpec()
        self._entry = entry or {}
        self._sorted_sites = sorted_sites
        self._in_facts: dict[int, TaintEnv] = {}
        self._sites: dict[WitnessStep, ast.expr] = {}

    # -- public API -----------------------------------------------------

    def run(self) -> "TaintAnalysis":
        self._in_facts = solve_forward(self.cfg, _TaintLattice(self))
        return self

    def with_sorted(self, sites: frozenset[ast.expr]) -> "TaintAnalysis":
        """This scope re-solved as if each of ``sites`` were wrapped in
        ``sorted(...)``: what order is left once they are fixed."""
        return TaintAnalysis(
            self.cfg, self.table, self.spec, self._entry,
            self._sorted_sites | sites,
        ).run()

    def env_before(self, node: CFGNode) -> TaintEnv:
        return self._in_facts.get(node.index, {})

    def flows_at(self, expr: ast.expr, node: CFGNode) -> list[TaintFlow]:
        """Every taint label carried by ``expr`` at ``node``, sorted."""
        taint = self.taint_of(expr, self.env_before(node))
        line = getattr(expr, "lineno", node.line)
        return [
            TaintFlow(label=label, witness=witness, line=line)
            for label, witness in sorted(taint.items())
        ]

    def site_of(self, flow: TaintFlow) -> Optional[ast.expr]:
        """The first iteration site on an order flow's witness: the
        iterated expression whose ``sorted(...)`` wrap removes the flow
        (None when the witness cap cut the site off)."""
        for step in flow.witness:
            site = self._sites.get(step)
            if site is not None:
                return site
        return None

    def attribute_sets(self) -> TaintEnv:
        """``self.*`` slots this scope ever assigns an unordered value,
        flow-insensitively: what another method of the class may see."""
        found: TaintEnv = {}
        for node in self.cfg.statements():
            stmt = node.stmt
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            keys = [env_key(t) for t in targets]
            keys = [k for k in keys if k and k.startswith("self.")]
            if not keys:
                continue
            after = self.transfer(self.env_before(node), node)
            for key in keys:
                witness = after.get(key, {}).get("unordered")
                if witness is not None:
                    found[key] = _join_taint(
                        found.get(key, {}), {"unordered": witness}
                    )
        return found

    # -- lattice plumbing ----------------------------------------------

    def entry_env(self) -> TaintEnv:
        env: TaintEnv = {key: dict(t) for key, t in self._entry.items()}
        scope = self.cfg.scope
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            ):
                if self.spec.track_order and _annotation_is_set(arg.annotation):
                    env[arg.arg] = {
                        "unordered": (_step(arg, f"parameter {arg.arg}: set"),)
                    }
        return env

    def transfer(self, fact: TaintEnv, node: CFGNode) -> TaintEnv:
        stmt = node.stmt
        if stmt is None:
            return fact
        out = {name: dict(taint) for name, taint in fact.items()}
        if isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value, fact)
            for target in stmt.targets:
                self._bind(out, target, taint, stmt, fact)
        elif isinstance(stmt, ast.AnnAssign):
            taint = (
                self.taint_of(stmt.value, fact) if stmt.value else {}
            )
            if self.spec.track_order and _annotation_is_set(stmt.annotation):
                taint = _join_taint(
                    taint, {"unordered": (_step(stmt, "annotated: set"),)}
                )
            self._bind(out, stmt.target, taint, stmt, fact)
        elif isinstance(stmt, ast.AugAssign):
            # x += e keeps x's taint and may add e's. iterorder does not
            # survive commutative accumulation (see module docstring),
            # but concatenation keeps the elements' order — and
            # ``lst += a_set`` iterates the set into the list.
            taint = self.taint_of(stmt.value, fact)
            if isinstance(stmt.op, ast.Add):
                taint = self._materialize(taint, stmt.value, "concatenated")
            else:
                taint.pop("iterorder", None)
            key = env_key(stmt.target)
            if isinstance(stmt.target, ast.Subscript):
                self._fill(out, stmt.target, taint, stmt, fact)
            elif key is not None:
                merged = _join_taint(out.get(key, {}), taint)
                out[key] = {
                    label: _extend(w, stmt, f"{key} op= ...")
                    if label in taint and w == taint[label] else w
                    for label, w in merged.items()
                }
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(out, stmt, fact)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    taint = self.taint_of(item.context_expr, fact)
                    self._bind(out, item.optional_vars, taint, stmt, fact)
        elif isinstance(stmt, ast.Expr):
            self._mutating_call(out, stmt.value, fact)
        return out

    def _bind(
        self,
        env: TaintEnv,
        target: ast.expr,
        taint: Taint,
        stmt: ast.stmt,
        fact: TaintEnv,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(env, element, taint, stmt, fact)
            return
        if isinstance(target, ast.Starred):
            self._bind(env, target.value, taint, stmt, fact)
            return
        if isinstance(target, ast.Subscript):
            self._fill(env, target, taint, stmt, fact)
            return
        key = env_key(target)
        if key is None:
            return
        if isinstance(target, ast.Name):
            # Rebinding ``x`` forgets every ``x.attr`` slot.
            for slot in [k for k in env if k.startswith(key + ".")]:
                del env[slot]
        if taint:
            env[key] = {
                label: _extend(witness, stmt, f"{key} = ...")
                for label, witness in taint.items()
            }
        else:
            env.pop(key, None)

    def _fill(
        self,
        env: TaintEnv,
        target: ast.Subscript,
        taint: Taint,
        stmt: ast.stmt,
        fact: TaintEnv,
    ) -> None:
        """``acc[k] = v`` with a set-ordered key or value leaves ``acc``
        (a dict's insertion order, a list's slot contents) order-tainted."""
        key = env_key(target.value)
        if key is None or not self.spec.track_order:
            return
        stored = _join_taint(self.taint_of(target.slice, fact), taint)
        witness = stored.get("iterorder") or stored.get("order")
        if witness is not None:
            env[key] = _join_taint(
                env.get(key, {}),
                {"order": _extend(witness, stmt, f"{key}[...] = ...")},
            )

    def _bind_loop_target(
        self, env: TaintEnv, stmt: ast.For | ast.AsyncFor, fact: TaintEnv
    ) -> None:
        iter_taint = self.taint_of(stmt.iter, fact)
        loop_taint: Taint = {}
        for label, witness in iter_taint.items():
            if label in VALUE_LABELS:
                loop_taint[label] = witness
            elif label in {"unordered", "order"} and self.spec.track_order:
                loop_taint["iterorder"] = self._at_site(
                    witness, stmt.iter, "iterated here"
                )
        for name in assigned_names(stmt.target):
            if loop_taint:
                env[name] = dict(loop_taint)
            else:
                env.pop(name, None)

    def _mutating_call(
        self, env: TaintEnv, expr: ast.expr, fact: TaintEnv
    ) -> None:
        """``acc.append(x)`` with order-positional ``x`` — or
        ``acc.extend(xs)``, which iterates ``xs`` — makes ``acc`` an
        order-tainted container. Appending a whole set object does not:
        the container's own order is unaffected."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.args
        ):
            return
        method = expr.func.attr
        receiver = env_key(expr.func.value)
        if receiver is None:
            return
        arg = expr.args[-1]  # insert(i, x) carries the value last
        taint = self.taint_of(arg, fact)
        if method in EXTEND_METHODS:
            taint = self._materialize(taint, arg, f"{receiver}.{method}(...)")
        elif method not in APPEND_METHODS:
            return
        inherited: Taint = {}
        for label, witness in taint.items():
            if label in VALUE_LABELS:
                inherited[label] = _extend(
                    witness, expr, f"{receiver}.{method}(...)"
                )
            elif label in POSITION_LABELS and self.spec.track_order:
                inherited["order"] = _extend(
                    witness, expr, f"{receiver}.{method}(...)"
                )
        if inherited:
            env[receiver] = _join_taint(env.get(receiver, {}), inherited)

    # -- iteration sites -----------------------------------------------

    def _at_site(self, witness: Witness, site: ast.expr, text: str) -> Witness:
        """Extend ``witness`` with the hop where ``site`` is iterated,
        and remember the site. Unlike ordinary hops this one is kept on
        the source's own line: it is what a fix has to find."""
        if len(witness) >= WITNESS_CAP:
            return witness
        step = _step(site, text)
        self._sites[step] = site
        return witness + (step,)

    def _materialize(self, taint: Taint, site: ast.expr, text: str) -> Taint:
        """``taint`` once ``site``'s elements are laid out in their
        iteration order: unordered (or iterorder) becomes order."""
        taint = dict(taint)
        unordered = taint.pop("unordered", None)
        iterorder = taint.pop("iterorder", None)
        witness = unordered or iterorder
        if witness is not None:
            taint = _join_taint(
                taint, {"order": self._at_site(witness, site, text)}
            )
        return taint

    # -- expression evaluation -----------------------------------------

    def taint_of(self, expr: ast.expr, env: TaintEnv) -> Taint:
        taint = self._eval(expr, env)
        if expr in self._sorted_sites:
            return _drop(taint, ORDER_LABELS)
        return taint

    def _eval(self, expr: ast.expr, env: TaintEnv) -> Taint:
        if isinstance(expr, ast.Name):
            return dict(env.get(expr.id, {}))
        if isinstance(expr, ast.Constant):
            return {}
        if isinstance(expr, (ast.Set, ast.SetComp)):
            taint = self._union_children(expr, env, drop_order=True)
            if self.spec.track_order:
                taint = _join_taint(
                    taint, {"unordered": (_step(expr, "set display"),)}
                )
            return taint
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, env)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comp_taint(expr, env)
        if isinstance(expr, ast.BinOp):
            taint = _join_taint(
                self.taint_of(expr.left, env), self.taint_of(expr.right, env)
            )
            if isinstance(expr.op, ast.Add):
                # Concatenation keeps its operands' order; ``+`` on a
                # set operand is a type error.
                taint.pop("unordered", None)
                return self._materialize(taint, expr, "concatenated")
            # Arithmetic and bitwise folds commute; set algebra keeps
            # the unordered label alive.
            taint.pop("iterorder", None)
            if not isinstance(expr.op, _SET_BINOPS):
                taint.pop("unordered", None)
            return taint
        if isinstance(expr, ast.Starred):
            return self._materialize(
                self.taint_of(expr.value, env), expr.value, "unpacked here"
            )
        if isinstance(expr, (ast.BoolOp, ast.Compare, ast.UnaryOp,
                             ast.JoinedStr, ast.FormattedValue,
                             ast.Tuple, ast.List, ast.Dict,
                             ast.Await, ast.IfExp, ast.NamedExpr)):
            drop = isinstance(expr, (ast.Compare, ast.BoolOp, ast.UnaryOp))
            taint = self._union_children(expr, env, drop_order=drop)
            if isinstance(expr, ast.NamedExpr):
                env[assigned_names(expr.target)[0]] = dict(taint)
            return taint
        if isinstance(expr, ast.Attribute):
            key = env_key(expr)
            if key is not None and key in env:
                return dict(env[key])
            return self.taint_of(expr.value, env)
        if isinstance(expr, ast.Subscript):
            taint = self.taint_of(expr.value, env)
            # Indexing an unordered container yields an element, not the
            # container; the unordered label does not describe it.
            taint.pop("unordered", None)
            return taint
        if isinstance(expr, ast.Lambda):
            return {}
        return self._union_children(expr, env, drop_order=False)

    def _union_children(
        self, expr: ast.expr, env: TaintEnv, drop_order: bool
    ) -> Taint:
        taint: Taint = {}
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint = _join_taint(taint, self.taint_of(child, env))
        return _drop(taint, ORDER_LABELS) if drop_order else taint

    def _call_taint(self, call: ast.Call, env: TaintEnv) -> Taint:
        from repro.staticcheck.rules.base import resolve_call_target

        target = resolve_call_target(call, self.table)
        args_taint: Taint = {}
        for arg in call.args:
            args_taint = _join_taint(args_taint, self.taint_of(arg, env))
        for keyword in call.keywords:
            args_taint = _join_taint(
                args_taint, self.taint_of(keyword.value, env)
            )

        # Value sources start a fresh witness at this call.
        if self.spec.track_values and target in self.spec.value_sources:
            label, describe = self.spec.value_sources[target]
            source: Taint = {label: (_step(call, describe),)}
            return _join_taint(source, args_taint)

        func = call.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in ORDER_SANITIZERS:
            return _drop(args_taint, ORDER_LABELS)
        if name in SET_CONSTRUCTORS:
            taint = _drop(args_taint, ORDER_LABELS)
            if self.spec.track_order:
                taint = _join_taint(
                    taint, {"unordered": (_step(call, f"{name}(...)"),)}
                )
            return taint
        if name in ORDERING_CALLS and call.args:
            return self._materialize(
                args_taint, call.args[0], f"{name}(...) materialized order"
            )
        if isinstance(func, ast.Attribute):
            receiver_taint = self.taint_of(func.value, env)
            if func.attr in SET_METHODS and "unordered" in receiver_taint:
                return _join_taint(receiver_taint, args_taint)
            if func.attr == "fromkeys" and call.args:
                # dict.fromkeys(unordered): insertion order inherited
                # from the unordered input.
                return self._materialize(
                    args_taint, call.args[0], "dict.fromkeys(...)"
                )
            if func.attr == "join" and call.args:
                return args_taint
            # Unknown method: receiver + args flow through, but its
            # result is not taken for the set it was handed.
            merged = _join_taint(receiver_taint, args_taint)
            merged.pop("unordered", None)
            return merged
        if name in self.spec.sequence_calls:
            args_taint.pop("unordered", None)
        # Unknown plain call (``str``, ``map``, ``dict``, ...): its
        # arguments' taint, an unordered collection's included.
        return args_taint

    def _comp_taint(
        self, comp: ast.ListComp | ast.GeneratorExp | ast.DictComp, env: TaintEnv
    ) -> Taint:
        """Comprehensions run their own scope: bind each generator's
        target from its iterable, then evaluate the element expression.
        Every non-set comprehension over unordered input has an order,
        a dict comprehension's being its insertion order."""
        local = {name: dict(t) for name, t in env.items()}
        order_witness: Optional[Witness] = None
        for generator in comp.generators:
            iter_taint = self.taint_of(generator.iter, local)
            loop_taint: Taint = {}
            for label, witness in iter_taint.items():
                if label in VALUE_LABELS:
                    loop_taint[label] = witness
                elif label in {"unordered", "order"} and self.spec.track_order:
                    loop_taint["iterorder"] = self._at_site(
                        witness, generator.iter, "comprehension over it"
                    )
                    if order_witness is None:
                        order_witness = self._at_site(
                            witness, generator.iter,
                            "comprehension materialized order",
                        )
            for name in assigned_names(generator.target):
                if loop_taint:
                    local[name] = dict(loop_taint)
                else:
                    local.pop(name, None)
        if isinstance(comp, ast.DictComp):
            taint = _join_taint(
                self.taint_of(comp.key, local), self.taint_of(comp.value, local)
            )
        else:
            taint = self.taint_of(comp.elt, local)
        taint.pop("iterorder", None)
        if order_witness is not None:
            taint["order"] = order_witness
        return taint
