"""Span tracing for the benchmark's traced run.

The wrappers are installed from outside the program. Each declared entry
point is rebound, as a class attribute or as a module attribute, to a
wrapper that records a span around the call. A module-level function is
rebound in every loaded ``repro`` or benchmark module that holds it, so
``from x import f`` bindings are covered too. Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` restores every original.

Spans live in memory: id, name, start, end, parent and request id. Each
thread keeps its own stack and totals, so the hot path takes no lock.
Per entry point the tracer keeps the call count, the total time (a call
nested inside another call of the same entry point is counted once) and
the self time (the span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: Spans beyond this many per process are counted but not kept, so the
#: trace of a hot path stays a few tens of MB.
SPAN_CAP = 50_000

#: Header that carries the benchmark's request id to the daemon.
REQUEST_HEADER = "X-Bench-Request"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped layer boundary.

    ``name`` is ``<module>.<entry point>``; several targets may share a
    name (the DNS codec is ``to_wire`` plus ``from_wire``). ``samples``
    keeps every duration so the report can give percentiles. Which
    end-to-end metric each layer should move is mapped in README.md.
    """

    name: str
    target: str
    samples: bool = False


#: Layer boundaries of the measurement, analysis and store stack.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("worldgen.build_world", "repro.worldgen.world:build_world"),
    EntryPoint("worldgen.timeline_spec", "repro.worldgen.timeline:Timeline.spec"),
    EntryPoint("worldgen.timeline_world", "repro.worldgen.timeline:Timeline.world"),
    EntryPoint("worldgen.materialize", "repro.worldgen.materialize:materialize"),
    EntryPoint("engine.run_campaign", "repro.engine:run_campaign"),
    EntryPoint("engine.run_timeline", "repro.engine.epochs:run_timeline"),
    EntryPoint("measurement.measure_site",
               "repro.measurement.runner:MeasurementCampaign.measure_site"),
    EntryPoint("measurement.dns", "repro.measurement.dns_measurer:DnsMeasurer.measure"),
    EntryPoint("measurement.tls", "repro.measurement.tls_measurer:TlsMeasurer.extract"),
    EntryPoint("measurement.cdn", "repro.measurement.cdn_measurer:CdnMeasurer.measure"),
    EntryPoint("measurement.interservice",
               "repro.measurement.runner:MeasurementCampaign.run_interservice"),
    EntryPoint("websim.crawl", "repro.websim.crawler:Crawler.crawl"),
    EntryPoint("websim.get", "repro.websim.client:WebClient.get"),
    EntryPoint("dnssim.lookup", "repro.dnssim.resolver:IterativeResolver.lookup"),
    EntryPoint("dnssim.zone_for", "repro.dnssim.server:AuthoritativeServer.zone_for"),
    EntryPoint("dnssim.codec", "repro.dnssim.message:DnsMessage.to_wire"),
    EntryPoint("dnssim.codec", "repro.dnssim.message:DnsMessage.from_wire"),
    EntryPoint("dnssim.send", "repro.dnssim.network:DnsNetwork.send"),
    EntryPoint("dnssim.cache", "repro.dnssim.cache:DnsCache.get"),
    EntryPoint("tlssim.validate", "repro.tlssim.validation:validate_certificate"),
    EntryPoint("core.analyze_dataset", "repro.core.pipeline:analyze_dataset"),
    EntryPoint("core.classify_website", "repro.core.pipeline:classify_website"),
    EntryPoint("core.build_graph", "repro.core.graph:build_graph"),
    EntryPoint("core.provider_metrics",
               "repro.core.graph:DependencyGraph.provider_metrics"),
    EntryPoint("core.refresh_snapshot", "repro.core.incremental:refresh_snapshot"),
    EntryPoint("measurement.io.dataset_to_json",
               "repro.measurement.io:dataset_to_json"),
    EntryPoint("measurement.io.dataset_from_json",
               "repro.measurement.io:dataset_from_json"),
    EntryPoint("store.compile", "repro.store.compile:compile_dataset_text"),
    EntryPoint("store.compile_snapshot", "repro.store.compile:compile_snapshot"),
    EntryPoint("store.load", "repro.store.reader:StoreReader.load"),
    EntryPoint("cascade.run", "repro.cascade.engine:CascadeEngine.run"),
)

_QUERY_ENTRY_POINTS: tuple[EntryPoint, ...] = tuple(
    EntryPoint(f"query.{kind}", f"repro.query.engine:QueryEngine.{kind}", samples=True)
    for kind in ("top", "site", "dependents", "whatif")
)
ENTRY_POINTS += _QUERY_ENTRY_POINTS

#: Layer boundaries inside the serve daemon (installed by serve_host.py).
DAEMON_ENTRY_POINTS: tuple[EntryPoint, ...] = _QUERY_ENTRY_POINTS + (
    EntryPoint("serve.handler", "repro.serve.http:ServeHandler.do_POST", samples=True),
    EntryPoint("serve.answer", "repro.serve.service:ServeService.answer"),
    EntryPoint("serve.answer_diff", "repro.serve.service:ServeService.answer_diff"),
    EntryPoint("serve.registry_acquire", "repro.serve.registry:StoreRegistry.acquire"),
    EntryPoint("serve.render", "repro.query.render:payload_to_json"),
    EntryPoint("store.load", "repro.store.reader:StoreReader.load"),
)


def _cache_outcome(result: Any, error: Optional[BaseException]) -> str:
    """``DnsCache.get`` returns records (a hit) or None (a miss), or
    raises ``NegativeCacheHit`` (a cached NXDOMAIN/NODATA, also a hit)."""
    if error is not None:
        return "hit" if type(error).__name__ == "NegativeCacheHit" else "error"
    return "miss" if result is None else "hit"


#: Entry points whose result is classified into outcome counts.
OUTCOMES: dict[str, Callable[[Any, Optional[BaseException]], str]] = {
    "dnssim.cache": _cache_outcome,
}


def _handler_request(args: tuple[Any, ...]) -> Optional[str]:
    """The request id a ``ServeHandler.do_POST`` call carries."""
    return args[0].headers.get(REQUEST_HEADER)


#: Entry points that start a request: they read its id from their args,
#: and every span nested in them inherits it.
REQUEST_OF: dict[str, Callable[[tuple[Any, ...]], Optional[str]]] = {
    "serve.handler": _handler_request,
}

#: Modules whose attributes may hold a wrapped function: the program's,
#: and the benchmark's own (run as scripts, so imported by bare name).
_HOLDER_PREFIXES = ("repro",)
_HOLDER_NAMES = frozenset({"__main__", "workloads", "inputs", "serve_host"})


class _ThreadState:
    """One thread's span stack, totals and kept spans."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        # Frames: [id, name, start, child seconds, request, outer request].
        self.stack: list[list[Any]] = []
        self.active: Counter[str] = Counter()
        self.stats: dict[str, list[float]] = {}  # name -> [calls, s, self_s]
        self.samples: dict[str, list[float]] = {}
        self.outcomes: dict[str, Counter[str]] = {}
        self.spans: list[tuple[Any, ...]] = []
        self.request: Optional[str] = None
        self.root_s = 0.0
        self.self_s = 0.0


class Tracer:
    """In-memory spans and per-entry-point totals for one process."""

    def __init__(self) -> None:
        self.enabled = True
        self.origin = perf_counter()
        self.merged: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._kept = 0
        self._sampled: set[str] = set()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def _begin(
        self, state: _ThreadState, name: str, request: Optional[str]
    ) -> list[Any]:
        outer = state.request
        if request is not None:
            state.request = request
        frame = [next(self._ids), name, 0.0, 0.0, state.request, outer]
        state.stack.append(frame)
        state.active[name] += 1
        frame[2] = perf_counter()
        return frame

    def _end(self, state: _ThreadState, frame: list[Any]) -> None:
        end = perf_counter()
        span_id, name, start, child_s, request, outer = frame
        state.stack.pop()
        state.active[name] -= 1
        state.request = outer
        duration = end - start
        self_s = duration - child_s
        stats = state.stats.get(name)
        if stats is None:
            stats = state.stats[name] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[2] += self_s
        if not state.active[name]:
            stats[1] += duration
        state.self_s += self_s
        if state.stack:
            parent = state.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            state.root_s += duration
            parent_id = None
        if name in self._sampled:
            state.samples.setdefault(name, []).append(duration)
        # Unlocked, so the cap is approximate under threads.
        if self._kept < SPAN_CAP:
            self._kept += 1
            state.spans.append(
                (span_id, name, start, end, parent_id, request, state.tid)
            )

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        state = self._state()
        frame = self._begin(state, name, request)
        try:
            yield
        finally:
            self._end(state, frame)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block (the off-the-clock checks) without recording."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, fn: Callable[..., Any], point: EntryPoint) -> Callable[..., Any]:
        tracer = self
        name = point.name
        outcome = OUTCOMES.get(name)
        request_of = REQUEST_OF.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            request = request_of(args) if request_of is not None else None
            frame = tracer._begin(state, name, request)
            if outcome is None:
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._end(state, frame)
            result: Any = None
            error: Optional[BaseException] = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._end(state, frame)
                counts = state.outcomes.setdefault(name, Counter())
                counts[outcome(result, error)] += 1

        return traced

    # -- installation --------------------------------------------------------

    def install(self, points: tuple[EntryPoint, ...]) -> None:
        """Rebind every entry point to a span-recording wrapper."""
        for point in points:
            module_name, _, qualname = point.target.partition(":")
            module = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            owner: Any = module
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._install_method(owner, attr, point)
            else:
                self._install_function(getattr(module, attr), point)
            if point.samples:
                self._sampled.add(point.name)

    def _install_method(self, owner: type, attr: str, point: EntryPoint) -> None:
        raw = owner.__dict__[attr]
        wrapped: Any
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, point))
        else:
            wrapped = self._wrap(raw, point)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _install_function(self, original: Any, point: EntryPoint) -> None:
        wrapped = self._wrap(original, point)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", None) or ""
            if not (name.startswith(_HOLDER_PREFIXES) or name in _HOLDER_NAMES):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._installed.append((holder, key, value))
                    setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``s`` and ``self_s``, over every thread of
        this process and every merged process."""
        out: dict[str, dict[str, float]] = {}
        rows = [
            (name, row)
            for state in self._threads
            for name, row in state.stats.items()
        ]
        rows += [
            (name, (row["calls"], row["s"], row["self_s"]))
            for dump in self.merged
            for name, row in dump["stats"].items()
        ]
        for name, (calls, total, self_s) in rows:
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += calls
            acc["s"] += total
            acc["self_s"] += self_s
        return out

    def samples(self, name: str) -> list[float]:
        """Every recorded duration of ``name``, in seconds."""
        values: list[float] = []
        for state in self._threads:
            values.extend(state.samples.get(name, ()))
        for dump in self.merged:
            values.extend(dump["samples"].get(name, ()))
        return values

    def outcomes(self, name: str) -> Counter[str]:
        total: Counter[str] = Counter()
        for state in self._threads:
            total.update(state.outcomes.get(name, {}))
        for dump in self.merged:
            total.update(dump["outcomes"].get(name, {}))
        return total

    def request_durations(self, name: str) -> dict[str, float]:
        """Duration of every kept ``name`` span that carried a request id."""
        return {
            str(span[5]): span[3] - span[2]
            for span in self._spans()
            if span[1] == name and span[5] is not None
        }

    def balance(self) -> list[tuple[float, float]]:
        """Per thread and merged process: (top-level span seconds, summed
        self seconds). The two agree when every span nests properly."""
        rows = [(state.root_s, state.self_s) for state in self._threads]
        for dump in self.merged:
            rows.extend(tuple(row) for row in dump["balance"])
        return rows

    def open_spans(self) -> int:
        return sum(len(state.stack) for state in self._threads)

    def _local_spans(self) -> Iterator[tuple[Any, ...]]:
        for state in self._threads:
            yield from state.spans

    def _spans(self) -> Iterator[tuple[Any, ...]]:
        yield from self._local_spans()
        for dump in self.merged:
            for span in dump["spans"]:
                yield tuple(span)

    def _dropped(self) -> int:
        calls = sum(
            row[0] for state in self._threads for row in state.stats.values()
        )
        return int(calls) - sum(len(state.spans) for state in self._threads)

    # -- across processes ----------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """This process's totals, samples and spans, for :meth:`merge`."""
        return {
            "pid": os.getpid(),
            "stats": self.stats(),
            "samples": {name: self.samples(name) for name in sorted(self._sampled)},
            "outcomes": {name: dict(self.outcomes(name)) for name in OUTCOMES},
            "spans": [list(span) for span in self._local_spans()],
            "balance": [(s.root_s, s.self_s) for s in self._threads],
            "dropped": self._dropped(),
        }

    def merge(self, dump: dict[str, Any]) -> None:
        """Fold in another process's :meth:`dump`."""
        self.merged.append(dump)

    def chrome_trace(self) -> dict[str, Any]:
        """The kept spans as Chrome trace-event JSON (Perfetto loads it)."""
        events: list[dict[str, Any]] = []
        # perf_counter is CLOCK_MONOTONIC on Linux, one clock for every
        # process on the machine, so one origin aligns them all.
        sources = [(os.getpid(), list(self._local_spans()))]
        sources += [(dump["pid"], dump["spans"]) for dump in self.merged]
        for pid, spans in sources:
            for span_id, name, start, end, parent, request, tid in spans:
                args: dict[str, Any] = {"id": span_id}
                if parent is not None:
                    args["parent"] = parent
                if request is not None:
                    args["request"] = request
                events.append({
                    "name": name,
                    "cat": name.partition(".")[0],
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                })
        dropped = self._dropped() + sum(d["dropped"] for d in self.merged)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
