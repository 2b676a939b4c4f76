"""The four benchmark workloads.

Each workload makes its inputs from the seed, times only calls into the
program's public layer functions, checks its outputs off the clock, and
returns a :class:`Result`. ``seconds`` is the measured time a workload
aims for; it repeats its work until that much has been timed.

A shared machine runs everything up to 1.9 times slower for seconds to
minutes at a time, when other tenants are busy; a median over a run
moves with every such spell. So the in-process workloads report the
program undisturbed. ``campaign`` and ``timeline`` repeat the same
seeded job several times across the run, time it in small units (a
shard, an epoch's phase), and add up each unit's fastest repetition.
``query`` replays one seeded cycle of queries and keeps each query's
and each chunk's fastest replay.

=========  ===================================  ===========================
workload   timed unit                           ``throughput``, ``p50_ms``
=========  ===================================  ===========================
campaign   a 20-site shard, each analysis step  sites/s, ms per shard
timeline   each phase of each epoch             epochs/s, ms per epoch
query      a query, a chunk of 250 queries      queries/s, median query
serve      the closed-loop phase as a whole     requests/s, median request
=========  ===================================  ===========================
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import queue
import random
import resource
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from tracing import REQUEST_HEADER, Tracer

from repro.cascade import CascadeEngine, dns_outage_config
from repro.core import ServiceType, analyze_dataset
from repro.core.incremental import refresh_snapshot
from repro.core.pipeline import dns_display_directory
from repro.engine import CampaignStats, ProgressReporter, run_campaign, run_timeline
from repro.measurement.io import dataset_to_json
from repro.query import QueryEngine, QueryError, payload_to_json
from repro.serve.protocol import parse_query, run_query
from repro.serve.registry import StoreRegistry
from repro.serve.service import ServeService
from repro.store import StoreReader, compile_dataset_text
from repro.worldgen import WorldConfig, build_world
from repro.worldgen.timeline import Timeline, TimelineConfig

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Seconds a child process may take to start (input generation, daemon
#: start-up) and to stop after SIGTERM.
CHILD_START_S = 120.0
CHILD_STOP_S = 15.0

#: Per-epoch churn of every timeline the benchmark measures.
CHURN_RATE = 0.10
#: Query latencies kept per run (allocated up front, see ``query``).
MAX_QUERY_SAMPLES = 2_000_000
#: Every this many queries (requests), an answer is checked.
QUERY_CHECK_EVERY = 100
SERVE_CHECK_EVERY = 20
#: Serve traffic: keep-alive connections, open-loop Poisson rate, the
#: share of the run that is open loop, how long after the open loop a
#: queued request may still be sent, and the Zipf exponent of site keys.
CONNECTIONS = 2
OPEN_LOOP_RATE = 25.0
OPEN_LOOP_SHARE = 0.5
OPEN_LOOP_GRACE_S = 1.0
ZIPF_S = 1.1


# -- parameters (tests shrink them) -------------------------------------------


@dataclass(frozen=True)
class CampaignParams:
    """The top ``sites`` of an ``n_websites`` world, in ``shards`` shards."""

    n_websites: int = 3000
    sites: int = 400
    shards: int = 20
    min_jobs: int = 4
    min_setups: int = 4


@dataclass(frozen=True)
class TimelineParams:
    n_websites: int = 300
    epochs: int = 10
    min_jobs: int = 3
    min_setups: int = 5


@dataclass(frozen=True)
class StoreInputs:
    """The three-epoch timeline whose stores ``query`` and ``serve`` read."""

    n_websites: int = 1000
    epochs: int = 3


@dataclass(frozen=True)
class QueryParams:
    inputs: StoreInputs = StoreInputs()
    setups: int = 5
    cycle_ops: int = 5000
    chunk_ops: int = 250


@dataclass(frozen=True)
class ServeParams:
    inputs: StoreInputs = StoreInputs()
    setups: int = 3
    warmup_requests: int = 50


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run measured, produced and checked.

    ``metrics`` are the end-to-end metrics as ``(value, unit)``.
    ``layers`` are per-layer metrics only the workload can see (client
    side of serve, LRU counters, engine phases). ``outputs`` are
    deterministic for a seed. ``info`` is reported but never compared.
    ``problems`` lists failed checks.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def set_metrics(
        self, setup_s: list[float], throughput: float, p50_s: float,
        latencies_s: Any, rss_mb: float,
    ) -> None:
        """The end-to-end metrics. Tail percentiles of ``latencies_s``
        with at least ten samples beyond them are reported too, as info:
        a run of a batch workload has too few units for any."""
        ordered = sorted(latencies_s)
        self.metrics = {
            "setup_s": (median(setup_s), "s"),
            "throughput": (throughput, "1/s"),
            "p50_ms": (p50_s * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        self.info["setup_samples"] = len(setup_s)
        self.info["latency_samples"] = len(ordered)
        for pct in (90.0, 99.0, 99.9):
            if len(ordered) * (100.0 - pct) / 100.0 >= 10:
                self.info[f"p{pct:g}_ms"] = _sorted_percentile(ordered, pct) * 1e3


def percentile(values: Any, pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    return _sorted_percentile(sorted(values), pct)


def _sorted_percentile(ordered: list[float], pct: float) -> float:
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Any) -> float:
    return percentile(values, 50.0)


def _sha256(data: Any) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _degraded(websites: Any) -> int:
    return sum(
        1 for w in websites if w.dns.degraded or w.tls.degraded or w.cdn.degraded
    )


class _Phases:
    """Bench-phase spans when tracing; nothing otherwise."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def off_trace(self) -> Any:
        return self.tracer.paused() if self.tracer is not None else nullcontext()


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under ``bench/out``, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class UnitTimes:
    """Seconds of each unit of a repeated job, over its repetitions.

    Every repetition does the same work, so a unit's fastest repetition
    is its time undisturbed by the machine's other tenants.
    """

    def __init__(self) -> None:
        self.samples: dict[Any, list[float]] = {}

    def add(self, unit: Any, seconds: float) -> None:
        self.samples.setdefault(unit, []).append(seconds)

    def best(self) -> dict[Any, float]:
        return {unit: min(values) for unit, values in self.samples.items()}


def _repeat_jobs(
    seconds: float, min_jobs: int, min_setups: int, phases: _Phases,
    setup: Callable[[], Any], job: Callable[[Any], Any],
    check: Callable[[Any, Any], None],
) -> tuple[list[float], list[float]]:
    """Set up, time a job, check it off the clock; until ``seconds`` of
    jobs are timed. Extra set-ups top the set-up samples up to
    ``min_setups``. Returns (set-up seconds, job seconds)."""
    setup_s: list[float] = []
    job_s: list[float] = []

    def timed_setup() -> Any:
        with phases.span("bench.setup"):
            start = perf_counter()
            state = setup()
            setup_s.append(perf_counter() - start)
        return state

    while sum(job_s) < seconds or len(job_s) < min_jobs:
        state = timed_setup()
        with phases.span("bench.timed"):
            start = perf_counter()
            out = job(state)
            job_s.append(perf_counter() - start)
        with phases.off_trace():
            check(state, out)
    while len(setup_s) < min_setups:
        timed_setup()
    return setup_s, job_s


# -- campaign -----------------------------------------------------------------


class _ShardClock(ProgressReporter):
    """Notes when a campaign's measurement starts and each shard ends."""

    def __init__(self) -> None:
        self.marks: list[float] = []

    def on_plan(self, stats: CampaignStats) -> None:
        self.marks.append(perf_counter())

    def on_shard_done(
        self, shard_id: int, n_sites: int, stats: CampaignStats
    ) -> None:
        self.marks.append(perf_counter())


def campaign(
    seed: int, seconds: float, tracer: Optional[Tracer] = None,
    params: CampaignParams = CampaignParams(),
) -> Result:
    """The paper's one-shot pipeline on a fresh world, repeated.

    Set-up builds the world. A live world is stateful (resolver cache,
    simulated clock), so every job gets a freshly built one, and every
    job does the same work. A job measures the world's top
    ``params.sites`` sites in ``params.shards`` shards on one worker,
    which yields the same dataset as one shard, then analyzes, writes
    and compiles it and runs the Dyn cascade. Each shard and each step
    is a unit. Per-site cost grows with the world's size, not with the
    sites measured: the simulated nameservers host every site's zone.
    """
    result = Result()
    outputs: list[dict[str, Any]] = []
    phase_s: dict[str, float] = {}
    units = UnitTimes()

    def setup() -> Any:
        return build_world(WorldConfig(n_websites=params.n_websites, seed=seed))

    def job(world: Any) -> Any:
        stats = CampaignStats()
        clock = _ShardClock()
        start = perf_counter()
        dataset = run_campaign(
            world=world, workers=1, shards=params.shards, limit=params.sites,
            progress=clock, stats=stats,
        )
        marks = [start, *clock.marks, perf_counter()]
        snapshot = analyze_dataset(
            dataset,
            rank_scale=world.config.rank_scale,
            dns_display_names=dns_display_directory(world),
        )
        snapshot.provider_metrics()
        marks.append(perf_counter())
        text = dataset_to_json(dataset)
        marks.append(perf_counter())
        blob = compile_dataset_text(text)
        marks.append(perf_counter())
        trajectory = CascadeEngine(snapshot, dns_outage_config(world, "dyn")).run()
        marks.append(perf_counter())
        return marks, stats, dataset, snapshot, text, blob, trajectory

    def check(world: Any, out: Any) -> None:
        marks, stats, dataset, snapshot, text, blob, trajectory = out
        shards = [f"shard-{i}" for i in range(stats.shards_total)]
        names = ["plan", *shards, "merge", "analyze", "json", "compile", "cascade"]
        for name, start, end in zip(names, marks, marks[1:]):
            units.add(name, end - start)
        for name, value in stats.phase_seconds.items():
            phase_s[name] = phase_s.get(name, 0.0) + value
        store_top = QueryEngine(StoreReader.from_bytes(blob)).top(5, "impact", "dns")
        graph_top = snapshot.graph.top_providers(ServiceType.DNS, k=5, by="impact")
        result.check(
            [row["provider"] for row in store_top["results"]]
            == [str(node) for node, _ in graph_top],
            "campaign: the store's top-5 DNS ranking differs from "
            "snapshot.graph.top_providers",
        )
        result.attempted += len(dataset.websites)
        result.failed += _degraded(dataset.websites)
        outputs.append({
            "dataset_sha256": _sha256(text),
            "store_sha256": _sha256(blob),
            "store_bytes": len(blob),
            "top5_dns": [str(node) for node, _ in graph_top],
            "cascade_ticks_failed": [
                trajectory.ticks_run, len(trajectory.failed_sites())
            ],
        })

    setup_s, job_s = _repeat_jobs(
        seconds, params.min_jobs, params.min_setups, _Phases(tracer),
        setup, job, check,
    )
    result.check(
        all(out == outputs[0] for out in outputs),
        "campaign: jobs on the same seed produced different outputs",
    )
    result.outputs = outputs[0]
    best = units.best()
    shard_s = [s for name, s in best.items() if name.startswith("shard-")]
    job_best_s = sum(best.values())
    result.set_metrics(
        setup_s, result.attempted / len(job_s) / job_best_s, median(shard_s),
        shard_s, _peak_rss_mb(),
    )
    result.info["jobs"] = len(job_s)
    result.info["job_s"] = job_best_s
    result.info["analysis_s"] = sum(
        best[name] for name in ("analyze", "json", "compile", "cascade")
    )
    for name in ("plan", "measure", "merge"):
        result.layers[f"engine.{name}.s"] = (phase_s.get(name, 0.0) / len(job_s), "s")
    result.layers["store.bytes"] = (float(outputs[0]["store_bytes"]), "count")
    return result


# -- timeline -----------------------------------------------------------------


class _EpochClock(Timeline):
    """A timeline that notes when ``run_timeline`` starts each epoch:
    it materializes every epoch's world once, first thing."""

    marks: Optional[list[float]] = None

    def world(self, epoch: int) -> Any:
        if self.marks is not None:
            self.marks.append(perf_counter())
        return super().world(epoch)


def timeline(
    seed: int, seconds: float, tracer: Optional[Tracer] = None,
    params: TimelineParams = TimelineParams(),
) -> Result:
    """Longitudinal tracking over an N-epoch world at steady churn.

    One pass measures every epoch incrementally (``run_timeline``), then
    per epoch does what ``repro compile --epochs`` does (dataset JSON,
    store) and what ``repro compare`` does (analyze epoch 0, refresh the
    snapshot for each later epoch, rank the top DNS providers). Every
    pass does the same work. Each epoch's share of ``run_timeline``,
    JSON, compile and compare step is a unit; an epoch's time is the
    sum of its four.
    """
    result = Result()
    config = TimelineConfig(
        n_websites=params.n_websites, seed=seed,
        epochs=params.epochs, churn_rate=CHURN_RATE,
    )
    outputs: list[dict[str, Any]] = []
    units = UnitTimes()

    def setup() -> _EpochClock:
        line = _EpochClock(config)
        line.spec(params.epochs - 1)
        return line

    def job(line: _EpochClock) -> Any:
        line.marks = []
        results = run_timeline(config, timeline=line)
        line.marks.append(perf_counter())
        timed = [
            (("measure", epoch), b - a)
            for epoch, (a, b) in enumerate(zip(line.marks, line.marks[1:]))
        ]
        line.marks = None
        texts: list[str] = []
        blobs: list[bytes] = []
        snapshot = None
        for epoch in results:
            start = perf_counter()
            text = dataset_to_json(epoch.dataset)
            texts.append(text)
            encoded = perf_counter()
            blobs.append(compile_dataset_text(text))
            compiled = perf_counter()
            world = line.world(epoch.epoch)
            display = dns_display_directory(world)
            if snapshot is None:
                snapshot = analyze_dataset(
                    epoch.dataset,
                    rank_scale=world.config.rank_scale,
                    dns_display_names=display,
                )
            else:
                snapshot = refresh_snapshot(
                    snapshot, epoch.dataset,
                    changed=epoch.changes.changed, dns_display_names=display,
                )
            snapshot.graph.top_providers(ServiceType.DNS, k=5, by="impact")
            compared = perf_counter()
            timed += [
                (("json", epoch.epoch), encoded - start),
                (("compile", epoch.epoch), compiled - encoded),
                (("compare", epoch.epoch), compared - compiled),
            ]
        return timed, results, texts, blobs, snapshot

    def check(line: Timeline, out: Any) -> None:
        timed, results, texts, blobs, snapshot = out
        measured = sum(1 for (phase, _), _ in timed if phase == "measure")
        result.check(
            measured == len(results),
            f"timeline: run_timeline materialized {measured} worlds for "
            f"{len(results)} epochs; the epoch clock needs one each",
        )
        for unit, seconds in timed:
            units.add(unit, seconds)
        last = results[-1]
        world = line.world(last.epoch)
        fresh = analyze_dataset(
            last.dataset,
            rank_scale=world.config.rank_scale,
            dns_display_names=dns_display_directory(world),
        )
        result.check(
            snapshot.provider_metrics() == fresh.provider_metrics(),
            "timeline: the refreshed metrics of the last epoch differ from a "
            "fresh analyze_dataset",
        )
        for epoch, text, blob in zip(results, texts, blobs):
            result.check(
                StoreReader.from_bytes(blob).header["source_sha256"] == _sha256(text),
                f"timeline: epoch {epoch.epoch}'s store does not carry the "
                f"sha256 of its dataset",
            )
            result.attempted += epoch.sites_measured
            result.failed += _degraded(epoch.dataset.websites)
        outputs.append({
            "sites_measured": [epoch.sites_measured for epoch in results],
            "dataset_sha256": [_sha256(text) for text in texts],
            "store_sha256": [_sha256(blob) for blob in blobs],
            "store_bytes": sum(len(blob) for blob in blobs),
        })

    setup_s, job_s = _repeat_jobs(
        seconds, params.min_jobs, params.min_setups, _Phases(tracer),
        setup, job, check,
    )
    result.check(
        all(out == outputs[0] for out in outputs),
        "timeline: passes on the same seed produced different outputs",
    )
    result.outputs = outputs[0]
    epoch_s = [0.0] * params.epochs
    for (_, epoch), seconds_best in units.best().items():
        epoch_s[epoch] += seconds_best
    result.set_metrics(
        setup_s, len(epoch_s) / sum(epoch_s), median(epoch_s), epoch_s,
        _peak_rss_mb(),
    )
    result.info["jobs"] = len(job_s)
    result.info["pass_s"] = sum(epoch_s)
    result.layers["store.bytes"] = (float(outputs[0]["store_bytes"]), "count")
    return result


# -- inputs for query and serve -----------------------------------------------


def make_store_inputs(
    inputs: StoreInputs, seed: int, directory: Path, tracer: Optional[Tracer]
) -> list[str]:
    """Measure the three-epoch timeline in a child process and return the
    epoch datasets' JSON texts.

    A separate process keeps measurement out of this process's peak RSS:
    the program under test receives only the generated datasets.
    """
    command = [
        sys.executable, str(BENCH_DIR / "inputs.py"),
        "--seed", str(seed), "--n", str(inputs.n_websites),
        "--epochs", str(inputs.epochs), "--churn", str(CHURN_RATE),
        "--out", str(directory),
    ]
    trace_out = directory / "inputs.trace.json"
    if tracer is not None:
        command += ["--trace-out", str(trace_out)]
    completed = subprocess.run(
        command, cwd=BENCH_DIR.parent, timeout=CHILD_START_S,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{completed.stderr}")
    if tracer is not None:
        tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
    return [
        (directory / f"epoch-{epoch:04d}.json").read_text(encoding="utf-8")
        for epoch in range(inputs.epochs)
    ]


class KeySpace:
    """Sites (in rank order) and providers of one compiled store."""

    def __init__(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        order = sorted(range(reader.n_sites), key=reader.site_rank)
        self.sites = [reader.site_domain(i) for i in order]
        self.providers = [reader.provider_key(i) for i in range(reader.n_providers)]


def _random_top(rng: random.Random) -> dict[str, Any]:
    return {
        "kind": "top", "k": 10,
        "mode": rng.choice(("impact", "concentration")),
        "service": rng.choice(("dns", "cdn", "ca")),
    }


# -- query --------------------------------------------------------------------


def _draw_ops(rng: random.Random, keys: KeySpace, count: int) -> list[dict[str, Any]]:
    """Uniform keys: 10% top, 50% site, 20% dependents, 20% whatif."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.10:
            ops.append(_random_top(rng))
        elif roll < 0.60:
            ops.append({"kind": "site", "site": rng.choice(keys.sites)})
        elif roll < 0.80:
            ops.append({"kind": "dependents", "provider": rng.choice(keys.providers)})
        else:
            ops.append({"kind": "whatif", "provider": rng.choice(keys.providers)})
    return ops


def query(
    seed: int, seconds: float, tracer: Optional[Tracer] = None,
    params: QueryParams = QueryParams(),
) -> Result:
    """A closed loop of in-process queries against the newest store.

    The loop replays one seeded cycle of ``params.cycle_ops`` queries.
    Their uniform keys over every site and provider outnumber the
    engine's 128-entry payload LRU, so most queries build their
    payload. Set-up ends with one cycle; from then on the LRU holds the
    same entries at the same point of every cycle, so every replay of
    a query does the same work. A query's fastest replay is its
    undisturbed latency, and a chunk of ``params.chunk_ops`` queries'
    fastest replay its undisturbed time.
    """
    result = Result()
    phases = _Phases(tracer)
    with scratch_dir() as tmp:
        with phases.span("bench.inputs"):
            texts = make_store_inputs(params.inputs, seed, tmp, tracer)
        text = texts[-1]
        store_path = tmp / "newest.rstore"
        with phases.off_trace():
            keys = KeySpace(compile_dataset_text(text))
        rng = random.Random(f"query-{seed}")
        cycle = [parse_query(op) for op in _draw_ops(rng, keys, params.cycle_ops)]
        # Allocated (and touched) before anything is measured, so the
        # samples add the same resident memory however many queries run.
        latencies = array("f", [0.0]) * MAX_QUERY_SAMPLES
        setup_s: list[float] = []
        for _ in range(params.setups):
            with phases.span("bench.setup"):
                start = perf_counter()
                store_path.write_bytes(compile_dataset_text(text))
                engine = QueryEngine(StoreReader.load(str(store_path)))
                for q in cycle:
                    run_query(engine, q)
                setup_s.append(perf_counter() - start)
        oracle = QueryEngine(StoreReader.load(str(store_path)), cache_size=1)
        digest = hashlib.sha256()
        with phases.off_trace():
            for q in cycle:
                digest.update(payload_to_json(run_query(oracle, q)).encode("utf-8"))
        before = engine.cache_stats()
        recorded = 0
        op_best = array("d", [float("inf")]) * len(cycle)
        chunk_best: dict[int, float] = {}
        replays = 0
        timed_s = 0.0
        while timed_s < seconds:
            # Each replay checks every QUERY_CHECK_EVERY-th query, from
            # its own offset, so successive replays check different ones.
            check_offset = replays % QUERY_CHECK_EVERY
            for first in range(0, len(cycle), params.chunk_ops):
                ops = cycle[first:first + params.chunk_ops]
                checked = []
                with phases.span("bench.timed"):
                    chunk_start = perf_counter()
                    for index, q in enumerate(ops, start=first):
                        start = perf_counter()
                        try:
                            answer = run_query(engine, q)
                        except QueryError:
                            result.failed += 1
                            answer = None
                        elapsed = perf_counter() - start
                        if elapsed < op_best[index]:
                            op_best[index] = elapsed
                        if recorded < MAX_QUERY_SAMPLES:
                            latencies[recorded] = elapsed
                            recorded += 1
                        if index % QUERY_CHECK_EVERY == check_offset:
                            checked.append((q, answer))
                    chunk_s = perf_counter() - chunk_start
                timed_s += chunk_s
                chunk_best[first] = min(chunk_best.get(first, chunk_s), chunk_s)
                result.attempted += len(ops)
                with phases.off_trace():
                    for q, answer in checked:
                        expected = run_query(oracle, q)
                        result.check(
                            answer is not None
                            and payload_to_json(answer) == payload_to_json(expected),
                            f"query: answer to {q} differs from a fresh engine's",
                        )
            replays += 1
        after = engine.cache_stats()
        rss_mb = _peak_rss_mb()
        blob = store_path.read_bytes()
    result.outputs = {
        "dataset_sha256": _sha256(text),
        "store_sha256": _sha256(blob),
        "answer_digest": digest.hexdigest(),
        "sites": len(keys.sites),
        "providers": len(keys.providers),
    }
    result.set_metrics(
        setup_s, len(cycle) / sum(chunk_best.values()), median(op_best),
        latencies[:recorded], rss_mb,
    )
    result.info["replays"] = replays
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    result.layers["query.lru_hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    result.layers["store.bytes"] = (float(len(blob)), "count")
    return result


# -- serve --------------------------------------------------------------------


class Daemon:
    """``repro serve`` in a child process, started through serve_host.py."""

    def __init__(
        self, stores: dict[str, str], max_mem: int, trace_out: Optional[Path]
    ) -> None:
        command = [sys.executable, str(BENCH_DIR / "serve_host.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "serve", "--max-mem", str(max_mem)]
        command += [f"{name}={path}" for name, path in sorted(stores.items())]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            command, cwd=BENCH_DIR.parent,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> tuple[str, int]:
        assert self.proc.stderr is not None
        deadline = time.monotonic() + CHILD_START_S
        seen: list[str] = []
        marker = "listening on http://"
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stderr, selectors.EVENT_READ)
            while selector.select(timeout=max(0.0, deadline - time.monotonic())):
                line = self.proc.stderr.readline().decode("utf-8", "replace")
                if not line:
                    break
                seen.append(line)
                if marker in line:
                    address = line.split(marker, 1)[1].split()[0]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        raise RuntimeError("serve daemon did not start:\n" + "".join(seen))

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[dict[str, Any]]:
        """SIGTERM (the graceful drain), wait, and read its trace dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=CHILD_STOP_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text(encoding="utf-8"))
        return None


@dataclass
class _Exchange:
    request_id: str
    path: str
    body: bytes
    status: int = 0
    response: bytes = b""
    sent_at: float = 0.0
    done_at: float = 0.0


class _Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def send(self, exchange: _Exchange) -> bool:
        headers = {
            "Content-Type": "application/json",
            REQUEST_HEADER: exchange.request_id,
        }
        exchange.sent_at = perf_counter()
        try:
            self.conn.request("POST", exchange.path, exchange.body, headers)
            response = self.conn.getresponse()
            exchange.response = response.read()
            exchange.status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            exchange.status = 0
        exchange.done_at = perf_counter()
        return exchange.status == 200

    def close(self) -> None:
        self.conn.close()


class _RequestMix:
    """Seeded serve traffic over the three epoch stores.

    70% site lookups with Zipf-skewed keys, 10% top, 10% whatif, 10%
    diffs of epoch-1 against epoch-2. Singles go 45% to epoch-2, 45% to
    epoch-1 and 10% to epoch-0, so the registry's memory cap (the two
    largest stores) forces occasional evictions.
    """

    def __init__(self, keys: dict[str, KeySpace]) -> None:
        def zipf(count: int) -> list[float]:
            return list(itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_S for rank in range(count)
            ))

        self.keys = keys
        self.weights = {name: zipf(len(space.sites)) for name, space in keys.items()}
        shared = set(keys["epoch-1"].sites) & set(keys["epoch-2"].sites)
        self.shared = [site for site in keys["epoch-2"].sites if site in shared]
        self.shared_weights = zipf(len(self.shared))

    def draw(self, rng: random.Random, count: int, prefix: str) -> list[_Exchange]:
        out = []
        for index in range(count):
            roll = rng.random()
            if roll < 0.90:
                pick = rng.random()
                store = "epoch-2" if pick < 0.45 else "epoch-1" if pick < 0.90 else "epoch-0"
                space = self.keys[store]
                if roll < 0.70:
                    site = rng.choices(space.sites, cum_weights=self.weights[store])[0]
                    query: dict[str, Any] = {"kind": "site", "site": site}
                elif roll < 0.80:
                    query = _random_top(rng)
                else:
                    query = {"kind": "whatif", "provider": rng.choice(space.providers)}
                path, doc = "/v1/query", {"store": store, "query": query}
            else:
                if rng.random() < 0.5:
                    query = _random_top(rng)
                else:
                    site = rng.choices(self.shared, cum_weights=self.shared_weights)[0]
                    query = {"kind": "site", "site": site}
                path = "/v1/diff"
                doc = {"store_a": "epoch-1", "store_b": "epoch-2", "query": query}
            out.append(_Exchange(
                f"{prefix}{index}", path, json.dumps(doc).encode("utf-8")
            ))
        return out


def _get_json(host: str, port: int, path: str) -> dict[str, Any]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _open_loop(
    host: str, port: int, exchanges: list[_Exchange], offsets: list[float],
    duration_s: float,
) -> tuple[list[float], list[float], list[float], int]:
    """Send each exchange at its due time on a pool of keep-alive
    connections. Returns per-exchange latency and wait, both from the
    due time (NaN if unsent), the generator's lateness, and how many
    exchanges were still unsent at the phase deadline."""
    pending: queue.SimpleQueue[Optional[tuple[int, float]]] = queue.SimpleQueue()
    latency = [float("nan")] * len(exchanges)
    wait = [float("nan")] * len(exchanges)
    late: list[float] = []
    unsent = [0] * CONNECTIONS
    base = perf_counter() + 0.05
    deadline = base + duration_s + OPEN_LOOP_GRACE_S

    def worker(slot: int) -> None:
        conn = _Connection(host, port)
        try:
            while True:
                item = pending.get()
                if item is None:
                    return
                index, due = item
                if perf_counter() > deadline:
                    unsent[slot] += 1
                    continue
                exchange = exchanges[index]
                conn.send(exchange)
                wait[index] = exchange.sent_at - due
                latency[index] = exchange.done_at - due
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"open-loop-{slot}")
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    try:
        for index, offset in enumerate(offsets):
            due = base + offset
            pause = due - perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(perf_counter() - due)
            pending.put((index, due))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    return latency, wait, late, sum(unsent)


def _closed_loop(
    host: str, port: int, mix: _RequestMix, rng_seed: str, duration_s: float,
) -> tuple[list[_Exchange], float]:
    """Every connection sends back to back until the phase ends."""
    done: list[list[_Exchange]] = [[] for _ in range(CONNECTIONS)]
    start = perf_counter()
    end = start + duration_s

    def worker(slot: int) -> None:
        rng = random.Random(f"{rng_seed}-{slot}")
        conn = _Connection(host, port)
        try:
            while True:
                prefix = f"B{slot}-{len(done[slot])}-"
                for exchange in mix.draw(rng, 100, prefix):
                    if perf_counter() >= end:
                        return
                    conn.send(exchange)
                    done[slot].append(exchange)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"closed-loop-{slot}")
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    return [exchange for slot in done for exchange in slot], elapsed


def _expected_body(
    exchange: _Exchange, engines: dict[str, QueryEngine], service: ServeService
) -> bytes:
    doc = json.loads(exchange.body)
    if exchange.path == "/v1/diff":
        payload = service.answer_diff(doc)
    else:
        payload = run_query(engines[doc["store"]], parse_query(doc["query"]))
    return payload_to_json(payload).encode("utf-8")


def serve(
    seed: int, seconds: float, tracer: Optional[Tracer] = None,
    params: ServeParams = ServeParams(),
) -> Result:
    """The long-lived daemon, used over keep-alive connections.

    Phase A is an open loop of seeded Poisson arrivals, each request
    timed from its due time. Phase B is a closed loop on every
    connection; it gives the end-to-end latency and the capacity.
    Phase A's latency is reported but is not an end-to-end metric: at
    this rate the keep-alive stall makes it bistable (see README.md).
    """
    result = Result()
    phases = _Phases(tracer)
    names = [f"epoch-{epoch}" for epoch in range(params.inputs.epochs)]
    with scratch_dir() as tmp:
        with phases.span("bench.inputs"):
            texts = make_store_inputs(params.inputs, seed, tmp, tracer)
        with phases.off_trace():
            blobs = [compile_dataset_text(text) for text in texts]
            keys = {name: KeySpace(blob) for name, blob in zip(names, blobs)}
        mix = _RequestMix(keys)
        paths = {name: str(tmp / f"{name}.rstore") for name in names}
        sizes = sorted(len(blob) for blob in blobs)
        max_mem = sum(sizes[-2:])
        rng = random.Random(f"serve-{seed}")
        warmup = mix.draw(rng, params.warmup_requests, "W")
        open_s = seconds * OPEN_LOOP_SHARE
        offsets: list[float] = []
        clock = rng.expovariate(OPEN_LOOP_RATE)
        while clock < open_s:
            offsets.append(clock)
            clock += rng.expovariate(OPEN_LOOP_RATE)
        phase_a = mix.draw(rng, len(offsets), "A")

        setup_s: list[float] = []
        dumps: list[dict[str, Any]] = []
        daemon: Optional[Daemon] = None
        try:
            for attempt in range(params.setups):
                if daemon is not None:
                    dumps.append(daemon.stop() or {})
                trace_out = tmp / f"daemon-{attempt}.json" if tracer else None
                warm = [_Exchange(e.request_id, e.path, e.body) for e in warmup]
                with phases.span("bench.setup"):
                    start = perf_counter()
                    for name, text in zip(names, texts):
                        Path(paths[name]).write_bytes(compile_dataset_text(text))
                    daemon = Daemon(paths, max_mem, trace_out)
                    conns = [
                        _Connection(daemon.host, daemon.port)
                        for _ in range(CONNECTIONS)
                    ]
                    for index, exchange in enumerate(warm):
                        conns[index % len(conns)].send(exchange)
                    for conn in conns:
                        conn.close()
                    setup_s.append(perf_counter() - start)
                result.check(
                    all(e.status == 200 for e in warm),
                    "serve: a warm-up request was refused",
                )
            assert daemon is not None
            warm_stats = _get_json(daemon.host, daemon.port, "/statz")["registry"]
            with phases.span("bench.open_loop"):
                latency, wait, late, unsent = _open_loop(
                    daemon.host, daemon.port, phase_a, offsets, open_s
                )
            with phases.span("bench.closed_loop"):
                phase_b, phase_b_s = _closed_loop(
                    daemon.host, daemon.port, mix, f"serve-b-{seed}",
                    seconds - open_s,
                )
            final_stats = _get_json(daemon.host, daemon.port, "/statz")["registry"]
            rss_mb = daemon.peak_rss_mb()
        finally:
            if daemon is not None:
                dumps.append(daemon.stop() or {})
        if tracer is not None:
            for dump in dumps:
                if dump:
                    tracer.merge(dump)

        sent_a = [e for e, lat in zip(phase_a, latency) if lat == lat]
        ok_a = [lat for e, lat in zip(phase_a, latency) if lat == lat and e.status == 200]
        ok_b = [e for e in phase_b if e.status == 200]
        result.attempted = len(phase_a) + len(phase_b)
        result.failed = len(phase_a) - len(ok_a) + len(phase_b) - len(ok_b)
        result.check(bool(ok_a) and bool(ok_b), "serve: no request succeeded")
        with phases.off_trace():
            engines = {
                name: QueryEngine(StoreReader.load(path))
                for name, path in paths.items()
            }
            oracle = ServeService(StoreRegistry(paths))
            for exchange in sent_a[::SERVE_CHECK_EVERY] + phase_b[::SERVE_CHECK_EVERY]:
                result.check(
                    exchange.response == _expected_body(exchange, engines, oracle),
                    f"serve: response to {exchange.request_id} differs from "
                    f"the in-process answer",
                )
    result.outputs = {
        "dataset_sha256": [_sha256(text) for text in texts],
        "store_sha256": [_sha256(blob) for blob in blobs],
        "warmup_registry_opens_evictions": [
            warm_stats["opens"], warm_stats["evictions"]
        ],
    }
    latency_b = [e.done_at - e.sent_at for e in ok_b]
    result.set_metrics(
        setup_s, len(ok_b) / phase_b_s, median(latency_b), latency_b, rss_mb
    )
    waits = [w for w in wait if w == w]
    result.info.update({
        "open_loop_requests": len(phase_a),
        "open_loop_unsent": unsent,
        "open_loop_p50_ms": percentile(ok_a, 50.0) * 1e3,
        "open_loop_p90_ms": percentile(ok_a, 90.0) * 1e3,
        "registry_opens": final_stats["opens"],
        "registry_evictions": final_stats["evictions"],
    })
    layers = result.layers
    layers["serve.open_loop.p50_ms"] = (percentile(ok_a, 50.0) * 1e3, "ms")
    layers["serve.open_loop.p90_ms"] = (percentile(ok_a, 90.0) * 1e3, "ms")
    layers["serve.wait.p50_ms"] = (percentile(waits, 50.0) * 1e3, "ms")
    layers["serve.generator_late_ms"] = (max(late) * 1e3, "ms")
    layers["serve.registry.opens"] = (float(final_stats["opens"]), "count")
    layers["serve.registry.evictions"] = (float(final_stats["evictions"]), "count")
    hits = misses = 0
    for store in final_stats["per_store"].values():
        if store["cache"] is not None:
            hits += store["cache"]["hits"]
            misses += store["cache"]["misses"]
    layers["serve.lru_hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    layers["store.bytes"] = (float(sum(sizes)), "count")
    if tracer is not None:
        handler = tracer.request_durations("serve.handler")
        transport = [
            (e.done_at - e.sent_at) - handler[e.request_id]
            for e in sent_a + ok_b
            if e.request_id in handler
        ]
        if transport:
            layers["serve.transport.p50_ms"] = (percentile(transport, 50.0) * 1e3, "ms")
    return result


WORKLOADS: dict[str, Callable[..., Result]] = {
    "campaign": campaign,
    "timeline": timeline,
    "query": query,
    "serve": serve,
}

#: Every workload measures sites (query and serve in their input
#: process), analyzes and compiles stores.
_PIPELINE_LAYERS = frozenset({
    "worldgen.materialize",
    "measurement.measure_site", "measurement.dns", "measurement.tls",
    "measurement.cdn", "measurement.interservice",
    "websim.crawl", "websim.get",
    "dnssim.lookup", "dnssim.zone_for", "dnssim.codec", "dnssim.send",
    "dnssim.cache", "tlssim.validate",
    "core.analyze_dataset", "core.classify_website", "core.build_graph",
    "core.provider_metrics",
    "measurement.io.dataset_to_json", "measurement.io.dataset_from_json",
    "store.compile", "store.compile_snapshot",
})
_TIMELINE_LAYERS = frozenset({
    "worldgen.timeline_spec", "worldgen.timeline_world", "engine.run_timeline",
})
_QUERY_LAYERS = frozenset({
    "store.load", "query.top", "query.site", "query.dependents", "query.whatif",
})

#: The wrappers each traced workload must see called at least once.
EXPECTED_LAYERS: dict[str, frozenset[str]] = {
    "campaign": _PIPELINE_LAYERS | {
        "worldgen.build_world", "engine.run_campaign", "cascade.run",
    },
    "timeline": _PIPELINE_LAYERS | _TIMELINE_LAYERS | {"core.refresh_snapshot"},
    "query": _PIPELINE_LAYERS | _TIMELINE_LAYERS | _QUERY_LAYERS,
    # Serve traffic asks no dependents queries.
    "serve": _PIPELINE_LAYERS | _TIMELINE_LAYERS | _QUERY_LAYERS - {
        "query.dependents",
    } | {
        "serve.handler", "serve.answer", "serve.answer_diff",
        "serve.registry_acquire", "serve.render",
    },
}
