#!/usr/bin/env python
"""Regenerate / verify the repo-root benchmark artifacts.

Two versioned JSON artifacts live at the repository root and are kept
under version control:

* ``BENCH_graph.json``  — world build + analysis + metric-sweep timings
  and the structural invariants of the benchmark world (node and edge
  counts, top-provider impact).
* ``BENCH_cascade.json`` — cascade-engine throughput (ticks/sec) on a
  >= 5k-site world under a recovering multi-shock churn scenario, plus
  the deterministic shape of that trajectory (ticks run, peak failures,
  config digest).
* ``BENCH_lint.json``    — invariant-linter throughput over ``src/repro``
  (cold files/sec), plus the gate that matters: the tree lints clean and
  a warm incremental cache re-parses zero files.
* ``BENCH_query.json``   — store/query serving numbers on the same 5k
  world: compiled store size + source digest (deterministic), warm
  mixed-query throughput, and the load+first-query speedup over the
  fresh JSON -> ``analyze_dataset`` path it replaces. Unlike the other
  artifacts this one also carries *absolute* floors: ``--check`` fails
  below 1000 queries/sec warm or a 10x cold-serve speedup.
* ``BENCH_serve.json``   — the serve daemon on two copies of that store
  held open under the registry's memory cap: aggregate single-query
  HTTP throughput from 4 client threads, and the batch endpoint's
  amortized speedup over per-request round-trips. Absolute floors:
  ``--check`` fails below 500 req/s or a 3x batch speedup.
* ``BENCH_epoch.json``   — the longitudinal remeasurement scheduler on a
  20-epoch timeline at 10% per-epoch churn: every epoch's incremental
  dataset (changed sites remeasured, the rest spliced from the prior
  epoch) is asserted byte-identical to a full from-scratch campaign,
  and the incremental campaign+analysis wall-clock must beat the full
  one by an absolute floor of 5x.

Modes::

    python scripts/run_benchmarks.py            # run + print (no writes)
    python scripts/run_benchmarks.py --update   # run + rewrite artifacts
    python scripts/run_benchmarks.py --check    # run + compare (CI gate)

``--check`` fails (exit 1) when an artifact is missing, carries the
wrong schema, any *deterministic* field differs (counts, digests,
trajectory shape — those are machine-independent), or throughput has
regressed below ``MIN_THROUGHPUT_RATIO`` of the recorded value. The
ratio is deliberately generous: CI machines are noisy; a 5x slowdown is
a regression, a 1.3x wobble is weather.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import WorldConfig, analyze_world, build_world  # noqa: E402
from repro.cascade import CascadeEngine, dns_outage_config  # noqa: E402
from repro.cascade.config import CascadeConfig, Shock  # noqa: E402
from repro.cascade.scenarios import dns_provider_bases  # noqa: E402
from repro.core import ServiceType, analyze_dataset  # noqa: E402
from repro.measurement.io import dataset_from_json, dataset_to_json  # noqa: E402
from repro.query import QueryEngine  # noqa: E402
from repro.store import StoreReader, compile_dataset_text  # noqa: E402
from repro.worldgen.config import PAPER_POPULATION  # noqa: E402

GRAPH_SCHEMA = "repro-bench-graph/1"
CASCADE_SCHEMA = "repro-bench-cascade/1"
LINT_SCHEMA = "repro-bench-lint/1"
QUERY_SCHEMA = "repro-bench-query/1"
SERVE_SCHEMA = "repro-bench-serve/1"
EPOCH_SCHEMA = "repro-bench-epoch/1"
GRAPH_ARTIFACT = REPO_ROOT / "BENCH_graph.json"
CASCADE_ARTIFACT = REPO_ROOT / "BENCH_cascade.json"
LINT_ARTIFACT = REPO_ROOT / "BENCH_lint.json"
QUERY_ARTIFACT = REPO_ROOT / "BENCH_query.json"
SERVE_ARTIFACT = REPO_ROOT / "BENCH_serve.json"
EPOCH_ARTIFACT = REPO_ROOT / "BENCH_epoch.json"

#: Throughput below this fraction of the recorded value fails --check.
MIN_THROUGHPUT_RATIO = 0.2

#: Absolute serving floors (machine-independent promises, not ratios):
#: the store is pointless if warm queries dip below 1000/sec or loading
#: it is not at least 10x faster than re-running the analyze path.
QUERY_MIN_QPS = 1000.0
QUERY_MIN_SPEEDUP = 10.0

#: Daemon floors: a long-lived server that cannot clear 500 single
#: requests/sec has lost to process startup, and a batch endpoint that
#: does not amortize at least 3x over per-request round-trips is not
#: paying for its envelope.
SERVE_MIN_RPS = 500.0
SERVE_MIN_BATCH_SPEEDUP = 3.0

#: Longitudinal floor: remeasuring only each epoch's changed sites (and
#: refreshing the analysis in place) must beat the full re-campaign +
#: re-analysis by at least this factor, or the incremental scheduler has
#: stopped earning its complexity. The ratio compares wall-clock summed
#: over epochs 1..N-1 measured in the same process, so machine speed
#: cancels out.
EPOCH_MIN_SPEEDUP = 5.0

BENCH_N = 5000
BENCH_SEED = 42

EPOCH_N = 2000
EPOCH_COUNT = 20
EPOCH_CHURN = 0.10

#: Fields that must match exactly between a fresh run and the artifact:
#: they are functions of (n, seed, code), never of the machine.
DETERMINISTIC_FIELDS = {
    GRAPH_ARTIFACT.name: (
        "schema", "n", "seed", "websites", "providers",
        "website_edges", "provider_edges", "top_dns_impact",
    ),
    CASCADE_ARTIFACT.name: (
        "schema", "n", "seed", "config_digest", "ticks_run",
        "quiesced_at", "peak_failed_sites", "endpoint_failed_sites",
        "transitions",
    ),
    # Deliberately minimal: file counts grow with the codebase, so only
    # the invariants are pinned — the tree lints clean and a warm cache
    # answers every file without re-parsing.
    LINT_ARTIFACT.name: ("schema", "findings", "warm_reparsed"),
    QUERY_ARTIFACT.name: (
        "schema", "n", "seed", "websites", "providers",
        "store_bytes", "source_sha256",
    ),
    SERVE_ARTIFACT.name: (
        "schema", "n", "seed", "stores", "open_stores", "websites",
        "providers", "store_bytes",
    ),
    EPOCH_ARTIFACT.name: (
        "schema", "n", "seed", "epochs", "churn", "sites_measured",
        "byte_identical",
    ),
}


def _churn_config(world) -> CascadeConfig:
    """A sustained multi-shock scenario: the three highest-impact DNS
    providers go down in staggered 12-tick waves while recovery is on,
    so the engine keeps propagating and healing for the whole run —
    ticks/sec measured on busy ticks, not a quiescent no-op loop."""
    shocks = []
    providers = ("dyn", "aws-dns", "cloudflare")
    for wave, key in enumerate(providers):
        for base in dns_provider_bases(world, key):
            shocks.append(
                Shock(
                    service="dns",
                    provider=base,
                    tick=wave * 12,
                    duration=10,
                    name=f"churn:{key}:{base}",
                )
            )
    return CascadeConfig(
        shocks=tuple(shocks),
        cooldown=2,
        heal_to=1.0,
        ticks=96,
    )


def run_graph_bench() -> tuple:
    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    world = build_world(WorldConfig(n_websites=BENCH_N, seed=BENCH_SEED))
    build_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    snapshot = analyze_world(world)
    analyze_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    metrics = snapshot.provider_metrics()
    sweep_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

    graph = snapshot.graph
    website_edges = sum(
        len(graph.website_dependencies(domain))
        for domain in sorted(graph.websites())
    )
    provider_edges = sum(
        len(graph.provider_dependencies(node))
        for node in graph.providers()
    )
    top_dns_impact = max(
        (m.impact for node, m in metrics.items() if str(node).startswith("dns:")),
        default=0,
    )
    artifact = {
        "schema": GRAPH_SCHEMA,
        "n": BENCH_N,
        "seed": BENCH_SEED,
        "websites": len(snapshot.websites),
        "providers": len(graph.providers()),
        "website_edges": website_edges,
        "provider_edges": provider_edges,
        "top_dns_impact": top_dns_impact,
        "build_s": round(build_s, 3),
        "analyze_s": round(analyze_s, 3),
        "metrics_sweep_s": round(sweep_s, 4),
    }
    return artifact, world, snapshot


def run_cascade_bench(world, snapshot) -> dict:
    config = _churn_config(world)
    engine = CascadeEngine(snapshot, config)
    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    trajectory = engine.run()
    elapsed = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    peak_failed = max(
        len(trajectory.failed_sites(tick))
        for tick in range(trajectory.ticks_run)
    )
    return {
        "schema": CASCADE_SCHEMA,
        "n": BENCH_N,
        "seed": BENCH_SEED,
        "config_digest": config.digest(),
        "ticks_run": trajectory.ticks_run,
        "quiesced_at": trajectory.quiesced_at,
        "peak_failed_sites": peak_failed,
        "endpoint_failed_sites": len(trajectory.failed_sites()),
        "transitions": len(trajectory.transitions),
        "run_s": round(elapsed, 4),
        "ticks_per_sec": round(trajectory.ticks_run / elapsed, 1),
    }


def run_lint_bench() -> dict:
    import tempfile

    from repro.staticcheck import DEFAULT_CONFIG, lint_paths

    src = REPO_ROOT / "src" / "repro"
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "lint-cache.json"
        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        cold = lint_paths([src], DEFAULT_CONFIG, cache_path=cache)
        cold_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        warm = lint_paths([src], DEFAULT_CONFIG, cache_path=cache)
        warm_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    return {
        "schema": LINT_SCHEMA,
        "findings": len(cold.findings),
        "warm_reparsed": warm.reparsed_files,
        "files": cold.files_checked,
        "suppressed": len(cold.suppressions),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 4),
        "files_per_sec": round(cold.files_checked / cold_s, 1),
    }


def run_query_bench(snapshot) -> dict:
    """Compile the bench snapshot's dataset, then measure serving."""
    import hashlib
    import tempfile

    text = dataset_to_json(snapshot.dataset)
    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
    blob = compile_dataset_text(text)
    compile_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "bench.rstore"
        store_path.write_bytes(blob)

        # Cold serve: mmap the store and answer the first ranking query.
        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        engine = QueryEngine(StoreReader.load(str(store_path)))
        first = engine.top(5, "impact", "dns")
        serve_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

        # The path the store replaces: parse JSON, analyze, rank.
        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        dataset = dataset_from_json(text)
        world_n = dataset.notes.get("world_n") or len(dataset.websites)
        slow = analyze_dataset(
            dataset,
            rank_scale=PAPER_POPULATION / world_n if world_n else 1.0,
        )
        ranked = slow.graph.top_providers(ServiceType.DNS, k=5, by="impact")
        analyze_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        if [r["provider"] for r in first["results"]] != [
            str(node) for node, _ in ranked
        ]:
            raise AssertionError(
                "store ranking diverged from the analyze path — run "
                "tests/test_query_differential.py"
            )

        # Warm throughput: the steady-state mixed operator workload.
        reader = engine.reader
        site_step = max(1, reader.n_sites // 25)
        provider_step = max(1, reader.n_providers // 25)
        queries = 0
        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        for _ in range(5):
            for mode in ("impact", "concentration"):
                for service in ("dns", "cdn", "ca"):
                    engine.top(10, mode, service)
                    queries += 1
            for i in range(0, reader.n_sites, site_step):
                engine.site(reader.site_domain(i))
                queries += 1
            for i in range(0, reader.n_providers, provider_step):
                engine.whatif(reader.provider_key(i))
                queries += 1
        warm_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

    return {
        "schema": QUERY_SCHEMA,
        "n": BENCH_N,
        "seed": BENCH_SEED,
        "websites": reader.n_sites,
        "providers": reader.n_providers,
        "store_bytes": len(blob),
        "source_sha256": reader.header["source_sha256"],
        "compile_s": round(compile_s, 3),
        "serve_s": round(serve_s, 5),
        "analyze_s": round(analyze_s, 3),
        "speedup_x": round(analyze_s / serve_s, 1) if serve_s else 0.0,
        "warm_queries": queries,
        "warm_s": round(warm_s, 4),
        "queries_per_sec": round(queries / warm_s, 0) if warm_s else 0.0,
    }


def _serve_forever(daemon) -> None:
    """Module-level serve loop entry (worker callables must not be
    bound attributes — REP009)."""
    daemon.serve_forever()


def _serve_hammer_worker(host, port, mix, results, index) -> None:
    """One client thread's share of the single-query hammer."""
    from repro.serve.client import send_query

    ok = 0
    for store, query in mix:
        status, _ = send_query(host, port, dict(query), store=store)
        if status == 200:
            ok += 1
    results[index] = ok


def run_serve_bench(snapshot) -> dict:
    """Two copies of the bench store behind one daemon, hammered.

    Floors are absolute: >= ``SERVE_MIN_RPS`` aggregate single-query
    throughput from 4 client threads, and a batch round answering the
    same mix at >= ``SERVE_MIN_BATCH_SPEEDUP`` the per-request pace.
    """
    import tempfile
    import threading

    from repro.serve.client import send_batch, send_query
    from repro.serve.http import ReproServeDaemon
    from repro.serve.registry import StoreRegistry
    from repro.serve.service import ServeService

    blob = compile_dataset_text(dataset_to_json(snapshot.dataset))
    reader = StoreReader.from_bytes(blob)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("epoch-a", "epoch-b"):
            path = Path(tmp) / f"{name}.rstore"
            path.write_bytes(blob)
            paths[name] = str(path)
        # The cap admits both stores — the acceptance shape: a
        # multi-store registry holding >= 2 stores under its memory cap.
        max_mem = 2 * len(blob)
        registry = StoreRegistry(paths, max_mem_bytes=max_mem)
        service = ServeService(registry)
        daemon = ReproServeDaemon(service)
        thread = threading.Thread(target=_serve_forever, args=(daemon,))
        thread.start()
        host, port = daemon.address
        try:
            stores = sorted(paths)
            site_step = max(1, reader.n_sites // 20)
            sites = [
                reader.site_domain(i)
                for i in range(0, reader.n_sites, site_step)
            ]
            modes = ("impact", "concentration")
            services = ("dns", "cdn", "ca")
            mix = []
            for i in range(75):
                store = stores[i % 2]
                if i % 3 == 0:
                    mix.append((store, {
                        "kind": "top", "k": 10,
                        "mode": modes[(i // 3) % 2],
                        "service": services[(i // 3) % 3],
                    }))
                else:
                    mix.append((store, {
                        "kind": "site", "site": sites[i % len(sites)],
                    }))
            # Warm both stores (and their payload LRUs) off the clock.
            for store, query in mix:
                status, _ = send_query(host, port, dict(query), store=store)
                if status != 200:
                    raise AssertionError(f"warmup refused: {query}")

            workers = 4
            results = [0] * workers
            threads = [
                threading.Thread(
                    target=_serve_hammer_worker,
                    args=(host, port, mix, results, index),
                )
                for index in range(workers)
            ]
            start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            hammer_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
            requests = workers * len(mix)
            if sum(results) != requests:
                raise AssertionError(
                    f"hammer saw non-200s: {results} of {len(mix)} each"
                )

            # Amortization: the same mix as N round-trips vs one batch.
            items = [
                {"store": store, "query": dict(query)}
                for store, query in mix
            ]
            rounds = 5
            start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
            for _ in range(rounds):
                for item in items:
                    send_query(
                        host, port, dict(item["query"]),
                        store=item["store"],
                    )
            singles_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
            start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
            for _ in range(rounds):
                status, _ = send_batch(
                    host, port, [dict(item) for item in items]
                )
                if status != 200:
                    raise AssertionError("batch request refused")
            batch_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

            stats = registry.stats()
        finally:
            daemon.request_drain()
            thread.join(10)
            daemon.server_close()

    return {
        "schema": SERVE_SCHEMA,
        "n": BENCH_N,
        "seed": BENCH_SEED,
        "stores": stats["stores"],
        "open_stores": stats["open"],
        "websites": reader.n_sites,
        "providers": reader.n_providers,
        "store_bytes": len(blob),
        "max_mem_bytes": max_mem,
        "mapped_bytes": stats["mapped_bytes"],
        "hammer_threads": workers,
        "hammer_requests": requests,
        "hammer_s": round(hammer_s, 4),
        "requests_per_sec": round(requests / hammer_s, 0) if hammer_s else 0.0,
        "batch_rounds": rounds,
        "batch_items": len(items),
        "singles_s": round(singles_s, 4),
        "batch_s": round(batch_s, 4),
        "batch_speedup_x": round(singles_s / batch_s, 1) if batch_s else 0.0,
    }


def run_epoch_bench() -> dict:
    """Incremental vs full remeasurement over a churning timeline.

    Both sides replay the same N-epoch world (one fresh ``World`` each —
    a live world is stateful, so they cannot share an instance). Per
    epoch the full side re-measures every site and re-analyzes from
    scratch; the incremental side measures only the epoch's changed-site
    set, splices the rest from its previous dataset, and refreshes the
    previous snapshot in place. Every epoch asserts the two datasets
    byte-identical and the two metric sweeps equal — the differential
    contract — before the timings count. World materialization happens
    off the clock on both sides: it is identical bookkeeping, not
    campaign work.
    """
    from repro.core import refresh_snapshot
    from repro.core.pipeline import dns_display_directory
    from repro.measurement.records import Dataset
    from repro.measurement.runner import MeasurementCampaign, ranked_sites
    from repro.worldgen.timeline import Timeline, TimelineConfig

    config = TimelineConfig(
        n_websites=EPOCH_N, seed=BENCH_SEED,
        epochs=EPOCH_COUNT, churn_rate=EPOCH_CHURN,
    )
    timeline = Timeline(config)
    timeline.spec(EPOCH_COUNT - 1)  # grow every epoch's ground truth

    full_s = inc_s = 0.0
    prev_dataset = None
    snapshot = None
    measured: list[int] = []
    identical = True
    for epoch in range(EPOCH_COUNT):
        changes = timeline.changes(epoch)
        world_full = timeline.world(epoch).build()
        world_inc = timeline.world(epoch).build()
        display = dns_display_directory(world_full)

        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        campaign = MeasurementCampaign(world_full)
        sites = ranked_sites(world_full)
        dataset_full = Dataset(year=world_full.year)
        dataset_full.websites.extend(
            campaign.measure_site(domain, rank) for domain, rank in sites
        )
        campaign.run_interservice(dataset_full)
        scratch = analyze_dataset(
            dataset_full,
            rank_scale=world_full.config.rank_scale,
            dns_display_names=display,
        )
        full_metrics = scratch.provider_metrics()
        epoch_full_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

        start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields
        campaign = MeasurementCampaign(world_inc)
        sites = ranked_sites(world_inc)
        prev_by = prev_dataset.by_domain() if prev_dataset else {}
        if prev_dataset is None:
            to_measure = list(sites)
        else:
            changed = set(changes.changed)
            to_measure = [
                (domain, rank) for domain, rank in sites
                if domain in changed or domain not in prev_by
            ]
        fresh = {
            domain: campaign.measure_site(domain, rank)
            for domain, rank in to_measure
        }
        dataset_inc = Dataset(year=world_inc.year)
        dataset_inc.websites.extend(
            fresh.get(domain) or prev_by[domain] for domain, _ in sites
        )
        campaign.run_interservice(dataset_inc)
        if snapshot is None:
            snapshot = analyze_dataset(
                dataset_inc,
                rank_scale=world_inc.config.rank_scale,
                dns_display_names=display,
            )
        else:
            snapshot = refresh_snapshot(
                snapshot, dataset_inc,
                changed=changes.changed, dns_display_names=display,
            )
        inc_metrics = snapshot.provider_metrics()
        epoch_inc_s = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; timings are non-deterministic fields

        if dataset_to_json(dataset_full) != dataset_to_json(dataset_inc):
            identical = False
            raise AssertionError(
                f"epoch {epoch}: incremental dataset diverged from the "
                f"full campaign — run tests/test_engine_epochs.py"
            )
        if full_metrics != inc_metrics:
            raise AssertionError(
                f"epoch {epoch}: refreshed metrics diverged from the "
                f"from-scratch sweep — run tests/test_graph_incremental.py"
            )
        measured.append(len(to_measure))
        prev_dataset = dataset_inc
        if epoch > 0:  # epoch 0 is a full campaign on both sides
            full_s += epoch_full_s
            inc_s += epoch_inc_s

    return {
        "schema": EPOCH_SCHEMA,
        "n": EPOCH_N,
        "seed": BENCH_SEED,
        "epochs": EPOCH_COUNT,
        "churn": EPOCH_CHURN,
        "sites_measured": measured,
        "byte_identical": identical,
        "full_s": round(full_s, 2),
        "incremental_s": round(inc_s, 2),
        "speedup_x": round(full_s / inc_s, 2) if inc_s else 0.0,
    }


def _write(path: Path, artifact: dict) -> None:
    path.write_text(
        json.dumps(artifact, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _check(path: Path, fresh: dict) -> list[str]:
    problems: list[str] = []
    if not path.exists():
        return [f"{path.name}: missing — run scripts/run_benchmarks.py --update"]
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    for key in DETERMINISTIC_FIELDS[path.name]:
        if recorded.get(key) != fresh.get(key):
            problems.append(
                f"{path.name}: {key} changed "
                f"{recorded.get(key)!r} -> {fresh.get(key)!r} "
                f"(deterministic field; update the artifact if intended)"
            )
    for rate_key in (
        "ticks_per_sec", "files_per_sec", "queries_per_sec",
        "requests_per_sec",
    ):
        if rate_key not in fresh:
            continue
        recorded_rate = recorded.get(rate_key) or 0.0
        floor = recorded_rate * MIN_THROUGHPUT_RATIO
        if fresh[rate_key] < floor:
            problems.append(
                f"{path.name}: throughput regressed — "
                f"{fresh[rate_key]} {rate_key} vs recorded "
                f"{recorded_rate} (floor {floor:.1f})"
            )
    if path.name == QUERY_ARTIFACT.name:
        if fresh["queries_per_sec"] < QUERY_MIN_QPS:
            problems.append(
                f"{path.name}: warm serving below the absolute floor — "
                f"{fresh['queries_per_sec']} queries/sec < {QUERY_MIN_QPS}"
            )
        if fresh["speedup_x"] < QUERY_MIN_SPEEDUP:
            problems.append(
                f"{path.name}: cold serve only {fresh['speedup_x']}x "
                f"faster than fresh analyze (floor {QUERY_MIN_SPEEDUP}x)"
            )
    if path.name == SERVE_ARTIFACT.name:
        if fresh["requests_per_sec"] < SERVE_MIN_RPS:
            problems.append(
                f"{path.name}: daemon below the absolute floor — "
                f"{fresh['requests_per_sec']} requests/sec < {SERVE_MIN_RPS}"
            )
        if fresh["batch_speedup_x"] < SERVE_MIN_BATCH_SPEEDUP:
            problems.append(
                f"{path.name}: batch endpoint only "
                f"{fresh['batch_speedup_x']}x faster than per-request "
                f"round-trips (floor {SERVE_MIN_BATCH_SPEEDUP}x)"
            )
        if fresh["open_stores"] < 2:
            problems.append(
                f"{path.name}: registry held only "
                f"{fresh['open_stores']} store(s) open under the memory "
                f"cap — the multi-store shape regressed"
            )
    if path.name == EPOCH_ARTIFACT.name:
        if fresh["speedup_x"] < EPOCH_MIN_SPEEDUP:
            problems.append(
                f"{path.name}: incremental remeasurement only "
                f"{fresh['speedup_x']}x faster than the full re-campaign "
                f"(floor {EPOCH_MIN_SPEEDUP}x)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help="rewrite the repo-root BENCH_*.json artifacts",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="fail if artifacts are missing, stale, or regressed (CI gate)",
    )
    args = parser.parse_args(argv)

    print(f"[bench] world n={BENCH_N} seed={BENCH_SEED}", file=sys.stderr)
    graph_artifact, world, snapshot = run_graph_bench()
    print(
        f"[bench] graph: build {graph_artifact['build_s']}s, "
        f"analyze {graph_artifact['analyze_s']}s, "
        f"sweep {graph_artifact['metrics_sweep_s']}s",
        file=sys.stderr,
    )
    cascade_artifact = run_cascade_bench(world, snapshot)
    print(
        f"[bench] cascade: {cascade_artifact['ticks_run']} tick(s) in "
        f"{cascade_artifact['run_s']}s = "
        f"{cascade_artifact['ticks_per_sec']} ticks/sec",
        file=sys.stderr,
    )
    lint_artifact = run_lint_bench()
    print(
        f"[bench] lint: {lint_artifact['files']} file(s) in "
        f"{lint_artifact['cold_s']}s cold "
        f"({lint_artifact['files_per_sec']} files/sec), "
        f"warm re-parsed {lint_artifact['warm_reparsed']}",
        file=sys.stderr,
    )
    query_artifact = run_query_bench(snapshot)
    print(
        f"[bench] query: {query_artifact['store_bytes']} store byte(s), "
        f"serve {query_artifact['serve_s']}s vs analyze "
        f"{query_artifact['analyze_s']}s "
        f"({query_artifact['speedup_x']}x), warm "
        f"{query_artifact['queries_per_sec']} queries/sec",
        file=sys.stderr,
    )

    serve_artifact = run_serve_bench(snapshot)
    print(
        f"[bench] serve: {serve_artifact['open_stores']} store(s) open, "
        f"{serve_artifact['requests_per_sec']} requests/sec from "
        f"{serve_artifact['hammer_threads']} thread(s), batch "
        f"{serve_artifact['batch_speedup_x']}x over singles",
        file=sys.stderr,
    )

    epoch_artifact = run_epoch_bench()
    print(
        f"[bench] epoch: {epoch_artifact['epochs']} epoch(s) at "
        f"{epoch_artifact['churn']:.0%} churn, incremental "
        f"{epoch_artifact['incremental_s']}s vs full "
        f"{epoch_artifact['full_s']}s "
        f"({epoch_artifact['speedup_x']}x, byte-identical)",
        file=sys.stderr,
    )

    if args.update:
        _write(GRAPH_ARTIFACT, graph_artifact)
        _write(CASCADE_ARTIFACT, cascade_artifact)
        _write(LINT_ARTIFACT, lint_artifact)
        _write(QUERY_ARTIFACT, query_artifact)
        _write(SERVE_ARTIFACT, serve_artifact)
        _write(EPOCH_ARTIFACT, epoch_artifact)
        print(
            f"[bench] wrote {GRAPH_ARTIFACT.name}, {CASCADE_ARTIFACT.name}, "
            f"{LINT_ARTIFACT.name}, {QUERY_ARTIFACT.name}, "
            f"{SERVE_ARTIFACT.name} and {EPOCH_ARTIFACT.name}",
            file=sys.stderr,
        )
        return 0
    if args.check:
        problems = _check(GRAPH_ARTIFACT, graph_artifact)
        problems += _check(CASCADE_ARTIFACT, cascade_artifact)
        problems += _check(LINT_ARTIFACT, lint_artifact)
        problems += _check(QUERY_ARTIFACT, query_artifact)
        problems += _check(SERVE_ARTIFACT, serve_artifact)
        problems += _check(EPOCH_ARTIFACT, epoch_artifact)
        for problem in problems:
            print(f"[bench] FAIL {problem}", file=sys.stderr)
        if problems:
            return 1
        print("[bench] artifacts OK", file=sys.stderr)
        return 0
    print(json.dumps(
        {"graph": graph_artifact, "cascade": cascade_artifact,
         "lint": lint_artifact, "query": query_artifact,
         "serve": serve_artifact, "epoch": epoch_artifact},
        indent=1, sort_keys=True,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
