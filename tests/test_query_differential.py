"""The differential harness: fast-path queries == batch-pipeline truth.

The query engine answers from a compiled binary store and must never
drift from the paper's semantics. Every test here derives the *slow*
answer independently — ``analyze_dataset`` on the frozen JSON, then
``top_providers`` / ``website_exposure`` / ``dependent_websites`` /
``provider_metrics`` — builds the payload the engine contract promises,
and asserts the fast answer is **byte-identical** after canonical JSON
rendering. A fixed world is checked exhaustively (every site, every
provider, every ranking mode); hypothesis varies the world; and the
worker-count test proves stores compiled from 1/2/N-worker campaign
checkpoints are the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_world
from repro.core import ServiceType, analyze_dataset
from repro.core.graph import ProviderNode
from repro.engine import run_campaign
from repro.failures import predicted_dns_victims, website_exposure
from repro.measurement.io import dataset_from_json, dataset_to_json
from repro.query import QueryEngine, QueryError, payload_to_json
from repro.store import StoreReader, compile_dataset_text
from repro.worldgen.config import PAPER_POPULATION

DIFF_N = 120
DIFF_SEED = 17
WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "2"))

MODES = ("impact", "concentration", "direct_impact", "direct_concentration")


# -- the slow path: everything derived from AnalyzedSnapshot ----------------


def slow_snapshot(text: str):
    """The batch pipeline exactly as ``repro analyze`` runs it."""
    dataset = dataset_from_json(text)
    world_n = dataset.notes.get("world_n") or len(dataset.websites)
    rank_scale = PAPER_POPULATION / world_n if world_n else 1.0
    return analyze_dataset(dataset, rank_scale=rank_scale)


def slow_store_block(text: str, snapshot) -> dict:
    return {
        "schema": "repro-store/1",
        "source_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "year": snapshot.year,
        "websites": len(snapshot.websites),
    }


def _metrics_dict(m) -> dict:
    return {
        "concentration": m.concentration,
        "impact": m.impact,
        "direct_concentration": m.direct_concentration,
        "direct_impact": m.direct_impact,
    }


def slow_top(snapshot, block: dict, k: int, mode: str, service: str) -> dict:
    by = mode.removeprefix("direct_")
    ranked = snapshot.graph.top_providers(
        ServiceType(service), k=k, by=by, indirect=not mode.startswith("direct_")
    )
    metrics = snapshot.provider_metrics()
    return {
        "query": {"kind": "top", "k": k, "mode": mode, "service": service},
        "results": [
            {
                "provider": str(node),
                "display": snapshot.graph.display(node),
                "score": score,
                "metrics": _metrics_dict(metrics[node]),
            }
            for node, score in ranked
        ],
        "store": block,
    }


def slow_site(snapshot, block: dict, domain: str) -> dict:
    graph = snapshot.graph
    critical = graph.website_dependencies(domain, critical_only=True)
    dependencies = [
        {
            "provider": str(node),
            "display": graph.display(node),
            "service": node.service.value,
            "critical": node in critical,
        }
        for node in sorted(graph.website_dependencies(domain), key=str)
    ]
    report = website_exposure(snapshot, domain)
    return {
        "query": {"kind": "site", "site": domain},
        "site": {
            "domain": domain,
            "rank": snapshot.by_domain()[domain].rank,
            "dependencies": dependencies,
            "critical_dependency_count": report.critical_dependency_count,
            "direct_critical": report.direct_critical,
            "transitive_critical": report.transitive_critical,
        },
        "store": block,
    }


def _provider_block(snapshot, node: ProviderNode) -> dict:
    return {
        "provider": str(node),
        "display": snapshot.graph.display(node),
        "service": node.service.value,
    }


def slow_dependents(snapshot, block: dict, node: ProviderNode) -> dict:
    graph = snapshot.graph
    direct_critical = graph.direct_dependents(node, critical_only=True)
    consumer_critical = set(graph.provider_consumers(node, critical_only=True))
    metrics = snapshot.provider_metrics()[node]
    return {
        "query": {"kind": "dependents", "provider": str(node)},
        "provider": _provider_block(snapshot, node),
        "direct": [
            {"domain": domain, "critical": domain in direct_critical}
            for domain in sorted(graph.direct_dependents(node))
        ],
        "consumers": [
            {
                "provider": str(consumer),
                "display": graph.display(consumer),
                "critical": consumer in consumer_critical,
            }
            for consumer in graph.provider_consumers(node)
        ],
        "transitive": {
            "concentration": metrics.concentration,
            "impact": metrics.impact,
        },
        "store": block,
    }


def slow_whatif(snapshot, block: dict, node: ProviderNode) -> dict:
    graph = snapshot.graph
    down = graph.dependent_websites(node, critical_only=True)
    at_risk = graph.dependent_websites(node) - down
    return {
        "query": {"kind": "whatif", "provider": str(node)},
        "provider": _provider_block(snapshot, node),
        "down": sorted(down),
        "at_risk": sorted(at_risk),
        "counts": {
            "down": len(down),
            "at_risk": len(at_risk),
            "unaffected": len(snapshot.websites) - len(down) - len(at_risk),
        },
        "metrics": _metrics_dict(snapshot.provider_metrics()[node]),
        "store": block,
    }


def assert_bytes_equal(fast: dict, slow: dict) -> None:
    """The differential contract: canonical JSON must match to the byte."""
    assert payload_to_json(fast) == json.dumps(slow, indent=1, sort_keys=True)


# -- the exhaustive fixed-world check ---------------------------------------


@pytest.fixture(scope="module")
def diff_world():
    return build_world(WorldConfig(n_websites=DIFF_N, seed=DIFF_SEED))


@pytest.fixture(scope="module")
def diff_text(diff_world) -> str:
    return dataset_to_json(run_campaign(world=diff_world))


@pytest.fixture(scope="module")
def diff_snapshot(diff_text):
    return slow_snapshot(diff_text)


@pytest.fixture(scope="module")
def diff_engine(diff_text) -> QueryEngine:
    return QueryEngine(StoreReader.from_bytes(compile_dataset_text(diff_text)))


@pytest.fixture(scope="module")
def diff_block(diff_text, diff_snapshot) -> dict:
    return slow_store_block(diff_text, diff_snapshot)


class TestFixedWorldExhaustive:
    def test_top_all_services_modes_and_ks(
        self, diff_engine, diff_snapshot, diff_block
    ):
        for service in ServiceType:
            for mode in MODES:
                for k in (1, 3, 5, 10_000):
                    fast = diff_engine.top(k, mode, service.value)
                    slow = slow_top(
                        diff_snapshot, diff_block, k, mode, service.value
                    )
                    assert_bytes_equal(fast, slow)

    def test_every_site_lookup(self, diff_engine, diff_snapshot, diff_block):
        for website in diff_snapshot.websites:
            fast = diff_engine.site(website.domain)
            slow = slow_site(diff_snapshot, diff_block, website.domain)
            assert_bytes_equal(fast, slow)

    def test_every_provider_dependents(
        self, diff_engine, diff_snapshot, diff_block
    ):
        for node in diff_snapshot.graph.providers():
            fast = diff_engine.dependents(str(node))
            slow = slow_dependents(diff_snapshot, diff_block, node)
            assert_bytes_equal(fast, slow)

    def test_every_provider_whatif(
        self, diff_engine, diff_snapshot, diff_block
    ):
        for node in diff_snapshot.graph.providers():
            fast = diff_engine.whatif(str(node))
            slow = slow_whatif(diff_snapshot, diff_block, node)
            assert_bytes_equal(fast, slow)

    def test_unknowns_raise_typed_errors(self, diff_engine):
        with pytest.raises(QueryError):
            diff_engine.site("no-such-site.example")
        with pytest.raises(QueryError):
            diff_engine.whatif("dns:no-such-provider.example")
        with pytest.raises(QueryError):
            diff_engine.top(5, "bogosity", "dns")
        with pytest.raises(QueryError):
            diff_engine.top(5, "impact", "smtp")

    def test_cached_answers_stay_byte_identical(
        self, diff_engine, diff_snapshot, diff_block
    ):
        first = payload_to_json(diff_engine.top(5, "impact", "dns"))
        hits_before = diff_engine.cache.hits
        second = payload_to_json(diff_engine.top(5, "impact", "dns"))
        assert diff_engine.cache.hits > hits_before
        assert first == second


class TestOutagePredictionCrossCheck:
    def test_whatif_union_equals_outage_predict(
        self, diff_world, diff_engine, diff_snapshot
    ):
        """``outage --predict``'s victim set must equal the union of the
        engine's per-nameserver-base what-if ``down`` sets — the third
        independent derivation of the same §2.2 semantics."""
        from repro.names.registrable import registrable_domain

        checked = 0
        for key in sorted(diff_world.spec.dns_providers):
            provider = diff_world.spec.dns_providers[key]
            bases = sorted(
                {registrable_domain(ns) or ns for ns in provider.ns_domains}
            )
            union: set[str] = set()
            for base in bases:
                try:
                    union |= set(diff_engine.whatif(f"dns:{base}")["down"])
                except QueryError:
                    pass  # base never appeared as a provider in the data
            predicted = predicted_dns_victims(
                diff_snapshot, diff_world, key, critical_only=True
            )
            assert sorted(union) == predicted, key
            checked += 1
        assert checked >= 3  # the world must actually exercise providers


class TestCliJsonByteIdentity:
    """`repro query --json` output == slow-path JSON, byte for byte."""

    @pytest.fixture(scope="class")
    def store_path(self, diff_text, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("diffcli") / "ds.rstore"
        path.write_bytes(compile_dataset_text(diff_text))
        return str(path)

    def _run(self, capsys, *argv: str) -> str:
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_top_json(self, capsys, store_path, diff_snapshot, diff_block):
        out = self._run(
            capsys, "query", store_path,
            "--top", "5", "--mode", "impact", "--service", "dns", "--json",
        )
        slow = slow_top(diff_snapshot, diff_block, 5, "impact", "dns")
        assert out == json.dumps(slow, indent=1, sort_keys=True) + "\n"

    def test_site_json(self, capsys, store_path, diff_snapshot, diff_block):
        domain = diff_snapshot.websites[0].domain
        out = self._run(capsys, "query", store_path, "--site", domain, "--json")
        slow = slow_site(diff_snapshot, diff_block, domain)
        assert out == json.dumps(slow, indent=1, sort_keys=True) + "\n"

    def test_whatif_json(self, capsys, store_path, diff_snapshot, diff_block):
        node = diff_snapshot.graph.providers(ServiceType.DNS)[0]
        out = self._run(
            capsys, "query", store_path, "--whatif", str(node), "--json"
        )
        slow = slow_whatif(diff_snapshot, diff_block, node)
        assert out == json.dumps(slow, indent=1, sort_keys=True) + "\n"

    def test_dependents_json(
        self, capsys, store_path, diff_snapshot, diff_block
    ):
        node = diff_snapshot.graph.providers(ServiceType.CDN)[0]
        out = self._run(
            capsys, "query", store_path, "--dependents", str(node), "--json"
        )
        slow = slow_dependents(diff_snapshot, diff_block, node)
        assert out == json.dumps(slow, indent=1, sort_keys=True) + "\n"


class TestWorkerCountStoreIdentity:
    def test_stores_from_1_2_and_n_worker_checkpoints_match(self, tmp_path):
        """Checkpointed campaigns at different worker counts must compile
        to byte-identical stores (the CI query-differential job runs
        this at REPRO_ENGINE_WORKERS=4)."""
        config = WorldConfig(n_websites=DIFF_N, seed=DIFF_SEED)
        worker_counts = sorted({1, 2, WORKERS})
        blobs = []
        for workers in worker_counts:
            dataset = run_campaign(
                config,
                shards=4,
                workers=workers,
                checkpoint_dir=str(tmp_path / f"ckpt-{workers}"),
            )
            blobs.append(compile_dataset_text(dataset_to_json(dataset)))
        for blob in blobs[1:]:
            assert blob == blobs[0]


class TestHypothesisWorlds:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=100, max_value=160),
        seed=st.integers(min_value=0, max_value=9999),
        limit=st.integers(min_value=20, max_value=60),
    )
    def test_generated_worlds_agree(self, n: int, seed: int, limit: int):
        world = build_world(WorldConfig(n_websites=n, seed=seed))
        text = dataset_to_json(run_campaign(world=world, limit=limit))
        snapshot = slow_snapshot(text)
        block = slow_store_block(text, snapshot)
        engine = QueryEngine(
            StoreReader.from_bytes(compile_dataset_text(text))
        )
        for service in ServiceType:
            for mode in ("impact", "concentration"):
                assert_bytes_equal(
                    engine.top(5, mode, service.value),
                    slow_top(snapshot, block, 5, mode, service.value),
                )
        for website in snapshot.websites:
            assert_bytes_equal(
                engine.site(website.domain),
                slow_site(snapshot, block, website.domain),
            )
        for node in snapshot.graph.providers():
            assert_bytes_equal(
                engine.whatif(str(node)), slow_whatif(snapshot, block, node)
            )
            assert_bytes_equal(
                engine.dependents(str(node)),
                slow_dependents(snapshot, block, node),
            )
