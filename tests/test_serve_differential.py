"""The serve differential harness: daemon bytes == one-shot CLI bytes.

The daemon's whole value proposition is "the same answers, without the
process startup" — so every answer it produces must be *byte-identical*
to ``repro query --json`` against the same store. The reference here is
a direct :class:`QueryEngine` over the same ``.rstore`` file, which the
query differential harness already proves byte-identical to the batch
pipeline and to the CLI; this file closes the remaining hop over HTTP.

Coverage on a fixed two-epoch world (n=120, seed=17, years 2016/2020):

* every site, every provider (dependents + whatif), and every
  service x mode top-K — one HTTP round-trip each,
* the same full query set pushed through the **batch** endpoint in
  chunks, asserting each item's embedded payload re-renders to the
  reference bytes,
* the **diff** endpoint's ``a``/``b`` halves against each epoch's
  reference engine, plus structural checks on the delta block,
* the in-process CLI: ``repro query --json`` stdout equals the daemon
  response body plus the trailing newline.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import WorldConfig, build_world
from repro.engine import run_campaign
from repro.measurement.io import dataset_to_json
from repro.query import QueryEngine, QueryError, payload_to_json
from repro.serve.client import send_batch, send_diff, send_query
from repro.serve.http import ReproServeDaemon
from repro.serve.registry import StoreRegistry
from repro.serve.service import ServeService
from repro.store import StoreReader, compile_dataset_text
from repro.store.format import SERVICE_CODES
from repro.store.reader import METRIC_COLUMNS

DIFF_N = 120
DIFF_SEED = 17
YEARS = (2016, 2020)


def canonical(payload: dict) -> str:
    """The exact rendering ``repro query --json`` prints (sans newline)."""
    return json.dumps(payload, indent=1, sort_keys=True)


# -- fixtures: two epoch stores behind one daemon ----------------------------


@pytest.fixture(scope="module")
def store_paths(tmp_path_factory) -> dict[str, str]:
    base = tmp_path_factory.mktemp("servediff")
    paths: dict[str, str] = {}
    for year in YEARS:
        world = build_world(
            WorldConfig(n_websites=DIFF_N, seed=DIFF_SEED, year=year)
        )
        blob = compile_dataset_text(
            dataset_to_json(run_campaign(world=world))
        )
        path = base / f"y{year}.rstore"
        path.write_bytes(blob)
        paths[f"y{year}"] = str(path)
    return paths


@pytest.fixture(scope="module")
def engines(store_paths) -> dict[str, QueryEngine]:
    """Reference engines — the proven ``repro query --json`` fast path."""
    return {
        name: QueryEngine(StoreReader.load(path))
        for name, path in store_paths.items()
    }


@pytest.fixture(scope="module")
def daemon(store_paths):
    registry = StoreRegistry(store_paths)
    server = ReproServeDaemon(ServeService(registry))
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server.address
    finally:
        server.request_drain()
        thread.join(10)
        server.server_close()


def every_query(engine: QueryEngine) -> list[dict]:
    """Every question the one-shot CLI can ask of this store."""
    reader = engine.reader
    queries: list[dict] = []
    for service in SERVICE_CODES:
        for mode in METRIC_COLUMNS:
            for k in (1, 5, 10_000):
                queries.append(
                    {"kind": "top", "k": k, "mode": mode, "service": service}
                )
    for site in range(reader.n_sites):
        queries.append({"kind": "site", "site": reader.site_domain(site)})
    for provider in range(reader.n_providers):
        key = reader.provider_key(provider)
        queries.append({"kind": "dependents", "provider": key})
        queries.append({"kind": "whatif", "provider": key})
    return queries


def reference_bytes(engine: QueryEngine, query: dict) -> str:
    if query["kind"] == "top":
        payload = engine.top(query["k"], query["mode"], query["service"])
    elif query["kind"] == "site":
        payload = engine.site(query["site"])
    elif query["kind"] == "dependents":
        payload = engine.dependents(query["provider"])
    else:
        payload = engine.whatif(query["provider"])
    return payload_to_json(payload)


# -- single-query byte identity ----------------------------------------------


class TestSingleQueryByteIdentity:
    @pytest.mark.parametrize("store", [f"y{year}" for year in YEARS])
    def test_every_question_both_epochs(self, daemon, engines, store):
        host, port = daemon
        engine = engines[store]
        checked = 0
        for query in every_query(engine):
            status, body = send_query(host, port, query, store=store)
            assert status == 200, body
            assert body.decode("utf-8") == reference_bytes(engine, query)
            checked += 1
        assert checked > 2 * DIFF_N  # sites twice over plus tops

    def test_store_block_pins_the_epoch(self, daemon, engines):
        """The two stores really are different epochs — the store block
        (and thus the answer bytes) must differ between them."""
        host, port = daemon
        years = set()
        for store, engine in engines.items():
            status, body = send_query(
                host, port, {"kind": "top", "k": 5}, store=store
            )
            assert status == 200
            years.add(json.loads(body)["store"]["year"])
        assert years == set(YEARS)


# -- batch byte identity ------------------------------------------------------


class TestBatchByteIdentity:
    def test_full_query_set_in_chunks(self, daemon, engines):
        """Everything single-query answered, again through /v1/batch —
        interleaving both stores so the per-store vectorization and the
        registry recency path are both exercised."""
        host, port = daemon
        items = []
        for store, engine in engines.items():
            items.extend(
                {"store": store, "query": query}
                for query in every_query(engine)
            )
        # Interleave the two stores' questions deterministically.
        items.sort(key=lambda item: canonical(item))
        chunk_size = 200
        for start in range(0, len(items), chunk_size):
            chunk = items[start : start + chunk_size]
            status, body = send_batch(
                host, port, [dict(item) for item in chunk]
            )
            assert status == 200, body
            envelope = json.loads(body)
            assert envelope["schema"] == "repro-serve/1"
            assert len(envelope["results"]) == len(chunk)
            for item, result in zip(chunk, envelope["results"]):
                assert result["status"] == 200, (item, result)
                assert canonical(result["payload"]) == reference_bytes(
                    engines[item["store"]], item["query"]
                )

    def test_batch_and_single_agree(self, daemon):
        host, port = daemon
        query = {"kind": "top", "k": 3, "mode": "impact", "service": "cdn"}
        _, single = send_query(host, port, query, store="y2020")
        _, batch = send_batch(
            host, port, [{"store": "y2020", "query": query}]
        )
        embedded = json.loads(batch)["results"][0]["payload"]
        assert canonical(embedded) == single.decode("utf-8")


# -- diff-endpoint halves -----------------------------------------------------


class TestDiffHalvesByteIdentity:
    def _diff(self, daemon, query: dict) -> dict:
        host, port = daemon
        status, body = send_diff(host, port, "y2016", "y2020", query)
        assert status == 200, body
        return json.loads(body)

    def test_top_halves_and_rank_deltas(self, daemon, engines):
        for mode in METRIC_COLUMNS:
            for service in SERVICE_CODES:
                query = {
                    "kind": "top", "k": 10, "mode": mode, "service": service,
                }
                envelope = self._diff(daemon, query)
                assert canonical(envelope["a"]) == reference_bytes(
                    engines["y2016"], query
                )
                assert canonical(envelope["b"]) == reference_bytes(
                    engines["y2020"], query
                )
                ranks_a = {
                    e["provider"]: i
                    for i, e in enumerate(envelope["a"]["results"], start=1)
                }
                ranks_b = {
                    e["provider"]: i
                    for i, e in enumerate(envelope["b"]["results"], start=1)
                }
                delta = envelope["delta"]
                assert delta["kind"] == "top"
                seen = {entry["provider"] for entry in delta["providers"]}
                assert seen == set(ranks_a) | set(ranks_b)
                for entry in delta["providers"]:
                    assert entry["rank_a"] == ranks_a.get(entry["provider"])
                    assert entry["rank_b"] == ranks_b.get(entry["provider"])
                    if entry["rank_a"] is None or entry["rank_b"] is None:
                        assert entry["rank_delta"] is None
                    else:
                        assert entry["rank_delta"] == (
                            entry["rank_a"] - entry["rank_b"]
                        )

    def test_lookup_halves_for_common_names(self, daemon, engines):
        """Sites/providers present in both epochs: halves byte-identical,
        set deltas consistent with the halves."""
        reader_a = engines["y2016"].reader
        reader_b = engines["y2020"].reader
        sites_b = {
            reader_b.site_domain(i) for i in range(reader_b.n_sites)
        }
        common_sites = sorted(
            domain
            for domain in (
                reader_a.site_domain(i) for i in range(reader_a.n_sites)
            )
            if domain in sites_b
        )
        assert common_sites  # same population, same seed
        for domain in common_sites[:20]:
            query = {"kind": "site", "site": domain}
            envelope = self._diff(daemon, query)
            assert canonical(envelope["a"]) == reference_bytes(
                engines["y2016"], query
            )
            assert canonical(envelope["b"]) == reference_bytes(
                engines["y2020"], query
            )
            deps = envelope["delta"]["dependencies"]
            providers_a = {
                d["provider"] for d in envelope["a"]["site"]["dependencies"]
            }
            providers_b = {
                d["provider"] for d in envelope["b"]["site"]["dependencies"]
            }
            assert set(deps["gained"]) == providers_b - providers_a
            assert set(deps["lost"]) == providers_a - providers_b

        keys_b = {
            reader_b.provider_key(i) for i in range(reader_b.n_providers)
        }
        common_keys = sorted(
            key
            for key in (
                reader_a.provider_key(i)
                for i in range(reader_a.n_providers)
            )
            if key in keys_b
        )
        assert common_keys
        for key in common_keys[:10]:
            query = {"kind": "whatif", "provider": key}
            envelope = self._diff(daemon, query)
            assert canonical(envelope["a"]) == reference_bytes(
                engines["y2016"], query
            )
            assert canonical(envelope["b"]) == reference_bytes(
                engines["y2020"], query
            )
            down = envelope["delta"]["down"]
            assert down["count_a"] == len(envelope["a"]["down"])
            assert down["count_b"] == len(envelope["b"]["down"])

    def test_diff_half_name_miss_is_typed(self, daemon):
        host, port = daemon
        status, body = send_diff(
            host, port, "y2016", "y2020",
            {"kind": "site", "site": "no-such-site.example"},
        )
        assert status == 404
        assert json.loads(body)["error"]["type"] == "unknown-name"


# -- the CLI hop --------------------------------------------------------------


class TestCliByteIdentity:
    def test_query_json_stdout_equals_daemon_body(
        self, daemon, store_paths, engines, capsys
    ):
        """``repro query --json`` prints exactly the daemon's response
        body plus the trailing newline — the whole contract, end to end."""
        from repro.cli import main

        host, port = daemon
        reader = engines["y2020"].reader
        provider = reader.provider_key(0)
        for flags, query in (
            (
                ["--top", "7", "--mode", "concentration", "--service", "cdn"],
                {
                    "kind": "top", "k": 7,
                    "mode": "concentration", "service": "cdn",
                },
            ),
            (
                ["--site", reader.site_domain(0)],
                {"kind": "site", "site": reader.site_domain(0)},
            ),
            (
                ["--whatif", provider],
                {"kind": "whatif", "provider": provider},
            ),
            (
                ["--dependents", provider],
                {"kind": "dependents", "provider": provider},
            ),
        ):
            assert main(
                ["query", store_paths["y2020"], *flags, "--json"]
            ) == 0
            out = capsys.readouterr().out
            status, body = send_query(host, port, query, store="y2020")
            assert status == 200
            assert out == body.decode("utf-8") + "\n"

    def test_reference_engine_rejects_what_the_daemon_rejects(
        self, daemon, engines
    ):
        """A name the engine raises on must come back as a typed 404,
        never a 500 — the error taxonomies stay aligned."""
        host, port = daemon
        with pytest.raises(QueryError):
            engines["y2020"].site("no-such-site.example")
        status, body = send_query(
            host, port,
            {"kind": "site", "site": "no-such-site.example"},
            store="y2020",
        )
        assert status == 404
        assert json.loads(body)["error"]["type"] == "unknown-name"
