"""Daemon mechanics: registry, limits, shedding, concurrency, drain.

The differential harness (test_serve_differential.py) proves the
*answers*; this file proves the *daemon* — the multi-store registry's
eviction accounting, the typed refusals at the HTTP boundary (411/413/
400/404/429/503), byte-stable behavior under an 8-thread hammer against
two stores, keep-alive latency at handler speed, and graceful drain
both in-process (kill mid-request, idle keep-alive clients) and
end-to-end (SIGTERM to a real ``repro serve`` subprocess).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_world
from repro.engine import run_campaign
from repro.measurement.io import dataset_to_json
from repro.serve.client import (
    ClientTransportError,
    fetch_health,
    fetch_stats,
    request,
    send_batch,
    send_query,
)
from repro.serve.http import ReproServeDaemon
from repro.query import payload_to_json
from repro.serve.protocol import (
    QUERY_KINDS,
    BadRequestError,
    Query,
    UnknownStoreError,
    classify_error,
    decode_body,
    parse_query,
)
from repro.serve.registry import StoreRegistry, parse_store_specs
from repro.serve.service import ServeService
from repro.store import compile_dataset_text

DAEMON_N = 100
DAEMON_SEED = 7


@pytest.fixture(scope="module")
def store_paths(tmp_path_factory) -> dict[str, str]:
    base = tmp_path_factory.mktemp("servedaemon")
    paths: dict[str, str] = {}
    for year in (2016, 2020):
        world = build_world(
            WorldConfig(n_websites=DAEMON_N, seed=DAEMON_SEED, year=year)
        )
        blob = compile_dataset_text(
            dataset_to_json(run_campaign(world=world))
        )
        path = base / f"y{year}.rstore"
        path.write_bytes(blob)
        paths[f"y{year}"] = str(path)
    return paths


@contextlib.contextmanager
def running(daemon: ReproServeDaemon):
    thread = threading.Thread(target=daemon.serve_forever)
    thread.start()
    try:
        yield daemon.address
    finally:
        daemon.request_drain()
        thread.join(10)
        daemon.server_close()
        assert not thread.is_alive()


# -- store specs --------------------------------------------------------------


class TestParseStoreSpecs:
    def test_bare_path_is_named_by_stem(self):
        assert parse_store_specs(["/data/y2016.rstore"]) == {
            "y2016": "/data/y2016.rstore"
        }
        assert parse_store_specs(["d.json"]) == {"d": "d.json"}

    def test_name_equals_path(self):
        assert parse_store_specs(["now=/tmp/a.rstore", "b.rstore"]) == {
            "now": "/tmp/a.rstore",
            "b": "b.rstore",
        }

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate store name"):
            parse_store_specs(["/a/ds.rstore", "/b/ds.rstore"])

    def test_empty_name_or_path_is_rejected(self):
        with pytest.raises(ValueError, match="bad store spec"):
            parse_store_specs(["=path"])
        with pytest.raises(ValueError, match="bad store spec"):
            parse_store_specs(["name="])

    def test_no_stores_is_rejected(self):
        with pytest.raises(ValueError, match="at least one store"):
            parse_store_specs([])


# -- registry -----------------------------------------------------------------


class TestStoreRegistry:
    def test_miss_then_hit_counters(self, store_paths):
        registry = StoreRegistry(store_paths)
        registry.acquire("y2016")
        registry.acquire("y2016")
        assert (registry.hits, registry.misses, registry.opens) == (1, 1, 1)

    def test_unknown_store_is_typed(self, store_paths):
        registry = StoreRegistry(store_paths)
        with pytest.raises(UnknownStoreError, match="unknown store"):
            registry.acquire("y1999")

    def test_holds_both_stores_under_a_roomy_cap(self, store_paths):
        sizes = {
            name: os.path.getsize(path)
            for name, path in store_paths.items()
        }
        registry = StoreRegistry(
            store_paths, max_mem_bytes=sum(sizes.values())
        )
        for name in store_paths:
            registry.acquire(name)
        stats = registry.stats()
        assert stats["open"] == 2
        assert stats["evictions"] == 0
        assert stats["mapped_bytes"] == sum(sizes.values())
        assert stats["mapped_bytes"] <= stats["max_mem_bytes"]

    def test_tight_cap_evicts_least_recently_queried(self, store_paths):
        sizes = {
            name: os.path.getsize(path)
            for name, path in store_paths.items()
        }
        registry = StoreRegistry(
            store_paths, max_mem_bytes=sum(sizes.values()) - 1
        )
        registry.acquire("y2016")
        registry.acquire("y2020")  # must evict y2016 to fit
        stats = registry.stats()
        assert stats["open"] == 1
        assert stats["evictions"] == 1
        assert stats["per_store"]["y2020"]["open"]
        assert not stats["per_store"]["y2016"]["open"]
        registry.acquire("y2016")  # reopens; y2020 becomes the victim
        assert registry.opens == 3
        assert registry.evictions == 2

    def test_store_bigger_than_cap_still_serves(self, store_paths):
        registry = StoreRegistry(store_paths, max_mem_bytes=1)
        entry = registry.acquire("y2016")
        assert entry.engine.reader.n_sites == DAEMON_N
        registry.acquire("y2020")
        assert registry.stats()["open"] == 1  # never more than the one

    def test_eviction_keeps_inflight_entry_usable(self, store_paths):
        """A request holding an evicted store finishes on the old mmap."""
        registry = StoreRegistry(store_paths, max_mem_bytes=1)
        held = registry.acquire("y2016")
        registry.acquire("y2020")  # evicts y2016 from the registry
        with held.lock:
            payload = held.engine.top(3, "impact", "dns")
        assert payload["query"]["kind"] == "top"

    def test_default_name(self, store_paths):
        single = dict(list(store_paths.items())[:1])
        assert StoreRegistry(single).default_name() == next(iter(single))
        assert StoreRegistry(store_paths).default_name() is None


# -- service envelopes --------------------------------------------------------


class TestServeService:
    def test_single_store_needs_no_name(self, store_paths):
        single = {"only": store_paths["y2020"]}
        service = ServeService(StoreRegistry(single))
        payload = service.answer({"query": {"kind": "top", "k": 2}})
        assert len(payload["results"]) == 2

    def test_multi_store_requires_a_name(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        with pytest.raises(BadRequestError, match="'store' is required"):
            service.answer({"query": {"kind": "top"}})

    def test_batch_envelope_validation(self, store_paths):
        service = ServeService(StoreRegistry(store_paths), max_batch=2)
        with pytest.raises(BadRequestError, match="non-empty array"):
            service.answer_batch({"queries": []})
        with pytest.raises(BadRequestError, match="exceeds the limit"):
            service.answer_batch(
                {"queries": [{"store": "y2020", "query": {"kind": "top"}}] * 3}
            )

    def test_batch_per_item_errors_are_inline(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        envelope = service.answer_batch(
            {
                "queries": [
                    {"store": "y2020", "query": {"kind": "top", "k": 1}},
                    {"store": "y1999", "query": {"kind": "top"}},
                    {"store": "y2020", "query": {"kind": "zap"}},
                    {"store": "y2020",
                     "query": {"kind": "site", "site": "nope.example"}},
                    "not-an-object",
                ]
            }
        )
        statuses = [result["status"] for result in envelope["results"]]
        assert statuses == [200, 404, 400, 404, 400]
        kinds = [
            result["error"]["type"]
            for result in envelope["results"]
            if "error" in result
        ]
        assert kinds == [
            "unknown-store", "bad-request", "unknown-name", "bad-request",
        ]

    def test_batch_answers_around_an_unhashable_field(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        envelope = service.answer_batch(
            {
                "queries": [
                    {"store": "y2020", "query": {"kind": "top", "k": 1}},
                    {"store": "y2020",
                     "query": {"kind": "top", "service": []}},
                    {"store": "y2020", "query": {"kind": "top", "k": 2}},
                ]
            }
        )
        statuses = [result["status"] for result in envelope["results"]]
        assert statuses == [200, 400, 200]
        assert envelope["results"][1]["error"]["type"] == "bad-request"

    def test_statz_counts_requests(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        service.record("/v1/query", 200)
        service.record("/v1/query", 200)
        service.record("/v1/query", 404)
        stats = service.statz()
        assert stats["requests"][
            "requests{endpoint=/v1/query,status=200}"
        ] == 2
        assert stats["requests"][
            "requests{endpoint=/v1/query,status=404}"
        ] == 1
        assert stats["registry"]["stores"] == 2


# -- query parsing ------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

_VALID_FIELDS = {
    "kind": "top",
    "k": 3,
    "mode": "impact",
    "service": "dns",
    "site": "twitter.com",
    "provider": "dns:dynect.net",
}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["top", "site", "dependents", "whatif"]),
    field=st.sampled_from(sorted(_VALID_FIELDS)),
    value=_JSON_VALUES,
)
def test_any_json_field_value_parses_or_is_a_bad_request(kind, field, value):
    """Every JSON value in every query field is a Query or a typed 400."""
    obj = {**_VALID_FIELDS, "kind": kind, field: value}
    try:
        assert isinstance(parse_query(obj), Query)
    except BadRequestError:
        pass


# -- service boundary ---------------------------------------------------------

#: Values the JSON decoder yields that the strategies above never draw:
#: lone surrogates (sent as ``\ud800``-style escapes), integers far
#: past any machine word, and the non-finite floats Python's decoder
#: accepts.
_EDGE_VALUES = (
    st.sampled_from(["\ud800", "\udfff", "a\ud800b", "\udc00\ud800"])
    | st.integers(min_value=2**62, max_value=2**90)
    | st.integers(min_value=-(2**90), max_value=-(2**62))
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
)
_FIELD_VALUES = _JSON_VALUES | _EDGE_VALUES
_STORE_NAMES = st.sampled_from(["y2016", "y2020"]) | _FIELD_VALUES

#: A query whose every field is absent, valid, or any JSON value.
_FUZZ_QUERIES = st.fixed_dictionaries(
    {"kind": st.sampled_from(QUERY_KINDS) | _FIELD_VALUES},
    optional={
        field: st.just(value) | _FIELD_VALUES
        for field, value in _VALID_FIELDS.items()
        if field != "kind"
    },
)
_FUZZ_ENVELOPES = st.fixed_dictionaries(
    {},
    optional={
        "store": _STORE_NAMES,
        "store_a": _STORE_NAMES,
        "store_b": _STORE_NAMES,
        "query": _FUZZ_QUERIES | _FIELD_VALUES,
    },
)
_FUZZ_BODIES = st.one_of(
    st.binary(max_size=64),
    _FIELD_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    _FUZZ_ENVELOPES.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.builds(
        lambda doc, cut, junk: json.dumps(doc).encode("utf-8")[:cut] + junk,
        _FUZZ_ENVELOPES,
        st.integers(min_value=0, max_value=96),
        st.binary(max_size=4),
    ),
)

#: The typed refusals a request body alone can earn.
_TYPED_4XX = {"bad-request", "unknown-store", "unknown-name"}


def _serve_body(service: ServeService, endpoint: str, body: bytes):
    """What the daemon answers a POST body with, minus the socket:
    (status, the response bytes it would write)."""
    try:
        doc = decode_body(body)
        if endpoint == "/v1/query":
            payload = service.answer(doc)
        else:
            payload = service.answer_diff(doc)
        status = 200
    except Exception as exc:
        status, payload = classify_error(exc)
    return status, payload_to_json(payload).encode("utf-8")


class TestServiceBoundary:
    @pytest.fixture()
    def service(self, store_paths):
        return ServeService(StoreRegistry(store_paths))

    def test_fuzzed_bodies_answer_or_refuse_with_a_typed_4xx(self, service):
        """Every body is a payload or a typed 4xx; none is a 500."""

        @settings(max_examples=400, deadline=None)
        @given(endpoint=st.sampled_from(["/v1/query", "/v1/diff"]),
               body=_FUZZ_BODIES)
        @example(endpoint="/v1/query",
                 body=b'{"store": "y2016", "query": '
                      b'{"kind": "site", "site": "\\ud800"}}')
        @example(endpoint="/v1/diff",
                 body=b'{"store_a": "y2016", "store_b": "y2020", '
                      b'"query": {"kind": "top", "k": 1180591620717411303424}}')
        def exchange(endpoint, body):
            status, response = _serve_body(service, endpoint, body)
            if status != 200:
                doc = json.loads(response)
                assert 400 <= status < 500, doc
                assert doc["error"]["type"] in _TYPED_4XX, doc

        exchange()

    def test_lone_surrogate_names_are_unknown_names(self, service):
        for query in (
            {"kind": "site", "site": "\ud800"},
            {"kind": "whatif", "provider": "dns:\udfff.net"},
        ):
            body = json.dumps({"store": "y2016", "query": query}).encode()
            status, response = _serve_body(service, "/v1/query", body)
            assert status == 404
            assert json.loads(response)["error"]["type"] == "unknown-name"

    def test_a_huge_k_answers_every_provider(self, service):
        query = {"kind": "top", "k": 2**70, "mode": "impact", "service": "dns"}
        body = json.dumps({"store": "y2016", "query": query}).encode()
        status, response = _serve_body(service, "/v1/query", body)
        assert status == 200
        small = {**query, "k": 10**6}
        assert service.answer({"store": "y2016", "query": small})["results"] \
            == json.loads(response)["results"]


# -- HTTP boundary ------------------------------------------------------------


def _raw_exchange(host: str, port: int, payload: bytes) -> bytes:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


_POST_ENDPOINTS = ["/v1/query", "/v1/batch", "/v1/diff"]

_ENVELOPES = st.fixed_dictionaries(
    {},
    optional={
        "store": st.sampled_from(["y2016", "y2020"]) | _JSON_VALUES,
        "store_a": st.sampled_from(["y2016", "y2020"]) | _JSON_VALUES,
        "store_b": st.sampled_from(["y2016", "y2020"]) | _JSON_VALUES,
        "query": st.builds(
            lambda kind, field, value: {
                **_VALID_FIELDS, "kind": kind, field: value
            },
            st.sampled_from(["top", "site", "dependents", "whatif"]),
            st.sampled_from(sorted(_VALID_FIELDS)),
            _JSON_VALUES,
        ) | _JSON_VALUES,
        "queries": st.lists(_JSON_VALUES, max_size=3) | _JSON_VALUES,
    },
)

#: Raw bytes, arbitrary JSON, near-valid envelopes, and truncated or
#: corrupted valid ones.
_BODIES = st.one_of(
    st.binary(max_size=64),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    _ENVELOPES.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.builds(
        lambda doc, cut, junk: json.dumps(doc).encode("utf-8")[:cut] + junk,
        _ENVELOPES,
        st.integers(min_value=0, max_value=64),
        st.binary(max_size=4),
    ),
    st.integers(min_value=1, max_value=1500).map(lambda depth: b"[" * depth),
)


def _post_bytes(host: str, port: int, endpoint: str, body: bytes):
    """POST ``body`` verbatim; (status, parsed JSON response)."""
    conn = HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", endpoint, body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpBoundary:
    @pytest.fixture()
    def daemon(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        with running(
            ReproServeDaemon(service, max_body=2048)
        ) as address:
            yield address

    def test_health_and_statz(self, daemon):
        host, port = daemon
        status, body = fetch_health(host, port)
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["stores"] == ["y2016", "y2020"]
        status, body = fetch_stats(host, port)
        assert status == 200
        assert json.loads(body)["schema"] == "repro-serve/1"

    def test_missing_content_length_is_411(self, daemon):
        host, port = daemon
        response = _raw_exchange(
            host, port,
            b"POST /v1/query HTTP/1.1\r\n"
            b"Host: x\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 411 ")
        assert b'"bad-request"' in response

    def test_oversized_body_is_413_and_closes(self, daemon):
        host, port = daemon
        response = _raw_exchange(
            host, port,
            b"POST /v1/query HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 999999\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 413 ")

    def test_non_json_body_is_400(self, daemon):
        host, port = daemon
        response = _raw_exchange(
            host, port,
            b"POST /v1/query HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 9\r\n"
            b"Connection: close\r\n\r\nnot json!",
        )
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_non_utf8_body_is_400(self, daemon):
        status, doc = _post_bytes(*daemon, "/v1/query", b'{"store": "\xff"}')
        assert status == 400
        assert doc["error"]["type"] == "bad-request"

    def test_deeply_nested_body_is_400(self, daemon):
        # Well under max_body, yet past the JSON parser's recursion limit.
        status, doc = _post_bytes(*daemon, "/v1/batch", b"[" * 2000)
        assert status == 400
        assert doc["error"]["type"] == "bad-request"

    def test_fuzzed_bodies_never_answer_internal(self, daemon):
        """No byte string posted to a query endpoint is a daemon bug:
        every answer is a payload or a typed error, never ``internal``."""

        @settings(max_examples=150, deadline=None)
        @given(endpoint=st.sampled_from(_POST_ENDPOINTS), body=_BODIES)
        def exchange(endpoint, body):
            status, doc = _post_bytes(*daemon, endpoint, body)
            assert status != 500, doc
            assert doc.get("error", {}).get("type") != "internal", doc

        exchange()

    def test_unknown_endpoints_are_404(self, daemon):
        host, port = daemon
        status, body = request(host, port, "GET", "/nope")
        assert status == 404
        status, body = request(host, port, "POST", "/v2/query", {"a": 1})
        assert status == 404

    def test_unknown_store_is_404(self, daemon):
        host, port = daemon
        status, body = send_query(
            host, port, {"kind": "top"}, store="y1999"
        )
        assert status == 404
        assert json.loads(body)["error"]["type"] == "unknown-store"

    def test_blown_deadline_is_503(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        with running(
            ReproServeDaemon(service, deadline_s=1e-9)
        ) as (host, port):
            status, body = send_query(
                host, port, {"kind": "top"}, store="y2020"
            )
            assert status == 503
            assert json.loads(body)["error"]["type"] == "deadline"

    def test_draining_daemon_sheds_with_503(self, store_paths):
        service = ServeService(StoreRegistry(store_paths))
        daemon = ReproServeDaemon(service)
        with running(daemon) as (host, port):
            daemon.draining.set()  # flag only: accept loop still alive
            status, body = send_query(
                host, port, {"kind": "top"}, store="y2020"
            )
            assert status == 503
            assert json.loads(body)["error"]["type"] == "draining"


class _GatedService(ServeService):
    """Blocks every answer until released — for 429 and drain tests."""

    def __init__(self, registry: StoreRegistry) -> None:
        super().__init__(registry)
        self.entered = threading.Event()
        self.release = threading.Event()

    def answer(self, req):
        self.entered.set()
        assert self.release.wait(20), "gated request never released"
        return super().answer(req)


class TestLoadShedding:
    def test_inflight_bound_sheds_with_429(self, store_paths):
        service = _GatedService(StoreRegistry(store_paths))
        daemon = ReproServeDaemon(service, max_inflight=1)
        with running(daemon) as (host, port):
            results: list[tuple[int, bytes]] = []

            def slow_request():
                results.append(
                    send_query(host, port, {"kind": "top"}, store="y2020")
                )

            blocker = threading.Thread(target=slow_request)
            blocker.start()
            assert service.entered.wait(10)
            status, body = send_query(
                host, port, {"kind": "top"}, store="y2020"
            )
            assert status == 429
            assert json.loads(body)["error"]["type"] == "overloaded"
            service.release.set()
            blocker.join(10)
            assert results[0][0] == 200


# -- the 8-thread hammer ------------------------------------------------------


class TestConcurrentHammer:
    def test_eight_threads_two_stores_byte_identical(self, store_paths):
        """8 client threads hammer /v1/batch with interleaved two-store
        requests; every concurrent response must equal the serial one."""
        service = ServeService(StoreRegistry(store_paths))
        with running(ReproServeDaemon(service)) as (host, port):
            requests = []
            for k in range(1, 7):
                requests.append([
                    {"store": "y2016",
                     "query": {"kind": "top", "k": k, "service": "dns"}},
                    {"store": "y2020",
                     "query": {"kind": "top", "k": k, "service": "cdn"}},
                    {"store": "y2020",
                     "query": {"kind": "top", "k": k, "mode":
                               "concentration", "service": "ca"}},
                ])
            serial = [
                send_batch(host, port, [dict(i) for i in req])
                for req in requests
            ]
            assert all(status == 200 for status, _ in serial)

            failures: list[str] = []
            rounds = 5

            def hammer(thread_index: int) -> None:
                for round_index in range(rounds):
                    for req_index, req in enumerate(requests):
                        status, body = send_batch(
                            host, port, [dict(i) for i in req]
                        )
                        if (status, body) != serial[req_index]:
                            failures.append(
                                f"thread {thread_index} round {round_index} "
                                f"request {req_index}: {status} {body!r:.200}"
                            )

            threads = [
                threading.Thread(target=hammer, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert failures == []

    def test_hammer_under_memory_pressure(self, store_paths):
        """Same two-store hammer with a cap that fits only one store, so
        every alternation evicts — answers must still be byte-stable."""
        sizes = [os.path.getsize(path) for path in store_paths.values()]
        registry = StoreRegistry(store_paths, max_mem_bytes=max(sizes))
        service = ServeService(registry)
        with running(ReproServeDaemon(service)) as (host, port):
            queries = [
                ({"kind": "top", "k": 3}, "y2016"),
                ({"kind": "top", "k": 3}, "y2020"),
            ]
            serial = [
                send_query(host, port, dict(query), store=store)
                for query, store in queries
            ]
            mismatches: list[int] = []

            def hammer() -> None:
                for _ in range(10):
                    for index, (query, store) in enumerate(queries):
                        got = send_query(
                            host, port, dict(query), store=store
                        )
                        if got != serial[index]:
                            mismatches.append(index)

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert mismatches == []
            assert registry.evictions > 0  # the cap actually bit
            assert registry.stats()["open"] == 1


# -- keep-alive ---------------------------------------------------------------


def _keep_alive_query(
    conn: HTTPConnection, query: dict, store: str
) -> tuple[int, bytes]:
    """One /v1/query over an already-open connection, left open."""
    body = json.dumps({"store": store, "query": query}).encode("utf-8")
    conn.request(
        "POST", "/v1/query", body, {"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, response.read()


class TestKeepAlive:
    def test_back_to_back_requests_run_at_handler_speed(self, store_paths):
        """40 requests in a row over one connection: each takes handler
        time, not a delayed-ACK round trip (~40 ms when Nagle holds the
        body back), and carries the bytes a fresh connection gets."""
        service = ServeService(StoreRegistry(store_paths))
        with running(ReproServeDaemon(service)) as (host, port):
            queries = [
                ({"kind": "top", "k": k, "service": service_name}, store)
                for k in range(1, 6)
                for service_name in ("dns", "cdn")
                for store in ("y2016", "y2020")
            ]
            expected = [
                send_query(host, port, dict(query), store=store)
                for query, store in queries
            ]
            assert all(status == 200 for status, _ in expected)
            conn = HTTPConnection(host, port, timeout=30)
            elapsed: list[float] = []
            try:
                for round_index in range(2):
                    for index, (query, store) in enumerate(queries):
                        started = time.perf_counter()
                        got = _keep_alive_query(conn, dict(query), store)
                        elapsed.append(time.perf_counter() - started)
                        assert got == expected[index], (round_index, index)
            finally:
                conn.close()
            assert len(elapsed) >= 30
            median_ms = statistics.median(elapsed) * 1e3
            assert median_ms < 20.0, f"median keep-alive request {median_ms:.1f} ms"


# -- drain --------------------------------------------------------------------


class TestGracefulDrain:
    def test_kill_mid_request_finishes_inflight(self, store_paths):
        """request_drain() while a request is in flight: the in-flight
        answer completes (200), new work is refused, and the server
        thread exits once the handler finishes."""
        service = _GatedService(StoreRegistry(store_paths))
        daemon = ReproServeDaemon(service)
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        host, port = daemon.address
        inflight: list[tuple[int, bytes]] = []

        def slow_request():
            inflight.append(
                send_query(host, port, {"kind": "top"}, store="y2020")
            )

        requester = threading.Thread(target=slow_request)
        requester.start()
        assert service.entered.wait(10)
        daemon.request_drain()
        # New work is refused: 503 on a raced-in connection, or the
        # accept loop is already gone and the connect itself fails.
        try:
            status, body = send_query(
                host, port, {"kind": "top"}, store="y2020", timeout=5
            )
            assert status == 503
            assert json.loads(body)["error"]["type"] == "draining"
        except ClientTransportError:
            pass
        service.release.set()
        requester.join(20)
        thread.join(20)
        daemon.server_close()
        assert inflight and inflight[0][0] == 200
        assert not thread.is_alive()

    def test_drain_closes_idle_keep_alive_connections(self, store_paths):
        """A client that keeps its connection open between requests must
        not hold the drain: its handler reads EOF and exits, so
        ``server_close`` (which joins handlers) returns promptly."""
        daemon = ReproServeDaemon(ServeService(StoreRegistry(store_paths)))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=30)
        try:
            status, _ = _keep_alive_query(conn, {"kind": "top"}, "y2020")
            assert status == 200
            daemon.request_drain()
            thread.join(5)
            assert not thread.is_alive()
            closer = threading.Thread(target=daemon.server_close, daemon=True)
            closer.start()
            closer.join(5)
            assert not closer.is_alive(), "server_close waited on an idle client"
            assert conn.sock.recv(1) == b""  # the daemon closed its end
        finally:
            conn.close()

    def test_sigterm_drains_a_real_daemon(self, store_paths):
        """End to end: ``repro serve`` subprocess answers a query, gets
        SIGTERM, and exits 0 after announcing the drain."""
        with _serve_process(store_paths) as (proc, host, port):
            status, body = send_query(
                host, port, {"kind": "top", "k": 2}, store="y2020"
            )
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            remaining = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "drained" in remaining

    def test_sigterm_drains_past_an_idle_keep_alive_client(self, store_paths):
        """SIGTERM with a keep-alive client idling on an open connection:
        the daemon still exits 0 without waiting for the client."""
        with _serve_process(store_paths) as (proc, host, port):
            conn = HTTPConnection(host, port, timeout=30)
            try:
                status, _ = _keep_alive_query(
                    conn, {"kind": "top", "k": 2}, "y2020"
                )
                assert status == 200
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=15) == 0
                assert "drained" in proc.stderr.read()
            finally:
                conn.close()


@contextlib.contextmanager
def _serve_process(store_paths):
    """A ``repro serve`` subprocess over the stores: (proc, host, port)."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            *(f"{name}={path}" for name, path in store_paths.items()),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        cwd=repo_root,
    )
    try:
        announce = proc.stderr.readline()
        match = re.search(r"http://([^:]+):(\d+)", announce)
        assert match, announce
        yield proc, match.group(1), int(match.group(2))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)
        proc.stderr.close()
