"""Contract tests for :class:`StoreReader`'s lookups, memos and header checks.

The reader decodes each store string at most once and memoizes provider
keys, so these tests pin what the memos must not change: every lookup
inverts its accessor, a freshly loaded reader has decoded nothing,
postings carry plain ``int``/``bool`` values, and a reader warmed by a
full query cycle answers byte-identically to a fresh one.

The second half crafts stores whose sha256 trailer is valid but whose
header is malformed, and checks that each one raises
``StoreCorruptError`` (which the daemon reports as ``store-corrupt``)
rather than a bare ``AttributeError``/``TypeError``/``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.query import QueryEngine, payload_to_json
from repro.serve.protocol import classify_error
from repro.store import (
    WIRE_VERSION,
    StoreCorruptError,
    StoreReader,
    compile_dataset_text,
)
from repro.store.format import MAGIC, SERVICE_CODES, parse_store
from repro.store.reader import METRIC_COLUMNS

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="module", params=["dataset_nofault.json", "dataset_chaos.json"])
def blob(request: Any) -> bytes:
    text = (GOLDEN_DIR / request.param).read_text(encoding="utf-8")
    return compile_dataset_text(text)


def every_query(reader: StoreReader) -> list[tuple[str, tuple[Any, ...]]]:
    """One of each question the engine answers over this store."""
    queries: list[tuple[str, tuple[Any, ...]]] = [
        ("top", (5, mode, service))
        for mode in METRIC_COLUMNS
        for service in SERVICE_CODES
    ]
    queries += [("site", (reader.site_domain(i),)) for i in range(reader.n_sites)]
    for p in range(reader.n_providers):
        key = reader.provider_key(p)
        queries += [("dependents", (key,)), ("whatif", (key,))]
    return queries


def answer(engine: QueryEngine, kind: str, args: tuple[Any, ...]) -> str:
    method: Callable[..., dict[str, Any]] = getattr(engine, kind)
    return payload_to_json(method(*args))


class TestLookups:
    def test_find_site_inverts_site_domain(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        for site in range(reader.n_sites):
            assert reader.find_site(reader.site_domain(site)) == site

    def test_find_provider_inverts_provider_key(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        for provider in range(reader.n_providers):
            assert reader.find_provider(reader.provider_key(provider)) == provider

    def test_find_string_inverts_string(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        for index in range(reader.n_strings):
            assert reader.find_string(reader.string(index)) == index

    def test_absent_names_are_none(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        assert reader.find_site("no-such-site.invalid") is None
        assert reader.find_provider("dns:no-such-provider.invalid") is None
        assert reader.find_string("") is None


class TestMemos:
    def test_fresh_reader_has_decoded_nothing(self, blob: bytes, tmp_path: Path) -> None:
        path = tmp_path / "store.rstore"
        path.write_bytes(blob)
        for reader in (StoreReader.from_bytes(blob), StoreReader.load(str(path))):
            assert reader._strings == {}
            assert reader._provider_keys == {}

    def test_decoded_strings_are_memoized(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        first = reader.site_domain(0)
        assert reader.site_domain(0) is first
        key = reader.provider_key(0)
        assert reader.provider_key(0) is key

    def test_postings_are_plain_int_and_bool(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        postings = [reader.site_dependencies(s) for s in range(reader.n_sites)]
        for p in range(reader.n_providers):
            postings.append(reader.provider_upstream(p))
            postings.append(reader.provider_consumers(p))
            postings.append(reader.provider_direct_sites(p))
        pairs = [pair for rows in postings for pair in rows]
        assert pairs
        for index, critical in pairs:
            assert type(index) is int
            assert type(critical) is bool

    def test_site_json_says_true_not_one(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(blob)
        engine = QueryEngine(reader)
        rendered = [
            answer(engine, "site", (reader.site_domain(s),))
            for s in range(reader.n_sites)
        ]
        assert any('"critical": true' in text for text in rendered)
        assert not any(re.search(r'"critical": \d', text) for text in rendered)

    def test_warm_reader_answers_like_a_fresh_one(self, blob: bytes) -> None:
        warm = StoreReader.from_bytes(blob)
        queries = every_query(warm)
        warm_engine = QueryEngine(warm, cache_size=1)
        for kind, args in queries:
            answer(warm_engine, kind, args)
        assert len(warm._strings) == warm.n_strings
        for kind, args in queries:
            fresh = QueryEngine(StoreReader.from_bytes(blob), cache_size=1)
            assert answer(warm_engine, kind, args) == answer(fresh, kind, args)


# -- crafted stores: valid trailer, malformed header ---------------------------


def rehash(header_json: bytes, data: bytes) -> bytes:
    """A store envelope around arbitrary header bytes, with a valid trailer."""
    header = header_json + b" " * ((4 - (len(MAGIC) + 8 + len(header_json)) % 4) % 4)
    out = bytearray(MAGIC)
    out += WIRE_VERSION.to_bytes(4, "little")
    out += len(header).to_bytes(4, "little")
    out += header + data
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def with_header(blob: bytes, edit: Callable[[dict[str, Any]], None]) -> bytes:
    header, data = parse_store(blob)
    edit(header)
    return rehash(json.dumps(header, sort_keys=True).encode("utf-8"), bytes(data))


def assert_store_corrupt(crafted: bytes) -> None:
    with pytest.raises(StoreCorruptError) as caught:
        StoreReader.from_bytes(crafted)
    status, document = classify_error(caught.value)
    assert status == 500
    assert document["error"]["type"] == "store-corrupt"


def set_entry(name: str, value: Any) -> Callable[[dict[str, Any]], None]:
    def edit(header: dict[str, Any]) -> None:
        header["sections"][name] = value

    return edit


def set_field(name: str, field: str, value: Any) -> Callable[[dict[str, Any]], None]:
    def edit(header: dict[str, Any]) -> None:
        header["sections"][name][field] = value

    return edit


def drop_field(name: str, field: str) -> Callable[[dict[str, Any]], None]:
    def edit(header: dict[str, Any]) -> None:
        del header["sections"][name][field]

    return edit


def drop_key(key: str) -> Callable[[dict[str, Any]], None]:
    def edit(header: dict[str, Any]) -> None:
        del header[key]

    return edit


def drop_section(name: str) -> Callable[[dict[str, Any]], None]:
    def edit(header: dict[str, Any]) -> None:
        del header["sections"][name]

    return edit


class TestCraftedStores:
    def test_rehash_round_trips_an_untouched_header(self, blob: bytes) -> None:
        reader = StoreReader.from_bytes(with_header(blob, lambda header: None))
        assert reader.n_sites == StoreReader.from_bytes(blob).n_sites

    @pytest.mark.parametrize("header_json", [b"[]", b"1", b'"repro-store/1"', b"null"])
    def test_non_object_header_is_corrupt(self, blob: bytes, header_json: bytes) -> None:
        _, data = parse_store(blob)
        assert_store_corrupt(rehash(header_json, bytes(data)))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(set_entry("site_ranks", []), id="entry-list"),
            pytest.param(set_entry("site_ranks", 7), id="entry-int"),
            pytest.param(set_entry("site_ranks", None), id="entry-null"),
            pytest.param(set_field("site_ranks", "offset", "0"), id="offset-str"),
            pytest.param(set_field("site_ranks", "offset", -4), id="offset-negative"),
            pytest.param(set_field("site_ranks", "offset", 1.5), id="offset-float"),
            pytest.param(set_field("site_ranks", "offset", True), id="offset-bool"),
            pytest.param(set_field("site_ranks", "count", None), id="count-null"),
            pytest.param(set_field("site_ranks", "count", -1), id="count-negative"),
            pytest.param(set_field("site_ranks", "kind", "f64"), id="kind-unknown"),
            pytest.param(set_field("site_ranks", "kind", None), id="kind-null"),
            pytest.param(drop_field("site_ranks", "offset"), id="no-offset"),
            pytest.param(drop_field("site_ranks", "count"), id="no-count"),
            pytest.param(drop_field("site_ranks", "kind"), id="no-kind"),
            pytest.param(set_field("strings_blob", "kind", "u32"), id="blob-as-u32"),
            pytest.param(set_field("string_offsets", "kind", "blob"), id="u32-as-blob"),
            pytest.param(drop_section("provider_trans_crit"), id="no-section"),
            pytest.param(drop_key("sections"), id="no-section-table"),
            pytest.param(drop_key("source_sha256"), id="no-source-digest"),
            pytest.param(drop_key("year"), id="no-year"),
        ],
    )
    def test_malformed_header_is_corrupt(
        self, blob: bytes, edit: Callable[[dict[str, Any]], None]
    ) -> None:
        assert_store_corrupt(with_header(blob, edit))

    def test_non_utf8_string_is_corrupt(self, blob: bytes) -> None:
        header, data = parse_store(blob)
        start = header["sections"]["strings_blob"]["offset"]
        damaged = bytearray(data)
        damaged[start] = 0xFF  # never valid in UTF-8
        reader = StoreReader.from_bytes(
            rehash(json.dumps(header, sort_keys=True).encode("utf-8"), bytes(damaged))
        )
        with pytest.raises(StoreCorruptError):
            reader.string(0)
