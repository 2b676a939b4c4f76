"""Wire-format contract tests for the ``repro-store/1`` binary store.

Three layers of assurance: hypothesis proves the compile → load →
recompile loop is byte-stable across generated worlds and that *any*
single-bit flip or truncation is rejected with a typed error; targeted
tests pin the error taxonomy (future wire version → ``StoreVersionError``,
everything else → ``StoreCorruptError``); a golden file freezes the CLI
``query --top 5`` JSON answer for the canonical frozen dataset, so wire
or ranking drift shows up as a reviewable diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_world
from repro.engine import run_campaign
from repro.measurement.io import dataset_to_json
from repro.query import LRUCache, QueryEngine
from repro.store import (
    SCHEMA,
    StoreCorruptError,
    StoreError,
    StoreReader,
    StoreVersionError,
    WIRE_VERSION,
    compile_dataset_text,
    compile_file,
)
from repro.store.format import MAGIC

GOLDEN_DIR = Path(__file__).parent / "goldens"
VERSION_OFFSET = len(MAGIC)  # the u32 wire version sits right after magic


def small_dataset_text(n: int, seed: int, limit: int) -> str:
    world = build_world(WorldConfig(n_websites=n, seed=seed))
    return dataset_to_json(run_campaign(world=world, limit=limit))


@pytest.fixture(scope="module")
def frozen_text() -> str:
    # The committed golden dataset: stable input for every wire test.
    return (GOLDEN_DIR / "dataset_nofault.json").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def frozen_blob(frozen_text: str) -> bytes:
    return compile_dataset_text(frozen_text)


class TestRoundTrip:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=100, max_value=140),
        seed=st.integers(min_value=0, max_value=9999),
        limit=st.integers(min_value=15, max_value=40),
    )
    def test_compile_load_recompile_is_byte_identical(
        self, n: int, seed: int, limit: int
    ):
        text = small_dataset_text(n, seed, limit)
        blob = compile_dataset_text(text)
        reader = StoreReader.from_bytes(blob)
        assert reader.header["schema"] == SCHEMA
        assert reader.n_sites == limit
        # The store answers basic shape questions without re-parsing JSON.
        for i in range(reader.n_sites):
            assert reader.find_site(reader.site_domain(i)) == i
        assert compile_dataset_text(text) == blob

    def test_compile_file_round_trips_through_mmap(
        self, frozen_text, frozen_blob, tmp_path
    ):
        src = tmp_path / "ds.json"
        src.write_text(frozen_text, encoding="utf-8")
        out = tmp_path / "ds.rstore"
        written = compile_file(str(src), str(out))
        assert written == out.stat().st_size
        assert out.read_bytes() == frozen_blob
        reader = StoreReader.load(str(out))
        assert reader.n_sites == 25
        assert reader.header["year"] == 2020

    def test_header_records_source_digest(self, frozen_text, frozen_blob):
        import hashlib

        header = StoreReader.from_bytes(frozen_blob).header
        expected = hashlib.sha256(frozen_text.encode("utf-8")).hexdigest()
        assert header["source_sha256"] == expected


class TestCorruptionRejection:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_is_rejected(self, frozen_blob, data):
        pos = data.draw(
            st.integers(min_value=0, max_value=len(frozen_blob) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = bytearray(frozen_blob)
        mutated[pos] ^= 1 << bit
        with pytest.raises(StoreError):
            StoreReader.from_bytes(bytes(mutated))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_corrupt(self, frozen_blob, data):
        keep = data.draw(
            st.integers(min_value=0, max_value=len(frozen_blob) - 1)
        )
        with pytest.raises(StoreCorruptError):
            StoreReader.from_bytes(frozen_blob[:keep])

    def test_future_wire_version_raises_version_error(self, frozen_blob):
        mutated = bytearray(frozen_blob)
        future = WIRE_VERSION + 1
        mutated[VERSION_OFFSET : VERSION_OFFSET + 4] = future.to_bytes(
            4, "little"
        )
        with pytest.raises(StoreVersionError) as exc:
            StoreReader.from_bytes(bytes(mutated))
        # The message must name both versions so operators can triage.
        assert str(future) in str(exc.value)
        assert str(WIRE_VERSION) in str(exc.value)

    def test_bad_magic_is_corrupt_not_version(self, frozen_blob):
        mutated = b"NOTSTORE" + frozen_blob[len(MAGIC) :]
        with pytest.raises(StoreCorruptError):
            StoreReader.from_bytes(mutated)

    def test_digest_flip_is_corrupt(self, frozen_blob):
        mutated = bytearray(frozen_blob)
        mutated[-1] ^= 0xFF
        with pytest.raises(StoreCorruptError):
            StoreReader.from_bytes(bytes(mutated))

    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "empty.rstore"
        path.write_bytes(b"")
        with pytest.raises(StoreCorruptError):
            StoreReader.load(str(path))

    def test_truncated_file_on_disk_is_corrupt(self, frozen_blob, tmp_path):
        path = tmp_path / "short.rstore"
        path.write_bytes(frozen_blob[: len(frozen_blob) // 2])
        with pytest.raises(StoreCorruptError):
            StoreReader.load(str(path))


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_counters_track_hits_misses_evictions(self):
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("x")
        cache.put("b", 2)
        stats = cache.stats()
        assert stats == {
            "capacity": 1,
            "size": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite refreshes recency; 'b' evicts next
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestGoldenQuery:
    def test_top5_dns_matches_golden(
        self, frozen_blob, tmp_path, capsys, regen_goldens
    ):
        """The full CLI path — compiled store to ``--json`` answer —
        frozen as a golden so ranking or wire drift is a visible diff."""
        from repro.cli import main

        from .test_golden_corpus import _check_golden

        store = tmp_path / "golden.rstore"
        store.write_bytes(frozen_blob)
        assert main(
            ["query", str(store), "--top", "5", "--service", "dns", "--json"]
        ) == 0
        out = capsys.readouterr().out
        json.loads(out)  # the golden must stay machine-readable
        _check_golden("query_top5_dns.json", out, regen_goldens)

    def test_engine_agrees_with_golden_file(self, frozen_blob, regen_goldens):
        if regen_goldens:
            pytest.skip("regenerating goldens")
        from repro.query import payload_to_json

        engine = QueryEngine(StoreReader.from_bytes(frozen_blob))
        expected = (GOLDEN_DIR / "query_top5_dns.json").read_text(
            encoding="utf-8"
        )
        assert payload_to_json(engine.top(5, "impact", "dns")) + "\n" == expected
