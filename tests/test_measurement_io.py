"""Tests for dataset JSON serialization (measure once, analyze offline)."""

import dataclasses
import json
from pathlib import Path
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_dataset
from repro.measurement import records
from repro.measurement.io import (
    FORMAT_VERSION,
    DatasetFormatError,
    OLDEST_READABLE_VERSION,
    SHARD_FORMAT_VERSION,
    WireVersionError,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    record_codec,
    save_dataset,
    shard_payload_from_json,
    shard_to_json,
    upgrade_dataset_payload,
)
from repro.measurement.records import Dataset
from repro.telemetry.metrics import MetricsRegistry

GOLDEN_NOFAULT = Path(__file__).parent / "goldens" / "dataset_nofault.json"
DECODERS = pytest.mark.parametrize(
    "decode", [dataset_from_json, shard_payload_from_json],
    ids=["dataset", "shard"],
)


class TestRoundtrip:
    def test_full_roundtrip_equality(self, snapshot_2020):
        dataset = snapshot_2020.dataset
        restored = dataset_from_json(dataset_to_json(dataset))
        assert restored.year == dataset.year
        assert restored.notes == dataset.notes
        assert len(restored.websites) == len(dataset.websites)
        for original, copied in zip(dataset.websites, restored.websites):
            assert copied.domain == original.domain
            assert copied.rank == original.rank
            assert copied.dns.nameservers == original.dns.nameservers
            assert copied.dns.website_soa == original.dns.website_soa
            assert copied.dns.nameserver_soas == original.dns.nameserver_soas
            assert copied.tls.san == original.tls.san
            assert copied.tls.ocsp_urls == original.tls.ocsp_urls
            assert copied.tls.endpoint_soas == original.tls.endpoint_soas
            assert copied.cdn.detected_cdns == original.cdn.detected_cdns
            assert copied.cdn.cname_soas == original.cdn.cname_soas
        assert set(restored.cdn_dns) == set(dataset.cdn_dns)
        assert set(restored.ca_dns) == set(dataset.ca_dns)
        assert set(restored.ca_cdn) == set(dataset.ca_cdn)

    def test_serialization_is_deterministic(self, snapshot_2020):
        dataset = snapshot_2020.dataset
        assert dataset_to_json(dataset) == dataset_to_json(dataset)

    def test_analysis_identical_on_restored_dataset(self, snapshot_2020):
        """The paper workflow: re-analysis of a frozen dataset must agree."""
        restored = dataset_from_json(dataset_to_json(snapshot_2020.dataset))
        reanalyzed = analyze_dataset(
            restored,
            rank_scale=snapshot_2020.rank_scale,
            concentration_threshold=snapshot_2020.concentration_threshold,
        )
        original_by_domain = snapshot_2020.by_domain()
        for website in reanalyzed.websites:
            original = original_by_domain[website.domain]
            assert website.dns.uses_third_party == original.dns.uses_third_party
            assert website.dns.is_critical == original.dns.is_critical
            assert website.ca.is_critical == original.ca.is_critical
            assert sorted(c.cdn_name for c in website.cdns) == sorted(
                c.cdn_name for c in original.cdns
            )

    def test_file_roundtrip(self, snapshot_2020, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset(snapshot_2020.dataset, str(path))
        restored = load_dataset(str(path))
        assert len(restored.websites) == len(snapshot_2020.dataset.websites)

    def test_version_check(self):
        with pytest.raises(ValueError):
            dataset_from_json('{"format_version": 99, "year": 2020}')


class TestFormatVersionErrors:
    def test_mismatch_names_found_and_supported(self):
        with pytest.raises(ValueError) as excinfo:
            dataset_from_json('{"format_version": 99, "year": 2020}')
        message = str(excinfo.value)
        assert "99" in message
        assert f"supports version {FORMAT_VERSION}" in message

    def test_missing_version_reports_none(self):
        with pytest.raises(ValueError, match="None"):
            dataset_from_json('{"year": 2020}')

    def test_shard_version_mismatch(self):
        with pytest.raises(ValueError) as excinfo:
            shard_payload_from_json(
                '{"shard_format_version": 7, "websites": []}'
            )
        message = str(excinfo.value)
        assert "7" in message
        assert f"supports version {SHARD_FORMAT_VERSION}" in message

    def test_errors_are_wire_version_errors(self):
        # The dedicated type is catchable, and still a ValueError for
        # callers with older except clauses.
        assert issubclass(WireVersionError, ValueError)
        with pytest.raises(WireVersionError):
            dataset_from_json('{"format_version": 99, "year": 2020}')
        with pytest.raises(WireVersionError):
            shard_payload_from_json(
                '{"shard_format_version": 0, "websites": []}'
            )

    @pytest.mark.parametrize(
        "version", [0, FORMAT_VERSION + 1, "3", True, None, 2.0]
    )
    def test_unreadable_dataset_versions_are_refused(self, version):
        payload = json.dumps({"format_version": version, "year": 2020})
        with pytest.raises(WireVersionError) as excinfo:
            dataset_from_json(payload)
        # The message names the found version and the upgrade range.
        message = str(excinfo.value)
        assert repr(version) in message
        assert (
            f"versions {OLDEST_READABLE_VERSION}-{FORMAT_VERSION - 1}"
            in message
        )


# -- historical-format upgrades ---------------------------------------------
#
# The inverses of the io module's upgraders: tests *downgrade* a current
# payload to the documented v2/v1 layouts, then assert that reading the
# old bytes reproduces the current serialization exactly.


def _soa_v2_to_v1(data):
    return None if data is None else [data["mname"], data["rname"]]


def _soa_map_v2_to_v1(data):
    return {name: _soa_v2_to_v1(entry) for name, entry in data.items()}


def _website_v3_to_v2(entry):
    out = dict(entry)
    for key in ("dns", "tls", "cdn"):
        observation = dict(out[key])
        del observation["attempts"]
        del observation["failure_mode"]
        del observation["degraded"]
        out[key] = observation
    return out


def _website_v2_to_v1(entry):
    dns = dict(entry["dns"])
    del dns["domain"]
    dns["website_soa"] = _soa_v2_to_v1(dns["website_soa"])
    dns["nameserver_soas"] = _soa_map_v2_to_v1(dns["nameserver_soas"])
    tls = dict(entry["tls"])
    del tls["domain"]
    tls["endpoint_soas"] = _soa_map_v2_to_v1(tls["endpoint_soas"])
    cdn = dict(entry["cdn"])
    del cdn["domain"]
    cdn["cname_soas"] = _soa_map_v2_to_v1(cdn["cname_soas"])
    return {
        "domain": entry["domain"],
        "rank": entry["rank"],
        "dns": dns,
        "tls": tls,
        "cdn": cdn,
    }


def _provider_v2_to_v1(entry):
    out = dict(entry)
    del out["provider_name"]
    out["domain_soa"] = _soa_v2_to_v1(out["domain_soa"])
    out["nameserver_soas"] = _soa_map_v2_to_v1(out["nameserver_soas"])
    return out


def _revocation_v2_to_v1(entry):
    out = dict(entry)
    del out["ca_name"]
    out["cname_soas"] = _soa_map_v2_to_v1(out["cname_soas"])
    return out


def _downgrade_dataset_to_v2(payload):
    out = dict(payload)
    out["websites"] = [_website_v3_to_v2(w) for w in payload["websites"]]
    out["format_version"] = 2
    return out


def _downgrade_dataset_to_v1(payload):
    out = _downgrade_dataset_to_v2(payload)
    out["websites"] = [_website_v2_to_v1(w) for w in out["websites"]]
    out["cdn_dns"] = {
        name: _provider_v2_to_v1(entry)
        for name, entry in out["cdn_dns"].items()
    }
    out["ca_dns"] = {
        name: _provider_v2_to_v1(entry)
        for name, entry in out["ca_dns"].items()
    }
    out["ca_cdn"] = {
        name: _revocation_v2_to_v1(entry)
        for name, entry in out["ca_cdn"].items()
    }
    out["format_version"] = 1
    return out


class TestMalformedPayloads:
    """Malformed datasets and shards raise one typed error, never a bare
    KeyError/TypeError/AttributeError from deep inside the decoder."""

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "null",
            '"dataset"',
            "{not json",
            '{"format_version": 3}',
            '{"format_version": 3, "websites": 5}',
            '{"format_version": 3, "year": 2020, "websites": 5}',
            '{"format_version": 3, "year": 2020, "websites": [5]}',
            '{"format_version": 3, "year": 2020, "websites": [{"dns": []}]}',
            '{"format_version": 1, "year": 2020, "websites": [{}]}',
        ],
    )
    def test_dataset(self, text):
        with pytest.raises(DatasetFormatError):
            dataset_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "null",
            "{not json",
            f'{{"shard_format_version": {SHARD_FORMAT_VERSION}}}',
            f'{{"shard_format_version": {SHARD_FORMAT_VERSION}, "websites": [1, 2]}}',
            f'{{"shard_format_version": {SHARD_FORMAT_VERSION}, "websites": [[]]}}',
            '{"shard_format_version": 1, "websites": [{"domain": "a.com"}]}',
            # A shard's metrics must be a registry the resume merge can fold.
            *(
                f'{{"shard_format_version": {SHARD_FORMAT_VERSION}, '
                f'"websites": [], "metrics": {metrics}}}'
                for metrics in (
                    '"junk"',
                    "[]",
                    '{"counters": {"sites": "many"}}',
                    '{"histograms": {"ms": {"bounds": [1], "counts": [1]}}}',
                )
            ),
        ],
    )
    def test_shard(self, text):
        with pytest.raises(DatasetFormatError):
            shard_payload_from_json(text)

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("dns", "nameservers"), "ns1.example.net",
             "DnsObservation.nameservers: expected array, found str"),
            (("rank",), "first", "WebsiteMeasurement.rank: expected int"),
        ],
        ids=["nameservers-as-string", "rank-as-string"],
    )
    @DECODERS
    def test_mistyped_field(self, decode, path, value, field):
        """A field of the wrong JSON type is refused, naming the field —
        not decoded into a string's characters or a non-integer rank."""
        golden = json.loads(GOLDEN_NOFAULT.read_text(encoding="utf-8"))
        if decode is dataset_from_json:
            payload = golden
        else:
            payload = {
                "shard_format_version": SHARD_FORMAT_VERSION,
                "websites": golden["websites"],
            }
        _swap(payload, ("websites", 0, *path), value)
        with pytest.raises(DatasetFormatError, match=field):
            decode(json.dumps(payload))

    def test_version_errors_are_format_errors(self):
        assert issubclass(WireVersionError, DatasetFormatError)
        assert issubclass(DatasetFormatError, ValueError)


class TestUpgradePaths:
    def test_v2_dataset_reads_to_current_bytes(self, snapshot_2020):
        current = dataset_to_json(snapshot_2020.dataset)
        v2_text = json.dumps(_downgrade_dataset_to_v2(json.loads(current)))
        assert dataset_to_json(dataset_from_json(v2_text)) == current

    def test_v1_dataset_reads_to_current_bytes(self, snapshot_2020):
        current = dataset_to_json(snapshot_2020.dataset)
        v1_text = json.dumps(_downgrade_dataset_to_v1(json.loads(current)))
        assert dataset_to_json(dataset_from_json(v1_text)) == current

    def test_upgrade_dataset_payload_lands_on_current_version(
        self, snapshot_2020
    ):
        payload = json.loads(dataset_to_json(snapshot_2020.dataset))
        for downgrade in (_downgrade_dataset_to_v1, _downgrade_dataset_to_v2):
            upgraded = upgrade_dataset_payload(downgrade(payload))
            assert upgraded["format_version"] == FORMAT_VERSION

    def test_v1_shard_reads_to_current_bytes(self, snapshot_2020):
        websites = snapshot_2020.dataset.websites[:10]
        current = shard_to_json(websites)
        payload = json.loads(current)
        payload["websites"] = [
            _website_v2_to_v1(_website_v3_to_v2(w))
            for w in payload["websites"]
        ]
        payload["shard_format_version"] = 1
        restored = shard_payload_from_json(json.dumps(payload))[0]
        assert shard_to_json(restored) == current

    def test_v2_shard_reads_to_current_bytes(self, snapshot_2020):
        websites = snapshot_2020.dataset.websites[:10]
        current = shard_to_json(websites)
        payload = json.loads(current)
        payload["websites"] = [
            _website_v3_to_v2(w) for w in payload["websites"]
        ]
        payload["shard_format_version"] = 2
        restored = shard_payload_from_json(json.dumps(payload))[0]
        assert shard_to_json(restored) == current

    def test_upgraded_degradation_fields_default_to_clean(self, snapshot_2020):
        v1_text = json.dumps(
            _downgrade_dataset_to_v1(
                json.loads(dataset_to_json(snapshot_2020.dataset))
            )
        )
        restored = dataset_from_json(v1_text)
        for website in restored.websites[:20]:
            for observation in (website.dns, website.tls, website.cdn):
                assert observation.attempts == 1
                assert observation.failure_mode == ""
                assert observation.degraded is False


class TestNotesOrder:
    def test_roundtrip_preserves_insertion_order(self):
        dataset = Dataset(year=2020)
        dataset.notes["zebra"] = 3
        dataset.notes["apple"] = 1
        dataset.notes["mango"] = 2
        restored = dataset_from_json(dataset_to_json(dataset))
        assert list(restored.notes) == ["zebra", "apple", "mango"]
        assert restored.notes == dataset.notes

    def test_campaign_notes_order_survives(self, snapshot_2020):
        dataset = snapshot_2020.dataset
        restored = dataset_from_json(dataset_to_json(dataset))
        assert list(restored.notes) == list(dataset.notes)

    def test_notes_are_the_one_field_a_payload_may_omit(self):
        payload = json.loads(dataset_to_json(Dataset(year=2020)))
        del payload["notes"]
        assert dataset_from_json(json.dumps(payload)).notes == {}
        del payload["ca_cdn"]
        with pytest.raises(DatasetFormatError, match="ca_cdn"):
            dataset_from_json(json.dumps(payload))


class TestRecordCodec:
    """The codec keeps the serialization contract by construction: it
    refuses, when it builds a class's encoder and decoder, a record that
    is not frozen or a field type it cannot convert."""

    def test_every_record_class_is_frozen_and_has_a_codec(self):
        classes = [
            value for value in vars(records).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == records.__name__
        ]
        assert len(classes) == 8
        for cls in classes:
            assert cls.__dataclass_params__.frozen, cls.__name__
            record_codec(cls)

    def test_refuses_a_class_that_is_not_frozen(self):
        mutable = dataclasses.make_dataclass("Mutable", [("domain", str)])
        with pytest.raises(TypeError, match="Mutable is not a frozen"):
            record_codec(mutable)

    @pytest.mark.parametrize(
        "field_type",
        [set[str], dict[int, str], tuple[str, int], Any, list[Any],
         Optional[set[str]]],
        ids=repr,
    )
    def test_refuses_a_field_type_it_cannot_convert(self, field_type):
        tagged = dataclasses.make_dataclass(
            "Tagged", [("tags", field_type)], frozen=True
        )
        with pytest.raises(TypeError, match="Tagged.tags: cannot convert"):
            record_codec(tagged)

    def test_refuses_a_mutable_nested_record(self):
        inner = dataclasses.make_dataclass("Inner", [("name", str)])
        outer = dataclasses.make_dataclass(
            "Outer", [("inner", inner)], frozen=True
        )
        with pytest.raises(TypeError, match="Outer.inner: Inner is not"):
            record_codec(outer)


class TestShardRoundtrip:
    def test_shard_roundtrip_is_lossless(self, snapshot_2020):
        websites = snapshot_2020.dataset.websites[:20]
        payload = shard_to_json(websites)
        restored = shard_payload_from_json(payload)[0]
        assert len(restored) == 20
        # Re-serialization of the restored shard reproduces the bytes —
        # the property the engine's checkpoint/merge path relies on.
        assert shard_to_json(restored) == payload
        for original, copied in zip(websites, restored):
            assert copied.domain == original.domain
            assert copied.rank == original.rank
            assert copied.dns.nameservers == original.dns.nameservers
            assert copied.tls.san == original.tls.san
            assert copied.cdn.detected_cdns == original.cdn.detected_cdns

    def test_empty_shard(self):
        assert shard_payload_from_json(shard_to_json([]))[0] == []


DEEP = 200_000


class TestDeepNesting:
    @pytest.mark.parametrize(
        "text",
        [
            "[" * DEEP,
            '{"format_version": 3, "year": 2020, "websites": '
            + "[" * DEEP + "]" * DEEP + "}",
        ],
        ids=["top-level", "under-websites"],
    )
    @DECODERS
    def test_deep_nesting_is_a_format_error(self, decode, text):
        with pytest.raises(DatasetFormatError, match="nests too deeply"):
            decode(text)


def _paths(node, prefix=()):
    """Every path into a decoded JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _swap(payload, path, replacement):
    if not path:
        return replacement
    node = payload
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = replacement
    return payload


def _at(payload, path):
    for step in path:
        payload = payload[step]
    return payload


_REPLACEMENTS = [None, True, 0, -1, 1.5, 1e308, "", "x", [], [None], {}, {"k": 1}]


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory) -> dict:
    """A committed golden dataset and a real checkpoint shard with
    metrics, from a small engine run."""
    from repro import WorldConfig
    from repro.engine import run_campaign
    from repro.telemetry import TelemetryConfig

    ckpt = tmp_path_factory.mktemp("fuzz") / "ckpt"
    run_campaign(
        WorldConfig(n_websites=120, seed=17), shards=2, limit=6,
        checkpoint_dir=str(ckpt),
        telemetry=TelemetryConfig(metrics=True).build(),
    )
    return {
        dataset_from_json: GOLDEN_NOFAULT.read_text(encoding="utf-8"),
        shard_payload_from_json: (ckpt / "shard-0000.json").read_text(
            encoding="utf-8"
        ),
    }


def _decode_or_refuse(decode, text: str) -> None:
    """Only DatasetFormatError may escape; an accepted shard's metrics
    must fold into a registry the way a resume merge folds them."""
    try:
        result = decode(text)
    except DatasetFormatError:
        return
    if decode is shard_payload_from_json and result[1] is not None:
        MetricsRegistry().merge_dict(result[1])


class TestDecoderFuzz:
    """Byte-level fuzz of both decoders, seeded with real payloads."""

    @DECODERS
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, fuzz_seeds, decode, data):
        raw = bytearray(fuzz_seeds[decode].encode("utf-8"))
        flips = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(raw) - 1), st.integers(1, 255)
            ),
            min_size=1, max_size=8,
        ))
        for position, mask in flips:
            raw[position] ^= mask
        _decode_or_refuse(decode, raw.decode("utf-8", errors="replace"))

    @DECODERS
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncations(self, fuzz_seeds, decode, data):
        text = fuzz_seeds[decode]
        cut = data.draw(st.integers(0, len(text) - 1))
        _decode_or_refuse(decode, text[:cut])

    @DECODERS
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_type_swaps(self, fuzz_seeds, decode, data):
        payload = json.loads(fuzz_seeds[decode])
        paths = list(_paths(payload))
        swaps = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(paths) - 1),
                st.sampled_from(_REPLACEMENTS),
            ),
            min_size=1, max_size=3,
        ))
        for index, replacement in swaps:
            try:
                payload = _swap(payload, paths[index], replacement)
            except (KeyError, IndexError, TypeError):
                pass  # an earlier swap removed this path
        _decode_or_refuse(decode, json.dumps(payload))

    @DECODERS
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_wrong_json_type_in_a_record_is_refused(
        self, fuzz_seeds, decode, data
    ):
        """Replacing one value inside a website record with a value of
        another JSON type always raises: records hold no float and no
        untyped field, and ``null`` is wrong wherever an object or a
        scalar was (an ``Optional`` field's ``null`` is left alone)."""
        payload = json.loads(fuzz_seeds[decode])
        paths = [
            path for path in _paths(payload["websites"], ("websites",))
            if len(path) > 2 and _at(payload, path) is not None
        ]
        path = data.draw(st.sampled_from(paths))
        original = _at(payload, path)
        replacement = data.draw(st.sampled_from([
            value for value in _REPLACEMENTS
            if type(value) is not type(original)
            and not (value is None and isinstance(original, dict))
        ]))
        _swap(payload, path, replacement)
        with pytest.raises(DatasetFormatError):
            decode(json.dumps(payload))
