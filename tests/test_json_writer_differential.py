"""Differential harness for the canonical JSON writer.

``repro.measurement.jsonwriter.write_json`` replaces ``json.dumps(obj,
indent=1)`` and ``json.dumps(obj, indent=1, sort_keys=True)`` for every
byte-pinned artifact. ``json.dumps`` itself is the oracle: on generated
JSON trees (odd strings, non-finite floats, non-str keys, tuples, empty
containers, int/str/float subclasses and enums) both forms must give the
same text or raise the same exception, and every real artifact (a
dataset, a shard with metrics, each query payload kind, a cascade
trajectory) must come out as the ``json.dumps`` formula it used before.
"""

from __future__ import annotations

import enum
import json
from decimal import Decimal
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_world
from repro.cascade import (
    CascadeEngine,
    dns_outage_config,
    trajectory_to_dict,
    trajectory_to_json,
)
from repro.core import analyze_dataset
from repro.engine import run_campaign
from repro.measurement.io import (
    FORMAT_VERSION,
    SHARD_FORMAT_VERSION,
    dataset_to_json,
    record_codec,
    shard_to_json,
)
from repro.measurement.jsonwriter import write_json
from repro.measurement.records import Dataset, WebsiteMeasurement
from repro.measurement.runner import MeasurementCampaign, ranked_sites
from repro.query import QueryEngine, payload_to_json
from repro.serve.protocol import diff_payloads, error_payload, parse_query
from repro.store import StoreReader, compile_dataset_text
from repro.telemetry import TelemetryConfig

ARTIFACT_N = 150
ARTIFACT_SEED = 23


def _outcome(produce: Callable[[], str]) -> tuple[Any, str]:
    try:
        return "text", produce()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_as_json_dumps(obj: Any) -> None:
    for sort_keys in (False, True):
        assert _outcome(lambda: write_json(obj, sort_keys=sort_keys)) == _outcome(
            lambda: json.dumps(obj, indent=1, sort_keys=sort_keys)
        )


# -- generated trees -----------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Service(str, enum.Enum):
    DNS = "dns"
    CDN = "cdn"


class Name(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


_strings = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", "\x00\x1f\x7f", "café", " \ud800", "\U0001f600", '"\\/']
)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e-320, 1e308, 0.1, float("inf"), float("-inf"), float("nan")]
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    _strings,
    st.sampled_from([Level.LOW, Level.HIGH, Service.DNS, Name("n"), Count(7), Ratio(0.5)]),
)
_keys = st.one_of(
    _strings,
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    _floats,
    st.sampled_from([Level.HIGH, Name("k"), Service.CDN]),
)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_strings, children, max_size=4),
    ),
    max_leaves=40,
)


class TestGeneratedTrees:
    @given(tree=_trees)
    @settings(max_examples=500)
    def test_text_or_error_matches_json_dumps(self, tree):
        assert_same_as_json_dumps(tree)

    @pytest.mark.parametrize(
        "tree",
        [
            [], {}, (), "", 0, None, True,
            [float("nan"), float("inf"), -float("inf"), Ratio("inf")],
            {float("inf"): 1, float("-inf"): 2, float("nan"): 3},
            [[]], {"a": {}}, [(), {}], {"": ""},
            {1: "int", "2": "str"},
            {True: 1, None: 2, 1.5: 3},
        ],
        ids=repr,
    )
    def test_edge_cases(self, tree):
        assert_same_as_json_dumps(tree)


class TestRefusals:
    @pytest.mark.parametrize(
        "tree",
        [
            {1, 2},
            b"bytes",
            object(),
            1j,
            Decimal("1.5"),
            [1, {"a": {2}}],
            {("tuple", "key"): 1},
            {"a": 1, 2: 1},  # sortable only without sort_keys
        ],
        ids=["set", "bytes", "object", "complex", "decimal", "nested-set",
             "tuple-key", "mixed-keys"],
    )
    def test_unsupported_inputs_raise_like_json_dumps(self, tree):
        assert_same_as_json_dumps(tree)

    def test_cycles_raise_like_json_dumps(self):
        loop: list[Any] = [1]
        loop.append(loop)
        mapping: dict[str, Any] = {}
        mapping["self"] = [mapping]
        for tree in (loop, mapping, {"x": (loop,)}):
            with pytest.raises(ValueError, match="Circular reference detected"):
                write_json(tree)
            assert_same_as_json_dumps(tree)

    def test_shared_subtrees_are_not_cycles(self):
        shared = {"k": [1, 2]}
        assert_same_as_json_dumps([shared, shared, {"a": shared}])


# -- real artifacts --------------------------------------------------------------


def reference_canonical(obj: Any) -> Any:
    """The recursive key sort the artifacts used before the writer."""
    if isinstance(obj, dict):
        return {key: reference_canonical(obj[key]) for key in sorted(obj)}
    if isinstance(obj, list):
        return [reference_canonical(item) for item in obj]
    return obj


@pytest.fixture(scope="module")
def artifacts() -> dict[str, Any]:
    world = build_world(WorldConfig(n_websites=ARTIFACT_N, seed=ARTIFACT_SEED))
    telemetry = TelemetryConfig(metrics=True).build()
    campaign = MeasurementCampaign(world, telemetry=telemetry)
    websites = [
        campaign.measure_site(domain, rank)
        for domain, rank in ranked_sites(world, limit=20)
    ]
    metrics = telemetry.drain_metrics()
    dataset = run_campaign(world=world)
    snapshot = analyze_dataset(dataset)
    text = dataset_to_json(dataset)
    engine = QueryEngine(StoreReader.from_bytes(compile_dataset_text(text)))
    trajectory = CascadeEngine(
        snapshot, dns_outage_config(world, "dyn")
    ).run()
    return {
        "dataset": dataset,
        "websites": websites,
        "metrics": metrics,
        "snapshot": snapshot,
        "engine": engine,
        "trajectory": trajectory,
    }


class TestArtifacts:
    def test_dataset(self, artifacts):
        dataset = artifacts["dataset"]
        payload = record_codec(Dataset).encode(dataset)
        payload["format_version"] = FORMAT_VERSION
        canonical = reference_canonical(payload)
        canonical["notes"] = dict(dataset.notes)
        assert list(dataset.notes) != sorted(dataset.notes)
        assert dataset_to_json(dataset) == json.dumps(canonical, indent=1)

    def test_shard_with_and_without_metrics(self, artifacts):
        websites, metrics = artifacts["websites"], artifacts["metrics"]
        assert metrics and metrics["counters"] and metrics["histograms"]
        encode = record_codec(WebsiteMeasurement).encode
        payload: dict[str, Any] = {
            "shard_format_version": SHARD_FORMAT_VERSION,
            "websites": [encode(w) for w in websites],
        }
        assert shard_to_json(websites) == json.dumps(
            reference_canonical(payload), indent=1
        )
        payload["metrics"] = metrics
        assert shard_to_json(websites, metrics) == json.dumps(
            reference_canonical(payload), indent=1
        )

    def test_every_query_payload_kind(self, artifacts):
        engine, snapshot = artifacts["engine"], artifacts["snapshot"]
        providers = [str(node) for node in snapshot.graph.providers()][:15]
        domains = [site.domain for site in snapshot.websites][:15]
        payloads = [engine.top(k, mode, service)
                    for k in (1, 10) for mode in ("impact", "concentration")
                    for service in ("dns", "cdn", "ca")]
        payloads += [engine.site(domain) for domain in domains]
        payloads += [engine.dependents(key) for key in providers]
        payloads += [engine.whatif(key) for key in providers]
        top = parse_query({"kind": "top", "k": 5, "mode": "impact", "service": "dns"})
        payloads.append(diff_payloads(top, payloads[0], payloads[1]))
        payloads.append(error_payload("not_found", "no such site: café.example"))
        for payload in payloads:
            assert payload_to_json(payload) == json.dumps(payload, indent=1, sort_keys=True)

    def test_cascade_trajectory(self, artifacts):
        trajectory = artifacts["trajectory"]
        assert trajectory.transitions
        assert trajectory_to_json(trajectory) == json.dumps(
            trajectory_to_dict(trajectory), indent=1, sort_keys=True
        )
