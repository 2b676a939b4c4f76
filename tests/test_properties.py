"""Property-based tests (hypothesis) for core data structures & invariants."""

import json
import random

from hypothesis import given, settings, strategies as st

from repro.core.graph import DependencyGraph, ProviderNode, ServiceType
from repro.dnssim.cache import DnsCache, NegativeCacheHit
from repro.dnssim.clock import SimulatedClock
from repro.dnssim.records import ARecord, RRType, ResourceRecord
from repro.faults.plan import FaultPlan, FaultRule
from repro.measurement.io import (
    dataset_from_json,
    dataset_to_json,
    record_codec,
    shard_payload_from_json,
    shard_to_json,
)
from repro.measurement.jsonwriter import write_json
from repro.measurement.records import (
    CdnObservation,
    Dataset,
    DnsObservation,
    ProviderDnsObservation,
    RevocationEndpointObservation,
    SoaIdentity,
    TlsObservation,
    WebsiteMeasurement,
)
from repro.names.normalize import normalize, split_labels
from repro.names.psl import default_psl
from repro.names.registrable import is_subdomain_of, registrable_domain

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10
)
_hostnames = st.lists(_label, min_size=1, max_size=5).map(".".join)


class TestNameProperties:
    @given(_hostnames)
    def test_normalize_idempotent(self, name):
        assert normalize(normalize(name)) == normalize(name)

    @given(_hostnames)
    def test_split_join_roundtrip(self, name):
        assert ".".join(split_labels(name)) == normalize(name)

    @given(_hostnames)
    def test_registrable_domain_is_suffix_of_name(self, name):
        base = registrable_domain(name)
        if base is not None:
            assert is_subdomain_of(name, base)

    @given(_hostnames)
    def test_registrable_domain_idempotent(self, name):
        base = registrable_domain(name)
        if base is not None:
            assert registrable_domain(base) == base

    @given(_hostnames)
    def test_public_suffix_shorter_than_registrable(self, name):
        psl = default_psl()
        suffix = psl.public_suffix(name)
        base = psl.registrable_domain(name)
        if base is not None and suffix is not None:
            assert len(split_labels(base)) == len(split_labels(suffix)) + 1

    @given(_hostnames, _label)
    def test_subdomain_relation_transitive_upward(self, name, extra):
        child = f"{extra}.{name}"
        assert is_subdomain_of(child, name)


class TestCacheProperties:
    @given(
        entries=st.lists(
            st.tuples(_hostnames, st.integers(1, 10_000)),
            min_size=1, max_size=30,
        ),
        advance=st.integers(0, 12_000),
    )
    @settings(max_examples=50)
    def test_cache_never_serves_expired(self, entries, advance):
        clock = SimulatedClock()
        cache = DnsCache(clock)
        for name, ttl in entries:
            cache.put(name, RRType.A, [ResourceRecord(name, ttl, ARecord("10.0.0.1"))])
        clock.advance(advance)
        for name, ttl in entries:
            try:
                got = cache.get(name, RRType.A)
            except NegativeCacheHit:
                raise AssertionError("no negative entries were inserted")
            if got is not None:
                # The freshest insert for this name must still be valid.
                max_ttl = max(t for n, t in entries if normalize(n) == normalize(name))
                assert advance <= max_ttl

    @given(st.integers(1, 20), st.integers(21, 60))
    @settings(max_examples=30)
    def test_capacity_bound_holds(self, capacity, inserts):
        clock = SimulatedClock()
        cache = DnsCache(clock, max_entries=capacity)
        for i in range(inserts):
            cache.put(f"h{i}.example", RRType.A,
                      [ResourceRecord(f"h{i}.example", 100, ARecord("10.0.0.1"))])
        assert len(cache) <= capacity


def _random_graph(rng: random.Random) -> DependencyGraph:
    graph = DependencyGraph()
    services = list(ServiceType)
    providers = [
        ProviderNode(f"p{i}", rng.choice(services)) for i in range(rng.randint(2, 8))
    ]
    for i in range(rng.randint(3, 25)):
        provider = rng.choice(providers)
        graph.add_website_dependency(
            f"site{i}.com", provider, critical=rng.random() < 0.6
        )
    for _ in range(rng.randint(0, 10)):
        a, b = rng.sample(providers, 2) if len(providers) >= 2 else (None, None)
        if a is not None:
            graph.add_provider_dependency(a, b, critical=rng.random() < 0.5)
    return graph


class TestGraphProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_concentration_bounds_impact(self, seed):
        graph = _random_graph(random.Random(seed))
        for provider in graph.providers():
            concentration = graph.concentration(provider)
            impact = graph.impact(provider)
            assert 0 <= impact <= concentration <= len(graph.websites())

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_indirect_dominates_direct(self, seed):
        graph = _random_graph(random.Random(seed))
        for provider in graph.providers():
            assert graph.concentration(provider) >= graph.direct_concentration(provider)
            assert graph.impact(provider) >= graph.direct_impact(provider)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_dependents_are_real_websites(self, seed):
        graph = _random_graph(random.Random(seed))
        websites = set(graph.websites())
        for provider in graph.providers():
            assert graph.dependent_websites(provider) <= websites

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_top_providers_sorted(self, seed):
        graph = _random_graph(random.Random(seed))
        for service in ServiceType:
            scores = [s for _, s in graph.top_providers(service, 10)]
            assert scores == sorted(scores, reverse=True)


class TestWireFormatProperty:
    @given(
        st.lists(
            st.tuples(_hostnames, st.integers(0, 3600)),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=40)
    def test_message_roundtrip_many_records(self, records):
        from repro.dnssim.message import DnsMessage

        msg = DnsMessage.query(records[0][0], RRType.A).response()
        msg.answers = [
            ResourceRecord(name, ttl, ARecord("10.1.2.3"))
            for name, ttl in records
        ]
        out = DnsMessage.from_wire(msg.to_wire())
        assert out.answers == msg.answers

    @given(
        qname=_hostnames,
        msg_id=st.integers(0, 0xFFFF),
        rcode_value=st.sampled_from([0, 2, 3, 5]),
        aa=st.booleans(),
        tc=st.booleans(),
    )
    @settings(max_examples=60)
    def test_header_flags_and_rcode_roundtrip(
        self, qname, msg_id, rcode_value, aa, tc
    ):
        """Every header bit the fault injector manipulates (rcode, AA,
        TC) survives the wire — what SERVFAIL/lame/truncate faults rely
        on to reach the resolver intact."""
        from repro.dnssim.message import DnsMessage, RCode

        msg = DnsMessage.query(qname, RRType.A, msg_id=msg_id).response(
            RCode(rcode_value), aa=aa
        )
        msg.tc = tc
        out = DnsMessage.from_wire(msg.to_wire())
        assert out.id == msg_id
        assert out.rcode == RCode(rcode_value)
        assert out.aa is aa
        assert out.tc is tc
        assert out.question is not None
        assert out.question.qname == normalize(qname)


# -- v3 measurement-record strategies ---------------------------------------

_soas = st.none() | st.builds(SoaIdentity, mname=_hostnames, rname=_hostnames)
_soa_maps = st.dictionaries(_hostnames, _soas, max_size=4)
_failures = st.sampled_from(
    ["", "dns: no reachable authoritative servers",
     "http: status 502", "tcp: all addresses unreachable"]
)
_attempts = st.integers(1, 5)
_hostname_lists = st.lists(_hostnames, max_size=4)
_chain_maps = st.dictionaries(_hostnames, _hostname_lists, max_size=3)

_dns_observations = st.builds(
    DnsObservation,
    domain=_hostnames,
    nameservers=_hostname_lists,
    website_soa=_soas,
    nameserver_soas=_soa_maps,
    resolvable=st.booleans(),
    attempts=_attempts,
    failure_mode=_failures,
    degraded=st.booleans(),
)
_tls_observations = st.builds(
    TlsObservation,
    domain=_hostnames,
    https=st.booleans(),
    san=_hostname_lists.map(tuple),
    issuer=_label,
    ocsp_urls=_hostname_lists.map(lambda hs: tuple(f"http://{h}/" for h in hs)),
    crl_urls=_hostname_lists.map(lambda hs: tuple(f"http://{h}/crl" for h in hs)),
    ocsp_stapled=st.booleans(),
    endpoint_soas=_soa_maps,
    attempts=_attempts,
    failure_mode=_failures,
    degraded=st.booleans(),
)
_cdn_observations = st.builds(
    CdnObservation,
    domain=_hostnames,
    crawl_ok=st.booleans(),
    resource_hostnames=_hostname_lists,
    internal_hostnames=_hostname_lists,
    cname_chains=_chain_maps,
    detected_cdns=_chain_maps,
    cname_soas=_soa_maps,
    attempts=_attempts,
    failure_mode=_failures,
    degraded=st.booleans(),
)
_website_measurements = st.builds(
    WebsiteMeasurement,
    domain=_hostnames,
    rank=st.integers(1, 1_000_000),
    dns=_dns_observations,
    tls=_tls_observations,
    cdn=_cdn_observations,
)
_provider_dns_observations = st.builds(
    ProviderDnsObservation,
    provider_name=_label,
    service_domain=_hostnames,
    nameservers=_hostname_lists,
    domain_soa=_soas,
    nameserver_soas=_soa_maps,
)
_revocation_endpoint_observations = st.builds(
    RevocationEndpointObservation,
    ca_name=_label,
    endpoint_hosts=_hostname_lists,
    cname_chains=_chain_maps,
    detected_cdns=_chain_maps,
    cname_soas=_soa_maps,
)
_datasets = st.builds(
    Dataset,
    year=st.sampled_from([2016, 2020]),
    websites=st.lists(_website_measurements, max_size=3),
    cdn_dns=st.dictionaries(
        _label, _provider_dns_observations, min_size=1, max_size=3
    ),
    ca_dns=st.dictionaries(
        _label, _provider_dns_observations, min_size=1, max_size=3
    ),
    ca_cdn=st.dictionaries(
        _label, _revocation_endpoint_observations, min_size=1, max_size=3
    ),
    notes=st.dictionaries(_label, st.integers(0, 10_000), max_size=4),
)


def _codec_roundtrip(record):
    """Encode, write as JSON text, parse and decode one record."""
    codec = record_codec(type(record))
    return codec.decode(json.loads(write_json(codec.encode(record))))


class TestRecordRoundtripProperties:
    """The record codec is the identity through JSON text on every record
    class — including degraded observations, ``None`` SOAs and non-empty
    inter-service maps."""

    @given(_soas.filter(lambda soa: soa is not None))
    def test_soa_identity_roundtrip(self, soa):
        assert _codec_roundtrip(soa) == soa

    @given(_dns_observations)
    @settings(max_examples=50)
    def test_dns_observation_roundtrip(self, observation):
        assert _codec_roundtrip(observation) == observation

    @given(_tls_observations)
    @settings(max_examples=50)
    def test_tls_observation_roundtrip(self, observation):
        assert _codec_roundtrip(observation) == observation

    @given(_cdn_observations)
    @settings(max_examples=50)
    def test_cdn_observation_roundtrip(self, observation):
        assert _codec_roundtrip(observation) == observation

    @given(_website_measurements)
    @settings(max_examples=25)
    def test_website_measurement_roundtrip(self, website):
        assert _codec_roundtrip(website) == website

    @given(_website_measurements)
    @settings(max_examples=25)
    def test_website_measurement_roundtrip_through_shard_json(self, website):
        payload = shard_to_json([website])
        restored = shard_payload_from_json(payload)[0]
        assert restored == [website]
        # Re-serialization is byte-stable (the checkpoint/merge contract).
        assert shard_to_json(restored) == payload

    @given(_provider_dns_observations)
    @settings(max_examples=50)
    def test_provider_dns_observation_roundtrip(self, observation):
        assert _codec_roundtrip(observation) == observation

    @given(_revocation_endpoint_observations)
    @settings(max_examples=50)
    def test_revocation_endpoint_observation_roundtrip(self, observation):
        assert _codec_roundtrip(observation) == observation

    @given(_datasets)
    @settings(max_examples=25)
    def test_dataset_roundtrip_through_dataset_json(self, dataset):
        assert _codec_roundtrip(dataset) == dataset
        text = dataset_to_json(dataset)
        restored = dataset_from_json(text)
        assert restored == dataset
        assert list(restored.notes) == list(dataset.notes)
        assert dataset_to_json(restored) == text


_fault_rules = st.builds(
    FaultRule,
    name=st.uuids().map(str),
    layer=st.just("dns"),
    kind=st.sampled_from(["drop", "servfail", "refused", "truncate", "lame"]),
    scope=st.one_of(st.just("*"), _hostnames),
    server=st.one_of(st.just("*"), _hostnames),
    probability=st.floats(0.0, 1.0, allow_nan=False),
    rank_window=st.none()
    | st.tuples(st.integers(1, 100), st.integers(100, 10_000)),
)


class TestFaultPlanProperties:
    @given(st.lists(_fault_rules, max_size=6, unique_by=lambda r: r.name),
           st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_plan_json_roundtrip_and_digest_stability(self, rules, seed):
        plan = FaultPlan(rules=tuple(rules), seed=seed)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.digest() == plan.digest()

    @given(_fault_rules)
    @settings(max_examples=50)
    def test_rule_dict_roundtrip(self, rule):
        assert FaultRule.from_dict(rule.to_dict()) == rule

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_digest_separates_seeds(self, seed_a, seed_b):
        rule = FaultRule(name="r", layer="dns", kind="drop", probability=0.5)
        digest_a = FaultPlan(rules=(rule,), seed=seed_a).digest()
        digest_b = FaultPlan(rules=(rule,), seed=seed_b).digest()
        assert (digest_a == digest_b) == (seed_a == seed_b)
