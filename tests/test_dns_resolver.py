"""Integration tests for iterative resolution over a hand-built DNS tree."""

import pytest

from repro.dnssim import (
    AuthoritativeServer,
    DigClient,
    DnsNetwork,
    IterativeResolver,
    SimulatedClock,
)
from repro.dnssim.errors import NoSuchDomainError, ResolutionError
from repro.dnssim.message import RCode
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    NSRecord,
    RRType,
    SOARecord,
)
from repro.dnssim.zone import Zone
from repro.faults import FaultInjector, FaultPlan, FaultRule

ROOT_HINTS = {"a.root-servers.net": "10.0.0.1"}


@pytest.fixture
def tree():
    """root -> com/net -> example.com (on third-party dyn) + dynect.net."""
    clock = SimulatedClock()
    net = DnsNetwork()

    root_zone = Zone("", SOARecord("a.root-servers.net", "nstld.example"))
    root = AuthoritativeServer("a.root-servers.net", ["10.0.0.1"])
    root.serve_zone(root_zone)
    net.register_server(root)

    tld = AuthoritativeServer("a.gtld-servers.net", ["10.0.0.2"])
    com = Zone("com", SOARecord("a.gtld-servers.net", "registry.example"))
    netz = Zone("net", SOARecord("a.gtld-servers.net", "registry.example"))
    tld.serve_zone(com)
    tld.serve_zone(netz)
    net.register_server(tld)
    for suffix in ("com", "net"):
        root_zone.add(suffix, NSRecord("a.gtld-servers.net"))
    root_zone.add("a.gtld-servers.net", ARecord("10.0.0.2"))

    dyn = AuthoritativeServer("ns1.dynect.net", ["10.0.0.3"])
    dyn_zone = Zone("dynect.net", SOARecord("ns1.dynect.net", "hostmaster.dynect.net"))
    dyn_zone.add("dynect.net", NSRecord("ns1.dynect.net"))
    dyn_zone.add("ns1.dynect.net", ARecord("10.0.0.3"))
    dyn.serve_zone(dyn_zone)
    net.register_server(dyn)
    netz.add("dynect.net", NSRecord("ns1.dynect.net"))
    netz.add("ns1.dynect.net", ARecord("10.0.0.3"))

    example = Zone("example.com", SOARecord("ns1.dynect.net", "hostmaster.dynect.net"))
    example.add("example.com", NSRecord("ns1.dynect.net"))
    example.add("example.com", ARecord("93.184.216.34"))
    example.add("www.example.com", CNAMERecord("example.com"))
    example.add("alias.example.com", CNAMERecord("edge.dynect.net"))
    dyn_zone.add("edge.dynect.net", ARecord("10.7.7.7"))
    dyn.serve_zone(example)
    com.add("example.com", NSRecord("ns1.dynect.net"))  # glueless delegation

    clockres = SimulatedClock()
    resolver = IterativeResolver(net, ROOT_HINTS, clockres)
    return net, resolver, dyn, clockres


def _dyn_outage_resolver(net: DnsNetwork) -> IterativeResolver:
    """A resolver whose fault plan drops every query to Dyn's server."""
    plan = FaultPlan(rules=(
        FaultRule(name="dyn-down", layer="dns", kind="drop",
                  server="ns1.dynect.net"),
    ))
    return IterativeResolver(
        net, ROOT_HINTS, SimulatedClock(), injector=FaultInjector(plan)
    )


class TestResolution:
    def test_simple_a(self, tree):
        _, resolver, _, _ = tree
        records = resolver.resolve("example.com", RRType.A)
        assert records[0].rdata.address == "93.184.216.34"

    def test_glueless_delegation(self, tree):
        # example.com's delegation carries no glue: the resolver must
        # resolve ns1.dynect.net on the side.
        _, resolver, _, _ = tree
        assert resolver.resolve("example.com", RRType.A)
        assert resolver.stats.glueless_lookups >= 1

    def test_in_zone_cname(self, tree):
        _, resolver, _, _ = tree
        result = resolver.lookup("www.example.com", RRType.A)
        assert result.cname_chain == ["example.com"]
        assert result.records[0].rdata.address == "93.184.216.34"

    def test_cross_zone_cname(self, tree):
        _, resolver, _, _ = tree
        result = resolver.lookup("alias.example.com", RRType.A)
        assert result.final_name == "edge.dynect.net"
        assert result.records[0].rdata.address == "10.7.7.7"

    def test_nxdomain(self, tree):
        _, resolver, _, _ = tree
        result = resolver.lookup("missing.example.com", RRType.A)
        assert result.is_nxdomain
        with pytest.raises(NoSuchDomainError):
            resolver.resolve("missing.example.com", RRType.A)

    def test_nodata_returns_empty_with_soa(self, tree):
        _, resolver, _, _ = tree
        result = resolver.lookup("example.com", RRType.TXT)
        assert result.rcode == RCode.NOERROR
        assert result.records == []
        assert result.authority_soa is not None

    def test_caching_suppresses_queries(self, tree):
        _, resolver, _, _ = tree
        resolver.resolve("example.com", RRType.A)
        before = resolver.stats.queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.queries == before

    def test_cache_expiry_requeries(self, tree):
        _, resolver, _, clock = tree
        resolver.resolve("example.com", RRType.A)
        before = resolver.stats.queries
        clock.advance(100_000)
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.queries > before

    def test_negative_cache(self, tree):
        _, resolver, _, _ = tree
        resolver.lookup("missing.example.com", RRType.A)
        before = resolver.stats.queries
        result = resolver.lookup("missing.example.com", RRType.A)
        assert result.is_nxdomain
        assert resolver.stats.queries == before

    def test_sibling_reuses_delegation_cache(self, tree):
        _, resolver, _, _ = tree
        resolver.resolve("example.com", RRType.A)
        before = resolver.stats.queries
        resolver.lookup("www.example.com", RRType.A)
        # Should start at the cached example.com nameservers, not the root.
        assert resolver.stats.queries - before <= 2

    def test_outage_fails_resolution(self, tree):
        net, resolver, _, _ = tree
        with pytest.raises(ResolutionError):
            _dyn_outage_resolver(net).resolve("example.com", RRType.A)
        assert resolver.resolve("example.com", RRType.A)

    def test_resolve_address_helper(self, tree):
        _, resolver, _, _ = tree
        assert resolver.resolve_address("example.com") == ["93.184.216.34"]
        assert resolver.resolve_address("missing.example.com") == []

    def test_needs_root_hints(self, tree):
        net, *_ = tree
        with pytest.raises(ValueError):
            IterativeResolver(net, {})


class TestDigClient:
    def test_ns(self, tree):
        _, resolver, _, _ = tree
        dig = DigClient(resolver)
        assert dig.ns("example.com") == ["ns1.dynect.net"]

    def test_ns_walks_up_for_hostnames(self, tree):
        _, resolver, _, _ = tree
        dig = DigClient(resolver)
        assert dig.ns("www.example.com") == ["ns1.dynect.net"]

    def test_soa(self, tree):
        _, resolver, _, _ = tree
        dig = DigClient(resolver)
        soa = dig.soa("www.example.com")
        assert soa is not None and soa.mname == "ns1.dynect.net"

    def test_cname(self, tree):
        _, resolver, _, _ = tree
        dig = DigClient(resolver)
        assert dig.cname("alias.example.com") == "edge.dynect.net"
        assert dig.cname("example.com") is None

    def test_cname_chain(self, tree):
        _, resolver, _, _ = tree
        dig = DigClient(resolver)
        assert dig.cname_chain("alias.example.com") == ["edge.dynect.net"]

    def test_is_resolvable_tracks_outage(self, tree):
        net, resolver, _, _ = tree
        assert DigClient(resolver).is_resolvable("example.com")
        assert not DigClient(_dyn_outage_resolver(net)).is_resolvable(
            "example.com"
        )
