"""Unit tests for the authoritative server and network fabric."""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssim.errors import ServerUnavailableError
from repro.dnssim.message import DnsMessage, RCode
from repro.dnssim.network import DnsNetwork
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    NSRecord,
    RRType,
    SOARecord,
)
from repro.dnssim.server import AuthoritativeServer
from repro.dnssim.zone import Zone
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.names.normalize import normalize
from repro.names.registrable import is_subdomain_of


@pytest.fixture
def server() -> AuthoritativeServer:
    srv = AuthoritativeServer("ns1.example.com", ["10.0.0.1"], operator="example")
    zone = Zone("example.com", SOARecord("ns1.example.com", "admin.example.com"))
    zone.add("example.com", NSRecord("ns1.example.com"))
    zone.add("ns1.example.com", ARecord("10.0.0.1"))
    zone.add("example.com", ARecord("93.184.216.34"))
    zone.add("www.example.com", CNAMERecord("apex.example.com"))
    zone.add("apex.example.com", ARecord("93.184.216.34"))
    srv.serve_zone(zone)
    return srv


class TestServer:
    def test_requires_an_ip(self):
        with pytest.raises(ValueError):
            AuthoritativeServer("x", [])

    def test_answers_authoritatively(self, server):
        response = server.handle(DnsMessage.query("example.com", RRType.A))
        assert response.aa
        assert response.rcode == RCode.NOERROR
        assert response.answers[0].rdata.address == "93.184.216.34"

    def test_refuses_foreign_names(self, server):
        response = server.handle(DnsMessage.query("other.org", RRType.A))
        assert response.rcode == RCode.REFUSED
        assert not response.aa

    def test_nxdomain(self, server):
        response = server.handle(DnsMessage.query("no.example.com", RRType.A))
        assert response.rcode == RCode.NXDOMAIN
        assert response.authorities[0].rrtype == RRType.SOA

    def test_chases_in_zone_cnames(self, server):
        response = server.handle(DnsMessage.query("www.example.com", RRType.A))
        types = [rr.rrtype for rr in response.answers]
        assert RRType.CNAME in types and RRType.A in types

    def test_ns_answer_includes_glue(self, server):
        response = server.handle(DnsMessage.query("example.com", RRType.NS))
        assert any(rr.rrtype == RRType.A for rr in response.additionals)

    def test_empty_question_is_formerr(self, server):
        response = server.handle(DnsMessage())
        assert response.rcode == RCode.FORMERR

    def test_wire_roundtrip_path(self, server):
        query = DnsMessage.query("example.com", RRType.A, msg_id=9)
        wire = server.handle_wire(query.to_wire())
        response = DnsMessage.from_wire(wire)
        assert response.id == 9 and response.answers

    def test_most_specific_zone_wins(self, server):
        sub = Zone("sub.example.com", SOARecord("ns1.sub.example.com", "a.b"))
        sub.add("sub.example.com", ARecord("10.5.5.5"))
        server.serve_zone(sub)
        response = server.handle(DnsMessage.query("sub.example.com", RRType.A))
        assert response.answers[0].rdata.address == "10.5.5.5"


def _scan_zone_for(server: AuthoritativeServer, qname: str) -> Optional[Zone]:
    """The linear scan ``zone_for`` replaced: every served origin is
    tested, and the longest enclosing one wins."""
    qname = normalize(qname)
    best: Optional[Zone] = None
    for zone in server.zones():
        origin = zone.origin
        if origin == "" or is_subdomain_of(qname, origin):
            if best is None or len(origin) > len(best.origin):
                best = zone
    return best


_LABELS = st.sampled_from(["com", "net", "example", "cdn", "www", "a", "b", "ns1"])
_ORIGINS = st.lists(_LABELS, min_size=0, max_size=4).map(".".join)


@st.composite
def _query_names(draw) -> str:
    """Names in presentation form: mixed case, an optional trailing dot,
    and labels that may lie under no served zone."""
    labels = draw(st.lists(_LABELS | st.just("elsewhere"), min_size=0, max_size=6))
    name = ".".join(
        label.upper() if draw(st.booleans()) else label for label in labels
    )
    return name + "." if draw(st.booleans()) else name


class TestZoneSelection:
    """``zone_for`` walks the query name's suffixes; it must pick exactly
    the zone a scan over every served origin picks."""

    @settings(max_examples=300, deadline=None)
    @given(
        origins=st.lists(_ORIGINS, min_size=0, max_size=8, unique=True),
        qnames=st.lists(_query_names(), min_size=1, max_size=10),
    )
    def test_matches_linear_scan(self, origins, qnames):
        server = AuthoritativeServer("ns.host.net", ["10.0.0.1"])
        for origin in origins:
            server.serve_zone(Zone(origin, SOARecord("ns.host.net", "admin.host.net")))
        for qname in qnames:
            assert server.zone_for(qname) is _scan_zone_for(server, qname)

    def test_nested_sibling_and_root(self):
        server = AuthoritativeServer("ns.host.net", ["10.0.0.1"])
        for origin in ("", "com", "example.com", "a.example.com", "b.example.com"):
            server.serve_zone(Zone(origin, SOARecord("ns.host.net", "admin.host.net")))
        assert server.zone_for("X.A.Example.COM.").origin == "a.example.com"
        assert server.zone_for("b.example.com").origin == "b.example.com"
        assert server.zone_for("c.example.com").origin == "example.com"
        assert server.zone_for("other.org").origin == ""
        assert server.zone_for(".").origin == ""

    def test_no_enclosing_zone(self, server):
        assert server.zone_for("example.org") is None
        assert server.zone_for("") is None
        assert server.zone_for("com") is None


class TestNetwork:
    def test_routing(self, server):
        net = DnsNetwork()
        net.register_server(server)
        wire = net.send("10.0.0.1", DnsMessage.query("example.com", RRType.A).to_wire())
        assert DnsMessage.from_wire(wire).answers

    def test_unknown_ip_times_out(self):
        net = DnsNetwork()
        with pytest.raises(ServerUnavailableError):
            net.send("10.9.9.9", b"\x00" * 12)

    def test_down_server_times_out(self, server):
        """A server is down for a sender whose plan drops its queries,
        and only for that sender."""
        net = DnsNetwork()
        net.register_server(server)
        down = FaultInjector(FaultPlan(rules=(
            FaultRule(name="down", layer="dns", kind="drop",
                      server="ns1.example.com"),
        )))
        wire = DnsMessage.query("example.com", RRType.A).to_wire()
        with pytest.raises(ServerUnavailableError):
            net.send("10.0.0.1", wire, injector=down)
        assert DnsMessage.from_wire(net.send("10.0.0.1", wire)).answers

    def test_ip_conflict_rejected(self, server):
        net = DnsNetwork()
        net.register_server(server)
        other = AuthoritativeServer("ns2.other.net", ["10.0.0.1"])
        with pytest.raises(ValueError):
            net.register_server(other)

    def test_reregistering_same_server_ok(self, server):
        net = DnsNetwork()
        net.register_server(server)
        net.register_server(server)
        assert len(net.servers()) == 1
