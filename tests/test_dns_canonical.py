"""Canonical DNS names: normalized once at the boundary, trusted after.

Every name a DNS value holds is in the form ``normalize`` returns. The
public constructors and methods, ``IterativeResolver.lookup``, the
``DigClient`` operations, zone-file load and the wire decoder normalize
what they are given; everything past them builds questions, records and
messages through the private ``_make`` constructors and does not
normalize again (DESIGN.md §8, "Canonical names").

* ``TestBoundaries``: a non-canonical spelling of a name gets the same
  answer as its canonical form at every boundary, so no boundary stopped
  normalizing.
* ``TestValues``: the slotted values copy, pickle and compare as the
  frozen dataclasses before them did.
* ``TestNormalizeBudget``: how often ``normalize`` runs while a world is
  built and measured, so no hot path started normalizing again.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from collections import Counter

import pytest

from repro.dnssim import (
    AuthoritativeServer,
    DigClient,
    DnsCache,
    DnsNetwork,
    IterativeResolver,
    SimulatedClock,
)
from repro.dnssim.cache import NegativeCacheHit
from repro.dnssim.message import DnsMessage, Question
from repro.dnssim.records import (
    AAAARecord,
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
)
from repro.dnssim.zone import Zone
from repro.dnssim.zonefile import zone_from_text, zone_to_text
from repro.engine import run_campaign
from repro.worldgen import WorldConfig, build_world
from tests.test_dns_codec_differential import reference_from_wire

#: Spellings of ``www.example.com`` that normalize to it.
SPELLINGS = ["WWW.Example.COM.", "  www.example.com  ", "\tWww.EXAMPLE.com.\n"]


def _tree() -> tuple[DnsNetwork, AuthoritativeServer]:
    """root -> com/net -> example.com and example.net, both served by
    ns1.example.net (example.com's delegation carries no glue)."""
    net = DnsNetwork()
    root_zone = Zone("", SOARecord("a.root-servers.net", "nstld.example"))
    root = AuthoritativeServer("a.root-servers.net", ["10.0.0.1"])
    root.serve_zone(root_zone)
    net.register_server(root)

    tld = AuthoritativeServer("a.gtld-servers.net", ["10.0.0.2"])
    com = Zone("com", SOARecord("a.gtld-servers.net", "registry.example"))
    netz = Zone("net", SOARecord("a.gtld-servers.net", "registry.example"))
    for zone in (com, netz):
        tld.serve_zone(zone)
        root_zone.add(zone.origin, NSRecord("a.gtld-servers.net"))
    root_zone.add("a.gtld-servers.net", ARecord("10.0.0.2"))
    net.register_server(tld)
    com.add("example.com", NSRecord("ns1.example.net"))  # glueless
    netz.add("example.net", NSRecord("ns1.example.net"))
    netz.add("ns1.example.net", ARecord("10.0.0.3"))

    host = AuthoritativeServer("ns1.example.net", ["10.0.0.3"])
    example = Zone("example.com", SOARecord("ns1.example.net", "hostmaster.example.net"))
    example.add("example.com", NSRecord("ns1.example.net"))
    example.add("example.com", ARecord("93.184.216.34"))
    example.add("www.example.com", CNAMERecord("example.com"))
    example.add("edge.example.com", CNAMERecord("www.example.com"))
    host.serve_zone(example)
    provider = Zone("example.net", SOARecord("ns1.example.net", "hostmaster.example.net"))
    provider.add("example.net", NSRecord("ns1.example.net"))
    provider.add("ns1.example.net", ARecord("10.0.0.3"))
    host.serve_zone(provider)
    net.register_server(host)
    return net, host


def _resolver() -> IterativeResolver:
    """A cold resolver on a fresh tree, so answers do not depend on what
    an earlier spelling left in a cache."""
    net, _ = _tree()
    return IterativeResolver(net, {"a.root-servers.net": "10.0.0.1"}, SimulatedClock())


def _zone() -> Zone:
    zone = Zone("example.com", SOARecord("ns1.example.net", "hostmaster.example.net"))
    zone.add("www.example.com", ARecord("10.0.0.9"))
    zone.add("mail.example.com", ARecord("10.0.0.10"))
    return zone


_ZONE_FILE = """\
$ORIGIN example.com.
$TTL 300
@\t3600\tIN\tSOA\tns1.example.net. hostmaster.example.net. 7 7200 900 1209600 300
@\tIN\tNS\tns1.example.net.
www\tIN\tCNAME\tedge.cdn.example.net.
mail\t600\tIN\tA\t10.0.0.10
"""

_ZONE_FILE_MIXED_CASE = """\
$ORIGIN   Example.COM.
$TTL 300
@\t3600\tIN\tSOA\tNS1.Example.NET.   HostMaster.example.NET. 7 7200 900 1209600 300
Example.COM.   IN\tNS\tNs1.EXAMPLE.net.
WWW\tIN\tCNAME\tEdge.CDN.example.Net.   ; trailing comment
Mail.Example.com.\t600\tIN\tA\t10.0.0.10
"""


class TestBoundaries:
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_resolver_lookup(self, spelling):
        for qtype in (RRType.A, RRType.CNAME, RRType.SOA, RRType.NS):
            assert _resolver().lookup(spelling, qtype) == _resolver().lookup(
                "www.example.com", qtype
            )

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize(
        "operation", ["ns", "soa", "cname", "cname_chain", "a", "is_resolvable"]
    )
    def test_dig_client(self, spelling, operation):
        def run(name):
            return getattr(DigClient(_resolver()), operation)(name)

        assert run(spelling) == run("www.example.com")

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_dig_client_query(self, spelling):
        def run(name):
            return DigClient(_resolver()).query(name, RRType.A)

        assert run(spelling) == run("www.example.com")

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_zone_add(self, spelling):
        def bare() -> Zone:
            return Zone("example.com", SOARecord("ns1.example.net", "h.example.net"))

        zone, reference = bare(), bare()
        rr = zone.add(spelling, CNAMERecord("Edge.CDN.Example.NET."))
        reference.add("www.example.com", CNAMERecord("edge.cdn.example.net"))
        assert rr == ResourceRecord(
            "www.example.com", 300, CNAMERecord("edge.cdn.example.net")
        )
        assert set(zone.all_records()) == set(reference.all_records())
        assert zone.names() == reference.names()

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_zone_lookup_and_records_at(self, spelling):
        zone = _zone()
        for qtype in (RRType.A, RRType.CNAME, RRType.SOA):
            assert zone.lookup(spelling, qtype) == zone.lookup("www.example.com", qtype)
            assert zone.records_at(spelling, qtype) == zone.records_at(
                "www.example.com", qtype
            )

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_zone_contains_and_delete(self, spelling):
        zone = _zone()
        assert spelling in zone
        assert zone.delete(spelling, RRType.A) == 1
        assert spelling not in zone and "www.example.com" not in zone
        assert "mail.example.com" in zone

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_server_zone_for(self, spelling):
        _, host = _tree()
        assert host.zone_for(spelling) is host.zone_for("www.example.com")
        assert host.zone_for(spelling).origin == "example.com"

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_cache(self, spelling):
        cache = DnsCache(SimulatedClock())
        records = [ResourceRecord("www.example.com", 300, ARecord("10.0.0.9"))]
        cache.put(spelling, RRType.A, records)
        assert cache.get("www.example.com", RRType.A) == records
        assert cache.get(spelling, RRType.A) == records
        assert cache.peek(spelling, RRType.A) == records
        assert len(cache) == 1

        cache.put_negative(spelling, RRType.SOA, 300, nxdomain=False)
        with pytest.raises(NegativeCacheHit):
            cache.get("www.example.com", RRType.SOA)
        cache.put("www.example.com", RRType.NS, records)
        assert cache.peek(spelling, RRType.NS) == records
        assert len(cache) == 3

    def test_zone_file(self):
        canonical = zone_from_text(_ZONE_FILE)
        mixed = zone_from_text(_ZONE_FILE_MIXED_CASE)
        assert mixed.origin == canonical.origin == "example.com"
        assert set(mixed.all_records()) == set(canonical.all_records())
        assert zone_to_text(mixed) == zone_to_text(canonical)

    def test_upper_case_wire_labels_decode_like_the_oracle(self):
        query = DnsMessage.query("www.example.com", RRType.A, msg_id=7)
        response = query.response()
        response.answers.append(
            ResourceRecord("www.example.com", 300, CNAMERecord("edge.example.net"))
        )
        wire = response.to_wire()
        # Upper-case every label byte of both names (the answer's owner is
        # a compression pointer to the question name).
        upper = wire.replace(b"\x03www\x07example\x03com", b"\x03WWW\x07ExAmPlE\x03COM")
        upper = upper.replace(b"\x04edge\x07example\x03net", b"\x04EDGE\x07EXAMPLE\x03Net")
        assert upper != wire
        decoded = DnsMessage.from_wire(upper)
        assert decoded == reference_from_wire(upper) == response
        assert decoded.to_wire() == wire


_VALUES = [
    ARecord("10.0.0.1"),
    AAAARecord("2001:db8::1"),
    NSRecord("NS1.Example.NET."),
    CNAMERecord(" Edge.CDN.example.net"),
    SOARecord("NS1.Example.NET", "HostMaster.example.net.", 7, 1, 2, 3, 4),
    MXRecord(10, "Mail.Example.COM"),
    TXTRecord("v=spf1 -all"),
    ResourceRecord("WWW.Example.COM.", 60, NSRecord("ns1.example.net")),
    Question("WWW.Example.COM.", "soa"),
]


class TestValues:
    """The values stay immutable, hashable and compared by value, and the
    private constructor builds what the public one does from canonical
    input."""

    @pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
    def test_copies_and_pickles_equal(self, value):
        for copied in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
            dataclasses.replace(value),
        ):
            assert copied == value and hash(copied) == hash(value)
            assert type(copied) is type(value)

    @pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
    def test_immutable(self, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, "x")

    @pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
    def test_private_constructor_builds_the_same_value(self, value):
        canonical = [getattr(value, f.name) for f in dataclasses.fields(value)]
        assert len(type(value)._setters) == len(canonical)
        assert type(value)._make(*canonical) == value
        assert type(value)(*canonical) == value

    def test_types_compare_unequal(self):
        assert NSRecord("a.example") != CNAMERecord("a.example")
        assert len({NSRecord("a.example"), CNAMERecord("a.example")}) == 2


def _patch_normalize(monkeypatch) -> Counter:
    """Count ``normalize`` calls through every module binding of it."""
    real = sys.modules["repro.names.normalize"].normalize
    calls: Counter = Counter()

    def counting(name):
        calls["normalize"] += 1
        return real(name)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and getattr(
            module, "normalize", None
        ) is real:
            monkeypatch.setattr(module, "normalize", counting)
    return calls


class TestNormalizeBudget:
    """How often ``normalize`` runs, per site, on a 500-site world (seed
    42) and a 50-site campaign on it.

    When every record and question constructor normalized its names, a
    build called it 34,913 times (70 per built site) and measurement
    24,176 times (484 per measured site), though no measured name ever
    changed. Measurement must stay under a third of that. A build, which
    since normalizes each record's names once, in the record's class
    call, made 26,459 calls (53 per site); it may grow by a tenth of that,
    less than one extra ``normalize`` per added record would cost.
    """

    N = 500
    SITES = 50
    BUILT = 26_459
    MEASURED_BEFORE = 24_176

    def test_world_build(self, monkeypatch):
        calls = _patch_normalize(monkeypatch)
        build_world(WorldConfig(n_websites=self.N, seed=42))
        assert calls["normalize"] <= self.BUILT * 1.1

    def test_measurement(self, monkeypatch):
        world = build_world(WorldConfig(n_websites=self.N, seed=42))
        calls = _patch_normalize(monkeypatch)
        run_campaign(world=world, limit=self.SITES, shards=1, workers=1)
        assert calls["normalize"] * 3 <= self.MEASURED_BEFORE
