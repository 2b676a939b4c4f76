"""Unit tests for authoritative zones."""

import pytest
from hypothesis import assume, example, given, strategies as st

from repro.dnssim.records import (
    AAAARecord,
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRType,
    SOARecord,
    TXTRecord,
)
from repro.dnssim.zone import LookupKind, Zone, ZoneError
from repro.names.normalize import normalize
from repro.names.registrable import is_subdomain_of

# Short labels over a two-letter alphabet (the empty label included), so
# equal names, shared suffixes and "badexample.com"-style near misses
# come up often.
_LABELS = st.lists(st.text(alphabet="ab", max_size=2), max_size=4)


@st.composite
def _name_and_origin(draw) -> tuple[str, str]:
    origin = draw(_LABELS)
    prefix = draw(_LABELS)
    name = prefix + origin if draw(st.booleans()) else prefix
    return ".".join(name), ".".join(origin)


@pytest.fixture
def zone() -> Zone:
    z = Zone("example.com", SOARecord("ns1.example.com", "admin.example.com"))
    z.add("example.com", NSRecord("ns1.example.com"))
    z.add("example.com", ARecord("93.184.216.34"))
    z.add("www.example.com", CNAMERecord("cdn.example.net"))
    z.add("mail.example.com", ARecord("10.0.0.9"))
    return z


class TestConstruction:
    def test_soa_property(self, zone):
        assert zone.soa.mname == "ns1.example.com"

    def test_set_soa_replaces(self, zone):
        zone.set_soa(SOARecord("ns1.provider.net", "admin.provider.net"))
        assert zone.soa.mname == "ns1.provider.net"

    def test_out_of_zone_add_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add("other.org", ARecord("1.2.3.4"))

    def test_cname_exclusivity(self, zone):
        with pytest.raises(ZoneError):
            zone.add("www.example.com", ARecord("1.2.3.4"))
        with pytest.raises(ZoneError):
            zone.add("mail.example.com", CNAMERecord("x.example.com"))

    def test_duplicate_records_dedupe(self, zone):
        before = len(zone.records_at("mail.example.com", RRType.A))
        zone.add("mail.example.com", ARecord("10.0.0.9"))
        assert len(zone.records_at("mail.example.com", RRType.A)) == before

    def test_delete(self, zone):
        assert zone.delete("mail.example.com", RRType.A) == 1
        assert zone.lookup("mail.example.com", RRType.A).kind == LookupKind.NXDOMAIN

    def test_contains(self, zone):
        assert "www.example.com" in zone
        assert "nope.example.com" not in zone


#: One rdata per record type, for the exclusivity matrix below.
_RDATA = {
    RRType.A: ARecord("10.0.0.1"),
    RRType.NS: NSRecord("ns1.example.net"),
    RRType.CNAME: CNAMERecord("target.example.net"),
    RRType.SOA: SOARecord("ns1.example.net", "admin.example.net"),
    RRType.MX: MXRecord(10, "mx.example.net"),
    RRType.TXT: TXTRecord("v=spf1 -all"),
    RRType.AAAA: AAAARecord("2001:db8::1"),
}


def _scan_conflict(zone: Zone, name: str, rrtype: RRType) -> bool:
    """The CNAME-exclusivity rule as a scan over every record in the zone,
    the way ``Zone.add`` used to decide it."""
    existing = {rr.rrtype for rr in zone.all_records() if rr.name == name}
    if rrtype == RRType.CNAME:
        return bool(existing - {RRType.CNAME})
    return RRType.CNAME in existing


class TestInZone:
    @given(_name_and_origin())
    @example(("www.example.com", ""))
    @example(("example.com", "example.com"))
    @example(("badexample.com", "example.com"))
    @example(("a..example.com", "example.com"))
    @example(("example.com", ".example.com"))
    @example(("", "example.com"))
    def test_suffix_test_matches_label_comparison(self, pair):
        """On normalized names the suffix comparison agrees with the
        label-wise ``is_subdomain_of``; the root zone holds every name."""
        name, origin = pair
        assume(normalize(name) == name and normalize(origin) == origin)
        zone = Zone(origin, SOARecord("ns1.example.net", "admin.example.net"))
        expected = is_subdomain_of(name, origin) if origin else True
        assert zone._in_zone(name) == expected


class TestRecordTypeIndex:
    """``add`` and ``delete`` probe the (name, type) keys directly; these
    pin them to the behaviour of a scan over the whole zone."""

    @pytest.mark.parametrize("first", list(RRType), ids=lambda t: t.name)
    @pytest.mark.parametrize("second", list(RRType), ids=lambda t: t.name)
    def test_cname_conflicts_match_a_scan(self, zone, first, second):
        name = "host.example.com"
        zone.add(name, _RDATA[first])
        expected = _scan_conflict(zone, name, second)
        assert expected == ((first == RRType.CNAME) != (second == RRType.CNAME))
        if expected:
            with pytest.raises(ZoneError):
                zone.add(name, _RDATA[second])
        else:
            zone.add(name, _RDATA[second])
            assert zone.records_at(name, second)

    def test_other_names_do_not_conflict(self, zone):
        zone.add("a.example.com", CNAMERecord("x.example.net"))
        zone.add("b.example.com", ARecord("10.0.0.2"))
        zone.add("b.a.example.com", TXTRecord("below a CNAME owner"))
        assert zone.records_at("b.a.example.com", RRType.TXT)

    def test_delete_keeps_the_name_until_its_last_record(self, zone):
        zone.add("mail.example.com", TXTRecord("v=spf1 -all"))
        zone.add("mail.example.com", MXRecord(5, "mx.example.net"))
        assert zone.delete("mail.example.com", RRType.TXT) == 1
        assert "mail.example.com" in zone.names()
        assert zone.delete("mail.example.com", RRType.TXT) == 0
        assert "mail.example.com" in zone.names()
        assert zone.delete("mail.example.com", RRType.A) == 1
        assert "mail.example.com" in zone.names()
        assert zone.delete("mail.example.com", RRType.MX) == 1
        assert "mail.example.com" not in zone.names()

    def test_delete_all_types(self, zone):
        zone.add("mail.example.com", ARecord("10.0.0.10"))
        zone.add("mail.example.com", TXTRecord("v=spf1 -all"))
        assert zone.delete("Mail.Example.COM.") == 3
        assert "mail.example.com" not in zone.names()
        assert zone.records_at("mail.example.com", RRType.A) == []
        assert "example.com" in zone.names()


class TestLookup:
    def test_answer(self, zone):
        result = zone.lookup("example.com", RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].rdata.address == "93.184.216.34"

    def test_cname(self, zone):
        result = zone.lookup("www.example.com", RRType.A)
        assert result.kind == LookupKind.CNAME
        assert result.records[0].rdata.target == "cdn.example.net"

    def test_cname_query_for_cname_type(self, zone):
        result = zone.lookup("www.example.com", RRType.CNAME)
        assert result.kind == LookupKind.ANSWER

    def test_nxdomain_carries_soa(self, zone):
        result = zone.lookup("nope.example.com", RRType.A)
        assert result.kind == LookupKind.NXDOMAIN
        assert result.authority[0].rrtype == RRType.SOA

    def test_nodata_for_existing_name_wrong_type(self, zone):
        result = zone.lookup("mail.example.com", RRType.TXT)
        assert result.kind == LookupKind.NODATA

    def test_empty_non_terminal_is_nodata(self, zone):
        zone.add("a.b.example.com", ARecord("10.1.1.1"))
        result = zone.lookup("b.example.com", RRType.A)
        assert result.kind == LookupKind.NODATA

    def test_out_of_zone_lookup_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup("other.org", RRType.A)


class TestDelegation:
    def test_referral_below_cut(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.sub.example.com"))
        zone.add("ns1.sub.example.com", ARecord("10.2.2.2"))
        result = zone.lookup("deep.sub.example.com", RRType.A)
        assert result.kind == LookupKind.DELEGATION
        assert result.authority[0].rdata.nsdname == "ns1.sub.example.com"
        assert result.glue[0].rdata.address == "10.2.2.2"

    def test_referral_at_cut_even_for_soa(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.other.net"))
        result = zone.lookup("sub.example.com", RRType.SOA)
        assert result.kind == LookupKind.DELEGATION

    def test_apex_ns_is_answer_not_referral(self, zone):
        result = zone.lookup("example.com", RRType.NS)
        assert result.kind == LookupKind.ANSWER

    def test_topmost_cut_wins(self, zone):
        zone.add("sub.example.com", NSRecord("ns1.other.net"))
        zone.add("a.sub.example.com", NSRecord("ns1.deeper.net"))
        result = zone.lookup("x.a.sub.example.com", RRType.A)
        assert result.authority[0].name == "sub.example.com"


class TestWildcards:
    def test_wildcard_a(self, zone):
        zone.add("*.edge.example.com", ARecord("10.9.9.9"))
        result = zone.lookup("cust1.edge.example.com", RRType.A)
        assert result.kind == LookupKind.ANSWER
        assert result.records[0].name == "cust1.edge.example.com"

    def test_wildcard_cname(self, zone):
        zone.add("*.alias.example.com", CNAMERecord("target.example.com"))
        result = zone.lookup("x.alias.example.com", RRType.A)
        assert result.kind == LookupKind.CNAME

    def test_explicit_name_blocks_wildcard(self, zone):
        zone.add("*.edge.example.com", ARecord("10.9.9.9"))
        zone.add("special.edge.example.com", TXTRecord("explicit"))
        result = zone.lookup("special.edge.example.com", RRType.A)
        assert result.kind == LookupKind.NODATA
