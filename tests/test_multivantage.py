"""Tests for GeoDNS views and multi-vantage measurement (§3.5 extension)."""

import pytest

from repro.dnssim.records import ARecord, CNAMERecord, RRType, SOARecord
from repro.dnssim.zone import LookupKind, Zone
from repro.engine import run_campaign


class TestZoneRegionalRecords:
    @pytest.fixture
    def zone(self):
        z = Zone("example.com", SOARecord("ns1.example.com", "h.example.com"))
        z.add("static.example.com", CNAMERecord("cust.us-cdn.net"))
        z.add_regional("static.example.com", "cn", CNAMERecord("cust.cn-cdn.net"))
        z.add("www.example.com", ARecord("10.0.0.1"))
        z.add_regional("www.example.com", "cn", ARecord("10.9.9.9"))
        return z

    def test_default_view(self, zone):
        result = zone.lookup("static.example.com", RRType.A)
        assert result.records[0].rdata.target == "cust.us-cdn.net"

    def test_regional_view_overrides(self, zone):
        result = zone.lookup("static.example.com", RRType.A, region="cn")
        assert result.kind == LookupKind.CNAME
        assert result.records[0].rdata.target == "cust.cn-cdn.net"

    def test_regional_a_record(self, zone):
        result = zone.lookup("www.example.com", RRType.A, region="cn")
        assert result.records[0].rdata.address == "10.9.9.9"

    def test_unknown_region_falls_back(self, zone):
        result = zone.lookup("www.example.com", RRType.A, region="mars")
        assert result.records[0].rdata.address == "10.0.0.1"

    def test_regional_record_out_of_zone_rejected(self, zone):
        from repro.dnssim.zone import ZoneError

        with pytest.raises(ZoneError):
            zone.add_regional("other.org", "cn", ARecord("10.0.0.1"))


class TestWorldVantage:
    def test_vantage_resolver_is_region_tagged(self, world_2020):
        vantage = world_2020.vantage("cn")
        assert vantage.resolver.region == "cn"
        assert world_2020.vantage().resolver.region is None

    def test_regional_site_resolves_differently(self, world_2020):
        site = next(
            (
                w for w in world_2020.spec.websites
                if w.regional_cdns.get("cn")
            ),
            None,
        )
        if site is None:
            pytest.skip("no regional-CDN site in this world")
        infra = world_2020.website_infra[site.domain]
        cdn_hosts = [
            h for h in infra.resource_hosts if h.startswith("static")
        ]
        assert cdn_hosts
        host = cdn_hosts[0]
        default_chain = world_2020.vantage(None).dig.cname_chain(host)
        cn_chain = world_2020.vantage("cn").dig.cname_chain(host)
        assert default_chain != cn_chain
        regional_cdn = world_2020.spec.cdns[site.regional_cdns["cn"]]
        assert any(
            name.endswith(suffix)
            for name in cn_chain
            for suffix in regional_cdn.cname_suffixes
        )


class TestMultiVantageCampaign:
    def test_second_vantage_reveals_hidden_cdns(self, world_2020):
        regional_sites = [
            w.domain for w in world_2020.spec.websites if w.regional_cdns
        ]
        if not regional_sites:
            pytest.skip("no regional-CDN sites in this world")
        limit = max(
            i + 1
            for i, w in enumerate(
                sorted(world_2020.spec.websites, key=lambda w: w.rank)
            )
            if w.domain in regional_sites
        )
        limit = min(limit, len(world_2020.spec.websites))
        default = run_campaign(world=world_2020, limit=limit)
        cn = run_campaign(world=world_2020, limit=limit, region="cn")

        def pairs(dataset):
            return {
                (w.domain, cdn)
                for w in dataset.websites
                for cdn in w.cdn.detected_cdns
            }

        default_pairs = pairs(default)
        cn_pairs = pairs(cn)
        assert cn_pairs - default_pairs, (
            "the cn vantage should reveal CDN pairs the default misses"
        )

    def test_union_dominates_single_vantage(self, world_2020):
        default = run_campaign(world=world_2020, limit=80)
        cn = run_campaign(world=world_2020, limit=80, region="cn")

        def pairs(dataset):
            return {
                (w.domain, cdn)
                for w in dataset.websites
                for cdn in w.cdn.detected_cdns
            }

        union = pairs(default) | pairs(cn)
        assert len(union) >= len(pairs(default))
