"""Tests for the measurement toolchain (records, map, measurers, campaign)."""

import pytest

from repro.engine import run_campaign
from repro.measurement.cdn_map import CnameToCdnMap
from repro.measurement.cdn_measurer import is_internal_resource
from repro.measurement.records import SoaIdentity
from repro.measurement.runner import MeasurementCampaign, build_cdn_map


class TestSoaIdentity:
    def test_equality(self):
        a = SoaIdentity("m", "r")
        assert a == SoaIdentity("m", "r")
        assert a != SoaIdentity("m", "other")

    def test_from_record(self):
        from repro.dnssim.records import SOARecord

        soa = SOARecord("ns1.x.com", "admin.x.com")
        identity = SoaIdentity.from_record(soa)
        assert identity.mname == "ns1.x.com"
        assert SoaIdentity.from_record(None) is None


class TestCnameToCdnMap:
    def test_suffix_match(self):
        cdn_map = CnameToCdnMap()
        cdn_map.register("edgekey.net", "Akamai")
        assert cdn_map.lookup("www.site.com.edgekey.net") == "Akamai"
        assert cdn_map.lookup("edgekey.net") == "Akamai"
        assert cdn_map.lookup("notedgekey.net") is None

    def test_longest_suffix_wins(self):
        cdn_map = CnameToCdnMap()
        cdn_map.register("cloudflare.net", "Cloudflare base")
        cdn_map.register("cdn.cloudflare.net", "Cloudflare CDN")
        assert cdn_map.lookup("x.cdn.cloudflare.net") == "Cloudflare CDN"

    def test_lookup_chain(self):
        cdn_map = CnameToCdnMap()
        cdn_map.register("fastly.net", "Fastly")
        assert cdn_map.lookup_chain(
            "static.site.com", ["site.map.fastly.net"]
        ) == "Fastly"
        assert cdn_map.lookup_chain("static.site.com", []) is None

    def test_from_catalog_and_contains(self):
        cdn_map = CnameToCdnMap.from_catalog([("X", ["x-edge.net", "x2.net"])])
        assert len(cdn_map) == 2
        assert "x-edge.net" in cdn_map


class TestInternalResourceLadder:
    SITE_SOA = SoaIdentity("ns1.site.com", "h.site.com")

    def lookup(self, table):
        return lambda host: table.get(host)

    def test_tld_match(self):
        assert is_internal_resource(
            "static.site.com", "site.com", (), self.lookup({})
        )

    def test_san_match(self):
        assert is_internal_resource(
            "img.yimg.com", "yahoo.com", ("yahoo.com", "*.yimg.com"),
            self.lookup({}),
        )

    def test_soa_match(self):
        table = {
            "cdn.brand.net": self.SITE_SOA,
            "site.com": self.SITE_SOA,
        }
        assert is_internal_resource(
            "cdn.brand.net", "site.com", (), self.lookup(table)
        )

    def test_external_rejected(self):
        table = {
            "cdn.tracker.net": SoaIdentity("ns1.tracker.net", "h.tracker.net"),
            "site.com": self.SITE_SOA,
        }
        assert not is_internal_resource(
            "cdn.tracker.net", "site.com", ("site.com",), self.lookup(table)
        )


class TestCampaign:
    def test_dataset_shape(self, world_2020, snapshot_2020):
        dataset = snapshot_2020.dataset
        assert dataset.year == 2020
        assert len(dataset.websites) == len(world_2020.spec.websites)
        assert dataset.notes["websites_measured"] == len(dataset.websites)
        assert dataset.notes["cdns_observed"] == len(dataset.cdn_dns)

    def test_limit(self, world_2020):
        dataset = run_campaign(world=world_2020, limit=25)
        assert len(dataset.websites) == 25
        assert dataset.top(10)[-1].rank <= 10

    def test_map_covers_catalog(self, world_2020):
        cdn_map = build_cdn_map(world_2020)
        for cdn in world_2020.spec.cdns.values():
            for suffix in cdn.cname_suffixes:
                assert cdn_map.lookup(f"x.{suffix}") == cdn.display

    def test_observations_reference_cnames(self, snapshot_2020):
        dataset = snapshot_2020.dataset
        measured = next(
            w for w in dataset.websites if w.cdn.detected_cdns
        )
        for cdn_name, cnames in measured.cdn.detected_cdns.items():
            assert cnames, cdn_name
            for cname in cnames:
                assert cname in measured.cdn.cname_soas

    def test_interservice_observations_have_soas(self, snapshot_2020):
        dataset = snapshot_2020.dataset
        for name, obs in dataset.ca_dns.items():
            for ns in obs.nameservers:
                assert ns in obs.nameserver_soas, (name, ns)

    def test_ca_directory_resolution(self, world_2020):
        campaign = MeasurementCampaign(world_2020)
        assert campaign.ca_name_for_endpoint("ocsp.digicert.com") == "DigiCert"
        assert campaign.ca_name_for_endpoint("ocsp.nobody.example") == "nobody.example"
