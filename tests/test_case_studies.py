"""Tests for the Section 6 case-study populations."""

import pytest

from repro import analyze_world
from repro.analysis import table10_hospitals, table11_smart_home
from repro.worldgen import WorldConfig, hospital_snapshot
from repro.worldgen.case_studies import smart_home_companies
from repro.worldgen.spec import PRIVATE
from repro.worldgen.world import World


@pytest.fixture(scope="module")
def hospital_analyzed():
    config = WorldConfig(n_websites=1000, seed=11)
    spec = hospital_snapshot(config, n_hospitals=200)
    world = World(spec, config)
    return analyze_world(world)


class TestHospitals:
    def test_population(self, hospital_analyzed):
        assert len(hospital_analyzed.websites) == 200

    def test_all_support_https(self, hospital_analyzed):
        assert all(w.ca.https for w in hospital_analyzed.websites)

    def test_table10_rates_near_paper(self, hospital_analyzed):
        table = table10_hospitals(hospital_analyzed)
        rows = {row[0]: row for row in table.rows}
        assert rows["DNS"][2] == pytest.approx(51.0, abs=10.0)
        assert rows["CDN"][2] == pytest.approx(16.0, abs=7.0)
        assert rows["CA"][2] == pytest.approx(100.0, abs=5.0)
        assert rows["CA"][4] == pytest.approx(78.0, abs=10.0)

    def test_dns_redundancy_rare(self, hospital_analyzed):
        third = [w for w in hospital_analyzed.websites if w.dns.uses_third_party]
        redundant = [w for w in third if w.dns.is_redundant]
        assert len(redundant) / max(len(third), 1) <= 0.25  # paper: ~10%

    def test_cdn_usage_all_critical(self, hospital_analyzed):
        users = [w for w in hospital_analyzed.websites if w.uses_cdn]
        critical = [w for w in users if w.cdn_is_critical]
        assert len(critical) == len(users)  # hospitals never multi-CDN


class TestSmartHome:
    def test_roster_size(self):
        assert len(smart_home_companies()) == 23

    def test_cloud_only_count(self):
        companies = smart_home_companies()
        assert sum(1 for c in companies if c.cloud_only) == 9

    def test_table11_counts(self):
        table = table11_smart_home(smart_home_companies())
        rows = {row[0]: row for row in table.rows}
        assert rows["DNS"][1] == 21       # third-party
        assert rows["DNS"][3] == 1        # redundancy
        assert rows["DNS"][4] == 8        # critical
        assert rows["Cloud"][1] == 15
        assert rows["Cloud"][4] == 5

    def test_amazon_concentration(self):
        companies = smart_home_companies()
        amazon_cloud = [
            c for c in companies if c.cloud_provider == "amazon-cloud"
        ]
        aws_dns = [c for c in companies if "aws-dns" in c.dns_providers]
        assert len(amazon_cloud) == 11  # paper: 11 of 15 cloud users
        assert len(aws_dns) == 13       # paper: 13 use Amazon DNS

    def test_named_critical_set(self):
        companies = {c.name: c for c in smart_home_companies()}
        for name in (
            "Logitech Harmony", "Yonomi", "Brilliant Tech", "IFTTT",
            "Petnet", "Ecobee", "Ring Security",
        ):
            assert companies[name].dns_is_critical, name

    def test_local_failover_blocks_criticality(self):
        companies = {c.name: c for c in smart_home_companies()}
        smartthings = companies["Samsung SmartThings"]
        assert smartthings.dns_is_third_party
        assert not smartthings.dns_is_critical
