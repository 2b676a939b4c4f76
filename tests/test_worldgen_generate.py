"""Tests for snapshot generation: markets, website draws, corner cases."""

import random
from dataclasses import replace

import pytest

from repro.worldgen.config import WorldConfig
from repro.worldgen.generate import (
    TARGETS_2016,
    TARGETS_2020,
    build_ca_market,
    build_cdn_market,
    build_dns_market,
    generate_snapshot,
)
from repro.worldgen.spec import PRIVATE


@pytest.fixture(scope="module")
def spec_2016():
    return generate_snapshot(WorldConfig(n_websites=800, seed=5, year=2016))


@pytest.fixture(scope="module")
def spec_2020_markets():
    config = WorldConfig(n_websites=800, seed=5)
    rng = random.Random(5)
    dns = build_dns_market(config, 2020, rng)
    cdn = build_cdn_market(config, 2020, dns, rng)
    ca = build_ca_market(config, 2020, dns, cdn, rng)
    return dns, cdn, ca


class TestMarkets:
    def test_market_sizes_match_paper(self, spec_2020_markets):
        dns, cdn, ca = spec_2020_markets
        assert len(cdn) == 86
        assert len(ca) == 59
        assert len(dns) > 20  # named + tail

    def test_2016_market_sizes(self, spec_2016):
        assert len(spec_2016.cdns) == 47
        assert len(spec_2016.cas) == 70

    def test_cdn_interservice_counts_hit_targets(self, spec_2020_markets):
        _, cdn, _ = spec_2020_markets
        third = sum(1 for c in cdn.values() if c.dns.uses_third_party)
        critical = sum(1 for c in cdn.values() if c.dns.is_critical)
        assert third == TARGETS_2020.cdn_third_party
        assert critical == TARGETS_2020.cdn_critical

    def test_ca_interservice_counts_hit_targets(self, spec_2020_markets):
        _, _, ca = spec_2020_markets
        third = sum(1 for c in ca.values() if c.dns.uses_third_party)
        critical = sum(1 for c in ca.values() if c.dns.is_critical)
        assert third == TARGETS_2020.ca_dns_third_party
        assert critical == TARGETS_2020.ca_dns_critical

    def test_ca_cdn_third_party_target(self, spec_2020_markets):
        _, _, ca = spec_2020_markets
        third = sum(1 for c in ca.values() if c.uses_third_party_cdn)
        assert third == TARGETS_2020.ca_cdn_third_party

    def test_2016_interservice_targets(self, spec_2016):
        # Named corner-case CDNs (twimg, airbnb-assets, ...) already exceed
        # the paper's 2016 counts slightly; synthetics only top up, so the
        # totals sit within a small band above the target.
        third = sum(1 for c in spec_2016.cdns.values() if c.dns.uses_third_party)
        critical = sum(1 for c in spec_2016.cdns.values() if c.dns.is_critical)
        assert TARGETS_2016.cdn_third_party <= third <= TARGETS_2016.cdn_third_party + 2
        assert TARGETS_2016.cdn_critical <= critical <= TARGETS_2016.cdn_critical + 2

    def test_marquee_dependencies_present(self, spec_2020_markets):
        _, _, ca = spec_2020_markets
        assert ca["digicert"].dns.providers == ("dnsmadeeasy",)
        assert ca["digicert"].cdn_key == "incapsula"
        assert ca["letsencrypt"].dns.providers == ("cloudflare",)
        assert ca["letsencrypt"].cdn_key == "cloudflare-cdn"

    def test_same_entity_dns_folds_to_private(self, spec_2020_markets):
        _, _, ca = spec_2020_markets
        # Amazon Trust Services on Route 53: same entity, hence private.
        assert ca["amazon-ca"].dns.providers == (PRIVATE,)
        assert ca["amazon-ca"].cdn_private

    def test_symantec_gone_by_2020(self, spec_2020_markets, spec_2016):
        _, _, ca = spec_2020_markets
        assert "symantec" not in ca
        assert "symantec" in spec_2016.cas


class TestWebsiteGeneration:
    def test_population_size(self, spec_2016):
        assert len(spec_2016.websites) == 800
        assert [w.rank for w in spec_2016.websites] == list(range(1, 801))

    def test_deterministic(self):
        config = WorldConfig(n_websites=300, seed=9, year=2016)
        a = generate_snapshot(config)
        b = generate_snapshot(config)
        assert [w.domain for w in a.websites] == [w.domain for w in b.websites]
        assert [w.dns.providers for w in a.websites] == [
            w.dns.providers for w in b.websites
        ]

    def test_seed_changes_world(self):
        a = generate_snapshot(WorldConfig(n_websites=300, seed=1, year=2016))
        b = generate_snapshot(WorldConfig(n_websites=300, seed=2, year=2016))
        assert [w.dns.providers for w in a.websites] != [
            w.dns.providers for w in b.websites
        ]

    def test_ca_assigned_only_with_https(self, spec_2016):
        for website in spec_2016.websites:
            if not website.https:
                assert website.ca_key is None
                assert not website.ocsp_stapled

    def test_cdn_lists_reference_market(self, spec_2016):
        for website in spec_2016.websites:
            for key in website.cdns:
                assert key == PRIVATE or key in spec_2016.cdns

    def test_headline_rates_in_band(self, spec_2016):
        n = len(spec_2016.websites)
        third = sum(1 for w in spec_2016.websites if w.dns.uses_third_party) / n
        https = sum(1 for w in spec_2016.websites if w.https) / n
        assert 0.75 <= third <= 0.92
        assert 0.38 <= https <= 0.56


class TestCornerCases:
    def test_twitter_on_dyn_with_masked_soa(self, spec_2016):
        twitter = spec_2016.website_by_domain()["twitter.com"]
        assert twitter.dns.providers == ("dyn",)
        assert twitter.dns.soa_masked

    def test_amazon_redundant_with_own_soa(self, spec_2016):
        amazon = spec_2016.website_by_domain()["amazon.com"]
        assert set(amazon.dns.providers) == {"dyn", "ultradns"}
        assert not amazon.dns.soa_masked

    def test_youtube_is_google_entity(self, spec_2016):
        youtube = spec_2016.website_by_domain()["youtube.com"]
        assert youtube.entity == "google"
        assert "*.google.com" in youtube.alias_sans

    def test_yahoo_private_cdn_alias(self, spec_2016):
        yahoo = spec_2016.website_by_domain()["yahoo.com"]
        assert yahoo.cdns == ["yahoo-cdn"]
        assert yahoo.internal_alias_domain == "yimg.com"

    def test_corner_cases_can_be_disabled(self):
        spec = generate_snapshot(
            WorldConfig(n_websites=300, seed=5, year=2016, include_corner_cases=False)
        )
        assert "twitter.com" not in spec.website_by_domain()
