"""Catalog consistency checks and assorted edge-path tests."""

import pytest

from repro.worldgen.catalog import provider_catalog
from repro.worldgen.spec import PRIVATE


class TestCatalogConsistency:
    def test_unique_keys(self):
        catalog = provider_catalog()
        for entries in (catalog.dns_providers, catalog.cdns, catalog.cas):
            keys = [e.key for e in entries]
            assert len(keys) == len(set(keys))

    def test_lookup_helpers(self):
        catalog = provider_catalog()
        assert catalog.dns_by_key()["dyn"].display == "Dyn (Oracle)"
        assert catalog.cdn_by_key()["fastly"].entity == "fastly"
        assert catalog.ca_by_key()["digicert"].share_2020 > 0

    def test_dns_choices_reference_real_providers(self):
        catalog = provider_catalog()
        dns_keys = {e.key for e in catalog.dns_providers} | {"private", PRIVATE}
        for cdn in catalog.cdns:
            for choice in (cdn.dns_choice_2016, cdn.dns_choice_2020):
                keys = (choice,) if isinstance(choice, str) else choice
                for key in keys:
                    assert key in dns_keys, (cdn.key, key)
        for ca in catalog.cas:
            for choice in (ca.dns_choice_2016, ca.dns_choice_2020):
                keys = (choice,) if isinstance(choice, str) else choice
                for key in keys:
                    assert key in dns_keys, (ca.key, key)

    def test_cdn_choices_reference_real_cdns(self):
        catalog = provider_catalog()
        cdn_keys = {e.key for e in catalog.cdns}
        for ca in catalog.cas:
            for choice in (ca.cdn_choice_2016, ca.cdn_choice_2020):
                if choice is not None:
                    assert choice in cdn_keys, (ca.key, choice)

    def test_shares_nonnegative(self):
        catalog = provider_catalog()
        for entries in (catalog.dns_providers, catalog.cdns, catalog.cas):
            for entry in entries:
                assert entry.share_2016 >= 0 and entry.share_2020 >= 0

    def test_dyn_shrank_after_attack(self):
        dyn = provider_catalog().dns_by_key()["dyn"]
        assert dyn.share_2020 < dyn.share_2016

    def test_marquee_amplifiers_present(self):
        catalog = provider_catalog()
        digicert = catalog.ca_by_key()["digicert"]
        assert digicert.dns_choice_2020 == "dnsmadeeasy"
        assert digicert.cdn_choice_2020 == "incapsula"
        lets = catalog.ca_by_key()["letsencrypt"]
        assert lets.cdn_choice_2016 is None  # adopted a CDN by 2020
        assert lets.cdn_choice_2020 == "cloudflare-cdn"

    def test_ns_domains_unique_across_providers(self):
        catalog = provider_catalog()
        seen: dict[str, str] = {}
        for provider in catalog.dns_providers:
            for domain in provider.ns_domains:
                assert domain not in seen, (domain, provider.key, seen[domain])
                seen[domain] = provider.key

    def test_cname_suffixes_unique_across_cdns(self):
        catalog = provider_catalog()
        seen: dict[str, str] = {}
        for cdn in catalog.cdns:
            for suffix in cdn.cname_suffixes:
                assert suffix not in seen, (suffix, cdn.key)
                seen[suffix] = cdn.key


class TestDigClientEdges:
    def test_cname_chain_of_plain_host(self, world_2020, vantage):
        spec = world_2020.spec.websites[0]
        assert vantage.dig.cname_chain(spec.domain) == []

    def test_ns_of_unresolvable_name(self, vantage):
        assert vantage.dig.ns("nope.invalid-tld-xyz") == []

    def test_soa_of_unresolvable_name(self, vantage):
        # Unknown TLD: the root answers NXDOMAIN with the root SOA.
        soa = vantage.dig.soa("nope.invalid-tld-xyz")
        assert soa is None or soa.mname  # never raises

    def test_query_passthrough(self, vantage):
        from repro.dnssim.records import RRType

        result = vantage.dig.query("twitter.com", RRType.NS)
        assert result.records


class TestWorldApi:
    def test_repr(self, world_2020):
        text = repr(world_2020)
        assert "World(year=2020" in text

    def test_two_vantages_share_no_cache(self, world_2020, vantage):
        spec = world_2020.spec.websites[0]
        vantage.dig.is_resolvable(spec.domain)  # warm the first cache
        other = world_2020.vantage()
        assert other.resolver.cache is not vantage.resolver.cache
        other.web_client.get(f"http://www.{spec.domain}/")
        assert other.resolver.stats.queries > 0


class TestRestrictedGraph:
    def test_empty_restriction_drops_interservice_edges(self, snapshot_2020):
        direct = snapshot_2020.restricted_graph(())
        for consumer, provider, _critical in snapshot_2020.interservice_edges:
            assert provider not in direct.provider_dependencies(consumer)

    def test_full_restriction_matches_main_graph(self, snapshot_2020):
        full = snapshot_2020.restricted_graph(("ca-dns", "ca-cdn", "cdn-dns"))
        from repro.core.graph import ProviderNode, ServiceType

        node = ProviderNode("dnsmadeeasy.com", ServiceType.DNS)
        assert full.impact(node) == snapshot_2020.graph.impact(node)

    def test_unknown_kind_is_noop(self, snapshot_2020):
        graph = snapshot_2020.restricted_graph(("smtp-dns",))
        assert graph.websites()
