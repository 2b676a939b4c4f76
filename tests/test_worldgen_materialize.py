"""Tests that the materialized world is structurally sound and faithful to
its spec's observable artifacts."""

import pytest

from repro.failures import outage_fault_plan
from repro.worldgen.spec import PRIVATE


class TestDnsTree:
    def test_every_website_resolvable(self, world_2020, vantage):
        # Probing a sample across the rank range keeps the test fast.
        sample = world_2020.spec.websites[::23]
        for spec in sample:
            assert vantage.dig.is_resolvable(spec.domain), spec.domain

    def test_third_party_sites_use_provider_nameservers(
        self, world_2020, vantage
    ):
        spec = next(
            w for w in world_2020.spec.websites
            if w.dns.is_critical and w.dns.providers[0] in world_2020.spec.dns_providers
        )
        provider = world_2020.spec.dns_providers[spec.dns.providers[0]]
        nameservers = vantage.dig.ns(spec.domain)
        bases = {d for d in provider.ns_domains}
        assert all(any(ns.endswith(base) for base in bases) for ns in nameservers)

    def test_redundant_sites_have_multiple_ns_entities(
        self, world_2020, vantage
    ):
        spec = next(
            w for w in world_2020.spec.websites
            if w.dns.is_redundant and PRIVATE not in w.dns.providers
        )
        nameservers = vantage.dig.ns(spec.domain)
        from repro.names.registrable import registrable_domain

        bases = {registrable_domain(ns) for ns in nameservers}
        assert len(bases) >= 2

    def test_soa_masking_observable(self, world_2020, vantage):
        spec = next(
            w for w in world_2020.spec.websites
            if w.dns.is_critical and w.dns.soa_masked
            and w.dns.providers[0] in world_2020.spec.dns_providers
        )
        provider = world_2020.spec.dns_providers[spec.dns.providers[0]]
        soa = vantage.dig.soa(spec.domain)
        assert soa is not None
        assert any(
            soa.mname.endswith(domain) for domain in provider.ns_domains
        )

    def test_unmasked_soa_points_home(self, vantage):
        soa = vantage.dig.soa("amazon.com")
        assert soa is not None and soa.mname.endswith("amazon.com")


class TestWebLayer:
    def test_cdn_customers_cname_to_edges(self, world_2020, vantage):
        spec = next(
            w for w in world_2020.spec.websites
            if w.cdns and w.cdns[0] in world_2020.spec.cdns
            and not w.internal_alias_domain
        )
        cdn = world_2020.spec.cdns[spec.cdns[0]]
        infra = world_2020.website_infra[spec.domain]
        chains = [
            vantage.dig.cname_chain(host) for host in infra.resource_hosts
        ]
        flat = [name for chain in chains for name in chain]
        assert any(
            name.endswith(suffix) for name in flat for suffix in cdn.cname_suffixes
        )

    def test_certificates_issued_by_spec_ca(self, world_2020):
        spec = next(
            w for w in world_2020.spec.websites
            if w.https and w.ca_key in world_2020.spec.cas
        )
        infra = world_2020.website_infra[spec.domain]
        ca_infra = world_2020.ca_infra[spec.ca_key]
        assert infra.chain.leaf.issuer_name == ca_infra.ca.intermediate.subject

    def test_private_ca_certs_have_no_endpoints(self, world_2020):
        spec = next(
            (w for w in world_2020.spec.websites if w.https and w.ca_key == PRIVATE),
            None,
        )
        if spec is None:
            pytest.skip("no private-CA site in this world")
        infra = world_2020.website_infra[spec.domain]
        assert infra.chain.leaf.ocsp_urls == ()

    def test_ocsp_endpoints_reachable_for_market_cas(self, world_2020):
        client = world_2020.vantage().web_client
        for key, infra in world_2020.ca_infra.items():
            if key.startswith("_private"):
                continue
            url = f"http://{infra.spec.ocsp_host}/ocsp"
            assert client.fetch_ocsp(url, 1) is not None, key

    def test_stapling_flag_observable(self, world_2020, vantage):
        spec = next(
            w for w in world_2020.spec.websites if w.https and w.ocsp_stapled
        )
        result = vantage.web_client.get(f"https://www.{spec.domain}/")
        assert result.stapled_response is not None

    def test_trust_store_covers_all_issuers(self, world_2020, vantage):
        sample = [w for w in world_2020.spec.websites if w.https][::17]
        for spec in sample:
            result = vantage.web_client.get(f"https://www.{spec.domain}/")
            assert result.ok and result.validation.chain_ok, (
                spec.domain, result.error,
            )


class TestEntityAliases:
    def test_youtube_served_by_google_nameservers(self, vantage):
        nameservers = vantage.dig.ns("youtube.com")
        assert all(ns.endswith("google.com") for ns in nameservers)

    def test_youtube_and_pki_goog_share_soa(self, vantage):
        youtube = vantage.dig.soa("youtube.com")
        pki = vantage.dig.soa("ocsp.pki.goog")
        assert youtube is not None and pki is not None
        assert youtube.mname == pki.mname

    def test_yimg_resources_reach_yahoo_cdn(self, world_2020, vantage):
        infra = world_2020.website_infra["yahoo.com"]
        yimg_hosts = [h for h in infra.resource_hosts if h.endswith("yimg.com")]
        assert yimg_hosts
        addresses = vantage.dig.a(yimg_hosts[0])
        edge = world_2020.cdn_infra["yahoo-cdn"].edge_server
        assert set(addresses) <= set(edge.ips)

    def test_twitter_reclaimed_soa_in_2020(self, vantage):
        # 2016 twitter carried Dyn's SOA (the Section 3.1 trap); with the
        # 2020 private leg the zone identity is its own again, which is
        # what makes the added redundancy observable.
        soa = vantage.dig.soa("twitter.com")
        assert soa is not None and soa.mname.endswith("twitter.com")


class TestFaultInjection:
    def test_dns_outage_and_restore(self, world_2020):
        """The outage reaches only the vantage that carries its plan."""
        victim = next(
            w for w in world_2020.spec.websites
            if w.dns.providers == ("dnsmadeeasy",)
        )
        down = world_2020.vantage(
            faults=outage_fault_plan(world_2020, "dns", "dnsmadeeasy")
        ).web_client
        assert not down.get(f"http://www.{victim.domain}/").ok
        client = world_2020.vantage().web_client
        assert client.get(f"http://www.{victim.domain}/").ok

    def test_cdn_outage_kills_resources_not_landing(self, world_2020):
        from repro.tlssim.validation import RevocationPolicy

        victim = next(
            w for w in world_2020.spec.websites
            if w.cdns == ["cloudfront"] and not w.internal_alias_domain
        )
        infra = world_2020.website_infra[victim.domain]
        scheme = "https" if victim.https else "http"
        # Soft-fail (browser-like) clients: the landing page survives a
        # CDN outage; hard-fail clients may not, since Amazon's own CA
        # fronts its OCSP through CloudFront — the 2019 cascade.
        client = world_2020.vantage(
            policy=RevocationPolicy.SOFT_FAIL,
            faults=outage_fault_plan(world_2020, "cdn", "cloudfront"),
        ).web_client
        landing = client.get(f"{scheme}://www.{victim.domain}/")
        assert landing.ok
        lost = [
            host for host in infra.resource_hosts
            if not client.get(f"{scheme}://{host}/x").ok
        ]
        assert lost
