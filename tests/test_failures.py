"""Tests for incident replay: outages, mass revocation, what-if planning."""

import pytest

from repro import WorldConfig, build_world
from repro.core.graph import ProviderNode, ServiceType
from repro.failures import (
    outage_fault_plan,
    simulate_ca_outage,
    simulate_cdn_outage,
    simulate_dns_outage,
    simulate_mass_revocation,
    website_exposure,
)
from repro.failures.whatif import exposure_distribution, redundancy_benefit
from repro.worldgen.spec import PRIVATE


class TestDnsOutage:
    def test_critical_customers_break(self, world_2020):
        victims = [
            w.domain for w in world_2020.spec.websites
            if w.dns.providers == ("cloudflare",)
        ][:15]
        assert victims, "need cloudflare-critical sites"
        result = simulate_dns_outage(
            world_2020, "cloudflare", domains=victims, check_resources=False
        )
        assert set(result.unreachable) == set(victims)

    def test_redundant_customers_survive(self, world_2020):
        survivors = [
            w.domain for w in world_2020.spec.websites
            if "cloudflare" in w.dns.providers and w.dns.is_redundant
        ][:10]
        if not survivors:
            pytest.skip("no redundant cloudflare customers in this world")
        result = simulate_dns_outage(
            world_2020, "cloudflare", domains=survivors, check_resources=False
        )
        assert not result.unreachable

    def test_world_restored_after_outage(self, world_2020):
        """An outage is its vantage's plan, not world state: a plan-less
        vantage taken while an outage vantage is live still reaches the
        victim."""
        victim = next(
            w.domain for w in world_2020.spec.websites
            if w.dns.providers == ("cloudflare",)
        )
        down = world_2020.vantage(
            faults=outage_fault_plan(world_2020, "dns", "cloudflare")
        ).web_client
        assert not down.get(f"http://www.{victim}/").ok
        client = world_2020.vantage().web_client
        assert client.get(f"http://www.{victim}/").ok
        assert not down.get(f"http://www.{victim}/").ok

    def test_prediction_matches_behaviour(self, world_2020, snapshot_2020):
        """The paper's impact metric, validated operationally."""
        node = ProviderNode("dnsmadeeasy.com", ServiceType.DNS)
        predicted = snapshot_2020.graph.direct_dependents(node, critical_only=True)
        sample = sorted(predicted)[:20]
        if not sample:
            pytest.skip("nobody critically on dnsmadeeasy in this world")
        result = simulate_dns_outage(
            world_2020, "dnsmadeeasy", domains=sample, check_resources=False
        )
        assert set(result.unreachable) == set(sample)

    def test_affected_fraction(self, world_2020):
        result = simulate_dns_outage(
            world_2020, "dyn",
            domains=[w.domain for w in world_2020.spec.websites[:50]],
            check_resources=False,
        )
        assert 0.0 <= result.affected_fraction() <= 1.0
        assert result.total_probed == 50


class TestOutageFaultPlan:
    @pytest.mark.parametrize("service", ["dns", "cdn", "ca"])
    def test_unknown_key_names_service_and_key(self, world_2020, service):
        with pytest.raises(ValueError, match=f"{service} provider 'route53'"):
            outage_fault_plan(world_2020, service, "route53")

    def test_unknown_service_is_named(self, world_2020):
        with pytest.raises(ValueError, match="'dnssec'"):
            outage_fault_plan(world_2020, "dnssec", "dyn")

    def test_rules_target_the_provider_servers(self, world_2020):
        dns = outage_fault_plan(world_2020, "dns", "dyn")
        assert [rule.server for rule in dns.rules] == [
            server.name for server in world_2020.dns_infra["dyn"].servers
        ]
        assert {(r.layer, r.kind, r.probability) for r in dns.rules} == {
            ("dns", "drop", 1.0)
        }
        cdn = outage_fault_plan(world_2020, "cdn", "cloudfront")
        edge = world_2020.cdn_infra["cloudfront"].edge_server
        assert [(r.layer, r.kind, r.server) for r in cdn.rules] == [
            ("web", "timeout", edge.name)
        ]
        for key, infra in world_2020.ca_infra.items():
            ca = outage_fault_plan(world_2020, "ca", key)
            served = infra.service_server
            assert [r.server for r in ca.rules] == (
                [] if served is None else [served.name]
            )


class TestCdnOutage:
    def test_single_cdn_customers_degrade(self, world_2020):
        victims = [
            w.domain for w in world_2020.spec.websites
            if w.cdns == ["cloudflare-cdn"] and not w.internal_alias_domain
        ][:8]
        assert victims
        result = simulate_cdn_outage(world_2020, "cloudflare-cdn", domains=victims)
        assert set(result.degraded) >= set(victims[:1])
        assert not result.unreachable  # landing pages stay up


class TestCaOutage:
    def test_unstapled_sites_lose_https_hard_fail(self, world_2020):
        # Pick a CA whose endpoints are directly hosted (not CDN-fronted).
        ca_key = next(
            key for key, spec in world_2020.spec.cas.items()
            if spec.cdn_key is None
        )
        victims = [
            w.domain for w in world_2020.spec.websites
            if w.https and w.ca_key == ca_key and not w.ocsp_stapled
        ][:5]
        if not victims:
            pytest.skip(f"no unstapled {ca_key} customers")
        result = simulate_ca_outage(world_2020, ca_key, domains=victims)
        assert set(result.unreachable) == set(victims)

    def test_stapled_sites_survive_ca_outage(self, world_2020):
        ca_key = next(
            key for key, spec in world_2020.spec.cas.items()
            if spec.cdn_key is None
        )
        stapled = [
            w.domain for w in world_2020.spec.websites
            if w.https and w.ca_key == ca_key and w.ocsp_stapled
        ][:5]
        if not stapled:
            pytest.skip(f"no stapled {ca_key} customers")
        result = simulate_ca_outage(world_2020, ca_key, domains=stapled)
        assert set(result.unaffected) == set(stapled)


@pytest.fixture(scope="module")
def revocation_world():
    """A private world: the incident advances its clock by days."""
    return build_world(WorldConfig(n_websites=600, seed=11))


class TestMassRevocation:
    def test_three_phase_incident(self, revocation_world):
        victims = [
            w.domain for w in revocation_world.spec.websites
            if w.https and w.ca_key == "globalsign" and not w.ocsp_stapled
        ][:6]
        controls = [
            w.domain for w in revocation_world.spec.websites
            if w.https and w.ca_key == "digicert" and not w.ocsp_stapled
        ][:4]
        if not victims:
            pytest.skip("no globalsign customers")
        result = simulate_mass_revocation(
            revocation_world, "globalsign", victims + controls
        )
        assert set(victims) <= set(result.denied_during)
        assert not set(controls) & set(result.denied_during)
        # Cached poison persists, then clears.
        assert set(result.denied_after_fix_cached) == set(result.denied_during)
        assert set(result.recovered_after_expiry) == set(result.denied_during)

    def test_unknown_ca_is_named(self, world_2020):
        with pytest.raises(
            ValueError, match="no ca provider 'route53' in this world"
        ):
            simulate_mass_revocation(world_2020, "route53", [])


class TestWhatIf:
    def test_exposure_report_for_academia(self, snapshot_2020):
        report = website_exposure(snapshot_2020, "academia.edu")
        assert "DNSMadeEasy" in report.direct_critical
        assert any("MaxCDN" in p for p in report.direct_critical)
        # The intro's hidden chain: MaxCDN -> AWS DNS.
        assert any("Route 53" in p or "aws" in p for p in report.transitive_critical)
        assert report.critical_dependency_count >= 3

    def test_redundant_site_has_fewer_spofs(self, snapshot_2020):
        redundant = next(
            w for w in snapshot_2020.websites
            if w.dns.is_redundant and not w.uses_cdn and not w.ca.is_critical
        )
        report = website_exposure(snapshot_2020, redundant.domain)
        assert not any(
            "dns" in p for p in report.direct_critical
        ) or report.critical_dependency_count <= 1

    def test_exposure_distribution_shape(self, snapshot_2020):
        histogram = exposure_distribution(snapshot_2020)
        assert sum(histogram.values()) == len(snapshot_2020.websites)
        multi = sum(v for k, v in histogram.items() if k >= 3)
        # Section 8.1: a sizable share of sites carries >= 3 critical deps.
        assert multi / len(snapshot_2020.websites) > 0.10

    def test_redundancy_benefit_nonnegative(self, snapshot_2020):
        for service in ("dns", "cdn", "ca"):
            benefit = redundancy_benefit(snapshot_2020, "academia.edu", service)
            assert benefit >= 0
