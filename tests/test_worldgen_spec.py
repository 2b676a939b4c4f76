"""Unit tests for the spec IR: DnsSetup/WebsiteSpec/market spec invariants."""

import pytest

from repro.worldgen.spec import (
    PRIVATE,
    CaSpec,
    CdnSpec,
    DnsSetup,
    WebsiteSpec,
)


class TestDnsSetup:
    def test_needs_providers(self):
        with pytest.raises(ValueError):
            DnsSetup(providers=[])

    def test_private_only(self):
        setup = DnsSetup(providers=[PRIVATE])
        assert not setup.uses_third_party
        assert not setup.is_critical
        assert setup.has_private

    def test_single_third_is_critical(self):
        setup = DnsSetup(providers=["dyn"])
        assert setup.uses_third_party and setup.is_critical
        assert not setup.is_redundant

    def test_two_third_parties_redundant(self):
        setup = DnsSetup(providers=["dyn", "ultradns"])
        assert setup.is_redundant and not setup.is_critical
        assert setup.third_party_providers == ["dyn", "ultradns"]

    def test_private_plus_third_redundant(self):
        setup = DnsSetup(providers=["dyn", PRIVATE])
        assert setup.is_redundant and not setup.is_critical

    def test_duplicate_provider_not_redundant(self):
        setup = DnsSetup(providers=["dyn", "dyn"])
        assert setup.is_critical

    def test_private_leg_unmasks_soa(self):
        # Invariant: an in-house master means an in-house SOA identity.
        setup = DnsSetup(providers=["dyn", PRIVATE], soa_masked=True)
        assert not setup.soa_masked
        masked = DnsSetup(providers=["dyn"], soa_masked=True)
        assert masked.soa_masked

    def test_copy_is_deep_enough(self):
        setup = DnsSetup(providers=["dyn"])
        copy = setup.copy()
        copy.providers += ("ultradns",)
        assert setup.providers == ("dyn",)


class TestWebsiteSpec:
    def _site(self, **overrides):
        defaults = dict(domain="site.com", rank=10, entity="site.com")
        defaults.update(overrides)
        return WebsiteSpec(**defaults)

    def test_cdn_criticality(self):
        assert self._site(cdns=["akamai"]).cdn_is_critical
        assert not self._site(cdns=["akamai", "fastly"]).cdn_is_critical
        assert not self._site(cdns=[PRIVATE]).cdn_is_critical
        assert not self._site(cdns=[]).cdn_is_critical

    def test_ca_criticality(self):
        assert self._site(https=True, ca_key="digicert").ca_is_critical
        assert not self._site(
            https=True, ca_key="digicert", ocsp_stapled=True
        ).ca_is_critical
        assert not self._site(https=True, ca_key=PRIVATE).ca_is_critical
        assert not self._site(https=False).ca_is_critical

    def test_copy_independence(self):
        site = self._site(cdns=["akamai"], external_resource_domains=["x.com"])
        copy = site.copy()
        copy.cdns.append("fastly")
        copy.dns.providers += ("dyn",)
        copy.external_resource_domains.clear()
        assert site.cdns == ["akamai"]
        assert site.dns.providers == (PRIVATE,)
        assert site.external_resource_domains == ["x.com"]


class TestProviderSpecs:
    def test_ca_third_party_cdn_flag(self):
        ca = CaSpec(
            key="x", display="X", entity="x", ocsp_host="ocsp.x.net",
            crl_host="crl.x.net", share_weight=1.0, cdn_key="akamai",
        )
        assert ca.uses_third_party_cdn
        private = CaSpec(
            key="y", display="Y", entity="amazon", ocsp_host="o.y.net",
            crl_host="c.y.net", share_weight=1.0,
            cdn_key="cloudfront", cdn_private=True,
        )
        assert not private.uses_third_party_cdn

    def test_cdn_spec_copy(self):
        cdn = CdnSpec(
            key="x", display="X", entity="x",
            cname_suffixes=("x-edge.net",), share_weight=1.0,
            dns=DnsSetup(providers=["dyn"]),
        )
        copy = cdn.copy()
        copy.dns.providers += (PRIVATE,)
        assert cdn.dns.providers == ("dyn",)
