"""Unit tests for CAs, OCSP responders/caches, and CRLs."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.tlssim.ca import CertificateAuthority, IssuancePolicy
from repro.tlssim.crl import CertificateRevocationList
from repro.tlssim.ocsp import CertStatus, OCSPResponseCache


def _revoke_all(host: str) -> FaultInjector:
    """A vantage's injector that makes the responder on ``host`` call
    every certificate revoked (the GlobalSign 2016 failure)."""
    return FaultInjector(FaultPlan(rules=(
        FaultRule(name="revoke-all", layer="tls", kind="ocsp_revoked",
                  server=host),
    )))


@pytest.fixture
def ca() -> CertificateAuthority:
    return CertificateAuthority(
        name="TestCA", operator="testco", ocsp_host="ocsp.testca.net",
        crl_host="crl.testca.net",
    )


class TestIssuance:
    def test_root_is_trust_anchor_material(self, ca):
        assert ca.root.is_ca and ca.root.is_self_signed

    def test_intermediate_signed_by_root(self, ca):
        assert ca.intermediate.issuer_name == ca.root.subject
        assert ca.intermediate.signature == f"sig:{ca.root.key_id}"

    def test_leaf_fields(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        assert cert.issuer_name == ca.intermediate.subject
        assert cert.ocsp_urls == ("http://ocsp.testca.net/ocsp",)
        assert cert.crl_urls and "crl.testca.net" in cert.crl_urls[0]

    def test_policy_can_omit_endpoints(self):
        ca = CertificateAuthority(
            "NoEndpoints", "x", "ocsp.x.net",
            policy=IssuancePolicy(include_ocsp=False, include_crl=False),
        )
        cert = ca.issue("a.com", ("a.com",), now=0.0)
        assert cert.ocsp_urls == () and cert.crl_urls == ()

    def test_san_required(self, ca):
        with pytest.raises(ValueError):
            ca.issue("example.com", (), now=0.0)

    def test_chain_for(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        chain = ca.chain_for(cert)
        assert chain.leaf is cert
        assert chain.intermediates == (ca.intermediate,)

    def test_no_intermediate_mode(self):
        ca = CertificateAuthority("Direct", "x", "ocsp.x.net", use_intermediate=False)
        cert = ca.issue("a.com", ("a.com",), now=0.0)
        assert cert.issuer_name == ca.root.subject
        assert len(ca.chain_for(cert)) == 1


class TestRevocation:
    def test_revoke_and_ocsp(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        assert ca.ocsp_responder.status_of(cert.serial, 0.0).status == CertStatus.GOOD
        ca.revoke(cert.serial)
        assert ca.is_revoked(cert.serial)
        assert ca.ocsp_responder.status_of(cert.serial, 0.0).status == CertStatus.REVOKED

    def test_unrevoke(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        ca.revoke(cert.serial)
        ca.unrevoke(cert.serial)
        assert ca.ocsp_responder.status_of(cert.serial, 0.0).status == CertStatus.GOOD

    def test_revoking_foreign_serial_rejected(self, ca):
        with pytest.raises(ValueError):
            ca.revoke(999_999_999)

    def test_unknown_serial_status(self, ca):
        assert ca.ocsp_responder.status_of(123456789, 0.0).status == CertStatus.UNKNOWN

    def test_misconfiguration_revokes_everything(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        responder = ca.ocsp_responder
        broken = _revoke_all("ocsp.testca.net")
        assert responder.status_of(cert.serial, 0.0, broken).status == CertStatus.REVOKED
        assert responder.status_of(123456789, 0.0, broken).status == CertStatus.REVOKED
        assert responder.status_of(cert.serial, 0.0).status == CertStatus.GOOD
        elsewhere = _revoke_all("ocsp.other.net")
        assert responder.status_of(cert.serial, 0.0, elsewhere).status == CertStatus.GOOD

    def test_response_validity_window(self, ca):
        response = ca.ocsp_responder.status_of(1, now=100.0)
        assert response.is_fresh_at(100.0)
        assert response.is_fresh_at(100.0 + ca.ocsp_responder.response_lifetime)
        assert not response.is_fresh_at(101.0 + ca.ocsp_responder.response_lifetime)

    def test_crl_contents(self, ca):
        cert = ca.issue("example.com", ("example.com",), now=0.0)
        ca.revoke(cert.serial)
        crl = ca.cdp.current_crl(now=0.0)
        assert crl.is_revoked(cert.serial)
        assert not crl.is_revoked(cert.serial + 1)
        assert crl.is_fresh_at(0.0)

    def test_crl_freshness(self):
        crl = CertificateRevocationList("x", this_update=0.0, next_update=10.0)
        assert crl.is_fresh_at(5.0)
        assert not crl.is_fresh_at(11.0)


class TestOcspClientCache:
    def test_caches_fresh_responses(self, ca):
        cache = OCSPResponseCache()
        response = ca.ocsp_responder.status_of(1, now=0.0)
        cache.put(response)
        assert cache.get(1, now=0.0) is response
        assert cache.hits == 1

    def test_expired_responses_dropped(self, ca):
        cache = OCSPResponseCache()
        response = ca.ocsp_responder.status_of(1, now=0.0)
        cache.put(response)
        assert cache.get(1, now=response.next_update + 1) is None
        assert len(cache) == 0

    def test_sticky_bad_responses(self, ca):
        """The GlobalSign dynamic: a cached REVOKED response outlives the fix."""
        cache = OCSPResponseCache()
        bad = ca.ocsp_responder.status_of(
            1, now=0.0, injector=_revoke_all("ocsp.testca.net")
        )
        cache.put(bad)
        cached = cache.get(1, now=100.0)
        assert cached is not None and cached.status == CertStatus.REVOKED
