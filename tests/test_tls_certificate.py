"""Unit tests for certificates and chains."""

import pytest

from repro.tlssim.certificate import (
    Certificate,
    CertificateChain,
    deterministic_serial,
)


def make_cert(**overrides) -> Certificate:
    defaults = dict(
        subject="example.com",
        san=("example.com", "*.example.com"),
        issuer_name="test intermediate ca",
        not_before=0.0,
        not_after=1000.0,
    )
    defaults.update(overrides)
    defaults.setdefault(
        "serial",
        deterministic_serial(defaults["issuer_name"], defaults["subject"], 0),
    )
    return Certificate(**defaults)


class TestCertificate:
    def test_serials_unique(self):
        issuance = ("test intermediate ca", "example.com", 0)
        serials = {
            deterministic_serial(*issuance),
            deterministic_serial("other ca", "example.com", 0),
            deterministic_serial("test intermediate ca", "example.org", 0),
            deterministic_serial("test intermediate ca", "example.com", 1),
        }
        assert len(serials) == 4
        assert deterministic_serial(*issuance) == deterministic_serial(*issuance)

    def test_normalization(self):
        cert = make_cert(subject="Example.COM", san=("WWW.Example.COM",))
        assert cert.subject == "example.com"
        assert cert.san == ("www.example.com",)

    def test_empty_validity_rejected(self):
        with pytest.raises(ValueError):
            make_cert(not_before=10.0, not_after=10.0)

    def test_hostname_match_exact_and_wildcard(self):
        cert = make_cert()
        assert cert.matches_hostname("example.com")
        assert cert.matches_hostname("www.example.com")
        assert not cert.matches_hostname("a.b.example.com")
        assert not cert.matches_hostname("other.org")

    def test_hostname_falls_back_to_subject_without_san(self):
        cert = make_cert(san=())
        assert cert.matches_hostname("example.com")

    def test_validity_window(self):
        cert = make_cert(not_before=100.0, not_after=200.0)
        assert not cert.is_valid_at(99.9)
        assert cert.is_valid_at(150.0)
        assert cert.is_valid_at(200.0)
        assert not cert.is_valid_at(200.1)

    def test_self_signed_detection(self):
        cert = make_cert(subject="root ca", issuer_name="Root CA", san=())
        assert cert.is_self_signed


class TestChain:
    def test_issuer_lookup(self):
        inter = make_cert(
            subject="test intermediate ca", issuer_name="test root ca",
            san=(), is_ca=True,
        )
        leaf = make_cert()
        chain = CertificateChain(leaf=leaf, intermediates=[inter])
        assert chain.issuer_of(leaf) is inter
        assert chain.issuer_of(inter) is None
        assert len(chain) == 2

    def test_non_ca_not_an_issuer(self):
        fake = make_cert(subject="test intermediate ca", san=(), is_ca=False)
        leaf = make_cert()
        chain = CertificateChain(leaf=leaf, intermediates=[fake])
        assert chain.issuer_of(leaf) is None
