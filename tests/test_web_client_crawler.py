"""Integration tests for the web client and crawler over a generated world."""

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.tlssim.validation import RevocationPolicy
from repro.websim.crawler import CrawlResult


@pytest.fixture(scope="module")
def any_https_site(world_2020):
    for spec in world_2020.spec.websites:
        if spec.https and spec.ocsp_stapled:
            return spec
    pytest.skip("no stapled https site in world")


class TestWebClient:
    def test_fetch_landing_page(self, world_2020, vantage):
        spec = world_2020.spec.websites[0]
        scheme = "https" if spec.https else "http"
        result = vantage.web_client.get(f"{scheme}://www.{spec.domain}/")
        assert result.ok, result.error
        assert result.status == 200
        assert result.ip

    def test_https_validates_chain(self, world_2020, vantage):
        spec = next(w for w in world_2020.spec.websites if w.https)
        result = vantage.web_client.get(f"https://www.{spec.domain}/")
        assert result.https_ok
        assert result.chain is not None
        assert result.validation.chain_ok

    def test_stapled_site_presents_staple(self, vantage, any_https_site):
        result = vantage.web_client.get(f"https://www.{any_https_site.domain}/")
        assert result.stapled_response is not None

    def test_unknown_host_fails_cleanly(self, vantage):
        result = vantage.web_client.get("https://no-such-site.example/")
        assert not result.ok
        assert result.error.startswith("dns:")

    def test_bad_url_fails_cleanly(self, vantage):
        result = vantage.web_client.get("not a url")
        assert not result.ok and result.error.startswith("bad-url")

    def test_hard_fail_client_checks_revocation(self, world_2020):
        spec = next(
            w for w in world_2020.spec.websites
            if w.https and w.ca_key not in (None, "_private") and not w.ocsp_stapled
        )
        client = world_2020.vantage(
            policy=RevocationPolicy.HARD_FAIL
        ).web_client
        result = client.get(f"https://www.{spec.domain}/")
        assert result.ok, result.error
        assert result.validation.revocation_checked

    def test_revoked_cert_rejected(self, world_2020):
        spec = next(
            w for w in world_2020.spec.websites
            if w.https and w.ca_key not in (None, "_private") and not w.ocsp_stapled
        )
        responder = world_2020.website_infra[spec.domain].issuing_ca.ocsp_responder
        revoked = FaultRule(
            name="revoked", layer="tls", kind="ocsp_revoked",
            server=responder.host,
        )
        client = world_2020.vantage(
            policy=RevocationPolicy.HARD_FAIL,
            faults=FaultPlan(rules=(revoked,)),
        ).web_client
        result = client.get(f"https://www.{spec.domain}/")
        assert not result.ok
        assert "revoked" in result.error


class TestCrawler:
    def test_crawl_records_hostnames(self, world_2020, vantage):
        spec = next(w for w in world_2020.spec.websites if w.n_internal_resources >= 3)
        result: CrawlResult = vantage.crawler.crawl(spec.domain)
        assert result.ok
        assert result.landing_url.endswith(f"{spec.domain}/")
        assert len(result.resource_hostnames) >= 1

    def test_crawl_extracts_certificate_fields(self, world_2020, vantage):
        spec = next(w for w in world_2020.spec.websites if w.https)
        result = vantage.crawler.crawl(spec.domain)
        assert result.https
        assert result.certificate is not None
        assert spec.domain in result.san

    def test_crawl_falls_back_to_http(self, world_2020, vantage):
        spec = next(w for w in world_2020.spec.websites if not w.https)
        result = vantage.crawler.crawl(spec.domain)
        assert result.ok and not result.https
        assert result.landing_url.startswith("http://")

    def test_crawl_of_dead_domain(self, vantage):
        result = vantage.crawler.crawl("definitely-not-registered.example")
        assert not result.ok
        assert result.error

    def test_external_resources_visible(self, world_2020, vantage):
        spec = next(
            w for w in world_2020.spec.websites if w.external_resource_domains
        )
        result = vantage.crawler.crawl(spec.domain)
        external_hosts = {
            f"cdn.{d}" for d in spec.external_resource_domains
        }
        assert external_hosts & set(result.resource_hostnames)

    def test_hostnames_with_self_includes_landing_host(
        self, world_2020, vantage
    ):
        spec = world_2020.spec.websites[0]
        result = vantage.crawler.crawl(spec.domain)
        assert result.hostnames_with_self()[0] == f"www.{spec.domain}"
