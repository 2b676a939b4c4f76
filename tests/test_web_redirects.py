"""Tests for HTTP redirect handling in the web client.

These tests register servers and zones of their own, so they run on a
private world rather than the shared session one.
"""

import pytest

from repro import WorldConfig, build_world
from repro.websim.http import HttpServer, VirtualHost


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(n_websites=200, seed=11))


@pytest.fixture
def vantage(world):
    return world.vantage()


def _canonicalizing_site(world):
    target = next(
        (
            w for w in world.spec.websites
            if sum(ord(c) for c in w.domain) % 5 == 0
        ),
        None,
    )
    if target is None:
        pytest.skip("no canonicalizing site in world")
    return target


class TestClientRedirects:
    def test_apex_to_www_redirect_followed(self, world, vantage):
        target = _canonicalizing_site(world)
        scheme = "https" if target.https else "http"
        result = vantage.web_client.get(f"{scheme}://{target.domain}/")
        assert result.ok, result.error
        assert result.redirect_chain == [f"{scheme}://www.{target.domain}/"]
        assert result.final_url.startswith(f"{scheme}://www.")

    def test_crawler_survives_canonicalizing_sites(self, world, vantage):
        target = _canonicalizing_site(world)
        crawl = vantage.crawler.crawl(target.domain, prefer_www=False)
        assert crawl.ok

    def test_redirect_loop_detected(self, world, vantage):
        from repro.dnssim.records import ARecord, SOARecord
        from repro.dnssim.zone import Zone

        server = HttpServer("loop.test-zone.com", ["10.200.1.1"], operator="t")
        server.add_vhost(VirtualHost(
            "loop.test-zone.com", "redirect", body="http://loop.test-zone.com/"
        ))
        world.http_fabric.register_server(server)
        # Give it DNS presence via a one-off zone on the root server.
        root_hints = vantage.resolver._root_hints  # type: ignore[attr-defined]
        root_server = world.dns_network.server_at(
            root_hints[next(iter(root_hints))]
        )
        zone = Zone("test-zone.com", SOARecord("ns1.test-zone.com", "h.test-zone.com"))
        zone.add("loop.test-zone.com", ARecord("10.200.1.1"))
        zone.add("test-zone.com", ARecord("10.200.1.1"))
        # Serve from the root server directly (it answers authoritatively);
        # the vantage's cache is cold, so resolution starts at the root.
        root_server.serve_zone(zone)
        result = vantage.web_client.get("http://loop.test-zone.com/")
        assert not result.ok
        assert "too many redirects" in result.error

    def test_no_location_header_is_plain_response(self, world, vantage):
        spec = world.spec.websites[1]
        scheme = "https" if spec.https else "http"
        result = vantage.web_client.get(f"{scheme}://www.{spec.domain}/")
        assert result.redirect_chain == []
