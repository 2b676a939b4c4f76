"""Unit tests for the HTTP fabric, virtual hosts, and CDN mechanics."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.tlssim.ca import CertificateAuthority
from repro.tlssim.crl import CertificateRevocationList
from repro.tlssim.ocsp import CertStatus
from repro.websim.cdn import CdnProvider
from repro.websim.http import (
    ConnectionFailedError,
    HttpFabric,
    HttpServer,
    VirtualHost,
)


@pytest.fixture
def server():
    srv = HttpServer("origin.x.com", ["10.1.0.1"], operator="x")
    srv.add_vhost(VirtualHost("x.com", owner="x.com"))
    srv.add_vhost(VirtualHost("*.edge.x.com", "edge", owner="XCDN"))
    return srv


class TestVirtualHost:
    def test_exact_match(self, server):
        assert server.vhost_for("x.com").hostname == "x.com"

    def test_wildcard_match(self, server):
        assert server.vhost_for("cust1.edge.x.com") is not None
        assert server.vhost_for("edge.x.com") is None  # apex not covered

    def test_exact_beats_wildcard(self, server):
        server.add_vhost(VirtualHost("special.edge.x.com", owner="x.com"))
        assert server.vhost_for("special.edge.x.com").hostname == "special.edge.x.com"

    def test_unknown_host_is_421(self, server):
        assert server.request("unknown.org", "/").status == 421

    def test_request_dispatch(self, server):
        response = server.request("x.com", "/index")
        assert response.ok and response.body == "object /index from x.com"
        edge = server.request("a.edge.x.com", "/o")
        assert edge.body == "cached object /o for a.edge.x.com"
        assert edge.headers == {"server": "XCDN", "x-cache": "HIT"}

    def test_landing_and_redirect_kinds(self, server):
        server.add_vhost(
            VirtualHost("www.x.com", "landing", owner="x.com", body="<html>")
        )
        server.add_vhost(
            VirtualHost("x.org", "redirect", body="https://www.x.com/")
        )
        landing = server.request("www.x.com", "/")
        assert landing.body == "<html>"
        assert landing.headers == {"server": "x.com"}
        assert server.request("www.x.com", "/a").body == "object /a from x.com"
        moved = server.request("x.org", "/index.html")
        assert moved.status == 301
        assert moved.headers == {"location": "https://www.x.com/"}
        assert server.request("x.org", "/a").body == "object /a"

    def test_revocation_kinds_answer_for_their_ca(self):
        ca = CertificateAuthority("Test CA", "t", ocsp_host="ocsp.t.com")
        cert = ca.issue("a.com", ("a.com",), now=0.0)
        srv = HttpServer("svc.t.com", ["10.1.0.2"])
        srv.add_vhost(VirtualHost("ocsp.t.com", "revocation", ca=ca))
        ocsp = srv.request("ocsp.t.com", f"/ocsp?serial={cert.serial}", now=5.0)
        assert ocsp.body == "ocsp" and ocsp.payload.status is CertStatus.GOOD
        assert ocsp.payload.this_update == 5.0
        assert srv.request("ocsp.t.com", "/ocsp?serial=x").status == 400
        crl = srv.request("ocsp.t.com", "/crl/test.crl", now=5.0)
        assert isinstance(crl.payload, CertificateRevocationList)
        stale = FaultInjector(FaultPlan(rules=(
            FaultRule(name="s", layer="tls", kind="crl_stale"),
        )))
        assert srv.request(
            "ocsp.t.com", "/crl/test.crl", injector=stale, now=5.0
        ).payload.next_update < 5.0

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            VirtualHost("x.com", "proxy")  # type: ignore[arg-type]

    def test_https_support_flag(self, server):
        assert not server.vhost_for("x.com").supports_https


class TestFabric:
    def test_connect_and_request(self, server):
        fabric = HttpFabric()
        fabric.register_server(server)
        assert fabric.connect("10.1.0.1") is server

    def test_unknown_ip(self):
        fabric = HttpFabric()
        with pytest.raises(ConnectionFailedError):
            fabric.connect("10.9.9.9")

    def test_outage(self, server):
        """A server is down for a client whose plan times out its
        connects, and only for that client."""
        fabric = HttpFabric()
        fabric.register_server(server)
        down = FaultInjector(FaultPlan(rules=(
            FaultRule(name="down", layer="web", kind="timeout",
                      server=server.name),
        )))
        with pytest.raises(ConnectionFailedError):
            fabric.connect("10.1.0.1", "x.com", injector=down)
        assert fabric.connect("10.1.0.1", "x.com") is server

    def test_ip_conflict(self, server):
        fabric = HttpFabric()
        fabric.register_server(server)
        with pytest.raises(ValueError):
            fabric.register_server(HttpServer("other", ["10.1.0.1"]))

    def test_server_needs_ip(self):
        with pytest.raises(ValueError):
            HttpServer("no-ip", [])


class TestCdnProvider:
    def make_cdn(self):
        edge = HttpServer("edge.fastcdn.net", ["10.2.0.1", "10.2.0.2"], operator="fastcdn")
        return CdnProvider(
            name="FastCDN", operator="fastcdn",
            cname_suffixes=["fastcdn.net", "fastcdn-alt.org"],
            edge_server=edge,
        )

    def test_needs_suffix(self):
        edge = HttpServer("e", ["10.0.0.1"])
        with pytest.raises(ValueError):
            CdnProvider("X", "x", [], edge)

    def test_edge_hostname_allocation(self):
        cdn = self.make_cdn()
        assert cdn.edge_hostname_for("Customer-1") == "customer-1.fastcdn.net"

    def test_serves_cname(self):
        cdn = self.make_cdn()
        assert cdn.serves_cname("a.fastcdn.net")
        assert cdn.serves_cname("b.fastcdn-alt.org")
        assert not cdn.serves_cname("a.othercdn.net")
        assert not cdn.serves_cname("notfastcdn.net")

    def test_deploy_registers_vhosts(self):
        cdn = self.make_cdn()
        deployment = cdn.deploy("cust1", ["static.cust1.com"])
        assert deployment.edge_hostname == "cust1.fastcdn.net"
        # Edge answers for both the customer hostname (SNI) and edge name.
        assert cdn.edge_server.vhost_for("static.cust1.com") is not None
        assert cdn.edge_server.vhost_for("cust1.fastcdn.net") is not None
        response = cdn.edge_server.request("static.cust1.com", "/obj")
        assert response.ok and response.headers.get("x-cache") == "HIT"

    def test_ca_deployment_serves_revocation(self):
        cdn = self.make_cdn()
        ca = CertificateAuthority("Edge CA", "e", ocsp_host="ocsp.e.com")
        cdn.deploy("ca-e", ["ocsp.e.com"], ca=ca)
        response = cdn.edge_server.request("ocsp.e.com", "/ocsp?serial=1")
        assert response.body == "ocsp"
        assert response.payload.status is CertStatus.UNKNOWN
        assert cdn.edge_server.request("ocsp.e.com", "/crl/e.crl").body == "crl"
