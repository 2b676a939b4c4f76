"""The HTTP fabric: servers, virtual hosts, and IP-level routing.

Mirrors :class:`repro.dnssim.network.DnsNetwork` one layer up the stack.
A :class:`HttpServer` listens on IPs and serves named virtual hosts; the
fabric routes a connection to whichever server owns the destination IP.
Failures belong to the connecting client's fault injector: a CDN outage
is a plan that times out every connection to the CDN's edge server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Optional

from repro.faults.injector import FaultInjector
from repro.names.normalize import normalize
from repro.tlssim.ca import CertificateAuthority
from repro.tlssim.certificate import CertificateChain
from repro.tlssim.ocsp import OCSPResponder


class HttpFabricError(Exception):
    """Base error for fabric-level failures."""


class ConnectionFailedError(HttpFabricError):
    """Nothing is listening on the destination IP, or the connect timed
    out under an injected fault."""

    def __init__(self, ip: str):
        self.ip = ip
        super().__init__(f"connection to {ip} failed")


@dataclass
class HttpResponse:
    """A simulated HTTP response."""

    status: int
    body: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    payload: object = None  # structured side channel (OCSP/CRL objects)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


#: What a virtual host serves: objects and a landing page of ``owner``'s,
#: a root-path redirect to ``body``, a CDN edge named ``owner``, or the
#: OCSP and/or CRL endpoints of ``ca`` (``revocation``: both, by path).
VhostKind = Literal[
    "static", "landing", "redirect", "edge", "ocsp", "crl", "revocation"
]

_ROOT_PATHS = ("/", "/index.html")


@dataclass(slots=True)
class VirtualHost:
    """One served hostname: what it serves plus its TLS configuration.

    A virtual host is data, answered by the function of its ``kind``.
    ``owner`` is the owning name (a website domain, or a CDN's display
    name), ``body`` the landing page or the redirect target. ``hostname``
    may be a wildcard (``*.edge.example-cdn.net``) — CDNs serve thousands
    of customer edge names from one vhost. ``stapler`` is the OCSP
    responder a stapling server fetches its proofs from (None: no
    stapling).
    """

    hostname: str
    kind: VhostKind = "static"
    owner: str = ""
    body: str = ""
    ca: Optional[CertificateAuthority] = None
    chain: Optional[CertificateChain] = None
    stapler: Optional[OCSPResponder] = None

    def __post_init__(self) -> None:
        if self.kind not in _ANSWERS:
            raise ValueError(f"unknown virtual-host kind {self.kind!r}")
        self.hostname = normalize(self.hostname)

    @property
    def supports_https(self) -> bool:
        return self.chain is not None

    def matches(self, hostname: str) -> bool:
        hostname = normalize(hostname)
        if self.hostname == hostname:
            return True
        if self.hostname.startswith("*."):
            suffix = self.hostname[2:]
            return hostname.endswith("." + suffix) and hostname != suffix
        return False


# One answer function per kind: (vhost, the host the client asked for,
# path, the client's fault injector, simulated time) -> response.


def _static(vhost: VirtualHost, host: str, path: str,
            injector: Optional[FaultInjector], now: float) -> HttpResponse:
    return HttpResponse(status=200, body=f"object {path} from {vhost.owner}")


def _landing(vhost: VirtualHost, host: str, path: str,
             injector: Optional[FaultInjector], now: float) -> HttpResponse:
    if path in _ROOT_PATHS:
        return HttpResponse(
            status=200, body=vhost.body, headers={"server": vhost.owner}
        )
    return _static(vhost, host, path, injector, now)


def _redirect(vhost: VirtualHost, host: str, path: str,
              injector: Optional[FaultInjector], now: float) -> HttpResponse:
    if path in _ROOT_PATHS:
        return HttpResponse(status=301, headers={"location": vhost.body})
    return HttpResponse(status=200, body=f"object {path}")


def _edge(vhost: VirtualHost, host: str, path: str,
          injector: Optional[FaultInjector], now: float) -> HttpResponse:
    return HttpResponse(
        status=200,
        body=f"cached object {path} for {host}",
        headers={"server": vhost.owner, "x-cache": "HIT"},
    )


def _ocsp(vhost: VirtualHost, host: str, path: str,
          injector: Optional[FaultInjector], now: float) -> HttpResponse:
    assert vhost.ca is not None
    serial = 0
    if "serial=" in path:
        try:
            serial = int(path.split("serial=", 1)[1].split("&")[0])
        except ValueError:
            return HttpResponse(status=400, body="bad serial")
    response = vhost.ca.ocsp_responder.status_of(serial, now, injector)
    return HttpResponse(status=200, body="ocsp", payload=response)


def _crl(vhost: VirtualHost, host: str, path: str,
         injector: Optional[FaultInjector], now: float) -> HttpResponse:
    assert vhost.ca is not None
    crl = vhost.ca.cdp.current_crl(now, injector)
    return HttpResponse(status=200, body="crl", payload=crl)


def _revocation(vhost: VirtualHost, host: str, path: str,
                injector: Optional[FaultInjector], now: float) -> HttpResponse:
    answer = _ocsp if "/ocsp" in path else _crl
    return answer(vhost, host, path, injector, now)


_ANSWERS: dict[str, Callable[..., HttpResponse]] = {
    "static": _static, "landing": _landing, "redirect": _redirect,
    "edge": _edge, "ocsp": _ocsp, "crl": _crl, "revocation": _revocation,
}


class HttpServer:
    """A host serving virtual hosts on a set of IPs.

    ``operator`` is the ground-truth owning organization, used when
    validating the classification heuristics.
    """

    def __init__(self, name: str, ips: Iterable[str], operator: str = ""):
        self.name = name
        self.ips = tuple(ips)
        if not self.ips:
            raise ValueError("a web server needs at least one IP")
        self.operator = operator
        self._vhosts: list[VirtualHost] = []

    def add_vhost(self, vhost: VirtualHost) -> None:
        self._vhosts.append(vhost)

    def vhost_for(self, hostname: str) -> Optional[VirtualHost]:
        """Most specific matching vhost (exact beats wildcard)."""
        hostname = normalize(hostname)
        wildcard: Optional[VirtualHost] = None
        for vhost in self._vhosts:
            if vhost.hostname == hostname:
                return vhost
            if wildcard is None and vhost.matches(hostname):
                wildcard = vhost
        return wildcard

    def vhosts(self) -> list[VirtualHost]:
        return list(self._vhosts)

    def request(
        self,
        hostname: str,
        path: str,
        attempt: int = 0,
        injector: Optional[FaultInjector] = None,
        now: float = 0.0,
    ) -> HttpResponse:
        """Serve one plaintext request at simulated time ``now``.

        ``injector`` is the requesting vantage's fault injector, if any;
        ``attempt`` is the client's retry round, keying per-attempt
        fault draws so a retried request re-rolls its fate.
        """
        if injector is not None:
            rule = injector.web_request_fault(
                self.name, hostname, path, attempt
            )
            if rule is not None:
                return HttpResponse(status=rule.status, body="injected fault")
        vhost = self.vhost_for(hostname)
        if vhost is None:
            return HttpResponse(status=421, body="misdirected request")
        return _ANSWERS[vhost.kind](vhost, hostname, path, injector, now)

    def __repr__(self) -> str:
        return f"HttpServer({self.name!r}, ips={list(self.ips)}, vhosts={len(self._vhosts)})"


class HttpFabric:
    """IP-level routing between web clients and HTTP servers."""

    def __init__(self) -> None:
        self._hosts: dict[str, HttpServer] = {}

    def register_server(self, server: HttpServer) -> None:
        for ip in server.ips:
            existing = self._hosts.get(ip)
            if existing is not None and existing is not server:
                raise ValueError(f"IP {ip} already assigned to {existing.name}")
            self._hosts[ip] = server

    def server_at(self, ip: str) -> Optional[HttpServer]:
        return self._hosts.get(ip)

    def connect(
        self,
        ip: str,
        host: str = "",
        attempt: int = 0,
        injector: Optional[FaultInjector] = None,
    ) -> HttpServer:
        """Open a connection; raises :class:`ConnectionFailedError` if the
        IP is unassigned or the caller's ``injector`` fires a ``timeout``
        fault for this (server, ip, host, attempt)."""
        server = self._hosts.get(ip)
        if server is None:
            raise ConnectionFailedError(ip)
        if injector is not None and injector.web_connect_fault(
            server.name, ip, host, attempt
        ) is not None:
            raise ConnectionFailedError(ip)
        return server

    def __repr__(self) -> str:
        return f"HttpFabric({len(self._hosts)} listeners)"
