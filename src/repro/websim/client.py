"""The web client: DNS + TCP + TLS + HTTP, end to end.

``WebClient.get`` performs everything the Figure-1 life cycle describes:
resolve the hostname (chasing CNAMEs through CDN edge names), connect to
the resulting IP on the HTTP fabric, perform the TLS handshake for https
URLs — validating the chain and checking revocation via a stapled OCSP
response or by contacting the CA's responder over this same client — and
finally issue the request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.dnssim.client import DigClient
from repro.dnssim.clock import SimulatedClock
from repro.dnssim.errors import ResolutionError
from repro.faults.injector import FaultInjector
from repro.tlssim.certificate import CertificateChain
from repro.tlssim.crl import CertificateRevocationList
from repro.tlssim.errors import TlsError
from repro.tlssim.ocsp import OCSPResponder, OCSPResponse, OCSPResponseCache
from repro.tlssim.validation import (
    RevocationPolicy,
    TrustStore,
    ValidationReport,
    validate_certificate,
)
from repro.telemetry.spans import NULL_SPAN
from repro.websim.http import ConnectionFailedError, HttpFabric, HttpResponse
from repro.websim.url import UrlError, join_url, parse_url

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


MAX_REDIRECTS = 5


@dataclass
class FetchResult:
    """Everything observed while fetching one URL."""

    url: str
    ok: bool = False
    status: int = 0
    body: str = ""
    error: str = ""
    ip: str = ""
    cname_chain: list[str] = field(default_factory=list)
    chain: Optional[CertificateChain] = None
    stapled_response: Optional[OCSPResponse] = None
    validation: Optional[ValidationReport] = None
    # URLs traversed via 3xx responses before the final fetch.
    redirect_chain: list[str] = field(default_factory=list)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def final_url(self) -> str:
        return self.redirect_chain[-1] if self.redirect_chain else self.url

    @property
    def https_ok(self) -> bool:
        return self.ok and self.validation is not None and self.validation.ok


class WebClient:
    """A browser-like client bound to the simulated DNS and HTTP fabrics;
    its fault ``injector`` and ``clock`` go with every request it makes."""

    def __init__(
        self,
        dns: DigClient,
        fabric: HttpFabric,
        trust_store: TrustStore,
        clock: SimulatedClock,
        revocation_policy: RevocationPolicy = RevocationPolicy.HARD_FAIL,
        injector: Optional[FaultInjector] = None,
    ):
        self._dns = dns
        self._fabric = fabric
        self._trust_store = trust_store
        self._clock = clock
        self.revocation_policy = revocation_policy
        self.injector = injector
        self.ocsp_cache = OCSPResponseCache()
        # Server-side stapling as this vantage sees it: the proof each
        # stapling server last fetched, by (responder, serial).
        self._staples: dict[tuple[OCSPResponder, int], OCSPResponse] = {}
        # Observability hook; None keeps the hot path to one attr check.
        self.telemetry: Optional["Telemetry"] = None

    # -- main entry ---------------------------------------------------------

    def get(self, url: str, attempt: int = 0) -> FetchResult:
        """Fetch ``url``, following redirects; failures land in
        ``result.error`` rather than raising.

        ``attempt`` is the caller's retry round; it keys per-attempt fault
        draws so a retried fetch re-rolls its fate.
        """
        tel = self.telemetry
        span = (
            tel.span("web.fetch", "web", url=url, attempt=attempt)
            if tel is not None
            else NULL_SPAN
        )
        if tel is not None:
            tel.diag("web.fetches")
        with span as sp:
            result = self._get(url, attempt)
            sp.set(status=result.status, ok=result.ok)
            if result.error:
                sp.set(error=result.error)
        return result

    def _get(self, url: str, attempt: int) -> FetchResult:
        redirects: list[str] = []
        current = url
        for _ in range(MAX_REDIRECTS + 1):
            result = self._get_once(current, attempt)
            location = None
            if 300 <= result.status < 400:
                location = self._redirect_target(current, result)
            if location is None:
                result.url = url
                result.redirect_chain = redirects
                return result
            redirects.append(location)
            current = location
        result = FetchResult(url=url, redirect_chain=redirects)
        result.error = "http: too many redirects"
        return result

    def _redirect_target(self, url: str, result: FetchResult) -> Optional[str]:
        location = None
        for key, value in result.headers.items():
            if key.lower() == "location":
                location = value
        if location is None:
            return None
        try:
            return str(join_url(parse_url(url), location))
        except UrlError:
            return None

    def _get_once(self, url: str, attempt: int = 0) -> FetchResult:
        result = FetchResult(url=url)
        try:
            parsed = parse_url(url)
        except UrlError as exc:
            result.error = f"bad-url: {exc}"
            return result

        # 1. DNS.
        try:
            lookup = self._dns.resolver.lookup(parsed.host, "A")
        except ResolutionError as exc:
            result.error = f"dns: {exc.reason}"
            return result
        result.cname_chain = list(lookup.cname_chain)
        addresses = [rr.rdata.address for rr in lookup.records]  # type: ignore[union-attr]
        if not addresses:
            result.error = "dns: no address records"
            return result

        # 2. TCP connect (first healthy address wins).
        server = None
        for ip in addresses:
            try:
                server = self._fabric.connect(
                    ip, parsed.host, attempt, self.injector
                )
                result.ip = ip
                break
            except ConnectionFailedError:
                continue
        if server is None:
            result.error = "tcp: all addresses unreachable"
            return result

        # 3. TLS handshake for https.
        vhost = server.vhost_for(parsed.host)
        if vhost is None:
            result.error = f"http: {server.name} does not serve {parsed.host}"
            return result
        if parsed.is_https:
            if vhost.chain is None:
                result.error = "tls: server has no certificate for this host"
                return result
            result.chain = vhost.chain
            result.stapled_response = self._staple(
                vhost.stapler, vhost.chain.leaf.serial
            )
            tel = self.telemetry
            span = (
                tel.span(
                    "tls.validate",
                    "tls",
                    host=parsed.host,
                    stapled=result.stapled_response is not None,
                )
                if tel is not None
                else NULL_SPAN
            )
            with span as sp:
                try:
                    result.validation = validate_certificate(
                        hostname=parsed.host,
                        chain=vhost.chain,
                        trust_store=self._trust_store,
                        now=self._clock.now(),
                        stapled_response=result.stapled_response,
                        fetch_ocsp=self.fetch_ocsp,
                        fetch_crl=self.fetch_crl,
                        policy=self.revocation_policy,
                    )
                except TlsError as exc:
                    sp.set(error=str(exc))
                    result.error = f"tls: {exc}"
                    return result
                sp.set(valid=result.validation.ok)

        # 4. The request itself.
        response = server.request(
            parsed.host, parsed.path, attempt, self.injector, self._clock.now()
        )
        result.status = response.status
        result.body = response.body
        result.headers = dict(response.headers)
        result.ok = response.ok
        if not response.ok and not (300 <= response.status < 400):
            result.error = f"http: status {response.status}"
        return result

    # -- revocation transports -----------------------------------------------

    def _staple(
        self, responder: Optional[OCSPResponder], serial: int
    ) -> Optional[OCSPResponse]:
        """The proof a server stapling from ``responder`` hands over: its
        last fetched one while still fresh, else a new one."""
        if responder is None:
            return None
        now = self._clock.now()
        cached = self._staples.get((responder, serial))
        if cached is not None and cached.is_fresh_at(now):
            return cached
        response = responder.status_of(serial, now, self.injector)
        self._staples[responder, serial] = response
        return response

    def fetch_ocsp(self, url: str, serial: int) -> Optional[OCSPResponse]:
        """Contact an OCSP responder over plain HTTP (with client caching).

        Returns None when the responder is unreachable — which under a
        hard-fail policy denies the website, the paper's critical-dependency
        mechanism for CAs.
        """
        tel = self.telemetry
        span = (
            tel.span("tls.ocsp_check", "tls", url=url)
            if tel is not None
            else NULL_SPAN
        )
        with span as sp:
            cached = self.ocsp_cache.get(serial, self._clock.now())
            if cached is not None:
                if tel is not None:
                    tel.diag("tls.ocsp.cache_hits")
                sp.set(cache_hit=True, status=cached.status.name)
                return cached
            if tel is not None:
                tel.diag("tls.ocsp.cache_misses")
            response = self._plain_fetch(url, query_serial=serial)
            if response is None or not isinstance(response.payload, OCSPResponse):
                sp.set(cache_hit=False, unreachable=True)
                return None
            self.ocsp_cache.put(response.payload)
            sp.set(cache_hit=False, status=response.payload.status.name)
            return response.payload

    def fetch_crl(self, url: str) -> Optional[CertificateRevocationList]:
        """Download a CRL from a distribution point over plain HTTP."""
        tel = self.telemetry
        span = (
            tel.span("tls.crl_check", "tls", url=url)
            if tel is not None
            else NULL_SPAN
        )
        with span as sp:
            response = self._plain_fetch(url)
            if response is None or not isinstance(
                response.payload, CertificateRevocationList
            ):
                sp.set(unreachable=True)
                return None
            sp.set(revoked_serials=len(response.payload.revoked_serials))
            return response.payload

    def _plain_fetch(
        self, url: str, query_serial: Optional[int] = None
    ) -> Optional[HttpResponse]:
        """HTTP-only fetch used for revocation endpoints (no TLS recursion)."""
        try:
            parsed = parse_url(url)
        except UrlError:
            return None
        try:
            addresses = self._dns.resolver.resolve_address(parsed.host)
        except ResolutionError:
            return None
        path = parsed.path
        if query_serial is not None:
            path = f"{path}?serial={query_serial}"
        for ip in addresses:
            try:
                server = self._fabric.connect(
                    ip, parsed.host, injector=self.injector
                )
            except ConnectionFailedError:
                continue
            response = server.request(
                parsed.host, path, injector=self.injector,
                now=self._clock.now(),
            )
            if response.ok:
                return response
        return None
