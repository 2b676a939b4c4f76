"""The network fabric connecting resolvers to authoritative servers.

:class:`DnsNetwork` routes wire-format queries to the server listening on a
destination IP. Failures belong to the sender: its
:class:`~repro.faults.injector.FaultInjector` perturbs its individual
queries with drops, SERVFAIL/REFUSED, truncation, lame responses, and
slow servers (delays on the sender's clock). A Dyn-style outage is a
plan that drops every query to the provider's nameservers.
"""

from __future__ import annotations

from typing import Optional

from repro.dnssim.clock import SimulatedClock
from repro.dnssim.errors import ServerUnavailableError
from repro.dnssim.message import DnsMessage, RCode
from repro.dnssim.server import AuthoritativeServer
from repro.faults.injector import FaultInjector


class DnsNetwork:
    """IP-level routing between resolvers and authoritative servers."""

    def __init__(self) -> None:
        self._hosts: dict[str, AuthoritativeServer] = {}

    # -- topology ----------------------------------------------------------

    def register_server(self, server: AuthoritativeServer) -> None:
        """Attach a server to the fabric on all of its IPs."""
        for ip in server.ips:
            existing = self._hosts.get(ip)
            if existing is not None and existing is not server:
                raise ValueError(f"IP {ip} already assigned to {existing.name}")
            self._hosts[ip] = server

    def server_at(self, ip: str) -> Optional[AuthoritativeServer]:
        """The server listening on ``ip``, if any."""
        return self._hosts.get(ip)

    def servers(self) -> list[AuthoritativeServer]:
        """All distinct registered servers."""
        seen: dict[int, AuthoritativeServer] = {}
        for server in self._hosts.values():
            seen[id(server)] = server
        return list(seen.values())

    # -- transport ---------------------------------------------------------

    def send(
        self,
        ip: str,
        wire_query: bytes,
        region: Optional[str] = None,
        attempt: int = 0,
        injector: Optional[FaultInjector] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> bytes:
        """Deliver a wire query to ``ip`` and return the wire response.

        ``region`` tags the querying resolver's vantage (GeoDNS views);
        ``attempt`` is the sender's retry round, keying per-attempt fault
        draws so a retried query re-rolls its fate deterministically.
        ``injector`` is the sender's fault injector, if any, and ``clock``
        the sender's clock, which slow-server faults advance. Raises
        :class:`ServerUnavailableError` when nothing listens there or the
        injector drops the query — the resolver sees a timeout.
        """
        server = self._hosts.get(ip)
        if server is None:
            raise ServerUnavailableError(ip)
        if injector is None:
            return server.handle_wire(wire_query, region)
        return _send_with_faults(
            server, ip, wire_query, region, attempt, injector, clock
        )

    def __repr__(self) -> str:
        return f"DnsNetwork({len(self._hosts)} listeners)"


def _send_with_faults(
    server: AuthoritativeServer,
    ip: str,
    wire_query: bytes,
    region: Optional[str],
    attempt: int,
    injector: FaultInjector,
    clock: Optional[SimulatedClock],
) -> bytes:
    """Decode the query once, apply the drawn fault to the decoded
    message, and encode the outcome once."""
    query = DnsMessage.from_wire(wire_query)
    question = query.question
    qname = question.qname if question is not None else ""
    qtype = question.qtype.name if question is not None else ""
    rule = injector.dns_fault(server.name, ip, qname, qtype, attempt)
    if rule is None:
        return server.handle(query, region).to_wire()
    if rule.kind == "drop":
        raise ServerUnavailableError(ip)
    if rule.kind == "slow":
        if clock is not None:
            clock.advance(rule.delay)
        return server.handle(query, region).to_wire()
    if rule.kind == "servfail":
        return query.response(RCode.SERVFAIL, aa=False).to_wire()
    if rule.kind == "refused":
        return query.response(RCode.REFUSED, aa=False).to_wire()
    if rule.kind == "lame":
        # Answers, but knows nothing: not authoritative, no referral.
        return query.response(RCode.NOERROR, aa=False).to_wire()
    # truncate: the real response with TC set and sections clipped,
    # exactly what an oversized UDP answer looks like to a stub.
    response = server.handle(query, region)
    response.tc = True
    response.answers = []
    response.authorities = []
    response.additionals = []
    return response.to_wire()
