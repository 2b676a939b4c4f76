"""Authoritative nameserver behaviour.

An :class:`AuthoritativeServer` serves one or more zones from one or more
IP addresses. It consumes and produces wire-format messages so the whole
query path (resolver → network → server) exercises the codec. Decoded
questions hold canonical names, so answering one normalizes nothing but
the name :meth:`AuthoritativeServer.zone_for` is asked about.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dnssim.message import DnsMessage, RCode
from repro.dnssim.records import RRType, ResourceRecord
from repro.dnssim.zone import LookupKind, Zone
from repro.names.normalize import normalize


class AuthoritativeServer:
    """A nameserver host: a name, its addresses, and the zones it serves.

    ``operator`` tags the organization running the box (e.g. ``"cloudflare"``)
    — the ground-truth label the classification heuristics are evaluated
    against.
    """

    def __init__(
        self,
        name: str,
        ips: Iterable[str],
        operator: str = "",
    ):
        self.name = normalize(name)
        self.ips = tuple(ips)
        if not self.ips:
            raise ValueError("a server needs at least one IP")
        self.operator = operator
        self._zones: dict[str, Zone] = {}

    def serve_zone(self, zone: Zone) -> None:
        """Attach a zone to this server."""
        self._zones[zone.origin] = zone

    def zones(self) -> list[Zone]:
        """All zones served by this host."""
        return list(self._zones.values())

    def zone_for(self, qname: str) -> Optional[Zone]:
        """The most specific served zone enclosing ``qname``.

        Probes the name and then each ancestor, dropping one leftmost label
        at a time down to the root origin ``""``: the first served origin
        hit is the longest enclosing one. The cost is O(labels), not
        O(zones served), which matters for shared nameservers hosting a
        zone per customer.
        """
        return self._zone_for(normalize(qname))

    def _zone_for(self, name: str) -> Optional[Zone]:
        """:meth:`zone_for` for a canonical name."""
        zones = self._zones
        while True:
            zone = zones.get(name)
            if zone is not None or not name:
                return zone
            name = name.partition(".")[2]

    # -- query handling ----------------------------------------------------

    def handle_wire(self, wire: bytes, region: Optional[str] = None) -> bytes:
        """Decode, answer, and re-encode a query."""
        query = DnsMessage.from_wire(wire)
        return self.handle(query, region).to_wire()

    def handle(self, query: DnsMessage, region: Optional[str] = None) -> DnsMessage:
        """Answer a decoded query message.

        ``region`` is the resolver's vantage (an EDNS-client-subnet
        analogue) and selects any GeoDNS views the zone defines.
        """
        question = query.question
        if question is None:
            return query.response(RCode.FORMERR, aa=False)
        zone = self.zone_for(question.qname)
        if zone is None:
            return query.response(RCode.REFUSED, aa=False)

        result = zone._lookup(question.qname, question.qtype, region)
        response = query.response()

        kind = result.kind
        if kind is LookupKind.ANSWER:
            response.answers.extend(result.records)
            if question.qtype == RRType.NS:
                response.additionals.extend(
                    self._glue_for(zone, result.records)
                )
        elif kind is LookupKind.CNAME:
            response.answers.extend(result.records)
            # Authoritative servers chase CNAMEs within zones they serve.
            target = result.records[0].rdata.target  # type: ignore[union-attr]
            self._chase_cname(target, question.qtype, response, depth=0, region=region)
        elif kind is LookupKind.DELEGATION:
            response.aa = False
            response.authorities.extend(result.authority)
            response.additionals.extend(result.glue)
        elif kind is LookupKind.NODATA:
            response.authorities.extend(result.authority)
        elif kind is LookupKind.NXDOMAIN:
            response.rcode = RCode.NXDOMAIN
            response.authorities.extend(result.authority)
        return response

    def _chase_cname(
        self,
        target: str,
        qtype: RRType,
        response: DnsMessage,
        depth: int,
        region: Optional[str] = None,
    ) -> None:
        """Append in-bailiwick CNAME-chain records to the response."""
        if depth > 8:
            return
        zone = self._zone_for(target)
        if zone is None:
            return
        result = zone._lookup(target, qtype, region)
        if result.kind is LookupKind.ANSWER:
            response.answers.extend(result.records)
        elif result.kind is LookupKind.CNAME:
            response.answers.extend(result.records)
            next_target = result.records[0].rdata.target  # type: ignore[union-attr]
            self._chase_cname(next_target, qtype, response, depth + 1, region)

    def _glue_for(
        self, zone: Zone, ns_records: list[ResourceRecord]
    ) -> list[ResourceRecord]:
        """A/AAAA records for in-zone NS targets, for the additional section."""
        glue: list[ResourceRecord] = []
        for rr in ns_records:
            nsname = rr.rdata.nsdname  # type: ignore[union-attr]
            target_zone = self._zone_for(nsname)
            if target_zone is None:
                continue
            for rrtype in (RRType.A, RRType.AAAA):
                glue.extend(target_zone.records_at(nsname, rrtype))
        return glue

    def __repr__(self) -> str:
        return (
            f"AuthoritativeServer({self.name!r}, ips={list(self.ips)}, "
            f"zones={sorted(self._zones)})"
        )
