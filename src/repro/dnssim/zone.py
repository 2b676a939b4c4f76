"""Authoritative zones: record storage, delegations, lookup semantics.

A :class:`Zone` owns a subtree of the namespace rooted at ``origin`` and
answers lookups with the same outcome categories a real authoritative
server produces: answer, CNAME, referral (delegation), NXDOMAIN, NODATA.

The public methods normalize the names they are given; the server answers
decoded (already canonical) questions through :meth:`Zone._lookup`, and the
materializer adds built (already canonical) records through
:meth:`Zone._add_rr`; neither normalizes.

A zone keeps what it holds out of the garbage collector's walk where it
can: records are keyed by ``(name, int(type))``, a tuple of a string and a
plain int that the collector stops tracking (``RRType`` members are
tracked objects, and so would be every key holding one), and each rrset is
a tuple. ``RRType`` is an ``IntEnum``, so a probe with the enum member
hashes and compares equal to the stored int.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.dnssim.errors import DnsError
from repro.dnssim.records import (
    CNAMERecord,
    NSRecord,
    RData,
    RRClass,
    RRType,
    ResourceRecord,
    SOARecord,
)
from repro.names.normalize import normalize

DEFAULT_TTL = 300

_make_rr = ResourceRecord._make

#: Every record type, for per-type key probes (iterating the enum class
#: itself is much slower than iterating a tuple).
_RRTYPES = tuple(RRType)

_SOA = int(RRType.SOA)
_CNAME = int(RRType.CNAME)


class ZoneError(DnsError):
    """Invalid zone content or lookup misuse."""


class LookupKind(enum.Enum):
    """Outcome categories of an authoritative lookup."""

    ANSWER = "answer"
    CNAME = "cname"
    DELEGATION = "delegation"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


@dataclass(slots=True)
class LookupResult:
    """Result of :meth:`Zone.lookup`."""

    kind: LookupKind
    records: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    glue: list[ResourceRecord] = field(default_factory=list)


class Zone:
    """A DNS zone: an origin, an SOA, and the records beneath it.

    >>> zone = Zone("example.com", SOARecord("ns1.example.com", "admin.example.com"))
    >>> zone.add("www.example.com", CNAMERecord("example.cdn-provider.net"))
    >>> zone.lookup("www.example.com", RRType.A).kind
    <LookupKind.CNAME: 'cname'>
    """

    def __init__(self, origin: str, soa: SOARecord, soa_ttl: int = 3600):
        self.origin = normalize(origin)
        self._records: dict[tuple[str, int], tuple[ResourceRecord, ...]] = {}
        # GeoDNS views: (region, name, type) -> records that override the
        # default answer for clients resolving from that region.
        self._regional: dict[tuple[str, str, int], tuple[ResourceRecord, ...]] = {}
        self._names: set[str] = {self.origin}
        self._origin_depth = self.origin.count(".") + 1 if self.origin else 0
        self.set_soa(soa, ttl=soa_ttl)

    # -- construction ------------------------------------------------------

    @property
    def soa(self) -> SOARecord:
        """The zone's SOA rdata."""
        rrs = self._records[(self.origin, RRType.SOA)]
        return rrs[0].rdata  # type: ignore[return-value]

    def set_soa(self, soa: SOARecord, ttl: int = 3600) -> None:
        """Replace the zone's SOA (operators change DNS identity on
        migration; the materializer uses this for provider-masked SOAs)."""
        if ttl < 0:
            raise ValueError("TTL must be non-negative")
        self._records[(self.origin, _SOA)] = (
            _make_rr(self.origin, ttl, soa, RRClass.IN),
        )

    def add(self, name: str, rdata: RData, ttl: int = DEFAULT_TTL) -> ResourceRecord:
        """Add one record; ``name`` must lie within the zone.

        CNAME exclusivity is enforced: a CNAME owner may hold no other data,
        matching RFC 1034 and mattering for the CDN measurement path.
        """
        # The class call normalizes the name and checks the TTL.
        return self._add_rr(ResourceRecord(name, ttl, rdata))

    def _add_rr(self, rr: ResourceRecord) -> ResourceRecord:
        """:meth:`add` for a built record, which holds canonical names
        already. The same record may be added to many zones."""
        name = rr.name
        if not self._in_zone(name):
            raise ZoneError(f"{name!r} is outside zone {self.origin!r}")
        records = self._records
        rrtype = rr.rdata.rrtype
        if rrtype is RRType.CNAME:
            if any(t != RRType.CNAME for t in self._types_at(name)):
                raise ZoneError(f"cannot add CNAME at {name!r}: other data exists")
        elif (name, _CNAME) in records:
            raise ZoneError(f"cannot add {rrtype.name} at {name!r}: CNAME exists")
        key = (name, int(rrtype))
        rrset = records.get(key, ())
        if rr not in rrset:
            records[key] = rrset + (rr,)
        self._names.add(name)
        return rr

    def add_many(self, name: str, rdatas: Iterable[RData], ttl: int = DEFAULT_TTL) -> None:
        """Add several records under one owner name."""
        for rdata in rdatas:
            self.add(name, rdata, ttl)

    def add_regional(
        self, name: str, region: str, rdata: RData, ttl: int = DEFAULT_TTL
    ) -> ResourceRecord:
        """Add a GeoDNS record served only to resolvers in ``region``.

        Regional answers *override* the default records for that (name,
        type) — the mechanism behind region-specific CDN mappings, which a
        single-vantage measurement cannot see (the paper's §3.5 limitation).
        """
        rr = ResourceRecord(name, ttl, rdata)
        name = rr.name
        if not self._in_zone(name):
            raise ZoneError(f"{name!r} is outside zone {self.origin!r}")
        key = (region, name, int(rr.rrtype))
        rrset = self._regional.get(key, ())
        if rr not in rrset:
            self._regional[key] = rrset + (rr,)
        self._names.add(name)
        return rr

    def regional_records_at(
        self, name: str, rrtype: RRType, region: str
    ) -> list[ResourceRecord]:
        """Region-specific records for a (name, type), if any."""
        return list(self._regional.get((region, normalize(name), rrtype), ()))

    def delete(self, name: str, rrtype: Optional[RRType] = None) -> int:
        """Remove records at ``name`` (optionally one type); returns count."""
        name = normalize(name)
        types = self._types_at(name) if rrtype is None else [rrtype]
        removed = sum(len(self._records.pop((name, t), ())) for t in types)
        if not self._types_at(name):
            self._names.discard(name)
        return removed

    def _types_at(self, name: str) -> list[RRType]:
        """The record types held at ``name``: one probe per RRType, not a
        scan of the zone (a TLD zone holds a delegation per site)."""
        return [t for t in _RRTYPES if (name, t) in self._records]

    # -- lookup ------------------------------------------------------------

    def _in_zone(self, name: str) -> bool:
        """Whether normalized ``name`` is the origin or beneath it."""
        origin = self.origin
        return not origin or name == origin or name.endswith("." + origin)

    def records_at(self, name: str, rrtype: RRType) -> list[ResourceRecord]:
        """Exact-match records (no wildcard expansion)."""
        return list(self._records.get((normalize(name), rrtype), ()))

    def _wildcard_match(self, name: str, rrtype: RRType) -> list[ResourceRecord]:
        """RFC 1034 wildcard: ``*.parent`` synthesizes records for ``name``."""
        if name in self._names:
            return []  # an existing name suppresses wildcard synthesis
        labels = name.split(".")
        for i in range(1, len(labels)):
            candidate = "*." + ".".join(labels[i:])
            source = self._records.get((candidate, rrtype))
            if source:
                return [_make_rr(name, rr.ttl, rr.rdata, rr.rrclass) for rr in source]
            # A non-wildcard name closer to the qname blocks expansion.
            if ".".join(labels[i:]) in self._names:
                break
        return []

    def _delegation_point(self, qname: str) -> Optional[str]:
        """The nearest zone cut at or above ``qname`` (strictly below origin)."""
        labels = qname.split(".") if qname else []
        # Walk from just below the origin towards the qname, so the topmost
        # cut wins (a cut makes everything beneath it non-authoritative).
        for i in range(len(labels) - self._origin_depth - 1, -1, -1):
            candidate = ".".join(labels[i:])
            if candidate != self.origin and (candidate, RRType.NS) in self._records:
                return candidate
        return None

    def _name_exists(self, qname: str) -> bool:
        """Whether the name exists (has records or is an empty non-terminal)."""
        if qname in self._names:
            return True
        return any(n.endswith("." + qname) for n in self._names)

    def lookup(
        self, qname: str, qtype: RRType, region: Optional[str] = None
    ) -> LookupResult:
        """Authoritatively answer a query for a name within this zone.

        ``region`` selects GeoDNS views: regional records override the
        default answer for clients resolving from that region.
        """
        return self._lookup(normalize(qname), RRType.parse(qtype), region)

    def _lookup(
        self, qname: str, qtype: RRType, region: Optional[str]
    ) -> LookupResult:
        """:meth:`lookup` for a canonical ``qname`` and an ``RRType``."""
        if not self._in_zone(qname):
            raise ZoneError(f"{qname!r} is outside zone {self.origin!r}")
        records = self._records

        if region is not None:
            regional = self._regional.get((region, qname, qtype))
            if regional:
                return LookupResult(LookupKind.ANSWER, list(regional))
            regional_cname = self._regional.get((region, qname, RRType.CNAME))
            if regional_cname and qtype != RRType.CNAME:
                return LookupResult(LookupKind.CNAME, list(regional_cname))

        cut = self._delegation_point(qname)
        if cut is not None:
            ns_records = records[(cut, RRType.NS)]
            glue: list[ResourceRecord] = []
            for rr in ns_records:
                nsname = rr.rdata.nsdname  # type: ignore[union-attr]
                for glue_type in (RRType.A, RRType.AAAA):
                    glue.extend(records.get((nsname, glue_type), ()))
            return LookupResult(
                LookupKind.DELEGATION, authority=list(ns_records), glue=glue
            )

        exact = records.get((qname, qtype))
        if exact:
            return LookupResult(LookupKind.ANSWER, list(exact))

        cname = records.get((qname, RRType.CNAME))
        if cname and qtype != RRType.CNAME:
            return LookupResult(LookupKind.CNAME, list(cname))

        wildcard = self._wildcard_match(qname, qtype)
        if wildcard:
            return LookupResult(LookupKind.ANSWER, wildcard)
        wildcard_cname = self._wildcard_match(qname, RRType.CNAME)
        if wildcard_cname and qtype != RRType.CNAME:
            return LookupResult(LookupKind.CNAME, wildcard_cname)

        soa_rr = records[(self.origin, RRType.SOA)][0]
        if self._name_exists(qname) or any(
            n.startswith("*.") and qname.endswith(n[1:]) for n in self._names
        ):
            return LookupResult(LookupKind.NODATA, authority=[soa_rr])
        return LookupResult(LookupKind.NXDOMAIN, authority=[soa_rr])

    # -- introspection -----------------------------------------------------

    def names(self) -> set[str]:
        """All owner names with records in the zone."""
        return set(self._names)

    def all_records(self) -> list[ResourceRecord]:
        """Every record in the zone."""
        return [rr for rrs in self._records.values() for rr in rrs]

    def __contains__(self, name: str) -> bool:
        return normalize(name) in self._names

    def __repr__(self) -> str:
        return f"Zone({self.origin!r}, {len(self._names)} names)"
