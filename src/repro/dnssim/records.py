"""DNS resource records.

Record data (rdata) classes are immutable and hashable so RRsets can be
deduplicated and compared. Every constructor normalizes the names it
holds, so the wire codec in :mod:`repro.dnssim.message` (framing, name
compression and the per-type rdata layouts) writes them as they are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.names.normalize import normalize


class RRType(enum.IntEnum):
    """Record types used in this study (values per IANA registry)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    MX = 15
    TXT = 16
    AAAA = 28

    @classmethod
    def parse(cls, value: Union[str, int, "RRType"]) -> "RRType":
        """Accept an RRType, its name ("NS"), or its numeric value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(f"unknown RR type: {value!r}") from None


class RRClass(enum.IntEnum):
    """Record classes; only IN is used."""

    IN = 1


def encode_ipv4(address: str) -> bytes:
    """The 4-byte wire form of a dotted-quad IPv4 address."""
    try:
        packed = bytes(map(int, address.split(".")))
    except ValueError:
        raise ValueError(f"invalid IPv4 address: {address!r}") from None
    if len(packed) != 4:
        raise ValueError(f"invalid IPv4 address: {address!r}")
    return packed


@dataclass(frozen=True)
class ARecord:
    """IPv4 address record."""

    address: str

    def __post_init__(self) -> None:
        encode_ipv4(self.address)  # validate eagerly

    rrtype = RRType.A

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True)
class AAAARecord:
    """IPv6 address record (stored in presentation form, not validated
    beyond basic shape — the simulation routes on opaque address strings)."""

    address: str

    rrtype = RRType.AAAA

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True)
class NSRecord:
    """Authoritative nameserver record."""

    nsdname: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nsdname", normalize(self.nsdname))

    rrtype = RRType.NS

    def __str__(self) -> str:
        return self.nsdname


@dataclass(frozen=True)
class CNAMERecord:
    """Canonical-name alias record."""

    target: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", normalize(self.target))

    rrtype = RRType.CNAME

    def __str__(self) -> str:
        return self.target


@dataclass(frozen=True)
class SOARecord:
    """Start-of-authority record.

    ``mname`` (primary master) and ``rname`` (administrator mailbox) are the
    two fields the paper's redundancy heuristic compares to decide whether
    two nameservers belong to the same operating entity (Section 3.1).
    """

    mname: str
    rname: str
    serial: int = 1
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300

    def __post_init__(self) -> None:
        object.__setattr__(self, "mname", normalize(self.mname))
        object.__setattr__(self, "rname", normalize(self.rname))

    rrtype = RRType.SOA

    def __str__(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} {self.refresh} "
            f"{self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True)
class MXRecord:
    """Mail-exchange record (present for zone realism; unused by heuristics)."""

    preference: int
    exchange: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "exchange", normalize(self.exchange))

    rrtype = RRType.MX

    def __str__(self) -> str:
        return f"{self.preference} {self.exchange}"


@dataclass(frozen=True)
class TXTRecord:
    """Text record."""

    text: str

    rrtype = RRType.TXT

    def __str__(self) -> str:
        return f'"{self.text}"'


RData = Union[ARecord, AAAARecord, NSRecord, CNAMERecord, SOARecord, MXRecord, TXTRecord]

_RDATA_BY_TYPE = {
    RRType.A: ARecord,
    RRType.AAAA: AAAARecord,
    RRType.NS: NSRecord,
    RRType.CNAME: CNAMERecord,
    RRType.SOA: SOARecord,
    RRType.MX: MXRecord,
    RRType.TXT: TXTRecord,
}


@dataclass(frozen=True)
class ResourceRecord:
    """A complete resource record: owner name, TTL, and typed rdata."""

    name: str
    ttl: int
    rdata: RData
    rrclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize(self.name))
        if self.ttl < 0:
            raise ValueError("TTL must be non-negative")

    @property
    def rrtype(self) -> RRType:
        return self.rdata.rrtype

    def __str__(self) -> str:
        return f"{self.name or '.'} {self.ttl} IN {self.rrtype.name} {self.rdata}"


def rdata_class_for(rrtype: RRType) -> type:
    """The rdata dataclass for a given record type."""
    try:
        return _RDATA_BY_TYPE[rrtype]
    except KeyError:
        raise ValueError(f"unsupported RR type: {rrtype}") from None
