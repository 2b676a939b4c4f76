"""DNS resource records.

Record data (rdata) classes are immutable and hashable so RRsets can be
deduplicated and compared. Every value holds its names in canonical form
(:func:`repro.names.normalize.normalize`), so the wire codec in
:mod:`repro.dnssim.message` writes them as they are.

Each type has one construction path. ``_make``, one class method shared
by every type, fills the slots with the values it is given (all of
them, in field order) and checks nothing. Calling the class is the
public constructor: it normalizes the names, validates the rdata (an A
record's address, a record's TTL), fills in the defaults and then calls
``_make``. The wire decoder, zones and the resolver hold canonical values
already and call ``_make`` directly (DESIGN.md §8, "Canonical names").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, TypeVar, Union

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


_V = TypeVar("_V", bound="_Value")


class _Value:
    """Base of the slotted DNS value classes. Their class call takes the
    field values, so pickling and copying hand those back to it."""

    __slots__ = ()

    #: The slot setters, in field order. ``dataclass(slots=True)`` builds
    #: each class a second time with ``__slots__``; that class gets them.
    _setters: ClassVar[tuple[Callable[[Any, Any], None], ...]] = ()

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__", ())
        cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)

    @classmethod
    def _make(cls: type[_V], *values: Any) -> _V:
        """A value from canonical, valid field values (all of them, in
        field order), checked for nothing."""
        value = object.__new__(cls)
        for setter, item in zip(cls._setters, values):
            setter(value, item)
        return value

    def __getnewargs__(self) -> tuple:
        fields = self.__match_args__  # type: ignore[attr-defined]
        return tuple(getattr(self, name) for name in fields)


@dataclass(frozen=True, slots=True, init=False)
class ARecord(_Value):
    """IPv4 address record."""

    address: str

    rrtype = RRType.A

    def __new__(cls, address: str) -> "ARecord":
        encode_ipv4(address)  # validate eagerly
        return cls._make(address)

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True, init=False)
class AAAARecord(_Value):
    """IPv6 address record (stored in presentation form, not validated
    beyond basic shape — the simulation routes on opaque address strings)."""

    address: str

    rrtype = RRType.AAAA

    def __new__(cls, address: str) -> "AAAARecord":
        return cls._make(address)

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True, init=False)
class NSRecord(_Value):
    """Authoritative nameserver record."""

    nsdname: str

    rrtype = RRType.NS

    def __new__(cls, nsdname: str) -> "NSRecord":
        return cls._make(normalize(nsdname))

    def __str__(self) -> str:
        return self.nsdname


@dataclass(frozen=True, slots=True, init=False)
class CNAMERecord(_Value):
    """Canonical-name alias record."""

    target: str

    rrtype = RRType.CNAME

    def __new__(cls, target: str) -> "CNAMERecord":
        return cls._make(normalize(target))

    def __str__(self) -> str:
        return self.target


@dataclass(frozen=True, slots=True, init=False)
class SOARecord(_Value):
    """Start-of-authority record.

    ``mname`` (primary master) and ``rname`` (administrator mailbox) are the
    two fields the paper's redundancy heuristic compares to decide whether
    two nameservers belong to the same operating entity (Section 3.1).
    """

    mname: str
    rname: str
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    rrtype = RRType.SOA

    def __new__(
        cls,
        mname: str,
        rname: str,
        serial: int = 1,
        refresh: int = 7200,
        retry: int = 900,
        expire: int = 1209600,
        minimum: int = 300,
    ) -> "SOARecord":
        return cls._make(
            normalize(mname), normalize(rname), serial, refresh, retry, expire, minimum
        )

    def __str__(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} {self.refresh} "
            f"{self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True, slots=True, init=False)
class MXRecord(_Value):
    """Mail-exchange record (present for zone realism; unused by heuristics)."""

    preference: int
    exchange: str

    rrtype = RRType.MX

    def __new__(cls, preference: int, exchange: str) -> "MXRecord":
        return cls._make(preference, normalize(exchange))

    def __str__(self) -> str:
        return f"{self.preference} {self.exchange}"


@dataclass(frozen=True, slots=True, init=False)
class TXTRecord(_Value):
    """Text record."""

    text: str

    rrtype = RRType.TXT

    def __new__(cls, text: str) -> "TXTRecord":
        return cls._make(text)

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


@dataclass(frozen=True, slots=True, init=False)
class ResourceRecord(_Value):
    """A complete resource record: owner name, TTL, and typed rdata."""

    name: str
    ttl: int
    rdata: RData
    rrclass: RRClass

    def __new__(
        cls, name: str, ttl: int, rdata: RData, rrclass: RRClass = RRClass.IN
    ) -> "ResourceRecord":
        if ttl < 0:
            raise ValueError("TTL must be non-negative")
        return cls._make(normalize(name), ttl, rdata, rrclass)

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
