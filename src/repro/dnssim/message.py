"""RFC 1035 message framing: header, question, sections, name compression.

The resolver and servers exchange real wire-format packets so the codec is
exercised on every simulated query — exactly the byte-level surface a
``dig``-based measurement pipeline rides on.

The codec is table-driven: fixed fields go through precompiled
``struct.Struct`` objects, names are written straight into the message
buffer against one compression table per message, rdata is written in
place with one branch per record type, and decoding maps type, class,
opcode and rcode codes through dicts. The encoder writes names as they
are: every record and question holds them in canonical form. The
decoder canonicalizes each name it reads once, in :func:`_read_name`,
and builds questions, records and rdata through their private ``_make``
constructors, which check nothing. The bytes are pinned by a copy of the
earlier closure-based codec kept in the tests as the oracle.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.dnssim.errors import MessageFormatError
from repro.dnssim.records import (
    AAAARecord,
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RData,
    RRClass,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
    _Value,
    encode_ipv4,
)
from repro.names.normalize import MAX_LABEL_LENGTH, MAX_NAME_LENGTH, normalize

# The decoder's constructors: its names are canonical, its rdata well formed.
_make_a = ARecord._make
_make_aaaa = AAAARecord._make
_make_ns = NSRecord._make
_make_cname = CNAMERecord._make
_make_soa = SOARecord._make
_make_mx = MXRecord._make
_make_txt = TXTRecord._make
_make_rr = ResourceRecord._make

# Fixed-layout fields, compiled once: the header, a question's
# type/class, an RR's type/class/TTL/RDLENGTH, and the rdata words.
_HEADER = struct.Struct("!HHHHHH")
_QUESTION = struct.Struct("!HH")
_RR_FIXED = struct.Struct("!HHIH")
_U16 = struct.Struct("!H")
_SOA_FIXED = struct.Struct("!IIIII")
_POINTER_MASK = 0xC0
_MAX_POINTER_CHASES = 64
# RFC 1035 §2.3.4: a name is at most 255 octets on the wire, i.e. at
# most MAX_NAME_LENGTH characters in presentation form.
_MAX_WIRE_NAME = 255


class RCode(enum.IntEnum):
    """Response codes used by the simulation."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


class Opcode(enum.IntEnum):
    QUERY = 0


_OPCODES = {int(code): code for code in Opcode}
_RCODES = {int(code): code for code in RCode}
_RRTYPES = {int(code): code for code in RRType}
_RRCLASSES = {int(code): code for code in RRClass}


def _put_name(out: bytearray, name: str, table: dict[str, int]) -> None:
    """Append ``name`` (canonical form) at the end of ``out``.

    ``table`` maps every name suffix already written to its offset; a
    suffix first written at an offset a pointer can address is added.
    """
    if len(name) > MAX_NAME_LENGTH:
        raise MessageFormatError(
            f"name longer than {_MAX_WIRE_NAME} octets: {name[:40]!r}..."
        )
    while name:
        offset = table.get(name)
        if offset is not None:
            out.append(0xC0 | offset >> 8)
            out.append(offset & 0xFF)
            return
        offset = len(out)
        if offset < 0x3FFF:
            table[name] = offset
        label, _, name = name.partition(".")
        if not 0 < len(label) <= MAX_LABEL_LENGTH:
            raise MessageFormatError(f"bad label length: {label!r}")
        out.append(len(label))
        out += label.encode("ascii")
    out.append(0)


def _read_name(data: bytes, pos: int) -> tuple[str, int]:
    """Decode the name at ``pos``: ``(name, offset just past it)``.

    Compression pointers resolve against the whole message; the name
    ends where its first pointer or its root label does. The name comes
    back in canonical form, so the caller builds values from it as is.
    """
    labels: list[bytes] = []
    size = len(data)
    end = -1
    octets = 1
    jumps = 0
    while True:
        if pos >= size:
            raise MessageFormatError("name runs past end of message")
        length = data[pos]
        if not length:
            break
        if length < 0x40:
            stop = pos + 1 + length
            if stop > size:
                raise MessageFormatError("label runs past end of message")
            octets += 1 + length
            if octets > _MAX_WIRE_NAME:
                raise MessageFormatError(f"name longer than {_MAX_WIRE_NAME} octets")
            labels.append(data[pos + 1:stop])
            pos = stop
            continue
        if length < _POINTER_MASK:
            raise MessageFormatError("reserved label type")
        if pos + 1 >= size:
            raise MessageFormatError("truncated compression pointer")
        if end < 0:
            end = pos + 2
        jumps += 1
        if jumps > _MAX_POINTER_CHASES:
            raise MessageFormatError("compression pointer loop")
        pos = (length & 0x3F) << 8 | data[pos + 1]
    if end < 0:
        end = pos + 1
    if not labels:
        return "", end
    raw = b".".join(labels)
    name = raw.decode("ascii")
    # Lower-case with neither whitespace nor a dot at either end: already
    # what normalize() returns. Anything else goes through it.
    if raw.islower() and raw[0] > 0x20 and raw[-1] > 0x2E:
        return name, end
    return normalize(name), end


def _read_rdata(rrtype: RRType, data: bytes, pos: int, end: int) -> RData:
    """Decode the rdata occupying ``data[pos:end]``; it must fill that
    span exactly (names in it may still point anywhere in the message)."""
    if rrtype is RRType.A:
        if end - pos != 4:
            raise MessageFormatError("A rdata must be 4 bytes")
        return _make_a("%d.%d.%d.%d" % tuple(data[pos:end]))
    if rrtype is RRType.NS or rrtype is RRType.CNAME:
        name, stop = _read_name(data, pos)
        if stop != end:
            raise MessageFormatError(f"{rrtype.name} name does not fill RDLENGTH")
        return _make_ns(name) if rrtype is RRType.NS else _make_cname(name)
    if rrtype is RRType.SOA:
        mname, stop = _read_name(data, pos)
        rname, stop = _read_name(data, stop)
        if stop + _SOA_FIXED.size != end:
            raise MessageFormatError("SOA rdata does not fill RDLENGTH")
        return _make_soa(mname, rname, *_SOA_FIXED.unpack_from(data, stop))
    if rrtype is RRType.MX:
        if end - pos < 3:
            raise MessageFormatError("MX rdata too short")
        exchange, stop = _read_name(data, pos + 2)
        if stop != end:
            raise MessageFormatError("MX name does not fill RDLENGTH")
        return _make_mx(_U16.unpack_from(data, pos)[0], exchange)
    if rrtype is RRType.TXT:
        chunks: list[bytes] = []
        while pos < end:
            stop = pos + 1 + data[pos]
            if stop > end:
                raise MessageFormatError("TXT chunk runs past RDLENGTH")
            chunks.append(data[pos + 1:stop])
            pos = stop
        return _make_txt(b"".join(chunks).decode("utf-8"))
    if rrtype is RRType.AAAA:
        if end - pos != 16:
            raise MessageFormatError("AAAA rdata must be 16 bytes")
        return _make_aaaa(data[pos:end].rstrip(b"\x00").decode("ascii"))
    raise MessageFormatError(f"cannot decode rdata of type {rrtype}")


@dataclass(frozen=True, slots=True, init=False)
class Question(_Value):
    """A question-section entry.

    Like the records, calling the class normalizes ``qname`` and parses
    ``qtype``; ``_make`` trusts its arguments.
    """

    qname: str
    qtype: RRType
    qclass: RRClass

    def __new__(
        cls, qname: str, qtype: RRType, qclass: RRClass = RRClass.IN
    ) -> "Question":
        return cls._make(normalize(qname), RRType.parse(qtype), qclass)

    def __str__(self) -> str:
        return f"{self.qname or '.'} {self.qclass.name} {self.qtype.name}"


_make_question = Question._make


@dataclass(slots=True)
class DnsMessage:
    """A DNS query or response.

    Flags follow RFC 1035: ``qr`` response, ``aa`` authoritative answer,
    ``tc`` truncation, ``rd``/``ra`` recursion desired/available.
    """

    id: int = 0
    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: RCode = RCode.NOERROR
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authorities: list[ResourceRecord] = field(default_factory=list)
    additionals: list[ResourceRecord] = field(default_factory=list)

    @classmethod
    def query(cls, qname: str, qtype: RRType, msg_id: int = 0, rd: bool = False) -> "DnsMessage":
        """Build a standard query message."""
        return cls(id=msg_id, rd=rd, questions=[Question(qname, qtype)])

    def response(self, rcode: RCode = RCode.NOERROR, aa: bool = True) -> "DnsMessage":
        """Build an empty response to this query (copies id/question/rd)."""
        # Positional, in field order, like from_wire.
        return DnsMessage(
            self.id,
            True,
            Opcode.QUERY,
            aa,
            False,
            self.rd,
            False,
            rcode,
            list(self.questions),
            [],
            [],
            [],
        )

    @property
    def question(self) -> Optional[Question]:
        """The first (and in practice only) question."""
        return self.questions[0] if self.questions else None

    def records(self, rrtype: Optional[RRType] = None, section: str = "answers") -> list[ResourceRecord]:
        """Records from a section, optionally filtered by type."""
        recs = getattr(self, section)
        if rrtype is None:
            return list(recs)
        return [r for r in recs if r.rrtype == rrtype]

    # -- wire format ------------------------------------------------------

    def _flags_word(self) -> int:
        word = 0
        if self.qr:
            word |= 0x8000
        word |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            word |= 0x0400
        if self.tc:
            word |= 0x0200
        if self.rd:
            word |= 0x0100
        if self.ra:
            word |= 0x0080
        word |= int(self.rcode) & 0xF
        return word

    def to_wire(self) -> bytes:
        """Encode to wire format with name compression."""
        out = bytearray(
            _HEADER.pack(
                self.id,
                self._flags_word(),
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
        )
        table: dict[str, int] = {}
        for q in self.questions:
            _put_name(out, q.qname, table)
            out += _QUESTION.pack(q.qtype, q.qclass)
        for section in (self.answers, self.authorities, self.additionals):
            for rr in section:
                _put_name(out, rr.name, table)
                rdata = rr.rdata
                if isinstance(rdata, ARecord):
                    out += _RR_FIXED.pack(RRType.A, rr.rrclass, rr.ttl, 4)
                    out += encode_ipv4(rdata.address)
                    continue
                # RDLENGTH is backfilled once the rdata is in place.
                out += _RR_FIXED.pack(rdata.rrtype, rr.rrclass, rr.ttl, 0)
                start = len(out)
                if isinstance(rdata, NSRecord):
                    _put_name(out, rdata.nsdname, table)
                elif isinstance(rdata, CNAMERecord):
                    _put_name(out, rdata.target, table)
                elif isinstance(rdata, SOARecord):
                    _put_name(out, rdata.mname, table)
                    _put_name(out, rdata.rname, table)
                    out += _SOA_FIXED.pack(
                        rdata.serial,
                        rdata.refresh,
                        rdata.retry,
                        rdata.expire,
                        rdata.minimum,
                    )
                elif isinstance(rdata, MXRecord):
                    out += _U16.pack(rdata.preference)
                    _put_name(out, rdata.exchange, table)
                elif isinstance(rdata, TXTRecord):
                    raw = rdata.text.encode("utf-8")
                    for i in range(0, len(raw), 255):
                        chunk = raw[i:i + 255]
                        out.append(len(chunk))
                        out += chunk
                    if not raw:
                        out.append(0)
                elif isinstance(rdata, AAAARecord):
                    out += rdata.address.encode("ascii").ljust(16, b"\x00")[:16]
                else:
                    raise ValueError(
                        f"cannot encode rdata of type {type(rdata).__name__}"
                    )
                _U16.pack_into(out, start - 2, len(out) - start)
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "DnsMessage":
        """Decode a wire-format message; raises MessageFormatError on damage."""
        if len(data) < _HEADER.size:
            raise MessageFormatError("message shorter than header")
        msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
        opcode = _OPCODES.get((flags >> 11) & 0xF)
        if opcode is None:
            raise MessageFormatError(f"{(flags >> 11) & 0xF} is not a valid Opcode")
        rcode = _RCODES.get(flags & 0xF)
        if rcode is None:
            raise MessageFormatError(f"{flags & 0xF} is not a valid RCode")
        size = len(data)
        pos = _HEADER.size
        questions: list[Question] = []
        sections: list[list[ResourceRecord]] = []
        try:
            for _ in range(qdcount):
                qname, pos = _read_name(data, pos)
                qtype, qclass = _QUESTION.unpack_from(data, pos)
                pos += 4
                questions.append(_make_question(qname, _RRTYPES[qtype], _RRCLASSES[qclass]))
            for count in (ancount, nscount, arcount):
                records: list[ResourceRecord] = []
                for _ in range(count):
                    name, pos = _read_name(data, pos)
                    rrtype, rrclass, ttl, rdlength = _RR_FIXED.unpack_from(data, pos)
                    pos += 10
                    end = pos + rdlength
                    if end > size:
                        raise MessageFormatError("rdata runs past end of message")
                    rdata = _read_rdata(_RRTYPES[rrtype], data, pos, end)
                    records.append(_make_rr(name, ttl, rdata, _RRCLASSES[rrclass]))
                    pos = end
                sections.append(records)
        except KeyError as exc:
            raise MessageFormatError(f"unknown type or class code {exc}") from exc
        except (struct.error, ValueError) as exc:
            raise MessageFormatError(str(exc)) from exc
        # Positional, in field order (keywords cost more per message):
        # id, qr, opcode, aa, tc, rd, ra, rcode, then the four sections.
        return cls(
            msg_id,
            bool(flags & 0x8000),
            opcode,
            bool(flags & 0x0400),
            bool(flags & 0x0200),
            bool(flags & 0x0100),
            bool(flags & 0x0080),
            rcode,
            questions,
            *sections,
        )

    def __str__(self) -> str:
        lines = [
            f";; id={self.id} {'response' if self.qr else 'query'} "
            f"rcode={self.rcode.name} aa={int(self.aa)}"
        ]
        for q in self.questions:
            lines.append(f";; QUESTION: {q}")
        for label, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            for rr in section:
                lines.append(f";; {label}: {rr}")
        return "\n".join(lines)
