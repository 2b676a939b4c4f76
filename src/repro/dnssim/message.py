"""RFC 1035 message framing: header, question, sections, name compression.

The resolver and servers exchange real wire-format packets so the codec is
exercised on every simulated query — exactly the byte-level surface a
``dig``-based measurement pipeline rides on.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.dnssim.errors import MessageFormatError
from repro.dnssim.records import (
    RRClass,
    RRType,
    ResourceRecord,
    decode_rdata,
    encode_rdata,
)
from repro.names.normalize import MAX_LABEL_LENGTH, normalize

_HEADER = struct.Struct("!HHHHHH")
_POINTER_MASK = 0xC0
_MAX_POINTER_CHASES = 64


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


@dataclass(frozen=True)
class Question:
    """A question-section entry."""

    qname: str
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "qname", normalize(self.qname))
        object.__setattr__(self, "qtype", RRType.parse(self.qtype))

    def __str__(self) -> str:
        return f"{self.qname or '.'} {self.qclass.name} {self.qtype.name}"


@dataclass
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
        return cls(id=msg_id, rd=rd, questions=[Question(qname, RRType.parse(qtype))])

    def response(self, rcode: RCode = RCode.NOERROR, aa: bool = True) -> "DnsMessage":
        """Build an empty response to this query (copies id/question/rd)."""
        return DnsMessage(
            id=self.id,
            qr=True,
            aa=aa,
            rd=self.rd,
            rcode=rcode,
            questions=list(self.questions),
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
        offsets: dict[str, int] = {}

        def encode_name_at(name: str, base: int) -> bytes:
            """Encode ``name`` assuming its first byte lands at ``base``."""
            encoded = bytearray()
            remaining = normalize(name)
            while remaining:
                if remaining in offsets:
                    pointer = offsets[remaining]
                    encoded += struct.pack("!H", 0xC000 | pointer)
                    return bytes(encoded)
                if base + len(encoded) < 0x3FFF:
                    offsets[remaining] = base + len(encoded)
                label, _, remaining = remaining.partition(".")
                raw = label.encode("ascii")
                if len(raw) > MAX_LABEL_LENGTH:
                    raise MessageFormatError(f"label too long: {label!r}")
                encoded.append(len(raw))
                encoded += raw
            encoded.append(0)
            return bytes(encoded)

        for q in self.questions:
            out += encode_name_at(q.qname, len(out))
            out += struct.pack("!HH", int(q.qtype), int(q.qclass))
        for section in (self.answers, self.authorities, self.additionals):
            for rr in section:
                out += encode_name_at(rr.name, len(out))
                out += struct.pack("!HHI", int(rr.rrtype), int(rr.rrclass), rr.ttl)
                # Reserve RDLENGTH, then encode rdata and backfill. Names in
                # rdata may follow each other (SOA has two), so the encoder
                # tracks how many rdata bytes it has already produced.
                out += b"\x00\x00"
                before = len(out)
                produced = 0

                def rdata_name_encoder(name: str, pad: int = 0) -> bytes:
                    # ``pad`` = fixed rdata bytes emitted before this name
                    # (e.g. the MX preference word), so offsets stay aligned.
                    nonlocal produced
                    produced += pad
                    encoded = encode_name_at(name, before + produced)
                    produced += len(encoded)
                    return encoded

                rdata_bytes = encode_rdata(rr.rdata, rdata_name_encoder)
                out += rdata_bytes
                struct.pack_into("!H", out, before - 2, len(rdata_bytes))
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "DnsMessage":
        """Decode a wire-format message; raises MessageFormatError on damage."""
        if len(data) < _HEADER.size:
            raise MessageFormatError("message shorter than header")
        msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
        try:
            opcode = Opcode((flags >> 11) & 0xF)
            rcode = RCode(flags & 0xF)
        except ValueError as exc:
            raise MessageFormatError(str(exc)) from exc
        msg = cls(
            id=msg_id,
            qr=bool(flags & 0x8000),
            opcode=opcode,
            aa=bool(flags & 0x0400),
            tc=bool(flags & 0x0200),
            rd=bool(flags & 0x0100),
            ra=bool(flags & 0x0080),
            rcode=rcode,
        )

        def decode_name(offset: int) -> tuple[str, int]:
            labels: list[str] = []
            jumps = 0
            pos = offset
            end_pos: Optional[int] = None
            while True:
                if pos >= len(data):
                    raise MessageFormatError("name runs past end of message")
                length = data[pos]
                if length & _POINTER_MASK == _POINTER_MASK:
                    if pos + 1 >= len(data):
                        raise MessageFormatError("truncated compression pointer")
                    pointer = struct.unpack_from("!H", data, pos)[0] & 0x3FFF
                    if end_pos is None:
                        end_pos = pos + 2
                    jumps += 1
                    if jumps > _MAX_POINTER_CHASES:
                        raise MessageFormatError("compression pointer loop")
                    pos = pointer
                    continue
                if length & _POINTER_MASK:
                    raise MessageFormatError("reserved label type")
                if length == 0:
                    pos += 1
                    break
                if pos + 1 + length > len(data):
                    raise MessageFormatError("label runs past end of message")
                labels.append(data[pos + 1:pos + 1 + length].decode("ascii"))
                pos += 1 + length
            return ".".join(labels), (end_pos if end_pos is not None else pos)

        pos = _HEADER.size
        try:
            for _ in range(qdcount):
                qname, pos = decode_name(pos)
                qtype, qclass = struct.unpack_from("!HH", data, pos)
                pos += 4
                msg.questions.append(Question(qname, RRType(qtype), RRClass(qclass)))
            for section, count in (
                (msg.answers, ancount),
                (msg.authorities, nscount),
                (msg.additionals, arcount),
            ):
                for _ in range(count):
                    name, pos = decode_name(pos)
                    rrtype, rrclass, ttl, rdlength = struct.unpack_from("!HHIH", data, pos)
                    pos += 10
                    if pos + rdlength > len(data):
                        raise MessageFormatError("rdata runs past end of message")
                    rdata = decode_rdata(RRType(rrtype), data, pos, rdlength, decode_name)
                    pos += rdlength
                    section.append(
                        ResourceRecord(name, ttl, rdata, RRClass(rrclass))
                    )
        except (struct.error, ValueError) as exc:
            raise MessageFormatError(str(exc)) from exc
        return msg

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
