"""Differential harness for the DNS wire codec.

The codec in ``repro.dnssim.message`` is table-driven: precompiled
structs, one compression table per message, rdata written in place.
This file keeps the closure-based codec it replaced as the oracle
(``reference_to_wire`` / ``reference_from_wire``, unchanged apart from
being module functions) and pins the new one to it:

* every wire query and response of two small campaigns decodes to the
  same message under both codecs and re-encodes to the same bytes;
* generated messages over all seven record types encode to the
  oracle's bytes and round-trip;
* a damaged message the new decoder accepts is one the oracle accepts
  with the same result (the new decoder is stricter, never looser);
* wire names the decoder has to canonicalize (mixed-case label bytes,
  whitespace or dots at a name's ends) decode as under the oracle, whose
  record and question constructors normalize every name they are given.
"""

from __future__ import annotations

import struct
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_world
from repro.dnssim.errors import MessageFormatError
from repro.dnssim.message import DnsMessage, Opcode, Question, RCode
from repro.dnssim.network import DnsNetwork
from repro.dnssim.records import (
    AAAARecord,
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRClass,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
)
from repro.engine import run_campaign
from repro.names.normalize import MAX_LABEL_LENGTH, normalize

CAPTURE_N = 300
CAPTURE_SEEDS = (11, 42)


# -- the oracle: the closure-based codec, kept verbatim ----------------------


_HEADER = struct.Struct("!HHHHHH")
_POINTER_MASK = 0xC0
_MAX_POINTER_CHASES = 64


def _reference_encode_ipv4(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {address!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"invalid IPv4 address: {address!r}") from None
    if any(o < 0 or o > 255 for o in octets):
        raise ValueError(f"invalid IPv4 address: {address!r}")
    return bytes(octets)


def _reference_decode_ipv4(data: bytes) -> str:
    if len(data) != 4:
        raise ValueError("IPv4 rdata must be 4 bytes")
    return ".".join(str(b) for b in data)


def reference_encode_rdata(rdata, encode_name) -> bytes:
    if isinstance(rdata, ARecord):
        return _reference_encode_ipv4(rdata.address)
    if isinstance(rdata, AAAARecord):
        return rdata.address.encode("ascii").ljust(16, b"\x00")[:16]
    if isinstance(rdata, NSRecord):
        return encode_name(rdata.nsdname)
    if isinstance(rdata, CNAMERecord):
        return encode_name(rdata.target)
    if isinstance(rdata, SOARecord):
        fixed = struct.pack(
            "!IIIII",
            rdata.serial,
            rdata.refresh,
            rdata.retry,
            rdata.expire,
            rdata.minimum,
        )
        return encode_name(rdata.mname) + encode_name(rdata.rname) + fixed
    if isinstance(rdata, MXRecord):
        return struct.pack("!H", rdata.preference) + encode_name(rdata.exchange, 2)
    if isinstance(rdata, TXTRecord):
        raw = rdata.text.encode("utf-8")
        chunks = [raw[i:i + 255] for i in range(0, len(raw), 255)] or [b""]
        return b"".join(bytes([len(c)]) + c for c in chunks)
    raise ValueError(f"cannot encode rdata of type {type(rdata).__name__}")


def reference_decode_rdata(rrtype, data, offset, length, decode_name):
    end = offset + length
    if rrtype == RRType.A:
        return ARecord(_reference_decode_ipv4(data[offset:end]))
    if rrtype == RRType.AAAA:
        return AAAARecord(data[offset:end].rstrip(b"\x00").decode("ascii"))
    if rrtype == RRType.NS:
        name, _ = decode_name(offset)
        return NSRecord(name)
    if rrtype == RRType.CNAME:
        name, _ = decode_name(offset)
        return CNAMERecord(name)
    if rrtype == RRType.SOA:
        mname, pos = decode_name(offset)
        rname, pos = decode_name(pos)
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", data, pos)
        return SOARecord(mname, rname, serial, refresh, retry, expire, minimum)
    if rrtype == RRType.MX:
        (preference,) = struct.unpack_from("!H", data, offset)
        exchange, _ = decode_name(offset + 2)
        return MXRecord(preference, exchange)
    if rrtype == RRType.TXT:
        parts = []
        pos = offset
        while pos < end:
            n = data[pos]
            parts.append(data[pos + 1:pos + 1 + n])
            pos += 1 + n
        return TXTRecord(b"".join(parts).decode("utf-8"))
    raise ValueError(f"cannot decode rdata of type {rrtype}")


def reference_to_wire(self: DnsMessage) -> bytes:
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
            out += b"\x00\x00"
            before = len(out)
            produced = 0

            def rdata_name_encoder(name: str, pad: int = 0) -> bytes:
                nonlocal produced
                produced += pad
                encoded = encode_name_at(name, before + produced)
                produced += len(encoded)
                return encoded

            rdata_bytes = reference_encode_rdata(rr.rdata, rdata_name_encoder)
            out += rdata_bytes
            struct.pack_into("!H", out, before - 2, len(rdata_bytes))
    return bytes(out)


def reference_from_wire(data: bytes) -> DnsMessage:
    if len(data) < _HEADER.size:
        raise MessageFormatError("message shorter than header")
    msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data, 0)
    try:
        opcode = Opcode((flags >> 11) & 0xF)
        rcode = RCode(flags & 0xF)
    except ValueError as exc:
        raise MessageFormatError(str(exc)) from exc
    msg = DnsMessage(
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
                rdata = reference_decode_rdata(RRType(rrtype), data, pos, rdlength, decode_name)
                pos += rdlength
                section.append(ResourceRecord(name, ttl, rdata, RRClass(rrclass)))
    except (struct.error, ValueError) as exc:
        raise MessageFormatError(str(exc)) from exc
    return msg


# -- captured campaign traffic -----------------------------------------------


def _capture(seed: int) -> list[bytes]:
    """Every wire query and response one campaign sends."""
    wires: list[bytes] = []
    send = DnsNetwork.send

    def recording_send(self, ip, wire_query, *args):
        wire_response = send(self, ip, wire_query, *args)
        wires.append(wire_query)
        wires.append(wire_response)
        return wire_response

    world = build_world(WorldConfig(n_websites=CAPTURE_N, seed=seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DnsNetwork, "send", recording_send)
        run_campaign(world=world, shards=1, workers=1)
    return wires


@pytest.fixture(scope="module")
def captures() -> dict[int, list[bytes]]:
    return {seed: _capture(seed) for seed in CAPTURE_SEEDS}


@pytest.fixture(params=CAPTURE_SEEDS, ids=lambda s: f"seed{s}")
def campaign_wires(request, captures) -> list[bytes]:
    return captures[request.param]


class TestCampaignTraffic:
    def test_traffic_covers_every_section_and_common_type(self, campaign_wires):
        seen = set()
        for wire in campaign_wires:
            msg = DnsMessage.from_wire(wire)
            for name in ("answers", "authorities", "additionals"):
                seen.update((name, rr.rrtype) for rr in getattr(msg, name))
        assert len(campaign_wires) > 2000
        assert {("answers", RRType.A), ("answers", RRType.CNAME),
                ("authorities", RRType.NS), ("authorities", RRType.SOA),
                ("additionals", RRType.A)} <= seen

    def test_decoders_agree(self, campaign_wires):
        for wire in campaign_wires:
            assert DnsMessage.from_wire(wire) == reference_from_wire(wire)

    def test_reencoding_is_byte_identical(self, campaign_wires):
        for wire in campaign_wires:
            new = DnsMessage.from_wire(wire).to_wire()
            assert new == reference_to_wire(reference_from_wire(wire))
            assert new == wire


# -- generated messages over all seven record types ---------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_label = st.text(
    alphabet=_LETTERS + _LETTERS.upper() + "0123456789-_", min_size=1, max_size=20
)
# Few distinct suffixes, so names share them and compression kicks in.
_suffix = st.sampled_from(
    ["", "example.com", "Example.COM", "cdn.example.com", "net", "a.b.c.org"]
)
# Characters str.strip() removes; \x1c-\x1f are ones bytes.strip() keeps.
_SPACE = " \t\n\r\x0b\x0c\x1c\x1f"
# Presentation names as callers spell them: mixed case, optionally
# wrapped in whitespace and ending in a dot. The constructors normalize
# them; the wire carries the canonical form.
_names = st.builds(
    lambda lead, labels, suffix, dot, trail: (
        lead + ".".join([*labels, suffix] if suffix else labels) + dot + trail
    ),
    st.text(alphabet=_SPACE, max_size=2),
    st.lists(_label, min_size=0, max_size=3),
    _suffix,
    st.sampled_from(["", "."]),
    st.text(alphabet=_SPACE, max_size=2),
)
_u32 = st.integers(0, 2**32 - 1)
_ipv4 = st.tuples(*[st.integers(0, 255)] * 4).map(lambda o: "%d.%d.%d.%d" % o)
_ipv6 = st.text(alphabet="0123456789abcdef:", min_size=2, max_size=16)
_rdata = st.one_of(
    st.builds(ARecord, _ipv4),
    st.builds(AAAARecord, _ipv6),
    st.builds(NSRecord, _names),
    st.builds(CNAMERecord, _names),
    st.builds(SOARecord, _names, _names, _u32, _u32, _u32, _u32, _u32),
    st.builds(MXRecord, st.integers(0, 0xFFFF), _names),
    st.builds(TXTRecord, st.text(max_size=600)),
)
_records = st.lists(st.builds(ResourceRecord, _names, _u32, _rdata), max_size=4)


@st.composite
def _messages(draw) -> DnsMessage:
    msg = DnsMessage(
        id=draw(st.integers(0, 0xFFFF)),
        qr=draw(st.booleans()),
        aa=draw(st.booleans()),
        tc=draw(st.booleans()),
        rd=draw(st.booleans()),
        ra=draw(st.booleans()),
        rcode=draw(st.sampled_from(list(RCode))),
    )
    msg.questions = draw(
        st.lists(st.builds(Question, _names, st.sampled_from(list(RRType))), max_size=2)
    )
    msg.answers = draw(_records)
    msg.authorities = draw(_records)
    msg.additionals = draw(_records)
    return msg


class TestGeneratedMessages:
    @given(msg=_messages())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_encoding_matches_oracle_and_roundtrips(self, msg):
        wire = msg.to_wire()
        assert wire == reference_to_wire(msg)
        assert DnsMessage.from_wire(wire) == msg == reference_from_wire(wire)


class TestDamagedMessages:
    @given(
        data=st.data(),
        seed=st.sampled_from(CAPTURE_SEEDS),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_new_decoder_accepts_no_more_than_the_oracle(self, data, seed, captures):
        wires = captures[seed]
        wire = bytearray(wires[data.draw(st.integers(0, len(wires) - 1))])
        for _ in range(data.draw(st.integers(1, 3))):
            wire[data.draw(st.integers(0, len(wire) - 1))] = data.draw(st.integers(0, 255))
        damaged = bytes(wire[:data.draw(st.integers(0, len(wire)))])
        try:
            decoded = DnsMessage.from_wire(damaged)
        except MessageFormatError:
            return
        assert decoded == reference_from_wire(damaged)



# -- names the decoder has to canonicalize -----------------------------------

_SPACE_BYTES = [c.encode() for c in _SPACE]
_raw_label = st.one_of(
    _label, st.text(alphabet=_LETTERS + "0123456789-_", min_size=1, max_size=20)
).map(str.encode)
# What a name's last label may end in, canonical ending first.
_raw_tail = st.one_of(
    st.just(b""), st.sampled_from([b".", b". ", b" .", b"..", *_SPACE_BYTES])
)


@st.composite
def _raw_names(draw) -> list[bytes]:
    """Wire labels of one name, lower or mixed case, with whitespace or
    dots inside the labels at the name's ends."""
    labels = draw(st.lists(_raw_label, min_size=1, max_size=4))
    if draw(st.booleans()):
        labels[0] = draw(st.sampled_from(_SPACE_BYTES)) + labels[0]
    labels[-1] += draw(_raw_tail)
    return labels


def _wire_name(labels: list[bytes]) -> bytes:
    return b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"


@st.composite
def _raw_messages(draw) -> bytes:
    """A response whose question name and whose answer's owner and
    target names are spelled as the labels drawn; the answer's owner is
    a compression pointer to the question name or its own labels."""
    qname = _wire_name(draw(_raw_names()))
    rrtype = draw(st.sampled_from([RRType.CNAME, RRType.NS, RRType.MX, RRType.SOA]))
    if rrtype is RRType.SOA:
        rdata = (
            _wire_name(draw(_raw_names()))
            + _wire_name(draw(_raw_names()))
            + struct.pack("!IIIII", 1, 2, 3, 4, 5)
        )
    elif rrtype is RRType.MX:
        rdata = struct.pack("!H", 10) + _wire_name(draw(_raw_names()))
    else:
        rdata = _wire_name(draw(_raw_names()))
    owner = b"\xc0\x0c" if draw(st.booleans()) else _wire_name(draw(_raw_names()))
    return (
        _HEADER.pack(draw(st.integers(0, 0xFFFF)), 0x8400, 1, 1, 0, 0)
        + qname
        + struct.pack("!HH", RRType.A, RRClass.IN)
        + owner
        + struct.pack("!HHIH", rrtype, RRClass.IN, 300, len(rdata))
        + rdata
    )


class TestNonCanonicalWireNames:
    @given(wire=_raw_messages())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_decoder_canonicalizes_like_the_oracle(self, wire):
        decoded = DnsMessage.from_wire(wire)
        assert decoded == reference_from_wire(wire)
