"""Unit + property tests for the DNS wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssim.errors import MessageFormatError
from repro.dnssim.message import DnsMessage, Question, RCode
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
)


def roundtrip(message: DnsMessage) -> DnsMessage:
    return DnsMessage.from_wire(message.to_wire())


class TestQueryRoundtrip:
    def test_simple_query(self):
        msg = DnsMessage.query("www.example.com", RRType.A, msg_id=42, rd=True)
        out = roundtrip(msg)
        assert out.id == 42
        assert out.rd is True
        assert out.question.qname == "www.example.com"
        assert out.question.qtype == RRType.A

    def test_root_query(self):
        out = roundtrip(DnsMessage.query("", RRType.NS))
        assert out.question.qname == ""

    def test_flags_roundtrip(self):
        msg = DnsMessage.query("x.com", RRType.A)
        response = msg.response(rcode=RCode.NXDOMAIN)
        response.ra = True
        out = roundtrip(response)
        assert out.qr and out.aa and out.ra
        assert out.rcode == RCode.NXDOMAIN


class TestAnswerRoundtrip:
    def test_all_rdata_types(self):
        msg = DnsMessage.query("example.com", RRType.A).response()
        msg.answers = [
            ResourceRecord("example.com", 300, ARecord("93.184.216.34")),
            ResourceRecord("example.com", 300, NSRecord("ns1.example.com")),
            ResourceRecord("www.example.com", 60, CNAMERecord("example.com")),
            ResourceRecord("example.com", 600, MXRecord(10, "mail.example.com")),
            ResourceRecord("example.com", 120, TXTRecord("v=spf1 -all")),
        ]
        msg.authorities = [
            ResourceRecord(
                "example.com",
                3600,
                SOARecord("ns1.example.com", "admin.example.com", 7, 1, 2, 3, 4),
            )
        ]
        msg.additionals = [
            ResourceRecord("ns1.example.com", 300, ARecord("10.0.0.1")),
        ]
        out = roundtrip(msg)
        assert out.answers == msg.answers
        assert out.authorities == msg.authorities
        assert out.additionals == msg.additionals

    def test_compression_shrinks_message(self):
        msg = DnsMessage.query("a.very.long.label.example.com", RRType.NS).response()
        msg.answers = [
            ResourceRecord(
                "a.very.long.label.example.com",
                300,
                NSRecord(f"ns{i}.a.very.long.label.example.com"),
            )
            for i in range(4)
        ]
        wire = msg.to_wire()
        uncompressed_estimate = sum(
            len(rr.name) + len(rr.rdata.nsdname) + 16 for rr in msg.answers
        )
        assert len(wire) < uncompressed_estimate
        assert roundtrip(msg).answers == msg.answers

    def test_soa_second_name_compression_is_correct(self):
        # Regression: SOA carries two names back to back; offsets for the
        # second must account for the first.
        msg = DnsMessage.query("zone.example", RRType.SOA).response()
        msg.answers = [
            ResourceRecord(
                "zone.example",
                300,
                SOARecord("primary.zone.example", "admin.zone.example"),
            ),
            ResourceRecord(
                "sub.zone.example",
                300,
                SOARecord("primary.zone.example", "admin.zone.example"),
            ),
        ]
        assert roundtrip(msg).answers == msg.answers

    def test_mx_name_offset_padding(self):
        # Regression: the MX preference word precedes the exchange name.
        msg = DnsMessage.query("x.com", RRType.MX).response()
        msg.answers = [
            ResourceRecord("x.com", 10, MXRecord(5, "mail.x.com")),
            ResourceRecord("x.com", 10, MXRecord(10, "mail.x.com")),
        ]
        assert roundtrip(msg).answers == msg.answers

    def test_txt_longer_than_255_bytes(self):
        text = "x" * 700
        msg = DnsMessage.query("x.com", RRType.TXT).response()
        msg.answers = [ResourceRecord("x.com", 10, TXTRecord(text))]
        assert roundtrip(msg).answers[0].rdata.text == text


class TestMalformedInput:
    def test_truncated_header(self):
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(b"\x00\x01\x02")

    def test_name_past_end(self):
        wire = bytearray(DnsMessage.query("example.com", RRType.A).to_wire())
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(bytes(wire[:14]))

    def test_pointer_loop(self):
        # Header + a question whose name is a self-referencing pointer.
        header = (0).to_bytes(2, "big") + (0).to_bytes(2, "big")
        header += (1).to_bytes(2, "big") + b"\x00\x00" * 3
        pointer = b"\xc0\x0c"  # points at itself (offset 12)
        question = pointer + (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(header + question)

    @pytest.mark.parametrize(
        "flags",
        [0x2800, 0x0800, 0x7800, 0x8007, 0x8006, 0x800F],
        ids=["opcode-5", "opcode-1", "opcode-15", "rcode-7", "rcode-6", "rcode-15"],
    )
    def test_unknown_opcode_or_rcode(self, flags):
        wire = bytearray(DnsMessage.query("example.com", RRType.A).to_wire())
        wire[2:4] = flags.to_bytes(2, "big")
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(bytes(wire))


def _one_answer(rrtype: int, rdata: bytes, rdlength: int) -> bytes:
    """A response holding one root-owned answer whose RDLENGTH may cover
    less than ``rdata``; bytes past it are trailing data."""
    header = bytes.fromhex("0000 8400 0000 0001 0000 0000")
    fixed = rrtype.to_bytes(2, "big") + b"\x00\x01" + (60).to_bytes(4, "big")
    return header + b"\x00" + fixed + rdlength.to_bytes(2, "big") + rdata


_EXAMPLE = b"\x07example\x03com\x00"


class TestStrictRdata:
    """Rdata must fill its RDLENGTH exactly: a name or TXT chunk that runs
    past it, or an address of the wrong size, is a format error."""

    @pytest.mark.parametrize(
        "rrtype, rdata",
        [
            (RRType.NS, _EXAMPLE),
            (RRType.CNAME, _EXAMPLE),
            (RRType.MX, b"\x00\x0a" + _EXAMPLE),
            (RRType.SOA, _EXAMPLE + _EXAMPLE + bytes(20)),
        ],
        ids=["ns", "cname", "mx", "soa"],
    )
    def test_name_past_rdlength(self, rrtype, rdata):
        intact = _one_answer(rrtype, rdata, len(rdata))
        assert DnsMessage.from_wire(intact).answers[0].rrtype == rrtype
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(_one_answer(rrtype, rdata, 5))

    def test_txt_chunk_past_rdlength(self):
        # The chunk claims 7 bytes but RDLENGTH holds 3 bytes in all.
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(_one_answer(RRType.TXT, b"\x07abcdefg", 3))

    @pytest.mark.parametrize("size", [3, 15, 17])
    def test_aaaa_must_be_16_bytes(self, size):
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(_one_answer(RRType.AAAA, b"a" * size, size))

    def test_a_must_be_4_bytes(self):
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(_one_answer(RRType.A, b"\x01\x02\x03", 3))


class TestNameLimits:
    def test_longest_name_roundtrips(self):
        name = ".".join(["a" * 63] * 3 + ["b" * 61])
        assert len(name) == 253
        assert roundtrip(DnsMessage.query(name, RRType.A)).question.qname == name

    @pytest.mark.parametrize("length", [254, 304])
    def test_encode_refuses_names_over_255_octets(self, length):
        name = ("abcdefghi." * 31)[:length]
        with pytest.raises(MessageFormatError):
            DnsMessage.query(name, RRType.A).to_wire()
        answer = DnsMessage.query("example.com", RRType.A).response()
        answer.answers = [ResourceRecord(name, 60, ARecord("10.0.0.1"))]
        with pytest.raises(MessageFormatError):
            answer.to_wire()

    def test_decode_refuses_names_over_255_octets(self):
        labels = b"".join(b"\x3f" + b"a" * 63 for _ in range(4)) + b"\x00"
        assert len(labels) == 257
        wire = bytes.fromhex("0000 0000 0001 0000 0000 0000") + labels + b"\x00\x01\x00\x01"
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(wire)

    def test_decode_refuses_long_names_built_from_pointers(self):
        # Question 1 is a 192-octet name; question 2 adds two 63-byte
        # labels in front of a pointer to it: 320 octets once expanded.
        first = b"".join(b"\x3f" + b"a" * 63 for _ in range(3)) + b"\x00"
        second = b"\x3f" + b"b" * 63 + b"\x3f" + b"c" * 63 + b"\xc0\x0c"
        qfixed = b"\x00\x01\x00\x01"
        wire = bytes.fromhex("0000 0000 0002 0000 0000 0000") + first + qfixed + second + qfixed
        with pytest.raises(MessageFormatError):
            DnsMessage.from_wire(wire)

    @pytest.mark.parametrize("name", ["a..example.com", ".example.com"])
    def test_encode_refuses_empty_labels(self, name):
        with pytest.raises(MessageFormatError):
            DnsMessage.query(name, RRType.A).to_wire()


_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)
_names = st.lists(_label, min_size=1, max_size=5).map(".".join)


class TestPropertyRoundtrip:
    @given(name=_names, msg_id=st.integers(0, 0xFFFF))
    @settings(max_examples=60)
    def test_query_roundtrip(self, name, msg_id):
        msg = DnsMessage.query(name, RRType.A, msg_id=msg_id)
        out = roundtrip(msg)
        assert out.question.qname == name
        assert out.id == msg_id

    @given(
        names=st.lists(_names, min_size=1, max_size=6),
        ttl=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60)
    def test_answer_roundtrip_arbitrary_names(self, names, ttl):
        msg = DnsMessage.query(names[0], RRType.NS).response()
        msg.answers = [
            ResourceRecord(name, ttl, NSRecord(f"ns.{name}")) for name in names
        ]
        assert roundtrip(msg).answers == msg.answers
