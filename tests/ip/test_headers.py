"""IP/UDP/TCP header encode/decode and checksum tests."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.atm.crc import internet_checksum
from repro.ip.headers import (
    FLAG_ACK,
    FLAG_SYN,
    IP_HEADER_SIZE,
    PROTO_TCP,
    PROTO_UDP,
    UDP_HEADER_SIZE,
    IpDatagram,
    TcpSegment,
    UdpPacket,
)


class TestIpDatagram:
    def test_roundtrip(self):
        d = IpDatagram(src=1, dst=2, proto=PROTO_UDP, payload=b"data")
        out = IpDatagram.decode(d.encode())
        assert (out.src, out.dst, out.proto, out.payload) == (1, 2, PROTO_UDP, b"data")

    @given(st.integers(0, 255), st.integers(0, 255), st.binary(max_size=300))
    def test_roundtrip_property(self, src, dst, payload):
        d = IpDatagram(src=src, dst=dst, proto=PROTO_TCP, payload=payload)
        out = IpDatagram.decode(d.encode())
        assert out.payload == payload and out.src == src and out.dst == dst

    def test_header_checksum_detects_corruption(self):
        raw = bytearray(IpDatagram(src=1, dst=2, proto=17, payload=b"x").encode())
        raw[8] ^= 0xFF  # flip TTL
        with pytest.raises(ValueError, match="checksum"):
            IpDatagram.decode(bytes(raw))

    def test_short_datagram_rejected(self):
        with pytest.raises(ValueError, match="short"):
            IpDatagram.decode(b"\x45" * 10)

    def test_trailing_padding_ignored(self):
        """AAL5 reassembly can hand back cell-padded datagrams; the IP
        length field must govern."""
        raw = IpDatagram(src=1, dst=2, proto=17, payload=b"hello").encode()
        out = IpDatagram.decode(raw + bytes(20))
        assert out.payload == b"hello"

    def test_bad_version_rejected(self):
        raw = bytearray(IpDatagram(src=1, dst=2, proto=17, payload=b"").encode())
        raw[0] = 0x55
        with pytest.raises(ValueError, match="version"):
            IpDatagram.decode(bytes(raw))


def _closing_word(data: bytes) -> bytes:
    """The 16-bit word that makes ``data`` (even length) sum to a
    non-zero multiple of 0xFFFF, i.e. computes a checksum of 0."""
    return internet_checksum(data).to_bytes(2, "big")


class TestUdpPacket:
    def test_roundtrip(self):
        p = UdpPacket(src_port=1234, dst_port=80, payload=b"payload")
        out = UdpPacket.decode(p.encode())
        assert (out.src_port, out.dst_port, out.payload) == (1234, 80, b"payload")
        assert out.with_checksum

    @given(st.binary(max_size=200), st.integers(1, 65535), st.integers(1, 65535))
    def test_roundtrip_property(self, payload, sport, dport):
        p = UdpPacket(src_port=sport, dst_port=dport, payload=payload)
        assert UdpPacket.decode(p.encode()).payload == payload

    def test_checksum_detects_corruption(self):
        raw = bytearray(UdpPacket(src_port=1, dst_port=2, payload=b"hello!").encode())
        raw[-1] ^= 0x01
        with pytest.raises(ValueError, match="checksum"):
            UdpPacket.decode(bytes(raw))

    def test_checksum_can_be_disabled(self):
        """§7.6: the checksum can be switched off by applications."""
        raw = bytearray(
            UdpPacket(src_port=1, dst_port=2, payload=b"hi", with_checksum=False).encode()
        )
        raw[-1] ^= 0x01  # corruption passes without checksum
        out = UdpPacket.decode(bytes(raw))
        assert not out.with_checksum

    def test_odd_length_payload(self):
        p = UdpPacket(src_port=1, dst_port=2, payload=b"odd")
        assert UdpPacket.decode(p.encode()).payload == b"odd"

    @given(
        st.binary(max_size=200).map(lambda b: b[: len(b) & ~1]),
        st.integers(1, 65535),
        st.integers(1, 65535),
    )
    def test_computed_zero_is_sent_as_ffff(self, body, sport, dport):
        """A computed checksum of 0 goes on the wire as 0xFFFF (0 means
        "no checksum"), and the receiver still verifies it."""
        length = UDP_HEADER_SIZE + len(body) + 2
        header = struct.pack(">HHHH", sport, dport, length, 0)
        payload = body + _closing_word(header + body)
        assert internet_checksum(header + payload) == 0
        raw = UdpPacket(src_port=sport, dst_port=dport, payload=payload).encode()
        assert raw[6:8] == b"\xff\xff"
        out = UdpPacket.decode(raw)
        assert out.payload == payload and out.with_checksum

    def test_computed_zero_packet_still_detects_corruption(self):
        header = struct.pack(">HHHH", 1, 2, UDP_HEADER_SIZE + 4, 0)
        payload = b"hi" + _closing_word(header + b"hi")
        raw = bytearray(UdpPacket(src_port=1, dst_port=2, payload=payload).encode())
        assert raw[6:8] == b"\xff\xff"
        raw[-3] ^= 0x01
        with pytest.raises(ValueError, match="checksum"):
            UdpPacket.decode(bytes(raw))


class TestTcpSegment:
    def test_roundtrip(self):
        seg = TcpSegment(
            src_port=5, dst_port=6, seq=1000, ack=2000,
            flags=FLAG_SYN | FLAG_ACK, window=8192, payload=b"abc",
        )
        out = TcpSegment.decode(seg.encode())
        assert out.seq == 1000 and out.ack == 2000
        assert out.flag(FLAG_SYN) and out.flag(FLAG_ACK)
        assert out.window == 8192 and out.payload == b"abc"

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 0xFFFF),
        st.binary(max_size=300),
    )
    def test_roundtrip_property(self, seq, ack, window, payload):
        seg = TcpSegment(
            src_port=1, dst_port=2, seq=seq, ack=ack,
            flags=FLAG_ACK, window=window, payload=payload,
        )
        out = TcpSegment.decode(seg.encode())
        assert (out.seq, out.ack, out.window, out.payload) == (seq, ack, window, payload)

    def test_checksum_detects_corruption(self):
        raw = bytearray(
            TcpSegment(src_port=1, dst_port=2, seq=0, ack=0, flags=FLAG_ACK,
                       window=100, payload=b"body").encode()
        )
        raw[22] ^= 0x10  # flip a payload byte
        with pytest.raises(ValueError, match="checksum"):
            TcpSegment.decode(bytes(raw))

    @given(st.binary(max_size=200).map(lambda b: b[: len(b) & ~1]))
    def test_computed_zero_checksum_roundtrip(self, body):
        """TCP has no "no checksum" value: a computed 0 is sent as 0 and
        verifies on decode."""
        fields = dict(src_port=1, dst_port=2, seq=7, ack=9, flags=FLAG_ACK,
                      window=512)
        encoded = TcpSegment(**fields).encode()
        header = encoded[:16] + b"\x00\x00" + encoded[18:]
        payload = body + _closing_word(header + body)
        raw = TcpSegment(payload=payload, **fields).encode()
        assert raw[16:18] == b"\x00\x00"
        assert TcpSegment.decode(raw).payload == payload

    def test_describe(self):
        seg = TcpSegment(src_port=1, dst_port=2, seq=9, ack=0, flags=FLAG_SYN,
                         window=0)
        assert "SYN" in seg.describe()

    def test_pure_ack_is_40_bytes_with_ip(self):
        """§7.8: 'an active acknowledgment ... consists of only a 40
        byte TCP/IP header' -- i.e. one U-Net single cell."""
        ack = TcpSegment(src_port=1, dst_port=2, seq=0, ack=1, flags=FLAG_ACK,
                         window=8192)
        assert IP_HEADER_SIZE + len(ack.encode()) == 40
