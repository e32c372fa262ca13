"""Checksums used by the substrate.

* CRC-32 (IEEE 802.3 polynomial) as used by the AAL5 trailer.  The
  SBA-200 computes this in hardware; the SBA-100 lacks the hardware and
  the paper charges the host CPU for it (Table 1 discussion).
* The 16-bit one's-complement Internet checksum used by UDP/TCP (§7.6).
"""

from __future__ import annotations

import zlib


def crc32_aal5(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """CRC-32 over ``data``; chainable via the ``crc`` argument.

    Returns the final (inverted) CRC value as used in the AAL5 trailer.
    To chain, pass the *raw* running value: use :func:`crc32_update` for
    incremental computation.
    """
    return crc32_finish(crc32_update(data, crc))


def crc32_update(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Incremental CRC-32 update; returns the running (non-inverted) value.

    ``zlib.crc32`` implements the same reflected 0xEDB88320 polynomial
    but exposes the *finished* (inverted) value; bridging the two
    conventions is the pair of XORs below.  Identical output to the old
    pure-Python table loop, at C speed.
    """
    return zlib.crc32(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32_finish(crc: int) -> int:
    return crc ^ 0xFFFFFFFF


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum.

    Read as one big-endian integer, the data is the sum of its 16-bit
    words times powers of 2**16, and 2**16 == 1 (mod 0xFFFF), so the
    residue mod 0xFFFF is the one's-complement word sum, folded in C.
    The end-around-carry sum of any non-zero input lies in
    [1, 0xFFFF], so a residue of 0 stands for 0xFFFF there; only
    all-zero input sums to 0.  An odd length is padded with a zero
    byte (the shift).
    """
    n = int.from_bytes(data, "big")
    if not n:
        return 0xFFFF
    if len(data) % 2:
        n <<= 8
    return 0xFFFF - (n % 0xFFFF or 0xFFFF)
