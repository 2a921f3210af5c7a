"""Canonical byte encoding shared by hashing, Merkle commitments and snapshots.

Layout rules (fixed so digests are reproducible across implementations):

* integers are little-endian, ``u32`` for counts/indices, ``u64`` for
  levels, values and nonces
* variable-length byte strings are length-prefixed with a ``u32``
* digests are 32 raw bytes, rendered as lowercase hex in logs and JSON
* composite objects serialize their fields in declaration order
"""
from __future__ import annotations

import struct

DIGEST_SIZE = 32


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def lp_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return u32(len(data)) + data


def hex_digest(digest: bytes) -> str:
    return digest.hex()


class ByteReader:
    """Sequential reader over a canonical byte string."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated input")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def lp_bytes(self) -> bytes:
        return self.take(self.u32())

    def digest(self) -> bytes:
        return self.take(DIGEST_SIZE)

    def done(self) -> bool:
        return self.pos == len(self.data)
