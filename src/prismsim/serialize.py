"""Canonical byte encoding shared by hashing and Merkle commitments.

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
