"""Hashing and signature schemes.

SHA-256 is the only hash used anywhere in the artifact.  Two signature
schemes share one interface: real Ed25519, and a deterministic mock that
keeps simulation CPU cost negligible.  The mock is explicitly flagged in
configuration; it provides no security, only the well-formedness semantics
the protocol layer needs at desk scale.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    secret: bytes
    public: bytes


class SignatureScheme:
    """Interface: derive keypairs from seeds, sign bytes, verify bytes."""

    def keypair(self, seed: bytes) -> KeyPair:
        raise NotImplementedError

    def sign(self, secret: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError


class MockScheme(SignatureScheme):
    """Deterministic stand-in: sig = sha256(public || message).

    Trivially forgeable by construction; selected only via the
    ``signature_scheme: "mock"`` config flag for simulation runs where
    signature CPU cost is not under test.
    """

    def keypair(self, seed: bytes) -> KeyPair:
        secret = sha256(b"mock-secret" + seed)
        public = sha256(b"mock-public" + secret)
        return KeyPair(secret=secret, public=public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        public = sha256(b"mock-public" + secret)
        return sha256(public + message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return signature == sha256(public + message)


@functools.lru_cache(maxsize=1024)
def _ed25519_key(secret: bytes) -> Ed25519PrivateKey:
    """The key object for ``secret``, built once per wallet rather than
    once per signature."""
    return Ed25519PrivateKey.from_private_bytes(secret)


class Ed25519Scheme(SignatureScheme):
    def keypair(self, seed: bytes) -> KeyPair:
        secret = sha256(b"ed25519-seed" + seed)
        key = Ed25519PrivateKey.from_private_bytes(secret)
        public = key.public_key().public_bytes_raw()
        return KeyPair(secret=secret, public=public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return _ed25519_key(secret).sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


_SCHEMES = {"mock": MockScheme(), "ed25519": Ed25519Scheme()}


def get_scheme(name: str) -> SignatureScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown signature scheme {name!r}") from None
