"""Signing keys and digests.

Two interchangeable schemes sit behind one interface:

- ``mac``: a keyed-MAC test double. The "public key" carries the MAC secret,
  so it offers no unforgeability against an actor that inspects it; the
  simulator's fault model only ever hands an actor its own signer, which is
  exactly the property under test. It is fast and fully deterministic, so
  simulations default to it.
- ``ed25519``: a real EUF-CMA signature via the cryptography package, for use
  outside the simulator.

Public keys are self-describing byte strings (scheme prefix + material), so
verification needs no registry.

The MAC is HMAC-SHA256 (RFC 2104) computed from each key's inner and outer
``sha256`` states, which ``_pads`` hashes once per key: a call copies both
states and feeds them the digest. That is cheaper than ``hmac.digest``, and
than copying a cached ``hmac.new`` object, whose ``copy`` builds a Python
wrapper on every call. The states live in a least-recently-used cache of
``PAD_CACHE_SIZE`` keys. It is bounded because ``verify`` takes its key from
the message it checks, so an unbounded cache would grow with every key a
sender makes up.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass
from typing import Protocol

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

_MAC_PREFIX = b"m"
_ED_PREFIX = b"e"

DIGEST_LEN = 32

PAD_CACHE_SIZE = 256
_BLOCK = 64  # the sha256 block size
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables: XOR each byte
_OPAD = bytes(b ^ 0x5C for b in range(256))


def digest32(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@functools.lru_cache(maxsize=PAD_CACHE_SIZE)
def _pads(key: bytes):
    """The sha256 states after absorbing the key XOR ipad and XOR opad."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def _mac(key: bytes, digest: bytes) -> bytes:
    """HMAC-SHA256 of ``digest`` under ``key``."""
    inner, outer = _pads(key)
    inner = inner.copy()
    inner.update(digest)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class Signer(Protocol):
    public_key: bytes

    def sign(self, digest: bytes) -> bytes: ...


@dataclass(frozen=True)
class MacSigner:
    secret: bytes

    @property
    def public_key(self) -> bytes:
        return _MAC_PREFIX + self.secret

    def sign(self, digest: bytes) -> bytes:
        return _mac(self.secret, digest)


class Ed25519Signer:
    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("ed25519 seed must be 32 bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        self.public_key = _ED_PREFIX + self._key.public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw
        )

    def sign(self, digest: bytes) -> bytes:
        return self._key.sign(digest)


def verify(public_key: bytes, digest: bytes, sig: bytes) -> bool:
    """Check a signature over a 32-byte digest; never raises."""
    if len(digest) != DIGEST_LEN or not public_key:
        return False
    scheme, material = public_key[:1], public_key[1:]
    if scheme == _MAC_PREFIX:
        return hmac.compare_digest(_mac(material, digest), sig)
    if scheme == _ED_PREFIX:
        try:
            Ed25519PublicKey.from_public_bytes(material).verify(sig, digest)
            return True
        except (InvalidSignature, ValueError):
            return False
    return False


def mac_keypair(rng) -> MacSigner:
    return MacSigner(rng.randbytes(16))


def ed25519_keypair(rng) -> Ed25519Signer:
    return Ed25519Signer(rng.randbytes(32))
