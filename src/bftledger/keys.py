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
"""

from __future__ import annotations

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


def digest32(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


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
        return hmac.digest(self.secret, digest, "sha256")


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
        want = hmac.digest(material, digest, "sha256")
        return hmac.compare_digest(want, sig)
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
