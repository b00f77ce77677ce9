"""Threshold public-key encryption with verifiable decryption shares.

Exponent-style ElGamal over the prime-order subgroup of a 2048-bit safe
prime (the well-known MODP group), with the master secret Shamir-shared by a
trusted dealer. Any k shares decrypt; share correctness is proved with a
discrete-log-equality proof bound to the whole ciphertext, so a share for
one ciphertext never verifies against another.

Plaintexts are bounded non-negative integers (default below 2**20): they are
placed in the exponent and recovered by baby-step giant-step, which keeps the
scheme additively structured and the search cheap at these sizes.

The five operations: setup, encrypt, share_decrypt, share_verify, combine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import errors
from .errors import err

# 2048-bit MODP safe prime (RFC 3526 group 14); q = (p - 1) // 2 is prime.
_P_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)
P = int(_P_HEX, 16)
Q = (P - 1) // 2
G = 4  # 2**2: a quadratic residue, hence a generator of the order-q subgroup

GROUP_BYTES = 256
DEFAULT_MESSAGE_BOUND = 1 << 20


def _to_bytes(x: int) -> bytes:
    return x.to_bytes(GROUP_BYTES, "big")


def _from_bytes(b: bytes) -> int:
    return int.from_bytes(b, "big")


@lru_cache(maxsize=4096)
def _in_group(x: int) -> bool:
    # Full subgroup-membership exponentiation; cached since the same group
    # elements are revalidated many times per run.
    return 1 <= x < P and pow(x, Q, P) == 1


def _hash_to_scalar(*parts: bytes) -> int:
    # 256-bit output: well below Q, and it packs into the 32-byte challenge field.
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class Ciphertext:
    c1: bytes
    c2: bytes
    aad: bytes  # context the ciphertext is bound to (e.g. an auction id)


@dataclass(frozen=True)
class DecryptionShare:
    index: int
    mu: bytes  # empty = the special failure symbol
    chal: bytes
    resp: bytes


@dataclass(frozen=True)
class TpkePublic:
    pk: bytes
    vks: tuple[bytes, ...]
    threshold: int
    message_bound: int

    @property
    def n(self) -> int:
        return len(self.vks)


@dataclass(frozen=True)
class TpkeShare:
    index: int
    secret: int


@dataclass(frozen=True)
class TpkeSystem:
    public: TpkePublic
    shares: tuple[TpkeShare, ...]


def setup(n: int, k: int, *, rng, message_bound: int = DEFAULT_MESSAGE_BOUND) -> TpkeSystem:
    """Dealer key generation: Shamir-share a master exponent among n parties."""
    if not 1 <= k <= n:
        raise err(errors.BAD_THRESHOLD, f"k={k}, n={n}")
    coeffs = [rng.randrange(1, Q) for _ in range(k)]  # coeffs[0] is the master secret
    def f(x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % Q
        return acc

    shares = tuple(TpkeShare(i, f(i)) for i in range(1, n + 1))
    public = TpkePublic(
        pk=_to_bytes(pow(G, coeffs[0], P)),
        vks=tuple(_to_bytes(pow(G, s.secret, P)) for s in shares),
        threshold=k,
        message_bound=message_bound,
    )
    return TpkeSystem(public=public, shares=shares)


def encrypt(public: TpkePublic, m: int, *, rng, aad: bytes = b"") -> Ciphertext:
    if not 0 <= m < public.message_bound:
        raise err(errors.MESSAGE_OUT_OF_RANGE, f"m={m}")
    r = rng.randrange(1, Q)
    c1 = pow(G, r, P)
    c2 = (pow(G, m, P) * pow(_from_bytes(public.pk), r, P)) % P
    return Ciphertext(c1=_to_bytes(c1), c2=_to_bytes(c2), aad=aad)


def _cipher_ok(c: Ciphertext) -> bool:
    return _in_group(_from_bytes(c.c1)) and _in_group(_from_bytes(c.c2))


def share_decrypt(public: TpkePublic, share: TpkeShare, c: Ciphertext) -> DecryptionShare:
    """Produce share holder ``share.index``'s decryption share with a DLEQ proof.

    A malformed ciphertext yields the failure symbol (empty share).
    """
    if not _cipher_ok(c):
        return DecryptionShare(index=share.index, mu=b"", chal=b"", resp=b"")
    c1 = _from_bytes(c.c1)
    mu = pow(c1, share.secret, P)
    # Deterministic nonce: same share for the same ciphertext every time.
    w = _hash_to_scalar(share.secret.to_bytes(GROUP_BYTES, "big"), c.c1, c.c2, c.aad)
    t1 = pow(G, w, P)
    t2 = pow(c1, w, P)
    vk = public.vks[share.index - 1]
    e = _hash_to_scalar(
        c.c1, c.c2, c.aad, vk, _to_bytes(mu), _to_bytes(t1), _to_bytes(t2)
    )
    z = (w + e * share.secret) % Q
    return DecryptionShare(
        index=share.index,
        mu=_to_bytes(mu),
        chal=e.to_bytes(32, "big"),
        resp=z.to_bytes(GROUP_BYTES, "big"),
    )


def share_verify(public: TpkePublic, c: Ciphertext, share: DecryptionShare) -> bool:
    if not 1 <= share.index <= public.n:
        return False
    if not share.mu or len(share.chal) != 32:
        return False
    if not _cipher_ok(c):
        return False
    mu = _from_bytes(share.mu)
    if not _in_group(mu):
        return False
    e = int.from_bytes(share.chal, "big")
    z = _from_bytes(share.resp)
    if not (0 < e < Q and 0 <= z < Q):
        return False
    c1 = _from_bytes(c.c1)
    vk = _from_bytes(public.vks[share.index - 1])
    t1 = (pow(G, z, P) * pow(vk, Q - e, P)) % P
    t2 = (pow(c1, z, P) * pow(mu, Q - e, P)) % P
    expected = _hash_to_scalar(
        c.c1, c.c2, c.aad, public.vks[share.index - 1],
        share.mu, _to_bytes(t1), _to_bytes(t2),
    )
    return expected == e


_BABY_TABLE: dict[int, dict[int, int]] = {}


def _bsgs(target: int, bound: int) -> Optional[int]:
    """Solve G**m == target (mod P) for 0 <= m < bound."""
    step = 1 << max(1, (bound - 1).bit_length() + 1 >> 1)
    table = _BABY_TABLE.get(step)
    if table is None:
        table = {}
        cur = 1
        for j in range(step):
            table.setdefault(cur, j)
            cur = (cur * G) % P
        _BABY_TABLE[step] = table
    giant = pow(G, Q - (step % Q), P)
    cur = target
    for i in range((bound + step - 1) // step + 1):
        j = table.get(cur)
        if j is not None and i * step + j < bound:
            return i * step + j
        cur = (cur * giant) % P
    return None


def combine(public: TpkePublic, c: Ciphertext,
            shares: Iterable[DecryptionShare]) -> Optional[int]:
    """Recover the plaintext from any k valid shares; None if fewer verify."""
    valid: dict[int, int] = {}
    for share in shares:
        if share.index in valid:
            continue
        if share_verify(public, c, share):
            valid[share.index] = _from_bytes(share.mu)
        if len(valid) == public.threshold:
            break
    if len(valid) < public.threshold:
        return None
    indices = sorted(valid)
    c1s = 1
    for i in indices:
        lam_num, lam_den = 1, 1
        for j in indices:
            if j != i:
                lam_num = (lam_num * j) % Q
                lam_den = (lam_den * (j - i)) % Q
        lam = (lam_num * pow(lam_den, -1, Q)) % Q
        c1s = (c1s * pow(valid[i], lam, P)) % P
    m_elt = (_from_bytes(c.c2) * pow(c1s, P - 2, P)) % P
    return _bsgs(m_elt, public.message_bound)
