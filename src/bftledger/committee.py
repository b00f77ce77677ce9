"""Committee membership, votes, and quorum certificates.

A certificate is the universal proof-of-agreement object: a value plus
signatures from at least 2f+1 distinct committee members over the value's
canonical encoding.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Iterable

from . import errors, serialize
from .errors import err
from .keys import Signer, digest32, verify


DigestInfo = namedtuple("DigestInfo", "hits misses maxsize currsize")
_epoch = _hits = _misses = 0


def value_digest(value: Any) -> bytes:
    """Digest of a wire value's canonical (tagged) encoding.

    Kept on the (frozen) value once computed, never looked up by equality:
    ``Transfer(d, True) == Transfer(d, 1)``, but only the second encodes.
    As for ``lru_cache``, ``cache_info()`` counts hits (read back) and misses
    (computed); ``cache_clear()`` makes every stored digest stale.
    """
    global _hits, _misses
    stored = getattr(value, "_digest", None)
    if stored is not None and stored[0] == _epoch:
        _hits += 1
        return stored[1]
    _misses += 1
    d = digest32(serialize.encode(value))
    object.__setattr__(value, "_digest", (_epoch, d))
    return d


def _clear_digests() -> None:
    global _epoch, _hits, _misses
    _epoch, _hits, _misses = _epoch + 1, 0, 0


value_digest.cache_info = lambda: DigestInfo(_hits, _misses, None, _misses)
value_digest.cache_clear = _clear_digests


@dataclass(frozen=True)
class Committee:
    """An ordered set of authority public keys with n = 3f + 1."""

    authorities: tuple[bytes, ...]

    def __post_init__(self):
        n = len(self.authorities)
        if n < 4 or (n - 1) % 3 != 0:
            raise ValueError(f"committee size must be 3f+1 with f >= 1, got {n}")
        if len(set(self.authorities)) != n:
            raise ValueError("authority keys must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.authorities)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1


@dataclass(frozen=True)
class Vote:
    signer: int
    payload_digest: bytes
    sig: bytes


@dataclass(frozen=True)
class Certificate:
    value: serialize.AnyWire
    votes: tuple[Vote, ...]


@dataclass(frozen=True)
class Authenticated:
    """A payload signed by its issuer's account key."""

    payload: serialize.AnyWire
    pk: bytes
    sig: bytes


def make_vote(index: int, signer: Signer, value: Any) -> Vote:
    """Sign a wire value as committee member ``index``.

    Re-signing the same value yields the identical vote (MAC double is
    deterministic; ed25519 is deterministic by construction).
    """
    d = value_digest(value)
    return Vote(signer=index, payload_digest=d, sig=signer.sign(d))


def vote_is_valid(committee: Committee, value_dig: bytes, vote: Vote) -> bool:
    if not 0 <= vote.signer < committee.n:
        return False
    if vote.payload_digest != value_dig:
        return False
    return verify(committee.authorities[vote.signer], value_dig, vote.sig)


def aggregate_certificate(
    committee: Committee, value: Any, votes: Iterable[Vote]
) -> Certificate:
    """Form a certificate from votes over ``value``.

    Invalid votes are dropped (not fatal); duplicate signers count once.
    Raises QuorumNotReached below 2f+1 distinct valid signers.
    """
    d = value_digest(value)
    by_signer: dict[int, Vote] = {}
    for vote in votes:
        if vote.signer in by_signer:
            continue
        if vote_is_valid(committee, d, vote):
            by_signer[vote.signer] = vote
    if len(by_signer) < committee.quorum:
        raise err(
            errors.QUORUM_NOT_REACHED,
            f"{len(by_signer)} valid votes, need {committee.quorum}",
        )
    ordered = tuple(by_signer[i] for i in sorted(by_signer))
    return Certificate(value=value, votes=ordered)


def check_certificate(committee: Committee, cert: Certificate) -> bool:
    """True iff the certificate carries 2f+1 distinct valid votes over its value."""
    if not isinstance(cert, Certificate):
        return False
    try:
        d = value_digest(cert.value)
    except serialize.EncodingError:
        return False
    signers = {v.signer for v in cert.votes}
    if len(signers) < committee.quorum:
        return False
    if len(signers) != len(cert.votes):
        return False
    return all(vote_is_valid(committee, d, v) for v in cert.votes)


def authenticate(payload: Any, pk: bytes, signer: Signer) -> Authenticated:
    return Authenticated(payload=payload, pk=pk, sig=signer.sign(value_digest(payload)))


def check_authenticated(auth: Authenticated, expected_pk: bytes | None = None) -> bool:
    """Verify an owner signature; optionally pin the expected key."""
    if expected_pk is not None and auth.pk != expected_pk:
        return False
    try:
        d = value_digest(auth.payload)
    except serialize.EncodingError:
        return False
    return verify(auth.pk, d, auth.sig)
