"""Threshold public-key encryption with verifiable decryption shares.

Exponent-style ElGamal over a Schnorr group: the subgroup of 256-bit prime
order Q in the multiplicative group of a 2048-bit prime P. Secrets, nonces,
challenges and responses are all 256-bit scalars mod Q, so every
exponentiation has a 256-bit exponent. The master secret is Shamir-shared by
a trusted dealer. Any k shares decrypt; share correctness is proved with a
discrete-log-equality proof bound to the whole ciphertext, so a share for
one ciphertext never verifies against another.

Plaintexts are bounded non-negative integers (default below 2**20): they are
placed in the exponent and recovered by baby-step giant-step, which keeps the
scheme additively structured and the search cheap at these sizes.

Costs are counted in 2048-bit modular products; a square costs about 3/4 of
one. ``pow`` with a 256-bit exponent takes about 255 squares and 60 products.
Three routines do better, with the same integers as ``pow``:

- ``_fixed_pow`` serves fixed bases: G and each verification key. A base's
  table (Brickell, Gordon, McCurley and Wilson, 1992) has 64 rows, and row i
  holds base**(j * 16**i) for j in 0..15. A power then costs one product per
  nonzero hex digit of the exponent, at most 64. A table takes 512 squares
  and 448 products to build (about 3.5 ``pow``) and holds 960 group elements,
  about 0.3 MB. G's table is built by the first power of G and kept. A
  verification key's table is built by the first ``share_verify`` of a share
  with that key's index, so it pays for itself by about its fifth use. The
  tables are kept for the last ``_SYSTEM_TABLES`` systems whose shares were
  verified, and no more, however many systems a process creates.
- ``_multi_pow`` serves variable bases: a product of powers by Straus's
  simultaneous exponentiation (1964). One chain of about 255 squares serves
  every base. Each base adds about 8 products for its odd powers and one
  product per sliding window of up to 4 bits, about 51 for a 256-bit exponent.
- ``_same_base_pow`` serves several powers of one variable base, by Yao's
  bucket method (1976) on the 4-bit digits of the tables: one chain of 252
  squares gives base**(16**i) for every digit position i, and each exponent
  adds one product per nonzero digit and about 30 to join its buckets.

Per operation:

- setup: n + 1 fixed-base powers of G.
- encrypt: two fixed-base powers of G, and ``pow`` for pk**r.
- share_decrypt: c1**s and c1**w by ``_same_base_pow``, about 252 squares
  and 180 products where two ``pow`` take 510 squares and 120 products, and a
  fixed-base power of G.
- share_verify: t1 = G**z * vk**(Q - e) from two tables, at most 128
  products. t2 = c1**z * mu**(Q - e) by ``_multi_pow``, about 255 squares and
  120 products, where two ``pow`` take 510 squares and 120 products.
- interpolate: one ``_multi_pow`` over the k shares' mu**lambda, and one
  inverse mod P, then baby-step giant-step.
- decrypts_to: a fixed-base power of G and two ``_multi_pow``, with no
  inverse and no search; at n = 4 G's exponent has about 24 bits and the
  others a few.

The subgroup checks of ciphertexts and of mu are one ``pow`` each, cached per
element.

The five operations: setup, encrypt, share_decrypt, share_verify, combine.
``combine`` is ``verified_shares`` followed by ``interpolate``; a caller that
has already picked its shares with ``verified_shares`` calls ``interpolate``,
or ``decrypts_to`` to check a claimed plaintext. ``verified_shares`` takes the
caller's own share, if it gives it, without checking its proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import errors
from .errors import err

# Schnorr group: a 2048-bit prime P whose multiplicative group has a subgroup
# of 256-bit prime order Q, generated by G. The literals are the output of
# scripts/gen_tpke_group.py; RFC 5114 section 2.3 has parameters of the same shape.
_P_HEX = (
    "CBEFCA5EBFDAFF2EE5DC84C2D4410695142A7E2AB779F8EBBD011ABEE0354B42"
    "E402F8BBE642963D1213F008C323E586FCA1F27A6E2643E2FD57072B691A41AE"
    "C108D883FC5E56C81C334034E7CA4E004FC44EB5EEDE1F59148C6C424BE16817"
    "FE9830A7EF168C11970ED2EC96147C87F8F8F91560D034D00C39DA320B7DBE1E"
    "C196B2EE187BAF7416CEDDCBEB2BA1B331031609D04C4C7C6791C349F54F377E"
    "720D25E0AB23FED75B50A57014A88D37AD9684DAD74E3DE99C9BDBD9E7CD778A"
    "07030874249283D7B637A531DDAB6C10F8114D001169D5045A5EABAEECFFE00C"
    "30E079F5A5B1B83C6887C0C881F2407B85C733E0B23AD8D7C2E522CD5F8D8E17"
)
_Q_HEX = (
    "CD0FFB271E8C215FE7FF250D3E0D551187630DBCCC1118C0E4DC14506D2B095F"
)
_G_HEX = (
    "1E6C5710B91AF873FDABAE1A4F888A76938B55E415DC85A8AFB4DAE4548E58AE"
    "0FD987F90CD9E840F81D6EF9BA9B7108A516DA9131DEBB08D9FE12243112BF56"
    "6FB24014354ECB55E62E11D5E30FB7EF9FD37BE1969A924E9EF43431E9198731"
    "F7A6A7F9A9174B05DEC493B5B7D420CA547B4CAA2E7715D42D5C7E6D919D936C"
    "820DE3F793FB96BA07A0F5EF78FB347E4B9D51C1185C8CB48EEA7F17AF86B773"
    "0B34FF373739625B52F051E1BBD3DF1189D94BCA0A583242D4F2926341D1A8E0"
    "E7F5BA551AD2E0C43CB3AFDD78446A1214935D5D84E81A225FB76116F6BBC990"
    "40BFA1193AB7BBF69B3A53B5B18FE4192C43C1E29C69213ED02FBBC8E74BE3CE"
)
P = int(_P_HEX, 16)
Q = int(_Q_HEX, 16)
G = int(_G_HEX, 16)

GROUP_BYTES = 256
SCALAR_BYTES = 32
DEFAULT_MESSAGE_BOUND = 1 << 20


def _to_bytes(x: int) -> bytes:
    return x.to_bytes(GROUP_BYTES, "big")


def _from_bytes(b: bytes) -> int:
    return int.from_bytes(b, "big")


@lru_cache(maxsize=4096)
def _in_group(x: int) -> bool:
    # Subgroup membership: x**Q == 1 for the prime Q. Cached since the same
    # group elements are revalidated many times per run.
    return 1 <= x < P and pow(x, Q, P) == 1


# Fixed-base tables (Brickell, Gordon, McCurley and Wilson, 1992) with 4-bit
# windows: rows[i][j] == base**(j * 16**i) % P, 64 rows for a 256-bit exponent.
_WINDOW_BITS = 4
_DIGIT_MASK = (1 << _WINDOW_BITS) - 1
_G_ROWS: list[list[int]] = []  # G's table, filled on first use and kept
_SYSTEM_TABLES = 4  # systems whose verification-key tables are kept


def _check_exponent(e: int) -> None:
    if not 0 <= e < Q:
        raise ValueError("exponent outside [0, Q)")


def _fixed_rows(base: int) -> list[list[int]]:
    rows = []
    for _ in range(-(-Q.bit_length() // _WINDOW_BITS)):
        row = [1, base]
        for j in range(2, 1 << _WINDOW_BITS):  # a square costs about 3/4 of a product
            row.append(row[j // 2] * row[j // 2] % P if j % 2 == 0 else row[j - 1] * base % P)
        rows.append(row)
        half = row[1 << _WINDOW_BITS - 1]
        base = half * half % P
    return rows


def _fixed_pow(pairs: Iterable[tuple[list[list[int]], int]]) -> int:
    """Product of b**e % P over (table of b, e) pairs, 0 <= e < Q: one table
    multiplication per nonzero digit of each e."""
    acc = 1
    for rows, e in pairs:
        _check_exponent(e)
        for row in rows:
            if not e:
                break
            if e & _DIGIT_MASK:
                acc = acc * row[e & _DIGIT_MASK] % P
            e >>= _WINDOW_BITS
    return acc


def _g_rows() -> list[list[int]]:
    if not _G_ROWS:
        _G_ROWS.extend(_fixed_rows(G))  # all rows at once: an interrupted fill leaves none
    return _G_ROWS


def _g_pow(e: int) -> int:
    """G**e % P for 0 <= e < Q."""
    return _fixed_pow([(_g_rows(), e)])


@lru_cache(maxsize=_SYSTEM_TABLES)
def _vk_tables(vks: tuple[bytes, ...]) -> list[Optional[list[list[int]]]]:
    # One slot per verification key of a system, filled by its first share_verify.
    return [None] * len(vks)


def _vk_rows(public: TpkePublic, index: int) -> list[list[int]]:
    tables = _vk_tables(public.vks)
    rows = tables[index - 1]
    if rows is None:
        rows = tables[index - 1] = _fixed_rows(_from_bytes(public.vks[index - 1]))
    return rows


def _multi_pow(pairs: Iterable[tuple[int, int]]) -> int:
    """Product of b**e % P over (b, e) pairs, 0 <= e < Q, by simultaneous
    exponentiation (Straus, 1964): one chain of squarings serves every base.
    Each e is cut into sliding windows of up to 4 bits, each an odd digit d
    at some bit; it costs one multiplication by b**d at that bit of the chain."""
    at_bit: dict[int, list[int]] = {}
    for base, e in pairs:
        _check_exponent(e)
        windows = []
        bit = 0
        while e >> bit:
            if e >> bit & 1:
                windows.append((bit, e >> bit & _DIGIT_MASK))
                bit += _WINDOW_BITS
            else:
                bit += 1
        odd = [base % P]  # odd[k] == b**(2k + 1) % P, up to the largest digit
        top = max((digit for _, digit in windows), default=1)
        if top > 1:
            square = odd[0] * odd[0] % P
            while 2 * len(odd) - 1 < top:
                odd.append(odd[-1] * square % P)
        for bit, digit in windows:
            at_bit.setdefault(bit, []).append(odd[digit >> 1])
    acc = 1
    for bit in range(max(at_bit, default=-1), -1, -1):
        acc = acc * acc % P
        for power in at_bit.get(bit, ()):
            acc = acc * power % P
    return acc


def _same_base_pow(base: int, exponents: list[int]) -> list[int]:
    """[base**e % P for e in exponents], 0 <= e < Q, by Yao's bucket method
    (1976) on the 4-bit digits of ``_fixed_rows``: one chain of squarings gives
    base**(16**i) for every digit position i and serves every exponent. A
    nonzero digit j of e at i multiplies base**(16**i) into e's bucket j, and
    e's power is the product of bucket_j**j, taken as running products from
    j = 15 down, about 30 more products."""
    for e in exponents:
        _check_exponent(e)
    buckets = [[1] * (1 << _WINDOW_BITS) for _ in exponents]
    rest = list(exponents)
    power = base % P
    while True:
        for k, e in enumerate(rest):
            digit = e & _DIGIT_MASK
            if digit:
                bucket = buckets[k]
                bucket[digit] = bucket[digit] * power % P
            rest[k] = e >> _WINDOW_BITS
        if not any(rest):
            break
        for _ in range(_WINDOW_BITS):
            power = power * power % P
    powers = []
    for bucket in buckets:
        acc = run = 1
        for j in range(_DIGIT_MASK, 0, -1):
            run = run * bucket[j] % P
            acc = acc * run % P
        powers.append(acc)
    return powers


def _hash_to_scalar(*parts: bytes) -> int:
    # 512 bits reduced mod the 256-bit Q: within 2**-256 of uniform. A nonce
    # drawn from a narrower range than Q would leak the share through z.
    h = hashlib.sha512()
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % Q


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
        pk=_to_bytes(_g_pow(coeffs[0])),
        vks=tuple(_to_bytes(_g_pow(s.secret)) for s in shares),
        threshold=k,
        message_bound=message_bound,
    )
    return TpkeSystem(public=public, shares=shares)


def encrypt(public: TpkePublic, m: int, *, rng, aad: bytes = b"") -> Ciphertext:
    if not 0 <= m < public.message_bound:
        raise err(errors.MESSAGE_OUT_OF_RANGE, f"m={m}")
    r = rng.randrange(1, Q)
    c1 = _g_pow(r)
    c2 = (_g_pow(m) * pow(_from_bytes(public.pk), r, P)) % P
    return Ciphertext(c1=_to_bytes(c1), c2=_to_bytes(c2), aad=aad)


def _cipher_ok(c: Ciphertext) -> bool:
    # Canonical lengths only: a zero-padded c1 or c2 is a different byte string
    # for the same element, and would get a share of its own.
    return (len(c.c1) == len(c.c2) == GROUP_BYTES
            and _in_group(_from_bytes(c.c1)) and _in_group(_from_bytes(c.c2)))


def share_decrypt(public: TpkePublic, share: TpkeShare, c: Ciphertext) -> DecryptionShare:
    """Produce share holder ``share.index``'s decryption share with a DLEQ proof.

    A malformed ciphertext yields the failure symbol (empty share).
    """
    if not _cipher_ok(c):
        return DecryptionShare(index=share.index, mu=b"", chal=b"", resp=b"")
    # Deterministic nonce: same share for the same ciphertext every time.
    w = _hash_to_scalar(share.secret.to_bytes(SCALAR_BYTES, "big"), c.c1, c.c2, c.aad)
    mu, t2 = _same_base_pow(_from_bytes(c.c1), [share.secret, w])
    t1 = _g_pow(w)
    vk = public.vks[share.index - 1]
    e = _hash_to_scalar(
        c.c1, c.c2, c.aad, vk, _to_bytes(mu), _to_bytes(t1), _to_bytes(t2)
    )
    z = (w + e * share.secret) % Q
    return DecryptionShare(
        index=share.index,
        mu=_to_bytes(mu),
        chal=e.to_bytes(SCALAR_BYTES, "big"),
        resp=z.to_bytes(SCALAR_BYTES, "big"),
    )


def share_verify(public: TpkePublic, c: Ciphertext, share: DecryptionShare) -> bool:
    if not 1 <= share.index <= public.n:
        return False
    # Canonical lengths only: resp is not hashed into the challenge, so a
    # zero-padded resp would otherwise verify as a second encoding of the share.
    if (len(share.mu) != GROUP_BYTES or len(share.chal) != SCALAR_BYTES
            or len(share.resp) != SCALAR_BYTES):
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
    t1 = _fixed_pow([(_g_rows(), z), (_vk_rows(public, share.index), Q - e)])
    t2 = _multi_pow([(_from_bytes(c.c1), z), (mu, Q - e)])
    expected = _hash_to_scalar(
        c.c1, c.c2, c.aad, public.vks[share.index - 1],
        share.mu, _to_bytes(t1), _to_bytes(t2),
    )
    return expected == e


# step -> (baby steps {G**j: j for j < step}, giant step G**-step)
_BABY_TABLE: dict[int, tuple[dict[int, int], int]] = {}


def _bsgs(target: int, bound: int) -> Optional[int]:
    """Solve G**m == target (mod P) for 0 <= m < bound."""
    step = 1 << max(1, (bound - 1).bit_length() + 1 >> 1)
    entry = _BABY_TABLE.get(step)
    if entry is None:
        table = {}
        cur = 1
        for j in range(step):
            table.setdefault(cur, j)
            cur = (cur * G) % P
        entry = _BABY_TABLE[step] = (table, _g_pow(-step % Q))
    table, giant = entry
    cur = target
    for i in range((bound + step - 1) // step + 1):
        j = table.get(cur)
        if j is not None and i * step + j < bound:
            return i * step + j
        cur = (cur * giant) % P
    return None


def verified_shares(public: TpkePublic, c: Ciphertext, shares: Iterable[DecryptionShare],
                    own: Optional[DecryptionShare] = None) -> list[DecryptionShare]:
    """The first share that verifies for each index, in input order, up to k of them.

    ``own`` is the caller's own ``share_decrypt`` of c, if it has one: a share
    equal to it is taken without checking its proof, which it would pass. Any
    other share, at that index too, is verified."""
    if own is not None and not own.mu:
        own = None  # the failure symbol verifies for no ciphertext
    valid: dict[int, DecryptionShare] = {}
    for share in shares:
        if share.index not in valid and (share == own or share_verify(public, c, share)):
            valid[share.index] = share
            if len(valid) == public.threshold:
                break
    return list(valid.values())


def _lagrange_at_zero(indices: list[int]) -> list[tuple[int, int]]:
    """(N_i, D_i) for each index i, with lambda_i = N_i / D_i: the integers
    N_i = prod j and D_i = prod (j - i) over the other indices j."""
    fractions = []
    for i in indices:
        num, den = 1, 1
        for j in indices:
            if j != i:
                num *= j
                den *= j - i
        fractions.append((num, den))
    return fractions


def interpolate(public: TpkePublic, c: Ciphertext,
                shares: list[DecryptionShare]) -> Optional[int]:
    """Recover the plaintext from the output of ``verified_shares``; None if it
    holds fewer than k shares. No proof is checked here."""
    if len(shares) < public.threshold:
        return None
    mus = {s.index: _from_bytes(s.mu) for s in shares}
    indices = sorted(mus)
    c1s = _multi_pow([(mus[i], num * pow(den, -1, Q) % Q)
                      for i, (num, den) in zip(indices, _lagrange_at_zero(indices))])
    m_elt = (_from_bytes(c.c2) * pow(c1s, -1, P)) % P
    return _bsgs(m_elt, public.message_bound)


def decrypts_to(public: TpkePublic, c: Ciphertext,
                shares: list[DecryptionShare], value: int) -> bool:
    """Whether c decrypts to ``value`` under the first k shares of the output
    of ``verified_shares``: the same verdict as ``interpolate(...) == value``,
    without the inverse or the search. No proof is checked here.

    With lambda_i = N_i / D_i, D = prod |D_i| and a_i = N_i * D / D_i, all
    integers, it checks 0 <= value < message_bound and
    c2**D * prod_{a_i < 0} mu_i**-a_i == G**(value * D) * prod_{a_i > 0} mu_i**a_i,
    which is G**value == c2 / prod mu_i**lambda_i raised to the power D. Every
    element has prime order Q and Q does not divide D, so the two agree, and
    G**value fixes value below the bound, which is below Q. Every exponent
    is reduced mod Q; at n = 4 all but G's have a few bits."""
    if len(shares) < public.threshold or not 0 <= value < public.message_bound:
        return False
    mus = {s.index: _from_bytes(s.mu) for s in shares[:public.threshold]}
    indices = sorted(mus)
    fractions = _lagrange_at_zero(indices)
    d = 1
    for _, den in fractions:
        d *= abs(den)
    left, right = [(_from_bytes(c.c2), d % Q)], []
    for i, (num, den) in zip(indices, fractions):
        a = num * d // den
        if a < 0:
            left.append((mus[i], -a % Q))
        else:
            right.append((mus[i], a % Q))
    return _multi_pow(left) == _g_pow(value * d % Q) * _multi_pow(right) % P


def combine(public: TpkePublic, c: Ciphertext,
            shares: Iterable[DecryptionShare]) -> Optional[int]:
    """Recover the plaintext from any k valid shares; None if fewer verify."""
    return interpolate(public, c, verified_shares(public, c, shares))
