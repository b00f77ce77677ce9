#!/usr/bin/env python3
"""Generate the threshold-encryption group committed in ``bftledger/tpke.py``.

The group is a Schnorr group: a 2048-bit prime P whose multiplicative group
has a subgroup of 256-bit prime order Q, and a generator G of that subgroup.
RFC 5114 section 2.3 publishes parameters of this shape; they are cited as
precedent only, and this script derives its own from a fixed seed:

1. Q is the first candidate with exactly 256 bits that is a probable prime.
2. P is the first candidate of the form 2kQ + 1 with exactly 2048 bits that
   is a probable prime.
3. G = h**((P - 1) // Q) mod P for the smallest h >= 2 that gives G != 1.

Candidates are SHA-512 in counter mode over ``SEED``, so a run always
prints the same literals. Primality is Miller-Rabin with the first 40 primes
as bases, after trial division by the primes below 2**14. A run takes about
5 s on a 2-vCPU VM (Python 3.11).

Usage: python3 scripts/gen_tpke_group.py
"""

import hashlib
import math
import time

SEED = b"bftledger tpke group v1"
Q_BITS = 256
P_BITS = 2048


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


SMALL_PRIMES = _small_primes(1 << 14)
SMALL_PRODUCT = math.prod(SMALL_PRIMES)
BASES = SMALL_PRIMES[:40]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin for an odd n above every trial divisor."""
    if math.gcd(n, SMALL_PRODUCT) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def candidates(label: bytes, bits: int):
    """Endless stream of ``bits``-bit integers with the top bit set."""
    counter = 0
    while True:
        out = b""
        while len(out) * 8 < bits:
            out += hashlib.sha512(SEED + label + counter.to_bytes(8, "big")).digest()
            counter += 1
        x = int.from_bytes(out, "big") >> (len(out) * 8 - bits)
        yield x | (1 << (bits - 1))


def generate() -> tuple[int, int, int]:
    q = next(c | 1 for c in candidates(b"q", Q_BITS) if is_probable_prime(c | 1))
    p = next(
        p for p in (x - x % (2 * q) + 1 for x in candidates(b"p", P_BITS))
        if p.bit_length() == P_BITS and is_probable_prime(p)
    )
    g = next(g for g in (pow(h, (p - 1) // q, p) for h in range(2, p)) if g != 1)
    return p, q, g


def hex_literal(name: str, x: int, width: int) -> str:
    digits = f"{x:0{width}X}"
    lines = "\n".join(f'    "{digits[i:i + 64]}"' for i in range(0, width, 64))
    return f"{name} = (\n{lines}\n)"


def main() -> None:
    started = time.perf_counter()
    p, q, g = generate()
    print(hex_literal("_P_HEX", p, P_BITS // 4))
    print(hex_literal("_Q_HEX", q, Q_BITS // 4))
    print(hex_literal("_G_HEX", g, P_BITS // 4))
    print(f"# generated in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
