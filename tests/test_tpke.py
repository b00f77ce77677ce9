"""Threshold encryption: setup, round trips, share verification, combining."""

import dataclasses
import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftledger import tpke
from bftledger.errors import ProtocolError


@pytest.fixture(scope="module")
def system():
    return tpke.setup(4, 2, rng=random.Random(42))


def test_setup_shapes(system):
    assert system.public.n == 4
    assert system.public.threshold == 2
    assert len(system.shares) == 4
    assert {s.index for s in system.shares} == {1, 2, 3, 4}


def test_bad_threshold():
    with pytest.raises(ProtocolError) as exc:
        tpke.setup(4, 5, rng=random.Random(1))
    assert exc.value.code == "BadThreshold"
    with pytest.raises(ProtocolError):
        tpke.setup(4, 0, rng=random.Random(1))


def test_committee_default_threshold():
    # bootstrap for n = 3f+1 = 4 uses threshold f+1 = 2
    n, f = 4, 1
    system = tpke.setup(n, f + 1, rng=random.Random(2))
    assert system.public.threshold == 2


def test_encrypt_randomized_same_plaintext(system):
    rng = random.Random(3)
    c1 = tpke.encrypt(system.public, 5, rng=rng)
    c2 = tpke.encrypt(system.public, 5, rng=rng)
    assert c1 != c2
    for c in (c1, c2):
        shares = [tpke.share_decrypt(system.public, s, c) for s in system.shares[:2]]
        assert tpke.combine(system.public, c, shares) == 5


def test_message_out_of_range(system):
    with pytest.raises(ProtocolError) as exc:
        tpke.encrypt(system.public, system.public.message_bound, rng=random.Random(1))
    assert exc.value.code == "MessageOutOfRange"
    with pytest.raises(ProtocolError):
        tpke.encrypt(system.public, -1, rng=random.Random(1))


def test_roundtrip_various_messages(system):
    rng = random.Random(4)
    for m in (0, 1, 7, 255, 1 << 10, (1 << 20) - 1):
        c = tpke.encrypt(system.public, m, rng=rng)
        shares = [tpke.share_decrypt(system.public, s, c) for s in system.shares[2:]]
        assert tpke.combine(system.public, c, shares) == m


def test_malformed_ciphertext_yields_failure_symbol(system):
    bad = tpke.Ciphertext(c1=b"\x00" * tpke.GROUP_BYTES, c2=b"\x01" * tpke.GROUP_BYTES, aad=b"")
    share = tpke.share_decrypt(system.public, system.shares[0], bad)
    assert share.mu == b""
    assert not tpke.share_verify(system.public, bad, share)


def test_share_from_wrong_index_fails_verify(system):
    rng = random.Random(5)
    c = tpke.encrypt(system.public, 9, rng=rng)
    share = tpke.share_decrypt(system.public, system.shares[0], c)
    relabeled = tpke.DecryptionShare(index=2, mu=share.mu, chal=share.chal, resp=share.resp)
    assert tpke.share_verify(system.public, c, share)
    assert not tpke.share_verify(system.public, c, relabeled)


def test_bitflip_invalidates_share(system):
    rng = random.Random(6)
    c = tpke.encrypt(system.public, 12, rng=rng)
    share = tpke.share_decrypt(system.public, system.shares[1], c)
    flipped = bytes([share.mu[0] ^ 1]) + share.mu[1:]
    assert not tpke.share_verify(
        system.public, c, tpke.DecryptionShare(share.index, flipped, share.chal, share.resp)
    )


def test_share_bound_to_its_ciphertext(system):
    rng = random.Random(7)
    c1 = tpke.encrypt(system.public, 3, rng=rng)
    c2 = tpke.encrypt(system.public, 3, rng=rng)
    share = tpke.share_decrypt(system.public, system.shares[0], c1)
    assert tpke.share_verify(system.public, c1, share)
    assert not tpke.share_verify(system.public, c2, share)


def test_aad_binds_context(system):
    rng = random.Random(8)
    c = tpke.encrypt(system.public, 3, rng=rng, aad=b"auction-1")
    retagged = tpke.Ciphertext(c1=c.c1, c2=c.c2, aad=b"auction-2")
    share = tpke.share_decrypt(system.public, system.shares[0], c)
    assert not tpke.share_verify(system.public, retagged, share)


def test_combine_below_threshold_fails(system):
    rng = random.Random(9)
    c = tpke.encrypt(system.public, 77, rng=rng)
    one = [tpke.share_decrypt(system.public, system.shares[0], c)]
    assert tpke.combine(system.public, c, one) is None


def test_combine_filters_invalid_shares(system):
    rng = random.Random(10)
    c = tpke.encrypt(system.public, 31, rng=rng)
    good = [tpke.share_decrypt(system.public, s, c) for s in system.shares[:2]]
    corrupt = tpke.DecryptionShare(good[0].index, good[0].mu, good[0].chal, b"\x00" * tpke.GROUP_BYTES)
    # one valid share plus a corrupt one stays below threshold
    assert tpke.combine(system.public, c, [corrupt, good[1]]) is None
    # with a third valid share the corrupt one is simply excluded
    extra = tpke.share_decrypt(system.public, system.shares[2], c)
    assert tpke.combine(system.public, c, [corrupt, good[1], extra]) == 31


def test_exhaustive_subsets_n4_k2(system):
    """Every 2-subset of honest shares decrypts; every 1-subset fails."""
    rng = random.Random(11)
    c = tpke.encrypt(system.public, 555, rng=rng)
    shares = [tpke.share_decrypt(system.public, s, c) for s in system.shares]
    for pair in itertools.combinations(shares, 2):
        assert tpke.combine(system.public, c, list(pair)) == 555
    for single in shares:
        assert tpke.combine(system.public, c, [single]) is None


def test_shares_deterministic(system):
    rng = random.Random(12)
    c = tpke.encrypt(system.public, 8, rng=rng)
    a = tpke.share_decrypt(system.public, system.shares[0], c)
    b = tpke.share_decrypt(system.public, system.shares[0], c)
    assert a == b


# -- group parameters ---------------------------------------------------------------


def _miller_rabin(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
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


def test_group_parameters():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    assert tpke.P.bit_length() == 2048
    assert tpke.Q.bit_length() == 256
    assert _miller_rabin(tpke.P, bases)
    assert _miller_rabin(tpke.Q, bases)
    assert (tpke.P - 1) % tpke.Q == 0
    assert tpke.G != 1
    assert pow(tpke.G, tpke.Q, tpke.P) == 1


def test_group_literals_match_generator():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "gen_tpke_group.py")
    spec = importlib.util.spec_from_file_location("gen_tpke_group", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.generate() == (tpke.P, tpke.Q, tpke.G)


# -- the DLEQ nonce must not leak the share --------------------------------------------


def _scalar(b):
    return int.from_bytes(b, "big")


def _nonce_leak_candidates(a, b):
    """Candidate secrets from two shares of one holder, assuming both nonces are
    below 2**256 (Howgrave-Graham and Smart's short-nonce attack, exact case).

    z = w + e*s mod Q, so e2*z1 - e1*z2 = e2*w1 - e1*w2 (mod Q). With short
    nonces and a Q far above 2**512, the centred residue is that integer, and
    it fixes w1 modulo e1 / gcd(e1, e2).
    """
    q = tpke.Q
    e1, z1, e2, z2 = _scalar(a.chal), _scalar(a.resp), _scalar(b.chal), _scalar(b.resp)
    diff = (e2 * z1 - e1 * z2) % q
    if diff > q // 2:
        diff -= q
    g = math.gcd(e1, e2)
    if diff % g:
        return
    m = e1 // g
    start = diff // g * pow(e2 // g, -1, m) % m
    for w1 in range(start, 1 << 256, m):
        w2, rest = divmod(e2 * w1 - diff, e1)
        if rest == 0 and 0 <= w2 < 1 << 256:
            yield (z1 - w1) * pow(e1, -1, q) % q


def test_dleq_nonce_does_not_leak_share(system):
    rng = random.Random(13)
    ca = tpke.encrypt(system.public, 4, rng=rng, aad=b"auction-a")
    cb = tpke.encrypt(system.public, 6, rng=rng, aad=b"auction-b")
    for share, vk in zip(system.shares, system.public.vks):
        a = tpke.share_decrypt(system.public, share, ca)
        b = tpke.share_decrypt(system.public, share, cb)
        vk = _scalar(vk)
        leaked = [s for s in _nonce_leak_candidates(a, b) if pow(tpke.G, s, tpke.P) == vk]
        assert not leaked, f"share {share.index} recovered from two decryption shares"


# -- subgroup membership and ranges ------------------------------------------------------


@pytest.fixture(scope="module")
def valid_share(system):
    c = tpke.encrypt(system.public, 21, rng=random.Random(14))
    share = tpke.share_decrypt(system.public, system.shares[0], c)
    assert tpke.share_verify(system.public, c, share)
    return c, share


def test_mu_outside_subgroup_rejected(system, valid_share):
    c, share = valid_share
    negated = tpke.P - _scalar(share.mu)  # -1 has order 2, so -mu is not in the subgroup
    assert not tpke._in_group(negated)
    forged = dataclasses.replace(share, mu=tpke._to_bytes(negated))
    assert not tpke.share_verify(system.public, c, forged)


@pytest.mark.parametrize("mu", ["zero", "p", "mu_plus_p"])
def test_mu_out_of_range_rejected(system, valid_share, mu):
    c, share = valid_share
    value = {"zero": 0, "p": tpke.P, "mu_plus_p": _scalar(share.mu) + tpke.P}[mu]
    encoded = value.to_bytes(tpke.GROUP_BYTES, "big")  # canonical length: range alone rejects
    assert not tpke.share_verify(system.public, c, dataclasses.replace(share, mu=encoded))


@pytest.mark.parametrize("resp", ["q", "z_plus_q"])
def test_resp_at_least_q_rejected(system, valid_share, resp):
    # z + Q passes the group equations (G**Q == 1) and must fail on its range alone
    c, share = valid_share
    z = {"q": tpke.Q, "z_plus_q": _scalar(share.resp) + tpke.Q}[resp]
    resp = z.to_bytes(tpke.SCALAR_BYTES, "big")
    assert not tpke.share_verify(system.public, c, dataclasses.replace(share, resp=resp))


@pytest.mark.parametrize("field", ["mu", "resp"])
def test_padded_share_field_rejected(system, valid_share, field):
    # A leading zero byte keeps the value, and resp is not hashed into the
    # challenge: accepting it would give a second encoding of the same share.
    c, share = valid_share
    padded = dataclasses.replace(share, **{field: b"\x00" + getattr(share, field)})
    assert not tpke.share_verify(system.public, c, padded)


@pytest.mark.parametrize("field", ["c1", "c2"])
def test_padded_ciphertext_yields_failure_symbol(system, valid_share, field):
    c, share = valid_share
    padded = dataclasses.replace(c, **{field: b"\x00" + getattr(c, field)})
    failure = tpke.share_decrypt(system.public, system.shares[0], padded)
    assert (failure.mu, failure.chal, failure.resp) == (b"", b"", b"")
    assert not tpke.share_verify(system.public, padded, share)


def test_c1_outside_subgroup_yields_failure_symbol(system, valid_share):
    c, _ = valid_share
    bad = tpke.Ciphertext(c1=tpke._to_bytes(tpke.P - _scalar(c.c1)), c2=c.c2, aad=c.aad)
    share = tpke.share_decrypt(system.public, system.shares[0], bad)
    assert (share.mu, share.chal, share.resp) == (b"", b"", b"")
    assert not tpke.share_verify(system.public, bad, share)


# -- combine over valid and corrupted shares ------------------------------------------------

_PLAINTEXTS = (0, 40_000, (1 << 20) - 1)


@pytest.fixture(scope="module")
def three_of_five():
    system = tpke.setup(5, 3, rng=random.Random(15))
    rng = random.Random(16)
    ciphers = [tpke.encrypt(system.public, m, rng=rng) for m in _PLAINTEXTS]
    shares = [[tpke.share_decrypt(system.public, s, c) for s in system.shares] for c in ciphers]
    return system, ciphers, shares


def _bump(scalar):
    return ((_scalar(scalar) + 1) % tpke.Q).to_bytes(tpke.SCALAR_BYTES, "big")


# Each corruption makes a share that share_verify rejects; n is the holder count.
_CORRUPTIONS = {
    "resp": lambda s, n: dataclasses.replace(s, resp=_bump(s.resp)),
    "chal": lambda s, n: dataclasses.replace(s, chal=_bump(s.chal)),
    "mu": lambda s, n: dataclasses.replace(s, mu=tpke._to_bytes(_scalar(s.mu) * tpke.G % tpke.P)),
    "index": lambda s, n: dataclasses.replace(s, index=s.index % n + 1),
    "failure": lambda s, n: dataclasses.replace(s, mu=b"", chal=b"", resp=b""),
}
_KIND = st.sampled_from(sorted(_CORRUPTIONS))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combine_k_valid_plus_one_corrupt(three_of_five, data):
    system, ciphers, shares = three_of_five
    n, k = system.public.n, system.public.threshold
    which = data.draw(st.integers(0, len(ciphers) - 1))
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    bad = _CORRUPTIONS[data.draw(_KIND)](shares[which][data.draw(st.integers(0, n - 1))], n)
    assert not tpke.share_verify(system.public, ciphers[which], bad)
    mixed = [shares[which][i] for i in subset]
    mixed.insert(data.draw(st.integers(0, k)), bad)
    assert tpke.combine(system.public, ciphers[which], mixed) == _PLAINTEXTS[which]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combine_below_threshold_of_accepted_shares(three_of_five, data):
    system, ciphers, shares = three_of_five
    n, k = system.public.n, system.public.threshold
    which = data.draw(st.integers(0, len(ciphers) - 1))
    good = data.draw(st.lists(st.integers(0, n - 1), max_size=k - 1, unique=True))
    bad = data.draw(st.lists(st.tuples(st.integers(0, n - 1), _KIND), max_size=3))
    mixed = [shares[which][i] for i in good]
    mixed += [_CORRUPTIONS[kind](shares[which][i], n) for i, kind in bad]
    mixed = data.draw(st.permutations(mixed))
    accepted = {s.index for s in mixed if tpke.share_verify(system.public, ciphers[which], s)}
    assert len(accepted) < k
    assert tpke.combine(system.public, ciphers[which], mixed) is None


# -- fixed-base exponentiation of G ---------------------------------------------------------


@pytest.mark.parametrize("e", [0, 1, 15, 16, 2**252, tpke.Q - 1],
                         ids=["0", "1", "15", "16", "2^252", "q_minus_1"])
def test_g_pow_matches_pow(e):
    assert tpke._g_pow(e) == pow(tpke.G, e, tpke.P)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, tpke.Q - 1))
def test_g_pow_matches_pow_everywhere(e):
    assert tpke._g_pow(e) == pow(tpke.G, e, tpke.P)


@pytest.mark.parametrize("e", [-1, tpke.Q, 1 << 256], ids=["minus_1", "q", "2^256"])
def test_g_pow_rejects_exponent_outside_range(e):
    with pytest.raises(ValueError):
        tpke._g_pow(e)


def test_import_builds_no_g_table():
    # Tables are built by the first power of their base, never at import.
    src = os.path.dirname(os.path.dirname(tpke.__file__))
    code = ("import bftledger.wire, bftledger.tpke as t; "
            "print(len(t._G_ROWS), t._vk_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["0", "0"]


# -- simultaneous and fixed-base exponentiation against pow -------------------------------

_EDGE_EXPONENTS = (0, 1, tpke.Q - 1)


@pytest.fixture(scope="module")
def edge_bases(system):
    """name -> (base, its fixed-base table): 1, P - 1, G and a real verification key."""
    bases = {"one": 1, "p_minus_1": tpke.P - 1, "g": tpke.G, "vk": _scalar(system.public.vks[0])}
    return {name: (base, tpke._fixed_rows(base)) for name, base in bases.items()}


def _pow_product(pairs):
    acc = 1
    for base, e in pairs:
        acc = acc * pow(base, e, tpke.P) % tpke.P
    return acc


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_multi_and_fixed_pow_match_pow_on_edges(edge_bases, count):
    factors = [(name, e) for name in sorted(edge_bases) for e in _EDGE_EXPONENTS]
    if count < 3:
        cases = itertools.product(factors, repeat=count)
    else:  # a sample of the 1,728 triples that still takes each factor thrice
        cases = [(factors[i], factors[(i + 5) % 12], factors[(i + 7) % 12]) for i in range(12)]
    for case in cases:
        pairs = [(edge_bases[name][0], e) for name, e in case]
        want = _pow_product(pairs)
        assert tpke._multi_pow(pairs) == want, case
        assert tpke._fixed_pow([(edge_bases[name][1], e) for name, e in case]) == want, case


@pytest.mark.parametrize("e", [-1, tpke.Q], ids=["minus_1", "q"])
def test_multi_and_fixed_pow_reject_exponent_outside_range(edge_bases, e):
    with pytest.raises(ValueError):
        tpke._multi_pow([(tpke.G, 1), (tpke.G, e)])
    with pytest.raises(ValueError):
        tpke._fixed_pow([(edge_bases["g"][1], e)])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(["one", "p_minus_1", "g", "vk"]), st.integers(0, tpke.P - 1),
                          st.integers(0, tpke.Q - 1)),
                min_size=1, max_size=3))
def test_multi_and_fixed_pow_match_pow_everywhere(edge_bases, drawn):
    # _multi_pow on any base in [0, P); _fixed_pow on the bases that have tables.
    assert tpke._multi_pow([(base, e) for _, base, e in drawn]) == _pow_product(
        [(base, e) for _, base, e in drawn])
    assert tpke._fixed_pow([(edge_bases[name][1], e) for name, _, e in drawn]) == _pow_product(
        [(edge_bases[name][0], e) for name, _, e in drawn])


def test_key_tables_do_not_grow_with_systems():
    tpke._vk_tables.cache_clear()
    rng = random.Random(17)
    for _ in range(tpke._SYSTEM_TABLES + 2):
        system = tpke.setup(4, 2, rng=rng)
        c = tpke.encrypt(system.public, 1, rng=rng)
        assert tpke.share_verify(system.public, c, tpke.share_decrypt(system.public, system.shares[0], c))
        assert tpke._vk_tables.cache_info().currsize <= tpke._SYSTEM_TABLES
    assert [rows is not None for rows in tpke._vk_tables(system.public.vks)] == [
        True, False, False, False]


# -- share_verify and interpolate against a plain-pow reference ---------------------------


def _reference_share_verify(public, c, share):
    """share_verify with every power taken by pow."""
    p, q = tpke.P, tpke.Q
    if not 1 <= share.index <= public.n:
        return False
    if (len(share.mu), len(share.chal), len(share.resp)) != (
            tpke.GROUP_BYTES, tpke.SCALAR_BYTES, tpke.SCALAR_BYTES):
        return False
    if not tpke._cipher_ok(c):
        return False
    mu, e, z = _scalar(share.mu), _scalar(share.chal), _scalar(share.resp)
    if not (tpke._in_group(mu) and 0 < e < q and 0 <= z < q):
        return False
    vk = public.vks[share.index - 1]
    t1 = pow(tpke.G, z, p) * pow(_scalar(vk), q - e, p) % p
    t2 = pow(_scalar(c.c1), z, p) * pow(mu, q - e, p) % p
    return e == tpke._hash_to_scalar(c.c1, c.c2, c.aad, vk, share.mu,
                                     tpke._to_bytes(t1), tpke._to_bytes(t2))


def _reference_interpolate(public, c, shares):
    """interpolate with every power of a share taken by pow."""
    if len(shares) < public.threshold:
        return None
    p, q = tpke.P, tpke.Q
    mus = {s.index: _scalar(s.mu) for s in shares}
    c1s = 1
    for i in mus:
        lam = 1
        for j in mus:
            if j != i:
                lam = lam * j * pow(j - i, -1, q) % q
        c1s = c1s * pow(mus[i], lam, p) % p
    return tpke._bsgs(_scalar(c.c2) * pow(c1s, -1, p) % p, public.message_bound)


def _flip(share):
    return dataclasses.replace(share, mu=bytes([share.mu[0] ^ 1]) + share.mu[1:])


def test_share_verify_and_interpolate_match_reference(three_of_five):
    system, ciphers, shares = three_of_five
    public, n = system.public, system.public.n
    variants = {
        "valid": lambda w, s: s,
        "bitflip": lambda w, s: _flip(s),
        "wrong_index": lambda w, s: dataclasses.replace(s, index=s.index % n + 1),
        "other_cipher": lambda w, s: shares[(w + 1) % len(ciphers)][s.index - 1],
    }
    verdicts = {}
    for which, c in enumerate(ciphers):
        for kind, make in variants.items():
            made = [make(which, s) for s in shares[which]]
            for share in made:
                verdict = tpke.share_verify(public, c, share)
                assert verdict == _reference_share_verify(public, c, share), (which, kind)
                verdicts.setdefault(kind, set()).add(verdict)
            # every third k-subset: a failed search costs about 20 ms on each side
            for subset in itertools.islice(itertools.combinations(made, public.threshold), 0, None, 3):
                got = tpke.interpolate(public, c, list(subset))
                assert got == _reference_interpolate(public, c, list(subset)), (which, kind)
                if kind == "valid":
                    assert got == _PLAINTEXTS[which]
    assert verdicts == {"valid": {True}, "bitflip": {False}, "wrong_index": {False},
                        "other_cipher": {False}}


# -- one squaring chain for the powers of one base ----------------------------------------

# 0x1000...0001: a run of 62 zero digits; 15 * 16**62: a top digit of 15
_SAME_BASE_EXPONENTS = (0, 1, tpke.Q - 1, 16**63 + 1, 15 * 16**62, 0xF0F0F << 200)


@pytest.mark.parametrize("name", ["one", "p_minus_1", "g", "vk"])
def test_same_base_pow_matches_pow_on_edges(edge_bases, name):
    base = edge_bases[name][0]
    for count in (0, 1, 2):
        for exponents in itertools.product(_SAME_BASE_EXPONENTS, repeat=count):
            assert tpke._same_base_pow(base, list(exponents)) == [
                pow(base, e, tpke.P) for e in exponents], exponents


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, tpke.P - 1), st.lists(st.integers(0, tpke.Q - 1), max_size=3))
def test_same_base_pow_matches_pow_everywhere(base, exponents):
    assert tpke._same_base_pow(base, exponents) == [pow(base, e, tpke.P) for e in exponents]


@pytest.mark.parametrize("e", [-1, tpke.Q, 1 << 256], ids=["minus_1", "q", "2^256"])
def test_same_base_pow_rejects_exponent_outside_range(e):
    with pytest.raises(ValueError):
        tpke._same_base_pow(tpke.G, [1, e])


def _reference_share_decrypt(public, share, c):
    """share_decrypt with every power taken by pow."""
    if not tpke._cipher_ok(c):
        return tpke.DecryptionShare(index=share.index, mu=b"", chal=b"", resp=b"")
    p, q, s = tpke.P, tpke.Q, share.secret
    c1 = _scalar(c.c1)
    w = tpke._hash_to_scalar(s.to_bytes(tpke.SCALAR_BYTES, "big"), c.c1, c.c2, c.aad)
    mu, t1, t2 = pow(c1, s, p), pow(tpke.G, w, p), pow(c1, w, p)
    e = tpke._hash_to_scalar(c.c1, c.c2, c.aad, public.vks[share.index - 1],
                             tpke._to_bytes(mu), tpke._to_bytes(t1), tpke._to_bytes(t2))
    return tpke.DecryptionShare(index=share.index, mu=tpke._to_bytes(mu),
                                chal=e.to_bytes(tpke.SCALAR_BYTES, "big"),
                                resp=((w + e * s) % q).to_bytes(tpke.SCALAR_BYTES, "big"))


def test_share_decrypt_matches_reference(three_of_five):
    system, ciphers, shares = three_of_five
    for c, made in zip(ciphers, shares):
        for holder, share in zip(system.shares, made):
            assert share == _reference_share_decrypt(system.public, holder, c)
    bad = tpke.Ciphertext(c1=tpke._to_bytes(tpke.P - _scalar(ciphers[0].c1)), c2=ciphers[0].c2, aad=b"")
    assert tpke.share_decrypt(system.public, system.shares[0], bad) == _reference_share_decrypt(
        system.public, system.shares[0], bad)


# -- verified_shares with the caller's own share -------------------------------------------


def test_verified_shares_takes_only_an_equal_own_share_unchecked(three_of_five, verified_indices):
    system, ciphers, shares = three_of_five
    public, c, (own, second, third) = system.public, ciphers[1], shares[1][:3]
    assert tpke.verified_shares(public, c, [own, second, third], own) == [own, second, third]
    assert verified_indices == [2, 3]
    verified_indices.clear()
    flipped = dataclasses.replace(own, resp=_bump(own.resp))  # same index, not equal
    assert tpke.verified_shares(public, c, [flipped, second, own], own) == [second, own]
    assert verified_indices == [1, 2]
    verified_indices.clear()
    failure = tpke.share_decrypt(public, system.shares[0], dataclasses.replace(c, c1=b"\x00" + c.c1))
    assert tpke.verified_shares(public, c, [failure, second], failure) == [second]
    assert verified_indices == [1, 2]


# -- checking a claimed plaintext against the combined value -------------------------------


def _opens(public, c, shares, value):
    return tpke.decrypts_to(public, c, tpke.verified_shares(public, c, shares), value)


def _agrees_with_combine(system, plaintext, subsets, rng):
    public = system.public
    c = tpke.encrypt(public, plaintext, rng=rng)
    made = [tpke.share_decrypt(public, s, c) for s in system.shares]
    claims = {0, plaintext, plaintext + 1, max(plaintext - 1, 0), public.message_bound - 1}
    opened = 0
    for subset in subsets(made, public.threshold):
        recovered = tpke.combine(public, c, list(subset))
        assert recovered == plaintext
        good = tpke.verified_shares(public, c, list(subset))
        for value in claims:
            assert tpke.decrypts_to(public, c, good, value) == (recovered == value), (subset, value)
        opened += 1
    return opened


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (7, 3)])
def test_decrypts_to_agrees_with_combine_on_every_subset(n, k):
    system = tpke.setup(n, k, rng=random.Random(100 + n))
    opened = _agrees_with_combine(system, 40_321, itertools.combinations, random.Random(n))
    assert opened == math.comb(n, k)


def test_decrypts_to_agrees_with_combine_on_a_large_committee():
    system = tpke.setup(13, 5, rng=random.Random(113))
    rng = random.Random(13)

    def sample(made, k):
        return [rng.sample(made, k) for _ in range(6)] + [made[-k:]]

    assert _agrees_with_combine(system, (1 << 20) - 2, sample, rng) == 7


def test_decrypts_to_rejects_wrong_claims(three_of_five):
    system, ciphers, shares = three_of_five
    public, n = system.public, system.public.n
    c, made, m = ciphers[1], shares[1], _PLAINTEXTS[1]
    assert _opens(public, c, made, m)
    assert not _opens(public, c, made, m + 1)
    assert not _opens(public, c, made, -1)
    assert not _opens(public, c, made, m - tpke.Q)  # passes the equation, fails the range
    assert not _opens(public, c, made[:public.threshold - 1], m)
    for kind in sorted(_CORRUPTIONS):
        one_bad = [_CORRUPTIONS[kind](made[0], n)] + made[1:public.threshold]
        assert not _opens(public, c, one_bad, m), kind
    # with no proof check, a wrong mu still fails the equation
    for first in (_flip(made[0]), shares[0][0], _CORRUPTIONS["failure"](made[0], n)):
        assert not _opens(public, c, [first] + made[1:public.threshold], m)
        assert not tpke.decrypts_to(public, c, [first] + made[1:public.threshold], m)


def test_decrypts_to_rejects_the_message_bound(three_of_five):
    # a ciphertext whose plaintext is the bound itself, which encrypt refuses
    system, _, _ = three_of_five
    public, bound, r = system.public, system.public.message_bound, 123_456_789
    c = tpke.Ciphertext(c1=tpke._to_bytes(tpke._g_pow(r)), aad=b"",
                        c2=tpke._to_bytes(tpke._g_pow(bound) * pow(_scalar(public.pk), r, tpke.P) % tpke.P))
    made = [tpke.share_decrypt(public, s, c) for s in system.shares]
    assert tpke.combine(public, c, made) is None
    assert not _opens(public, c, made, bound)
    wider = dataclasses.replace(public, message_bound=bound + 1)
    assert _opens(wider, c, made, bound)  # so the range alone rejects it
