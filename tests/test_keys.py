"""The MAC scheme: HMAC-SHA256 from cached key pads, and verify's verdicts."""

import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftledger import keys


def reference_verify(public_key, digest, sig):
    """``keys.verify`` as it was written with ``hmac.digest``."""
    if len(digest) != keys.DIGEST_LEN or not public_key:
        return False
    scheme, material = public_key[:1], public_key[1:]
    if scheme == b"m":
        return hmac.compare_digest(hmac.digest(material, digest, "sha256"), sig)
    if scheme == b"e":
        return keys.verify(public_key, digest, sig)  # the ed25519 path is unchanged
    return False


# Around the 64-byte block: a longer key is hashed first, a shorter one padded.
@pytest.mark.parametrize("length", [0, 1, 16, 63, 64, 65, 200])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data(), digest=st.binary(min_size=32, max_size=32))
def test_mac_equals_hmac_digest(length, data, digest):
    key = data.draw(st.binary(min_size=length, max_size=length))
    want = hmac.digest(key, digest, "sha256")
    assert keys.MacSigner(key).sign(digest) == want
    assert keys.verify(keys.MacSigner(key).public_key, digest, want)


def test_verify_keeps_its_verdicts():
    rng = random.Random(5)
    digest = keys.digest32(b"payload")
    mac, ed = keys.mac_keypair(rng), keys.ed25519_keypair(rng)
    mac_sig, ed_sig = mac.sign(digest), ed.sign(digest)
    empty_key_sig = hmac.digest(b"", digest, "sha256")
    flipped = bytes([mac_sig[0] ^ 1]) + mac_sig[1:]
    cases = [
        (mac.public_key, digest, mac_sig),
        (mac.public_key, digest, flipped),
        (mac.public_key, digest[:31], mac_sig),
        (b"", digest, mac_sig),
        (b"m", digest, empty_key_sig),
        (b"m", digest, mac_sig),
        (b"x" + mac.secret, digest, mac_sig),
        (ed.public_key, digest, ed_sig),
        (ed.public_key, digest, ed_sig[:-1] + bytes([ed_sig[-1] ^ 1])),
    ]
    verdicts = [keys.verify(*case) for case in cases]
    assert verdicts == [reference_verify(*case) for case in cases]
    assert verdicts == [True, False, False, False, True, False, False, True, False]


def test_pad_cache_stays_bounded():
    rng = random.Random(6)
    digest = keys.digest32(b"payload")
    for _ in range(4 * keys.PAD_CACHE_SIZE):
        signer = keys.mac_keypair(rng)
        assert keys.verify(signer.public_key, digest, signer.sign(digest))
    assert keys._pads.cache_info().currsize <= keys.PAD_CACHE_SIZE
