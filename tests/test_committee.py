"""Votes, quorum certificates, and request authentication."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftledger.committee as committee_module
import bftledger.wire  # noqa: F401
from bftledger import errors, keys, serialize
from bftledger.accounts import AccountId, Transfer, execute_request
from bftledger.authority import Authority
from bftledger.committee import (
    Authenticated,
    Certificate,
    Committee,
    Vote,
    aggregate_certificate,
    authenticate,
    check_authenticated,
    check_certificate,
    check_certificate_once,
    make_vote,
    value_digest,
)
from bftledger.errors import ProtocolError
from bftledger.messages import ConfirmMsg


@pytest.fixture
def committee4():
    rng = random.Random(11)
    signers = [keys.mac_keypair(rng) for _ in range(4)]
    return Committee(tuple(s.public_key for s in signers)), signers


def _value(n=0):
    return execute_request(AccountId(0), n, Transfer(AccountId(1), 5))


def test_committee_shape():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        Committee(tuple(keys.mac_keypair(rng).public_key for _ in range(3)))
    with pytest.raises(ValueError):
        Committee(tuple(keys.mac_keypair(rng).public_key for _ in range(5)))
    k = keys.mac_keypair(rng).public_key
    with pytest.raises(ValueError):
        Committee((k, k, k, k))
    c = Committee(tuple(keys.mac_keypair(rng).public_key for _ in range(7)))
    assert (c.n, c.f, c.quorum) == (7, 2, 5)


def test_three_of_four_votes_certify(committee4):
    committee, signers = committee4
    value = _value()
    votes = [make_vote(i, signers[i], value) for i in range(3)]
    cert = aggregate_certificate(committee, value, votes)
    assert len(cert.votes) == 3
    assert check_certificate(committee, cert)


def test_duplicate_votes_do_not_count(committee4):
    committee, signers = committee4
    value = _value()
    v0 = make_vote(0, signers[0], value)
    v1 = make_vote(1, signers[1], value)
    with pytest.raises(ProtocolError) as exc:
        aggregate_certificate(committee, value, [v0, v0, v1])
    assert exc.value.code == "QuorumNotReached"


def test_tampered_payload_vote_dropped(committee4):
    committee, signers = committee4
    value = _value()
    votes = [make_vote(i, signers[i], value) for i in range(3)]
    bad = Vote(signer=2, payload_digest=value_digest(_value(9)), sig=votes[2].sig)
    with pytest.raises(ProtocolError) as exc:
        aggregate_certificate(committee, value, [votes[0], votes[1], bad])
    assert exc.value.code == "QuorumNotReached"


def test_check_certificate_threshold(committee4):
    committee, signers = committee4
    value = _value()
    votes = tuple(make_vote(i, signers[i], value) for i in range(2))
    assert not check_certificate(committee, Certificate(value=value, votes=votes))


def test_check_certificate_mutated_value(committee4):
    committee, signers = committee4
    value = _value()
    votes = tuple(make_vote(i, signers[i], value) for i in range(3))
    assert not check_certificate(committee, Certificate(value=_value(1), votes=votes))


# True == 1 and hash(True) == hash(1), so a digest looked up by equality would
# hand Transfer(d, True) the digest of Transfer(d, 1). The codec rejects a bool
# where an int is declared, so the bool version must stay undigestible and
# uncertifiable whatever was digested before it.


@pytest.mark.parametrize("int_first", [False, True], ids=["cold", "after_int"])
def test_bool_for_int_never_digests(int_first):
    as_int = Transfer(AccountId(1), 1)
    expected = keys.digest32(serialize.encode(as_int))
    if int_first:
        assert value_digest(as_int) == expected
    with pytest.raises(serialize.EncodingError):
        value_digest(Transfer(AccountId(1), True))
    assert value_digest(as_int) == expected


@pytest.mark.parametrize("genuine_first", [False, True], ids=["forged_first", "genuine_first"])
def test_certificate_with_bool_for_int_rejected(committee4, genuine_first):
    committee, signers = committee4
    genuine = execute_request(AccountId(0), 77, Transfer(AccountId(1), 1))
    forged = execute_request(AccountId(0), 77, Transfer(AccountId(1), True))
    assert forged == genuine
    d = keys.digest32(serialize.encode(genuine))  # bypasses value_digest
    votes = tuple(Vote(signer=i, payload_digest=d, sig=signers[i].sign(d)) for i in range(3))
    checks = [(forged, False), (genuine, True)]
    for value, accepted in checks[::-1] if genuine_first else checks:
        assert check_certificate(committee, Certificate(value=value, votes=votes)) is accepted


def test_digest_cache_clear_makes_stored_digests_stale():
    value = _value(3)
    value_digest.cache_clear()
    first = value_digest(value)
    assert value_digest(value) is first
    assert value_digest.cache_info() == (1, 1, None, 1)
    value_digest.cache_clear()
    assert value_digest(value) == first
    assert value_digest.cache_info() == (0, 1, None, 1)


def test_revote_is_identical(committee4):
    _, signers = committee4
    value = _value()
    assert make_vote(2, signers[2], value) == make_vote(2, signers[2], value)


def test_authenticated_roundtrip(committee4):
    _, signers = committee4
    owner = keys.mac_keypair(random.Random(5))
    value = _value()
    auth = authenticate(value, owner.public_key, owner)
    assert check_authenticated(auth)
    assert check_authenticated(auth, expected_pk=owner.public_key)
    assert not check_authenticated(auth, expected_pk=signers[0].public_key)
    forged = Authenticated(payload=_value(1), pk=auth.pk, sig=auth.sig)
    assert not check_authenticated(forged)


def test_ed25519_scheme_interchangeable():
    rng = random.Random(3)
    signers = [keys.ed25519_keypair(rng) for _ in range(4)]
    committee = Committee(tuple(s.public_key for s in signers))
    value = _value()
    votes = [make_vote(i, signers[i], value) for i in range(4)]
    cert = aggregate_certificate(committee, value, votes)
    assert check_certificate(committee, cert)
    bad = Vote(signer=0, payload_digest=votes[0].payload_digest, sig=b"\x00" * 64)
    assert not check_certificate(committee, Certificate(value=value, votes=(bad,) + cert.votes[1:]))


def test_mac_verify_rejects_wrong_key():
    rng = random.Random(9)
    a, b = keys.mac_keypair(rng), keys.mac_keypair(rng)
    digest = keys.digest32(b"payload")
    assert keys.verify(a.public_key, digest, a.sign(digest))
    assert not keys.verify(b.public_key, digest, a.sign(digest))
    assert not keys.verify(a.public_key, digest, a.sign(digest)[:-1] + b"\x00")


@settings(max_examples=60, deadline=None)
@given(
    subset=st.sets(st.integers(0, 3), min_size=3),
    n=st.integers(0, 40),
    value=st.integers(1, 1000),
)
def test_aggregate_check_roundtrip_fuzz(subset, n, value):
    rng = random.Random(7)
    signers = [keys.mac_keypair(rng) for _ in range(4)]
    committee = Committee(tuple(s.public_key for s in signers))
    statement = execute_request(AccountId(0), n, Transfer(AccountId(1), value))
    votes = [make_vote(i, signers[i], statement) for i in sorted(subset)]
    cert = aggregate_certificate(committee, statement, votes)
    assert check_certificate(committee, cert)


# -- one verification per (authority, certificate) ---------------------------------


def _confirm(authority, cert):
    (_dest, reply), = [out for out in authority.handle("client", ConfirmMsg(cert), 0)[0]
                       if out[0] == "client"]
    return reply


def test_verified_set_never_changes_a_verdict(harness):
    committee = harness.committee
    authority = Authority(0, harness.signers[0], committee)
    value = execute_request(AccountId(0), 0, Transfer(AccountId(1), 1))
    cert = harness.certify(value)
    assert getattr(_confirm(authority, cert), "code", None) != errors.BAD_CERTIFICATE
    assert authority.verified == {value_digest(cert)}

    first, *rest = cert.votes
    forged = execute_request(AccountId(0), 0, Transfer(AccountId(1), True))
    assert forged == value  # equal, yet it does not encode
    variants = {
        "same bytes": Certificate(dataclasses.replace(value), tuple(cert.votes)),
        "flipped signature": Certificate(value, (
            dataclasses.replace(first, sig=bytes([first.sig[0] ^ 1]) + first.sig[1:]), *rest)),
        "signer changed": Certificate(value, (dataclasses.replace(first, signer=3), *rest)),
        "votes over another value": Certificate(_value(1), cert.votes),
        "duplicated signer": Certificate(value, (*cert.votes, first)),
        "bool for an int": Certificate(forged, cert.votes),
    }
    for name, variant in variants.items():
        expected = check_certificate(committee, variant)
        assert expected is (name == "same bytes"), name
        assert check_certificate_once(committee, variant, authority.verified) is expected, name
        rejected = _confirm(authority, variant)
        assert (getattr(rejected, "code", None) == errors.BAD_CERTIFICATE) is not expected, name
    assert authority.verified == {value_digest(cert)}  # failures are never kept


def test_each_authority_verifies_for_itself(harness, monkeypatch):
    """auth:1 checks every vote of a certificate that auth:0 has accepted; auth:0
    checks none a second time."""
    authorities = [Authority(i, harness.signers[i], harness.committee) for i in range(2)]
    cert = harness.certify(_value())
    calls = []
    real_verify = committee_module.verify
    monkeypatch.setattr(committee_module, "verify",
                        lambda *args: calls.append(args) or real_verify(*args))
    quorum = harness.committee.quorum
    for authority, total in zip(authorities * 2, (quorum, 2 * quorum, 2 * quorum, 2 * quorum)):
        _confirm(authority, cert)
        assert len(calls) == total, authority.name
