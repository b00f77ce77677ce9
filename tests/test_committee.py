"""Votes, quorum certificates, and request authentication."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftledger.committee as committee_module
import bftledger.wire  # noqa: F401
from bftledger import errors, keys, serialize, tpke
from bftledger.accounts import (AccountId, ChangeKey, InitAccountEffect, LockInto, Transfer,
                                execute_request, lock_request)
from bftledger.assets import (AssetBinding, AssetCertifyRequest, Spend, TransmuteRequest,
                              derive_outputs, spend_commitment)
from bftledger.auction import (BidStatement, CreateAuction, EndOfAuctionRequest,
                               EndOfAuctionStatement, EndOfBiddingRequest, EndOfBiddingStatement,
                               InitAuctionEffect, PriceRule, SubmitBidRequest, auction_aad)
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
from bftledger.messages import (CertifyAssetMsg, CommitMsg, ConfirmMsg, EndOfAuctionMsg,
                                EndOfBiddingMsg, ErrorReply, HandleRequestMsg, PreCommitMsg,
                                ProposalMsg, SettleAuctionMsg, SharesQueryMsg, SubmitBidMsg,
                                TransmuteMsg)
from bftledger.swap import (CommitStatement, DecisionValue, InitInstanceEffect,
                            PreCommitStatement, Proposal)


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


def test_authenticated_roundtrip():
    owner = keys.mac_keypair(random.Random(5))
    value = _value()
    auth = authenticate(value, owner.public_key, owner)
    assert check_authenticated(auth)
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


# -- every certificate path refuses a bad certificate -------------------------------

ID1, ID2, BIDDER = AccountId(0), AccountId(1), AccountId(5)
SWID = AccountId(2, (0,))
SELLER, ITEM = AccountId(3), AccountId(4)
AUCTION = SELLER.child(0)


def _paths(harness, system):
    """Each certificate path of ``Authority.handle``: name -> (the refusal's code,
    two values of the kind it takes, a value of another kind, the message that
    carries a certificate ``c`` there with every earlier check passing)."""
    owner, bidder, seller = harness.keypair(), harness.keypair(), harness.keypair()
    ciphertext = tpke.encrypt(system.public, 3, rng=random.Random(1), aad=auction_aad(AUCTION))
    bid = BidStatement(AUCTION, BIDDER, bidder.public_key, ciphertext, 5, b"d" * 32)
    request = execute_request(ID1, 0, Transfer(ID2, 1))
    proposal = Proposal(SWID, 0, DecisionValue.ABORT)
    asset = AssetBinding(ID1, 0, b"x")
    eob = EndOfBiddingStatement(AUCTION, ())
    eoa = EndOfAuctionStatement(AUCTION, ())
    spend = execute_request(ID1, 0, Spend(spend_commitment(b"p")))
    return {
        "ConfirmMsg": (errors.BAD_CERTIFICATE, request, _value(1), asset, ConfirmMsg),
        "PreCommitMsg": (errors.BAD_CERTIFICATE, PreCommitStatement(proposal),
                         PreCommitStatement(Proposal(SWID, 1, DecisionValue.ABORT)),
                         CommitStatement(proposal), PreCommitMsg),
        "CommitMsg": (errors.BAD_CERTIFICATE, CommitStatement(proposal),
                      CommitStatement(Proposal(SWID, 1, DecisionValue.ABORT)),
                      PreCommitStatement(proposal), lambda c: CommitMsg(c, None, None)),
        "ProposalMsg": (errors.BAD_LOCK_CERT, lock_request(ID1, 1, LockInto(SWID, 1, owner.public_key)),
                        lock_request(ID1, 1, LockInto(SWID, 1, bidder.public_key)),
                        PreCommitStatement(proposal),
                        lambda c: ProposalMsg(authenticate(proposal, owner.public_key, owner), c, None)),
        "SubmitBidMsg": (errors.BAD_EVIDENCE, execute_request(BIDDER, 0, Transfer(AUCTION, 5)),
                         execute_request(BIDDER, 1, Transfer(AUCTION, 5)), asset,
                         lambda c: SubmitBidMsg(authenticate(SubmitBidRequest(
                             AUCTION, BIDDER, bidder.public_key, ciphertext, 5, c),
                             bidder.public_key, bidder))),
        "EndOfBiddingMsg": (errors.BAD_BID_CERT, bid, dataclasses.replace(bid, deposit=6), request,
                            lambda c: EndOfBiddingMsg(authenticate(
                                EndOfBiddingRequest(AUCTION, (c,)), seller.public_key, seller))),
        "SharesQueryMsg": (errors.BAD_CERTIFICATE, eob, EndOfBiddingStatement(AUCTION, (bid,)), eoa,
                           SharesQueryMsg),
        "EndOfAuctionMsg": (errors.BAD_CERTIFICATE, eob, EndOfBiddingStatement(AUCTION, (bid,)), eoa,
                            lambda c: EndOfAuctionMsg(authenticate(
                                EndOfAuctionRequest(AUCTION, ()), seller.public_key, seller), c)),
        "SettleAuctionMsg": (errors.BAD_CERTIFICATE, eoa, EndOfAuctionStatement(AUCTION, (0,)), eob,
                             lambda c: SettleAuctionMsg(c, harness.certify(eob))),
        "TransmuteMsg": (errors.BAD_CERTIFICATE, asset, AssetBinding(ID1, 0, b"y"), spend,
                         lambda c: TransmuteMsg(TransmuteRequest(
                             "identity", b"p", (authenticate(spend, owner.public_key, owner),),
                             (c,), (ID1.child(0).child(0),)))),
    }, seller


PATHS = ("ConfirmMsg", "PreCommitMsg", "CommitMsg", "ProposalMsg", "SubmitBidMsg",
         "EndOfBiddingMsg", "SharesQueryMsg", "EndOfAuctionMsg", "SettleAuctionMsg", "TransmuteMsg")
BAD = ("another_kind", "too_few_signers", "votes_over_another_value")


@pytest.fixture(scope="module")
def tpke_system():
    return tpke.setup(4, 2, rng=random.Random(99))


@pytest.mark.parametrize("path,bad", [(path, bad) for path in PATHS for bad in BAD]
                         + [(path, "of_another_auction") for path in ("EndOfBiddingMsg", "EndOfAuctionMsg")])
def test_every_certificate_path_refuses_a_bad_certificate(harness, tpke_system, path, bad):
    """A valid certificate of another kind, a forged one of the right kind, and
    (for a bid or a closed bid set) a valid one of another auction are each
    refused with the path's code, leaving the authority as it was; a genuine
    one gets past that check."""
    paths, seller = _paths(harness, tpke_system)
    code, value, other, wrong, message = paths[path]
    authority = Authority(0, harness.signers[0], harness.committee,
                          tpke_public=tpke_system.public, tpke_share=tpke_system.shares[0])
    creation = harness.certify(execute_request(SELLER, 0, CreateAuction(AUCTION, ITEM, PriceRule.SECOND_PRICE)))
    for effect in (InitInstanceEffect(SWID, ID1, 1, ID2, 0, creation),
                   InitAuctionEffect(AUCTION, SELLER, seller.public_key, ITEM, PriceRule.SECOND_PRICE, creation)):
        authority.handle(authority.name, effect, 0)
    snapshot, verified = authority.snapshot(), set(authority.verified)

    if bad == "another_kind":
        cert = harness.certify(wrong)
    elif bad == "of_another_auction":
        cert = harness.certify(dataclasses.replace(value, auction_id=SELLER.child(1)))
        verified.add(value_digest(cert))  # valid, so it may be kept
    else:
        cert = harness.forge(value, "few" if bad == "too_few_signers" else "other", other)
    outputs, _notes = authority.handle("client", message(cert), 0)
    assert [(dest, type(reply), reply.code) for dest, reply in outputs] == [("client", ErrorReply, code)]
    assert authority.snapshot() == snapshot
    assert authority.verified <= verified
    outputs, _notes = authority.handle("client", message(harness.certify(value)), 0)
    assert getattr(outputs[-1][1], "code", None) != code


# -- every owner-signed path refuses a bad signature --------------------------------


class OwnerSetup:
    """An authority that holds ``owner``'s account ID1, the receive-only account
    ID2, the swap instance SWID and ``seller``'s auction AUCTION, all through
    ``Authority.handle``; and the values that reach each of its owner-signed
    paths."""

    def __init__(self, harness, system):
        self.owner, self.bidder, self.seller = harness.keypair(), harness.keypair(), harness.keypair()
        self.authority = Authority(0, harness.signers[0], harness.committee,
                                   tpke_public=system.public, tpke_share=system.shares[0])
        creation = harness.certify(execute_request(SELLER, 0, CreateAuction(AUCTION, ITEM, PriceRule.SECOND_PRICE)))
        for effect in (InitAccountEffect(ID1, self.owner.public_key, creation),
                       InitAccountEffect(ID2, None, creation),
                       InitInstanceEffect(SWID, ID1, 1, ID2, 0, creation),
                       InitAuctionEffect(AUCTION, SELLER, self.seller.public_key, ITEM,
                                         PriceRule.SECOND_PRICE, creation)):
            self.authority.handle(self.authority.name, effect, 0)
        ciphertext = tpke.encrypt(system.public, 3, rng=random.Random(1), aad=auction_aad(AUCTION))
        self.bid = harness.certify(BidStatement(AUCTION, BIDDER, self.bidder.public_key, ciphertext, 5, b"d" * 32))
        self.submission = SubmitBidRequest(AUCTION, BIDDER, self.bidder.public_key, ciphertext, 5,
                                           harness.certify(execute_request(BIDDER, 0, Transfer(AUCTION, 5))))
        self.lock = harness.certify(lock_request(ID1, 1, LockInto(SWID, 1, self.owner.public_key)))
        self.spend = execute_request(ID1, 0, Spend(spend_commitment(b"p")))
        self.input = harness.certify(AssetBinding(ID1, 0, b"x"))

    def sign(self, payload, keypair):
        return authenticate(payload, keypair.public_key, keypair)

    def handle(self, message):
        """The one reply to ``message``."""
        (_dest, reply), = [out for out in self.authority.handle("client", message, 0)[0]
                          if out[0] == "client"]
        return reply

    def transmute(self, spend):
        return TransmuteMsg(TransmuteRequest("identity", b"p", (spend,), (self.input,),
                                             derive_outputs(self.spend, 1)))


def _owner_paths(setup, harness):
    """Each owner-signed path of ``Authority.handle``: name -> (the code that a
    valid signature by another key gets, the key pair the path expects, the
    payload it takes, a payload of another kind, the message that carries a
    signed payload ``a`` there with every other check passing, and the
    messages that prepare the authority for it)."""
    owner, bidder, seller = setup.owner, setup.bidder, setup.seller
    request = execute_request(ID1, 0, ChangeKey(bidder.public_key))
    binding = AssetCertifyRequest(ID1, 0, b"x")
    end_of_bidding, end_of_auction = EndOfBiddingRequest(AUCTION, ()), EndOfAuctionRequest(AUCTION, ())
    eob = harness.certify(EndOfBiddingStatement(AUCTION, ()))
    # A Confirm with one lock is refused after the lock is kept, so side 1 holds the owner key.
    keep_lock = ProposalMsg(setup.sign(Proposal(SWID, 0, DecisionValue.CONFIRM), owner), setup.lock, None)
    return {
        "HandleRequestMsg": (errors.BAD_AUTH, owner, request, binding, HandleRequestMsg, ()),
        "CertifyAssetMsg": (errors.BAD_AUTH, owner, binding, request, CertifyAssetMsg, ()),
        "ProposalMsg": (errors.NOT_A_LOCKED_OWNER, owner, Proposal(SWID, 0, DecisionValue.ABORT), request,
                        lambda a: ProposalMsg(a, None, None), (keep_lock,)),
        "SubmitBidMsg": (errors.BAD_AUTH, bidder, setup.submission, end_of_bidding, SubmitBidMsg, ()),
        "EndOfBiddingMsg": (errors.NOT_SELLER, seller, end_of_bidding, end_of_auction, EndOfBiddingMsg, ()),
        "EndOfAuctionMsg": (errors.NOT_SELLER, seller, end_of_auction, end_of_bidding,
                            lambda a: EndOfAuctionMsg(a, eob), (SharesQueryMsg(eob),)),
        "TransmuteMsg": (errors.BAD_AUTH, owner, setup.spend, binding, setup.transmute, ()),
    }


OWNER_PATHS = ("HandleRequestMsg", "CertifyAssetMsg", "ProposalMsg", "SubmitBidMsg",
               "EndOfBiddingMsg", "EndOfAuctionMsg", "TransmuteMsg")


@pytest.mark.parametrize("path,bad", [(path, bad) for path in OWNER_PATHS
                                      for bad in ("another_kind", "flipped_signature", "another_key")])
def test_every_owner_signed_path_refuses_a_bad_signature(harness, tpke_system, path, bad):
    """A payload of another kind signed by the expected key, the right payload
    with one signature byte flipped, and the right payload validly signed by
    another key are each refused, leaving the authority as it was; the genuine
    message is then accepted."""
    setup = OwnerSetup(harness, tpke_system)
    other_key_code, keypair, payload, other, message, before = _owner_paths(setup, harness)[path]
    for prepare in before:
        setup.handle(prepare)
    snapshot = setup.authority.snapshot()

    if bad == "another_kind":
        auth, code = setup.sign(other, keypair), errors.BAD_AUTH
    elif bad == "flipped_signature":
        auth = setup.sign(payload, keypair)
        auth, code = dataclasses.replace(auth, sig=bytes([auth.sig[0] ^ 1]) + auth.sig[1:]), errors.BAD_AUTH
    else:
        auth, code = setup.sign(payload, harness.keypair()), other_key_code
    reply = setup.handle(message(auth))
    assert (type(reply), reply.code) == (ErrorReply, code)
    assert setup.authority.snapshot() == snapshot
    assert type(setup.handle(message(setup.sign(payload, keypair)))) is not ErrorReply


# -- refusals that only a forged or malformed message reaches -----------------------


def _named_refusals(setup, harness):
    """name -> (code, the messages that prepare the authority, the message it refuses)."""
    seller, owner = setup.seller, setup.owner
    closed = harness.certify(EndOfBiddingStatement(AUCTION, (setup.bid.value,)))
    close_empty = EndOfBiddingMsg(setup.sign(EndOfBiddingRequest(AUCTION, ()), seller))
    return {
        # An equivocating seller asks to close the auction on a second bid set.
        "second_bid_set": (errors.WRONG_PHASE, (close_empty,), EndOfBiddingMsg(
            setup.sign(EndOfBiddingRequest(AUCTION, (setup.bid,)), seller))),
        "fewer_openings_than_bids": (errors.DECRYPTION_MISMATCH, (SharesQueryMsg(closed),), EndOfAuctionMsg(
            setup.sign(EndOfAuctionRequest(AUCTION, ()), seller), closed)),
        "confirmation_on_a_receive_only_account": (errors.INACTIVE_ACCOUNT, (), ConfirmMsg(
            harness.certify(execute_request(ID2, 0, ChangeKey(b"k"))))),
        "binding_at_another_sequence": (errors.SEQUENCE_MISMATCH, (), CertifyAssetMsg(
            setup.sign(AssetCertifyRequest(ID1, 1, b"x"), owner))),
        "transmute_of_another_request": (errors.BAD_VALUE, (), TransmuteMsg(setup.spend)),
    }


NAMED_REFUSALS = ("second_bid_set", "fewer_openings_than_bids", "confirmation_on_a_receive_only_account",
                  "binding_at_another_sequence", "transmute_of_another_request")


@pytest.mark.parametrize("case", NAMED_REFUSALS)
def test_malformed_message_gets_its_refusal(harness, tpke_system, case):
    """Each is refused with its code, leaving the authority as it was."""
    setup = OwnerSetup(harness, tpke_system)
    code, before, message = _named_refusals(setup, harness)[case]
    for prepare in before:
        assert type(setup.handle(prepare)) is not ErrorReply
    snapshot = setup.authority.snapshot()
    reply = setup.handle(message)
    assert (type(reply), reply.code) == (ErrorReply, code)
    assert setup.authority.snapshot() == snapshot
