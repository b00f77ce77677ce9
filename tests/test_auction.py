"""Auctions: phases, bid evidence, threshold reveal, settlement vs. an oracle."""

import random

import pytest

from bftledger import errors, tpke
from bftledger.accounts import AccountId, CreditEffect, Transfer, execute_request
from bftledger.auction import (
    AuctionService,
    BidOpening,
    CreateAuction,
    EndOfAuctionRequest,
    EndOfAuctionStatement,
    EndOfBiddingRequest,
    EndOfBiddingStatement,
    InitAuctionEffect,
    PriceRule,
    SubmitBidRequest,
    auction_aad,
    settle_outcome,
)
from bftledger.authority import Authority
from bftledger.committee import authenticate
from bftledger.errors import ProtocolError
from bftledger.messages import EndOfBiddingMsg, SettleAuctionMsg, SubmitBidMsg

SELLER = AccountId(0)
ITEM = AccountId(1)
AUCTION = SELLER.child(0)
BIDDERS = [AccountId(i) for i in range(2, 8)]


# -- settlement pure function vs brute-force oracle --------------------------------


def oracle_settle(values, deposits, bidder_keys, rule):
    """Independent oracle: sort eligible bids and read the answer off the list."""
    eligible = [
        (v, k, i) for i, (v, d, k) in enumerate(zip(values, deposits, bidder_keys))
        if 0 < v <= d
    ]
    if not eligible:
        return None, 0
    ranked = sorted(eligible, key=lambda t: (-t[0], t[1]))  # value desc, id asc
    winner = ranked[0][2]
    if rule == PriceRule.FIRST_PRICE:
        return winner, ranked[0][0]
    return winner, (ranked[1][0] if len(ranked) > 1 else 0)


def test_second_price_example():
    values, deposits = (5, 3, 2), (10, 10, 10)
    winner, price = settle_outcome(values, deposits, PriceRule.SECOND_PRICE)
    assert (winner, price) == (0, 3)


def test_first_price_example():
    values, deposits = (5, 3, 2), (10, 10, 10)
    winner, price = settle_outcome(values, deposits, PriceRule.FIRST_PRICE)
    assert (winner, price) == (0, 5)


def test_single_bid_second_price_pays_zero():
    assert settle_outcome((5,), (10,), PriceRule.SECOND_PRICE) == (0, 0)


def test_tied_highest_goes_to_first_position():
    # callers sort by bidder id; position order is the tie rule
    assert settle_outcome((5, 5, 3), (9, 9, 9), PriceRule.SECOND_PRICE) == (0, 5)


def test_underfunded_bids_excluded():
    assert settle_outcome((9, 5), (3, 10), PriceRule.SECOND_PRICE) == (1, 0)
    assert settle_outcome((9,), (3,), PriceRule.FIRST_PRICE) == (None, 0)


@pytest.mark.parametrize("rule", [PriceRule.FIRST_PRICE, PriceRule.SECOND_PRICE])
def test_settlement_matches_oracle_500_vectors(rule):
    rng = random.Random(f"settle-{rule}")
    for _ in range(500):
        count = rng.randint(0, 6)
        values = tuple(rng.randint(0, 12) for _ in range(count))
        deposits = tuple(rng.randint(0, 12) for _ in range(count))
        keys = list(range(count))  # already in canonical bidder order
        got = settle_outcome(values, deposits, rule)
        want = oracle_settle(values, deposits, keys, rule)
        assert got == want, (values, deposits, rule)
        winner, price = got
        if winner is not None:
            assert price <= values[winner]  # never pays more than its bid


# -- auction service ------------------------------------------------------------


@pytest.fixture(scope="module")
def tpke_system():
    return tpke.setup(4, 2, rng=random.Random(99))


def make_service(harness, tpke_system, rule=PriceRule.SECOND_PRICE, share_index=0):
    seller_key = harness.keypair()
    service = AuctionService(
        harness.certified,
        tpke_public=tpke_system.public,
        tpke_share=tpke_system.shares[share_index],
    )
    creation = harness.certify(
        execute_request(SELLER, 0, CreateAuction(AUCTION, ITEM, rule))
    )
    service.init_auction(
        InitAuctionEffect(
            target=AUCTION, seller=SELLER, seller_pk=seller_key.public_key,
            item=ITEM, rule=rule, cert=creation,
        )
    )
    return service, seller_key


def make_bid(harness, tpke_system, bidder_uid, value, deposit, rng, aad=None):
    bidder_key = harness.keypair()
    proof = harness.certify(
        execute_request(bidder_uid, 0, Transfer(AUCTION, deposit))
    )
    ciphertext = tpke.encrypt(
        tpke_system.public, value, rng=rng,
        aad=auction_aad(AUCTION) if aad is None else aad,
    )
    req = SubmitBidRequest(
        auction_id=AUCTION, bidder=bidder_uid, bidder_pk=bidder_key.public_key,
        ciphertext=ciphertext, deposit=deposit, deposit_proof=proof,
    )
    return authenticate(req, bidder_key.public_key, bidder_key), bidder_key


def test_submit_bid_records_statement(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    rng = random.Random(1)
    auth, _ = make_bid(harness, tpke_system, BIDDERS[0], 7, 10, rng)
    statement = service.handle_submit_bid(auth)
    assert statement.deposit == 10 and statement.bidder == BIDDERS[0]
    assert service.handle_submit_bid(auth) == statement  # idempotent


def test_bid_rejected_after_bidding_closes(harness, tpke_system):
    service, seller_key = make_service(harness, tpke_system)
    rng = random.Random(2)
    eob = EndOfBiddingRequest(auction_id=AUCTION, bids=())
    service.handle_end_of_bidding(authenticate(eob, seller_key.public_key, seller_key))
    auth, _ = make_bid(harness, tpke_system, BIDDERS[0], 7, 10, rng)
    with pytest.raises(ProtocolError) as exc:
        service.handle_submit_bid(auth)
    assert exc.value.code == errors.WRONG_PHASE


def test_zero_deposit_rejected(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    rng = random.Random(3)
    bidder_key = harness.keypair()
    proof = harness.certify(execute_request(BIDDERS[0], 0, Transfer(AUCTION, 1)))
    ciphertext = tpke.encrypt(tpke_system.public, 5, rng=rng, aad=auction_aad(AUCTION))
    req = SubmitBidRequest(
        auction_id=AUCTION, bidder=BIDDERS[0], bidder_pk=bidder_key.public_key,
        ciphertext=ciphertext, deposit=0, deposit_proof=proof,
    )
    with pytest.raises(ProtocolError) as exc:
        service.handle_submit_bid(authenticate(req, bidder_key.public_key, bidder_key))
    assert exc.value.code == errors.BAD_EVIDENCE


def test_bid_bound_to_auction(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    rng = random.Random(4)
    auth, _ = make_bid(harness, tpke_system, BIDDERS[0], 7, 10, rng, aad=b"elsewhere")
    with pytest.raises(ProtocolError) as exc:
        service.handle_submit_bid(auth)
    assert exc.value.code == errors.BAD_EVIDENCE


def test_deposit_proof_must_match(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    rng = random.Random(5)
    bidder_key = harness.keypair()
    proof = harness.certify(execute_request(BIDDERS[0], 0, Transfer(AUCTION, 4)))
    ciphertext = tpke.encrypt(tpke_system.public, 5, rng=rng, aad=auction_aad(AUCTION))
    req = SubmitBidRequest(
        auction_id=AUCTION, bidder=BIDDERS[0], bidder_pk=bidder_key.public_key,
        ciphertext=ciphertext, deposit=9, deposit_proof=proof,  # claims 9, escrowed 4
    )
    with pytest.raises(ProtocolError) as exc:
        service.handle_submit_bid(authenticate(req, bidder_key.public_key, bidder_key))
    assert exc.value.code == errors.BAD_EVIDENCE


def test_deposit_reuse_rejected(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    rng = random.Random(6)
    bidder_key = harness.keypair()
    proof = harness.certify(execute_request(BIDDERS[0], 0, Transfer(AUCTION, 10)))
    for value, should_pass in ((7, True), (8, False)):
        ciphertext = tpke.encrypt(tpke_system.public, value, rng=rng, aad=auction_aad(AUCTION))
        req = SubmitBidRequest(
            auction_id=AUCTION, bidder=BIDDERS[0], bidder_pk=bidder_key.public_key,
            ciphertext=ciphertext, deposit=10, deposit_proof=proof,
        )
        auth = authenticate(req, bidder_key.public_key, bidder_key)
        if should_pass:
            service.handle_submit_bid(auth)
        else:
            with pytest.raises(ProtocolError) as exc:
                service.handle_submit_bid(auth)
            assert exc.value.code == errors.BAD_EVIDENCE


def test_end_of_bidding_deduplicates(harness, tpke_system):
    service, seller_key = make_service(harness, tpke_system)
    rng = random.Random(7)
    auth, _ = make_bid(harness, tpke_system, BIDDERS[0], 7, 10, rng)
    statement = service.handle_submit_bid(auth)
    bid_cert = harness.certify(statement)
    eob = EndOfBiddingRequest(auction_id=AUCTION, bids=(bid_cert, bid_cert))
    result = service.handle_end_of_bidding(
        authenticate(eob, seller_key.public_key, seller_key)
    )
    assert len(result.bids) == 1


def test_end_of_bidding_requires_seller(harness, tpke_system):
    service, _ = make_service(harness, tpke_system)
    intruder = harness.keypair()
    eob = EndOfBiddingRequest(auction_id=AUCTION, bids=())
    with pytest.raises(ProtocolError) as exc:
        service.handle_end_of_bidding(authenticate(eob, intruder.public_key, intruder))
    assert exc.value.code == errors.NOT_SELLER


def test_share_release_requires_certificate(harness, tpke_system):
    service, seller_key = make_service(harness, tpke_system)
    from bftledger.committee import Certificate
    from bftledger.auction import EndOfBiddingStatement

    fake = Certificate(value=EndOfBiddingStatement(auction_id=AUCTION, bids=()), votes=())
    with pytest.raises(ProtocolError) as exc:
        service.release_shares(fake)
    assert exc.value.code == errors.BAD_CERTIFICATE


def full_flow(harness, tpke_system, bids, rule, misreport=False):
    """Run one auction through every certified step against four services."""
    rng = random.Random("flow")
    services = []
    seller_key = None
    for i in range(4):
        service, key = make_service(harness, tpke_system, rule=rule, share_index=i)
        services.append(service)
        if seller_key is None:
            seller_key = key
        else:
            service.auctions[AUCTION].seller_pk = seller_key.public_key
    bid_certs = []
    for uid, (value, deposit) in zip(BIDDERS, bids):
        auth, _key = make_bid(harness, tpke_system, uid, value, deposit, rng)
        statements = [s.handle_submit_bid(auth) for s in services]
        assert len(set(map(repr, statements))) == 1
        bid_certs.append(harness.certify(statements[0]))
    eob_req = EndOfBiddingRequest(auction_id=AUCTION, bids=tuple(bid_certs))
    eob_auth = authenticate(eob_req, seller_key.public_key, seller_key)
    eob_statement = services[0].handle_end_of_bidding(eob_auth)
    eob_cert = harness.certify(eob_statement)
    shares_per_bid = list(zip(*[s.release_shares(eob_cert) for s in services]))
    assert services[0].release_shares(eob_cert) == services[0].release_shares(eob_cert)
    openings = []
    for i, bid_statement in enumerate(eob_statement.bids):
        value = tpke.combine(tpke_system.public, bid_statement.ciphertext, list(shares_per_bid[i]))
        assert value is not None
        if misreport and i == 0:
            value += 1
        openings.append(BidOpening(value=value, shares=tuple(shares_per_bid[i][:2])))
    eoa_req = EndOfAuctionRequest(auction_id=AUCTION, openings=tuple(openings))
    eoa_auth = authenticate(eoa_req, seller_key.public_key, seller_key)
    statement = services[0].handle_end_of_auction(eoa_auth, eob_cert)
    eoa_cert = harness.certify(statement)
    effects = services[0].apply_settlement(eoa_cert, eob_cert)
    return services[0], statement, effects


def test_full_flow_settles_second_price(harness, tpke_system):
    service, statement, effects = full_flow(
        harness, tpke_system, [(5, 10), (3, 10), (2, 10)], PriceRule.SECOND_PRICE
    )
    assert tuple(statement.values) == (5, 3, 2)
    assert AUCTION in service.settled and AUCTION not in service.auctions
    from bftledger.accounts import CreditEffect, SetOwnerEffect
    from bftledger.auction import EscrowDebitEffect

    credits = {e.target: e.update.delta for e in effects if isinstance(e, CreditEffect)}
    escrow = [e for e in effects if isinstance(e, EscrowDebitEffect)]
    owner_changes = [e for e in effects if isinstance(e, SetOwnerEffect)]
    assert escrow[0].amount == 30
    assert credits[SELLER] == 3  # second price
    assert credits[BIDDERS[0]] == 7  # winner deposit minus price
    assert credits[BIDDERS[1]] == 10 and credits[BIDDERS[2]] == 10
    assert owner_changes[0].target == ITEM
    assert sum(credits.values()) == 30  # conservation within the settlement
    # replay of the settlement is a no-op
    assert service.apply_settlement(
        harness.certify(statement), harness.certify(statement)
    ) == []


def test_full_flow_first_price(harness, tpke_system):
    service, statement, effects = full_flow(
        harness, tpke_system, [(5, 10), (3, 10)], PriceRule.FIRST_PRICE
    )
    from bftledger.accounts import CreditEffect

    credits = {e.target: e.update.delta for e in effects if isinstance(e, CreditEffect)}
    assert credits[SELLER] == 5  # first price: winner pays its own bid
    assert credits[BIDDERS[0]] == 5


def test_misreported_value_rejected(harness, tpke_system):
    with pytest.raises(ProtocolError) as exc:
        full_flow(harness, tpke_system, [(5, 10), (3, 10)], PriceRule.SECOND_PRICE,
                  misreport=True)
    assert exc.value.code == errors.DECRYPTION_MISMATCH


def test_empty_auction_settles_without_sale(harness, tpke_system):
    service, statement, effects = full_flow(harness, tpke_system, [], PriceRule.SECOND_PRICE)
    assert statement.values == ()
    assert effects == []
    assert AUCTION in service.settled


def test_certified_bid_set_replaces_the_voted_one(harness, tpke_system):
    """An authority that voted for one closed bid set settles with the set that
    the end-of-bidding certificate names, as one that never voted does, and
    never with an end-of-bidding certificate of another auction."""
    rng = random.Random(9)
    voted, other = (make_service(harness, tpke_system, share_index=i)[0] for i in range(2))
    seller_key = harness.keypair()
    for service in (voted, other):
        service.auctions[AUCTION].seller_pk = seller_key.public_key
    statements = []
    for uid in BIDDERS[:3]:
        auth, _key = make_bid(harness, tpke_system, uid, 5, 10, rng)
        statements.append(voted.handle_submit_bid(auth))
        other.handle_submit_bid(auth)
    bid0, bid1, bid2 = (harness.certify(s) for s in statements)
    eob = EndOfBiddingRequest(auction_id=AUCTION, bids=(bid0, bid1))
    voted.handle_end_of_bidding(authenticate(eob, seller_key.public_key, seller_key))
    eob_cert = harness.certify(EndOfBiddingStatement(AUCTION, (statements[0], statements[2])))
    eoa_cert = harness.certify(EndOfAuctionStatement(AUCTION, (5, 3)))
    elsewhere = harness.certify(EndOfBiddingStatement(AccountId(9), ()))
    with pytest.raises(ProtocolError) as exc:  # nor with another auction's certificate
        voted.apply_settlement(eoa_cert, elsewhere)
    assert exc.value.code == errors.BAD_CERTIFICATE
    effects = voted.apply_settlement(eoa_cert, eob_cert)
    assert effects == other.apply_settlement(eoa_cert, eob_cert)
    credited = {e.target for e in effects if isinstance(e, CreditEffect)}
    assert credited == {SELLER, BIDDERS[0], BIDDERS[2]}


# -- through Authority.handle -------------------------------------------------------


def make_authority(harness):
    """An authority holding a second-price auction with one bid of 7 on a deposit of 10."""
    authority = Authority(0, harness.signers[0], harness.committee)
    seller_key = harness.keypair()
    creation = harness.certify(
        execute_request(SELLER, 0, CreateAuction(AUCTION, ITEM, PriceRule.SECOND_PRICE)))
    authority.handle(authority.name, InitAuctionEffect(
        target=AUCTION, seller=SELLER, seller_pk=seller_key.public_key,
        item=ITEM, rule=PriceRule.SECOND_PRICE, cert=creation,
    ), 0)
    return authority, seller_key


def submit_bid(harness, tpke_system, authority):
    auth, _key = make_bid(harness, tpke_system, BIDDERS[0], 7, 10, random.Random(8))
    ((_dest, reply),), _notes = authority.handle("bidder", SubmitBidMsg(auth), 0)
    return harness.certify(reply.value)


def test_forged_end_of_auction_settles_nothing(harness, tpke_system, forgery):
    authority, _seller_key = make_authority(harness)
    bid = submit_bid(harness, tpke_system, authority)
    eob_cert = harness.certify(EndOfBiddingStatement(AUCTION, (bid.value,)))
    statement = EndOfAuctionStatement(AUCTION, (7,))
    forged = harness.forge(statement, forgery, EndOfAuctionStatement(AUCTION, (8,)))
    outputs, _notes = authority.handle("seller", SettleAuctionMsg(forged, eob_cert), 0)
    assert [(dest, getattr(p, "code", None)) for dest, p in outputs] == [
        ("seller", errors.BAD_CERTIFICATE)]
    assert AUCTION in authority.auctions.auctions and AUCTION not in authority.auctions.settled
    outputs, _notes = authority.handle("seller", SettleAuctionMsg(harness.certify(statement), eob_cert), 0)
    assert any(isinstance(p, CreditEffect) for _dest, p in outputs)
    assert AUCTION in authority.auctions.settled


def test_snapshot_of_a_live_auction(harness, tpke_system):
    """While bidding, after closing, and once settled."""
    authority, seller_key = make_authority(harness)
    bid = submit_bid(harness, tpke_system, authority)
    header = "# authority 0 snapshot v1\n\n"
    block = "[auction 0:0]\nseller: 0\nitem: 1\nrule: SECOND_PRICE\nphase: {}\nbids: 1\n"
    assert authority.snapshot() == header + block.format("BIDDING")
    eob = EndOfBiddingRequest(auction_id=AUCTION, bids=(bid,))
    authority.handle("seller", EndOfBiddingMsg(authenticate(eob, seller_key.public_key, seller_key)), 0)
    assert authority.snapshot() == header + block.format("REVEALING")
    eob_cert = harness.certify(EndOfBiddingStatement(AUCTION, (bid.value,)))
    eoa_cert = harness.certify(EndOfAuctionStatement(AUCTION, (7,)))
    authority.handle("seller", SettleAuctionMsg(eoa_cert, eob_cert), 0)
    assert authority.snapshot() == header + "[auction-settled 0:0]\n"
