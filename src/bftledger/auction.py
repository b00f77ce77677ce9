"""Sealed-bid first/second-price auctions with threshold-encrypted bids.

Bids are encrypted to the committee's threshold key and backed by a deposit
escrowed in a receive-only account sharing the auction's UID. The seller
drives three certified steps: closing the bid set, collecting decryption
shares from authorities, and publishing the decrypted values. Settlement is
then a deterministic function of certified data, executed independently by
every authority: the highest eligible bid wins, pays its own bid
(first-price) or the runner-up bid (second-price) out of its deposit, the
item account's owner key moves to the winner, and all remaining deposits are
returned.

A bid is eligible only when its deposit covers it; underfunded bids are
excluded at settlement and refunded in full. Ties on the winning value go to
the smallest bidder id; a tied runner-up value is used as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional

from . import errors, serialize, tpke
from .accounts import (
    AccountId,
    CreditEffect,
    EscrowDebitEffect,
    Request,
    SetOwnerEffect,
    Transfer,
    check_derived_id,
    operation,
)
from .algebra import ScalarUpdate
from .committee import Authenticated, Certificate, check_authenticated, value_digest
from .errors import err


class PriceRule(IntEnum):
    FIRST_PRICE = 0
    SECOND_PRICE = 1


@dataclass(frozen=True)
class CreateAuction:
    """Account operation: open an auction object at id::n for an owned item."""

    auction_id: AccountId
    item: AccountId
    rule: PriceRule


@dataclass(frozen=True)
class InitAuctionEffect:
    target: AccountId
    seller: AccountId
    seller_pk: bytes
    item: AccountId
    rule: PriceRule
    cert: Certificate


@dataclass(frozen=True)
class SubmitBidRequest:
    auction_id: AccountId
    bidder: AccountId
    bidder_pk: bytes  # key the item is handed to on a win; chosen by the bidder
    ciphertext: tpke.Ciphertext
    deposit: int
    deposit_proof: Certificate  # certified escrow transfer


@dataclass(frozen=True)
class BidStatement:
    auction_id: AccountId
    bidder: AccountId
    bidder_pk: bytes
    ciphertext: tpke.Ciphertext
    deposit: int
    deposit_digest: bytes


@dataclass(frozen=True)
class EndOfBiddingRequest:
    auction_id: AccountId
    bids: tuple[Certificate, ...]  # submission certificates chosen by the seller


@dataclass(frozen=True)
class EndOfBiddingStatement:
    auction_id: AccountId
    bids: tuple[BidStatement, ...]


@dataclass(frozen=True)
class BidOpening:
    value: int
    shares: tuple[tpke.DecryptionShare, ...]


@dataclass(frozen=True)
class EndOfAuctionRequest:
    auction_id: AccountId
    openings: tuple[BidOpening, ...]  # aligned with the certified bid set


@dataclass(frozen=True)
class EndOfAuctionStatement:
    auction_id: AccountId
    values: tuple[int, ...]


@dataclass
class AuctionState:
    seller: AccountId
    seller_pk: bytes
    item: AccountId
    rule: PriceRule
    bids: dict[bytes, BidStatement] = field(default_factory=dict)  # by deposit digest
    included: Optional[tuple[BidStatement, ...]] = None  # the closed bid set; None while bidding
    # this authority's released decryption share of each bid, by ciphertext
    released: dict[tpke.Ciphertext, tpke.DecryptionShare] = field(default_factory=dict)


def auction_aad(auction_id: AccountId) -> bytes:
    """Context bytes every bid ciphertext must be bound to."""
    return serialize.encode_as(AccountId, auction_id)


def bid_statement(req: SubmitBidRequest) -> BidStatement:
    """The statement a bid certificate is made of; bids are keyed by the
    digest of their deposit proof's value."""
    return BidStatement(
        auction_id=req.auction_id, bidder=req.bidder, bidder_pk=req.bidder_pk,
        ciphertext=req.ciphertext, deposit=req.deposit,
        deposit_digest=value_digest(req.deposit_proof.value),
    )


def settle_outcome(values: tuple[int, ...], deposits: tuple[int, ...], rule: PriceRule):
    """Winner index and price, or (None, 0) when no bid is eligible.

    Scans for the maximum eligible bid (deposit covers value), breaking ties
    by position; callers pass bids pre-sorted by bidder id so the tie rule is
    canonical.
    """
    eligible = [i for i, (v, d) in enumerate(zip(values, deposits)) if 0 < v <= d]
    if not eligible:
        return None, 0
    winner = eligible[0]
    for i in eligible[1:]:
        if values[i] > values[winner]:
            winner = i
    if rule == PriceRule.FIRST_PRICE:
        return winner, values[winner]
    runner_up = 0
    for i in eligible:
        if i != winner and values[i] > runner_up:
            runner_up = values[i]
    return winner, runner_up


class AuctionService:
    """One authority's auction objects: bid sets and settlement. An auction is
    bidding until it holds a closed bid set, which the seller's end-of-bidding
    request proposes and its certificate fixes. Every certificate handed in is
    checked with ``certified``, the authority's verdict on a certificate."""

    def __init__(self, certified: Callable[[Certificate], bool],
                 tpke_public: Optional[tpke.TpkePublic] = None,
                 tpke_share: Optional[tpke.TpkeShare] = None):
        self.certified = certified
        self.tpke_public = tpke_public
        self.tpke_share = tpke_share
        self.auctions: dict[AccountId, AuctionState] = {}
        self.settled: set[AccountId] = set()

    def init_auction(self, eff: InitAuctionEffect) -> None:
        if eff.target in self.auctions or eff.target in self.settled:
            return
        self.auctions[eff.target] = AuctionState(
            seller=eff.seller, seller_pk=eff.seller_pk, item=eff.item, rule=eff.rule
        )

    def _get(self, auction_id: AccountId) -> AuctionState:
        auction = self.auctions.get(auction_id)
        if auction is None:
            raise err(errors.UNKNOWN_AUCTION, str(auction_id))
        return auction

    # -- bidding --

    def handle_submit_bid(self, auth: Authenticated) -> BidStatement:
        req = auth.payload
        if not isinstance(req, SubmitBidRequest):
            raise err(errors.BAD_AUTH, "payload is not a bid submission")
        auction = self._get(req.auction_id)
        if auction.included is not None:
            raise err(errors.WRONG_PHASE, "bidding is closed")
        if not check_authenticated(auth, expected_pk=req.bidder_pk):
            raise err(errors.BAD_AUTH, "bid signature")
        if req.deposit <= 0:
            raise err(errors.BAD_EVIDENCE, "deposit must be positive")
        if not tpke._cipher_ok(req.ciphertext):
            raise err(errors.BAD_EVIDENCE, "malformed ciphertext")
        if req.ciphertext.aad != auction_aad(req.auction_id):
            raise err(errors.BAD_EVIDENCE, "ciphertext not bound to this auction")
        proof = req.deposit_proof
        escrow = proof.value
        if (
            not isinstance(escrow, Request)
            or not isinstance(escrow.op, Transfer)
            or escrow.id != req.bidder
            or escrow.op.dest != req.auction_id
            or escrow.op.value != req.deposit
            or not self.certified(proof)
        ):
            raise err(errors.BAD_EVIDENCE, "deposit proof does not match the bid")
        statement = bid_statement(req)
        if auction.bids.setdefault(statement.deposit_digest, statement) != statement:
            raise err(errors.BAD_EVIDENCE, "deposit already backs another bid")
        return statement  # a resubmission is idempotent

    # -- end of bidding --

    def handle_end_of_bidding(self, auth: Authenticated) -> EndOfBiddingStatement:
        req = auth.payload
        if not isinstance(req, EndOfBiddingRequest):
            raise err(errors.BAD_AUTH, "payload is not an end-of-bidding request")
        auction = self._get(req.auction_id)
        if not check_authenticated(auth, expected_pk=auction.seller_pk):
            raise err(errors.NOT_SELLER, str(req.auction_id))
        included: dict[bytes, BidStatement] = {}  # a repeated listing counts once
        for cert in req.bids:
            statement = cert.value
            if not isinstance(statement, BidStatement) or statement.auction_id != req.auction_id:
                raise err(errors.BAD_BID_CERT, "wrong statement")
            if not self.certified(cert):
                raise err(errors.BAD_BID_CERT, "bad quorum")
            included.setdefault(value_digest(statement), statement)
        statement = EndOfBiddingStatement(auction_id=req.auction_id, bids=tuple(included.values()))
        if auction.included is None:
            auction.included = statement.bids
        elif auction.included != statement.bids:
            raise err(errors.WRONG_PHASE, "a different bid set was already closed")
        return statement

    def apply_end_of_bidding_cert(self, cert: Certificate) -> None:
        """Close the auction on its certified bid set (idempotent), which
        replaces a set this authority only voted for: an equivocating seller
        can get votes for two sets, but 2f+1 authorities certify at most one."""
        statement = cert.value
        if not isinstance(statement, EndOfBiddingStatement):
            raise err(errors.BAD_CERTIFICATE, "not an end-of-bidding certificate")
        if not self.certified(cert):
            raise err(errors.BAD_CERTIFICATE, "end-of-bidding quorum")
        auction = self.auctions.get(statement.auction_id)
        if auction is not None:
            auction.included = statement.bids

    # -- share release --

    def release_shares(self, cert: Certificate) -> tuple[tpke.DecryptionShare, ...]:
        """This authority's decryption share for every included bid.

        Requires a valid end-of-bidding certificate. Each query decrypts
        afresh; ``tpke.share_decrypt`` is deterministic, so repeat queries
        return identical values. The auction keeps the shares until it is
        settled, so that ``handle_end_of_auction`` need not verify them.
        """
        if self.tpke_share is None or self.tpke_public is None:
            raise err(errors.CONFIG_ERROR, "no threshold key share installed")
        self.apply_end_of_bidding_cert(cert)
        ciphertexts = [bid.ciphertext for bid in cert.value.bids]
        shares = tuple(tpke.share_decrypt(self.tpke_public, self.tpke_share, c) for c in ciphertexts)
        auction = self.auctions.get(cert.value.auction_id)
        if auction is not None:
            auction.released.update(zip(ciphertexts, shares))
        return shares

    # -- end of auction + settlement --

    def handle_end_of_auction(
        self, auth: Authenticated, eob_cert: Certificate
    ) -> EndOfAuctionStatement:
        req = auth.payload
        if not isinstance(req, EndOfAuctionRequest):
            raise err(errors.BAD_AUTH, "payload is not an end-of-auction request")
        self.apply_end_of_bidding_cert(eob_cert)  # so the auction holds the certified set
        if eob_cert.value.auction_id != req.auction_id:
            raise err(errors.BAD_CERTIFICATE, "end-of-bidding set mismatch")
        auction = self._get(req.auction_id)
        if not check_authenticated(auth, expected_pk=auction.seller_pk):
            raise err(errors.NOT_SELLER, str(req.auction_id))
        if len(req.openings) != len(auction.included):
            raise err(errors.DECRYPTION_MISMATCH, "every included bid must be opened")
        if self.tpke_public is None:
            raise err(errors.CONFIG_ERROR, "no threshold public key installed")
        for bid, opening in zip(auction.included, req.openings):
            c = bid.ciphertext
            good = tpke.verified_shares(self.tpke_public, c, opening.shares, auction.released.get(c))
            if not tpke.decrypts_to(self.tpke_public, c, good, opening.value):
                raise err(errors.DECRYPTION_MISMATCH, f"bid by {bid.bidder}")
        return EndOfAuctionStatement(
            auction_id=req.auction_id,
            values=tuple(o.value for o in req.openings),
        )

    def apply_settlement(self, cert: Certificate, eob_cert: Certificate) -> list:
        """Execute a certified auction result on the bid set that ``eob_cert``
        certifies: pay the seller from the winner's deposit, refund everyone
        else, hand the item's owner key to the winner, and delete the auction
        object. Idempotent on redelivery."""
        statement = cert.value
        if not isinstance(statement, EndOfAuctionStatement):
            raise err(errors.BAD_CERTIFICATE, "not an end-of-auction certificate")
        if not self.certified(cert):
            raise err(errors.BAD_CERTIFICATE, "end-of-auction quorum")
        auction_id = statement.auction_id
        if auction_id in self.settled:
            return []
        self.apply_end_of_bidding_cert(eob_cert)
        if eob_cert.value.auction_id != auction_id:
            raise err(errors.BAD_CERTIFICATE, "end-of-bidding set mismatch")
        auction = self.auctions.get(auction_id)
        if auction is None:
            return []
        if len(statement.values) != len(auction.included):
            raise err(errors.BAD_CERTIFICATE, "value count mismatch")

        order = sorted(range(len(auction.included)), key=lambda i: auction.included[i].bidder)
        bids = [auction.included[i] for i in order]
        values = tuple(statement.values[i] for i in order)
        deposits = tuple(b.deposit for b in bids)
        winner, price = settle_outcome(values, deposits, auction.rule)

        credits: dict[AccountId, int] = {}
        effects: list = []
        total_deposits = sum(deposits)
        for i, bid in enumerate(bids):
            refund = bid.deposit - (price if i == winner else 0)
            credits[bid.bidder] = credits.get(bid.bidder, 0) + refund
        if winner is not None:
            credits[auction.seller] = credits.get(auction.seller, 0) + price
            effects.append(SetOwnerEffect(target=auction.item, pk=bids[winner].bidder_pk, cert=cert))
        if total_deposits:
            effects.append(EscrowDebitEffect(target=auction_id, amount=total_deposits, cert=cert))
        for target in sorted(credits):
            amount = credits[target]
            if amount:
                effects.append(CreditEffect(target=target, update=ScalarUpdate(amount), cert=cert))

        del self.auctions[auction_id]
        self.settled.add(auction_id)
        return effects


# CreateAuction as a regular certified account operation.


def _execute_create_auction(ledger, account, id, op: CreateAuction, cert: Certificate):
    return [
        InitAuctionEffect(
            target=op.auction_id,
            seller=id,
            seller_pk=account.pk,
            item=op.item,
            rule=op.rule,
            cert=cert,
        )
    ]


operation(
    CreateAuction,
    lambda account, id, op: check_derived_id(account, id, op.auction_id),
    _execute_create_auction,
)
