"""One authority: message dispatch over its account ledger, swap instances,
and auction objects, plus the canonical state snapshot.

The authority validates certificates and signs votes; domain modules decide.
The swap and auction services and the asset checks take ``Authority.certified``,
this authority's verdict on a certificate, so only this module and
``committee.py`` know how one is verified. Each message type maps to one
handler in a table. Effects on another UID (cross-shard messages in the paper)
are returned addressed to the authority itself and travel through the
(never-dropping, possibly delaying and duplicating) internal queue, although
one ledger holds all of its accounts.
"""

from __future__ import annotations

from typing import Any, Callable

from . import assets, errors, swap
from .accounts import (
    AccountId,
    CreditEffect,
    EscrowDebitEffect,
    InitAccountEffect,
    Ledger,
    Request,
    SetOwnerEffect,
    UnlockEffect,
)
from .auction import AuctionService, InitAuctionEffect
from .committee import Certificate, Committee, check_certificate_once, make_vote, value_digest
from .errors import ProtocolError, err
from .keys import Signer
from .messages import (
    AccountInfoReply,
    AckReply,
    CertifyAssetMsg,
    CommitMsg,
    ConfirmMsg,
    EndOfAuctionMsg,
    EndOfBiddingMsg,
    ErrorReply,
    HandleRequestMsg,
    InstanceViewReply,
    PreCommitMsg,
    ProposalMsg,
    QueryAccountMsg,
    QueryInstanceMsg,
    SettleAuctionMsg,
    SharesQueryMsg,
    SharesReply,
    SubmitBidMsg,
    TransmuteMsg,
    TransmuteReply,
    VoteReply,
)
from .swap import InitInstanceEffect, RoundSchedule, SwapService

# One shared reply, so its digest is computed once per run, not once per handler call.
_ACK_OK = AckReply("ok")


class Authority:
    """One committee member's state and handlers.

    ``verified`` holds the ``value_digest`` of every certificate that this
    authority has verified; every check goes through ``certified``, so a
    certificate that arrives again (a lock certificate attached to each
    proposal and commit, a re-sent commit, the end-of-run sync) is not
    checked again. That is sound because two certificates share a digest only
    if they encode to the same bytes, and ``check_certificate``'s verdict
    depends only on those bytes and this authority's fixed committee; failed
    and unencodable certificates are never added. The set is this
    authority's alone, and grows by one 32-byte digest per accepted
    certificate.
    """

    honest = True

    def __init__(
        self,
        index: int,
        signer: Signer,
        committee: Committee,
        *,
        algebra_of: Callable[[AccountId], str] = lambda _uid: "balance",
        schedule: RoundSchedule = RoundSchedule(),
        parity_leader: bool = False,
        tpke_public=None,
        tpke_share=None,
    ):
        self.index = index
        self.name = f"auth:{index}"
        self.signer = signer
        self.committee = committee
        self.ledger = Ledger(algebra_of)
        self.ledger.on_mutate = self._check_account
        self.verified: set[bytes] = set()
        self.swaps = SwapService(self.certified, schedule=schedule, parity_leader=parity_leader)
        self.auctions = AuctionService(self.certified, tpke_public, tpke_share)
        self._notes: list[tuple] = []

    # -- helpers --

    def certified(self, cert: Certificate) -> bool:
        """This authority's verdict on ``cert``: ``check_certificate``'s over its
        committee, computed once per certificate."""
        return check_certificate_once(self.committee, cert, self.verified)

    def _check_account(self, uid: AccountId, account) -> None:
        if not account.alg.is_valid(account.state):
            self._notes.append(("invalid_state", uid, account.state))

    def _vote(self, statement: Any):
        vote = make_vote(self.index, self.signer, statement)
        self._notes.append(("vote", statement))
        return VoteReply(value=statement, vote=vote)

    def _accept_cert(self, cert: Certificate, kind: str) -> None:
        signers = tuple(sorted(v.signer for v in cert.votes))
        self._notes.append(("cert_accepted", kind, signers))

    def _swap_note(self, swid: AccountId) -> None:
        instance = self.swaps.instances[swid]
        self._notes.append(("swap_state", swid, instance.proposed, instance.locked_proposal))

    # -- dispatch --

    def handle(self, src: str, payload: Any, now: int):
        """Process one delivery; returns ([(dest, payload), ...], notes)."""
        self._notes = []
        try:
            outputs = self._dispatch(src, payload, now)
        except ProtocolError as exc:
            outputs = [(src, ErrorReply(code=exc.code, detail=exc.detail))]
        return outputs, self._notes

    def _dispatch(self, src: str, payload: Any, now: int):
        return self._handlers.get(type(payload), type(self)._unhandled)(self, src, payload, now)

    def _unhandled(self, src: str, payload: Any, now: int):
        raise err(errors.BAD_VALUE, f"unhandled message {type(payload).__name__}")

    def _on_request(self, src, payload: HandleRequestMsg, now):
        return [(src, self._vote(self.ledger.handle_request(payload.auth)))]

    def _on_confirm(self, src, payload: ConfirmMsg, now):
        cert = payload.cert
        if not (isinstance(cert.value, Request) and self.certified(cert)):
            raise err(errors.BAD_CERTIFICATE, "confirmation")
        self._accept_cert(cert, "request")
        effects = self.ledger.handle_confirmation(cert)
        return [(self.name, eff) for eff in effects] + [(src, _ACK_OK)]

    def _on_query_account(self, src, payload: QueryAccountMsg, now):
        account = self.ledger.accounts.get(payload.id)
        if account is None:
            return [(src, AccountInfoReply(False, False, 0, 0, False))]
        return [
            (
                src,
                AccountInfoReply(
                    exists=True,
                    active=account.pk is not None,
                    next_sequence=account.next_sequence,
                    balance=account.balance,
                    busy=account.pending is not None,
                ),
            )
        ]

    def _on_proposal(self, src, payload: ProposalMsg, now):
        statement = self.swaps.handle_proposal(payload.auth, payload.lock1, payload.lock2, now)
        self._swap_note(statement.proposal.swid)
        return [(src, self._vote(statement))]

    def _on_pre_commit(self, src, payload: PreCommitMsg, now):
        statement = self.swaps.handle_pre_commit(payload.cert)
        self._accept_cert(payload.cert, "pre_commit")
        self._swap_note(statement.proposal.swid)
        return [(src, self._vote(statement))]

    def _on_commit(self, src, payload: CommitMsg, now):
        effects = self.swaps.handle_commit(payload.cert, payload.lock1, payload.lock2)
        self._accept_cert(payload.cert, "commit")
        return [(self.name, eff) for eff in effects] + [(src, _ACK_OK)]

    def _on_query_instance(self, src, payload: QueryInstanceMsg, now):
        instance = self.swaps.instances.get(payload.swid)
        if instance is None:
            return [(src, InstanceViewReply(False, 0, None, None))]
        return [(src, InstanceViewReply(True, instance.created_at, instance.proposed, instance.locked))]

    def _on_certify_asset(self, src, payload: CertifyAssetMsg, now):
        return [(src, self._vote(assets.handle_certify(self.ledger, payload.auth)))]

    def _on_transmute(self, src, payload: TransmuteMsg, now):
        bindings = assets.handle_transmute(self.ledger, self.certified, payload.request)
        items = tuple((binding, self._vote(binding).vote) for binding in bindings)
        return [(src, TransmuteReply(items=items))]

    def _on_submit_bid(self, src, payload: SubmitBidMsg, now):
        statement = self.auctions.handle_submit_bid(payload.auth)
        self._notes.append(("bid_accepted", statement.auction_id, statement.bidder))
        return [(src, self._vote(statement))]

    def _on_end_of_bidding(self, src, payload: EndOfBiddingMsg, now):
        statement = self.auctions.handle_end_of_bidding(payload.auth)
        self._notes.append(("phase", statement.auction_id, "revealing"))
        return [(src, self._vote(statement))]

    def _on_shares_query(self, src, payload: SharesQueryMsg, now):
        shares = self.auctions.release_shares(payload.cert)
        self._accept_cert(payload.cert, "end_of_bidding")
        auction_id = payload.cert.value.auction_id
        self._notes.append(("phase", auction_id, "revealing"))
        return [(src, SharesReply(auction_id=auction_id, shares=shares))]

    def _on_end_of_auction(self, src, payload: EndOfAuctionMsg, now):
        statement = self.auctions.handle_end_of_auction(payload.auth, payload.eob_cert)
        return [(src, self._vote(statement))]

    def _on_settle_auction(self, src, payload: SettleAuctionMsg, now):
        effects = self.auctions.apply_settlement(payload.cert, payload.eob_cert)
        if effects:
            self._accept_cert(payload.cert, "end_of_auction")
            self._notes.append(("phase", payload.cert.value.auction_id, "settled"))
        return [(self.name, eff) for eff in effects] + [(src, _ACK_OK)]

    def _apply_credit(self, eff: CreditEffect, now):
        self._notes.append(("credit", eff.target, eff.update))
        return self.ledger.apply_credit(eff)

    def _effect(apply):
        """Handler for an internal cross-shard effect, which only this
        authority may send to itself. Only a credit can produce further
        effects."""

        def handle(self, src, eff, now):
            if src != self.name:
                raise err(errors.BAD_VALUE, f"internal effect from {src}")
            return [(self.name, e) for e in apply(self, eff, now) or ()]
        return handle

    _handlers = {
        HandleRequestMsg: _on_request,
        ConfirmMsg: _on_confirm,
        QueryAccountMsg: _on_query_account,
        ProposalMsg: _on_proposal,
        PreCommitMsg: _on_pre_commit,
        CommitMsg: _on_commit,
        QueryInstanceMsg: _on_query_instance,
        CertifyAssetMsg: _on_certify_asset,
        TransmuteMsg: _on_transmute,
        SubmitBidMsg: _on_submit_bid,
        EndOfBiddingMsg: _on_end_of_bidding,
        SharesQueryMsg: _on_shares_query,
        EndOfAuctionMsg: _on_end_of_auction,
        SettleAuctionMsg: _on_settle_auction,
        InitAccountEffect: _effect(lambda self, eff, now: self.ledger.apply_init_account(eff)),
        CreditEffect: _effect(_apply_credit),
        UnlockEffect: _effect(lambda self, eff, now: self.ledger.apply_unlock(eff)),
        SetOwnerEffect: _effect(lambda self, eff, now: self.ledger.apply_set_owner(eff)),
        EscrowDebitEffect: _effect(lambda self, eff, now: self.ledger.apply_escrow_debit(eff)),
        InitInstanceEffect: _effect(lambda self, eff, now: self.swaps.init_instance(eff, now)),
        InitAuctionEffect: _effect(lambda self, eff, now: self.auctions.init_auction(eff)),
    }
    del _effect

    # -- snapshots --

    def snapshot_accounts(self, include_pending: bool = True) -> str:
        """Canonical text of every live account.

        With ``include_pending=False`` this is the certificate-derived state
        only, which must be byte-identical across replicas that executed the
        same certificates (pending is set by uncertified requests and may
        legitimately differ)."""
        lines = []
        for uid in sorted(self.ledger.accounts):
            account = self.ledger.accounts[uid]
            lines.append(f"[account {uid}]")
            lines.append(f"pk: {account.pk.hex() if account.pk else '-'}")
            lines.append(f"algebra: {account.algebra}")
            lines.append(f"state: {account.alg.encode_state(account.state).hex()}")
            lines.append(f"balance: {account.balance}")
            lines.append(f"next_sequence: {account.next_sequence}")
            if include_pending:
                pending = value_digest(account.pending).hex() if account.pending else "-"
                lines.append(f"pending: {pending}")
            confirmed = ",".join(value_digest(c.value).hex()[:16] for c in account.confirmed)
            lines.append(f"confirmed: {confirmed}")
            received = ",".join(sorted(d.hex()[:16] for d in account.received))
            lines.append(f"received: {received}")
        return "\n".join(lines) + "\n"

    def consistency_snapshot(self) -> str:
        return self.snapshot_accounts(include_pending=False)

    def snapshot(self) -> str:
        lines = [f"# authority {self.index} snapshot v1"]
        lines.append(self.snapshot_accounts().rstrip("\n"))
        for swid in sorted(self.swaps.instances):
            inst = self.swaps.instances[swid]
            lines.append(f"[instance {swid}]")
            (id1, n1), (id2, n2) = inst.accounts[1], inst.accounts[2]
            lines.append(f"accounts: {id1} @{n1} / {id2} @{n2}")
            lines += [f"pk{r}: {inst.pk(r).hex() if inst.pk(r) else '-'}" for r in (1, 2)]
            for label, p in (("proposed", inst.proposed), ("locked", inst.locked_proposal)):
                lines.append(f"{label}: {f'{p.round}:{p.decision.name}' if p else '-'}")
        for auction_id in sorted(self.auctions.auctions):
            auction = self.auctions.auctions[auction_id]
            lines.append(f"[auction {auction_id}]")
            lines.append(f"seller: {auction.seller}")
            lines.append(f"item: {auction.item}")
            lines.append(f"rule: {auction.rule.name}")
            lines.append(f"phase: {'BIDDING' if auction.included is None else 'REVEALING'}")
            lines.append(f"bids: {len(auction.bids)}")
        for uid in sorted(self.ledger.tombstones):
            lines.append(f"[tombstone {uid}] {self.ledger.tombstones[uid].hex()[:16]}")
        for swid in sorted(self.swaps.tombstones):
            lines.append(f"[instance-tombstone {swid}]")
        for auction_id in sorted(self.auctions.settled):
            lines.append(f"[auction-settled {auction_id}]")
        return "\n".join(lines) + "\n"

    def total_money(self) -> int:
        return sum(acct.balance for acct in self.ledger.accounts.values())


class ArbitrarySigner(Authority):
    """Byzantine authority: signs whatever it is asked to, checks nothing.

    It can equivocate freely with its own key but cannot forge other
    authorities' signatures; its local state is frozen and excluded from
    honest-state audits.
    """

    honest = False

    def _on_request(self, src, payload: HandleRequestMsg, now):
        return [(src, self._vote(payload.auth.payload))]

    def _on_proposal(self, src, payload: ProposalMsg, now):
        proposal = payload.auth.payload
        if isinstance(proposal, swap.Proposal):
            return [(src, self._vote(swap.PreCommitStatement(proposal)))]
        return []

    def _on_pre_commit(self, src, payload: PreCommitMsg, now):
        value = payload.cert.value
        if isinstance(value, swap.PreCommitStatement):
            return [(src, self._vote(swap.CommitStatement(value.proposal)))]
        return []

    def _unhandled(self, src: str, payload: Any, now: int):
        return [(src, _ACK_OK)]

    _handlers = {
        HandleRequestMsg: _on_request,
        ProposalMsg: _on_proposal,
        PreCommitMsg: _on_pre_commit,
        QueryInstanceMsg: lambda self, src, _p, _now: [(src, InstanceViewReply(False, 0, None, None))],
        QueryAccountMsg: lambda self, src, _p, _now: [(src, AccountInfoReply(False, False, 0, 0, False))],
    }
