"""Client-side protocol drivers: wallets, certified operations, swap round
leadership, asset exchanges, and auction participants.

Drivers are generator coroutines for the simulator. Each takes its client's
``Client`` record first. They broadcast requests, count votes on the one
statement they signed until a quorum certificate forms, and retry with
refreshed views until they succeed or their deadline passes. Every
request/reply exchange runs through ``collect``: each vote is counted by
``add_vote`` (in ``gather_votes`` and ``transmute``), and every other reply
kind is gathered by ``replies``. Every wait for another participant runs
through ``wait_until``. Participants in one swap or auction share an
off-protocol bulletin (the off-chain channel of the protocol): a swap's
holds only its creation, lock and commit certificates; an auction's, its id
and bid certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import tpke
from .accounts import (
    AccountId,
    LockInto,
    Request,
    StartConsensusInstance,
    Transfer,
    execute_request,
    lock_request,
)
from .auction import (
    BidOpening,
    CreateAuction,
    EndOfAuctionRequest,
    EndOfBiddingRequest,
    EndOfAuctionStatement,
    EndOfBiddingStatement,
    SubmitBidRequest,
    auction_aad,
    bid_statement,
)
from .assets import (AssetBinding, AssetCertifyRequest, Spend, TransmuteRequest, derive_outputs,
                     spend_commitment)
from .committee import (
    Authenticated,
    Certificate,
    Committee,
    aggregate_certificate,
    authenticate,
    check_certificate,
)
from .errors import ProtocolError
from .keys import Signer
from .messages import (
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
    QueryInstanceMsg,
    SettleAuctionMsg,
    SharesQueryMsg,
    SharesReply,
    SubmitBidMsg,
    TransmuteMsg,
    TransmuteReply,
    VoteReply,
)
from .swap import CommitStatement, DecisionValue, PreCommitStatement, Proposal, RoundSchedule


@dataclass
class WalletEntry:
    """One account a client owns; its sequence number is tracked locally."""

    signer: Signer
    next_sequence: int = 0

    @property
    def pk(self) -> bytes:
        return self.signer.public_key

    def sign(self, payload: Any) -> Authenticated:
        """`payload` signed with this account's owner key."""
        return authenticate(payload, self.pk, self.signer)


@dataclass
class DriverLog:
    events: list[tuple] = field(default_factory=list)

    def note(self, *event: Any) -> None:
        self.events.append(event)


@dataclass
class Client:
    """What every driver of one client uses: its simulator endpoint, the
    committee, the wallet it signs from, its per-attempt reply timeout and its log."""

    env: Any
    committee: Committee
    wallet: dict[AccountId, WalletEntry]
    timeout: int
    log: DriverLog


def collect(c: Client, message, take: Callable[[Any], Any], retries: int):
    """Broadcast `message` and pass each reply envelope to `take`, then None
    once the attempt's timeout runs out; rebroadcast up to `retries` times.

    Returns the first value other than None that `take` returns, or None."""
    env = c.env
    for _attempt in range(retries):
        env.broadcast(message)
        deadline = env.now + c.timeout
        while env.now < deadline:
            envelope = yield env.recv(timeout=deadline - env.now)
            if envelope is None:
                break
            result = take(envelope)
            if result is not None:
                return result
        result = take(None)
        if result is not None:
            return result
    return None


def wait_until(c: Client, ready: Callable[[], bool], step: int, limit: int):
    """Sleep `step` ticks at a time until ready() or `limit` ticks have passed."""
    waited = 0
    while not ready() and waited < limit:
        yield c.env.sleep(step)
        waited += step


def add_vote(c: Client, votes: dict[int, Any], statement, vote) -> Optional[Certificate]:
    """Count `vote` among `votes`, one per signer, on `statement`; returns the
    certificate once 2f+1 signers have voted. If they do not aggregate (junk
    votes), the statement's votes start over."""
    votes[vote.signer] = vote
    if len(votes) >= c.committee.quorum:
        try:
            return aggregate_certificate(c.committee, statement, votes.values())
        except ProtocolError:
            votes.clear()
    return None


def gather_votes(c: Client, message, statement, retries: int = 8):
    """Broadcast and collect votes on `statement` until 2f+1 certify it.

    Returns a Certificate or None. Votes accumulate across retries; authority
    votes are idempotent so rebroadcasts can only fill in gaps.
    """
    votes: dict[int, Any] = {}

    def take(envelope):
        payload = envelope.payload if envelope is not None else None
        if isinstance(payload, VoteReply) and payload.value == statement:
            return add_vote(c, votes, statement, payload.vote)
        if isinstance(payload, ErrorReply):
            c.log.note("error", envelope.src, payload.code, payload.detail)
        return None

    return (yield from collect(c, message, take, retries))


def replies(c: Client, message, kind: type, want: int, retries: int):
    """Broadcast `message` until `want` authorities have sent a `kind` reply,
    or an attempt times out with 2f+1 of them; returns the replies by sender."""
    got: dict[str, Any] = {}

    def take(envelope):
        if envelope is None:
            return True if len(got) >= c.committee.quorum else None
        if isinstance(envelope.payload, kind):
            got[envelope.src] = envelope.payload
        return True if len(got) >= want else None

    yield from collect(c, message, take, retries)
    return got


def broadcast_until_acked(c: Client, message):
    """Deliver a certificate-bearing message until 2f+1 authorities acknowledge."""
    quorum = c.committee.quorum
    return len((yield from replies(c, message, AckReply, quorum, 8))) >= quorum


def request_votes(c: Client, request: Request):
    """Sign an account request with its owner's key and certify it."""
    auth = c.wallet[request.id].sign(request)
    return (yield from gather_votes(c, HandleRequestMsg(auth), request))


def certified_operation(c: Client, uid: AccountId, op):
    """Run one account operation end to end: vote quorum, then confirmation."""
    entry = c.wallet[uid]
    cert = yield from request_votes(c, execute_request(uid, entry.next_sequence, op))
    if cert is None or not (yield from broadcast_until_acked(c, ConfirmMsg(cert))):
        return None
    entry.next_sequence += 1
    return cert


def drive_round(c: Client, swid: AccountId, leader_signer: Signer, desired: DecisionValue,
                lock1: Optional[Certificate], lock2: Optional[Certificate], deadline: int,
                delta: int, schedule: RoundSchedule, flip_flop: bool = False):
    """Lead consensus rounds until a commit certificate exists.

    Honest leaders adopt any locked pre-commit they observe (its decision wins
    even over their own preference); a flip-flopping adversary instead keeps
    proposing alternating decisions at fresh rounds.
    """
    env, committee, log = c.env, c.committee, c.log
    attempt = 0
    while env.now < deadline:
        attempt += 1
        views = (yield from replies(c, QueryInstanceMsg(swid), InstanceViewReply,
                                    committee.quorum, 1)).values()
        if len(views) < committee.quorum:
            continue  # a round view needs 2f+1 responses
        live = [v for v in views if v.exists]
        if len(live) < committee.f + 1:
            return ("deleted", None)  # instance committed and cleaned up

        k_max = max((v.proposed.round for v in live if v.proposed is not None), default=-1)
        created = max(v.created_at for v in live)
        # The highest valid locked pre-commit; ties go to the first.
        best_locked = max(
            (cert for cert in (v.locked for v in live)
             if cert is not None and isinstance(cert.value, PreCommitStatement)
             and cert.value.proposal.swid == swid and check_certificate(committee, cert)),
            key=lambda cert: cert.value.proposal.round, default=None,
        )
        yield env.sleep(delta)

        if best_locked is not None and not flip_flop:
            locked_p = best_locked.value.proposal
            if locked_p.decision != desired:
                # The locked decision wins from here on (safety rule b).
                log.note("conflict_observed", str(swid), locked_p.decision.name)
                desired = locked_p.decision
            commit = yield from gather_votes(
                c, PreCommitMsg(best_locked), CommitStatement(locked_p), retries=2,
            )
            if commit is not None:
                return ("committed", commit)
            k_max = max(k_max, locked_p.round)

        k = k_max + 1
        release = schedule.release_time(created, k)
        if release > env.now:
            yield env.sleep(release - env.now)
        decision = desired
        if flip_flop:
            decision = DecisionValue.CONFIRM if attempt % 2 else DecisionValue.ABORT
        proposal = Proposal(swid, k, decision)
        auth = authenticate(proposal, leader_signer.public_key, leader_signer)
        log.note("proposal_signed", str(swid), k, decision.name, leader_signer.public_key)
        pre = yield from gather_votes(
            c, ProposalMsg(auth, lock1, lock2), PreCommitStatement(proposal), retries=2,
        )
        if pre is None:
            continue
        commit = yield from gather_votes(c, PreCommitMsg(pre), CommitStatement(proposal), retries=2)
        if commit is not None:
            return ("committed", commit)
    return ("stalled", None)


# -- swap choreography -----------------------------------------------------------


@dataclass
class SwapContext:
    """The bulletin one swap's participants share: its certificates, and each
    participant's outcome."""

    creation: Optional[Certificate] = None  # its op is the StartConsensusInstance
    locks: dict[int, Certificate] = field(default_factory=dict)
    commit: Optional[Certificate] = None
    outcome: dict[str, Any] = field(default_factory=dict)


def broker_script(c: Client, broker_id: AccountId, id1: AccountId, id2: AccountId,
                  ctx: SwapContext):
    """Create the consensus instance and publish its creation certificate.

    Each owner locks at its next sequence number once the instance exists,
    so a broker that is one of the owners counts its own creation op."""
    n1, n2 = (c.wallet[uid].next_sequence + (uid == broker_id) for uid in (id1, id2))
    swid = broker_id.child(c.wallet[broker_id].next_sequence)
    op = StartConsensusInstance(swid, id1, n1, id2, n2)
    cert = yield from certified_operation(c, broker_id, op)
    if cert is None:
        c.log.note("broker_failed", str(swid))
        ctx.outcome["broker"] = "failed"
        return
    ctx.creation = cert
    ctx.outcome["broker"] = "created"
    c.log.note("instance_created", str(swid))


def swap_owner_script(c: Client, uid: AccountId, role: int, ctx: SwapContext,
                      handover: Signer, delta: int, schedule: RoundSchedule, *,
                      behavior: str, drives: bool, desired: Optional[DecisionValue],
                      lock_wait: int, deadline: int):
    """One owner's whole swap: lock, exchange certificates, lead, finalize.

    `behavior` is "honest", "flip_flop" (lead with alternating decisions) or
    "no_lock" (neither lock nor lead, only finalize)."""
    log = c.log
    yield from wait_until(c, lambda: ctx.creation is not None, 50, deadline - c.env.now)
    if ctx.creation is None:
        log.note("no_instance", str(uid))
        ctx.outcome[f"owner{role}"] = "no_instance"
        return
    start = ctx.creation.value.op
    swid = start.swid

    locking = behavior != "no_lock"
    if locking:
        # The lock pins this account's sequence number until the commit unlocks it.
        request = lock_request(uid, c.wallet[uid].next_sequence,
                               LockInto(swid, role, handover.public_key))
        lock = yield from request_votes(c, request)
        if lock is None:
            log.note("lock_failed", str(uid))
            ctx.outcome[f"owner{role}"] = "lock_failed"
            return
        ctx.locks[role] = lock
        log.note("locked", str(uid), role)

    yield from wait_until(c, lambda: len(ctx.locks) == 2, 100, lock_wait)
    lock1 = ctx.locks.get(1)
    lock2 = ctx.locks.get(2)

    if desired is None:
        desired = DecisionValue.CONFIRM if (lock1 and lock2) else DecisionValue.ABORT

    if drives and locking:
        status, commit = yield from drive_round(
            c, swid, handover, desired, lock1, lock2, deadline, delta, schedule,
            flip_flop=behavior == "flip_flop",
        )
        log.note("drive", str(uid), status)
        if commit is not None:
            ctx.commit = commit
    yield from wait_until(c, lambda: ctx.commit is not None, 100, lock_wait * 2)
    if ctx.commit is None:
        ctx.outcome.setdefault(f"owner{role}", "stalled")
        return
    ok = yield from broadcast_until_acked(
        c, CommitMsg(ctx.commit, ctx.locks.get(1), ctx.locks.get(2))
    )
    decision = ctx.commit.value.proposal.decision
    ctx.outcome[f"owner{role}"] = decision.name if ok else "finalize_failed"
    if decision == DecisionValue.CONFIRM:
        # This owner now controls the counterparty account with the key it handed over.
        other, other_n = (start.id2, start.n2) if role == 1 else (start.id1, start.n1)
        c.wallet[other] = WalletEntry(handover, other_n + 1)
    elif locking:
        c.wallet[uid].next_sequence += 1  # the abort unlock consumed the lock's slot
    log.note("finalized", str(uid), decision.name)


# -- asset choreography -----------------------------------------------------------


def certify_asset(c: Client, uid: AccountId, data: bytes):
    entry = c.wallet[uid]
    binding = AssetBinding(uid, entry.next_sequence, data)
    auth = entry.sign(AssetCertifyRequest(id=uid, n=binding.n, data=data))
    return (yield from gather_votes(c, CertifyAssetMsg(auth), binding))


def transmute(c: Client, fexec: str, params: bytes, input_ids: list[AccountId],
              input_assets: list[Certificate], out_count: int):
    """Spend the input assets through an execution function; returns the
    output asset certificates (or None on failure)."""
    commitment = spend_commitment(params)
    wallet = c.wallet
    spends = []
    for uid in input_ids:
        entry = wallet[uid]
        spends.append(entry.sign(execute_request(uid, entry.next_sequence, Spend(commitment))))
    outputs = derive_outputs(spends[0].payload, out_count)
    req = TransmuteRequest(
        fexec=fexec, params=params, spends=tuple(spends),
        inputs=tuple(input_assets), outputs=outputs,
    )
    votes: dict[AssetBinding, dict[int, Any]] = {}
    # Each output's latest certificate, aggregated over every vote counted so far.
    by_output: dict[AccountId, Certificate] = {}

    def take(envelope):
        if envelope is None:  # the attempt is over: is every output certified?
            certs = [by_output.get(out_id) for out_id in outputs]
            return certs if None not in certs else None
        payload = envelope.payload
        if isinstance(payload, TransmuteReply):
            for binding, vote in payload.items:
                cert = add_vote(c, votes.setdefault(binding, {}), binding, vote)
                if cert is not None:
                    by_output[binding.id] = cert
        elif isinstance(payload, ErrorReply):
            c.log.note("error", envelope.src, payload.code, payload.detail)
        return None

    certs = yield from collect(c, TransmuteMsg(req), take, 8)
    if certs is not None:
        for uid in input_ids:
            wallet[uid].next_sequence += 1
    return certs


# -- auction choreography ----------------------------------------------------------


@dataclass
class AuctionContext:
    auction_id: Optional[AccountId] = None
    bid_certs: list[Certificate] = field(default_factory=list)
    expected_bidders: int = 0
    outcome: dict[str, Any] = field(default_factory=dict)


def bidder_script(c: Client, uid: AccountId, bid: int, deposit: int, ctx: AuctionContext,
                  tpke_public: tpke.TpkePublic, rng):
    yield from wait_until(c, lambda: ctx.auction_id is not None, 50, 60_000)
    if ctx.auction_id is None:
        c.log.note("no_auction", str(uid))
        return
    auction_id = ctx.auction_id
    entry = c.wallet[uid]
    proof = yield from certified_operation(c, uid, Transfer(dest=auction_id, value=deposit))
    if proof is None:
        c.log.note("deposit_failed", str(uid))
        return
    ciphertext = tpke.encrypt(tpke_public, bid, rng=rng, aad=auction_aad(auction_id))
    auth = entry.sign(SubmitBidRequest(
        auction_id=auction_id, bidder=uid, bidder_pk=entry.pk,
        ciphertext=ciphertext, deposit=deposit, deposit_proof=proof,
    ))
    cert = yield from gather_votes(c, SubmitBidMsg(auth), bid_statement(auth.payload))
    if cert is None:
        c.log.note("bid_failed", str(uid))
        return
    ctx.bid_certs.append(cert)  # handed to the seller off-chain
    c.log.note("bid_submitted", str(uid), bid, deposit)


def seller_script(c: Client, uid: AccountId, item: AccountId, rule, ctx: AuctionContext,
                  tpke_public: tpke.TpkePublic, *, behavior: str, bid_wait: int):
    committee, log = c.committee, c.log
    entry = c.wallet[uid]
    auction_id = uid.child(entry.next_sequence)
    created = yield from certified_operation(c, uid, CreateAuction(auction_id, item, rule))
    if created is None:
        log.note("auction_create_failed", str(uid))
        return
    ctx.auction_id = auction_id

    yield from wait_until(c, lambda: len(ctx.bid_certs) >= ctx.expected_bidders, 200, bid_wait)

    bids = tuple(ctx.bid_certs)
    auth = entry.sign(EndOfBiddingRequest(auction_id=auction_id, bids=bids))
    eob_cert = yield from gather_votes(
        c, EndOfBiddingMsg(auth),
        EndOfBiddingStatement(auction_id, tuple(cert.value for cert in bids)),
    )
    if eob_cert is None:
        log.note("end_of_bidding_failed", str(uid))
        return
    included = eob_cert.value.bids
    log.note("bidding_closed", str(uid), len(included))
    if behavior == "withhold":
        ctx.outcome["seller"] = "stalled"
        return

    # Collect each authority's decryption shares for every included bid.
    shares_by_auth = yield from replies(c, SharesQueryMsg(eob_cert), SharesReply, committee.n, 6)
    if len(shares_by_auth) < tpke_public.threshold:
        ctx.outcome["seller"] = "no_shares"
        return

    openings = []
    for i, bid in enumerate(included):
        collected = []
        for reply in shares_by_auth.values():
            if i < len(reply.shares):
                collected.append(reply.shares[i])
        good = tpke.verified_shares(tpke_public, bid.ciphertext, collected)
        value = tpke.interpolate(tpke_public, bid.ciphertext, good)
        if value is None:
            ctx.outcome["seller"] = "decrypt_failed"
            return
        if behavior == "misreport" and i == 0:
            value += 1
        openings.append(BidOpening(value=value, shares=tuple(good)))

    auth = entry.sign(EndOfAuctionRequest(auction_id=auction_id, openings=tuple(openings)))
    eoa_cert = yield from gather_votes(
        c, EndOfAuctionMsg(auth, eob_cert),
        EndOfAuctionStatement(auction_id, tuple(o.value for o in openings)),
    )
    if eoa_cert is None:
        ctx.outcome["seller"] = "end_of_auction_rejected"
        log.note("end_of_auction_failed", str(uid))
        return
    ok = yield from broadcast_until_acked(c, SettleAuctionMsg(eoa_cert, eob_cert))
    ctx.outcome["seller"] = "settled" if ok else "settle_unacked"
    ctx.outcome["values"] = [o.value for o in openings]
    log.note("settled", str(uid), ok)
