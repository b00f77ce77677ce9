"""Client-side protocol drivers: wallets, certified operations, swap round
leadership, asset exchanges, and auction participants.

Drivers are generator coroutines for the simulator. They broadcast requests,
collect votes by statement digest until a quorum certificate forms, and
retry with refreshed views until they succeed or their deadline passes.
Every request/reply exchange runs through ``collect``, and every wait for
another participant through ``wait_until``.
Participants in one swap or auction share an off-protocol bulletin (the
off-chain channel of the protocol): lock certificates, commit certificates,
and bid certificates travel through it.
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
    SubmitBidRequest,
    auction_aad,
)
from .assets import AssetCertifyRequest, Spend, TransmuteRequest, derive_outputs, spend_commitment
from .committee import (
    Certificate,
    Committee,
    aggregate_certificate,
    authenticate,
    check_certificate,
    value_digest,
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
    signer: Signer
    next_sequence: int = 0

    @property
    def pk(self) -> bytes:
        return self.signer.public_key


@dataclass
class Wallet:
    """Client-side ownership records; sequence numbers are tracked locally."""

    entries: dict[AccountId, WalletEntry] = field(default_factory=dict)

    def add(self, uid: AccountId, signer: Signer, next_sequence: int = 0) -> None:
        self.entries[uid] = WalletEntry(signer=signer, next_sequence=next_sequence)

    def __getitem__(self, uid: AccountId) -> WalletEntry:
        return self.entries[uid]


@dataclass
class DriverLog:
    events: list[tuple] = field(default_factory=list)

    def note(self, *event: Any) -> None:
        self.events.append(event)


def collect(env, message, timeout: int, take: Callable[[Any], Any], retries: int):
    """Broadcast `message` and pass each reply envelope to `take`, then None
    once the attempt's `timeout` runs out; rebroadcast up to `retries` times.

    Returns the first value other than None that `take` returns, or None."""
    for _attempt in range(retries):
        env.broadcast(message)
        deadline = env.now + timeout
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


def wait_until(env, ready: Callable[[], bool], step: int, limit: int):
    """Sleep `step` ticks at a time until ready() or `limit` ticks have passed."""
    waited = 0
    while not ready() and waited < limit:
        yield env.sleep(step)
        waited += step


def gather_votes(env, committee: Committee, message, accept: Callable[[Any], bool],
                 timeout: int, log: DriverLog, retries: int = 8):
    """Broadcast and collect votes until 2f+1 agree on one statement.

    Returns a Certificate or None. Votes accumulate across retries; authority
    votes are idempotent so rebroadcasts can only fill in gaps.
    """
    votes: dict[bytes, dict[int, Any]] = {}

    def take(envelope):
        payload = envelope.payload if envelope is not None else None
        if isinstance(payload, VoteReply) and accept(payload.value):
            bucket = votes.setdefault(value_digest(payload.value), {})
            bucket[payload.vote.signer] = payload.vote
            if len(bucket) >= committee.quorum:
                try:
                    return aggregate_certificate(committee, payload.value, bucket.values())
                except ProtocolError:
                    bucket.clear()  # junk votes; start this bucket over
        elif isinstance(payload, ErrorReply):
            log.note("error", envelope.src, payload.code, payload.detail)
        return None

    return (yield from collect(env, message, timeout, take, retries))


def broadcast_until_acked(env, committee: Committee, message, timeout: int):
    """Deliver a certificate-bearing message until 2f+1 authorities acknowledge."""
    acked: set[str] = set()

    def take(envelope):
        if envelope is not None and isinstance(envelope.payload, AckReply):
            acked.add(envelope.src)
        return True if len(acked) >= committee.quorum else None

    return (yield from collect(env, message, timeout, take, 8)) is not None


def request_votes(env, committee: Committee, entry: WalletEntry, request: Request,
                  timeout: int, log: DriverLog):
    """Sign an account request with its owner's key and certify it."""
    auth = authenticate(request, entry.pk, entry.signer)
    return (yield from gather_votes(
        env, committee, HandleRequestMsg(auth), lambda v: v == request, timeout, log,
    ))


def certified_operation(env, committee: Committee, wallet: Wallet, uid: AccountId,
                        op, timeout: int, log: DriverLog):
    """Run one account operation end to end: vote quorum, then confirmation."""
    entry = wallet[uid]
    request = execute_request(uid, entry.next_sequence, op)
    cert = yield from request_votes(env, committee, entry, request, timeout, log)
    if cert is None:
        return None
    ok = yield from broadcast_until_acked(env, committee, ConfirmMsg(cert), timeout)
    if not ok:
        return None
    entry.next_sequence += 1
    return cert


def query_views(env, committee: Committee, swid: AccountId, timeout: int):
    """One round of instance queries; returns the InstanceViewReply list."""
    views: dict[str, InstanceViewReply] = {}

    def take(envelope):
        if envelope is not None and isinstance(envelope.payload, InstanceViewReply):
            views[envelope.src] = envelope.payload
        return True if len(views) >= committee.quorum else None

    yield from collect(env, QueryInstanceMsg(swid), timeout, take, 1)
    return list(views.values())


def drive_round(env, committee: Committee, swid: AccountId, leader_signer: Signer,
                desired: DecisionValue, lock1: Optional[Certificate],
                lock2: Optional[Certificate], deadline: int, delta: int,
                schedule: RoundSchedule, timeout: int, log: DriverLog,
                flip_flop: bool = False):
    """Lead consensus rounds until a commit certificate exists.

    Honest leaders adopt any locked pre-commit they observe (its decision wins
    even over their own preference); a flip-flopping adversary instead keeps
    proposing alternating decisions at fresh rounds.
    """
    attempt = 0
    while env.now < deadline:
        attempt += 1
        views = yield from query_views(env, committee, swid, timeout)
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
                env, committee, PreCommitMsg(best_locked),
                lambda v: v == CommitStatement(locked_p), timeout, log, retries=2,
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
            env, committee, ProposalMsg(auth, lock1, lock2),
            lambda v: v == PreCommitStatement(proposal), timeout, log, retries=2,
        )
        if pre is None:
            continue
        commit = yield from gather_votes(
            env, committee, PreCommitMsg(pre),
            lambda v: v == CommitStatement(proposal), timeout, log, retries=2,
        )
        if commit is not None:
            return ("committed", commit)
    return ("stalled", None)


# -- swap choreography -----------------------------------------------------------


@dataclass
class SwapContext:
    """Off-chain coordination state shared by one swap's participants."""

    id1: AccountId
    n1: int
    id2: AccountId
    n2: int
    swid: Optional[AccountId] = None
    creation_cert: Optional[Certificate] = None
    locks: dict[int, Certificate] = field(default_factory=dict)
    commit: Optional[Certificate] = None
    outcome: dict[str, Any] = field(default_factory=dict)


def broker_script(env, committee: Committee, wallet: Wallet, broker_id: AccountId,
                  ctx: SwapContext, timeout: int, log: DriverLog):
    """Create the consensus instance and publish its creation certificate."""
    entry = wallet[broker_id]
    swid = broker_id.child(entry.next_sequence)
    op = StartConsensusInstance(swid, ctx.id1, ctx.n1, ctx.id2, ctx.n2)
    cert = yield from certified_operation(env, committee, wallet, broker_id, op, timeout, log)
    if cert is None:
        log.note("broker_failed", str(swid))
        ctx.outcome["broker"] = "failed"
        return
    ctx.swid = swid
    ctx.creation_cert = cert
    ctx.outcome["broker"] = "created"
    log.note("instance_created", str(swid))


def swap_owner_script(env, committee: Committee, wallet: Wallet, uid: AccountId,
                      role: int, ctx: SwapContext, handover: Signer,
                      timeout: int, delta: int, schedule: RoundSchedule,
                      log: DriverLog, *, behavior: str, drives: bool,
                      desired: Optional[DecisionValue], lock_wait: int, deadline: int):
    """One owner's whole swap: lock, exchange certificates, lead, finalize.

    `behavior` is "honest", "flip_flop" (lead with alternating decisions) or
    "no_lock" (neither lock nor lead, only finalize)."""
    yield from wait_until(env, lambda: ctx.swid is not None, 50, deadline - env.now)
    if ctx.swid is None:
        log.note("no_instance", str(uid))
        ctx.outcome[f"owner{role}"] = "no_instance"
        return
    swid = ctx.swid

    locking = behavior != "no_lock"
    if locking:
        # The lock pins this account's sequence number until the commit unlocks it.
        entry = wallet[uid]
        request = lock_request(uid, entry.next_sequence, LockInto(swid, role, handover.public_key))
        lock = yield from request_votes(env, committee, entry, request, timeout, log)
        if lock is None:
            log.note("lock_failed", str(uid))
            ctx.outcome[f"owner{role}"] = "lock_failed"
            return
        ctx.locks[role] = lock
        log.note("locked", str(uid), role)

    yield from wait_until(env, lambda: len(ctx.locks) == 2, 100, lock_wait)
    lock1 = ctx.locks.get(1)
    lock2 = ctx.locks.get(2)

    if desired is None:
        desired = DecisionValue.CONFIRM if (lock1 and lock2) else DecisionValue.ABORT

    if drives and locking:
        status, commit = yield from drive_round(
            env, committee, swid, handover, desired, lock1, lock2,
            deadline, delta, schedule, timeout, log, flip_flop=behavior == "flip_flop",
        )
        log.note("drive", str(uid), status)
        if commit is not None:
            ctx.commit = commit
    yield from wait_until(env, lambda: ctx.commit is not None, 100, lock_wait * 2)
    if ctx.commit is None:
        ctx.outcome.setdefault(f"owner{role}", "stalled")
        return
    ok = yield from broadcast_until_acked(
        env, committee, CommitMsg(ctx.commit, ctx.locks.get(1), ctx.locks.get(2)), timeout
    )
    decision = ctx.commit.value.proposal.decision
    ctx.outcome[f"owner{role}"] = decision.name if ok else "finalize_failed"
    if decision == DecisionValue.CONFIRM:
        # This owner now controls the counterparty account with the key it handed over.
        other = ctx.id2 if role == 1 else ctx.id1
        other_n = (ctx.n2 if role == 1 else ctx.n1) + 1
        wallet.add(other, handover, next_sequence=other_n)
    elif locking:
        wallet[uid].next_sequence += 1  # the abort unlock consumed the lock's slot
    log.note("finalized", str(uid), decision.name)


# -- asset choreography -----------------------------------------------------------


def certify_asset(env, committee: Committee, wallet: Wallet, uid: AccountId,
                  data: bytes, timeout: int, log: DriverLog):
    entry = wallet[uid]
    req = AssetCertifyRequest(id=uid, n=entry.next_sequence, data=data)
    auth = authenticate(req, entry.pk, entry.signer)
    return (yield from gather_votes(
        env, committee, CertifyAssetMsg(auth),
        lambda v: getattr(v, "id", None) == uid and getattr(v, "data", None) == data,
        timeout, log,
    ))


def transmute(env, committee: Committee, wallet: Wallet, fexec: str, params: bytes,
              input_ids: list[AccountId], input_assets: list[Certificate],
              out_count: int, timeout: int, log: DriverLog):
    """Spend the input assets through an execution function; returns the
    output asset certificates (or None on failure)."""
    commitment = spend_commitment(params)
    spends = []
    for uid in input_ids:
        entry = wallet[uid]
        request = execute_request(uid, entry.next_sequence, Spend(commitment))
        spends.append(authenticate(request, entry.pk, entry.signer))
    outputs = derive_outputs(spends[0].payload, out_count)
    req = TransmuteRequest(
        fexec=fexec, params=params, spends=tuple(spends),
        inputs=tuple(input_assets), outputs=outputs,
    )
    votes: dict[bytes, dict[int, Any]] = {}
    values: dict[bytes, Any] = {}

    def certify(out_id: AccountId) -> Optional[Certificate]:
        done = None
        for digest, bucket in votes.items():
            if values[digest].id == out_id and len(bucket) >= committee.quorum:
                try:
                    done = aggregate_certificate(committee, values[digest], bucket.values())
                except ProtocolError:
                    continue
        return done

    def take(envelope):
        if envelope is None:  # the attempt is over: is every output certified?
            certs = [certify(out_id) for out_id in outputs]
            return certs if None not in certs else None
        payload = envelope.payload
        if isinstance(payload, TransmuteReply):
            for binding, vote in payload.items:
                digest = value_digest(binding)
                values[digest] = binding
                votes.setdefault(digest, {})[vote.signer] = vote
        elif isinstance(payload, ErrorReply):
            log.note("error", envelope.src, payload.code, payload.detail)
        return None

    certs = yield from collect(env, TransmuteMsg(req), timeout, take, 8)
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


def bidder_script(env, committee: Committee, wallet: Wallet, uid: AccountId,
                  bid: int, deposit: int, ctx: AuctionContext,
                  tpke_public: tpke.TpkePublic, rng, timeout: int, log: DriverLog):
    yield from wait_until(env, lambda: ctx.auction_id is not None, 50, 60_000)
    if ctx.auction_id is None:
        log.note("no_auction", str(uid))
        return
    auction_id = ctx.auction_id
    entry = wallet[uid]
    proof = yield from certified_operation(
        env, committee, wallet, uid, Transfer(dest=auction_id, value=deposit), timeout, log
    )
    if proof is None:
        log.note("deposit_failed", str(uid))
        return
    ciphertext = tpke.encrypt(tpke_public, bid, rng=rng, aad=auction_aad(auction_id))
    req = SubmitBidRequest(
        auction_id=auction_id, bidder=uid, bidder_pk=entry.pk,
        ciphertext=ciphertext, deposit=deposit, deposit_proof=proof,
    )
    auth = authenticate(req, entry.pk, entry.signer)
    cert = yield from gather_votes(
        env, committee, SubmitBidMsg(auth),
        lambda v: getattr(v, "bidder", None) == uid, timeout, log,
    )
    if cert is None:
        log.note("bid_failed", str(uid))
        return
    ctx.bid_certs.append(cert)  # handed to the seller off-chain
    log.note("bid_submitted", str(uid), bid, deposit)


def seller_script(env, committee: Committee, wallet: Wallet, uid: AccountId,
                  item: AccountId, rule, ctx: AuctionContext,
                  tpke_public: tpke.TpkePublic, timeout: int, log: DriverLog,
                  *, behavior: str, bid_wait: int):
    entry = wallet[uid]
    auction_id = uid.child(entry.next_sequence)
    created = yield from certified_operation(
        env, committee, wallet, uid, CreateAuction(auction_id, item, rule), timeout, log
    )
    if created is None:
        log.note("auction_create_failed", str(uid))
        return
    ctx.auction_id = auction_id

    yield from wait_until(env, lambda: len(ctx.bid_certs) >= ctx.expected_bidders, 200, bid_wait)

    eob_req = EndOfBiddingRequest(auction_id=auction_id, bids=tuple(ctx.bid_certs))
    auth = authenticate(eob_req, entry.pk, entry.signer)
    eob_cert = yield from gather_votes(
        env, committee, EndOfBiddingMsg(auth),
        lambda v: getattr(v, "auction_id", None) == auction_id and hasattr(v, "bids"),
        timeout, log,
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
    shares_by_auth: dict[str, SharesReply] = {}

    def take(envelope):
        if envelope is None:  # the attempt is over: settle for a quorum
            return True if len(shares_by_auth) >= committee.quorum else None
        if isinstance(envelope.payload, SharesReply):
            shares_by_auth[envelope.src] = envelope.payload
        return True if len(shares_by_auth) == committee.n else None

    yield from collect(env, SharesQueryMsg(eob_cert), timeout, take, 6)
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

    eoa_req = EndOfAuctionRequest(auction_id=auction_id, openings=tuple(openings))
    auth = authenticate(eoa_req, entry.pk, entry.signer)
    eoa_cert = yield from gather_votes(
        env, committee, EndOfAuctionMsg(auth, eob_cert),
        lambda v: getattr(v, "auction_id", None) == auction_id and hasattr(v, "values"),
        timeout, log,
    )
    if eoa_cert is None:
        ctx.outcome["seller"] = "end_of_auction_rejected"
        log.note("end_of_auction_failed", str(uid))
        return
    ok = yield from broadcast_until_acked(
        env, committee, SettleAuctionMsg(eoa_cert, eob_cert), timeout
    )
    ctx.outcome["seller"] = "settled" if ok else "settle_unacked"
    ctx.outcome["values"] = [o.value for o in openings]
    log.note("settled", str(uid), ok)
