"""Audit machinery: clean runs pass; a corrupted committee and an unsafe
credit are flagged. Authorities accept internal effects only from
themselves."""

import random

from bftledger import audit, errors, keys
from bftledger.accounts import (
    AccountId,
    CreditEffect,
    EscrowDebitEffect,
    LockInto,
    SetOwnerEffect,
    StartConsensusInstance,
    Transfer,
    execute_request,
    lock_request,
)
from bftledger.algebra import ScalarUpdate
from bftledger.auction import EndOfAuctionStatement
from bftledger.authority import ArbitrarySigner, Authority
from bftledger.committee import Certificate, Committee, aggregate_certificate, authenticate, make_vote
from bftledger.messages import CommitMsg, ConfirmMsg, ErrorReply, PreCommitMsg, ProposalMsg, VoteReply
from bftledger.sim import NetConfig, Simulator
from bftledger.swap import CommitStatement, DecisionValue, PreCommitStatement, Proposal


def build_corrupt_world():
    """Two byzantine signers (beyond f=1, deliberately) plus two honest ones."""
    rng = random.Random(31)
    signers = [keys.mac_keypair(rng) for _ in range(4)]
    committee = Committee(tuple(s.public_key for s in signers))
    authorities = [
        Authority(0, signers[0], committee),
        Authority(1, signers[1], committee),
        ArbitrarySigner(2, signers[2], committee),
        ArbitrarySigner(3, signers[3], committee),
    ]
    sim = Simulator(seed=5, net=NetConfig(), budget=120_000)
    for a in authorities:
        sim.add_authority(a)
    return sim, committee, signers, authorities, rng


def certify_all(committee, signers, value):
    votes = [make_vote(i, signers[i], value) for i in range(4)]
    return aggregate_certificate(committee, value, votes)


def test_double_signing_committee_flagged_by_agreement_audit():
    """Negative control: with two equivocating authorities the adversary can
    assemble conflicting commit certificates, and the audit must say so."""
    sim, committee, signers, authorities, rng = build_corrupt_world()
    alice, bob, broker = AccountId(0), AccountId(1), AccountId(2)
    owner1, owner2, broker_key = (keys.mac_keypair(rng) for _ in range(3))
    for a in authorities:
        a.ledger.init_account(alice, owner1.public_key)
        a.ledger.init_account(bob, owner2.public_key)
        a.ledger.init_account(broker, broker_key.public_key)
    swid = broker.child(0)
    creation = certify_all(
        committee, signers,
        execute_request(broker, 0, StartConsensusInstance(swid, alice, 0, bob, 0)),
    )
    lock1 = certify_all(committee, signers, lock_request(alice, 0, LockInto(swid, 1, owner1.public_key)))
    lock2 = certify_all(committee, signers, lock_request(bob, 0, LockInto(swid, 2, owner2.public_key)))

    def attack(env):
        env.broadcast(ConfirmMsg(creation))
        yield env.sleep(2000)

        def propose_to(subset, proposal, signer):
            auth = authenticate(proposal, signer.public_key, signer)
            for dest in subset:
                env.send(dest, ProposalMsg(auth, lock1, lock2))

        def collect(expected, count):
            votes = {}
            while len(votes) < count:
                envelope = yield env.recv(timeout=3000)
                if envelope is None:
                    break
                payload = envelope.payload
                if isinstance(payload, VoteReply) and payload.value == expected:
                    votes[payload.vote.signer] = payload.vote
            return votes

        p_confirm = Proposal(swid, 0, DecisionValue.CONFIRM)
        p_abort = Proposal(swid, 0, DecisionValue.ABORT)
        propose_to(["auth:0", "auth:2", "auth:3"], p_confirm, owner1)
        votes = yield from collect(PreCommitStatement(p_confirm), 3)
        pre_confirm = aggregate_certificate(committee, PreCommitStatement(p_confirm), votes.values())
        propose_to(["auth:1", "auth:2", "auth:3"], p_abort, owner2)
        votes = yield from collect(PreCommitStatement(p_abort), 3)
        pre_abort = aggregate_certificate(committee, PreCommitStatement(p_abort), votes.values())

        for dest in ("auth:0", "auth:2", "auth:3"):
            env.send(dest, PreCommitMsg(pre_confirm))
        votes = yield from collect(CommitStatement(p_confirm), 3)
        commit_confirm = aggregate_certificate(committee, CommitStatement(p_confirm), votes.values())
        for dest in ("auth:1", "auth:2", "auth:3"):
            env.send(dest, PreCommitMsg(pre_abort))
        votes = yield from collect(CommitStatement(p_abort), 3)
        commit_abort = aggregate_certificate(committee, CommitStatement(p_abort), votes.values())
        env.broadcast(CommitMsg(commit_confirm, lock1, lock2))
        env.broadcast(CommitMsg(commit_abort, lock1, lock2))
        yield env.sleep(2000)

    sim.add_client("client:attack", attack)
    sim.start_client_at("client:attack", 0)
    sim.run()

    result = audit.audit_agreement(sim, committee)
    assert not result.passed
    assert "swid" in result.violations[0]


def test_clean_world_audits_pass():
    rng = random.Random(32)
    signers = [keys.mac_keypair(rng) for _ in range(4)]
    committee = Committee(tuple(s.public_key for s in signers))
    sim = Simulator(seed=6, net=NetConfig(), budget=60_000)
    authorities = [Authority(i, signers[i], committee) for i in range(4)]
    alice, bob = AccountId(0), AccountId(1)
    owner = keys.mac_keypair(rng)
    total = 0
    for a in authorities:
        a.ledger.init_account(alice, owner.public_key, balance=40)
        a.ledger.init_account(bob, None)
        sim.add_authority(a)
    total = 40

    def client(env):
        from bftledger.accounts import Transfer
        from bftledger.drivers import Wallet, certified_operation, DriverLog

        wallet = Wallet()
        wallet.add(alice, owner)
        yield from certified_operation(
            env, committee, wallet, alice, Transfer(bob, 15), 1000, log=DriverLog()
        )

    sim.add_client("client:x", client)
    sim.start_client_at("client:x", 0)
    sim.run()
    for result in audit.run_standard_audits(sim, committee, total):
        assert result.passed, (result.name, result.violations)



def build_honest_world(seed):
    """Four honest authorities that each hold account 0 with balance 10."""
    rng = random.Random(seed)
    signers = [keys.mac_keypair(rng) for _ in range(4)]
    committee = Committee(tuple(s.public_key for s in signers))
    sim = Simulator(seed=seed, net=NetConfig(), budget=60_000)
    owner = keys.mac_keypair(rng)
    for i in range(4):
        authority = Authority(i, signers[i], committee)
        authority.ledger.init_account(AccountId(0), owner.public_key, balance=10)
        sim.add_authority(authority)
    return sim, owner, rng


# A certificate without votes: nothing that checks certificates accepts it.
JUNK_CERT = Certificate(value=Transfer(AccountId(0), 1), votes=())


def test_unsafe_internal_credit_flagged_by_credit_safety_audit():
    """Negative control: a self-addressed credit with an unsafe update (a
    negative amount to a balance account) fails remote_update_safety."""
    sim, _owner, _rng = build_honest_world(33)
    sim.post("auth:0", "auth:0", CreditEffect(AccountId(0), ScalarUpdate(-5), JUNK_CERT))
    sim.run()
    result = audit.audit_credit_safety(sim)
    assert not result.passed
    assert result.violations == [f"unsafe credit to {AccountId(0)}"]


def test_sequence_audit_wants_the_request_at_each_n():
    """Entry i of a confirmed log must be a request at n = i: a swap's unlock
    logs its lock request, and a commit certificate or a request at another n
    in that slot is a violation."""
    sim, owner, _rng = build_honest_world(35)
    swid = AccountId(1).child(0)
    lock = lock_request(AccountId(0), 0, LockInto(swid, 1, owner.public_key))
    commit = CommitStatement(Proposal(swid, 0, DecisionValue.CONFIRM))
    later = lock_request(AccountId(0), 1, LockInto(swid, 1, owner.public_key))
    for value, passed in ((lock, True), (commit, False), (later, False)):
        for authority in sim.authorities.values():
            account = authority.ledger.accounts[AccountId(0)]
            account.confirmed, account.next_sequence = [Certificate(value=value, votes=())], 1
        assert audit.audit_sequences(sim).passed == passed


def test_effects_from_a_client_rejected():
    """A client that sends internal effects can neither mint money nor take
    over an account: every authority answers BadValue and changes nothing."""
    sim, owner, rng = build_honest_world(34)
    thief = keys.mac_keypair(rng)
    replies = []

    def attack(env):
        env.broadcast(CreditEffect(AccountId(0), ScalarUpdate(1_000_000), JUNK_CERT))
        env.broadcast(SetOwnerEffect(AccountId(0), thief.public_key, JUNK_CERT))
        while True:
            envelope = yield env.recv(timeout=2000)
            if envelope is None:
                return
            replies.append(envelope.payload)

    sim.add_client("client:thief", attack)
    sim.start_client_at("client:thief", 0)
    sim.run()
    assert len(replies) == 8
    assert all(isinstance(r, ErrorReply) and r.code == errors.BAD_VALUE for r in replies)
    for authority in sim.authorities.values():
        account = authority.ledger.accounts[AccountId(0)]
        assert (account.balance, account.pk) == (10, owner.public_key)


def test_deferred_escrow_debit_counted_then_applied_once(harness):
    """A settlement's escrow debit that reaches a replica before the deposit
    credit it drains waits in the ledger, where the conservation audit counts
    it as in flight, and is applied exactly once when the credit lands."""
    authority = Authority(0, harness.signers[0], harness.committee)
    sim = Simulator(seed=3)
    sim.add_authority(authority)
    ledger = authority.ledger
    bidder, seller, auction_id = AccountId(0), AccountId(1), AccountId(1).child(0)
    ledger.init_account(bidder, harness.keypair().public_key, balance=10)
    ledger.init_account(seller, harness.keypair().public_key)
    deposit = harness.certify(execute_request(bidder, 0, Transfer(auction_id, 6)))
    (deposit_credit,) = ledger.handle_confirmation(deposit)
    sim.post(authority.name, authority.name, deposit_credit)  # still in flight

    settlement = harness.certify(EndOfAuctionStatement(auction_id=auction_id, values=(6,)))
    debit = EscrowDebitEffect(target=auction_id, amount=6, cert=settlement)
    ledger.apply_escrow_debit(debit)
    ledger.apply_escrow_debit(debit)  # a duplicate waits once
    ledger.apply_credit(CreditEffect(target=seller, update=ScalarUpdate(6), cert=settlement))
    assert ledger.deferred_effects == {auction_id: [debit]}
    assert ledger.accounts[auction_id].balance == 0
    assert audit.audit_conservation(sim, harness.committee, initial_total=10).passed

    sim.run()  # delivers the deposit credit
    escrow = ledger.accounts[auction_id]
    assert escrow.balance == 0 and not ledger.deferred_effects
    assert len(escrow.received) == 2
    ledger.apply_escrow_debit(debit)
    assert escrow.balance == 0 and not ledger.deferred_effects
    assert authority.total_money() == 10
    assert audit.audit_conservation(sim, harness.committee, initial_total=10).passed
