"""Driver-level protocol behavior against a controlled authority world."""

import pytest

from bftledger.accounts import AccountId, LockInto, StartConsensusInstance, execute_request, lock_request
from bftledger.authority import Authority
from bftledger.committee import aggregate_certificate, authenticate
from bftledger.drivers import (Client, DriverLog, broadcast_until_acked, drive_round, gather_votes,
                               replies)
from bftledger.messages import (CommitMsg, HandleRequestMsg, InstanceViewReply, PreCommitMsg,
                                ProposalMsg, QueryInstanceMsg, VoteReply)
from bftledger.sim import NetConfig, Simulator
from bftledger.swap import (
    CommitStatement,
    DecisionValue,
    InitInstanceEffect,
    PreCommitStatement,
    Proposal,
    RoundSchedule,
)

ALICE, BOB, BROKER = AccountId(0), AccountId(1), AccountId(2)
SWID = BROKER.child(0)


def make_client(env, harness, timeout, log=None):
    """A driver's Client over the harness committee, with an empty wallet."""
    return Client(env, harness.committee, {}, timeout, log or DriverLog())


@pytest.fixture
def world(harness):
    sim = Simulator(seed=17, net=NetConfig(min_delay=5, max_delay=30), budget=120_000)
    owner1, owner2 = harness.keypair(), harness.keypair()
    creation = harness.certify(
        execute_request(BROKER, 0, StartConsensusInstance(SWID, ALICE, 0, BOB, 0))
    )
    lock1 = harness.certify(lock_request(ALICE, 0, LockInto(SWID, 1, owner1.public_key)))
    lock2 = harness.certify(lock_request(BOB, 0, LockInto(SWID, 2, owner2.public_key)))
    for i in range(4):
        authority = Authority(i, harness.signers[i], harness.committee)
        authority.swaps.init_instance(
            InitInstanceEffect(target=SWID, id1=ALICE, n1=0, id2=BOB, n2=0, cert=creation),
            now=0,
        )
        sim.add_authority(authority)
    return sim, harness, owner1, owner2, lock1, lock2


def test_driver_adopts_observed_locked_decision(world):
    """A leader that wants Confirm but sees a locked Abort pre-commit must
    broadcast that pre-commit and finish with an Abort commit."""
    sim, harness, owner1, owner2, lock1, lock2 = world
    abort = Proposal(SWID, 0, DecisionValue.ABORT)
    for authority in sim.authorities.values():
        authority.swaps.handle_proposal(
            authenticate(abort, owner2.public_key, owner2), lock1, lock2, now=0
        )
    pre_cert = harness.certify(PreCommitStatement(abort))
    for authority in sim.authorities.values():
        authority.swaps.handle_pre_commit(pre_cert)  # every replica locks Abort

    log = DriverLog()
    outcome = {}

    def leader(env):
        status, commit = yield from drive_round(
            make_client(env, harness, 1000, log), SWID, owner1, DecisionValue.CONFIRM,
            lock1, lock2, deadline=100_000, delta=100, schedule=RoundSchedule(),
        )
        outcome["status"] = status
        outcome["commit"] = commit

    sim.add_client("client:leader", leader)
    sim.start_client_at("client:leader", 0)
    sim.run()

    assert outcome["status"] == "committed"
    assert outcome["commit"].value.proposal.decision == DecisionValue.ABORT
    assert any(e[0] == "conflict_observed" for e in log.events)


def test_gather_votes_tolerates_junk(world):
    sim, harness, owner1, owner2, lock1, lock2 = world
    request = lock_request(ALICE, 0, LockInto(SWID, 1, owner1.public_key))
    # one authority is silenced; the other three still reach quorum
    sim.crash_at["auth:3"] = 0
    result = {}

    def client(env):
        # accounts do not exist at the authorities, so handle_request errors;
        # gather votes on a proposal instead, which only needs the instance
        proposal = Proposal(SWID, 0, DecisionValue.CONFIRM)
        auth = authenticate(proposal, owner1.public_key, owner1)
        cert = yield from gather_votes(
            make_client(env, harness, 1500), ProposalMsg(auth, lock1, lock2),
            PreCommitStatement(proposal),
        )
        result["cert"] = cert

    sim.add_client("client:x", client)
    sim.start_client_at("client:x", 0)
    sim.run()
    assert result["cert"] is not None
    assert len(result["cert"].votes) == 3


def test_drive_round_reports_deleted_instance(world):
    sim, harness, owner1, owner2, lock1, lock2 = world
    commit = harness.certify(CommitStatement(Proposal(SWID, 0, DecisionValue.ABORT)))
    for authority in sim.authorities.values():
        authority.swaps.handle_commit(commit, lock1, lock2)
    outcome = {}

    def leader(env):
        status, cert = yield from drive_round(
            make_client(env, harness, 1000), SWID, owner1, DecisionValue.CONFIRM,
            lock1, lock2, deadline=20_000, delta=100, schedule=RoundSchedule(),
        )
        outcome["status"] = status

    sim.add_client("client:leader", leader)
    sim.start_client_at("client:leader", 0)
    sim.run()
    assert outcome["status"] == "deleted"


def run_counting_broadcasts(sim, step):
    """Run `step(env)` as a client; returns its result and the payloads it broadcast."""
    sent, out = [], {}

    def client(env):
        broadcast = env.broadcast
        env.broadcast = lambda payload: (sent.append(payload), broadcast(payload))
        out["result"] = yield from step(env)

    sim.add_client("client:x", client)
    sim.start_client_at("client:x", 0)
    sim.run()
    return out["result"], sent


def test_broadcast_until_acked_gives_up_without_quorum(world):
    """Two of four authorities crashed: two acks never make 2f+1, so the
    certificate goes out once per attempt, 8 times, and the driver gives up."""
    sim, harness, owner1, owner2, lock1, lock2 = world
    sim.crash_at["auth:2"] = sim.crash_at["auth:3"] = 0
    commit = harness.certify(CommitStatement(Proposal(SWID, 0, DecisionValue.ABORT)))
    message = CommitMsg(commit, lock1, lock2)
    ok, sent = run_counting_broadcasts(
        sim, lambda env: broadcast_until_acked(make_client(env, harness, 500), message)
    )
    assert ok is False
    assert sent == [message] * 8


def test_gather_votes_gives_up_after_its_retries(world):
    sim, harness, owner1, owner2, lock1, lock2 = world
    sim.crash_at["auth:2"] = sim.crash_at["auth:3"] = 0
    proposal = Proposal(SWID, 0, DecisionValue.CONFIRM)
    message = ProposalMsg(authenticate(proposal, owner1.public_key, owner1), lock1, lock2)
    cert, sent = run_counting_broadcasts(
        sim, lambda env: gather_votes(
            make_client(env, harness, 500), message, PreCommitStatement(proposal), retries=2,
        ),
    )
    assert cert is None
    assert sent == [message] * 2


def test_gather_votes_counts_only_the_statement_it_asked_for(world):
    """Every authority votes the proposal's pre-commit statement (no error
    reply is logged); a driver that asks for its commit statement instead
    certifies nothing and gives up."""
    sim, harness, owner1, owner2, lock1, lock2 = world
    proposal = Proposal(SWID, 0, DecisionValue.CONFIRM)
    message = ProposalMsg(authenticate(proposal, owner1.public_key, owner1), lock1, lock2)
    log = DriverLog()
    cert, sent = run_counting_broadcasts(
        sim, lambda env: gather_votes(
            make_client(env, harness, 500, log), message, CommitStatement(proposal), retries=3,
        ),
    )
    assert cert is None and log.events == []
    assert sent == [message] * 3


@pytest.mark.parametrize("crashed, sends", [(("auth:3",), 1), (("auth:2", "auth:3"), 4)])
def test_replies_from_every_authority_settle_for_a_quorum(world, crashed, sends):
    """Asked for all n replies, the gatherer returns at the first timed-out
    attempt that holds 2f+1 of them; below 2f+1 it uses every try."""
    sim, harness, *_ = world
    for name in crashed:
        sim.crash_at[name] = 0
    message = QueryInstanceMsg(SWID)
    got, sent = run_counting_broadcasts(
        sim, lambda env: replies(make_client(env, harness, 500), message, InstanceViewReply,
                                 harness.committee.n, 4),
    )
    assert sorted(got) == sorted({f"auth:{i}" for i in range(4)} - set(crashed))
    assert all(isinstance(reply, InstanceViewReply) for reply in got.values())
    assert sent == [message] * sends
