"""One-shot swap consensus: safety rules, round availability, handlers."""

import pytest

from bftledger import errors
from bftledger.accounts import AccountId, LockInto, lock_request
from bftledger.committee import authenticate
from bftledger.errors import ProtocolError
from bftledger.swap import (
    CommitStatement,
    DecisionValue,
    InitInstanceEffect,
    PreCommitStatement,
    Proposal,
    RoundSchedule,
    SwapService,
    is_safe_pre_commit,
    is_safe_proposal,
)

ID1 = AccountId(0)
ID2 = AccountId(1)
SWID = AccountId(2, (0,))
CONFIRM = DecisionValue.CONFIRM
ABORT = DecisionValue.ABORT


def proposal(k, v=CONFIRM):
    return Proposal(SWID, k, v)


# -- safety rule tables -------------------------------------------------------
# The rules take (proposed, locked, candidate) as (round, decision) pairs.


def test_fresh_instance_any_proposal_safe():
    assert is_safe_proposal(None, None, (0, ABORT))
    assert is_safe_proposal(None, None, (5, CONFIRM))


def test_rule_a_same_round_different_proposal_unsafe():
    proposed = (2, CONFIRM)
    assert not is_safe_proposal(proposed, None, (2, ABORT))
    assert not is_safe_proposal(proposed, None, (1, ABORT))
    assert is_safe_proposal(proposed, None, (3, ABORT))


def test_rule_a_revote_of_stored_proposal_is_safe():
    stored = (2, CONFIRM)
    assert is_safe_proposal(stored, None, stored)


def test_rule_b_locked_forces_decision_and_round():
    locked = (1, CONFIRM)
    assert not is_safe_proposal(None, locked, (2, ABORT))  # decision mismatch
    assert not is_safe_proposal(None, locked, (1, CONFIRM))  # round not higher
    assert is_safe_proposal(None, locked, (2, CONFIRM))


def test_rule_c_precommit_below_proposed_unsafe():
    proposed = (3, ABORT)
    assert not is_safe_pre_commit(proposed, None, (2, ABORT))
    assert is_safe_pre_commit(proposed, None, (3, ABORT))  # equal round allowed


def test_rule_d_precommit_below_locked_unsafe():
    locked = (2, CONFIRM)
    assert not is_safe_pre_commit(None, locked, (1, ABORT))
    assert is_safe_pre_commit(None, locked, (2, ABORT))


def test_fresh_instance_precommit_safe():
    assert is_safe_pre_commit(None, None, (0, ABORT))


# -- round availability --------------------------------------------------------


def oracle_release_times(created, interval, escalation, upto):
    """Independent oracle: accumulate the doubling gap sequence directly.

    Gaps stay at one interval through the escalation round, then double each
    round: the first slow round costs one extra interval, the next two, then
    four, so round escalation+j lands interval*(2**j - 1) past the escalation
    point (a geometric sum)."""
    times = [created]
    for k in range(1, upto + 1):
        if k <= escalation:
            times.append(times[-1] + interval)
        else:
            times.append(times[-1] + interval * (2 ** (k - escalation - 1)))
    return times


def test_round_schedule_matches_geometric_oracle():
    schedule = RoundSchedule(interval=1000, escalation_round=3)
    oracle = oracle_release_times(5000, 1000, 3, 10)
    for k, expected in enumerate(oracle):
        assert schedule.release_time(5000, k) == expected
        assert schedule.is_available(5000, k, expected)
        assert not schedule.is_available(5000, k, expected - 1)


def test_round_zero_available_at_creation():
    schedule = RoundSchedule(interval=1000, escalation_round=8)
    assert schedule.is_available(0, 0, 0)
    assert not schedule.is_available(0, 1, 999)


def test_linear_phase_floor_semantics():
    # 2 elapsed seconds at 1s interval releases rounds 0..2 only.
    schedule = RoundSchedule(interval=1000, escalation_round=8)
    assert schedule.is_available(0, 2, 2000)
    assert not schedule.is_available(0, 3, 2000)


def test_escalation_extra_delay():
    # Two rounds past escalation need interval*(2**2 - 1) beyond the
    # escalation point.
    schedule = RoundSchedule(interval=1000, escalation_round=4)
    escalation_point = 4 * 1000
    release = schedule.release_time(0, 6)
    assert release == escalation_point + 1000 * (2 ** 2 - 1)


def test_huge_rounds_rejected():
    schedule = RoundSchedule()
    assert not schedule.is_available(0, 1 << 62, 10 ** 15)
    assert not schedule.is_available(0, -1, 10 ** 15)


# -- service handlers -----------------------------------------------------------


def creation_cert(harness):
    return harness.certify(lock_request(ID1, 1, LockInto(SWID, 1, b"x")))  # any cert


def make_service(harness, parity=False):
    service = SwapService(harness.committee, parity_leader=parity)
    service.init_instance(
        InitInstanceEffect(target=SWID, id1=ID1, n1=1, id2=ID2, n2=0, cert=creation_cert(harness)),
        now=0,
    )
    return service


def lock_cert(harness, role, pk, uid=None, n=None):
    uid = (ID1 if role == 1 else ID2) if uid is None else uid
    n = (1 if role == 1 else 0) if n is None else n
    return harness.certify(lock_request(uid, n, LockInto(SWID, role, pk)))


def test_init_instance_idempotent_and_tombstoned(harness):
    service = make_service(harness)
    inst = service.instances[SWID]
    assert inst.pk1 is None and inst.pk2 is None  # fresh instances hold no keys
    assert inst.proposed is None and inst.locked is None
    effect = InitInstanceEffect(target=SWID, id1=ID2, n1=9, id2=ID1, n2=9, cert=creation_cert(harness))
    service.init_instance(effect, now=50)
    assert service.instances[SWID] is inst  # redelivery does not reset
    commit = harness.certify(CommitStatement(proposal(0, ABORT)))
    service.handle_commit(commit, None, None)
    assert SWID not in service.instances
    service.init_instance(effect, now=60)
    assert SWID not in service.instances  # deleted instances never resurrect


def test_proposal_happy_path_abort(harness):
    service = make_service(harness)
    owner1 = harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    p = proposal(0, ABORT)
    auth = authenticate(p, owner1.public_key, owner1)
    statement = service.handle_proposal(auth, l1, None, now=0)
    assert statement == PreCommitStatement(p)
    assert service.instances[SWID].proposed == p
    assert service.instances[SWID].pk1 == owner1.public_key
    # exact resubmission re-votes instead of failing rule (a)
    assert service.handle_proposal(auth, l1, None, now=0) == statement


def test_confirm_requires_both_locks(harness):
    service = make_service(harness)
    owner1 = harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    auth = authenticate(proposal(0, CONFIRM), owner1.public_key, owner1)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(auth, l1, None, now=0)
    assert exc.value.code == errors.INVALID_CONFIRM


def test_proposer_must_hold_a_lock(harness):
    service = make_service(harness)
    owner1, stranger = harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    auth = authenticate(proposal(0, ABORT), stranger.public_key, stranger)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(auth, l1, None, now=0)
    assert exc.value.code == errors.NOT_A_LOCKED_OWNER


def test_bad_lock_cert_rejected(harness):
    service = make_service(harness)
    owner1 = harness.keypair()
    wrong_n = lock_cert(harness, 1, owner1.public_key, n=5)
    auth = authenticate(proposal(0, ABORT), owner1.public_key, owner1)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(auth, wrong_n, None, now=0)
    assert exc.value.code == errors.BAD_LOCK_CERT


def test_round_availability_enforced(harness):
    service = make_service(harness)
    owner1 = harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    auth = authenticate(proposal(3, ABORT), owner1.public_key, owner1)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(auth, l1, None, now=2000)  # only rounds 0..2 released
    assert exc.value.code == errors.ROUND_UNAVAILABLE
    assert service.handle_proposal(auth, l1, None, now=3000) == PreCommitStatement(
        proposal(3, ABORT)
    )


def test_unsafe_proposal_rejected(harness):
    service = make_service(harness)
    owner1 = harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    first = authenticate(proposal(1, ABORT), owner1.public_key, owner1)
    service.handle_proposal(first, l1, None, now=5000)
    # a different proposal at a non-higher round violates rule (a)
    second = authenticate(proposal(0, ABORT), owner1.public_key, owner1)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(second, l1, None, now=5000)
    assert exc.value.code == errors.UNSAFE


def test_pre_commit_votes_and_locks(harness):
    service = make_service(harness)
    cert = harness.certify(PreCommitStatement(proposal(0, ABORT)))
    statement = service.handle_pre_commit(cert)
    assert statement == CommitStatement(proposal(0, ABORT))
    assert service.instances[SWID].locked == cert


def test_pre_commit_below_locked_round_unsafe(harness):
    service = make_service(harness)
    service.handle_pre_commit(harness.certify(PreCommitStatement(proposal(2, ABORT))))
    low = harness.certify(PreCommitStatement(proposal(1, ABORT)))
    with pytest.raises(ProtocolError) as exc:
        service.handle_pre_commit(low)
    assert exc.value.code == errors.UNSAFE


def test_pre_commit_unknown_instance(harness):
    service = SwapService(harness.committee)
    cert = harness.certify(PreCommitStatement(proposal(0, ABORT)))
    with pytest.raises(ProtocolError) as exc:
        service.handle_pre_commit(cert)
    assert exc.value.code == errors.UNKNOWN_INSTANCE


def test_commit_confirm_swaps_keys(harness):
    service = make_service(harness)
    owner1, owner2 = harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    l2 = lock_cert(harness, 2, owner2.public_key)
    auth = authenticate(proposal(0, CONFIRM), owner1.public_key, owner1)
    service.handle_proposal(auth, l1, l2, now=0)
    commit = harness.certify(CommitStatement(proposal(0, CONFIRM)))
    effects = service.handle_commit(commit, None, None)
    assert SWID not in service.instances
    by_target = {e.target: e for e in effects}
    assert by_target[ID1].n == 1 and by_target[ID1].new_pk == owner2.public_key
    assert by_target[ID2].n == 0 and by_target[ID2].new_pk == owner1.public_key


def test_commit_abort_unlocks_via_attached_cert_after_deletion(harness):
    """Early instance deletion must not strand a locked account: an abort
    commit with the lock certificate attached still unlocks it."""
    service = make_service(harness)
    commit = harness.certify(CommitStatement(proposal(0, ABORT)))
    assert service.handle_commit(commit, None, None) == []  # nothing locked here
    assert SWID not in service.instances
    owner1 = harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    effects = service.handle_commit(commit, l1, None)
    (unlock,) = effects
    assert unlock.target == ID1 and unlock.n == 1 and unlock.new_pk is None


def test_commit_confirm_after_deletion_requires_both_certs(harness):
    service = make_service(harness)
    owner1, owner2 = harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    l2 = lock_cert(harness, 2, owner2.public_key)
    commit = harness.certify(CommitStatement(proposal(0, CONFIRM)))
    service.handle_commit(commit, None, None)  # deletes the instance
    assert service.handle_commit(commit, l1, None) == []
    effects = service.handle_commit(commit, l1, l2)
    assert {e.target for e in effects} == {ID1, ID2}
    assert {e.new_pk for e in effects} == {owner1.public_key, owner2.public_key}


def test_commit_abort_ignores_instance_consistency(harness):
    # Abort attachments are deliberately not matched against instance fields.
    service = make_service(harness)
    owner = harness.keypair()
    foreign = harness.certify(lock_request(AccountId(9), 4, LockInto(SWID, 1, owner.public_key)))
    commit = harness.certify(CommitStatement(proposal(0, ABORT)))
    effects = service.handle_commit(commit, foreign, None)
    (unlock,) = effects
    assert unlock.target == AccountId(9) and unlock.n == 4


def test_parity_leader_restriction(harness):
    service = make_service(harness)
    service.parity_leader = True
    service.schedule = RoundSchedule(interval=10, escalation_round=0)
    owner1, owner2 = harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    l2 = lock_cert(harness, 2, owner2.public_key)
    # round 1 is odd: reserved for owner 2
    auth1 = authenticate(proposal(1, CONFIRM), owner1.public_key, owner1)
    with pytest.raises(ProtocolError) as exc:
        service.handle_proposal(auth1, l1, l2, now=10 ** 6)
    assert exc.value.code == errors.ROUND_UNAVAILABLE
    auth2 = authenticate(proposal(1, CONFIRM), owner2.public_key, owner2)
    assert service.handle_proposal(auth2, l1, l2, now=10 ** 6) == PreCommitStatement(
        proposal(1, CONFIRM)
    )


def test_service_accepts_exactly_what_the_rules_accept(harness):
    """Over every (proposed, locked, candidate) with rounds <= 2, a proposal is
    voted iff rules (a)/(b) allow it or it re-votes the stored proposal, and a
    pre-commit certificate iff rules (c)/(d) allow it."""
    owner1, owner2 = harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    l2 = lock_cert(harness, 2, owner2.public_key)
    creation = creation_cert(harness)
    pairs = [(k, v) for k in range(3) for v in (CONFIRM, ABORT)]
    signed = {pv: authenticate(proposal(*pv), owner1.public_key, owner1) for pv in pairs}
    precommits = {pv: harness.certify(PreCommitStatement(proposal(*pv))) for pv in pairs}

    def service_at(proposed, locked):
        service = SwapService(harness.committee)
        service.init_instance(
            InitInstanceEffect(target=SWID, id1=ID1, n1=1, id2=ID2, n2=0, cert=creation), now=0
        )
        inst = service.instances[SWID]
        inst.proposed = None if proposed is None else proposal(*proposed)
        inst.locked = None if locked is None else precommits[locked]
        return service, inst

    def accepted(call):
        try:
            call()
        except ProtocolError as exc:
            assert exc.code == errors.UNSAFE
            return False
        return True

    for proposed in [None] + pairs:
        for locked in [None] + pairs:
            for pv in pairs:
                service, inst = service_at(proposed, locked)
                voted = accepted(lambda: service.handle_proposal(signed[pv], l1, l2, now=10 ** 6))
                assert voted == (pv == proposed or is_safe_proposal(proposed, locked, pv)), (
                    proposed, locked, pv)
                if voted:
                    assert inst.proposed == proposal(*pv)
                service, inst = service_at(proposed, locked)
                voted = accepted(lambda: service.handle_pre_commit(precommits[pv]))
                assert voted == is_safe_pre_commit(proposed, locked, pv), (proposed, locked, pv)
                if voted:
                    assert inst.locked is precommits[pv]


def test_commit_confirm_on_live_instance_ignores_foreign_lock_cert(harness):
    """A Confirm commit on a live instance takes an attached lock certificate
    only for the instance's own (id, n); other certificates, valid as they
    are, leave the unlocks to the instance data."""
    service = make_service(harness)
    owner1, owner2, other = harness.keypair(), harness.keypair(), harness.keypair()
    l1 = lock_cert(harness, 1, owner1.public_key)
    l2 = lock_cert(harness, 2, owner2.public_key)
    service.handle_proposal(authenticate(proposal(0, CONFIRM), owner1.public_key, owner1), l1, l2, now=0)
    foreign_id = lock_cert(harness, 1, other.public_key, uid=AccountId(9))
    foreign_n = lock_cert(harness, 2, other.public_key, n=7)
    commit = harness.certify(CommitStatement(proposal(0, CONFIRM)))
    effects = service.handle_commit(commit, foreign_id, foreign_n)
    assert SWID not in service.instances
    assert sorted((e.target, e.n, e.new_pk) for e in effects) == sorted(
        [(ID1, 1, owner2.public_key), (ID2, 0, owner1.public_key)]
    )
