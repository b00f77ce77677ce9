"""The account state machine: validation, locking, execution, cross-shard effects."""

import pytest

from bftledger import errors
from bftledger.accounts import (
    AccountId,
    ApplyUpdate,
    ChangeKey,
    CreditEffect,
    InitAccountEffect,
    Ledger,
    LockInto,
    OpenAccount,
    RequestKind,
    StartConsensusInstance,
    Transfer,
    UnlockEffect,
    execute_request,
    lock_request,
    validate_operation,
)
from bftledger.algebra import ScalarUpdate
from bftledger.authority import Authority
from bftledger.committee import authenticate
from bftledger.errors import ProtocolError
from bftledger.messages import (AccountInfoReply, ConfirmMsg, HandleRequestMsg, QueryAccountMsg,
                                VoteReply)
from bftledger.swap import InitInstanceEffect

ALICE = AccountId(0)
BOB = AccountId(1)


def fresh_ledger():
    return Ledger(algebra_of=lambda uid: "balance")


@pytest.fixture
def ledger(harness):
    led = fresh_ledger()
    led.init_account(ALICE, harness.keypair().public_key, balance=10)
    return led


def owner_auth(ledger, harness, request, signer):
    return authenticate(request, signer.public_key, signer)


def setup_owned(harness, balance=10):
    led = fresh_ledger()
    owner = harness.keypair()
    led.init_account(ALICE, owner.public_key, balance=balance)
    return led, owner


def test_init_account_defaults(harness):
    led = fresh_ledger()
    acct = led.init_account(ALICE, harness.keypair().public_key)
    assert acct.next_sequence == 0
    assert acct.balance == 0
    assert acct.confirmed == [] and acct.received == set()


def test_init_account_faucet_balance(harness):
    led = fresh_ledger()
    acct = led.init_account(ALICE, harness.keypair().public_key, balance=1000)
    assert acct.balance == 1000


def test_init_account_receiver_without_key(harness):
    led = fresh_ledger()
    acct = led.init_account(BOB, None)
    assert acct.pk is None
    assert acct.balance == 0


def test_init_account_twice_rejected(harness):
    led = fresh_ledger()
    led.init_account(ALICE, harness.keypair().public_key)
    with pytest.raises(ProtocolError) as exc:
        led.init_account(ALICE, harness.keypair().public_key)
    assert exc.value.code == errors.ALREADY_EXISTS


# -- validate_operation ------------------------------------------------------


def test_transfer_over_balance_rejected(harness):
    led, _ = setup_owned(harness, balance=3)
    acct = led.accounts[ALICE]
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, Transfer(BOB, 5))
    assert exc.value.code == errors.INSUFFICIENT_FUNDS


def test_transfer_zero_rejected(harness):
    led, _ = setup_owned(harness)
    acct = led.accounts[ALICE]
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, Transfer(BOB, 0))
    assert exc.value.code == errors.BAD_VALUE


def test_open_account_requires_derived_id(harness):
    led, _ = setup_owned(harness)
    acct = led.accounts[ALICE]
    acct.next_sequence = 7
    validate_operation(acct, ALICE, OpenAccount(ALICE.child(7), b"pk"))
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, OpenAccount(ALICE.child(8), b"pk"))
    assert exc.value.code == errors.BAD_DERIVED_ID


def test_lock_into_yields_lock_request(harness):
    led, _ = setup_owned(harness)
    acct = led.accounts[ALICE]
    op = LockInto(AccountId(5), 1, b"handover")
    validate_operation(acct, ALICE, op)
    assert lock_request(ALICE, 0, op).kind == RequestKind.LOCK


def test_same_account_swap_rejected(harness):
    led, _ = setup_owned(harness)
    acct = led.accounts[ALICE]
    op = StartConsensusInstance(ALICE.child(0), BOB, 0, BOB, 1)
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, op)
    assert exc.value.code == errors.SAME_ACCOUNT_SWAP


# -- handle_request ----------------------------------------------------------


def test_request_locks_and_revotes_idempotently(harness):
    led, owner = setup_owned(harness)
    request = execute_request(ALICE, 0, Transfer(BOB, 4))
    auth = authenticate(request, owner.public_key, owner)
    assert led.handle_request(auth) == request
    assert led.accounts[ALICE].pending == request
    # resubmission of the identical pending request re-votes
    assert led.handle_request(auth) == request
    # a different request at the same account is refused while locked
    other = execute_request(ALICE, 0, Transfer(BOB, 5))
    with pytest.raises(ProtocolError) as exc:
        led.handle_request(authenticate(other, owner.public_key, owner))
    assert exc.value.code == errors.ACCOUNT_BUSY


def test_request_sequence_mismatch(harness):
    led, owner = setup_owned(harness)
    request = execute_request(ALICE, 3, Transfer(BOB, 4))
    with pytest.raises(ProtocolError) as exc:
        led.handle_request(authenticate(request, owner.public_key, owner))
    assert exc.value.code == errors.SEQUENCE_MISMATCH


def test_request_inactive_account(harness):
    led = fresh_ledger()
    led.init_account(ALICE, None)
    owner = harness.keypair()
    request = execute_request(ALICE, 0, Transfer(BOB, 1))
    with pytest.raises(ProtocolError) as exc:
        led.handle_request(authenticate(request, owner.public_key, owner))
    assert exc.value.code == errors.INACTIVE_ACCOUNT


def test_request_bad_auth(harness):
    led, _owner = setup_owned(harness)
    intruder = harness.keypair()
    request = execute_request(ALICE, 0, Transfer(BOB, 1))
    with pytest.raises(ProtocolError) as exc:
        led.handle_request(authenticate(request, intruder.public_key, intruder))
    assert exc.value.code == errors.BAD_AUTH


# -- handle_confirmation + effects --------------------------------------------


def test_confirmation_executes_once(harness):
    led, owner = setup_owned(harness, balance=8)
    request = execute_request(ALICE, 0, Transfer(BOB, 5))
    led.handle_request(authenticate(request, owner.public_key, owner))
    cert = harness.certify(request)
    effects = led.handle_confirmation(cert)
    assert led.accounts[ALICE].balance == 3
    assert led.accounts[ALICE].next_sequence == 1
    assert led.accounts[ALICE].pending is None
    assert led.accounts[ALICE].confirmed == [cert]
    (credit,) = effects
    assert credit == CreditEffect(target=BOB, update=ScalarUpdate(5), cert=cert)
    # replay is a no-op
    assert led.handle_confirmation(cert) == []
    assert led.accounts[ALICE].balance == 3


def test_confirmation_rejects_lock_certificates(harness):
    led, owner = setup_owned(harness)
    request = lock_request(ALICE, 0, LockInto(AccountId(5), 1, b"pk"))
    cert = harness.certify(request)
    with pytest.raises(ProtocolError) as exc:
        led.handle_confirmation(cert)
    assert exc.value.code == errors.LOCK_NOT_ALLOWED


def test_confirmation_parks_until_funds_arrive(harness):
    """A replica that has not yet seen the funding credit defers the debit
    instead of going negative."""
    led, owner = setup_owned(harness, balance=0)
    request = execute_request(ALICE, 0, Transfer(BOB, 5))
    cert = harness.certify(request)
    assert led.handle_confirmation(cert) == []
    assert led.accounts[ALICE].balance == 0
    assert led.accounts[ALICE].parked == cert
    funding = harness.certify(execute_request(BOB, 0, Transfer(ALICE, 7)))
    effects = led.apply_credit(CreditEffect(target=ALICE, update=ScalarUpdate(7), cert=funding))
    assert led.accounts[ALICE].balance == 2  # +7 then the parked -5
    assert led.accounts[ALICE].next_sequence == 1
    (credit,) = effects
    assert credit.target == BOB


def test_apply_update_parks_until_affordable(harness):
    """An ApplyUpdate whose local update would leave the account invalid parks;
    a credit that still does not cover it leaves the parked op unapplied, and
    the credit that does executes it exactly once."""
    led, owner = setup_owned(harness, balance=0)
    request = execute_request(ALICE, 0, ApplyUpdate(BOB, ScalarUpdate(-5), ScalarUpdate(5)))
    cert = harness.certify(request)
    assert led.handle_confirmation(cert) == []
    acct = led.accounts[ALICE]
    assert acct.parked == cert and acct.balance == 0 and acct.next_sequence == 0
    partial = harness.certify(execute_request(BOB, 0, Transfer(ALICE, 3)))
    assert led.apply_credit(CreditEffect(target=ALICE, update=ScalarUpdate(3), cert=partial)) == []
    assert acct.parked == cert and acct.balance == 3
    assert acct.next_sequence == 0 and acct.confirmed == []
    rest = harness.certify(execute_request(BOB, 1, Transfer(ALICE, 4)))
    effects = led.apply_credit(CreditEffect(target=ALICE, update=ScalarUpdate(4), cert=rest))
    assert effects == [CreditEffect(target=BOB, update=ScalarUpdate(5), cert=cert)]
    assert acct.balance == 2 and acct.next_sequence == 1
    assert acct.parked is None and acct.confirmed == [cert]
    # neither a replayed certificate nor a later credit executes it again
    assert led.handle_confirmation(cert) == []
    more = harness.certify(execute_request(BOB, 2, Transfer(ALICE, 1)))
    assert led.apply_credit(CreditEffect(target=ALICE, update=ScalarUpdate(1), cert=more)) == []
    assert acct.balance == 3 and acct.next_sequence == 1


def test_transfer_autocreates_receiver(harness):
    led, owner = setup_owned(harness, balance=8)
    request = execute_request(ALICE, 0, Transfer(BOB, 5))
    cert = harness.certify(request)
    (credit,) = led.handle_confirmation(cert)
    assert BOB not in led.accounts
    led.apply_credit(credit)
    assert led.accounts[BOB].pk is None
    assert led.accounts[BOB].balance == 5
    assert len(led.accounts[BOB].received) == 1


def test_duplicate_credit_applies_once(harness):
    led = fresh_ledger()
    cert = harness.certify(execute_request(ALICE, 0, Transfer(BOB, 5)))
    credit = CreditEffect(target=BOB, update=ScalarUpdate(5), cert=cert)
    led.apply_credit(credit)
    led.apply_credit(credit)
    assert led.accounts[BOB].balance == 5
    assert len(led.accounts[BOB].received) == 1


def test_credit_to_deactivated_account_dropped(harness):
    led, owner = setup_owned(harness, balance=0)
    led.deactivate(ALICE, b"gone")
    cert = harness.certify(execute_request(BOB, 0, Transfer(ALICE, 5)))
    led.apply_credit(CreditEffect(target=ALICE, update=ScalarUpdate(5), cert=cert))
    assert ALICE not in led.accounts


def test_open_account_effect(harness):
    led, owner = setup_owned(harness)
    child = ALICE.child(0)
    request = execute_request(ALICE, 0, OpenAccount(child, b"childkey"))
    cert = harness.certify(request)
    (effect,) = led.handle_confirmation(cert)
    assert effect == InitAccountEffect(target=child, pk=b"childkey", cert=cert)
    led.apply_init_account(effect)
    assert led.accounts[child].pk == b"childkey"
    assert len(led.accounts[child].received) == 1
    led.apply_init_account(effect)  # redelivery
    assert len(led.accounts[child].received) == 1


def test_start_instance_effect(harness):
    led, owner = setup_owned(harness)
    swid = ALICE.child(0)
    request = execute_request(ALICE, 0, StartConsensusInstance(swid, ALICE, 1, BOB, 0))
    cert = harness.certify(request)
    (effect,) = led.handle_confirmation(cert)
    assert isinstance(effect, InitInstanceEffect)
    assert effect.target == swid and effect.n1 == 1 and effect.id2 == BOB


def test_change_key(harness):
    led, owner = setup_owned(harness)
    request = execute_request(ALICE, 0, ChangeKey(b"rotated"))
    led.handle_confirmation(harness.certify(request))
    assert led.accounts[ALICE].pk == b"rotated"


def test_unlock_effect_guards_sequence(harness):
    led, owner = setup_owned(harness)
    cert = harness.certify(execute_request(BOB, 0, Transfer(ALICE, 1)))
    led.accounts[ALICE].pending = lock_request(ALICE, 0, LockInto(AccountId(5), 1, b"pk"))
    led.apply_unlock(UnlockEffect(target=ALICE, n=1, new_pk=None, cert=cert))  # wrong n
    assert led.accounts[ALICE].pending is not None
    led.apply_unlock(UnlockEffect(target=ALICE, n=0, new_pk=b"swapped", cert=cert))
    acct = led.accounts[ALICE]
    assert acct.pending is None and acct.next_sequence == 1 and acct.pk == b"swapped"
    # replay: the guard fails silently
    led.apply_unlock(UnlockEffect(target=ALICE, n=0, new_pk=b"other", cert=cert))
    assert acct.pk == b"swapped" and acct.next_sequence == 1


def test_apply_update_validation(harness):
    led, owner = setup_owned(harness, balance=3)
    acct = led.accounts[ALICE]
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, ApplyUpdate(BOB, ScalarUpdate(-5), ScalarUpdate(5)))
    assert exc.value.code == errors.INVALID_LOCAL_RESULT
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, ALICE, ApplyUpdate(BOB, ScalarUpdate(-2), ScalarUpdate(-2)))
    assert exc.value.code == errors.UNSAFE_REMOTE
    validate_operation(acct, ALICE, ApplyUpdate(BOB, ScalarUpdate(-2), ScalarUpdate(2)))


def test_query_account_through_the_authority(harness):
    authority = Authority(0, harness.signers[0], harness.committee)
    owner = harness.keypair()
    authority.ledger.init_account(ALICE, owner.public_key, balance=10)
    authority.ledger.init_account(BOB, None)

    def query(id):
        outputs, _notes = authority.handle("client:q", QueryAccountMsg(id), 0)
        return outputs

    assert query(ALICE) == [("client:q", AccountInfoReply(
        exists=True, active=True, next_sequence=0, balance=10, busy=False))]
    assert query(BOB) == [("client:q", AccountInfoReply(True, False, 0, 0, False))]
    assert query(AccountId(9)) == [("client:q", AccountInfoReply(False, False, 0, 0, False))]

    request = execute_request(ALICE, 0, Transfer(BOB, 3))
    auth = authenticate(request, owner.public_key, owner)
    ((_, vote),), _notes = authority.handle("client:a", HandleRequestMsg(auth), 0)
    assert isinstance(vote, VoteReply)
    assert query(ALICE) == [("client:q", AccountInfoReply(True, True, 0, 10, True))]

    authority.handle("client:a", ConfirmMsg(harness.certify(request)), 0)
    assert query(ALICE) == [("client:q", AccountInfoReply(True, True, 1, 7, False))]


def test_account_id_hash_follows_equality():
    """Equal ids built apart meet in dicts and sets, and an id hashes as its
    ``(root, path)`` tuple; an id whose path is a list still constructs and
    fails only when hashed."""
    first, second = AccountId(3, (1, 4)), AccountId(3, (1, 4))
    assert first == second and first is not second
    assert {first: "a"}[second] == "a" and second in {first}
    assert hash(first) == hash(second) == hash((3, (1, 4)))

    listed = AccountId(0, [1])
    assert listed.path == [1]
    with pytest.raises(TypeError):
        hash(listed)
