"""Off-chain assets: binding, verification, transmutation, replay determinism."""

import dataclasses

import pytest

from bftledger import errors, serialize
from bftledger.accounts import (AccountId, ChangeKey, CreditEffect, Ledger, Transfer, execute_request,
                                validate_operation)
from bftledger.algebra import ScalarUpdate
from bftledger.assets import (
    AssetBinding,
    AssetCertifyRequest,
    Spend,
    TransmuteRequest,
    derive_outputs,
    handle_certify,
    handle_transmute,
    verify_asset,
)
from bftledger.committee import Certificate, authenticate
from bftledger.errors import ProtocolError
from bftledger.keys import digest32

A1 = AccountId(0)
A2 = AccountId(1)


def make_ledger():
    return Ledger(algebra_of=lambda uid: "balance")


def setup_asset_account(harness, ledger, uid):
    owner = harness.keypair()
    ledger.init_account(uid, owner.public_key)
    return owner


def certified_binding(harness, ledger, uid, owner, data):
    req = AssetCertifyRequest(id=uid, n=ledger.accounts[uid].next_sequence, data=data)
    auth = authenticate(req, owner.public_key, owner)
    binding = handle_certify(ledger, auth)
    return harness.certify(binding)


def build_transmute(harness, ledger, owners, uids, fexec, params, assets, out_count):
    commitment = digest32(serialize.encode_as(bytes, params))
    spends = []
    for uid, owner in zip(uids, owners):
        request = execute_request(uid, ledger.accounts[uid].next_sequence, Spend(commitment))
        spends.append(authenticate(request, owner.public_key, owner))
    outputs = derive_outputs(spends[0].payload, out_count)
    return TransmuteRequest(
        fexec=fexec, params=params, spends=tuple(spends),
        inputs=tuple(assets), outputs=outputs,
    )


def credit(harness, ledger, uid, value):
    """Land a certified credit of ``value`` on ``uid``."""
    cert = harness.certify(execute_request(AccountId(9), 0, Transfer(uid, value)))
    ledger.apply_credit(CreditEffect(target=uid, update=ScalarUpdate(value), cert=cert))


def test_certify_binding(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    cert = certified_binding(harness, ledger, A1, owner, b"artwork")
    assert verify_asset(harness.certified, cert)
    assert cert.value == AssetBinding(id=A1, n=0, data=b"artwork")


def test_certify_requires_owner(harness):
    ledger = make_ledger()
    setup_asset_account(harness, ledger, A1)
    intruder = harness.keypair()
    req = AssetCertifyRequest(id=A1, n=0, data=b"x")
    with pytest.raises(ProtocolError) as exc:
        handle_certify(ledger, authenticate(req, intruder.public_key, intruder))
    assert exc.value.code == errors.BAD_AUTH


def test_certify_inactive_account(harness):
    ledger = make_ledger()
    ledger.init_account(A1, None)
    owner = harness.keypair()
    req = AssetCertifyRequest(id=A1, n=0, data=b"x")
    with pytest.raises(ProtocolError) as exc:
        handle_certify(ledger, authenticate(req, owner.public_key, owner))
    assert exc.value.code == errors.INACTIVE_ACCOUNT


def test_two_bindings_at_successive_sequences(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    first = certified_binding(harness, ledger, A1, owner, b"one")
    # advance the account, then bind again at the next sequence point
    from bftledger.accounts import ChangeKey

    cert = harness.certify(execute_request(A1, 0, ChangeKey(owner.public_key)))
    ledger.handle_confirmation(cert)
    second = certified_binding(harness, ledger, A1, owner, b"two")
    assert verify_asset(harness.certified, first)
    assert verify_asset(harness.certified, second)
    assert first.value.n == 0 and second.value.n == 1


def test_verify_asset_rejects_forgery(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    cert = certified_binding(harness, ledger, A1, owner, b"art")
    forged = Certificate(value=AssetBinding(id=A1, n=0, data=b"fake"), votes=cert.votes)
    assert not verify_asset(harness.certified, forged)


def test_identity_transmute(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"payload")
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    bindings = handle_transmute(ledger, harness.certified, req)
    assert bindings == [AssetBinding(id=A1.child(0).child(0), n=0, data=b"payload")]
    assert A1 not in ledger.accounts
    assert A1 in ledger.tombstones


def test_asset_verifies_after_its_account_deactivates(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"payload")
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    handle_transmute(ledger, harness.certified, req)
    assert verify_asset(harness.certified, asset)  # historical certificates stay valid


def test_transmute_replay_identical(harness):
    """Replaying the same exchange re-votes byte-identical output bindings."""
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"payload")
    req = build_transmute(harness, ledger, [owner], [A1], "relabel", b"\x01", [asset], 1)
    first = handle_transmute(ledger, harness.certified, req)
    replay = handle_transmute(ledger, harness.certified, req)
    assert [serialize.encode(b) for b in first] == [serialize.encode(b) for b in replay]


def test_transmute_undefined_keeps_inputs_active(harness):
    ledger = make_ledger()
    owner1 = setup_asset_account(harness, ledger, A1)
    owner2 = setup_asset_account(harness, ledger, A2)
    a1 = certified_binding(harness, ledger, A1, owner1, b"notnum")  # not 8 bytes
    a2 = certified_binding(harness, ledger, A2, owner2, (5).to_bytes(8, "little"))
    req = build_transmute(
        harness, ledger, [owner1, owner2], [A1, A2], "sum_u64", b"", [a1, a2], 1
    )
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, req)
    assert exc.value.code == errors.UNDEFINED_EXECUTION
    assert A1 in ledger.accounts and A2 in ledger.accounts  # nothing deactivated


def test_transmute_two_inputs(harness):
    ledger = make_ledger()
    owner1 = setup_asset_account(harness, ledger, A1)
    owner2 = setup_asset_account(harness, ledger, A2)
    a1 = certified_binding(harness, ledger, A1, owner1, (5).to_bytes(8, "little"))
    a2 = certified_binding(harness, ledger, A2, owner2, (7).to_bytes(8, "little"))
    req = build_transmute(
        harness, ledger, [owner1, owner2], [A1, A2], "sum_u64", b"", [a1, a2], 1
    )
    (binding,) = handle_transmute(ledger, harness.certified, req)
    assert binding.data == (12).to_bytes(8, "little")
    assert A1 not in ledger.accounts and A2 not in ledger.accounts


def test_transmute_commitment_mismatch(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"data")
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    tampered = TransmuteRequest(
        fexec=req.fexec, params=b"\xff", spends=req.spends,
        inputs=req.inputs, outputs=req.outputs,
    )
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, tampered)
    assert exc.value.code == errors.COMMITMENT_MISMATCH


def test_transmute_double_spend_blocked(harness):
    """After one transmutation consumes an input, a different one cannot."""
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"data")
    first = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    other = build_transmute(harness, ledger, [owner], [A1], "relabel", b"\x02", [asset], 1)
    handle_transmute(ledger, harness.certified, first)
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, other)
    assert exc.value.code == errors.INPUT_INACTIVE


def test_transmute_inactive_input(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"data")
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    ledger.deactivate(A1, b"elsewhere")
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, req)
    assert exc.value.code == errors.INPUT_INACTIVE


def test_standalone_spend_operation(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    request = execute_request(A1, 0, Spend(b"\x00" * 32))
    cert = harness.certify(request)
    assert ledger.handle_confirmation(cert) == []
    assert A1 not in ledger.accounts
    assert A1 in ledger.tombstones


def test_funded_spend_parks_instead_of_destroying_money(harness):
    """A spend voted on while its account was empty must not deactivate the
    funds that a credit brings before its certificate executes."""
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    payer = harness.keypair()
    ledger.init_account(A2, payer.public_key, balance=7)
    spend = execute_request(A1, 0, Spend(b"\x00" * 32))
    ledger.handle_request(authenticate(spend, owner.public_key, owner))
    (funding,) = ledger.handle_confirmation(harness.certify(execute_request(A2, 0, Transfer(A1, 5))))
    ledger.apply_credit(funding)
    cert = harness.certify(spend)
    assert ledger.handle_confirmation(cert) == []
    assert A1 not in ledger.tombstones
    assert ledger.accounts[A1].parked == cert and ledger.accounts[A1].balance == 5
    assert sum(account.balance for account in ledger.accounts.values()) == 7


def _with_second_spend(req, spend_auth):
    return dataclasses.replace(req, spends=(req.spends[0], spend_auth))


def _forged_signature(harness, ledger, owners, req):
    spend = req.spends[1]
    return _with_second_spend(req, authenticate(spend.payload, spend.pk, harness.keypair()))


def _wrong_sequence(harness, ledger, owners, req):
    spend = req.spends[1].payload
    later = dataclasses.replace(spend, n=spend.n + 1)
    return _with_second_spend(req, authenticate(later, owners[1].public_key, owners[1]))


def _other_request_pending(harness, ledger, owners, req):
    other = execute_request(A2, 0, ChangeKey(owners[1].public_key))
    ledger.handle_request(authenticate(other, owners[1].public_key, owners[1]))
    return req


def _no_owner_key(harness, ledger, owners, req):
    ledger.accounts[A2].pk = None
    return req


def _funded_input(harness, ledger, owners, req):
    credit(harness, ledger, A2, 3)
    return req


def _input_named_twice(harness, ledger, owners, req):
    # A1's one asset, counted twice, would certify twice its value.
    return dataclasses.replace(req, spends=req.spends[:1] * 2, inputs=req.inputs[:1] * 2)


def _unknown_function(harness, ledger, owners, req):
    return dataclasses.replace(req, fexec="no_such_function")


def _one_spend_short(harness, ledger, owners, req):
    return dataclasses.replace(req, spends=req.spends[:1])


def _one_input_short(harness, ledger, owners, req):
    return dataclasses.replace(req, inputs=req.inputs[:1])


def _extra_output(harness, ledger, owners, req):
    return dataclasses.replace(req, outputs=derive_outputs(req.spends[0].payload, 2))


def _not_a_spend(harness, ledger, owners, req):
    other = execute_request(A2, 0, ChangeKey(owners[1].public_key))
    return _with_second_spend(req, authenticate(other, owners[1].public_key, owners[1]))


def _forged_input_asset(harness, ledger, owners, req):
    cert = req.inputs[1]
    forged = Certificate(value=dataclasses.replace(cert.value, data=b"\xff" * 8), votes=cert.votes)
    return dataclasses.replace(req, inputs=(req.inputs[0], forged))


def _input_asset_of_another_account(harness, ledger, owners, req):
    return dataclasses.replace(req, inputs=req.inputs[:1] * 2)


def _outputs_not_derived(harness, ledger, owners, req):
    return dataclasses.replace(req, outputs=derive_outputs(req.spends[1].payload, 1))


@pytest.mark.parametrize("spoil, code", [
    (_forged_signature, errors.BAD_AUTH),
    (_wrong_sequence, errors.SEQUENCE_MISMATCH),
    (_other_request_pending, errors.ACCOUNT_BUSY),
    (_no_owner_key, errors.INACTIVE_ACCOUNT),
    (_funded_input, errors.BAD_VALUE),
    (_input_named_twice, errors.BAD_VALUE),
    (_unknown_function, errors.UNDEFINED_EXECUTION),
    (_one_spend_short, errors.BAD_VALUE),
    (_one_input_short, errors.BAD_VALUE),
    (_extra_output, errors.BAD_VALUE),
    (_not_a_spend, errors.BAD_VALUE),
    (_forged_input_asset, errors.BAD_CERTIFICATE),
    (_input_asset_of_another_account, errors.BAD_CERTIFICATE),
    (_outputs_not_derived, errors.BAD_DERIVED_ID),
], ids=["forged_signature", "wrong_sequence", "other_request_pending", "no_owner_key",
        "funded_input", "input_named_twice", "unknown_function", "one_spend_short",
        "one_input_short", "extra_output", "not_a_spend", "forged_input_asset",
        "input_asset_of_another_account", "outputs_not_derived"])
def test_transmute_rejects_a_bad_input_and_deactivates_none(harness, spoil, code):
    """Each spend passes the ledger's request check, and the request must fit
    its function; the spoil breaks one rule, mostly on the second input."""
    ledger = make_ledger()
    owners = [setup_asset_account(harness, ledger, uid) for uid in (A1, A2)]
    assets = [certified_binding(harness, ledger, uid, owner, k.to_bytes(8, "little"))
              for k, (uid, owner) in enumerate(zip((A1, A2), owners))]
    req = build_transmute(harness, ledger, owners, [A1, A2], "sum_u64", b"", assets, 1)
    req = spoil(harness, ledger, owners, req)
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, req)
    assert exc.value.code == code
    assert A1 in ledger.accounts and A2 in ledger.accounts and not ledger.tombstones


def test_resent_spend_is_refused_once_a_credit_funds_the_account(harness):
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    spend = authenticate(execute_request(A1, 0, Spend(b"\x00" * 32)), owner.public_key, owner)
    assert ledger.handle_request(spend) == spend.payload
    assert ledger.handle_request(spend) == spend.payload  # re-sent while empty: voted again
    credit(harness, ledger, A1, 3)
    with pytest.raises(ProtocolError) as exc:
        ledger.handle_request(spend)
    assert exc.value.code == errors.BAD_VALUE
    assert ledger.accounts[A1].pending == spend.payload


def test_transmute_of_a_pending_spend_is_refused_once_funded(harness):
    """The input's pending request is the transmute's own spend; a credit after
    the lock still keeps the account from being deactivated."""
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    asset = certified_binding(harness, ledger, A1, owner, b"data")
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    ledger.handle_request(req.spends[0])
    credit(harness, ledger, A1, 3)
    with pytest.raises(ProtocolError) as exc:
        handle_transmute(ledger, harness.certified, req)
    assert exc.value.code == errors.BAD_VALUE
    assert ledger.accounts[A1].balance == 3 and A1 not in ledger.tombstones


def test_spend_with_funds_rejected(harness):
    ledger = make_ledger()
    owner = harness.keypair()
    ledger.init_account(A1, owner.public_key, balance=5)
    acct = ledger.accounts[A1]
    with pytest.raises(ProtocolError) as exc:
        validate_operation(acct, A1, Spend(b"\x00" * 32))
    assert exc.value.code == errors.BAD_VALUE


def test_execution_functions_deterministic():
    """Two evaluations of any registered function on the same inputs agree bitwise."""
    import random

    from bftledger.assets import REGISTRY

    rng = random.Random(41)
    for fexec in REGISTRY.values():
        for _ in range(200):
            params = rng.randbytes(rng.randint(0, 6))
            xs = tuple(rng.randbytes(rng.choice((4, 8))) for _ in range(fexec.arity_in))
            assert fexec.eval(params, xs) == fexec.eval(params, xs)


def test_storage_free_after_transmute(harness):
    """Authorities keep no asset payloads, only deactivation tombstones."""
    ledger = make_ledger()
    owner = setup_asset_account(harness, ledger, A1)
    payload = b"substantial artwork payload" * 4
    asset = certified_binding(harness, ledger, A1, owner, payload)
    req = build_transmute(harness, ledger, [owner], [A1], "identity", b"", [asset], 1)
    handle_transmute(ledger, harness.certified, req)
    assert A1 in ledger.tombstones
    assert len(ledger.tombstones[A1]) == 32  # a digest, not the payload
    for account in ledger.accounts.values():
        assert payload not in repr(account.state).encode()
