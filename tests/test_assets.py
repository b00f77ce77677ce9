"""Off-chain assets: binding, verification, transmutation, replay determinism."""

import pytest

from bftledger import errors, serialize
from bftledger.accounts import AccountId, Ledger, execute_request, validate_operation
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
