"""Canonical encoding: determinism, injectivity, documented layout, round-trips."""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftledger.wire as wire
from bftledger import serialize
from bftledger.accounts import (
    AccountId,
    ApplyUpdate,
    ChangeKey,
    LockInto,
    OpenAccount,
    Request,
    RequestKind,
    StartConsensusInstance,
    Transfer,
    execute_request,
    lock_request,
)
from bftledger.algebra import ItemUpdate, ScalarUpdate, SideUpdate
from bftledger.committee import Authenticated, Certificate, Vote
from bftledger.swap import CommitStatement, DecisionValue, PreCommitStatement, Proposal

VECTORS = os.path.join(os.path.dirname(__file__), "vectors", "encoding_vectors.json")


def test_encode_deterministic():
    value = execute_request(AccountId(0), 3, Transfer(AccountId(1), 7))
    assert serialize.encode(value) == serialize.encode(value)


def test_encode_injective_on_value():
    a = serialize.encode(Transfer(AccountId(1), 5))
    b = serialize.encode(Transfer(AccountId(1), 6))
    assert a != b


def test_transfer_layout_hand_computed():
    # tag byte for Transfer, then AccountId {root: u64le, path: count-prefixed},
    # then value: u64le. Worked out by hand from the documented layout.
    tag = wire.WIRE_TYPES.index(Transfer)
    expected = bytes([tag]) + (1).to_bytes(8, "little") + (0).to_bytes(4, "little") + (
        5
    ).to_bytes(8, "little")
    assert serialize.encode(Transfer(AccountId(1), 5)) == expected


def test_list_layout_starts_with_count():
    encoded = serialize.encode_as(tuple[int, ...], (7, 9))
    assert encoded[:4] == (2).to_bytes(4, "little")
    assert len(encoded) == 4 + 16


def test_negative_int_roundtrip():
    encoded = serialize.encode_as(int, -3)
    assert serialize.decode_as(int, encoded) == -3
    assert len(encoded) == 8


def test_int_out_of_range_rejected():
    with pytest.raises(serialize.EncodingError):
        serialize.encode_as(int, 1 << 63)


def test_optional_presence_byte():
    assert serialize.encode_as(int | None, None) == b"\x00"
    assert serialize.encode_as(int | None, 4)[0] == 1


def test_trailing_bytes_rejected():
    data = serialize.encode(Transfer(AccountId(1), 5)) + b"\x00"
    with pytest.raises(serialize.EncodingError):
        serialize.decode(data)


def test_unknown_tag_rejected():
    with pytest.raises(serialize.EncodingError):
        serialize.decode(bytes([250]) + b"\x00" * 8)


def _proposal_bytes() -> bytearray:
    # Layout: tag, AccountId, round (8 bytes), decision (1 byte).
    return bytearray(serialize.encode(Proposal(AccountId(0), 3, DecisionValue.CONFIRM)))


def test_unknown_enum_byte_rejected():
    data = _proposal_bytes()
    data[-1] = 7
    with pytest.raises(serialize.EncodingError):
        serialize.decode(bytes(data))


def test_post_init_rejection_is_encoding_error():
    data = _proposal_bytes()
    data[-9:-1] = (-1).to_bytes(8, "little", signed=True)
    with pytest.raises(serialize.EncodingError):
        serialize.decode(bytes(data))


@pytest.mark.parametrize("tp", [float, int | str], ids=["float", "bare_union"])
def test_unsupported_annotation_rejected(tp):
    with pytest.raises(serialize.EncodingError):
        serialize.encode_as(tp, 1)
    with pytest.raises(serialize.EncodingError):
        serialize.decode_as(tp, bytes(8))


def test_mutable_wire_class_rejected():
    with pytest.raises(serialize.EncodingError):
        serialize.register_wire(dataclasses.make_dataclass("Mutable", [("x", int)]))


def test_bad_utf8_rejected():
    with pytest.raises(serialize.EncodingError):
        serialize.decode_as(str, (1).to_bytes(4, "little") + b"\xff")


# -- random protocol values ------------------------------------------------------

account_ids = st.builds(
    AccountId,
    root=st.integers(min_value=0, max_value=50),
    path=st.lists(st.integers(min_value=0, max_value=1000), max_size=4).map(tuple),
)
small_bytes = st.binary(max_size=24)
updates = st.deferred(
    lambda: st.one_of(
        st.builds(ScalarUpdate, delta=st.integers(min_value=-(10 ** 9), max_value=10 ** 9)),
        st.builds(ItemUpdate, item=st.binary(min_size=1, max_size=4),
                  delta=st.integers(min_value=-5, max_value=5)),
        st.builds(SideUpdate, side=st.integers(min_value=0, max_value=1), inner=updates),
    )
)
operations = st.one_of(
    st.builds(OpenAccount, child=account_ids, pk=small_bytes),
    st.builds(Transfer, dest=account_ids, value=st.integers(min_value=1, max_value=10 ** 9)),
    st.builds(ChangeKey, pk=small_bytes),
    st.builds(
        StartConsensusInstance,
        swid=account_ids, id1=account_ids, n1=st.integers(0, 100),
        id2=account_ids, n2=st.integers(0, 100),
    ),
    st.builds(ApplyUpdate, dest=account_ids, u_minus=updates, u_plus=updates),
)
requests = st.one_of(
    st.builds(execute_request, account_ids, st.integers(0, 1000), operations),
    st.builds(
        lock_request,
        account_ids,
        st.integers(0, 1000),
        st.builds(LockInto, swid=account_ids, role=st.sampled_from((1, 2)), pk=small_bytes),
    ),
)
proposals = st.builds(
    Proposal,
    swid=account_ids,
    round=st.integers(min_value=0, max_value=100),
    decision=st.sampled_from(DecisionValue),
)
votes = st.builds(
    Vote,
    signer=st.integers(0, 3),
    payload_digest=st.binary(min_size=32, max_size=32),
    sig=st.binary(min_size=32, max_size=32),
)
wire_values = st.one_of(
    account_ids,
    operations,
    requests,
    proposals,
    st.builds(PreCommitStatement, proposal=proposals),
    st.builds(CommitStatement, proposal=proposals),
    st.builds(Certificate, value=requests, votes=st.lists(votes, max_size=4).map(tuple)),
    st.builds(Authenticated, payload=requests, pk=small_bytes, sig=small_bytes),
)


@settings(max_examples=300, deadline=None)
@given(wire_values)
def test_roundtrip(value):
    assert serialize.decode(serialize.encode(value)) == value


@settings(max_examples=200, deadline=None)
@given(wire_values, wire_values)
def test_injectivity_pairs(a, b):
    if a != b:
        assert serialize.encode(a) != serialize.encode(b)


@settings(max_examples=300, deadline=None)
@given(wire_values, st.data())
def test_corrupted_bytes_raise_only_encoding_error(value, data):
    raw = bytearray(serialize.encode(value))
    for _ in range(data.draw(st.integers(1, 3))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    try:
        serialize.decode(bytes(raw))
    except serialize.EncodingError:
        pass


def test_shipped_vectors():
    """The committed fixture pins the wire format; a change here is a format break."""
    with open(VECTORS) as fh:
        vectors = json.load(fh)
    assert vectors["version"] == 1
    for entry in vectors["vectors"]:
        raw = bytes.fromhex(entry["hex"])
        value = serialize.decode(raw)
        assert type(value).__name__ == entry["type"]
        assert serialize.encode(value) == raw


def test_request_kind_matches_operation():
    with pytest.raises(ValueError):
        Request(RequestKind.EXECUTE, AccountId(0), 0, LockInto(AccountId(1), 1, b"k"))
    with pytest.raises(ValueError):
        Request(RequestKind.LOCK, AccountId(0), 0, ChangeKey(b"k"))
