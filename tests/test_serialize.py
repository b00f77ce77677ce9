"""Canonical encoding: determinism, injectivity, documented layout, round-trips."""

import dataclasses
import functools
import json
import os
import random
import struct
import types
from enum import IntEnum
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import bftledger.wire as wire
from bftledger import keys, serialize
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
from bftledger.committee import (
    Authenticated,
    Certificate,
    Vote,
    authenticate,
    check_authenticated,
)
from bftledger.serialize import _INT, _LEN, _TAG_OF, LEN_MAX, AnyWire, EncodingError
from bftledger.swap import CommitStatement, DecisionValue, PreCommitStatement, Proposal
from bftledger.trace import TraceEvent

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


@pytest.mark.parametrize("path", [[1], b"\x01"], ids=["list", "bytes"])
def test_sequence_field_encodes_only_a_tuple(path):
    """A list or bytes with the tuple's items encoded to the tuple form's bytes,
    though the values are not equal; so one signature covered both."""
    assert serialize.encode(Transfer(AccountId(0, (1,)), 5))
    assert Transfer(AccountId(0, path), 5) != Transfer(AccountId(0, (1,)), 5)
    with pytest.raises(serialize.EncodingError, match="expected a tuple"):
        serialize.encode(Transfer(AccountId(0, path), 5))
    with pytest.raises(serialize.EncodingError, match="expected a tuple"):
        serialize.encode_as(tuple[int, int], [1, 2])


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


# -- enum fields and str values ------------------------------------------------------


@pytest.mark.parametrize("decision", [7, 1, True], ids=["no_member", "plain_int", "bool"])
def test_enum_field_encodes_only_a_member(decision):
    proposal = Proposal(AccountId(1), 0, decision)
    with pytest.raises(serialize.EncodingError, match="expected DecisionValue"):
        serialize.encode(proposal)
    signer = keys.mac_keypair(random.Random(3))
    with pytest.raises(serialize.EncodingError):
        authenticate(proposal, signer.public_key, signer)
    sig = signer.sign(keys.digest32(b"any"))
    assert not check_authenticated(Authenticated(proposal, signer.public_key, sig))


@pytest.mark.parametrize("tp, value", [
    (str, "\ud800"),
    (TraceEvent, TraceEvent(0, 0, "auth:0", "\udfff", "kind", b"")),
    (tuple[int, ...], 5),
    (tuple[int, int], None),
], ids=["lone_surrogate", "surrogate_field", "sequence_not_sized", "fixed_not_sized"])
def test_codec_fails_only_with_encoding_error(tp, value):
    with pytest.raises(serialize.EncodingError):
        serialize.encode_as(tp, value)


# -- generated encoders against the closure-based reference ---------------------------
# The reference is the closure-based encoder that the generated ones replaced,
# verbatim apart from its names, its decoders, which are left out, and the
# tuple rule: a sequence or fixed tuple takes only a tuple, and list[T] is gone.
# It accepted an int or a bool for an enum field and raised UnicodeEncodeError
# for a lone surrogate; the properties below draw neither for it.

_REF_CODECS: dict[Any, Callable] = {}


def _ref_enc_int(value: Any, out: bytearray) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EncodingError(f"expected int, got {value!r}")
    try:
        out += _INT.pack(value)
    except struct.error:
        raise EncodingError(f"integer out of 64-bit range: {value}") from None


def _ref_enc_bytes(value: Any, out: bytearray) -> None:
    if not isinstance(value, bytes):
        raise EncodingError(f"expected bytes, got {value!r}")
    if len(value) > LEN_MAX:
        raise EncodingError("sequence too long")
    out += _LEN.pack(len(value))
    out += value


def _ref_enc_str(value: Any, out: bytearray) -> None:
    if not isinstance(value, str):
        raise EncodingError(f"expected str, got {value!r}")
    _ref_enc_bytes(value.encode("utf-8"), out)


def _ref_enc_bool(value: Any, out: bytearray) -> None:
    if not isinstance(value, bool):
        raise EncodingError(f"expected bool, got {value!r}")
    out.append(value)


def _ref_enc_any(value: Any, out: bytearray) -> None:
    cls = type(value)
    if cls not in _TAG_OF:
        raise EncodingError(f"{cls.__name__} is not a registered wire type")
    out.append(_TAG_OF[cls])
    _ref_codec(cls)(value, out)


_REF_CODECS.update({int: _ref_enc_int, bytes: _ref_enc_bytes, str: _ref_enc_str,
                    bool: _ref_enc_bool, AnyWire: _ref_enc_any})


def _ref_require_tuple(value: Any) -> None:
    if not isinstance(value, tuple):
        raise EncodingError(f"expected a tuple, got {value!r}")


def _ref_codec(tp: Any) -> Callable:
    enc = _REF_CODECS.get(tp)
    if enc is not None:
        return enc
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is types.UnionType:
        non_none = tuple(a for a in args if a is not type(None))
        if len(non_none) == len(args):
            raise EncodingError(f"bare unions are not encodable, use AnyWire: {tp}")
        enc = _ref_codec(non_none[0] if len(non_none) == 1 else Union[non_none])

        def encode_optional(value: Any, out: bytearray) -> None:
            out.append(value is not None)
            if value is not None:
                enc(value, out)

        pair = encode_optional
    elif origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        codecs = [_ref_codec(a) for a in args]

        def encode_fixed(value: Any, out: bytearray) -> None:
            _ref_require_tuple(value)
            if len(value) != len(codecs):
                raise EncodingError("fixed tuple arity mismatch")
            for enc_item, item in zip(codecs, value):
                enc_item(item, out)

        pair = encode_fixed
    elif origin is tuple:
        enc = _ref_codec(args[0])

        def encode_sequence(value: Any, out: bytearray) -> None:
            _ref_require_tuple(value)
            if len(value) > LEN_MAX:
                raise EncodingError("sequence too long")
            out += _LEN.pack(len(value))
            for item in value:
                enc(item, out)

        pair = encode_sequence
    elif isinstance(tp, type) and issubclass(tp, IntEnum):

        def encode_enum(value: Any, out: bytearray) -> None:
            if not 0 <= int(value) <= 0xFF:
                raise EncodingError("enum value out of byte range")
            out.append(int(value))

        pair = encode_enum
    elif isinstance(tp, type) and dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp)
        fields = [(f.name, _ref_codec(hints[f.name])) for f in dataclasses.fields(tp)]

        def encode_dataclass(value: Any, out: bytearray) -> None:
            if type(value) is not tp:
                raise EncodingError(f"expected {tp.__name__}, got {type(value).__name__}")
            for name, enc_field in fields:
                enc_field(getattr(value, name), out)

        pair = encode_dataclass
    else:
        raise EncodingError(f"unsupported wire type: {tp!r}")
    _REF_CODECS[tp] = pair
    return pair


@dataclasses.dataclass(frozen=True)
class _Unregistered:
    x: int


def _or_rarely(right: st.SearchStrategy, wrong: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly ``right``, sometimes ``wrong``, so that most drawn values still encode."""
    return st.integers(0, 7).flatmap(lambda i: wrong if i == 5 else right)


_PRIMITIVES = {
    int: _or_rarely(st.one_of(st.integers(0, 1000), st.integers(-(1 << 63), (1 << 63) - 1)),
                    st.sampled_from([True, False, 1 << 63, -(1 << 63) - 1, 1 << 70])),
    bytes: _or_rarely(st.binary(max_size=8), st.text(max_size=3)),
    str: st.text(max_size=4),  # no lone surrogate: the reference raised UnicodeEncodeError
    bool: _or_rarely(st.booleans(), st.integers(0, 1)),
}
_MAX_DEPTH = 2  # AnyWire nesting


def _build(tp: type, kwargs: dict):
    try:
        return tp(**kwargs)
    except (ValueError, TypeError):  # a __post_init__ invariant rejects the fields
        return None


@functools.lru_cache(maxsize=None)
def values_of(tp: Any, depth: int = 0, enum_ints: bool = False) -> st.SearchStrategy:
    """Values for a field annotated ``tp``, right or wrong; every wire class built
    through its constructor, so only its invariants limit what is drawn. A
    tuple field sometimes holds a list. An enum field holds a member, or with
    ``enum_ints`` also an int or a bool, which the reference encoder wrongly
    accepts."""
    def of(tp, depth=depth):
        return values_of(tp, depth, enum_ints)

    if tp in _PRIMITIVES:
        return _PRIMITIVES[tp]
    if tp is AnyWire:
        wrong = st.just(_Unregistered(1))
        if depth >= _MAX_DEPTH:
            return _or_rarely(of(AccountId, depth + 1), wrong)
        return _or_rarely(st.sampled_from(wire.WIRE_TYPES).flatmap(
            lambda cls: of(cls, depth + 1)), wrong)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is types.UnionType:
        (inner,) = (a for a in args if a is not type(None))
        return st.one_of(st.none(), of(inner))
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        items = st.tuples(*(of(a) for a in args))
        return _or_rarely(items, items.map(list))
    if origin is tuple:
        items = st.lists(of(args[0]), max_size=2)
        return _or_rarely(items.map(tuple), items)
    if isinstance(tp, type) and issubclass(tp, IntEnum):
        members = st.sampled_from(tp)
        return st.one_of(members, st.integers(0, 9), st.booleans()) if enum_ints else members
    hints = get_type_hints(tp)
    fields = st.fixed_dictionaries(
        {f.name: of(hints[f.name]) for f in dataclasses.fields(tp)})
    right = fields.map(lambda kwargs: _build(tp, kwargs)).filter(lambda v: v is not None)
    if depth > 0:
        other = AccountId(0) if tp is not AccountId else Vote(0, b"", b"")
        right = _or_rarely(right, st.sampled_from([other, _Unregistered(2)]))  # wrong class
    return right


def _outcome(encode, value):
    try:
        return bytes(encode(value))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def _ref_encode(value) -> bytes:
    out = bytearray()
    _ref_enc_any(value, out)
    return bytes(out)


# No shrink phase: a faulty encoder fails on many classes at once, and
# shrinking each failing class's example would take minutes.
@pytest.mark.parametrize("cls", wire.WIRE_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.data())
def test_generated_encoder_matches_reference(cls, data):
    value = data.draw(values_of(cls))
    assert _outcome(serialize.encode, value) == _outcome(_ref_encode, value)


@pytest.mark.parametrize("cls", wire.WIRE_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.data())
def test_every_value_that_encodes_decodes(cls, data):
    value = data.draw(values_of(cls, enum_ints=True))
    try:
        raw = serialize.encode(value)
    except serialize.EncodingError:
        return
    assert serialize.encode(serialize.decode(raw)) == raw
