"""Deterministic binary codec for protocol values.

Every value that is ever signed, certified, or written to a trace file goes
through this codec, so the layout must be deterministic and injective per
type.  The exact rules (documented bit-exactly in docs/encoding.md):

- integers: 8-byte little-endian two's complement; fields that are
  semantically unsigned use the same layout restricted to [0, 2**63).
- bytes / str: 4-byte little-endian length prefix, then raw bytes (str as
  UTF-8; a str that has no UTF-8 form, such as a lone surrogate, does not encode).
- bool: one byte, 0x00 or 0x01.
- Optional[T]: one presence byte (0x00 absent / 0x01 present), then payload.
- homogeneous sequences tuple[T, ...]: 4-byte little-endian count, then
  elements.
- fixed tuples tuple[A, B, ...]: elements in order, no prefix.
- a sequence or fixed tuple encodes only a ``tuple``: a list or bytes with the
  same items would share its bytes but not compare equal to it.
- IntEnum: single byte; a field encodes only a member of its own enum.
- dataclasses: fields in declaration order, no per-field tags.
- fields annotated ``AnyWire``: one tag byte identifying the concrete class
  in the wire registry, then that class encoded as a dataclass.

The wire registry is populated once, in a fixed order, by ``wire.py``.
Encoding and decoding fail only with ``EncodingError``. Each dataclass and
each homogeneous sequence type gets one generated encoder, compiled on first
use (see ``_generated``).

A value may carry kept bytes: ``keep`` stores its digest and its own tagged
encoding on it, and a container's encoder appends them (less the tag for a
concrete field) instead of encoding that child again. They are the same bytes,
since wire values are frozen. This module alone knows how they are kept.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import types
from enum import IntEnum
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints


class EncodingError(Exception):
    pass


class AnyWire:
    """Annotation marker: the field holds any registered wire class."""


LEN_MAX = (1 << 32) - 1
_LEN = struct.Struct("<I")
_INT = struct.Struct("<q")

_REGISTRY: list[type] = []
_TAG_OF: dict[type, int] = {}

# Kept bytes live on a value as ``_kept = (epoch, digest, data)``; they count
# only while ``epoch`` is the current ``_epoch``, so ``forget_kept`` makes every
# one stale at once.
_epoch = 0


def register_wire(cls: type) -> type:
    """Add a frozen dataclass to the wire registry; its tag is its registration order."""
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
        raise EncodingError(f"{cls.__name__} must be a frozen dataclass: digests are kept on values")
    if cls in _TAG_OF:
        raise EncodingError(f"{cls.__name__} registered twice")
    if len(_REGISTRY) > 0xFF:
        raise EncodingError("wire registry exceeds single-byte tag space")
    _TAG_OF[cls] = len(_REGISTRY)
    _REGISTRY.append(cls)
    return cls


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        chunk = self.data[self.pos : self.pos + n]
        if len(chunk) != n:
            raise EncodingError("truncated input")
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def count(self) -> int:
        return _LEN.unpack(self.take(4))[0]

    def flag(self, what: str) -> bool:
        b = self.byte()
        if b > 1:
            raise EncodingError(f"bad {what} byte")
        return b == 1


def _enc_int(value: Any, out: bytearray) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EncodingError(f"expected int, got {value!r}")
    try:
        out += _INT.pack(value)
    except struct.error:
        raise EncodingError(f"integer out of 64-bit range: {value}") from None


def _enc_bytes(value: Any, out: bytearray) -> None:
    if not isinstance(value, bytes):
        raise EncodingError(f"expected bytes, got {value!r}")
    if len(value) > LEN_MAX:
        raise EncodingError("sequence too long")
    out += _LEN.pack(len(value))
    out += value


def _enc_str(value: Any, out: bytearray) -> None:
    if not isinstance(value, str):
        raise EncodingError(f"expected str, got {value!r}")
    try:
        data = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"string has no UTF-8 form: {exc}") from None
    _enc_bytes(data, out)


def _dec_str(r: _Reader) -> str:
    try:
        return r.take(r.count()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"bad UTF-8 string: {exc}") from None


def _tuple_length(value: Any) -> int:
    if not isinstance(value, tuple):
        raise EncodingError(f"expected a tuple, got {value!r}")
    return len(value)


def _enc_bool(value: Any, out: bytearray) -> None:
    if not isinstance(value, bool):
        raise EncodingError(f"expected bool, got {value!r}")
    out.append(value)


def keep(value: Any, digest: bytes, data: bytes) -> None:
    """Keep ``digest`` and ``data``, ``encode(value)``, on the frozen ``value``."""
    object.__setattr__(value, "_kept", (_epoch, digest, data))


def kept_digest(value: Any) -> bytes | None:
    """The digest kept on ``value`` in the current epoch, or None."""
    kept = getattr(value, "_kept", None)
    return kept[1] if kept is not None and kept[0] == _epoch else None


def forget_kept() -> None:
    """Make every kept digest and its bytes stale."""
    global _epoch
    _epoch += 1


def _enc_any(value: Any, out: bytearray) -> None:
    kept = getattr(value, "_kept", None)
    if kept is not None and kept[0] == _epoch:
        out += kept[2]
        return
    _enc_tagged(value, out)


def _enc_tagged(value: Any, out: bytearray) -> None:
    cls = type(value)
    tag = _TAG_OF.get(cls)
    if tag is None:
        raise EncodingError(f"{cls.__name__} is not a registered wire type")
    out.append(tag)
    (_CODECS.get(cls) or _codec(cls))[0](value, out)


def _dec_any(r: _Reader) -> Any:
    tag = r.byte()
    if tag >= len(_REGISTRY):
        raise EncodingError(f"unknown wire tag {tag}")
    return _codec(_REGISTRY[tag])[1](r)


# wire type -> (encoder, decoder); _codec adds every type not listed here.
_CODECS: dict[Any, tuple[Callable, Callable]] = {
    int: (_enc_int, lambda r: _INT.unpack(r.take(8))[0]),
    bytes: (_enc_bytes, lambda r: r.take(r.count())),
    str: (_enc_str, _dec_str),
    bool: (_enc_bool, lambda r: r.flag("bool")),
    AnyWire: (_enc_any, _dec_any),
}


def _optional_of(tp: Any) -> Any:
    """The type that a value of the optional ``tp`` has when it is present."""
    args = get_args(tp)
    non_none = tuple(a for a in args if a is not type(None))
    if len(non_none) == len(args):
        raise EncodingError(f"bare unions are not encodable, use AnyWire: {tp}")
    return non_none[0] if len(non_none) == 1 else Union[non_none]


def _codec(tp: Any) -> tuple[Callable, Callable]:
    """The (encoder, decoder) pair for wire type ``tp``, built once from its hints.

    Types are inspected only here and in ``_encode_v``, while the codec is
    built. What it returns checks values and moves bytes, nothing else: a
    dataclass's, an optional's or a homogeneous sequence's encoder is one
    generated function, every other encoder and every decoder a closure.
    """
    pair = _CODECS.get(tp)
    if pair is not None:
        return pair
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is types.UnionType:
        dec = _codec(_optional_of(tp))[1]
        env: dict = {}
        pair = (_generated("encode_optional", ["v = value", *_encode_v(tp, env)], env),
                lambda r: dec(r) if r.flag("presence") else None)
    elif origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        codecs = [_codec(a) for a in args]

        def encode_fixed(value: Any, out: bytearray) -> None:
            if _tuple_length(value) != len(codecs):
                raise EncodingError("fixed tuple arity mismatch")
            for (enc_item, _), item in zip(codecs, value):
                enc_item(item, out)

        pair = (encode_fixed, lambda r: tuple(dec_item(r) for _, dec_item in codecs))
    elif origin is tuple:
        dec = _codec(args[0])[1]
        pair = (_sequence_encoder(args[0]), lambda r: tuple([dec(r) for _ in range(r.count())]))
    elif isinstance(tp, type) and issubclass(tp, IntEnum):

        def encode_enum(value: Any, out: bytearray) -> None:
            # A member only: a plain int or a bool may name no member, and then nothing decodes it.
            if type(value) is not tp:
                raise EncodingError(f"expected {tp.__name__}, got {value!r}")
            if not 0 <= value <= 0xFF:
                raise EncodingError("enum value out of byte range")
            out.append(value)

        def decode_enum(r: _Reader) -> Any:
            b = r.byte()
            try:
                return tp(b)
            except ValueError:
                raise EncodingError(f"unknown {tp.__name__} byte {b}") from None

        pair = (encode_enum, decode_enum)
    elif isinstance(tp, type) and dataclasses.is_dataclass(tp):
        # A class holds itself only through AnyWire, which is resolved per value.
        hints = get_type_hints(tp)
        decoders = [_codec(hints[f.name])[1] for f in dataclasses.fields(tp)]

        def decode_dataclass(r: _Reader) -> Any:
            values = [dec_field(r) for dec_field in decoders]
            try:
                return tp(*values)
            except ValueError as exc:  # a __post_init__ invariant rejects the fields
                raise EncodingError(f"invalid {tp.__name__}: {exc}") from None

        pair = (_dataclass_encoder(tp, hints), decode_dataclass)
    else:
        raise EncodingError(f"unsupported wire type: {tp!r}")
    _CODECS[tp] = pair
    return pair


# Statements that encode the value ``v`` into ``out`` in place, by its
# annotation; they fall back to the plain encoder for its checks and messages.
_INLINE = {
    int: (
        "if type(v) is int and -0x8000000000000000 <= v <= 0x7FFFFFFFFFFFFFFF:",
        "    out += _pack_int(v)",
        "else:",
        "    _enc_int(v, out)",
    ),
    bytes: (
        "if type(v) is bytes and len(v) <= 0xFFFFFFFF:",
        "    out += _pack_len(len(v))",
        "    out += v",
        "else:",
        "    _enc_bytes(v, out)",
    ),
}


def _generated(name: str, body: list[str], env: dict) -> Callable:
    """Compile ``def name(value, out)`` with ``body`` once with ``exec``, as
    ``dataclasses`` builds ``__init__``; ``env`` holds its globals."""
    env.update(EncodingError=EncodingError, _enc_int=_enc_int, _enc_bytes=_enc_bytes,
               _tuple_length=_tuple_length, _pack_int=_INT.pack, _pack_len=_LEN.pack,
               _serialize=sys.modules[__name__])
    source = f"def {name}(value, out):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<{name}>", "exec"), env)
    return env[name]


def _encode_v(tp: Any, env: dict) -> list[str]:
    """Statements that encode ``v`` of wire type ``tp``: inline for an int,
    bytes or an optional; else a call to ``tp``'s own encoder, bound in
    ``env``, which a registered class skips for its current kept bytes."""
    if tp in _INLINE:
        return list(_INLINE[tp])
    if get_origin(tp) in (Union, types.UnionType):
        inner = _encode_v(_optional_of(tp), env)
        return ["if v is None:", "    out.append(0)", "else:", "    out.append(1)",
                *(f"    {line}" for line in inner)]
    name = f"enc_{len(env)}"
    env[name] = _codec(tp)[0]
    if tp not in _TAG_OF:
        return [f"{name}(v, out)"]
    env[f"cls_{name}"] = tp
    return [  # the kept bytes without their tag: a concrete field has none
        "k = getattr(v, '_kept', None)",
        f"if k is not None and k[0] == _serialize._epoch and type(v) is cls_{name}:",
        "    out += k[2][1:]",
        "else:",
        f"    {name}(v, out)",
    ]


def _dataclass_encoder(tp: type, hints: dict) -> Callable:
    """One flat function that encodes a ``tp`` value: its class check, then
    each field in declaration order, written from the field names and hints."""
    env = {"tp": tp}
    body = [
        "if type(value) is not tp:",
        "    raise EncodingError(f'expected {tp.__name__}, got {type(value).__name__}')",
    ]
    for field in dataclasses.fields(tp):
        body += [f"v = value.{field.name}", *_encode_v(hints[field.name], env)]
    return _generated(f"encode_{tp.__name__}", body, env)


def _sequence_encoder(item: Any) -> Callable:
    """The encoder of a tuple of ``item``: its count, then each item."""
    env: dict = {}
    body = [
        "n = _tuple_length(value)",
        "if n > 0xFFFFFFFF:",
        "    raise EncodingError('sequence too long')",
        "out += _pack_len(n)",
        "for v in value:",
        *(f"    {line}" for line in _encode_v(item, env)),
    ]
    return _generated("encode_sequence", body, env)


def encode(value: Any) -> bytes:
    """Encode a registered wire value with its leading class tag. Bytes kept on
    ``value`` itself are not read, only those kept on the values it holds."""
    out = bytearray()
    _enc_tagged(value, out)
    return bytes(out)


def encode_as(tp: Any, value: Any) -> bytes:
    """Encode a value of a statically known type (no leading tag)."""
    out = bytearray()
    _codec(tp)[0](value, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode a tagged wire value, requiring full input consumption."""
    return decode_as(AnyWire, data)


def decode_as(tp: Any, data: bytes) -> Any:
    r = _Reader(data)
    value = _codec(tp)[1](r)
    if r.pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value
