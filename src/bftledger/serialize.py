"""Deterministic binary codec for protocol values.

Every value that is ever signed, certified, or written to a trace file goes
through this codec, so the layout must be deterministic and injective per
type.  The exact rules (documented bit-exactly in docs/encoding.md):

- integers: 8-byte little-endian two's complement; fields that are
  semantically unsigned use the same layout restricted to [0, 2**63).
- bytes / str: 4-byte little-endian length prefix, then raw bytes (str as
  UTF-8).
- bool: one byte, 0x00 or 0x01.
- Optional[T]: one presence byte (0x00 absent / 0x01 present), then payload.
- homogeneous sequences (tuple[T, ...] or list[T]): 4-byte little-endian
  count, then elements.
- fixed tuples tuple[A, B, ...]: elements in order, no prefix.
- IntEnum: single byte.
- dataclasses: fields in declaration order, no per-field tags.
- fields annotated ``AnyWire``: one tag byte identifying the concrete class
  in the wire registry, then that class encoded as a dataclass.

The wire registry is populated once, in a fixed order, by ``wire.py``.
"""

from __future__ import annotations

import dataclasses
import struct
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
    _enc_bytes(value.encode("utf-8"), out)


def _dec_str(r: _Reader) -> str:
    try:
        return r.take(r.count()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"bad UTF-8 string: {exc}") from None


def _enc_bool(value: Any, out: bytearray) -> None:
    if not isinstance(value, bool):
        raise EncodingError(f"expected bool, got {value!r}")
    out.append(value)


def _enc_any(value: Any, out: bytearray) -> None:
    cls = type(value)
    if cls not in _TAG_OF:
        raise EncodingError(f"{cls.__name__} is not a registered wire type")
    out.append(_TAG_OF[cls])
    _codec(cls)[0](value, out)


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


def _codec(tp: Any) -> tuple[Callable, Callable]:
    """The (encoder, decoder) pair for wire type ``tp``, built once from its hints.

    This is the only place that inspects a type; the closures it returns
    check values and move bytes, nothing else.
    """
    pair = _CODECS.get(tp)
    if pair is not None:
        return pair
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is types.UnionType:
        non_none = tuple(a for a in args if a is not type(None))
        if len(non_none) == len(args):
            raise EncodingError(f"bare unions are not encodable, use AnyWire: {tp}")
        enc, dec = _codec(non_none[0] if len(non_none) == 1 else Union[non_none])

        def encode_optional(value: Any, out: bytearray) -> None:
            out.append(value is not None)
            if value is not None:
                enc(value, out)

        pair = (encode_optional, lambda r: dec(r) if r.flag("presence") else None)
    elif origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        codecs = [_codec(a) for a in args]

        def encode_fixed(value: Any, out: bytearray) -> None:
            if len(value) != len(codecs):
                raise EncodingError("fixed tuple arity mismatch")
            for (enc_item, _), item in zip(codecs, value):
                enc_item(item, out)

        pair = (encode_fixed, lambda r: tuple(dec_item(r) for _, dec_item in codecs))
    elif origin in (tuple, list):
        enc, dec = _codec(args[0])

        def encode_sequence(value: Any, out: bytearray) -> None:
            if len(value) > LEN_MAX:
                raise EncodingError("sequence too long")
            out += _LEN.pack(len(value))
            for item in value:
                enc(item, out)

        def decode_sequence(r: _Reader) -> Any:
            items = [dec(r) for _ in range(r.count())]
            return tuple(items) if origin is tuple else items

        pair = (encode_sequence, decode_sequence)
    elif isinstance(tp, type) and issubclass(tp, IntEnum):

        def encode_enum(value: Any, out: bytearray) -> None:
            if not 0 <= int(value) <= 0xFF:
                raise EncodingError("enum value out of byte range")
            out.append(int(value))

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
        fields = [(f.name, *_codec(hints[f.name])) for f in dataclasses.fields(tp)]

        def encode_dataclass(value: Any, out: bytearray) -> None:
            if type(value) is not tp:
                raise EncodingError(f"expected {tp.__name__}, got {type(value).__name__}")
            for name, enc_field, _ in fields:
                enc_field(getattr(value, name), out)

        def decode_dataclass(r: _Reader) -> Any:
            values = [dec_field(r) for _, _, dec_field in fields]
            try:
                return tp(*values)
            except ValueError as exc:  # a __post_init__ invariant rejects the fields
                raise EncodingError(f"invalid {tp.__name__}: {exc}") from None

        pair = (encode_dataclass, decode_dataclass)
    else:
        raise EncodingError(f"unsupported wire type: {tp!r}")
    _CODECS[tp] = pair
    return pair


def encode(value: Any) -> bytes:
    """Encode a registered wire value with its leading class tag."""
    return encode_as(AnyWire, value)


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
