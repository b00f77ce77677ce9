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
from typing import Any, Union, get_args, get_origin, get_type_hints


class EncodingError(Exception):
    pass


class AnyWire:
    """Annotation marker: the field holds any registered wire class."""


INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1
LEN_MAX = (1 << 32) - 1

_REGISTRY: list[type] = []
_TAG_OF: dict[type, int] = {}
_HINTS_CACHE: dict[type, list[tuple[str, Any]]] = {}


def register_wire(cls: type) -> type:
    """Add a dataclass to the wire registry; its tag is its registration order."""
    if cls in _TAG_OF:
        raise EncodingError(f"{cls.__name__} registered twice")
    if len(_REGISTRY) > 0xFF:
        raise EncodingError("wire registry exceeds single-byte tag space")
    _TAG_OF[cls] = len(_REGISTRY)
    _REGISTRY.append(cls)
    return cls


def wire_tag(cls: type) -> int:
    try:
        return _TAG_OF[cls]
    except KeyError:
        raise EncodingError(f"{cls.__name__} is not a registered wire type") from None


def _field_hints(cls: type) -> list[tuple[str, Any]]:
    cached = _HINTS_CACHE.get(cls)
    if cached is None:
        hints = get_type_hints(cls)
        cached = [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
        _HINTS_CACHE[cls] = cached
    return cached


def _encode_int(value: int, out: bytearray) -> None:
    if not INT_MIN <= value <= INT_MAX:
        raise EncodingError(f"integer out of 64-bit range: {value}")
    out += value.to_bytes(8, "little", signed=True)


def _encode_len(count: int, out: bytearray) -> None:
    if count > LEN_MAX:
        raise EncodingError("sequence too long")
    out += struct.pack("<I", count)


def _encode(tp: Any, value: Any, out: bytearray) -> None:
    if tp is AnyWire:
        cls = type(value)
        out.append(wire_tag(cls))
        _encode_fields(cls, value, out)
        return
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise EncodingError(f"expected int, got {value!r}")
        _encode_int(value, out)
        return
    if tp is bytes:
        if not isinstance(value, bytes):
            raise EncodingError(f"expected bytes, got {value!r}")
        _encode_len(len(value), out)
        out += value
        return
    if tp is str:
        if not isinstance(value, str):
            raise EncodingError(f"expected str, got {value!r}")
        raw = value.encode("utf-8")
        _encode_len(len(raw), out)
        out += raw
        return
    if tp is bool:
        if not isinstance(value, bool):
            raise EncodingError(f"expected bool, got {value!r}")
        out.append(1 if value else 0)
        return

    origin = get_origin(tp)
    if origin is Union or origin is types.UnionType:
        args = get_args(tp)
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) != len(args):  # Optional[...]
            if value is None:
                out.append(0)
                return
            out.append(1)
            inner = non_none[0] if len(non_none) == 1 else Union[tuple(non_none)]
            _encode(inner, value, out)
            return
        raise EncodingError(f"bare unions are not encodable, use AnyWire: {tp}")
    if origin in (tuple, list):
        args = get_args(tp)
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            if len(value) != len(args):
                raise EncodingError("fixed tuple arity mismatch")
            for a, v in zip(args, value):
                _encode(a, v, out)
            return
        elem = args[0]
        _encode_len(len(value), out)
        for v in value:
            _encode(elem, v, out)
        return

    if isinstance(tp, type) and issubclass(tp, IntEnum):
        if not 0 <= int(value) <= 0xFF:
            raise EncodingError("enum value out of byte range")
        out.append(int(value))
        return
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        if type(value) is not tp:
            raise EncodingError(f"expected {tp.__name__}, got {type(value).__name__}")
        _encode_fields(tp, value, out)
        return
    raise EncodingError(f"unsupported wire type: {tp!r}")


def _encode_fields(cls: type, value: Any, out: bytearray) -> None:
    for name, hint in _field_hints(cls):
        _encode(hint, getattr(value, name), out)


def encode(value: Any) -> bytes:
    """Encode a registered wire value with its leading class tag."""
    out = bytearray()
    _encode(AnyWire, value, out)
    return bytes(out)


def encode_as(tp: Any, value: Any) -> bytes:
    """Encode a value of a statically known type (no leading tag)."""
    out = bytearray()
    _encode(tp, value, out)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise EncodingError("truncated input")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]


def _decode(tp: Any, r: _Reader) -> Any:
    if tp is AnyWire:
        tag = r.byte()
        if tag >= len(_REGISTRY):
            raise EncodingError(f"unknown wire tag {tag}")
        cls = _REGISTRY[tag]
        return _decode_fields(cls, r)
    if tp is int:
        return int.from_bytes(r.take(8), "little", signed=True)
    if tp is bytes:
        (n,) = struct.unpack("<I", r.take(4))
        return r.take(n)
    if tp is str:
        (n,) = struct.unpack("<I", r.take(4))
        try:
            return r.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"bad UTF-8 string: {exc}") from None
    if tp is bool:
        b = r.byte()
        if b > 1:
            raise EncodingError("bad bool byte")
        return bool(b)

    origin = get_origin(tp)
    if origin is Union or origin is types.UnionType:
        args = get_args(tp)
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) != len(args):
            present = r.byte()
            if present == 0:
                return None
            if present != 1:
                raise EncodingError("bad presence byte")
            inner = non_none[0] if len(non_none) == 1 else Union[tuple(non_none)]
            return _decode(inner, r)
        raise EncodingError(f"bare unions are not decodable: {tp}")
    if origin in (tuple, list):
        args = get_args(tp)
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            return tuple(_decode(a, r) for a in args)
        elem = args[0]
        (n,) = struct.unpack("<I", r.take(4))
        items = [_decode(elem, r) for _ in range(n)]
        return tuple(items) if origin is tuple else items

    if isinstance(tp, type) and issubclass(tp, IntEnum):
        b = r.byte()
        try:
            return tp(b)
        except ValueError:
            raise EncodingError(f"unknown {tp.__name__} byte {b}") from None
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        return _decode_fields(tp, r)
    raise EncodingError(f"unsupported wire type: {tp!r}")


def _decode_fields(cls: type, r: _Reader) -> Any:
    kwargs = {name: _decode(hint, r) for name, hint in _field_hints(cls)}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a __post_init__ invariant rejects the fields
        raise EncodingError(f"invalid {cls.__name__}: {exc}") from None


def decode(data: bytes) -> Any:
    """Decode a tagged wire value, requiring full input consumption."""
    r = _Reader(data)
    value = _decode(AnyWire, r)
    if r.pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def decode_as(tp: Any, data: bytes) -> Any:
    r = _Reader(data)
    value = _decode(tp, r)
    if r.pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value
