"""Binary row codec: typed field lists to and from byte records.

The storage system stores opaque bytes; this module is the boundary where
typed values become records.  A row format is described by a sequence of
:class:`FieldSpec` entries; :func:`encode_row` and :func:`decode_row` are
exact inverses for every value accepted by the field types.

Wire format::

    null bitmap (1 bit per field, little-endian within bytes, padded)
    field values, in spec order, nulls skipped:
        INT / TIME   signed 64-bit little-endian
        FLOAT        IEEE-754 double little-endian
        BOOL         1 byte (0 / 1)
        STRING       u32 byte length + UTF-8 bytes
        BYTES        u32 length + raw bytes
        INT_LIST     u32 count + that many signed 64-bit values

``INT_LIST`` carries reference sets (sorted atom identifiers) so link
state serializes with the same codec as attribute state.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SerializationError

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")


class FieldType(enum.Enum):
    """Primitive wire types understood by the row codec."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    TIME = "time"
    BYTES = "bytes"
    INT_LIST = "int_list"


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One field of a row format: a name and a wire type."""

    name: str
    type: FieldType


def _encode_value(spec: FieldSpec, value: Any, out: List[bytes]) -> None:
    kind = spec.type
    if kind in (FieldType.INT, FieldType.TIME):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SerializationError(
                f"field {spec.name!r} expects int, got {type(value).__name__}")
        out.append(_I64.pack(value))
    elif kind is FieldType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SerializationError(
                f"field {spec.name!r} expects float, got {type(value).__name__}")
        out.append(_F64.pack(float(value)))
    elif kind is FieldType.BOOL:
        if not isinstance(value, bool):
            raise SerializationError(
                f"field {spec.name!r} expects bool, got {type(value).__name__}")
        out.append(b"\x01" if value else b"\x00")
    elif kind is FieldType.STRING:
        if not isinstance(value, str):
            raise SerializationError(
                f"field {spec.name!r} expects str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif kind is FieldType.BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise SerializationError(
                f"field {spec.name!r} expects bytes, got {type(value).__name__}")
        out.append(_U32.pack(len(value)))
        out.append(bytes(value))
    elif kind is FieldType.INT_LIST:
        try:
            items = [int(v) for v in value]
        except TypeError as exc:
            raise SerializationError(
                f"field {spec.name!r} expects an iterable of ints") from exc
        out.append(_U32.pack(len(items)))
        for item in items:
            out.append(_I64.pack(item))
    else:  # pragma: no cover - exhaustive enum
        raise SerializationError(f"unknown field type {kind!r}")


def encode_row(fields: Sequence[FieldSpec],
               values: Dict[str, Any]) -> bytes:
    """Encode *values* (keyed by field name) per the *fields* format.

    Missing keys and ``None`` values encode as SQL-style nulls.  Keys not
    named in the format are rejected — silently dropping data would mask
    caller bugs.
    """
    known = {spec.name for spec in fields}
    extra = set(values) - known
    if extra:
        raise SerializationError(
            f"values contain unknown fields: {sorted(extra)}")
    bitmap = bytearray((len(fields) + 7) // 8)
    body: List[bytes] = []
    for index, spec in enumerate(fields):
        value = values.get(spec.name)
        if value is None:
            bitmap[index // 8] |= 1 << (index % 8)
            continue
        _encode_value(spec, value, body)
    return bytes(bitmap) + b"".join(body)


def _decode_value(spec: FieldSpec, data: bytes, at: int) -> Tuple[Any, int]:
    kind = spec.type
    try:
        if kind in (FieldType.INT, FieldType.TIME):
            return _I64.unpack_from(data, at)[0], at + 8
        if kind is FieldType.FLOAT:
            return _F64.unpack_from(data, at)[0], at + 8
        if kind is FieldType.BOOL:
            return data[at] != 0, at + 1
        if kind is FieldType.STRING:
            (length,) = _U32.unpack_from(data, at)
            at += 4
            return data[at:at + length].decode("utf-8"), at + length
        if kind is FieldType.BYTES:
            (length,) = _U32.unpack_from(data, at)
            at += 4
            return bytes(data[at:at + length]), at + length
        if kind is FieldType.INT_LIST:
            (count,) = _U32.unpack_from(data, at)
            at += 4
            items = []
            for _ in range(count):
                items.append(_I64.unpack_from(data, at)[0])
                at += 8
            return items, at
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SerializationError(
            f"corrupt record while decoding field {spec.name!r}") from exc
    raise SerializationError(f"unknown field type {kind!r}")  # pragma: no cover


def decode_row(fields: Sequence[FieldSpec], data: bytes,
               offset: int = 0) -> Tuple[Dict[str, Any], int]:
    """Decode one row; returns (values dict, offset past the row).

    Null fields decode to ``None`` so ``decode_row(f, encode_row(f, v))``
    round-trips exactly (modulo absent-vs-``None`` normalization).
    """
    bitmap_len = (len(fields) + 7) // 8
    if len(data) - offset < bitmap_len:
        raise SerializationError("record shorter than its null bitmap")
    bitmap = data[offset:offset + bitmap_len]
    at = offset + bitmap_len
    values: Dict[str, Any] = {}
    for index, spec in enumerate(fields):
        if bitmap[index // 8] & (1 << (index % 8)):
            values[spec.name] = None
            continue
        values[spec.name], at = _decode_value(spec, data, at)
    return values, at


def decode_row_exact(fields: Sequence[FieldSpec], data: bytes,
                     offset: int = 0) -> Dict[str, Any]:
    """Decode a record that must contain exactly one row from *offset*."""
    values, end = decode_row(fields, data, offset)
    if end != len(data):
        raise SerializationError(
            f"trailing {len(data) - end} bytes after row")
    return values


def _skip_value(spec: FieldSpec, data: bytes, at: int) -> int:
    """Advance past one encoded value without materializing it."""
    kind = spec.type
    try:
        if kind in (FieldType.INT, FieldType.TIME, FieldType.FLOAT):
            return at + 8
        if kind is FieldType.BOOL:
            return at + 1
        if kind in (FieldType.STRING, FieldType.BYTES):
            (length,) = _U32.unpack_from(data, at)
            return at + 4 + length
        if kind is FieldType.INT_LIST:
            (count,) = _U32.unpack_from(data, at)
            return at + 4 + 8 * count
    except (struct.error, IndexError) as exc:
        raise SerializationError(
            f"corrupt record while skipping field {spec.name!r}") from exc
    raise SerializationError(f"unknown field type {kind!r}")  # pragma: no cover


def decode_row_partial(fields: Sequence[FieldSpec], data: bytes,
                       offset: int, wanted_flags: Sequence[bool],
                       stop_index: int) -> Dict[str, Any]:
    """Decode only the fields flagged in *wanted_flags*.

    Non-wanted fields are skipped by jumping over their encoding
    (fixed widths, or a length prefix for variable fields) — variable
    payload bytes are never touched, strings never UTF-8 decoded.  The
    scan stops after field *stop_index* (the last wanted field), so
    trailing fields cost nothing.  No trailing-bytes check: a partial
    read by definition does not reach the end of the row.
    """
    bitmap_len = (len(fields) + 7) // 8
    if len(data) - offset < bitmap_len:
        raise SerializationError("record shorter than its null bitmap")
    bitmap = data[offset:offset + bitmap_len]
    at = offset + bitmap_len
    values: Dict[str, Any] = {}
    for index, spec in enumerate(fields):
        if index > stop_index:
            break
        if bitmap[index // 8] & (1 << (index % 8)):
            if wanted_flags[index]:
                values[spec.name] = None
            continue
        if wanted_flags[index]:
            values[spec.name], at = _decode_value(spec, data, at)
        else:
            at = _skip_value(spec, data, at)
    return values
