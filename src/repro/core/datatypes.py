"""Attribute data types of the model and their mappings.

Each :class:`DataType` knows how to validate a Python value, which wire
type the row codec uses for it, and how to build an order-preserving index
key for it (see :mod:`repro.access.keys`).
"""

from __future__ import annotations

import enum
from typing import Any, Tuple

from repro.access import keys
from repro.errors import TypeMismatchError
from repro.storage.serialization import FieldType


class DataType(enum.Enum):
    """Attribute types supported by atom definitions."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    TIME = "time"

    # -- validation ---------------------------------------------------------

    def validate(self, name: str, value: Any) -> Any:
        """Return *value* if it conforms to this type, else raise.

        ``int`` is accepted for FLOAT attributes (widening); ``bool`` is
        never accepted for numeric types despite being an ``int`` subclass.
        """
        if value is None:
            return None
        if self in (DataType.INT, DataType.TIME):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(
                    f"attribute {name!r} expects {self.value}, "
                    f"got {type(value).__name__}")
            return value
        if self is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    f"attribute {name!r} expects float, "
                    f"got {type(value).__name__}")
            return float(value)
        if self is DataType.STRING:
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"attribute {name!r} expects str, "
                    f"got {type(value).__name__}")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate
                raise TypeMismatchError(
                    f"attribute {name!r} holds a string that is not "
                    f"valid UTF-8") from None
            return value
        if self is DataType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(
                    f"attribute {name!r} expects bool, "
                    f"got {type(value).__name__}")
            return value
        raise TypeMismatchError(f"unknown data type {self!r}")  # pragma: no cover

    # -- storage mapping ------------------------------------------------------

    @property
    def field_type(self) -> FieldType:
        """The row-codec wire type for this data type."""
        return _FIELD_TYPES[self]

    # -- index mapping -----------------------------------------------------------

    @property
    def key_width(self) -> int:
        """Fixed index-key width in bytes."""
        return _KEY_WIDTHS[self]

    def encode_key(self, value: Any) -> Tuple[bytes, bool]:
        """Encode *value* as an index key; returns (key, is_lossy).

        A lossy key (string prefixes) means index hits are candidates that
        must be rechecked against the stored value.
        """
        if self in (DataType.INT, DataType.TIME):
            return keys.encode_int(value), False
        if self is DataType.FLOAT:
            return keys.encode_float(value), False
        if self is DataType.BOOL:
            return keys.encode_bool(value), False
        if self is DataType.STRING:
            return (keys.encode_string(value),
                    keys.string_prefix_is_lossy(value))
        raise TypeMismatchError(f"unknown data type {self!r}")  # pragma: no cover


_FIELD_TYPES = {
    DataType.INT: FieldType.INT,
    DataType.FLOAT: FieldType.FLOAT,
    DataType.STRING: FieldType.STRING,
    DataType.BOOL: FieldType.BOOL,
    DataType.TIME: FieldType.TIME,
}

_KEY_WIDTHS = {
    DataType.INT: keys.INT_KEY_WIDTH,
    DataType.FLOAT: keys.FLOAT_KEY_WIDTH,
    DataType.STRING: keys.DEFAULT_STRING_WIDTH,
    DataType.BOOL: keys.BOOL_KEY_WIDTH,
    DataType.TIME: keys.INT_KEY_WIDTH,
}


def parse_datatype(text: str) -> DataType:
    """Parse a data type name (as stored in the catalog)."""
    try:
        return DataType(text.lower())
    except ValueError:
        raise TypeMismatchError(f"unknown data type {text!r}") from None
