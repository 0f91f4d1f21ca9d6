"""Version codec: mapping :class:`Version` objects onto store payloads.

The version store keeps the valid-time envelope itself (it needs it for
time-slice reads); everything else — transaction time, attribute values,
reference sets — lives in the opaque payload this codec produces.  One row
format exists per atom type: the transaction-time pair, then the declared
attributes, then one integer-list field per reference-set key the type can
carry.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.core.schema import AtomType, Schema
from repro.core.version import IN, OUT, Version, ref_key
from repro.errors import SerializationError
from repro.storage.serialization import (
    FieldSpec,
    FieldType,
    decode_row_exact,
    decode_row_partial,
    encode_row,
)
from repro.storage.strategies import StoredVersion
from repro.temporal import Interval

_TT_START = "__tt_start"
_TT_END = "__tt_end"
#: The transaction-time pair: the first two fields of every row format,
#: fixed-width TIME values the encoder never leaves null.
_TT_PAIR = struct.Struct("<qq")


class VersionCodec:
    """Per-schema encoder/decoder between versions and store payloads."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._formats: Dict[str, List[FieldSpec]] = {}
        for atom_type in schema.atom_types:
            self._formats[atom_type.name] = self._build_format(atom_type)
        # Reference-set keys per type, in row-format order.
        self._ref_keys: Dict[str, Tuple[str, ...]] = {
            name: tuple(spec.name for spec in fields
                        if spec.type is FieldType.INT_LIST)
            for name, fields in self._formats.items()}
        # Null-bitmap length per type: where the transaction-time pair
        # starts in a payload (see peek_tt).
        self._bitmap_lens = {name: (len(fields) + 7) // 8
                             for name, fields in self._formats.items()}
        # (type, attrs, need_refs, with_tt) -> (fields, flags, stop index);
        # built lazily, read-only after, so plain dict ops suffice under
        # the facade's read latch.
        self._partial_plans: Dict[Tuple, Tuple[List[FieldSpec],
                                               Tuple[bool, ...], int]] = {}

    def _build_format(self, atom_type: AtomType) -> List[FieldSpec]:
        fields = [FieldSpec(_TT_START, FieldType.TIME),
                  FieldSpec(_TT_END, FieldType.TIME)]
        fields.extend(FieldSpec(attr.name, attr.data_type.field_type)
                      for attr in atom_type.attributes)
        for link in self._schema.links_touching(atom_type.name):
            if link.source == atom_type.name:
                fields.append(FieldSpec(ref_key(link.name, OUT),
                                        FieldType.INT_LIST))
            if link.target == atom_type.name:
                fields.append(FieldSpec(ref_key(link.name, IN),
                                        FieldType.INT_LIST))
        return fields

    def ref_keys(self, type_name: str) -> List[str]:
        """The reference-set keys an atom of *type_name* can carry."""
        return list(self._ref_keys[type_name])

    # -- encoding -------------------------------------------------------------

    def encode(self, type_name: str, version: Version) -> StoredVersion:
        """Serialize a version for the store."""
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        row: Dict[str, object] = {_TT_START: version.tt.start,
                                  _TT_END: version.tt.end}
        row.update(version.values)
        for key in self._ref_keys[type_name]:
            targets = version.refs.get(key)
            if targets:
                row[key] = sorted(targets)
        payload = encode_row(fields, row)
        return StoredVersion(version.vt.start, version.vt.end,
                             version.live, payload)

    def decode(self, type_name: str, stored: StoredVersion) -> Version:
        """Reconstruct a version from its envelope and payload."""
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        row = decode_row_exact(fields, stored.payload)
        tt = Interval(row.pop(_TT_START), row.pop(_TT_END))
        refs = {}
        for key in self._ref_keys[type_name]:
            targets = row.pop(key, None)
            if targets:
                refs[key] = frozenset(targets)
        return Version(Interval(stored.vt_start, stored.vt_end), tt,
                       row, refs)

    # -- partial decoding (predicate/projection pushdown) --------------------

    def _partial_plan(self, type_name: str, attrs: Tuple[str, ...],
                      need_refs: bool, with_tt: bool
                      ) -> Tuple[List[FieldSpec], Tuple[bool, ...], int]:
        key = (type_name, attrs, need_refs, with_tt)
        plan = self._partial_plans.get(key)
        if plan is not None:
            return plan
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        wanted = set(attrs)
        if with_tt:
            wanted.add(_TT_START)
            wanted.add(_TT_END)
        flags = tuple(
            spec.name in wanted
            or (need_refs and spec.type is FieldType.INT_LIST)
            for spec in fields)
        stop = -1
        for index in range(len(flags) - 1, -1, -1):
            if flags[index]:
                stop = index
                break
        plan = (fields, flags, stop)
        self._partial_plans[key] = plan
        return plan

    def peek(self, type_name: str, payload: bytes,
             attrs: Tuple[str, ...], offset: int = 0) -> Dict[str, object]:
        """Decode just *attrs* out of a raw payload — no Version built.

        The cheap probe under pushdown predicates: non-wanted fields
        are jumped over via their fixed widths or length prefixes, and
        nothing past the last wanted field is touched at all.
        """
        fields, flags, stop = self._partial_plan(type_name, attrs,
                                                 False, False)
        return decode_row_partial(fields, payload, offset, flags, stop)

    def peek_tt(self, type_name: str, payload: bytes,
                offset: int = 0) -> Tuple[int, int]:
        """The transaction-time pair ``(start, end)`` of a raw payload.

        The pair is the row's first two fields, fixed-width and never
        null, so it sits right after the null bitmap: two integer reads,
        nothing else decoded — the probe ``AS OF`` point reads use to
        pick the one version worth decoding.
        """
        try:
            at = offset + self._bitmap_lens[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        if len(payload) < at + _TT_PAIR.size or payload[offset] & 0b11:
            raise SerializationError(
                "record carries no transaction-time pair")
        return _TT_PAIR.unpack_from(payload, at)

    def decode_partial(self, type_name: str, stored: StoredVersion,
                       attrs: Tuple[str, ...], need_refs: bool) -> Version:
        """Reconstruct a *projected* version.

        Only *attrs* (plus the transaction-time pair, plus the
        reference sets when *need_refs* — the molecule builder walks
        them) are decoded; every other field is skipped.  Attributes
        outside *attrs* are simply absent from ``values``.
        """
        fields, flags, stop = self._partial_plan(type_name, attrs,
                                                 need_refs, True)
        row = decode_row_partial(fields, stored.payload, 0, flags, stop)
        tt = Interval(row.pop(_TT_START), row.pop(_TT_END))
        refs = {}
        if need_refs:
            for key in self._ref_keys[type_name]:
                targets = row.pop(key, None)
                if targets:
                    refs[key] = frozenset(targets)
        return Version(Interval(stored.vt_start, stored.vt_end), tt,
                       row, refs)
