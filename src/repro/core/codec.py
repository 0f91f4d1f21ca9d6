"""Version codec: mapping :class:`Version` objects onto store payloads.

The version store keeps each version's bitemporal stamp — valid time and
transaction time — in its envelope, where every selection reads it; the
payload this codec produces is the state only, self-describing: a 16-bit
atom type id, then the declared attributes and one integer-list field
per reference-set key the type can carry, in one row format per atom
type.  So any record decodes without a separate atom-to-type map.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.core.schema import AtomType, Schema
from repro.core.version import IN, OUT, Version, ref_key
from repro.errors import SerializationError, UnknownTypeError
from repro.storage.serialization import (
    FieldSpec,
    FieldType,
    decode_row_exact,
    decode_row_partial,
    encode_row,
)
from repro.storage.strategies import StoredVersion
from repro.temporal import Interval

_TYPE_PREFIX = struct.Struct("<H")


class VersionCodec:
    """Per-schema encoder/decoder between versions and store payloads."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._formats: Dict[str, List[FieldSpec]] = {}
        self._prefixes: Dict[str, bytes] = {}
        self._type_by_id: Dict[int, str] = {}
        for atom_type in schema.atom_types:
            self._formats[atom_type.name] = self._build_format(atom_type)
            self._prefixes[atom_type.name] = _TYPE_PREFIX.pack(
                atom_type.type_id)
            self._type_by_id[atom_type.type_id] = atom_type.name
        # Reference-set keys per type, in row-format order.
        self._ref_keys: Dict[str, Tuple[str, ...]] = {
            name: tuple(spec.name for spec in fields
                        if spec.type is FieldType.INT_LIST)
            for name, fields in self._formats.items()}
        # (type, attrs) -> (fields, flags, stop index); built lazily,
        # read-only after, so plain dict ops suffice under the facade's
        # read latch.
        self._partial_plans: Dict[Tuple, Tuple[List[FieldSpec],
                                               Tuple[bool, ...], int]] = {}

    def _build_format(self, atom_type: AtomType) -> List[FieldSpec]:
        fields = [FieldSpec(attr.name, attr.data_type.field_type)
                  for attr in atom_type.attributes]
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

    def _format(self, type_name: str) -> List[FieldSpec]:
        try:
            return self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None

    # -- encoding -------------------------------------------------------------

    def encode(self, type_name: str, version: Version) -> StoredVersion:
        """Serialize a version for the store, its payload prefixed with
        the type id."""
        fields = self._format(type_name)
        row: Dict[str, object] = dict(version.values)
        for key in self._ref_keys[type_name]:
            targets = version.refs.get(key)
            if targets:
                row[key] = sorted(targets)
        payload = self._prefixes[type_name] + encode_row(fields, row)
        return StoredVersion(version.vt.start, version.vt.end,
                             version.tt.start, version.tt.end, payload)

    # -- decoding -------------------------------------------------------------

    def type_name(self, payload: bytes) -> str:
        """The atom type a payload was stored as."""
        (type_id,) = _TYPE_PREFIX.unpack_from(payload, 0)
        try:
            return self._type_by_id[type_id]
        except KeyError:
            raise UnknownTypeError(
                f"stored record carries unknown type id {type_id}") from None

    def decode(self, stored: StoredVersion) -> Tuple[str, Version]:
        """The stored version's type name and the version itself, from
        its envelope and payload."""
        type_name = self.type_name(stored.payload)
        row = decode_row_exact(self._formats[type_name], stored.payload,
                               _TYPE_PREFIX.size)
        refs = {}
        for key in self._ref_keys[type_name]:
            targets = row.pop(key, None)
            if targets:
                refs[key] = frozenset(targets)
        return type_name, Version(Interval(stored.vt_start, stored.vt_end),
                                  Interval(stored.tt_start, stored.tt_end),
                                  row, refs)

    def peek(self, type_name: str, payload: bytes,
             attrs: Tuple[str, ...]) -> Optional[Dict[str, object]]:
        """Decode just *attrs* out of a payload of *type_name* — no
        Version built; ``None`` for a payload of another type.

        The cheap probe under pushdown predicates: non-wanted fields
        are jumped over via their fixed widths or length prefixes, and
        nothing past the last wanted field is touched at all.
        """
        if not payload.startswith(self._prefixes[type_name]):
            return None
        key = (type_name, attrs)
        plan = self._partial_plans.get(key)
        if plan is None:
            fields = self._format(type_name)
            flags = tuple(spec.name in attrs for spec in fields)
            stop = max((index for index, flag in enumerate(flags) if flag),
                       default=-1)
            plan = self._partial_plans[key] = (fields, flags, stop)
        fields, flags, stop = plan
        return decode_row_partial(fields, payload, _TYPE_PREFIX.size,
                                  flags, stop)
