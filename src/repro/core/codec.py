"""Version codec: mapping :class:`Version` objects onto store payloads.

The version store keeps each version's bitemporal stamp — valid time and
transaction time — in its envelope, where every selection reads it; the
payload this codec produces is the state only: the declared attributes,
then one integer-list field per reference-set key the type can carry,
in one row format per atom type.
"""

from __future__ import annotations

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
        # (type, attrs, need_refs) -> (fields, flags, stop index);
        # built lazily, read-only after, so plain dict ops suffice under
        # the facade's read latch.
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

    # -- encoding -------------------------------------------------------------

    def encode(self, type_name: str, version: Version) -> StoredVersion:
        """Serialize a version for the store."""
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        row: Dict[str, object] = dict(version.values)
        for key in self._ref_keys[type_name]:
            targets = version.refs.get(key)
            if targets:
                row[key] = sorted(targets)
        payload = encode_row(fields, row)
        return StoredVersion(version.vt.start, version.vt.end,
                             version.tt.start, version.tt.end, payload)

    def decode(self, type_name: str, stored: StoredVersion) -> Version:
        """Reconstruct a version from its envelope and payload."""
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        row = decode_row_exact(fields, stored.payload)
        refs = {}
        for key in self._ref_keys[type_name]:
            targets = row.pop(key, None)
            if targets:
                refs[key] = frozenset(targets)
        return _version(stored, row, refs)

    # -- partial decoding (predicate/projection pushdown) --------------------

    def _partial_plan(self, type_name: str, attrs: Tuple[str, ...],
                      need_refs: bool
                      ) -> Tuple[List[FieldSpec], Tuple[bool, ...], int]:
        key = (type_name, attrs, need_refs)
        plan = self._partial_plans.get(key)
        if plan is not None:
            return plan
        try:
            fields = self._formats[type_name]
        except KeyError:
            raise SerializationError(
                f"no row format for atom type {type_name!r}") from None
        wanted = set(attrs)
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
        fields, flags, stop = self._partial_plan(type_name, attrs, False)
        return decode_row_partial(fields, payload, offset, flags, stop)

    def decode_partial(self, type_name: str, stored: StoredVersion,
                       attrs: Tuple[str, ...], need_refs: bool) -> Version:
        """Reconstruct a *projected* version.

        Only *attrs* (plus the reference sets when *need_refs* — the
        molecule builder walks them) are decoded; every other field is
        skipped.  Attributes outside *attrs* are simply absent from
        ``values``.
        """
        fields, flags, stop = self._partial_plan(type_name, attrs, need_refs)
        row = decode_row_partial(fields, stored.payload, 0, flags, stop)
        refs = {}
        if need_refs:
            for key in self._ref_keys[type_name]:
                targets = row.pop(key, None)
                if targets:
                    refs[key] = frozenset(targets)
        return _version(stored, row, refs)


def _version(stored: StoredVersion, values: Dict[str, object],
             refs: Dict[str, frozenset]) -> Version:
    """A version of *stored*'s envelope with the decoded state."""
    return Version(Interval(stored.vt_start, stored.vt_end),
                   Interval(stored.tt_start, stored.tt_end), values, refs)
