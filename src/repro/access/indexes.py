"""Index management: the engine-facing catalog of B+-trees.

Three kinds of indexes exist:

* The **type index** (always present) maps ``(type id, atom id)`` pairs to
  nothing — a range scan over one type id enumerates the atoms of that
  type.  It replaces the per-type segment a relational system would have:
  in the MAD model all atoms share the version store, so type membership
  must be indexed explicitly.
* **Attribute indexes** (user-created) map ``(encoded value, atom id)``
  pairs.  They index values of *every* version ever written, so a lookup
  yields candidate atoms whose history mentions the value; the engine
  rechecks candidates against the queried time.  Superseded values are
  not removed — an index entry is a filter, never an authority.
* **Valid-time indexes** (per type, user-created) map
  ``(vt_start, atom id)``; a range scan finds atoms that changed inside a
  window, which accelerates change-oriented temporal queries.

All index roots and key widths are persisted through the catalog via
:meth:`IndexManager.persist_state`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.access.btree import BPlusTree
from repro.access.keys import decode_int, encode_composite, encode_int
from repro.errors import AccessError
from repro.storage.buffer import BufferManager

_TYPE_INDEX = "type"
_ATOM_ID_WIDTH = 8


def attribute_index_name(type_name: str, attribute: str) -> str:
    return f"attr:{type_name}.{attribute}"


def vt_index_name(type_name: str) -> str:
    return f"vt:{type_name}"


class IndexManager:
    """Creates, persists, and serves the database's B+-tree indexes."""

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, Dict[str, int]]] = None) -> None:
        self._buffer = buffer
        self.metrics = buffer.metrics
        self._c_probes = self.metrics.counter("index.probes")
        self._c_entries = self.metrics.counter("index.entries_added")
        self._c_batches = self.metrics.counter("index.batch_inserts")
        self._trees: Dict[str, BPlusTree] = {}
        self._meta: Dict[str, Dict[str, int]] = {}
        # Per-transaction write buffers: attribute entries dedupe within
        # the batch (dict-as-ordered-set), vt entries keep duplicates
        # (they are blind inserts in the unbatched path too).  Lookups
        # merge these so batching is invisible to readers.
        self._pending_attr: Dict[str, Dict[bytes, None]] = {}
        self._pending_vt: Dict[str, List[bytes]] = {}
        for name, meta in (state or {}).items():
            self._meta[name] = dict(meta)
            self._trees[name] = BPlusTree(
                buffer, key_size=meta["key_size"], value_size=0,
                root_page_id=meta["root"], name=name)
        if _TYPE_INDEX not in self._trees:
            self._create(_TYPE_INDEX, key_size=16)

    # -- persistence --------------------------------------------------------

    def persist_state(self) -> Dict[str, Dict[str, int]]:
        """Index roots and key widths for the catalog.

        Flushes pending entries first — a flush can split leaves and
        move root page ids, so it must happen before roots are read.
        """
        self.flush_pending()
        return {name: {"root": tree.root_page_id,
                       "key_size": tree.key_size}
                for name, tree in self._trees.items()}

    def flush_pending(self) -> int:
        """Drain buffered index entries into their trees.

        One :meth:`BPlusTree.insert_many` call per index: the sorted
        batch shares one leaf descent per run of adjacent keys and
        writes each touched leaf once per run, instead of paying a
        probe descent plus an insert descent per entry.  Returns the
        number of entries actually inserted.
        """
        total = 0
        for name in list(self._pending_attr):
            pending = self._pending_attr.pop(name)
            if not pending:
                continue
            count = self._tree(name).insert_many(
                [(key, b"") for key in pending], skip_present=True)
            self._c_entries.inc(count)
            self._c_batches.inc()
            total += count
        for name in list(self._pending_vt):
            pending = self._pending_vt.pop(name)
            if not pending:
                continue
            total += self._tree(name).insert_many(
                [(key, b"") for key in pending])
            self._c_batches.inc()
        return total

    # -- creation -------------------------------------------------------------

    def _create(self, name: str, key_size: int) -> BPlusTree:
        tree = BPlusTree(self._buffer, key_size=key_size, value_size=0,
                         name=name)
        self._trees[name] = tree
        self._meta[name] = {"key_size": key_size}
        return tree

    def create_attribute_index(self, type_name: str, attribute: str,
                               value_width: int) -> str:
        """Create an attribute index; returns its name.

        The caller (the engine) is responsible for backfilling entries for
        versions already stored.
        """
        name = attribute_index_name(type_name, attribute)
        if name in self._trees:
            raise AccessError(f"index {name} already exists")
        self._create(name, key_size=value_width + _ATOM_ID_WIDTH)
        return name

    def create_vt_index(self, type_name: str) -> str:
        """Create a valid-time (change) index for one atom type."""
        name = vt_index_name(type_name)
        if name in self._trees:
            raise AccessError(f"index {name} already exists")
        self._create(name, key_size=8 + _ATOM_ID_WIDTH)
        return name

    def has_index(self, name: str) -> bool:
        return name in self._trees

    def index_names(self) -> List[str]:
        return sorted(self._trees)

    def _tree(self, name: str) -> BPlusTree:
        try:
            return self._trees[name]
        except KeyError:
            raise AccessError(f"no index named {name}") from None

    # -- type index -----------------------------------------------------------------

    def register_atom(self, type_id: int, atom_id: int) -> None:
        key = encode_composite(encode_int(type_id), encode_int(atom_id))
        self._tree(_TYPE_INDEX).insert(key, b"")

    def unregister_atom(self, type_id: int, atom_id: int) -> None:
        key = encode_composite(encode_int(type_id), encode_int(atom_id))
        self._tree(_TYPE_INDEX).delete(key, b"")

    def atoms_of_type(self, type_id: int) -> Iterator[int]:
        """Atom ids registered under *type_id*, ascending."""
        self._c_probes.inc()
        lo = encode_composite(encode_int(type_id), encode_int(-(2**63)))
        hi = encode_composite(encode_int(type_id), encode_int(2**63 - 1))
        for key, _ in self._tree(_TYPE_INDEX).range_scan(lo, hi,
                                                         hi_inclusive=True):
            yield decode_int(key[8:16])

    # -- attribute indexes ---------------------------------------------------------------

    def add_attribute_entry(self, name: str, value_key: bytes,
                            atom_id: int) -> None:
        """Register that some version of *atom_id* carries *value_key*.

        Idempotent per (value, atom) pair — re-adding the same pair (the
        common case when consecutive versions keep a value) is skipped to
        bound index growth.

        Entries are buffered until :meth:`flush_pending` (transaction
        commit/abort, or persistence) batches them into the tree; the
        buffer dict dedupes within the batch and the flush dedupes
        against the tree.
        """
        self._tree(name)  # validate the index exists now, not at flush
        key = encode_composite(value_key, encode_int(atom_id))
        self._pending_attr.setdefault(name, {})[key] = None

    def candidate_atoms_eq(self, name: str, value_key: bytes) -> List[int]:
        """Atoms with *some* version matching the value key exactly."""
        self._c_probes.inc()
        lo = encode_composite(value_key, encode_int(-(2**63)))
        hi = encode_composite(value_key, encode_int(2**63 - 1))
        keys = {key for key, _ in
                self._tree(name).range_scan(lo, hi, hi_inclusive=True)}
        for key in self._pending_attr.get(name, ()):
            if lo <= key <= hi:
                keys.add(key)
        return [decode_int(key[-8:]) for key in sorted(keys)]

    # -- valid-time indexes -----------------------------------------------------------------

    def add_vt_entry(self, name: str, vt_start: int, atom_id: int) -> None:
        self._tree(name)  # validate the index exists now, not at flush
        key = encode_composite(encode_int(vt_start), encode_int(atom_id))
        self._pending_vt.setdefault(name, []).append(key)

    def atoms_changed_during(self, name: str, start: int,
                             end: int) -> List[int]:
        """Atoms with a version whose validity began in ``[start, end)``."""
        self._c_probes.inc()
        lo = encode_composite(encode_int(start), encode_int(-(2**63)))
        hi = encode_composite(encode_int(end), encode_int(-(2**63)))
        matched = {key for key, _ in self._tree(name).range_scan(lo, hi)}
        for key in self._pending_vt.get(name, ()):
            if lo <= key < hi:
                matched.add(key)
        seen: Dict[int, None] = {}
        for key in sorted(matched):
            seen.setdefault(decode_int(key[8:16]))
        return list(seen)

    # -- integrity ------------------------------------------------------------------------------

    def check_all(self) -> None:
        self.flush_pending()
        for tree in self._trees.values():
            tree.check()
