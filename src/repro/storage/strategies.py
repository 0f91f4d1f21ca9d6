"""Version-storage strategies: mapping atom histories onto pages.

This module is the paper's central implementation contribution: *how* the
version history of an atom is physically represented.  All strategies
implement one :class:`VersionStore` contract so the engine above is
agnostic; they differ exactly in the access-cost trade-offs the
benchmarks measure:

``CLUSTERED``
    The "temporal atom": one (possibly page-spanning) record holds the
    complete history.  One directory probe fetches everything — history
    and time-slice reads are cheap — but every update rewrites the whole
    record, so update cost grows with history length.

``CHAINED``
    One record per version; the directory points at the newest, each
    version points at its predecessor.  Updates are O(1), the current
    version is one probe away, but reaching a version *d* steps in the
    past walks *d* records (and typically *d* pages).

``SEPARATED``
    Current versions live in their own dense segment; superseded versions
    migrate to an append-only history segment; a per-atom *version
    directory* record lists the temporal envelope and address of every
    history version.  Updates are O(1), current access is one probe, and
    past access is two probes regardless of temporal distance.

A version is stored as an *envelope* (valid-time interval plus the
"still current knowledge" flag, which the store needs to answer
time-slice reads) plus an opaque payload (the engine's serialized state
— the store never interprets it).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StorageError, UnknownAtomError
from repro.storage.buffer import BufferManager
from repro.storage.constants import INVALID_PAGE_ID
from repro.storage.directory import AtomDirectory
from repro.storage.heap import HeapSegment, RecordId

_ENVELOPE = struct.Struct("<qqB")   # vt_start, vt_end, live flag
_U32 = struct.Struct("<I")
_NO_RECORD = RecordId(INVALID_PAGE_ID, 0)


class VersionStrategy(enum.Enum):
    """Selectable physical mapping of version histories."""

    CLUSTERED = "clustered"
    CHAINED = "chained"
    SEPARATED = "separated"


@dataclass(frozen=True, slots=True)
class StoredVersion:
    """One version as the storage layer sees it: envelope plus payload."""

    vt_start: int
    vt_end: int
    live: bool
    payload: bytes

    def contains(self, at: int) -> bool:
        return self.vt_start <= at < self.vt_end


@dataclass
class StorageStats:
    """Space accounting for one store (feeds experiment R-T1)."""

    strategy: str
    segment_pages: Dict[str, int] = field(default_factory=dict)
    directory_pages: int = 0
    page_size: int = 0

    @property
    def total_pages(self) -> int:
        return sum(self.segment_pages.values()) + self.directory_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size


def _pack_envelope(sv: StoredVersion) -> bytes:
    return _ENVELOPE.pack(sv.vt_start, sv.vt_end, 1 if sv.live else 0)


def _unpack_envelope(data: bytes, at: int) -> Tuple[int, int, bool, int]:
    vt_start, vt_end, live = _ENVELOPE.unpack_from(data, at)
    return vt_start, vt_end, bool(live), at + _ENVELOPE.size


class VersionStore:
    """Contract every strategy fulfils.

    Sequence numbers are assigned in append order (0 = oldest) and are
    stable for the lifetime of the atom; ``replace_version`` rewrites the
    record of an existing sequence number (the engine uses it to close
    transaction-time intervals).
    """

    strategy: VersionStrategy

    # -- mutation -----------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> None:
        raise NotImplementedError

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        raise NotImplementedError

    def pop_version(self, atom_id: int) -> None:
        """Remove the newest version (transaction rollback only).

        Removing the last remaining version removes the atom.
        """
        raise NotImplementedError

    def delete_atom(self, atom_id: int) -> None:
        raise NotImplementedError

    # -- reads ------------------------------------------------------------------

    def read_all(self, atom_id: int) -> List[StoredVersion]:
        raise NotImplementedError

    def read_at(self, atom_id: int, at: int) -> List[Tuple[int, StoredVersion]]:
        """Live versions whose valid time contains *at* (at most one when
        the engine's disjointness invariant holds)."""
        raise NotImplementedError

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        """The newest (highest-sequence) version."""
        raise NotImplementedError

    def read_live(self, atom_id: int) -> List[Tuple[int, StoredVersion]]:
        """All live versions with their sequence numbers, in seq order.

        Revision planning only touches live versions, so this is the
        write path's read: a strategy that can locate the live set
        without materialising the closed majority (SEPARATED's dense
        current segment plus envelope-only version directory) should
        override the full-history fallback.
        """
        return [(seq, sv) for seq, sv in enumerate(self.read_all(atom_id))
                if sv.live]

    def read_versions(self, atom_id: int,
                      seqs: Iterable[int]) -> Dict[int, StoredVersion]:
        """The stored records of specific sequence numbers.

        Used to capture pre-images for undo without re-reading the whole
        history; *seqs* outside the atom raise :class:`StorageError`.
        """
        wanted = set(seqs)
        versions = self.read_all(atom_id)
        missing = [seq for seq in wanted
                   if not (0 <= seq < len(versions))]
        if missing:
            raise StorageError(
                f"atom {atom_id} has no version {missing[0]}")
        return {seq: versions[seq] for seq in wanted}

    # -- batched reads ---------------------------------------------------------
    #
    # The set-oriented entry points: one call answers many atoms, so a
    # strategy can sort its directory probes and pin every touched page
    # once per batch rather than once per atom.  The generic fallbacks
    # below just loop; each strategy overrides them with a grouped plan.
    #
    # The optional *pred* of ``read_at_many`` is a pushed-down payload
    # predicate (from :meth:`StorageEngine.compile_pushdown`): hits
    # failing it are dropped and counted on the
    # ``engine.pushdown.skipped`` counter, so the engine never decodes
    # them.  ``read_all_many`` takes none: whole histories are cached
    # above the store, and the engine filters them there.

    #: Bound to the real ``engine.pushdown.skipped`` counter by stores
    #: wired to a metrics registry; ``None`` keeps the accounting a
    #: no-op for bare test stores.
    _c_pushdown_skipped = None

    def _note_skips(self, count: int = 1) -> None:
        if count and self._c_pushdown_skipped is not None:
            self._c_pushdown_skipped.inc(count)

    def read_at_many(self, atom_ids: Iterable[int], at: int,
                     pred: Optional[Callable[[bytes], bool]] = None
                     ) -> Dict[int, List[Tuple[int, StoredVersion]]]:
        """Batched :meth:`read_at`.

        Returns ``{atom_id: hits}`` with every distinct requested id
        present; atoms not in the store map to an empty hit list instead
        of raising.
        """
        result: Dict[int, List[Tuple[int, StoredVersion]]] = {}
        for atom_id in atom_ids:
            if atom_id in result:
                continue
            try:
                hits = self.read_at(atom_id, at)
            except UnknownAtomError:
                result[atom_id] = []
                continue
            if pred is not None:
                kept = [(seq, sv) for seq, sv in hits if pred(sv.payload)]
                self._note_skips(len(hits) - len(kept))
                hits = kept
            result[atom_id] = hits
        return result

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        """Batched :meth:`read_all`; atoms not in the store are omitted."""
        result: Dict[int, List[StoredVersion]] = {}
        for atom_id in atom_ids:
            if atom_id in result:
                continue
            try:
                result[atom_id] = list(self.read_all(atom_id))
            except UnknownAtomError:
                continue
        return result

    def version_count(self, atom_id: int) -> int:
        raise NotImplementedError

    def exists(self, atom_id: int) -> bool:
        raise NotImplementedError

    def atom_ids(self) -> Iterator[int]:
        raise NotImplementedError

    def scan_all(self) -> Iterator[Tuple[int, List[StoredVersion]]]:
        for atom_id in list(self.atom_ids()):
            yield atom_id, self.read_all(atom_id)

    # -- maintenance ----------------------------------------------------------------

    def stats(self) -> StorageStats:
        raise NotImplementedError

    def persist_state(self) -> Dict[str, List[int]]:
        """Page lists to store in the catalog, keyed by component name."""
        raise NotImplementedError


class _BaseStore(VersionStore):
    """Shared plumbing: directory handling and stats assembly."""

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, List[int]]]) -> None:
        self._buffer = buffer
        self._c_pushdown_skipped = buffer.metrics.counter(
            "engine.pushdown.skipped")
        state = state or {}
        self._directory = AtomDirectory(
            buffer, f"{self.strategy.value}.dir",
            bucket_pages=state.get("directory") or None)

    def _entry(self, atom_id: int) -> bytes:
        payload = self._directory.get(atom_id)
        if payload is None:
            raise UnknownAtomError(f"atom {atom_id} not in store")
        return payload

    def _entries_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, Optional[bytes]]:
        """Directory payloads for a batch (missing atoms map to None)."""
        return self._directory.get_many(atom_ids)

    def exists(self, atom_id: int) -> bool:
        return atom_id in self._directory

    def atom_ids(self) -> Iterator[int]:
        return self._directory.keys()

    def _segments(self) -> Dict[str, HeapSegment]:
        raise NotImplementedError

    def stats(self) -> StorageStats:
        stats = StorageStats(strategy=self.strategy.value,
                             page_size=self._buffer.page_size)
        for name, segment in self._segments().items():
            stats.segment_pages[name] = segment.page_count()
        stats.directory_pages = len(self._directory.pages())
        return stats

    def persist_state(self) -> Dict[str, List[int]]:
        state = {name: segment.pages
                 for name, segment in self._segments().items()}
        state["directory"] = self._directory.bucket_pages
        return state


# ---------------------------------------------------------------------------
# CLUSTERED: the whole history in one spanned record ("temporal atom")
# ---------------------------------------------------------------------------


class ClusteredStore(_BaseStore):
    """All versions of an atom clustered into one logical record."""

    strategy = VersionStrategy.CLUSTERED

    _DIR_VALUE = struct.Struct("<QHI")  # head page, head slot, count

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, List[int]]] = None) -> None:
        super().__init__(buffer, state)
        state = state or {}
        self._segment = HeapSegment(buffer, "clustered",
                                    state.get("clustered"))

    def _segments(self) -> Dict[str, HeapSegment]:
        return {"clustered": self._segment}

    # -- record codec -------------------------------------------------------

    @staticmethod
    def _encode(versions: List[StoredVersion]) -> bytes:
        parts = [_U32.pack(len(versions))]
        for sv in versions:
            parts.append(_pack_envelope(sv))
            parts.append(_U32.pack(len(sv.payload)))
            parts.append(sv.payload)
        return b"".join(parts)

    @staticmethod
    def _decode(record: bytes) -> List[StoredVersion]:
        (count,) = _U32.unpack_from(record, 0)
        at = _U32.size
        versions: List[StoredVersion] = []
        for _ in range(count):
            vt_start, vt_end, live, at = _unpack_envelope(record, at)
            (length,) = _U32.unpack_from(record, at)
            at += _U32.size
            versions.append(StoredVersion(vt_start, vt_end, live,
                                          record[at:at + length]))
            at += length
        return versions

    def _dir_entry(self, atom_id: int) -> Tuple[RecordId, int]:
        page, slot, count = self._DIR_VALUE.unpack(self._entry(atom_id))
        return RecordId(page, slot), count

    def _put_dir(self, atom_id: int, rid: RecordId, count: int) -> None:
        self._directory.put(
            atom_id, self._DIR_VALUE.pack(rid.page_id, rid.slot, count))

    # -- protocol --------------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> None:
        if self.exists(atom_id):
            rid, count = self._dir_entry(atom_id)
            versions = self._decode(self._segment.read(rid))
            versions.append(sv)
            new_rid = self._segment.update(rid, self._encode(versions))
            self._put_dir(atom_id, new_rid, count + 1)
        else:
            rid = self._segment.insert(self._encode([sv]))
            self._put_dir(atom_id, rid, 1)

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        rid, count = self._dir_entry(atom_id)
        if not (0 <= seq < count):
            raise StorageError(f"atom {atom_id} has no version {seq}")
        versions = self._decode(self._segment.read(rid))
        versions[seq] = sv
        new_rid = self._segment.update(rid, self._encode(versions))
        if new_rid != rid:
            self._put_dir(atom_id, new_rid, count)

    def pop_version(self, atom_id: int) -> None:
        rid, count = self._dir_entry(atom_id)
        if count <= 1:
            self.delete_atom(atom_id)
            return
        versions = self._decode(self._segment.read(rid))
        versions.pop()
        new_rid = self._segment.update(rid, self._encode(versions))
        self._put_dir(atom_id, new_rid, count - 1)

    def delete_atom(self, atom_id: int) -> None:
        rid, _ = self._dir_entry(atom_id)
        self._segment.delete(rid)
        self._directory.delete(atom_id)

    def read_all(self, atom_id: int) -> List[StoredVersion]:
        rid, _ = self._dir_entry(atom_id)
        return self._decode(self._segment.read(rid))

    def read_at(self, atom_id: int, at: int) -> List[Tuple[int, StoredVersion]]:
        return [(seq, sv) for seq, sv in enumerate(self.read_all(atom_id))
                if sv.live and sv.contains(at)]

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        versions = self.read_all(atom_id)
        return len(versions) - 1, versions[-1]

    def version_count(self, atom_id: int) -> int:
        return self._dir_entry(atom_id)[1]

    # -- batched reads ---------------------------------------------------------

    def _records_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        """Decode the history record of every known atom in the batch.

        One grouped directory pass, then one grouped record pass —
        history records sharing a page are served under a single pin.
        """
        rid_for: Dict[int, RecordId] = {}
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is None:
                continue
            page, slot, _count = self._DIR_VALUE.unpack(payload)
            rid_for[atom_id] = RecordId(page, slot)
        records = self._segment.read_many(rid_for.values())
        return {atom_id: self._decode(records[rid])
                for atom_id, rid in rid_for.items()}

    def read_at_many(self, atom_ids: Iterable[int], at: int,
                     pred: Optional[Callable[[bytes], bool]] = None
                     ) -> Dict[int, List[Tuple[int, StoredVersion]]]:
        histories = self._records_many(atom_ids)
        result: Dict[int, List[Tuple[int, StoredVersion]]] = {}
        for atom_id in dict.fromkeys(atom_ids):
            versions = histories.get(atom_id)
            if versions is None:
                result[atom_id] = []
                continue
            hits = [(seq, sv) for seq, sv in enumerate(versions)
                    if sv.live and sv.contains(at)]
            if pred is not None:
                kept = [(seq, sv) for seq, sv in hits if pred(sv.payload)]
                self._note_skips(len(hits) - len(kept))
                hits = kept
            result[atom_id] = hits
        return result

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        return self._records_many(atom_ids)


# ---------------------------------------------------------------------------
# CHAINED: one record per version, linked backwards from the newest
# ---------------------------------------------------------------------------


class ChainedStore(_BaseStore):
    """Per-version records forming a backward chain from the current one."""

    strategy = VersionStrategy.CHAINED

    _DIR_VALUE = struct.Struct("<QHI")  # newest page, newest slot, count

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, List[int]]] = None) -> None:
        super().__init__(buffer, state)
        state = state or {}
        self._segment = HeapSegment(buffer, "chained", state.get("chained"))

    def _segments(self) -> Dict[str, HeapSegment]:
        return {"chained": self._segment}

    # -- record codec -------------------------------------------------------

    @staticmethod
    def _encode(prev: RecordId, sv: StoredVersion) -> bytes:
        return prev.pack() + _pack_envelope(sv) + sv.payload

    @staticmethod
    def _decode(record: bytes) -> Tuple[RecordId, StoredVersion]:
        prev = RecordId.unpack(record, 0)
        at = RecordId.PACKED_SIZE
        vt_start, vt_end, live, at = _unpack_envelope(record, at)
        return prev, StoredVersion(vt_start, vt_end, live, record[at:])

    def _dir_entry(self, atom_id: int) -> Tuple[RecordId, int]:
        page, slot, count = self._DIR_VALUE.unpack(self._entry(atom_id))
        return RecordId(page, slot), count

    def _put_dir(self, atom_id: int, rid: RecordId, count: int) -> None:
        self._directory.put(
            atom_id, self._DIR_VALUE.pack(rid.page_id, rid.slot, count))

    def _walk(self, atom_id: int) -> Iterator[Tuple[int, RecordId,
                                                    RecordId, StoredVersion]]:
        """Yield (seq, rid, prev rid, version) from newest to oldest."""
        rid, count = self._dir_entry(atom_id)
        seq = count - 1
        while rid != _NO_RECORD:
            prev, sv = self._decode(self._segment.read(rid))
            yield seq, rid, prev, sv
            rid = prev
            seq -= 1

    # -- protocol --------------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> None:
        if self.exists(atom_id):
            prev, count = self._dir_entry(atom_id)
        else:
            prev, count = _NO_RECORD, 0
        rid = self._segment.insert(self._encode(prev, sv))
        self._put_dir(atom_id, rid, count + 1)

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        successor: Optional[RecordId] = None
        for cur_seq, rid, prev, _old in self._walk(atom_id):
            if cur_seq != seq:
                successor = rid
                continue
            new_rid = self._segment.update(rid, self._encode(prev, sv))
            if new_rid == rid:
                return
            # The record moved: repair the incoming pointer.
            if successor is None:
                _, count = self._dir_entry(atom_id)
                self._put_dir(atom_id, new_rid, count)
            else:
                succ_record = self._segment.read(successor)
                patched = new_rid.pack() + succ_record[RecordId.PACKED_SIZE:]
                moved = self._segment.update(successor, patched)
                if moved != successor:
                    # Same-size updates stay in place for unspanned
                    # records; a move here would require cascading
                    # repairs that this layout cannot express safely.
                    raise StorageError(
                        "chained store: pointer patch relocated a record")
            return
        raise StorageError(f"atom {atom_id} has no version {seq}")

    def pop_version(self, atom_id: int) -> None:
        rid, count = self._dir_entry(atom_id)
        if count <= 1:
            self.delete_atom(atom_id)
            return
        prev, _sv = self._decode(self._segment.read(rid))
        self._segment.delete(rid)
        self._put_dir(atom_id, prev, count - 1)

    def delete_atom(self, atom_id: int) -> None:
        rids = [rid for _, rid, _, _ in self._walk(atom_id)]
        for rid in rids:
            self._segment.delete(rid)
        self._directory.delete(atom_id)

    def read_all(self, atom_id: int) -> List[StoredVersion]:
        newest_first = [sv for _, _, _, sv in self._walk(atom_id)]
        newest_first.reverse()
        return newest_first

    def read_at(self, atom_id: int, at: int) -> List[Tuple[int, StoredVersion]]:
        # Live versions are valid-time disjoint, so the first hit is the
        # only hit and the walk can stop — the cost is proportional to the
        # temporal distance of *at* from now (the strategy's signature).
        for seq, _rid, _prev, sv in self._walk(atom_id):
            if sv.live and sv.contains(at):
                return [(seq, sv)]
        return []

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        rid, count = self._dir_entry(atom_id)
        _, sv = self._decode(self._segment.read(rid))
        return count - 1, sv

    def read_versions(self, atom_id: int,
                      seqs: Iterable[int]) -> Dict[int, StoredVersion]:
        # Walk newest-first and stop as soon as every requested seq is
        # in hand — the write path asks for recently-closed versions, so
        # the walk usually ends within a step or two of the head.
        wanted = set(seqs)
        result: Dict[int, StoredVersion] = {}
        for seq, _rid, _prev, sv in self._walk(atom_id):
            if seq in wanted:
                result[seq] = sv
                wanted.discard(seq)
                if not wanted:
                    return result
        if wanted:
            raise StorageError(
                f"atom {atom_id} has no version {min(wanted)}")
        return result

    def version_count(self, atom_id: int) -> int:
        return self._dir_entry(atom_id)[1]

    # -- batched reads ---------------------------------------------------------
    #
    # Chains are walked breadth-first across the whole batch: every round
    # reads the frontier record of *all* still-active atoms through one
    # page-grouped read_many, so chain records co-located on a page cost
    # one pin for the whole batch rather than one per atom.

    def _frontier(self, atom_ids: Iterable[int]
                  ) -> Tuple[Dict[int, Tuple[RecordId, int]], List[int]]:
        frontier: Dict[int, Tuple[RecordId, int]] = {}
        missing: List[int] = []
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is None:
                missing.append(atom_id)
                continue
            page, slot, count = self._DIR_VALUE.unpack(payload)
            frontier[atom_id] = (RecordId(page, slot), count - 1)
        return frontier, missing

    def read_at_many(self, atom_ids: Iterable[int], at: int,
                     pred: Optional[Callable[[bytes], bool]] = None
                     ) -> Dict[int, List[Tuple[int, StoredVersion]]]:
        frontier, missing = self._frontier(atom_ids)
        result: Dict[int, List[Tuple[int, StoredVersion]]] = {
            atom_id: [] for atom_id in missing}
        while frontier:
            records = self._segment.read_many(
                rid for rid, _ in frontier.values())
            advanced: Dict[int, Tuple[RecordId, int]] = {}
            for atom_id, (rid, seq) in frontier.items():
                prev, sv = self._decode(records[rid])
                if sv.live and sv.contains(at):
                    if pred is not None and not pred(sv.payload):
                        # Live versions are valid-time disjoint, so no
                        # older version can also contain *at*: the walk
                        # stops here with an empty answer.
                        self._note_skips()
                        result[atom_id] = []
                    else:
                        result[atom_id] = [(seq, sv)]
                elif prev != _NO_RECORD:
                    advanced[atom_id] = (prev, seq - 1)
                else:
                    result[atom_id] = []
            frontier = advanced
        for atom_id in dict.fromkeys(atom_ids):
            result.setdefault(atom_id, [])
        return result

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        frontier, _missing = self._frontier(atom_ids)
        collected: Dict[int, List[StoredVersion]] = {
            atom_id: [] for atom_id in frontier}
        while frontier:
            records = self._segment.read_many(
                rid for rid, _ in frontier.values())
            advanced: Dict[int, Tuple[RecordId, int]] = {}
            for atom_id, (rid, seq) in frontier.items():
                prev, sv = self._decode(records[rid])
                collected[atom_id].append(sv)  # newest first
                if prev != _NO_RECORD:
                    advanced[atom_id] = (prev, seq - 1)
            frontier = advanced
        for versions in collected.values():
            versions.reverse()
        return collected


# ---------------------------------------------------------------------------
# SEPARATED: dense current segment + append-only history + version directory
# ---------------------------------------------------------------------------


class SeparatedStore(_BaseStore):
    """Current/history separation with a per-atom version directory."""

    strategy = VersionStrategy.SEPARATED

    # current RID, vdir RID, count, current envelope
    _DIR_VALUE = struct.Struct("<QHQHIqqB")
    _VDIR_ENTRY = struct.Struct("<qqBQH")  # envelope + history RID

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, List[int]]] = None) -> None:
        super().__init__(buffer, state)
        state = state or {}
        self._current = HeapSegment(buffer, "current", state.get("current"))
        self._history = HeapSegment(buffer, "history", state.get("history"))
        self._vdir = HeapSegment(buffer, "vdir", state.get("vdir"))

    def _segments(self) -> Dict[str, HeapSegment]:
        return {"current": self._current, "history": self._history,
                "vdir": self._vdir}

    # -- codecs ---------------------------------------------------------------

    @staticmethod
    def _encode_version(sv: StoredVersion) -> bytes:
        return _pack_envelope(sv) + sv.payload

    @staticmethod
    def _decode_version(record: bytes) -> StoredVersion:
        vt_start, vt_end, live, at = _unpack_envelope(record, 0)
        return StoredVersion(vt_start, vt_end, live, record[at:])

    def _dir_entry(self, atom_id: int) -> Tuple[RecordId, RecordId, int,
                                                Tuple[int, int, bool]]:
        (cpage, cslot, vpage, vslot, count,
         vt_start, vt_end, live) = self._DIR_VALUE.unpack(self._entry(atom_id))
        return (RecordId(cpage, cslot), RecordId(vpage, vslot), count,
                (vt_start, vt_end, bool(live)))

    def _put_dir(self, atom_id: int, current: RecordId, vdir: RecordId,
                 count: int, envelope: Tuple[int, int, bool]) -> None:
        vt_start, vt_end, live = envelope
        self._directory.put(atom_id, self._DIR_VALUE.pack(
            current.page_id, current.slot, vdir.page_id, vdir.slot,
            count, vt_start, vt_end, 1 if live else 0))

    @classmethod
    def _parse_vdir(cls, record: bytes) -> List[Tuple[int, int, bool,
                                                      RecordId]]:
        entries = []
        for at in range(0, len(record), cls._VDIR_ENTRY.size):
            vt_start, vt_end, live, page, slot = cls._VDIR_ENTRY.unpack_from(
                record, at)
            entries.append((vt_start, vt_end, bool(live),
                            RecordId(page, slot)))
        return entries

    def _read_vdir(self, vdir_rid: RecordId) -> List[Tuple[int, int, bool,
                                                           RecordId]]:
        if vdir_rid == _NO_RECORD:
            return []
        return self._parse_vdir(self._vdir.read(vdir_rid))

    def _encode_vdir(self, entries: List[Tuple[int, int, bool,
                                               RecordId]]) -> bytes:
        return b"".join(
            self._VDIR_ENTRY.pack(vt_start, vt_end, 1 if live else 0,
                                  rid.page_id, rid.slot)
            for vt_start, vt_end, live, rid in entries)

    # -- protocol --------------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> None:
        envelope = (sv.vt_start, sv.vt_end, sv.live)
        if not self.exists(atom_id):
            rid = self._current.insert(self._encode_version(sv))
            self._put_dir(atom_id, rid, _NO_RECORD, 1, envelope)
            return
        current_rid, vdir_rid, count, old_env = self._dir_entry(atom_id)
        # Migrate the superseded current version into the history segment.
        old_record = self._current.read(current_rid)
        hist_rid = self._history.insert(old_record)
        self._current.delete(current_rid)
        entries = self._read_vdir(vdir_rid)
        entries.append((old_env[0], old_env[1], old_env[2], hist_rid))
        encoded = self._encode_vdir(entries)
        if vdir_rid == _NO_RECORD:
            vdir_rid = self._vdir.insert(encoded)
        else:
            vdir_rid = self._vdir.update(vdir_rid, encoded)
        new_current = self._current.insert(self._encode_version(sv))
        self._put_dir(atom_id, new_current, vdir_rid, count + 1, envelope)

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        current_rid, vdir_rid, count, _env = self._dir_entry(atom_id)
        if not (0 <= seq < count):
            raise StorageError(f"atom {atom_id} has no version {seq}")
        if seq == count - 1:
            new_rid = self._current.update(current_rid,
                                           self._encode_version(sv))
            self._put_dir(atom_id, new_rid, vdir_rid, count,
                          (sv.vt_start, sv.vt_end, sv.live))
            return
        entries = self._read_vdir(vdir_rid)
        _, _, _, hist_rid = entries[seq]
        new_hist = self._history.update(hist_rid, self._encode_version(sv))
        entries[seq] = (sv.vt_start, sv.vt_end, sv.live, new_hist)
        new_vdir = self._vdir.update(vdir_rid, self._encode_vdir(entries))
        if new_vdir != vdir_rid:
            self._put_dir(atom_id, current_rid, new_vdir, count, _env)

    def pop_version(self, atom_id: int) -> None:
        current_rid, vdir_rid, count, _env = self._dir_entry(atom_id)
        if count <= 1:
            self.delete_atom(atom_id)
            return
        # The previous version migrates back from history to current.
        self._current.delete(current_rid)
        entries = self._read_vdir(vdir_rid)
        vt_start, vt_end, live, hist_rid = entries.pop()
        record = self._history.read(hist_rid)
        self._history.delete(hist_rid)
        restored = self._current.insert(record)
        if entries:
            vdir_rid = self._vdir.update(vdir_rid, self._encode_vdir(entries))
        else:
            self._vdir.delete(vdir_rid)
            vdir_rid = _NO_RECORD
        self._put_dir(atom_id, restored, vdir_rid, count - 1,
                      (vt_start, vt_end, live))

    def delete_atom(self, atom_id: int) -> None:
        current_rid, vdir_rid, _count, _env = self._dir_entry(atom_id)
        for _, _, _, hist_rid in self._read_vdir(vdir_rid):
            self._history.delete(hist_rid)
        if vdir_rid != _NO_RECORD:
            self._vdir.delete(vdir_rid)
        self._current.delete(current_rid)
        self._directory.delete(atom_id)

    def read_all(self, atom_id: int) -> List[StoredVersion]:
        current_rid, vdir_rid, _count, _env = self._dir_entry(atom_id)
        versions = [self._decode_version(self._history.read(rid))
                    for _, _, _, rid in self._read_vdir(vdir_rid)]
        versions.append(self._decode_version(self._current.read(current_rid)))
        return versions

    def read_at(self, atom_id: int, at: int) -> List[Tuple[int, StoredVersion]]:
        current_rid, vdir_rid, count, env = self._dir_entry(atom_id)
        vt_start, vt_end, live = env
        if live and vt_start <= at < vt_end:
            # Answered from the directory entry alone: one record fetch.
            return [(count - 1,
                     self._decode_version(self._current.read(current_rid)))]
        hits: List[Tuple[int, StoredVersion]] = []
        for seq, (e_start, e_end, e_live, rid) in enumerate(
                self._read_vdir(vdir_rid)):
            if e_live and e_start <= at < e_end:
                hits.append((seq,
                             self._decode_version(self._history.read(rid))))
        return hits

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        current_rid, _vdir, count, _env = self._dir_entry(atom_id)
        return count - 1, self._decode_version(self._current.read(current_rid))

    def read_live(self, atom_id: int) -> List[Tuple[int, StoredVersion]]:
        # Envelope-only vdir scan selects the live history seqs, then
        # one grouped read fetches exactly those payloads — the closed
        # majority of a long history is never materialised.
        current_rid, vdir_rid, count, env = self._dir_entry(atom_id)
        hits: List[Tuple[int, StoredVersion]] = []
        if vdir_rid != _NO_RECORD:
            fetch = [(seq, rid) for seq, (_s, _e, live, rid)
                     in enumerate(self._read_vdir(vdir_rid)) if live]
            records = self._history.read_many(rid for _, rid in fetch)
            hits = [(seq, self._decode_version(records[rid]))
                    for seq, rid in fetch]
        if env[2]:
            hits.append((count - 1,
                         self._decode_version(self._current.read(current_rid))))
        return hits

    def read_versions(self, atom_id: int,
                      seqs: Iterable[int]) -> Dict[int, StoredVersion]:
        current_rid, vdir_rid, count, _env = self._dir_entry(atom_id)
        wanted = set(seqs)
        out_of_range = [seq for seq in wanted if not (0 <= seq < count)]
        if out_of_range:
            raise StorageError(
                f"atom {atom_id} has no version {out_of_range[0]}")
        result: Dict[int, StoredVersion] = {}
        if count - 1 in wanted:
            result[count - 1] = self._decode_version(
                self._current.read(current_rid))
            wanted.discard(count - 1)
        if wanted:
            entries = self._read_vdir(vdir_rid)
            fetch = {seq: entries[seq][3] for seq in wanted}
            records = self._history.read_many(fetch.values())
            for seq, rid in fetch.items():
                result[seq] = self._decode_version(records[rid])
        return result

    def version_count(self, atom_id: int) -> int:
        return self._dir_entry(atom_id)[2]

    # -- batched reads ---------------------------------------------------------
    #
    # A batch runs in waves — directory, then current segment, then
    # version directories, then history records — each wave a single
    # page-grouped read, so the dense current segment in particular is
    # pinned once per page per batch (the strategy's best case).

    def read_at_many(self, atom_ids: Iterable[int], at: int,
                     pred: Optional[Callable[[bytes], bool]] = None
                     ) -> Dict[int, List[Tuple[int, StoredVersion]]]:
        result: Dict[int, List[Tuple[int, StoredVersion]]] = {}
        current_fetch: Dict[int, Tuple[RecordId, int]] = {}
        vdir_fetch: Dict[int, RecordId] = {}
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is None:
                result[atom_id] = []
                continue
            (cpage, cslot, vpage, vslot, count,
             vt_start, vt_end, live) = self._DIR_VALUE.unpack(payload)
            if live and vt_start <= at < vt_end:
                current_fetch[atom_id] = (RecordId(cpage, cslot), count - 1)
            else:
                vdir_fetch[atom_id] = RecordId(vpage, vslot)
        current_records = self._current.read_many(
            rid for rid, _ in current_fetch.values())
        for atom_id, (rid, seq) in current_fetch.items():
            sv = self._decode_version(current_records[rid])
            if pred is not None and not pred(sv.payload):
                self._note_skips()
                result[atom_id] = []
            else:
                result[atom_id] = [(seq, sv)]
        vdir_records = self._vdir.read_many(
            rid for rid in vdir_fetch.values() if rid != _NO_RECORD)
        hist_fetch: List[Tuple[int, int, RecordId]] = []
        for atom_id, vdir_rid in vdir_fetch.items():
            result[atom_id] = []
            if vdir_rid == _NO_RECORD:
                continue
            for seq, (e_start, e_end, e_live, rid) in enumerate(
                    self._parse_vdir(vdir_records[vdir_rid])):
                if e_live and e_start <= at < e_end:
                    hist_fetch.append((atom_id, seq, rid))
        hist_records = self._history.read_many(
            rid for _, _, rid in hist_fetch)
        for atom_id, seq, rid in hist_fetch:
            sv = self._decode_version(hist_records[rid])
            if pred is not None and not pred(sv.payload):
                self._note_skips()
                continue
            result[atom_id].append((seq, sv))
        return result

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        current_fetch: Dict[int, RecordId] = {}
        vdir_fetch: Dict[int, RecordId] = {}
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is None:
                continue
            (cpage, cslot, vpage, vslot, _count,
             _vs, _ve, _live) = self._DIR_VALUE.unpack(payload)
            current_fetch[atom_id] = RecordId(cpage, cslot)
            vdir_fetch[atom_id] = RecordId(vpage, vslot)
        vdir_records = self._vdir.read_many(
            rid for rid in vdir_fetch.values() if rid != _NO_RECORD)
        hist_order: Dict[int, List[RecordId]] = {}
        for atom_id, vdir_rid in vdir_fetch.items():
            hist_order[atom_id] = (
                [] if vdir_rid == _NO_RECORD else
                [rid for _, _, _, rid
                 in self._parse_vdir(vdir_records[vdir_rid])])
        hist_records = self._history.read_many(
            rid for rids in hist_order.values() for rid in rids)
        current_records = self._current.read_many(current_fetch.values())
        result: Dict[int, List[StoredVersion]] = {}
        for atom_id, current_rid in current_fetch.items():
            versions = [self._decode_version(hist_records[rid])
                        for rid in hist_order[atom_id]]
            versions.append(
                self._decode_version(current_records[current_rid]))
            result[atom_id] = versions
        return result


_STORE_CLASSES = {
    VersionStrategy.CLUSTERED: ClusteredStore,
    VersionStrategy.CHAINED: ChainedStore,
    VersionStrategy.SEPARATED: SeparatedStore,
}


def open_version_store(strategy: VersionStrategy, buffer: BufferManager,
                       state: Optional[Dict[str, List[int]]] = None
                       ) -> VersionStore:
    """Instantiate the store for *strategy*, resuming from catalog *state*."""
    try:
        cls = _STORE_CLASSES[strategy]
    except KeyError:
        raise StorageError(f"unknown version strategy {strategy!r}") from None
    return cls(buffer, state)
