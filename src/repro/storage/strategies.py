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
from itertools import islice
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


#: A point read: (atom id, valid instant, transaction time); a
#: transaction time of ``None`` asks for current knowledge.
PointRequest = Tuple[int, int, Optional[int]]
#: Its answer: the selected version with its sequence number, or None.
PointHit = Optional[Tuple[int, StoredVersion]]


def group_requests(requests: Iterable[PointRequest]
                   ) -> Tuple[Dict[PointRequest, PointHit],
                              Dict[int, List[PointRequest]]]:
    """The answer map of a point-read call, every distinct request
    unanswered, and the requests grouped by atom."""
    result: Dict[PointRequest, PointHit] = dict.fromkeys(requests)
    by_atom: Dict[int, List[PointRequest]] = {}
    for request in result:
        by_atom.setdefault(request[0], []).append(request)
    return result, by_atom


def _wanted(pending: List[PointRequest], vt_start: int, vt_end: int,
            live: bool) -> bool:
    """Whether a version valid over ``[vt_start, vt_end)`` may answer one
    of *pending*: its valid time holds one of their instants, and it is
    live or that request names a transaction time."""
    for _, at, tt in pending:
        if vt_start <= at < vt_end and (live or tt is not None):
            return True
    return False


def _settle(pending: List[PointRequest], seq: int, sv: StoredVersion,
            tt_of: Callable[[bytes], Tuple[int, int]],
            result: Dict[PointRequest, PointHit]) -> List[PointRequest]:
    """Answer the requests among *pending* that *sv* (the atom's version
    *seq*, the newest one not yet visited) holds, and return the rest.

    The walk is newest-first, so the first version valid at a request's
    instant and believed at its transaction time is its answer.  A
    current-knowledge request takes the live flag as its belief; the
    transaction time is peeked once per version, and only when the
    valid time fits a request that names one.
    """
    believed = None
    rest: List[PointRequest] = []
    for request in pending:
        _, at, tt = request
        if sv.vt_start <= at < sv.vt_end:
            if tt is None:
                hit = sv.live
            else:
                if believed is None:
                    believed = tt_of(sv.payload)
                hit = believed[0] <= tt < believed[1]
            if hit:
                result[request] = (seq, sv)
                continue
        rest.append(request)
    return rest


def select_newest_first(pending: List[PointRequest],
                        versions: Tuple[StoredVersion, ...],
                        tt_of: Callable[[bytes], Tuple[int, int]],
                        result: Dict[PointRequest, PointHit]) -> None:
    """Answer *pending*, requests on one atom, from *versions*, its
    whole history in seq order: the selection every store makes, over
    versions already in memory.  With no record to share, each request
    walks on its own."""
    for request in pending:
        _, at, tt = request
        for seq in range(len(versions) - 1, -1, -1):
            sv = versions[seq]
            if not sv.vt_start <= at < sv.vt_end:
                continue
            if tt is None:
                if not sv.live:
                    continue
            else:
                tt_start, tt_end = tt_of(sv.payload)
                if not tt_start <= tt < tt_end:
                    continue
            result[request] = (seq, sv)
            break


class VersionStore:
    """Contract every strategy fulfils.

    Sequence numbers are assigned in append order (0 = oldest) and are
    stable for the lifetime of the atom; ``replace_version`` rewrites the
    record of an existing sequence number (the engine uses it to close
    transaction-time intervals).
    """

    strategy: VersionStrategy

    # -- mutation -----------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> int:
        """Append *sv* as the atom's newest version, creating the atom
        when it is new, with one directory probe; returns the sequence
        number it was assigned (0 for a new atom)."""
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
    #
    # The write path reads one atom at a time (``read_live``,
    # ``read_versions``, and ``read_current`` for a cold type-name
    # lookup); every other read is set-oriented: one call answers many
    # atoms, so a strategy translates all their ids in one
    # ``AtomDirectory.get_many`` (which pins each direct-mapped
    # directory page once) and pins every touched record page once per
    # batch rather than once per atom.
    #
    # ``read_at_many`` is the point read, current or bitemporal: it
    # walks each atom's versions newest-first and reads a record only
    # when its envelope may answer a pending request (its valid time
    # holds the instant, and it is live or the request names a
    # transaction time), so a read near the present costs a few records
    # however long the history is.  The store never parses a payload:
    # the caller's *tt_of* peeks the transaction time, and the engine
    # applies any pushed-down predicate to the payloads it gets back.
    # ``read_all_many`` returns whole histories, which are cached above
    # the store.

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        """The newest (highest-sequence) version."""
        raise NotImplementedError

    def read_live(self, atom_id: int) -> List[Tuple[int, StoredVersion]]:
        """All live versions with their sequence numbers, in seq order.

        Revision planning only touches live versions, so this is the
        write path's read.
        """
        raise NotImplementedError

    def read_versions(self, atom_id: int,
                      seqs: Iterable[int]) -> Dict[int, StoredVersion]:
        """The stored records of specific sequence numbers.

        Used to capture pre-images for undo without re-reading the whole
        history; *seqs* outside the atom raise :class:`StorageError`.
        """
        raise NotImplementedError

    def read_at_many(self, requests: Iterable[PointRequest],
                     tt_of: Callable[[bytes], Tuple[int, int]]
                     ) -> Dict[PointRequest, PointHit]:
        """For each distinct ``(atom_id, at, tt)`` request, the
        highest-sequence stored version whose valid time contains *at*
        and which is believed at *tt* — live when *tt* is ``None``,
        otherwise with a transaction time, ``tt_of(payload)``, that
        contains *tt* — as ``(seq, version)``; ``None`` when there is
        none or the atom is unknown.

        Requests on one atom share one newest-first walk of its versions,
        and each request leaves the walk at its first hit.
        """
        raise NotImplementedError

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        """The full histories, in sequence order, of the known atoms
        among *atom_ids*; atoms not in the store are omitted."""
        raise NotImplementedError

    def exists(self, atom_id: int) -> bool:
        raise NotImplementedError

    def atom_ids(self) -> Iterator[int]:
        raise NotImplementedError

    # -- maintenance ----------------------------------------------------------------

    def stats(self) -> StorageStats:
        raise NotImplementedError

    def persist_state(self) -> Dict[str, List[int]]:
        """Page lists to store in the catalog, keyed by component name."""
        raise NotImplementedError


#: Atoms per ``read_all_many`` call when a maintenance pass walks many
#: atoms (index backfills, vacuum), so peak memory stays bounded however
#: large the store grows.
HISTORY_CHUNK_ATOMS = 256


def iter_histories(store: VersionStore, atom_ids: Iterable[int]
                   ) -> Iterator[Tuple[int, List[StoredVersion]]]:
    """``(atom_id, history)`` for the known atoms among *atom_ids*, in
    input order, read ``HISTORY_CHUNK_ATOMS`` atoms per batch."""
    pending = iter(atom_ids)
    while True:
        chunk = list(islice(pending, HISTORY_CHUNK_ATOMS))
        if not chunk:
            return
        histories = store.read_all_many(chunk)
        for atom_id in chunk:
            if atom_id in histories:
                yield atom_id, histories[atom_id]


class _BaseStore(VersionStore):
    """Shared plumbing: directory handling and stats assembly."""

    #: The strategy's fixed-width directory value.
    _DIR_VALUE: struct.Struct

    def __init__(self, buffer: BufferManager,
                 state: Optional[Dict[str, List[int]]]) -> None:
        self._buffer = buffer
        state = state or {}
        self._directory = AtomDirectory(
            buffer, f"{self.strategy.value}.dir", self._DIR_VALUE.size,
            page_table=state.get("directory"))

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
        state["directory"] = self._directory.page_table
        return state


class _HeadStore(_BaseStore):
    """A store whose directory entry is one record id (CLUSTERED's
    history record, CHAINED's newest version) plus the version count."""

    _DIR_VALUE = struct.Struct("<QHI")  # record page, record slot, count

    @classmethod
    def _unpack_dir(cls, payload: bytes) -> Tuple[RecordId, int]:
        page, slot, count = cls._DIR_VALUE.unpack(payload)
        return RecordId(page, slot), count

    def _dir_entry(self, atom_id: int) -> Tuple[RecordId, int]:
        return self._unpack_dir(self._entry(atom_id))

    def _put_dir(self, atom_id: int, rid: RecordId, count: int) -> None:
        self._directory.put(
            atom_id, self._DIR_VALUE.pack(rid.page_id, rid.slot, count))


# ---------------------------------------------------------------------------
# CLUSTERED: the whole history in one spanned record ("temporal atom")
# ---------------------------------------------------------------------------


class ClusteredStore(_HeadStore):
    """All versions of an atom clustered into one logical record."""

    strategy = VersionStrategy.CLUSTERED

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
    def _envelopes(record: bytes) -> List[Tuple[int, int, bool, int, int]]:
        """``(vt_start, vt_end, live, payload start, payload end)`` of
        every version in the record, in seq order; no payload is copied."""
        (count,) = _U32.unpack_from(record, 0)
        at = _U32.size
        envelopes = []
        for _ in range(count):
            vt_start, vt_end, live, at = _unpack_envelope(record, at)
            (length,) = _U32.unpack_from(record, at)
            at += _U32.size
            envelopes.append((vt_start, vt_end, live, at, at + length))
            at += length
        return envelopes

    @classmethod
    def _decode(cls, record: bytes) -> List[StoredVersion]:
        return [StoredVersion(vt_start, vt_end, live, record[begin:end])
                for vt_start, vt_end, live, begin, end
                in cls._envelopes(record)]

    # -- protocol --------------------------------------------------------------

    def append_version(self, atom_id: int, sv: StoredVersion) -> int:
        payload = self._directory.get(atom_id)
        if payload is None:
            rid = self._segment.insert(self._encode([sv]))
            self._put_dir(atom_id, rid, 1)
            return 0
        rid, count = self._unpack_dir(payload)
        versions = self._decode(self._segment.read(rid))
        versions.append(sv)
        new_rid = self._segment.update(rid, self._encode(versions))
        self._put_dir(atom_id, new_rid, count + 1)
        return count

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

    def _history(self, atom_id: int) -> List[StoredVersion]:
        rid, _ = self._dir_entry(atom_id)
        return self._decode(self._segment.read(rid))

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        versions = self._history(atom_id)
        return len(versions) - 1, versions[-1]

    def read_live(self, atom_id: int) -> List[Tuple[int, StoredVersion]]:
        return [(seq, sv) for seq, sv in enumerate(self._history(atom_id))
                if sv.live]

    def read_versions(self, atom_id: int,
                      seqs: Iterable[int]) -> Dict[int, StoredVersion]:
        wanted = set(seqs)
        versions = self._history(atom_id)
        missing = [seq for seq in wanted
                   if not (0 <= seq < len(versions))]
        if missing:
            raise StorageError(
                f"atom {atom_id} has no version {missing[0]}")
        return {seq: versions[seq] for seq in wanted}

    # -- batched reads ---------------------------------------------------------

    def _raw_records_many(self, atom_ids: Iterable[int]) -> Dict[int, bytes]:
        """The history record of every known atom in the batch.

        One grouped directory pass, then one grouped record pass —
        history records sharing a page are served under a single pin.
        """
        rid_for: Dict[int, RecordId] = {}
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is not None:
                rid_for[atom_id] = self._unpack_dir(payload)[0]
        records = self._segment.read_many(rid_for.values())
        return {atom_id: records[rid] for atom_id, rid in rid_for.items()}

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        return {atom_id: self._decode(record) for atom_id, record
                in self._raw_records_many(atom_ids).items()}

    def read_at_many(self, requests: Iterable[PointRequest],
                     tt_of: Callable[[bytes], Tuple[int, int]]
                     ) -> Dict[PointRequest, PointHit]:
        # The one record holds the whole history: scan its envelopes
        # newest-first and copy out only the payloads worth judging.
        result, by_atom = group_requests(requests)
        for atom_id, record in self._raw_records_many(by_atom).items():
            pending = by_atom[atom_id]
            envelopes = self._envelopes(record)
            for seq in range(len(envelopes) - 1, -1, -1):
                vt_start, vt_end, live, begin, end = envelopes[seq]
                if not _wanted(pending, vt_start, vt_end, live):
                    continue
                pending = _settle(pending, seq, StoredVersion(
                    vt_start, vt_end, live, record[begin:end]), tt_of,
                    result)
                if not pending:
                    break
        return result


# ---------------------------------------------------------------------------
# CHAINED: one record per version, linked backwards from the newest
# ---------------------------------------------------------------------------


class ChainedStore(_HeadStore):
    """Per-version records forming a backward chain from the current one."""

    strategy = VersionStrategy.CHAINED

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

    def append_version(self, atom_id: int, sv: StoredVersion) -> int:
        payload = self._directory.get(atom_id)
        if payload is None:
            prev, count = _NO_RECORD, 0
        else:
            prev, count = self._unpack_dir(payload)
        rid = self._segment.insert(self._encode(prev, sv))
        self._put_dir(atom_id, rid, count + 1)
        return count

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

    def read_live(self, atom_id: int) -> List[Tuple[int, StoredVersion]]:
        live = [(seq, sv) for seq, _rid, _prev, sv in self._walk(atom_id)
                if sv.live]
        live.reverse()
        return live

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

    # -- batched reads ---------------------------------------------------------
    #
    # Chains are walked breadth-first across the whole batch: every round
    # reads the frontier record of *all* still-active atoms through one
    # page-grouped read_many, so chain records co-located on a page cost
    # one pin for the whole batch rather than one per atom.

    def _frontier(self, atom_ids: Iterable[int]
                  ) -> Dict[int, Tuple[RecordId, int]]:
        """The newest record and its seq of every known atom."""
        frontier: Dict[int, Tuple[RecordId, int]] = {}
        for atom_id, payload in self._entries_many(atom_ids).items():
            if payload is not None:
                rid, count = self._unpack_dir(payload)
                frontier[atom_id] = (rid, count - 1)
        return frontier

    def read_all_many(self, atom_ids: Iterable[int]
                      ) -> Dict[int, List[StoredVersion]]:
        frontier = self._frontier(atom_ids)
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

    def read_at_many(self, requests: Iterable[PointRequest],
                     tt_of: Callable[[bytes], Tuple[int, int]]
                     ) -> Dict[PointRequest, PointHit]:
        # An atom's walk leaves the batch once all its requests are
        # answered, so it reads only as far back as its oldest answer.
        result, by_atom = group_requests(requests)
        frontier = self._frontier(by_atom)
        while frontier:
            records = self._segment.read_many(
                rid for rid, _ in frontier.values())
            advanced: Dict[int, Tuple[RecordId, int]] = {}
            for atom_id, (rid, seq) in frontier.items():
                prev, sv = self._decode(records[rid])
                pending = by_atom[atom_id] = _settle(
                    by_atom[atom_id], seq, sv, tt_of, result)
                if pending and prev != _NO_RECORD:
                    advanced[atom_id] = (prev, seq - 1)
            frontier = advanced
        return result


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

    @classmethod
    def _decode_dir(cls, payload: bytes) -> Tuple[RecordId, RecordId, int,
                                                  Tuple[int, int, bool]]:
        (cpage, cslot, vpage, vslot, count,
         vt_start, vt_end, live) = cls._DIR_VALUE.unpack(payload)
        return (RecordId(cpage, cslot), RecordId(vpage, vslot), count,
                (vt_start, vt_end, bool(live)))

    def _dir_entry(self, atom_id: int) -> Tuple[RecordId, RecordId, int,
                                                Tuple[int, int, bool]]:
        return self._decode_dir(self._entry(atom_id))

    def _put_dir(self, atom_id: int, current: RecordId, vdir: RecordId,
                 count: int, envelope: Tuple[int, int, bool]) -> None:
        vt_start, vt_end, live = envelope
        self._directory.put(atom_id, self._DIR_VALUE.pack(
            current.page_id, current.slot, vdir.page_id, vdir.slot,
            count, vt_start, vt_end, 1 if live else 0))

    @classmethod
    def _vdir_entry(cls, vdir: bytes,
                    seq: int) -> Tuple[int, int, int, int, int]:
        """History version *seq*'s raw vdir entry, ``(vt_start, vt_end,
        live, page, slot)``: the vdir is a flat array of fixed-size
        entries, so this is one unpack at ``seq * size``."""
        return cls._VDIR_ENTRY.unpack_from(vdir, seq * cls._VDIR_ENTRY.size)

    @classmethod
    def _parse_vdir(cls, record: bytes) -> List[Tuple[int, int, bool,
                                                      RecordId]]:
        """Every entry, for the readers that want a whole history."""
        return [(vt_start, vt_end, bool(live), RecordId(page, slot))
                for vt_start, vt_end, live, page, slot
                in cls._VDIR_ENTRY.iter_unpack(record)]

    def _read_vdir(self, vdir_rid: RecordId) -> List[Tuple[int, int, bool,
                                                           RecordId]]:
        if vdir_rid == _NO_RECORD:
            return []
        return self._parse_vdir(self._vdir.read(vdir_rid))

    @classmethod
    def _pack_vdir_entry(cls, envelope: Tuple[int, int, bool],
                         rid: RecordId) -> bytes:
        vt_start, vt_end, live = envelope
        return cls._VDIR_ENTRY.pack(vt_start, vt_end, 1 if live else 0,
                                    rid.page_id, rid.slot)

    # -- protocol --------------------------------------------------------------
    #
    # The vdir is a flat array of fixed-size entries, so every mutation
    # splices bytes (append, truncate, overwrite at ``seq * size``) and
    # never parses or re-encodes the list.  The current record is
    # rewritten where it stands; its id only moves when the new version
    # no longer fits its page.

    def append_version(self, atom_id: int, sv: StoredVersion) -> int:
        envelope = (sv.vt_start, sv.vt_end, sv.live)
        record = self._encode_version(sv)
        payload = self._directory.get(atom_id)
        if payload is None:
            rid = self._current.insert(record)
            self._put_dir(atom_id, rid, _NO_RECORD, 1, envelope)
            return 0
        current_rid, vdir_rid, count, old_env = self._decode_dir(payload)
        # Migrate the superseded current version into the history segment.
        hist_rid = self._history.insert(self._current.read(current_rid))
        current_rid = self._current.update(current_rid, record)
        entry = self._pack_vdir_entry(old_env, hist_rid)
        if vdir_rid == _NO_RECORD:
            vdir_rid = self._vdir.insert(entry)
        else:
            vdir_rid = self._vdir.update(
                vdir_rid, self._vdir.read(vdir_rid) + entry)
        self._put_dir(atom_id, current_rid, vdir_rid, count + 1, envelope)
        return count

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        current_rid, vdir_rid, count, env = self._dir_entry(atom_id)
        if not (0 <= seq < count):
            raise StorageError(f"atom {atom_id} has no version {seq}")
        envelope = (sv.vt_start, sv.vt_end, sv.live)
        if seq == count - 1:
            new_rid = self._current.update(current_rid,
                                           self._encode_version(sv))
            self._put_dir(atom_id, new_rid, vdir_rid, count, envelope)
            return
        vdir = self._vdir.read(vdir_rid)
        at = seq * self._VDIR_ENTRY.size
        *_, page, slot = self._vdir_entry(vdir, seq)
        new_hist = self._history.update(RecordId(page, slot),
                                        self._encode_version(sv))
        new_vdir = self._vdir.update(
            vdir_rid, vdir[:at] + self._pack_vdir_entry(envelope, new_hist)
            + vdir[at + self._VDIR_ENTRY.size:])
        if new_vdir != vdir_rid:
            self._put_dir(atom_id, current_rid, new_vdir, count, env)

    def pop_version(self, atom_id: int) -> None:
        current_rid, vdir_rid, count, _env = self._dir_entry(atom_id)
        if count <= 1:
            self.delete_atom(atom_id)
            return
        # The previous version migrates back from history to current.
        vdir = self._vdir.read(vdir_rid)
        last = len(vdir) - self._VDIR_ENTRY.size
        vt_start, vt_end, live, page, slot = self._VDIR_ENTRY.unpack_from(
            vdir, last)
        hist_rid = RecordId(page, slot)
        record = self._history.read(hist_rid)
        self._history.delete(hist_rid)
        restored = self._current.update(current_rid, record)
        if last:
            vdir_rid = self._vdir.update(vdir_rid, vdir[:last])
        else:
            self._vdir.delete(vdir_rid)
            vdir_rid = _NO_RECORD
        self._put_dir(atom_id, restored, vdir_rid, count - 1,
                      (vt_start, vt_end, bool(live)))

    def delete_atom(self, atom_id: int) -> None:
        current_rid, vdir_rid, _count, _env = self._dir_entry(atom_id)
        for _, _, _, hist_rid in self._read_vdir(vdir_rid):
            self._history.delete(hist_rid)
        if vdir_rid != _NO_RECORD:
            self._vdir.delete(vdir_rid)
        self._current.delete(current_rid)
        self._directory.delete(atom_id)

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
            vdir = self._vdir.read(vdir_rid)
            fetch = {seq: RecordId(*self._vdir_entry(vdir, seq)[3:])
                     for seq in wanted}
            records = self._history.read_many(fetch.values())
            for seq, rid in fetch.items():
                result[seq] = self._decode_version(records[rid])
        return result

    # -- batched reads ---------------------------------------------------------
    #
    # A batch runs in waves — directory, then current segment, then
    # version directories, then history records — each wave a single
    # page-grouped read, so the dense current segment in particular is
    # pinned once per page per batch (the strategy's best case).

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

    def read_at_many(self, requests: Iterable[PointRequest],
                     tt_of: Callable[[bytes], Tuple[int, int]]
                     ) -> Dict[PointRequest, PointHit]:
        # Newest-first: the current record when the directory envelope
        # may answer a pending request, then the vdir entries from the
        # end, reading a history record only where its envelope may.
        # Waves as above; a history wave reads one record per atom still
        # walking.
        result, by_atom = group_requests(requests)
        current_fetch: Dict[int, Tuple[RecordId, int]] = {}
        vdir_fetch: Dict[int, RecordId] = {}
        for atom_id, payload in self._entries_many(by_atom).items():
            if payload is None:
                continue
            (cpage, cslot, vpage, vslot, count,
             vt_start, vt_end, live) = self._DIR_VALUE.unpack(payload)
            if _wanted(by_atom[atom_id], vt_start, vt_end, live):
                current_fetch[atom_id] = (RecordId(cpage, cslot), count - 1)
            if count > 1:
                vdir_fetch[atom_id] = RecordId(vpage, vslot)
        current_records = self._current.read_many(
            rid for rid, _ in current_fetch.values())
        for atom_id, (rid, seq) in current_fetch.items():
            by_atom[atom_id] = _settle(
                by_atom[atom_id], seq,
                self._decode_version(current_records[rid]), tt_of, result)
        vdir_fetch = {atom_id: rid for atom_id, rid in vdir_fetch.items()
                      if by_atom[atom_id]}
        vdir_records = self._vdir.read_many(vdir_fetch.values())
        # atom -> (its vdir, count of entries not yet visited)
        walks: Dict[int, Tuple[bytes, int]] = {}
        for atom_id, rid in vdir_fetch.items():
            vdir = vdir_records[rid]
            walks[atom_id] = (vdir, len(vdir) // self._VDIR_ENTRY.size)
        while walks:
            hist_fetch: Dict[int, Tuple[int, RecordId]] = {}
            for atom_id, (vdir, seq) in walks.items():
                pending = by_atom[atom_id]
                while seq:
                    seq -= 1
                    vt_start, vt_end, live, page, slot = self._vdir_entry(
                        vdir, seq)
                    if _wanted(pending, vt_start, vt_end, live):
                        hist_fetch[atom_id] = (seq, RecordId(page, slot))
                        break
            hist_records = self._history.read_many(
                rid for _, rid in hist_fetch.values())
            advanced: Dict[int, Tuple[bytes, int]] = {}
            for atom_id, (seq, rid) in hist_fetch.items():
                pending = by_atom[atom_id] = _settle(
                    by_atom[atom_id], seq,
                    self._decode_version(hist_records[rid]), tt_of, result)
                if pending and seq:
                    advanced[atom_id] = (walks[atom_id][0], seq)
            walks = advanced
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
