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

A version is stored as an *envelope*, its bitemporal stamp ``(vt_start,
vt_end, tt_start, tt_end)``, plus an opaque payload: the engine's
serialized state, which the store never interprets.  A store answers
one selecting read: each request names an atom and a valid-time x
transaction-time rectangle and gets the versions whose envelopes
overlap it, or, when both sides are instants, only the newest of them
(the version valid at an instant as believed at a transaction time).
Each strategy walks an atom's envelopes newest-first, once for all its
requests, and reads only the payloads it selects.  The strategies
differ only in how they reach the envelopes.

Nearly every chronon fits 32 bits (the transaction clock counts
commits), so a CLUSTERED or CHAINED record or a SEPARATED vdir whose
chronons all fit writes its stamps as 32-bit fields, the sentinels
mapped to the 32-bit extremes, and says so in a leading width byte.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import (Callable, Container, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.errors import StorageError, UnknownAtomError
from repro.storage.buffer import BufferManager
from repro.storage.constants import INVALID_PAGE_ID
from repro.storage.directory import AtomDirectory
from repro.storage.heap import HeapSegment, RecordId
from repro.temporal import FOREVER, TMIN, Interval
from repro.temporal.timestamp import MAX_CHRONON

_NO_RECORD = RecordId(INVALID_PAGE_ID, 0)


class VersionStrategy(enum.Enum):
    """Selectable physical mapping of version histories."""

    CLUSTERED = "clustered"
    CHAINED = "chained"
    SEPARATED = "separated"


@dataclass(frozen=True, slots=True)
class StoredVersion:
    """One version as the storage layer sees it: its envelope (the
    bitemporal stamp) plus payload."""

    vt_start: int
    vt_end: int
    tt_start: int
    tt_end: int
    payload: bytes

    @property
    def live(self) -> bool:
        """Still current knowledge: its transaction time is open."""
        return self.tt_end == FOREVER


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


#: An envelope: ``(vt_start, vt_end, tt_start, tt_end)``.
Stamp = Tuple[int, int, int, int]


def _stamp(sv: StoredVersion) -> Stamp:
    return sv.vt_start, sv.vt_end, sv.tt_start, sv.tt_end


#: Stored stamp widths, the values of a width byte, and per width the
#: values a field maps to when written (``_STORED``) or read
#: (``_LOADED``): the sentinels and the 32-bit extremes.
_NARROW, _WIDE = 0, 1
_STORED = ({TMIN: -2**31, FOREVER: 2**31 - 1}, {})
_LOADED = ({-2**31: TMIN, 2**31 - 1: FOREVER}, {})


def _width(stamps: Iterable[Stamp]) -> int:
    """The narrowest width that holds every stamp in *stamps*."""
    return _WIDE if any(
        not -2**31 < value < 2**31 - 1 and value not in _STORED[_NARROW]
        for stamp in stamps for value in stamp) else _NARROW


def _mapped(fields: Sequence[int], mapping: Dict[int, int]) -> Stamp:
    """The first four of *fields*, each one *mapping* names mapped."""
    get = mapping.get
    a, b, c, d = fields[0], fields[1], fields[2], fields[3]
    return get(a, a), get(b, b), get(c, c), get(d, d)


#: A read request: an atom and a rectangle, valid time x transaction
#: time.  A request whose two sides are both instants is a point
#: request.
Request = Tuple[int, Interval, Interval]
#: What a read selects for one request: ``(seq, version)`` pairs in seq
#: order.
Selected = List[Tuple[int, StoredVersion]]


#: A request as a walk holds it: its rectangle's bounds unpacked once
#: ``(vt start, vt end, tt start, tt end)``, whether it is a point
#: request, and the versions it has selected, newest first.
_Ask = Tuple[int, int, int, int, bool, Selected]


class _Walk:
    """One read's newest-first walks: the requests still pending on
    each atom and the versions each request has selected.

    A rectangle request selects every version whose envelope overlaps
    it.  A point request selects the newest and leaves the walk at that
    hit: versions believed at one transaction time are valid-time
    disjoint, so an older one would only be a superseded state.  An
    atom's walk is over once none of its requests is pending, so a
    walk of point requests reads only as far back as its oldest answer.
    """

    __slots__ = ("requests", "pending", "found")

    def __init__(self, requests: Iterable[Request]) -> None:
        self.requests = list(dict.fromkeys(requests))
        self.pending: Dict[int, List[_Ask]] = {}
        #: Per request, in request order, its selected versions.
        self.found: List[Selected] = [[] for _ in self.requests]
        for (atom_id, vt, tt), found in zip(self.requests, self.found):
            self.pending.setdefault(atom_id, []).append(
                (vt.start, vt.end, tt.start, tt.end,
                 vt.end - vt.start == 1 == tt.end - tt.start, found))

    def hits(self, atom_id: int, stamp: Stamp) -> List[_Ask]:
        """The atom's pending asks whose rectangle *stamp* overlaps; the
        point requests among them leave the walk."""
        vt_start, vt_end, tt_start, tt_end = stamp
        pending = self.pending[atom_id]
        hits = []
        settled = False
        for ask in pending:  # a plain loop: it runs once per envelope
            if (ask[0] < vt_end and vt_start < ask[1]
                    and ask[2] < tt_end and tt_start < ask[3]):
                hits.append(ask)
                settled |= ask[4]
        if settled:
            self.pending[atom_id] = [ask for ask in pending
                                     if not ask[4] or ask not in hits]
        return hits

    @staticmethod
    def select(hits: List[_Ask], seq: int, sv: StoredVersion) -> None:
        """Give version *seq*, *sv*, to the requests *hits* asked."""
        for ask in hits:
            ask[5].append((seq, sv))

    def done(self, atom_id: int) -> bool:
        """Whether no request on the atom is pending."""
        return not self.pending[atom_id]

    def result(self, known: Container[int]) -> Dict[Request, Selected]:
        """Every request on an atom in *known* with its versions in seq
        order."""
        return {request: found[::-1] for request, found
                in zip(self.requests, self.found) if request[0] in known}


class VersionStore:
    """Contract every strategy fulfils.

    Sequence numbers are assigned in append order (0 = oldest) and are
    stable for the lifetime of the atom; ``replace_version`` rewrites the
    version of an existing sequence number, and ``restamp`` only its
    envelope (the engine uses it to close transaction-time intervals).
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

    def restamp(self, atom_id: int, seq: int, stamp: Stamp) -> None:
        """Give version *seq* the envelope *stamp*; its payload stays.
        Where envelope and payload share a record, that is a rewrite."""
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
    # One selecting read, set-oriented: ``read_at_many`` answers many
    # requests on many atoms in one call, so a strategy translates all
    # their ids in one ``AtomDirectory.get_many`` (which pins each
    # direct-mapped directory page once) and pins every touched record
    # page once per batch rather than once per atom.  Each atom's
    # envelopes are walked newest-first, once for all its requests, and
    # a payload is read only for a version some request selects, so a
    # read costs the records it answers with plus whatever holds the
    # envelopes it passes: nothing more for CLUSTERED, the vdir for
    # SEPARATED, the chain (down to the oldest answer) for CHAINED.  The
    # store never parses a payload; the engine applies any pushed-down
    # predicate to the payloads it gets back.  ``read_current`` serves
    # a cold type-name lookup.

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        """The newest (highest-sequence) version."""
        raise NotImplementedError

    def read_at_many(self, requests: Iterable[Request]
                     ) -> Dict[Request, Selected]:
        """For each distinct ``(atom_id, vt, tt)`` request on a known
        atom, the ``(seq, version)`` pairs, in seq order, whose envelope
        overlaps the rectangle *vt* x *tt* — for a point request only
        the newest of them (see :class:`_Walk`); requests on atoms not
        in the store are omitted."""
        raise NotImplementedError

    def read_all_many(self, atom_ids: Iterable[int],
                      vt: Interval = Interval.always(),
                      tt: Interval = Interval.always()
                      ) -> Dict[int, Selected]:
        """:meth:`read_at_many` of the one rectangle *vt* x *tt* (the
        defaults give the whole history) per known atom.  Like any
        request, a rectangle whose two sides are both instants is a
        point request: it gets only the newest version it overlaps."""
        return {request[0]: selected for request, selected in
                self.read_at_many((atom_id, vt, tt)
                                  for atom_id in atom_ids).items()}

    def read_live(self, atom_id: int) -> Selected:
        """The live versions of a known atom: only an open transaction
        time meets the last chronon."""
        return self.read_all_many([atom_id],
                                  tt=Interval.instant(MAX_CHRONON))[atom_id]

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
                   ) -> Iterator[Tuple[int, List[Tuple[int, StoredVersion]]]]:
    """``(atom_id, history)`` for the known atoms among *atom_ids*, in
    input order, each history its ``(seq, version)`` pairs, read
    ``HISTORY_CHUNK_ATOMS`` atoms per batch."""
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

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        self._rewrite(atom_id, seq, lambda _old: sv)

    def restamp(self, atom_id: int, seq: int, stamp: Stamp) -> None:
        self._rewrite(atom_id, seq,
                      lambda old: StoredVersion(*stamp, old.payload))

    def _rewrite(self, atom_id: int, seq: int,
                 revise: Callable[[StoredVersion], StoredVersion]) -> None:
        """Store ``revise(old)`` in place of version *seq*, *old*, in
        the one pass that reaches it."""
        raise NotImplementedError


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
    #
    # width byte, count, then per version: stamp, payload length, payload

    _HEAD = struct.Struct("<BI")
    _ENTRIES = (struct.Struct("<iiiiI"), struct.Struct("<qqqqI"))

    @classmethod
    def _encode(cls, versions: List[StoredVersion]) -> bytes:
        width = _width(map(_stamp, versions))
        entry = cls._ENTRIES[width]
        parts = [cls._HEAD.pack(width, len(versions))]
        for sv in versions:
            parts.append(entry.pack(*_mapped(_stamp(sv), _STORED[width]),
                                    len(sv.payload)))
            parts.append(sv.payload)
        return b"".join(parts)

    @classmethod
    def _envelopes(cls, record: bytes) -> List[Tuple[Stamp, int, int]]:
        """``(stamp, payload start, payload end)`` of every version in
        the record, in seq order; no payload is copied."""
        width, count = cls._HEAD.unpack_from(record, 0)
        entry = cls._ENTRIES[width]
        at = cls._HEAD.size
        envelopes = []
        for _ in range(count):
            fields = entry.unpack_from(record, at)
            at += entry.size
            envelopes.append((_mapped(fields, _LOADED[width]), at,
                              at + fields[4]))
            at += fields[4]
        return envelopes

    @classmethod
    def _decode(cls, record: bytes) -> List[StoredVersion]:
        return [StoredVersion(*stamp, record[begin:end])
                for stamp, begin, end in cls._envelopes(record)]

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

    def _rewrite(self, atom_id: int, seq: int,
                 revise: Callable[[StoredVersion], StoredVersion]) -> None:
        rid, count = self._dir_entry(atom_id)
        if not (0 <= seq < count):
            raise StorageError(f"atom {atom_id} has no version {seq}")
        versions = self._decode(self._segment.read(rid))
        versions[seq] = revise(versions[seq])
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

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        rid, count = self._dir_entry(atom_id)
        return count - 1, self._decode(self._segment.read(rid))[-1]

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

    def read_at_many(self, requests: Iterable[Request]
                     ) -> Dict[Request, Selected]:
        # The one record holds the whole history: walk its envelopes
        # and copy out only the payloads they select.
        walk = _Walk(requests)
        records = self._raw_records_many(walk.pending)
        for atom_id, record in records.items():
            envelopes = self._envelopes(record)
            for seq in range(len(envelopes) - 1, -1, -1):
                stamp, begin, end = envelopes[seq]
                hits = walk.hits(atom_id, stamp)
                if hits:
                    walk.select(hits, seq,
                                StoredVersion(*stamp, record[begin:end]))
                    if walk.done(atom_id):
                        break
        return walk.result(records)


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
    #
    # predecessor record id, width byte, stamp, payload.

    _HEADS = (struct.Struct("<QHBiiii"), struct.Struct("<QHBqqqq"))

    @classmethod
    def _encode(cls, prev: RecordId, sv: StoredVersion) -> bytes:
        stamp = _stamp(sv)
        width = _width([stamp])
        return cls._HEADS[width].pack(
            prev.page_id, prev.slot, width,
            *_mapped(stamp, _STORED[width])) + sv.payload

    @classmethod
    def _head(cls, record: bytes) -> Tuple[RecordId, Stamp, int]:
        """The predecessor, stamp and payload offset of *record*."""
        width = record[RecordId.PACKED_SIZE]
        head = cls._HEADS[width]
        fields = head.unpack_from(record)
        return (RecordId(fields[0], fields[1]),
                _mapped(fields[3:], _LOADED[width]), head.size)

    @classmethod
    def _decode(cls, record: bytes) -> Tuple[RecordId, StoredVersion]:
        prev, stamp, begin = cls._head(record)
        return prev, StoredVersion(*stamp, record[begin:])

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

    def _rewrite(self, atom_id: int, seq: int,
                 revise: Callable[[StoredVersion], StoredVersion]) -> None:
        successor: Optional[RecordId] = None
        for cur_seq, rid, prev, old in self._walk(atom_id):
            if cur_seq != seq:
                successor = rid
                continue
            new_rid = self._segment.update(rid,
                                           self._encode(prev, revise(old)))
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

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        rid, count = self._dir_entry(atom_id)
        _, sv = self._decode(self._segment.read(rid))
        return count - 1, sv

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

    def read_at_many(self, requests: Iterable[Request]
                     ) -> Dict[Request, Selected]:
        # An atom's walk leaves the batch once none of its requests is
        # pending: with a rectangle request at the end of its chain,
        # else at its oldest answer.
        walk = _Walk(requests)
        frontier = known = self._frontier(walk.pending)
        while frontier:
            records = self._segment.read_many(
                rid for rid, _ in frontier.values())
            advanced: Dict[int, Tuple[RecordId, int]] = {}
            for atom_id, (rid, seq) in frontier.items():
                record = records[rid]
                prev, stamp, begin = self._head(record)
                hits = walk.hits(atom_id, stamp)
                if hits:
                    walk.select(hits, seq, StoredVersion(*stamp,
                                                         record[begin:]))
                if prev != _NO_RECORD and not walk.done(atom_id):
                    advanced[atom_id] = (prev, seq - 1)
            frontier = advanced
        return walk.result(known)


# ---------------------------------------------------------------------------
# SEPARATED: dense current segment + append-only history + version directory
# ---------------------------------------------------------------------------


class SeparatedStore(_BaseStore):
    """Current/history separation with a per-atom version directory.

    The directory entry holds the current version's envelope and the
    vdir every history version's, so current and history records are
    bare payloads."""

    strategy = VersionStrategy.SEPARATED

    # current RID, vdir RID, count, current envelope
    _DIR_VALUE = struct.Struct("<QHQHIqqqq")
    # a vdir: width byte, then per history version its stamp and RID
    _VDIR_ENTRIES = (struct.Struct("<iiiiQH"), struct.Struct("<qqqqQH"))

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

    @classmethod
    def _decode_dir(cls, payload: bytes) -> _DirEntry:
        fields = cls._DIR_VALUE.unpack(payload)
        return (RecordId(fields[0], fields[1]), RecordId(fields[2], fields[3]),
                fields[4], fields[5:])

    def _dir_entry(self, atom_id: int) -> _DirEntry:
        return self._decode_dir(self._entry(atom_id))

    def _put_dir(self, atom_id: int, current: RecordId, vdir: RecordId,
                 count: int, stamp: Stamp) -> None:
        self._directory.put(atom_id, self._DIR_VALUE.pack(
            current.page_id, current.slot, vdir.page_id, vdir.slot,
            count, *stamp))

    @classmethod
    def _vdir_entry(cls, vdir: bytes, seq: int) -> Tuple[Stamp, RecordId]:
        """History version *seq*'s vdir entry, ``(stamp, record id)``:
        one unpack, the vdir being a flat array of fixed-size entries."""
        width = vdir[0]
        entry = cls._VDIR_ENTRIES[width]
        fields = entry.unpack_from(vdir, 1 + seq * entry.size)
        return (_mapped(fields, _LOADED[width]),
                RecordId(fields[4], fields[5]))

    @classmethod
    def _parse_vdir(cls, record: bytes) -> List[Tuple[Stamp, RecordId]]:
        """Every entry, in seq order."""
        width = record[0]
        return [(_mapped(fields, _LOADED[width]),
                 RecordId(fields[4], fields[5]))
                for fields in cls._VDIR_ENTRIES[width].iter_unpack(
                    record[1:])]

    @classmethod
    def _spliced(cls, vdir: bytes, seq: int, stamp: Stamp,
                 rid: RecordId) -> bytes:
        """*vdir* with entry *seq* (its length, to append) set to
        ``(stamp, rid)``.  A stamp too wide for the vdir first re-encodes
        it wide, the one edit that is not a splice."""
        width = vdir[0]
        if _width([stamp]) > width:
            width, wide = _WIDE, cls._VDIR_ENTRIES[_WIDE]
            vdir = bytes([_WIDE]) + b"".join(
                wide.pack(*entry_stamp, entry_rid.page_id, entry_rid.slot)
                for entry_stamp, entry_rid in cls._parse_vdir(vdir))
        entry = cls._VDIR_ENTRIES[width]
        at = 1 + seq * entry.size
        return (vdir[:at]
                + entry.pack(*_mapped(stamp, _STORED[width]), rid.page_id,
                             rid.slot)
                + vdir[at + entry.size:])

    # -- protocol --------------------------------------------------------------
    #
    # The vdir is a flat array of fixed-size entries, so every mutation
    # splices bytes (append, truncate, overwrite at ``seq * size``) and
    # never parses or re-encodes the list.  The current record is
    # rewritten where it stands; its id only moves when the new version
    # no longer fits its page.

    def append_version(self, atom_id: int, sv: StoredVersion) -> int:
        payload = self._directory.get(atom_id)
        if payload is None:
            rid = self._current.insert(sv.payload)
            self._put_dir(atom_id, rid, _NO_RECORD, 1, _stamp(sv))
            return 0
        current_rid, vdir_rid, count, old_stamp = self._decode_dir(payload)
        # Migrate the superseded current version into the history segment.
        hist_rid = self._history.insert(self._current.read(current_rid))
        current_rid = self._current.update(current_rid, sv.payload)
        if vdir_rid == _NO_RECORD:
            vdir_rid = self._vdir.insert(
                self._spliced(bytes([_NARROW]), 0, old_stamp, hist_rid))
        else:
            vdir_rid = self._vdir.update(vdir_rid, self._spliced(
                self._vdir.read(vdir_rid), count - 1, old_stamp, hist_rid))
        self._put_dir(atom_id, current_rid, vdir_rid, count + 1, _stamp(sv))
        return count

    def replace_version(self, atom_id: int, seq: int,
                        sv: StoredVersion) -> None:
        self._set(atom_id, seq, _stamp(sv), sv.payload)

    def restamp(self, atom_id: int, seq: int, stamp: Stamp) -> None:
        # An envelope edit: the directory entry or one vdir entry.
        self._set(atom_id, seq, stamp, None)

    def _set(self, atom_id: int, seq: int, stamp: Stamp,
             payload: Optional[bytes]) -> None:
        """Give version *seq* the envelope *stamp* and any *payload*."""
        current_rid, vdir_rid, count, current_stamp = self._dir_entry(atom_id)
        if not (0 <= seq < count):
            raise StorageError(f"atom {atom_id} has no version {seq}")
        if seq == count - 1:
            if payload is not None:
                current_rid = self._current.update(current_rid, payload)
            self._put_dir(atom_id, current_rid, vdir_rid, count, stamp)
            return
        vdir = self._vdir.read(vdir_rid)
        _, hist_rid = self._vdir_entry(vdir, seq)
        if payload is not None:
            hist_rid = self._history.update(hist_rid, payload)
        new_vdir = self._vdir.update(
            vdir_rid, self._spliced(vdir, seq, stamp, hist_rid))
        if new_vdir != vdir_rid:
            self._put_dir(atom_id, current_rid, new_vdir, count,
                          current_stamp)

    def pop_version(self, atom_id: int) -> None:
        current_rid, vdir_rid, count, _ = self._dir_entry(atom_id)
        if count <= 1:
            self.delete_atom(atom_id)
            return
        # The previous version migrates back from history to current.
        vdir = self._vdir.read(vdir_rid)
        stamp, hist_rid = self._vdir_entry(vdir, count - 2)
        record = self._history.read(hist_rid)
        self._history.delete(hist_rid)
        restored = self._current.update(current_rid, record)
        if count > 2:
            vdir_rid = self._vdir.update(vdir_rid, vdir[
                :1 + (count - 2) * self._VDIR_ENTRIES[vdir[0]].size])
        else:
            self._vdir.delete(vdir_rid)
            vdir_rid = _NO_RECORD
        self._put_dir(atom_id, restored, vdir_rid, count - 1, stamp)

    def delete_atom(self, atom_id: int) -> None:
        current_rid, vdir_rid, _, _ = self._dir_entry(atom_id)
        if vdir_rid != _NO_RECORD:
            for _, hist_rid in self._parse_vdir(self._vdir.read(vdir_rid)):
                self._history.delete(hist_rid)
            self._vdir.delete(vdir_rid)
        self._current.delete(current_rid)
        self._directory.delete(atom_id)

    def read_current(self, atom_id: int) -> Tuple[int, StoredVersion]:
        current_rid, _vdir, count, stamp = self._dir_entry(atom_id)
        return count - 1, StoredVersion(*stamp,
                                        self._current.read(current_rid))

    # -- batched reads ---------------------------------------------------------
    #
    # A batch runs in waves — directory, then current segment, then
    # version directories, then history records — each wave a single
    # page-grouped read, so the dense current segment in particular is
    # pinned once per page per batch (the strategy's best case).

    def read_at_many(self, requests: Iterable[Request]
                     ) -> Dict[Request, Selected]:
        # The directory entry and the vdir hold every envelope, so the
        # walk runs on them alone, and a wave per segment (directory,
        # current, vdirs, history) reads just the records it selected.
        walk = _Walk(requests)
        heads: Dict[int, _DirEntry] = {
            atom_id: self._decode_dir(payload) for atom_id, payload
            in self._entries_many(walk.pending).items()
            if payload is not None}
        current_picks: List[_Pick] = []
        vdir_walks: Dict[int, RecordId] = {}
        for atom_id, (current_rid, vdir_rid, count, stamp) in heads.items():
            hits = walk.hits(atom_id, stamp)
            if hits:
                current_picks.append((current_rid, count - 1, stamp, hits))
            if count > 1 and not walk.done(atom_id):
                vdir_walks[atom_id] = vdir_rid
        _select_records(walk, current_picks, self._current)
        vdir_records = self._vdir.read_many(vdir_walks.values())
        history_picks: List[_Pick] = []
        for atom_id, vdir_rid in vdir_walks.items():
            vdir = vdir_records[vdir_rid]
            width = vdir[0]
            unpack, size = (self._VDIR_ENTRIES[width].unpack_from,
                            self._VDIR_ENTRIES[width].size)
            for seq in range((len(vdir) - 1) // size - 1, -1, -1):
                fields = unpack(vdir, 1 + seq * size)
                stamp = _mapped(fields, _LOADED[width])
                hits = walk.hits(atom_id, stamp)
                if hits:
                    history_picks.append((RecordId(fields[4], fields[5]),
                                          seq, stamp, hits))
                    if walk.done(atom_id):
                        break
        _select_records(walk, history_picks, self._history)
        return walk.result(heads)


#: A SEPARATED directory entry: current, vdir, count, current stamp.
_DirEntry = Tuple[RecordId, RecordId, int, Stamp]
#: A SEPARATED selection: the record to read, its seq and envelope, and
#: the asks it answers.
_Pick = Tuple[RecordId, int, Stamp, List[_Ask]]


def _select_records(walk: _Walk, picks: List[_Pick],
                    segment: HeapSegment) -> None:
    """Read the records of *picks* from *segment* in one grouped read
    and give each to the requests that selected it."""
    records = segment.read_many(rid for rid, _, _, _ in picks)
    for rid, seq, stamp, hits in picks:
        walk.select(hits, seq, StoredVersion(*stamp, records[rid]))


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
