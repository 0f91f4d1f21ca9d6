"""The logical operation layer of the temporal engine.

:class:`StorageEngine` binds the version store, the index manager, and
the version codec into the operations the data model defines: temporal
insert, update-from, logical delete, link/unlink, and bitemporal
correction.  Each mutation

1. computes its effect as a pure :class:`~repro.core.history.HistoryPlan`,
2. applies the plan to the version store,
3. maintains the affected indexes, and
4. returns compensating undo actions for transaction rollback.

Stored payloads are self-describing: a 16-bit atom type id precedes the
codec payload, so any record can be decoded without consulting a
separate atom-to-type map.

The engine is deliberately free of transactions and locks — the database
facade wraps every call in logging and locking.  Live transactions and
recovery/replica replay both turn a logged operation into a mutation
through one dispatch, :meth:`StorageEngine.apply`.

The engine's only per-atom state is its cache entry
(:class:`DecodedVersionCache`): the stored history, decoded versions,
live set and type name.  A warm atom is answered without touching the
store.  Every point read, current or ``AS OF``, is one request
``(atom, at, tt)`` answered by :meth:`StorageEngine.point_reads`.  A
current one (``tt`` None, no pushdown) takes the live version valid at
its instant from the entry's valid-time index — one bisect over the
full decodes with open transaction time and the live set's versions.
Every other request is selected newest-first on the envelopes, which
carry both valid and transaction time, so no payload is opened to
choose: on the cached ones when the history is cached, otherwise by the
store's ``read_at_many``, which reads just the records it selects and
caches no history.  Interval sweeps select theirs from the cached
envelopes too, and each read decodes only what it picks; a pushed-down
predicate is judged on the selected payloads here, and only here.  A
warm mutation plans from the entry and learns its new sequence numbers
from ``append_version``, so it reads nothing from the store before it
writes.

Concurrency contract: the read methods (``version_at``, ``all_versions``,
``lifespan``, their ``_many`` forms, ``atoms_of_type``, the candidate
selectors) change nothing but the cache, so any number of threads may
call them concurrently *provided no mutation runs at the same time* —
the facade enforces this with its shared-read / exclusive-write latch,
which is also what keeps a history read from the store consistent until
it is cached.  The buffer pool and disk manager below are internally
locked; everything between them and this class is read-pure on the read
paths.  The cache carries its own lock; a cached :class:`StoredHistory`
never changes except its ``versions`` slot, which racing readers may
each set to an equal tuple (one attribute store, atomic under the GIL).
"""

from __future__ import annotations

import operator
import struct
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.access.indexes import (
    IndexManager,
    attribute_index_name,
    vt_index_name,
)
from repro.core import history as hist
from repro.core.codec import VersionCodec
from repro.core.schema import LinkType, Schema
from repro.core.version import IN, OUT, Version, ref_key
from repro.errors import (
    CardinalityError,
    SerializationError,
    TemporalUpdateError,
    TransactionStateError,
    UnknownAtomError,
    UnknownTypeError,
)
from repro.storage.strategies import (
    PointRequest,
    StoredVersion,
    VersionStore,
    believed,
    group_requests,
    iter_histories,
    select_newest_first,
)
from repro.temporal import FOREVER, Interval, Timestamp

_TYPE_PREFIX = struct.Struct("<H")

#: Comparison operators a pushdown predicate may carry, by the
#: :class:`~repro.mql.ast_nodes.CompareOp` member *name*.  The planner
#: ships plain ``(attr, op name, literal)`` triples rather than AST
#: nodes so this module never imports the MQL package (which imports
#: this one).
_PUSHDOWN_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "EQ": operator.eq,
    "NE": operator.ne,
    "LT": operator.lt,
    "LE": operator.le,
    "GT": operator.gt,
    "GE": operator.ge,
}

UndoAction = Callable[[], None]

#: Default budget of the decoded-version cache in bytes.  The previous
#: bound was 4096 *entries*, which for typical ~100-byte payloads sat
#: around half a megabyte but could balloon arbitrarily for wide atoms;
#: a byte budget makes the cache's footprint a real, tunable number that
#: can share one memory budget with the buffer pool.
DEFAULT_DECODE_CACHE_BYTES = 8 * 1024 * 1024

#: Fixed per-entry accounting overhead (key tuple, OrderedDict slot,
#: Version object headers) added to each entry's payload size.
DECODE_CACHE_ENTRY_OVERHEAD = 160


class StoredHistory:
    """One atom's full stored history, as a full-history read returns
    it and the cache keeps it."""

    __slots__ = ("stored", "versions")

    def __init__(self, stored: Iterable[StoredVersion]) -> None:
        #: Every stored version (envelope plus payload), in seq order.
        self.stored: Tuple[StoredVersion, ...] = tuple(stored)
        #: The full decode, once a reader has made it: the same Version
        #: objects the atom's decoded entries hold, in seq order, so a
        #: warm full-history read is one lookup.
        self.versions: Optional[Tuple[Version, ...]] = None


#: An atom's live versions as the write path plans against them:
#: seq -> (decoded live version, charged cost in bytes).
LiveSet = Dict[int, Tuple[Version, int]]


class _AtomEntry:
    """Everything the engine knows about one atom."""

    __slots__ = ("history", "decoded", "live", "type_name", "cost",
                 "live_starts", "live_versions")

    def __init__(self) -> None:
        #: Filled only by full-history reads.
        self.history: Optional[StoredHistory] = None
        #: (seq, cols) -> (type_name, version, charged cost in bytes)
        self.decoded: Dict[Tuple[int, Any], Tuple[str, Version, int]] = {}
        #: Filled by the write path's planning read, repaired by each
        #: forward mutation.
        self.live: Optional[LiveSet] = None
        self.type_name: Optional[str] = None
        self.cost = 0
        #: Valid-time index of the live versions the entry holds (full
        #: decodes with open transaction time and the live set's
        #: versions): their starts, sorted, and the versions in the
        #: same order.  Live versions are valid-time disjoint, so a
        #: start names one version.
        self.live_starts: List[Timestamp] = []
        self.live_versions: List[Version] = []

    def index_live(self, version: Version) -> None:
        """Add *version*, a live version, to the valid-time index."""
        start = version.vt.start
        index = bisect_left(self.live_starts, start)
        if index < len(self.live_starts) and self.live_starts[index] == start:
            return  # already known
        self.live_starts.insert(index, start)
        self.live_versions.insert(index, version)

    def live_at(self, at: Timestamp) -> Optional[Version]:
        """The indexed live version whose valid time contains *at*."""
        index = bisect_right(self.live_starts, at) - 1
        if index < 0:
            return None
        version = self.live_versions[index]
        return version if at < version.vt.end else None


def _live_cost(live: LiveSet) -> int:
    """A live set's charge: its versions' plus one overhead for itself."""
    return DECODE_CACHE_ENTRY_OVERHEAD + sum(cost for _, cost
                                             in live.values())


class DecodedVersionCache:
    """Byte-bounded LRU of what the engine knows about each atom.

    Entries are per atom, so one lock, one LRU order, one byte budget
    and one ``pop`` cover all four parts:

    * the **stored history** — every :class:`StoredVersion` (envelope
      plus payload bytes) in seq order, filled only by full-history
      reads, so neither a current-knowledge point slice nor an ``AS OF``
      point read ever pays for a whole history;
    * the **decoded versions**, keyed by ``(seq, cols)`` where ``cols``
      is ``None`` for a full decode and a projection descriptor (the
      attribute tuple plus a refs flag) for a partial one, so a
      projected version can never be returned to a caller expecting the
      full version or vice versa;
    * the **live set** — the decoded live versions by seq, which every
      mutation plans against;
    * the **type name**, which every filler that decodes a payload sets.

    Each entry also keeps a valid-time index of the *live* versions it
    holds — the full decodes whose transaction time is open and the
    live set's versions — filled where they are installed (:meth:`put`,
    :meth:`remember`, :meth:`mutated`) and leaving with the entry.  It
    answers current slices (:meth:`live_at_many`): an indexed version
    whose valid time contains the instant is exactly what the store
    would return.  That is safe by the invalidation rule below: any
    mutation drops the atom's decodes (and re-installs the live set it
    repaired), and undo, vacuum and eviction drop the whole entry, so a
    cached decode with open transaction time is live *now*; and live
    versions are valid-time disjoint, so at most one contains the
    instant.  Projected decodes are never indexed.

    Each stored, decoded or live version is charged its *encoded
    payload size* plus a fixed overhead — the encoded size is a
    faithful, already-known proxy for the decoded footprint (a partial
    decode is charged the full-payload size, a deliberate
    overestimate).  A live set is charged one more overhead for itself,
    and an entry created to hold a type name alone one overhead.
    A decoded version or live set larger than the whole budget, and a
    history that cannot fit together with its decodes, are never
    cached; such a history is served straight from the store every
    time.  Occupancy is the ``engine.decode_cache.bytes`` gauge.

    Invalidation has one rule.  A sequence number is stable for the
    lifetime of an atom but its *content* changes under
    ``replace_version``/``restamp``/``pop_version``, so:

    * a forward mutation (:meth:`mutated`) drops the history and the
      decodes and keeps the type name — atoms never change type while
      they exist — and installs the live set repaired from its plan,
      claimed (:meth:`take_live`) before the store is touched, so an
      exception leaves none behind;
    * undo, vacuum, eviction and ``clear`` drop the whole entry.  Only
      an undone insert removes an atom, and undo drops its entry.

    Thread-safe: concurrent queries hit it under the shared-read latch.
    """

    def __init__(self, capacity_bytes: int, metrics) -> None:
        self._capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._atoms: "OrderedDict[int, _AtomEntry]" = OrderedDict()
        self._bytes = 0
        self._c_hits = metrics.counter("engine.decode_cache.hits")
        self._c_misses = metrics.counter("engine.decode_cache.misses")
        self._c_history_hits = metrics.counter("engine.history_cache.hits")
        self._c_history_misses = metrics.counter(
            "engine.history_cache.misses")
        self._c_invalidations = metrics.counter(
            "engine.decode_cache.invalidations")
        self._c_evictions = metrics.counter("engine.decode_cache.evictions")
        self._g_bytes = metrics.gauge("engine.decode_cache.bytes")

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, atom_id: int, seq: int,
            cols: Any = None) -> Optional[Tuple[str, Version]]:
        with self._lock:
            entry = self._atoms.get(atom_id)
            found = None if entry is None else entry.decoded.get((seq, cols))
            if found is None:
                self._c_misses.inc()
                return None
            self._atoms.move_to_end(atom_id)
            self._c_hits.inc()
            return found[0], found[1]

    def put(self, atom_id: int, seq: int, type_name: str,
            version: Version, nbytes: int = 0, cols: Any = None) -> None:
        """Cache a decode; a full one of a live version (open
        transaction time) also joins the entry's valid-time index."""
        cost = nbytes + DECODE_CACHE_ENTRY_OVERHEAD
        if cost > self._capacity_bytes:
            return  # an oversized entry would thrash the whole cache
        with self._lock:
            entry = self._entry(atom_id)
            existing = entry.decoded.get((seq, cols))
            if existing is not None:
                self._charge(entry, -existing[2])
            entry.decoded[(seq, cols)] = (type_name, version, cost)
            entry.type_name = type_name
            if cols is None and version.live:
                entry.index_live(version)
            self._charge(entry, cost)
            self._evict()

    def live_at_many(self, requests: List[PointRequest]
                     ) -> Dict[PointRequest, Version]:
        """The live version each current-knowledge request among
        *requests* asks for, where the atom's entry holds it as a full
        decode or in the live set; each counts a decode hit.  One bisect
        per request."""
        found: Dict[PointRequest, Version] = {}
        with self._lock:
            atoms = self._atoms
            for request in requests:
                atom_id, at, tt = request
                entry = atoms.get(atom_id)
                if entry is None or tt is not None:
                    continue
                version = entry.live_at(at)
                if version is not None:
                    atoms.move_to_end(atom_id)
                    found[request] = version
            if found:
                self._c_hits.inc(len(found))
        return found

    def histories(self, atom_ids: List[int]) -> Dict[int, StoredHistory]:
        """The cached stored histories among *atom_ids*; an atom without
        one counts a history miss."""
        found: Dict[int, StoredHistory] = {}
        with self._lock:
            atoms = self._atoms
            for atom_id in atom_ids:
                entry = atoms.get(atom_id)
                if entry is not None and entry.history is not None:
                    atoms.move_to_end(atom_id)
                    found[atom_id] = entry.history
            if found:
                self._c_history_hits.inc(len(found))
            if len(found) < len(atom_ids):
                self._c_history_misses.inc(len(atom_ids) - len(found))
        return found

    def put_history(self, atom_id: int, history: StoredHistory,
                    type_name: Optional[str] = None) -> None:
        """Cache *history* (of an atom of *type_name*), unless it is
        oversized: a history that cannot fit in the budget together with
        its decodes (charged the same again) is left uncached and served
        from the store every time, rather than evicting itself while it
        is decoded.

        Its full decode (``history.versions``) is charged nothing extra:
        those are the atom's decoded entries, already charged, and they
        leave the cache together with the history.
        """
        cost = (sum(len(sv.payload) for sv in history.stored)
                + DECODE_CACHE_ENTRY_OVERHEAD * len(history.stored))
        if 2 * cost > self._capacity_bytes:
            return
        with self._lock:
            entry = self._entry(atom_id)
            if entry.history is not None:
                return  # a concurrent reader filled it first
            entry.history = history
            entry.type_name = type_name or entry.type_name
            self._charge(entry, cost)
            self._evict()

    def note_decoded_hits(self, count: int) -> None:
        """Count versions served from a history's full decode."""
        self._c_hits.inc(count)

    def known(self, atom_id: int
              ) -> Tuple[Optional[str], Optional[LiveSet]]:
        """The atom's type name and live set, each ``None`` when the
        entry does not hold it."""
        with self._lock:
            entry = self._atoms.get(atom_id)
            if entry is None:
                return None, None
            self._atoms.move_to_end(atom_id)
            return entry.type_name, entry.live

    def remember(self, atom_id: int, type_name: Optional[str],
                 live: Optional[LiveSet] = None) -> None:
        """Record the atom's type name and, from a planning read, its
        live set."""
        with self._lock:
            self._remember(atom_id, type_name, live)

    def take_live(self, atom_id: int) -> Optional[LiveSet]:
        """Claim the atom's live set for a mutation: it leaves the entry
        (and the budget) until :meth:`mutated` installs the repair."""
        with self._lock:
            entry = self._atoms.get(atom_id)
            if entry is None or entry.live is None:
                return None
            live, entry.live = entry.live, None
            self._charge(entry, -_live_cost(live))
            self._g_bytes.set(self._bytes)
            return live

    def mutated(self, atom_id: int, live: Optional[LiveSet]) -> None:
        """A forward mutation rewrote the atom: its entry keeps only the
        type name and *live*, the claimed live set repaired from the
        plan (``None`` when there was none)."""
        with self._lock:
            self._c_invalidations.inc()
            old = self._pop(atom_id)
            self._remember(atom_id, None if old is None else old.type_name,
                           live)

    def _remember(self, atom_id: int, type_name: Optional[str],
                  live: Optional[LiveSet]) -> None:
        """Caller holds ``_lock``.  An entry created to hold a type name
        alone is charged one overhead."""
        if live is not None and _live_cost(live) > self._capacity_bytes:
            live = None
        if type_name is not None or live is not None:
            created = atom_id not in self._atoms
            entry = self._entry(atom_id)
            entry.type_name = type_name or entry.type_name
            if live is not None:
                if entry.live is not None:
                    self._charge(entry, -_live_cost(entry.live))
                entry.live = live
                self._charge(entry, _live_cost(live))
                for version, _ in live.values():
                    entry.index_live(version)
            elif created:
                self._charge(entry, DECODE_CACHE_ENTRY_OVERHEAD)
        self._evict()

    def _pop(self, atom_id: int) -> Optional[_AtomEntry]:
        """Drop the atom's entry and its bytes.  Caller holds ``_lock``."""
        entry = self._atoms.pop(atom_id, None)
        if entry is not None:
            self._bytes -= entry.cost
        return entry

    def _entry(self, atom_id: int) -> _AtomEntry:
        """The atom's entry, created if absent, as most recently used.
        Caller holds ``_lock``."""
        entry = self._atoms.get(atom_id)
        if entry is None:
            entry = self._atoms[atom_id] = _AtomEntry()
        else:
            self._atoms.move_to_end(atom_id)
        return entry

    def _charge(self, entry: _AtomEntry, cost: int) -> None:
        entry.cost += cost
        self._bytes += cost

    def _evict(self) -> None:
        """Drop least recently used atoms until the budget holds.
        Caller holds ``_lock``."""
        while self._bytes > self._capacity_bytes and self._atoms:
            _, old = self._atoms.popitem(last=False)
            self._bytes -= old.cost
            self._c_evictions.inc()
        self._g_bytes.set(self._bytes)

    def invalidate_atom(self, atom_id: int) -> None:
        with self._lock:
            self._c_invalidations.inc()
            self._pop(atom_id)
            self._g_bytes.set(self._bytes)

    def clear(self) -> None:
        with self._lock:
            self._atoms.clear()
            self._bytes = 0
            self._g_bytes.set(0)

    def __len__(self) -> int:
        """Number of decoded versions held (histories not counted)."""
        with self._lock:
            return sum(len(entry.decoded) for entry in self._atoms.values())


class StorageEngine:
    """Logical operations over one version store."""

    def __init__(self, schema: Schema, store: VersionStore,
                 indexes: IndexManager,
                 decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES) -> None:
        self.schema = schema
        self.store = store
        self.indexes = indexes
        self.codec = VersionCodec(schema)
        self._type_by_id = {atom_type.type_id: atom_type.name
                            for atom_type in schema.atom_types}
        self.metrics = indexes.metrics
        self._c_version_reads = self.metrics.counter("engine.version_reads")
        self._c_versions_scanned = self.metrics.counter(
            "engine.versions_scanned")
        self._c_mutations = self.metrics.counter("engine.mutations")
        self._c_pushdown_skipped = self.metrics.counter(
            "engine.pushdown.skipped")
        self._decode_cache = DecodedVersionCache(decode_cache_bytes,
                                                 self.metrics)
        self._c_live_hits = self.metrics.counter("engine.live_set.hits")
        self._c_live_misses = self.metrics.counter("engine.live_set.misses")
        # Monotone replay watermark: recovery/replication skip logged
        # operations at or below this LSN, making re-replay of an
        # overlapping committed range a no-op (see txn.recovery).
        self.applied_replay_lsn = 0

    # ------------------------------------------------------------------
    # Encoding helpers (type-prefixed payloads)
    # ------------------------------------------------------------------

    def _encode(self, type_name: str, version: Version) -> StoredVersion:
        stored = self.codec.encode(type_name, version)
        prefix = _TYPE_PREFIX.pack(self.schema.atom_type(type_name).type_id)
        return StoredVersion(stored.vt_start, stored.vt_end, stored.tt_start,
                             stored.tt_end, prefix + stored.payload)

    def _stored_type_name(self, payload: bytes) -> str:
        """The atom type a type-prefixed payload was stored as."""
        (type_id,) = _TYPE_PREFIX.unpack_from(payload, 0)
        try:
            return self._type_by_id[type_id]
        except KeyError:
            raise UnknownTypeError(
                f"stored record carries unknown type id {type_id}") from None

    def _decode(self, stored: StoredVersion) -> Tuple[str, Version]:
        type_name = self._stored_type_name(stored.payload)
        body = StoredVersion(stored.vt_start, stored.vt_end, stored.tt_start,
                             stored.tt_end, stored.payload[_TYPE_PREFIX.size:])
        return type_name, self.codec.decode(type_name, body)

    # ------------------------------------------------------------------
    # VersionReader protocol (used by the molecule builder)
    # ------------------------------------------------------------------

    def _decode_cached(self, atom_id: int, seq: int,
                       stored: StoredVersion,
                       projection: Optional[Dict[str, Tuple[Any,
                                                            Tuple[str, ...],
                                                            bool]]] = None
                       ) -> Tuple[str, Version]:
        """Decode *stored* through the decoded-version cache.

        With a *projection* (type name -> (cache cols key, attribute
        tuple, need-refs flag), from :meth:`compile_pushdown`), types
        named in the map are decoded partially and cached under their
        projection key; types absent from it decode fully, under the
        full key, exactly as without a projection.
        """
        entry = None
        cols: Any = None
        type_name: Optional[str] = None
        if projection is not None:
            (type_id,) = _TYPE_PREFIX.unpack_from(stored.payload, 0)
            type_name = self._type_by_id.get(type_id)
            if type_name is not None:
                entry = projection.get(type_name)
                if entry is not None:
                    cols = entry[0]
        cached = self._decode_cache.get(atom_id, seq, cols)
        if cached is not None:
            return cached
        if entry is None:
            type_name, version = self._decode(stored)
        else:
            body = StoredVersion(stored.vt_start, stored.vt_end,
                                 stored.tt_start, stored.tt_end,
                                 stored.payload[_TYPE_PREFIX.size:])
            version = self.codec.decode_partial(type_name, body,
                                                entry[1], entry[2])
        self._decode_cache.put(atom_id, seq, type_name, version,
                               nbytes=len(stored.payload), cols=cols)
        return type_name, version

    def invalidate_atom_caches(self, atom_id: int) -> None:
        """Forget everything cached about *atom_id*: its history,
        decodes, live set and type name.

        Called by undo and by maintenance tools that rewrite the store
        directly (vacuum); a forward mutation keeps the type name and
        repairs the live set instead (:meth:`DecodedVersionCache.mutated`).
        """
        self._decode_cache.invalidate_atom(atom_id)

    def atom_type_name(self, atom_id: int) -> str:
        type_name, _ = self._decode_cache.known(atom_id)
        if type_name is None:
            # Unknown atoms raise here: only atoms the store holds ever
            # get an entry with a type name.
            _, stored = self.store.read_current(atom_id)
            type_name = self._stored_type_name(stored.payload)
            self._decode_cache.remember(atom_id, type_name)
        return type_name

    def version_at(self, atom_id: int, at: Timestamp,
                   tt: Optional[Timestamp] = None) -> Optional[Version]:
        """The version valid at *at* as believed at *tt* (None = now)."""
        return self.version_at_many([atom_id], at, tt)[atom_id]

    def version_at_many(self, atom_ids: Iterable[int], at: Timestamp,
                        tt: Optional[Timestamp] = None,
                        pred: Optional[Callable[[bytes], bool]] = None,
                        projection: Optional[Dict[str, Tuple[Any,
                                                             Tuple[str, ...],
                                                             bool]]] = None
                        ) -> Dict[int, Optional[Version]]:
        """Batched :meth:`version_at`: one result per distinct atom id,
        ``None`` for unknown atoms; the :meth:`point_reads` of every atom
        at one instant."""
        requests = [(atom_id, at, tt) for atom_id in dict.fromkeys(atom_ids)]
        found = self.point_reads(requests, pred, projection)
        return {request[0]: found[request] for request in requests}

    def point_reads(self, requests: Iterable[PointRequest],
                    pred: Optional[Callable[[bytes], bool]] = None,
                    projection: Optional[Dict[str, Tuple[Any,
                                                         Tuple[str, ...],
                                                         bool]]] = None
                    ) -> Dict[PointRequest, Optional[Version]]:
        """For each distinct ``(atom, at, tt)`` request, the version
        valid at *at* as believed at *tt* (``None`` = now): one result
        per request, ``None`` for unknown atoms and for no state.

        Each answer is *selected* before anything is decoded.  A
        current-knowledge request without pushdown whose atom's cache
        entry holds the live version valid at *at* (a full decode with
        open transaction time, or a member of the live set) is answered
        by one bisect of the entry's valid-time index.  Every other
        request takes the store's newest-first walk: on the cached
        envelopes when the atom's history is cached, otherwise through
        one batched ``store.read_at_many``, which reads only as far back
        as each answer and fills no history.  A version is believed now
        when it is live, and at *tt* when its envelope's transaction
        time contains *tt*.  The first hit is the only one: versions
        believed at one transaction time are valid-time disjoint (the
        invariant :func:`~repro.core.history.check_history` checks), so
        the answer equals :func:`repro.core.history.version_at` over the
        full decode.

        *pred* / *projection* come from :meth:`compile_pushdown`: the
        predicate is evaluated on each selected raw payload, so a
        request whose version fails it comes back ``None`` without being
        decoded (counted on ``engine.pushdown.skipped``); the projection
        makes the survivors decode only the attributes the query reads.
        """
        pending = list(dict.fromkeys(requests))
        if not pending:
            return {}
        self._c_version_reads.inc(len({request[0] for request in pending}))
        result: Dict[PointRequest, Optional[Version]] = {}
        if pred is None and projection is None:
            result.update(self._decode_cache.live_at_many(pending))
            if result:
                pending = [request for request in pending
                           if request not in result]
        scanned = len(result)
        if pending:
            hits, by_atom = group_requests(pending)
            cached = self._decode_cache.histories(list(by_atom))
            for atom_id, history in cached.items():
                select_newest_first(by_atom[atom_id], history.stored, hits)
            if len(cached) < len(by_atom):
                hits.update(self.store.read_at_many(
                    [request for request in pending
                     if request[0] not in cached]))
            skipped = 0
            for request, hit in hits.items():
                if hit is not None and pred is not None and not pred(
                        hit[1].payload):
                    skipped += 1
                    hit = None
                if hit is None:
                    result[request] = None
                else:
                    result[request] = self._decode_cached(
                        request[0], *hit, projection)[1]
                    scanned += 1
            if skipped:
                self._c_pushdown_skipped.inc(skipped)
        self._c_versions_scanned.inc(scanned)
        return result

    def all_versions(self, atom_id: int) -> List[Version]:
        """The atom's full recorded history, in sequence order."""
        versions = self.all_versions_many([atom_id]).get(atom_id)
        if versions is None:
            raise UnknownAtomError(f"no atom {atom_id}")
        return versions

    def live_pairs(self, atom_id: int) -> List[Tuple[int, Version]]:
        """The atom's live versions as (seq, version), in seq order.

        Served from the atom's cache entry when warm; one store
        ``read_live`` otherwise (raising :class:`UnknownAtomError` for
        an unknown atom).  This is the planning read for every mutation
        — closed versions are immutable, so revision never needs them —
        and each mutation repairs the cached set from its plan, so update
        cost stays O(live) however long the closed history grows.  Its
        decodes also name the atom's type, so mutations call it before
        :meth:`atom_type_name` and a cold atom's type costs no extra read.
        A cold read takes decodes the cache already holds but does not
        put its own: the mutation that follows would drop them at once.
        """
        _, live = self._decode_cache.known(atom_id)
        if live is not None:
            self._c_live_hits.inc()
        else:
            stored = self.store.read_live(atom_id)
            self._c_live_misses.inc()
            live = {}
            type_name: Optional[str] = None
            for seq, sv in stored:
                cached = self._decode_cache.get(atom_id, seq)
                type_name, version = (self._decode(sv) if cached is None
                                      else cached)
                live[seq] = (version,
                             len(sv.payload) + DECODE_CACHE_ENTRY_OVERHEAD)
            self._c_versions_scanned.inc(len(live))
            self._decode_cache.remember(atom_id, type_name, live)
        return sorted((seq, version) for seq, (version, _) in live.items())

    def _stored_histories(self, ids: List[int]) -> Dict[int, StoredHistory]:
        """The full stored histories of the known atoms among *ids*, in
        input order: cached entries as they are, the rest through one
        batched store read whose results fill their entries.  Unknown
        atoms are omitted."""
        found = self._decode_cache.histories(ids)
        if len(found) == len(ids):
            return found
        misses = [atom_id for atom_id in ids if atom_id not in found]
        for atom_id, stored in self.store.read_all_many(misses).items():
            history = StoredHistory(stored)
            self._decode_cache.put_history(
                atom_id, history, self._stored_type_name(stored[0].payload))
            found[atom_id] = history
        return {atom_id: found[atom_id] for atom_id in ids
                if atom_id in found}

    def all_versions_many(self, atom_ids: Iterable[int]
                          ) -> Dict[int, List[Version]]:
        """Batched :meth:`all_versions`; unknown atoms are *omitted*
        rather than raising, so callers can detect and handle them.

        Cached histories are served without touching the store; the
        rest are read in one batch and cached for the next caller.
        """
        result: Dict[int, List[Version]] = {}
        histories = self._stored_histories(list(dict.fromkeys(atom_ids)))
        for atom_id, history in histories.items():
            versions = history.versions
            if versions is None:
                # Racing readers may both decode; either tuple is right.
                versions = history.versions = tuple(
                    self._decode_cached(atom_id, seq, sv)[1]
                    for seq, sv in enumerate(history.stored))
            else:
                self._decode_cache.note_decoded_hits(len(versions))
            result[atom_id] = list(versions)
            self._c_versions_scanned.inc(len(versions))
        return result

    def versions_during_many(self, atom_ids: Iterable[int],
                             window: Interval,
                             tt: Optional[Timestamp] = None
                             ) -> Dict[int, List[Version]]:
        """The versions of each known atom believed at *tt* (None = now)
        whose valid time overlaps *window*, in valid-time order; unknown
        atoms are omitted.

        The interval read of ``VALID HISTORY`` / ``VALID DURING``: the
        stored histories come from the history cache or one batched
        ``read_all_many`` (which fills it), the versions are *selected*
        on their envelopes and only those are decoded (through the
        decode cache), or taken from the history's full decode when it
        is cached.
        """
        result: Dict[int, List[Version]] = {}
        histories = self._stored_histories(list(dict.fromkeys(atom_ids)))
        for atom_id, history in histories.items():
            picked = self._during(atom_id, history, window, tt)
            result[atom_id] = picked
            self._c_versions_scanned.inc(len(picked))
        return result

    def _during(self, atom_id: int, history: StoredHistory,
                window: Interval, tt: Optional[Timestamp]) -> List[Version]:
        """One atom's :meth:`versions_during_many` answer."""
        seqs = [seq for seq, stored in enumerate(history.stored)
                if stored.vt_start < window.end
                and window.start < stored.vt_end
                and believed(stored.tt_start, stored.tt_end, tt)]
        versions = history.versions
        if versions is not None:
            picked = [versions[seq] for seq in seqs]
            self._decode_cache.note_decoded_hits(len(picked))
        else:
            picked = [self._decode_cached(atom_id, seq,
                                          history.stored[seq])[1]
                      for seq in seqs]
        picked.sort(key=lambda version: version.vt.start)
        return picked

    def atom_exists(self, atom_id: int) -> bool:
        return self.store.exists(atom_id)

    def atoms_of_type(self, type_name: str) -> Iterator[int]:
        type_id = self.schema.atom_type(type_name).type_id
        return self.indexes.atoms_of_type(type_id)

    def lifespan(self, atom_id: int,
                 tt: Optional[Timestamp] = None):
        return hist.lifespan(self.all_versions(atom_id), tt)

    def drop_caches(self) -> None:
        """Forget every cached history, decoded version, live set and
        type name, so the next read of anything goes to the store.

        The cold state the paper experiments measure; caches refill on
        use.  Call it with no reader or mutation in flight.
        """
        self._decode_cache.clear()

    # ------------------------------------------------------------------
    # Predicate / projection pushdown (compiled from planner specs)
    # ------------------------------------------------------------------

    def compile_pushdown(self, spec) -> Tuple[
            Optional[Callable[[bytes], bool]],
            Optional[Dict[str, Tuple[Any, Tuple[str, ...], bool]]]]:
        """Compile a planner ``PushdownSpec`` against this schema.

        Returns ``(pred, projection)``:

        * *pred* — a callable over raw type-prefixed payloads, or
          ``None``.  It is a **necessary condition** for the version to
          survive the query's WHERE (the evaluator still re-filters),
          tuned to say "keep" on anything it cannot cheaply judge:
          foreign type ids and undecodable payloads all pass.
        * *projection* — type name -> ``(cols key, attrs, need_refs)``
          for types worth decoding partially; types whose projection
          covers every declared field are left out so they share the
          full-decode cache entries.
        """
        pred = None
        if spec.comparisons:
            pred = self._compile_payload_predicate(spec.type_name,
                                                   spec.comparisons)
        projection: Optional[Dict[str, Tuple[Any, Tuple[str, ...],
                                             bool]]] = None
        if spec.projection is not None:
            projection = {}
            for type_name, attrs, need_refs in spec.projection:
                atom_type = self.schema.atom_type(type_name)
                declared = {attr.name for attr in atom_type.attributes}
                wanted = tuple(attr for attr in attrs if attr in declared)
                if (set(wanted) >= declared
                        and (need_refs
                             or not self.codec.ref_keys(type_name))):
                    continue  # full coverage: partial buys nothing
                cols = (wanted, need_refs)
                projection[type_name] = (cols, wanted, need_refs)
            if not projection:
                projection = None
        return pred, projection

    def _compile_payload_predicate(
            self, type_name: str,
            comparisons: Tuple[Tuple[str, str, Any], ...]
    ) -> Callable[[bytes], bool]:
        """A raw-payload evaluator for conjunctive root comparisons.

        Mirrors the single-atom semantics of the evaluator's
        ``_satisfies`` exactly (NULL literals, NULL values, TypeError
        on incomparable values), so pushing it below decode can only
        drop versions the evaluator would have dropped anyway.
        """
        type_id = self.schema.atom_type(type_name).type_id
        attrs = tuple(dict.fromkeys(attr for attr, _, _ in comparisons))
        checks = tuple((attr, _PUSHDOWN_OPS[op], literal)
                       for attr, op, literal in comparisons)
        codec = self.codec
        prefix_size = _TYPE_PREFIX.size

        def pred(payload: bytes) -> bool:
            (tid,) = _TYPE_PREFIX.unpack_from(payload, 0)
            if tid != type_id:
                return True  # not the pushdown type: never judged here
            try:
                values = codec.peek(type_name, payload, attrs,
                                    offset=prefix_size)
            except (SerializationError, struct.error,
                    KeyError, IndexError):
                return True  # undecodable: let the full path decide
            for attr, op, literal in checks:
                value = values.get(attr)
                if literal is None:
                    if op is operator.eq:
                        if value is not None:
                            return False
                    elif op is operator.ne:
                        if value is None:
                            return False
                    else:
                        return False  # ordering against NULL never holds
                    continue
                if value is None:
                    return False
                try:
                    if not op(value, literal):
                        return False
                except TypeError:
                    return False
            return True

        return pred

    def prune_roots(self, atom_ids: Iterable[int],
                    pred: Callable[[bytes], bool]) -> List[int]:
        """Root candidates with at least one stored version passing
        *pred*, in input order.

        The existential pre-filter window queries use: an atom none of
        whose versions can satisfy a pushed root comparison can never
        produce a qualifying slice, so its whole history is skipped
        before a single decode.  Atoms unknown to the store are *kept*:
        the unpruned path surfaces them as :class:`UnknownAtomError`
        during the history sweep, and pruning must not mask that.

        The histories are read through the history cache (and fill it),
        so the sweep that follows for the surviving roots reads none of
        them again.  Each history is judged newest-first and only until
        a version passes, so ``engine.pushdown.skipped`` counts the
        failures actually evaluated: all of a pruned root's versions,
        and for a kept root those newer than its newest passing one.
        """
        ids = list(dict.fromkeys(atom_ids))
        histories = self._stored_histories(ids)
        kept: List[int] = []
        skipped = 0
        for atom_id in ids:
            history = histories.get(atom_id)
            if history is None:
                kept.append(atom_id)
                continue
            for stored_version in reversed(history.stored):
                if pred(stored_version.payload):
                    kept.append(atom_id)
                    break
                skipped += 1
        if skipped:
            self._c_pushdown_skipped.inc(skipped)
        return kept

    # ------------------------------------------------------------------
    # Plan application with index maintenance and undo capture
    # ------------------------------------------------------------------

    def _undo_invalidating(self, atom_id: int,
                           action: UndoAction) -> UndoAction:
        """Wrap an undo so rollback also drops the atom's cache entry."""
        def run() -> None:
            action()
            self.invalidate_atom_caches(atom_id)
        return run

    def _apply_plan(self, atom_id: int, type_name: str,
                    plan: hist.HistoryPlan,
                    undos: List[UndoAction]) -> None:
        self._c_mutations.inc()
        store = self.store
        # Claimed (not read) until the plan lands: any exception leaves
        # the entry without a live set and the next touch rebuilds it
        # from the store.  The plan says exactly how the live set
        # changes: a closed version (closures, stillborn rewrites)
        # leaves it, a live rewrite or append joins it at its seq.
        live = self._decode_cache.take_live(atom_id)

        def repair(seq: int, version: Version, stored: StoredVersion) -> None:
            if live is None:
                return
            if version.live:
                live[seq] = (version, len(stored.payload)
                             + DECODE_CACHE_ENTRY_OVERHEAD)
            else:
                live.pop(seq, None)

        # A closure only ends a live version's transaction time: an
        # envelope edit, undone by reopening it.
        for seq, closed in plan.closures:
            vt, tt = closed.vt, closed.tt
            store.restamp(atom_id, seq, (vt.start, vt.end, tt.start, tt.end))
            undos.append(self._undo_invalidating(atom_id, partial(
                store.restamp, atom_id, seq,
                (vt.start, vt.end, tt.start, FOREVER))))
            if live is not None:
                live.pop(seq, None)
        if plan.rewrites:
            originals = store.read_versions(
                atom_id, [seq for seq, _ in plan.rewrites])
        for seq, replacement in plan.rewrites:
            old = originals[seq]
            stored = self._encode(type_name, replacement)
            store.replace_version(atom_id, seq, stored)
            undos.append(self._undo_invalidating(
                atom_id,
                lambda s=seq, o=old: store.replace_version(atom_id, s, o)))
            repair(seq, replacement, stored)
        # Closures only change timestamps, but rewrites carry transformed
        # values the indexes have not seen yet.
        for _seq, replacement in plan.rewrites:
            self._index_version(type_name, atom_id, replacement)
        first_append = False
        for version in plan.appends:
            stored = self._encode(type_name, version)
            seq = store.append_version(atom_id, stored)
            first_append = first_append or seq == 0
            undos.append(self._undo_invalidating(
                atom_id, lambda: store.pop_version(atom_id)))
            self._index_version(type_name, atom_id, version)
            repair(seq, version, stored)
        if first_append:
            type_id = self.schema.atom_type(type_name).type_id
            self.indexes.register_atom(type_id, atom_id)
            undos.append(lambda: self.indexes.unregister_atom(type_id,
                                                              atom_id))
        self._decode_cache.mutated(atom_id, live)

    def _index_version(self, type_name: str, atom_id: int,
                       version: Version) -> None:
        atom_type = self.schema.atom_type(type_name)
        for attribute in atom_type.attributes:
            index_name = attribute_index_name(type_name, attribute.name)
            if not self.indexes.has_index(index_name):
                continue
            value = version.values.get(attribute.name)
            if value is None:
                continue
            key, _lossy = attribute.data_type.encode_key(value)
            self.indexes.add_attribute_entry(index_name, key, atom_id)
        vt_name = vt_index_name(type_name)
        if self.indexes.has_index(vt_name):
            self.indexes.add_vt_entry(vt_name, version.vt.start, atom_id)

    # ------------------------------------------------------------------
    # Mutations (each takes an explicit transaction time for replay)
    # ------------------------------------------------------------------

    def insert(self, type_name: str, values: Dict[str, Any],
               valid_from: Timestamp, valid_to: Timestamp,
               tt: Timestamp, atom_id: int
               ) -> List[UndoAction]:
        """Create *atom_id* of *type_name* valid over [valid_from, valid_to)."""
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(values)
        window = Interval(valid_from, valid_to)
        try:
            existing_live = self.live_pairs(atom_id)
        except UnknownAtomError:
            existing_live = []
        else:
            if self.atom_type_name(atom_id) != type_name:
                raise TemporalUpdateError(
                    f"atom {atom_id} already exists with a different type")
        plan = hist.insert_plan(checked, {}, window, tt,
                                existing_live=existing_live)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: Timestamp, tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Set *changes* over [valid_from, valid_to) (default: onwards)."""
        live = self.live_pairs(atom_id)
        type_name = self.atom_type_name(atom_id)
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(changes, partial=True)
        if not checked:
            raise TemporalUpdateError("update with no changes")
        window = Interval(valid_from, valid_to)

        def transform(version: Version) -> Version:
            merged = dict(version.values)
            merged.update(checked)
            return version.with_state(merged, version.refs)

        plan = hist.revise_pairs(live, window, tt, transform)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def delete(self, atom_id: int, valid_from: Timestamp,
               tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Logically delete: truncate validity inside the window."""
        live = self.live_pairs(atom_id)
        type_name = self.atom_type_name(atom_id)
        window = Interval(valid_from, valid_to)
        plan = hist.revise_pairs(live, window, tt, lambda version: None)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def correct(self, atom_id: int, window_start: Timestamp,
                window_end: Timestamp, changes: Dict[str, Any],
                tt: Timestamp) -> List[UndoAction]:
        """Bitemporal correction: rewrite values inside a past window."""
        live = self.live_pairs(atom_id)
        type_name = self.atom_type_name(atom_id)
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(changes, partial=True)
        window = Interval(window_start, window_end)

        def transform(version: Version) -> Version:
            merged = dict(version.values)
            merged.update(checked)
            return version.with_state(merged, version.refs)

        plan = hist.revise_pairs(live, window, tt, transform)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def apply(self, payload: Dict[str, Any]) -> List[UndoAction]:
        """Apply one logged operation (a WAL ``OPERATION`` payload), as
        live transactions and replay both do; returns its undo actions."""
        op = payload.get("op")
        tt = payload["tt"]
        if op == "insert":
            return self.insert(payload["type"], payload["values"],
                               payload["vf"], payload["vt"], tt,
                               payload["atom_id"])
        if op == "update":
            return self.update(payload["atom_id"], payload["changes"],
                               payload["vf"], tt, payload["vt"])
        if op == "delete":
            return self.delete(payload["atom_id"], payload["vf"], tt,
                               payload["vt"])
        if op == "correct":
            return self.correct(payload["atom_id"], payload["ws"],
                                payload["we"], payload["changes"], tt)
        if op == "link":
            return self.link(payload["link"], payload["src"],
                             payload["dst"], payload["vf"], tt,
                             payload["vt"])
        if op == "unlink":
            return self.unlink(payload["link"], payload["src"],
                               payload["dst"], payload["vf"], tt,
                               payload["vt"])
        raise TransactionStateError(f"unknown logged operation {op!r}")

    # -- links --------------------------------------------------------------

    def _link_type_for(self, link_name: str, source_id: int,
                       target_id: int) -> LinkType:
        if source_id == target_id:
            # Even with a self-referencing link type, an atom cannot be
            # its own partner (and the two-plan application below would
            # not compose for one atom).
            raise CardinalityError(
                f"{link_name}: atom {source_id} cannot be linked to itself")
        link = self.schema.link_type(link_name)
        # The planning reads come first: their decodes name both types,
        # so a cold link reads each atom's live set and nothing else.
        self.live_pairs(source_id)
        self.live_pairs(target_id)
        source_type = self.atom_type_name(source_id)
        target_type = self.atom_type_name(target_id)
        if (source_type, target_type) != (link.source, link.target):
            raise UnknownTypeError(
                f"link {link_name!r} connects {link.source}->{link.target}, "
                f"got {source_type}->{target_type}")
        return link

    def _check_cardinality(self, link: LinkType, source_id: int,
                           target_id: int, window: Interval) -> None:
        if not link.cardinality.source_may_have_many:
            for _, version in self.live_pairs(source_id):
                if not version.vt.overlaps(window):
                    continue
                others = version.refs.get(ref_key(link.name, OUT),
                                          frozenset()) - {target_id}
                if others:
                    raise CardinalityError(
                        f"{link.name}: source {source_id} already linked "
                        f"during {version.vt}")
        if not link.cardinality.target_may_have_many:
            for _, version in self.live_pairs(target_id):
                if not version.vt.overlaps(window):
                    continue
                others = version.refs.get(ref_key(link.name, IN),
                                          frozenset()) - {source_id}
                if others:
                    raise CardinalityError(
                        f"{link.name}: target {target_id} already linked "
                        f"during {version.vt}")

    def _ref_plan(self, atom_id: int, key: str, partner: int, add: bool,
                  window: Interval, tt: Timestamp
                  ) -> Tuple[str, hist.HistoryPlan, bool]:
        """Plan adding/removing *partner* in the atom's reference set.

        Pure: nothing is applied.  Returns (type name, plan, changed).
        """
        changed = False

        def transform(version: Version) -> Version:
            nonlocal changed
            refs = {k: set(v) for k, v in version.refs.items()}
            members = refs.setdefault(key, set())
            if add and partner not in members:
                members.add(partner)
                changed = True
            elif not add and partner in members:
                members.discard(partner)
                changed = True
            return version.with_state(
                version.values,
                {k: frozenset(v) for k, v in refs.items() if v})

        type_name = self.atom_type_name(atom_id)
        plan = hist.revise_pairs(self.live_pairs(atom_id), window, tt,
                                 transform)
        return type_name, plan, changed

    def link(self, link_name: str, source_id: int, target_id: int,
             valid_from: Timestamp, tt: Timestamp,
             valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Connect two atoms over the window, maintaining symmetry.

        Both sides are planned before either is touched, so a validation
        failure (missing validity, cardinality) leaves no partial state.
        """
        link = self._link_type_for(link_name, source_id, target_id)
        window = Interval(valid_from, valid_to)
        self._check_cardinality(link, source_id, target_id, window)
        src = self._ref_plan(source_id, ref_key(link_name, OUT), target_id,
                             True, window, tt)
        dst = self._ref_plan(target_id, ref_key(link_name, IN), source_id,
                             True, window, tt)
        undos: List[UndoAction] = []
        self._apply_plan(source_id, src[0], src[1], undos)
        self._apply_plan(target_id, dst[0], dst[1], undos)
        return undos

    def unlink(self, link_name: str, source_id: int, target_id: int,
               valid_from: Timestamp, tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Disconnect two atoms over the window, maintaining symmetry.

        Raises :class:`TemporalUpdateError` — before mutating anything —
        when no reference exists inside the window on either side.
        """
        self._link_type_for(link_name, source_id, target_id)
        window = Interval(valid_from, valid_to)
        src = self._ref_plan(source_id, ref_key(link_name, OUT), target_id,
                             False, window, tt)
        dst = self._ref_plan(target_id, ref_key(link_name, IN), source_id,
                             False, window, tt)
        if not (src[2] or dst[2]):
            raise TemporalUpdateError(
                f"{link_name}: atoms {source_id} and {target_id} are not "
                f"linked inside {window}")
        undos: List[UndoAction] = []
        self._apply_plan(source_id, src[0], src[1], undos)
        self._apply_plan(target_id, dst[0], dst[1], undos)
        return undos

    # ------------------------------------------------------------------
    # Index creation (DDL)
    # ------------------------------------------------------------------

    def create_attribute_index(self, type_name: str,
                               attribute_name: str) -> str:
        """Create and backfill an attribute index."""
        atom_type = self.schema.atom_type(type_name)
        attribute = atom_type.attribute(attribute_name)
        name = self.indexes.create_attribute_index(
            type_name, attribute_name, attribute.data_type.key_width)
        for atom_id, history in iter_histories(
                self.store, self.atoms_of_type(type_name)):
            for stored in history:
                _, version = self._decode(stored)
                value = version.values.get(attribute_name)
                if value is None:
                    continue
                key, _ = attribute.data_type.encode_key(value)
                self.indexes.add_attribute_entry(name, key, atom_id)
        return name

    def create_vt_index(self, type_name: str) -> str:
        """Create and backfill a valid-time (change) index."""
        self.schema.atom_type(type_name)
        name = self.indexes.create_vt_index(type_name)
        for atom_id, history in iter_histories(
                self.store, self.atoms_of_type(type_name)):
            for stored in history:
                self.indexes.add_vt_entry(name, stored.vt_start, atom_id)
        return name

    # ------------------------------------------------------------------
    # Index-assisted candidate selection (used by the planner)
    # ------------------------------------------------------------------

    def candidates_for_equality(self, type_name: str, attribute_name: str,
                                value: Any) -> Optional[List[int]]:
        """Atom candidates for ``type.attr = value``, or ``None`` when no
        index exists.  Candidates must be rechecked at the queried time."""
        index_name = attribute_index_name(type_name, attribute_name)
        if not self.indexes.has_index(index_name):
            return None
        attribute = self.schema.atom_type(type_name).attribute(attribute_name)
        key, _lossy = attribute.data_type.encode_key(value)
        return self.indexes.candidate_atoms_eq(index_name, key)

    def atoms_changed_during(self, type_name: str, start: Timestamp,
                             end: Timestamp) -> Optional[List[int]]:
        """Atoms of the type with a version starting in [start, end)."""
        name = vt_index_name(type_name)
        if not self.indexes.has_index(name):
            return None
        return self.indexes.atoms_changed_during(name, start, end)
