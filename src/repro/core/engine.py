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
facade wraps every call in logging and locking; recovery replays logged
operations through the very same methods.

Reads are served through one per-atom cache (:class:`DecodedVersionCache`):
an atom's full stored history, kept once a full-history read
(``all_versions_many``, ``AS OF`` slices, ``prune_roots``) fetched it,
and its decoded versions.  A warm atom is answered without touching the
store — current slices pick the live version from the cached envelopes —
and every mutation touch, undo and external store rewrite drops the
atom's entry (:meth:`StorageEngine.invalidate_atom_caches`).

Concurrency contract: the read methods (``version_at``, ``all_versions``,
``lifespan``, their ``_many`` forms, ``atoms_of_type``, the candidate
selectors) change nothing but the caches, so any number of threads may
call them concurrently *provided no mutation runs at the same time* —
the facade enforces this with its shared-read / exclusive-write latch,
which is also what keeps a history read from the store consistent until
it is cached.  The buffer pool and disk manager below are internally
locked; everything between them and this class is read-pure on the read
paths.  The per-atom cache carries its own lock; a cached
:class:`StoredHistory` never changes except its ``versions`` slot, which
racing readers may each set to an equal tuple (one attribute store,
atomic under the GIL); the type-name map's updates are single-dict
operations, atomic under the GIL.
"""

from __future__ import annotations

import operator
import struct
import threading
from bisect import bisect_right
from collections import OrderedDict
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
    UnknownAtomError,
    UnknownTypeError,
)
from repro.storage.strategies import StoredVersion, VersionStore
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

#: Atoms whose live version set is cached for the write path.  Entries
#: are a handful of decoded versions each (live sets are tiny — one per
#: disjoint valid-time fragment), so the bound is about breadth, not
#: bytes.
_LIVE_SETS_MAX_ATOMS = 65536

#: Fixed per-entry accounting overhead (key tuple, OrderedDict slot,
#: Version object headers) added to each entry's payload size.
DECODE_CACHE_ENTRY_OVERHEAD = 160


class StoredHistory:
    """One atom's full stored history, as a full-history read returns
    it and the cache keeps it."""

    __slots__ = ("stored", "versions", "_live_starts", "_live_seqs")

    def __init__(self, stored: Iterable[StoredVersion]) -> None:
        #: Every stored version (envelope plus payload), in seq order.
        self.stored: Tuple[StoredVersion, ...] = tuple(stored)
        #: The full decode, once a reader has made it: the same Version
        #: objects the atom's decoded entries hold, in seq order, so a
        #: warm full-history read is one lookup.
        self.versions: Optional[Tuple[Version, ...]] = None
        live = sorted((sv.vt_start, seq)
                      for seq, sv in enumerate(self.stored) if sv.live)
        self._live_starts = [start for start, _ in live]
        self._live_seqs = [seq for _, seq in live]

    def live_at(self, at: Timestamp) -> Optional[int]:
        """The seq of the live version whose valid time contains *at*.

        Live versions are valid-time disjoint (the engine's invariant),
        so a bisect over their start points finds the only candidate.
        """
        index = bisect_right(self._live_starts, at) - 1
        if index < 0:
            return None
        seq = self._live_seqs[index]
        return seq if at < self.stored[seq].vt_end else None


class _AtomEntry:
    """Everything the cache holds for one atom."""

    __slots__ = ("history", "decoded", "cost")

    def __init__(self) -> None:
        #: Filled only by full-history reads.
        self.history: Optional[StoredHistory] = None
        #: (seq, cols) -> (type_name, version, charged cost in bytes)
        self.decoded: Dict[Tuple[int, Any], Tuple[str, Version, int]] = {}
        self.cost = 0


class DecodedVersionCache:
    """Byte-bounded LRU of what the engine knows about each atom: its
    stored history and its decoded versions.

    Entries are per atom, so one LRU order, one byte budget and one
    ``pop`` cover both halves:

    * the **stored history** — every :class:`StoredVersion` (envelope
      plus payload bytes) in seq order, filled only by full-history
      reads, so a point slice never pays for a whole history;
    * the **decoded versions**, keyed by ``(seq, cols)`` where ``cols``
      is ``None`` for a full decode and a projection descriptor (the
      attribute tuple plus a refs flag) for a partial one, so a
      projected version can never be returned to a caller expecting the
      full version or vice versa.

    Each stored or decoded version is charged its *encoded payload
    size* plus a fixed overhead — the encoded size is a faithful,
    already-known proxy for the decoded footprint (a partial decode is
    charged the full-payload size, a deliberate overestimate).  A
    decoded version larger than the whole budget, and a history that
    cannot fit together with its decodes, are never cached; such a
    history is served straight from the store every time.  Occupancy is
    the ``engine.decode_cache.bytes`` gauge.

    A sequence number is stable for the lifetime of an atom but its
    *content* changes under ``replace_version``/``pop_version``, so the
    engine drops the whole atom on every mutation touch (including
    undo) and every external store rewrite (vacuum).  Thread-safe:
    parallel molecule builders hit it concurrently under the facade's
    shared-read latch.
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
        cost = nbytes + DECODE_CACHE_ENTRY_OVERHEAD
        if cost > self._capacity_bytes:
            return  # an oversized entry would thrash the whole cache
        with self._lock:
            entry = self._entry(atom_id)
            existing = entry.decoded.get((seq, cols))
            if existing is not None:
                self._charge(entry, -existing[2])
            entry.decoded[(seq, cols)] = (type_name, version, cost)
            self._charge(entry, cost)
            self._evict()

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

    def put_history(self, atom_id: int, history: StoredHistory) -> None:
        """Cache *history*, unless it is oversized: a history that
        cannot fit in the budget together with its decodes (charged the
        same again) is left uncached and served from the store every
        time, rather than evicting itself while it is decoded.

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
            self._charge(entry, cost)
            self._evict()

    def note_decoded_hits(self, count: int) -> None:
        """Count versions served from a history's full decode."""
        self._c_hits.inc(count)

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
            entry = self._atoms.pop(atom_id, None)
            if entry is None:
                return
            self._bytes -= entry.cost
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

    #: The molecule builder probes this before passing pushdown kwargs,
    #: so test doubles implementing the bare VersionReader protocol keep
    #: working unchanged.
    supports_pushdown = True

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
        # The live-set cache: atom id -> {seq: decoded live Version}.
        # Revision planning only reads live versions, and _apply_plan
        # knows exactly how a plan changes the live set, so after one
        # cold read_live an atom's updates plan against this map with no
        # store reads at all — update cost stays O(live) no matter how
        # long the closed history grows.  Dropped (not repaired) on
        # undo and external store rewrites via invalidate_atom_caches.
        self._live_sets: Dict[int, Dict[int, Version]] = {}
        self._c_live_hits = self.metrics.counter("engine.live_set.hits")
        self._c_live_misses = self.metrics.counter("engine.live_set.misses")
        # Monotone replay watermark: recovery/replication skip logged
        # operations at or below this LSN, making re-replay of an
        # overlapping committed range a no-op (see txn.recovery).
        self.applied_replay_lsn = 0
        # Atoms never change type (insert enforces it), so this map only
        # needs invalidation to forget atoms that disappear entirely; it
        # is dropped on every mutation touch anyway for uniformity.
        self._type_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Encoding helpers (type-prefixed payloads)
    # ------------------------------------------------------------------

    def _encode(self, type_name: str, version: Version) -> StoredVersion:
        stored = self.codec.encode(type_name, version)
        prefix = _TYPE_PREFIX.pack(self.schema.atom_type(type_name).type_id)
        return StoredVersion(stored.vt_start, stored.vt_end, stored.live,
                             prefix + stored.payload)

    def _decode(self, stored: StoredVersion) -> Tuple[str, Version]:
        (type_id,) = _TYPE_PREFIX.unpack_from(stored.payload, 0)
        try:
            type_name = self._type_by_id[type_id]
        except KeyError:
            raise UnknownTypeError(
                f"stored record carries unknown type id {type_id}") from None
        body = StoredVersion(stored.vt_start, stored.vt_end, stored.live,
                             stored.payload[_TYPE_PREFIX.size:])
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
                                 stored.live,
                                 stored.payload[_TYPE_PREFIX.size:])
            version = self.codec.decode_partial(type_name, body,
                                                entry[1], entry[2])
        self._decode_cache.put(atom_id, seq, type_name, version,
                               nbytes=len(stored.payload), cols=cols)
        self._type_names.setdefault(atom_id, type_name)
        return type_name, version

    def invalidate_atom_caches(self, atom_id: int) -> None:
        """Forget the cached history, decodes, type name and live set
        of *atom_id*.

        Called on every mutation touch (forward and undo) and by
        maintenance tools that rewrite the store directly (vacuum).
        """
        self._decode_cache.invalidate_atom(atom_id)
        self._type_names.pop(atom_id, None)
        self._live_sets.pop(atom_id, None)

    def atom_type_name(self, atom_id: int) -> str:
        type_name = self._type_names.get(atom_id)
        if type_name is None:
            # Unknown atoms must keep raising exactly as before: the
            # store probe below is the authority, never the map.
            _, stored = self.store.read_current(atom_id)
            (type_id,) = _TYPE_PREFIX.unpack_from(stored.payload, 0)
            type_name = self._type_by_id[type_id]
            self._type_names[atom_id] = type_name
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
        """Batched :meth:`version_at`: one result per distinct atom id.

        Unknown atoms map to ``None``, exactly as ``version_at`` returns
        ``None`` for them.  With *tt* the answer comes from the atoms'
        full histories (:meth:`all_versions_many`, which fills the
        history cache).  Without it, an atom whose history is cached is
        answered from the cached envelopes; the rest go through the
        store's set-oriented ``read_at_many`` in one batch, so directory
        and record pages shared by several atoms are pinned once for the
        whole call.  A point slice never fills the history cache.

        *pred* / *projection* come from :meth:`compile_pushdown`: the
        predicate is evaluated on raw payloads (by the store, or here on
        cached ones), so atoms whose version at *at* fails it come back
        as ``None`` without ever being decoded; the projection makes the
        survivors decode only the attributes the query reads.  Both
        apply only on the current-knowledge path — the planner never
        pushes below an ``AS OF`` query.
        """
        ids = list(dict.fromkeys(atom_ids))
        result: Dict[int, Optional[Version]] = {}
        if not ids:
            return result
        self._c_version_reads.inc(len(ids))
        if tt is not None:
            histories = self.all_versions_many(ids)
            for atom_id in ids:
                versions = histories.get(atom_id)
                result[atom_id] = (None if versions is None
                                   else hist.version_at(versions, at, tt))
            return result
        cached = self._decode_cache.histories(ids)
        hits_by_atom: Dict[int, List[Tuple[int, StoredVersion]]] = {}
        if len(cached) < len(ids):
            misses = [atom_id for atom_id in ids if atom_id not in cached]
            if pred is None:
                # Keep the two-argument call for stores implementing
                # only the original protocol (test doubles, external
                # backends).
                hits_by_atom = self.store.read_at_many(misses, at)
            else:
                hits_by_atom = self.store.read_at_many(misses, at, pred)
        for atom_id, history in cached.items():
            seq = history.live_at(at)
            if seq is None:
                continue
            stored_version = history.stored[seq]
            if pred is not None and not pred(stored_version.payload):
                self._c_pushdown_skipped.inc()
                continue
            hits_by_atom[atom_id] = [(seq, stored_version)]
        for atom_id in ids:
            hits = hits_by_atom.get(atom_id)
            if not hits:
                result[atom_id] = None
                continue
            self._c_versions_scanned.inc(len(hits))
            seq, stored_version = hits[0]
            result[atom_id] = self._decode_cached(
                atom_id, seq, stored_version, projection)[1]
        return result

    def all_versions(self, atom_id: int) -> List[Version]:
        """The atom's full recorded history, in sequence order."""
        versions = self.all_versions_many([atom_id]).get(atom_id)
        if versions is None:
            raise UnknownAtomError(f"no atom {atom_id}")
        return versions

    def live_pairs(self, atom_id: int) -> List[Tuple[int, Version]]:
        """The atom's live versions as (seq, version), in seq order.

        Served from the live-set cache when warm; one store
        ``read_live`` otherwise.  This is the planning read for every
        mutation — closed versions are immutable, so revision never
        needs them.
        """
        cached = self._live_sets.get(atom_id)
        if cached is not None:
            self._c_live_hits.inc()
            return sorted(cached.items())
        if not self.store.exists(atom_id):
            raise UnknownAtomError(f"no atom {atom_id}")
        self._c_live_misses.inc()
        pairs = [(seq, self._decode_cached(atom_id, seq, sv)[1])
                 for seq, sv in self.store.read_live(atom_id)]
        self._c_versions_scanned.inc(len(pairs))
        self._remember_live(atom_id, dict(pairs))
        return pairs

    def _remember_live(self, atom_id: int,
                       live: Dict[int, Version]) -> None:
        cache = self._live_sets
        if len(cache) >= _LIVE_SETS_MAX_ATOMS and atom_id not in cache:
            # FIFO eviction: the bound only guards pathological breadth
            # (bulk loads touching millions of atoms); hot write sets
            # are far smaller and re-enter on their next touch.
            cache.pop(next(iter(cache)))
        cache[atom_id] = live

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
            self._decode_cache.put_history(atom_id, history)
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

    def current_version(self, atom_id: int) -> Version:
        """The newest recorded version (regardless of validity)."""
        if not self.store.exists(atom_id):
            raise UnknownAtomError(f"no atom {atom_id}")
        seq, stored = self.store.read_current(atom_id)
        return self._decode_cached(atom_id, seq, stored)[1]

    def atom_exists(self, atom_id: int) -> bool:
        return self.store.exists(atom_id)

    def atoms_of_type(self, type_name: str) -> Iterator[int]:
        type_id = self.schema.atom_type(type_name).type_id
        return self.indexes.atoms_of_type(type_id)

    def lifespan(self, atom_id: int,
                 tt: Optional[Timestamp] = None):
        return hist.lifespan(self.all_versions(atom_id), tt)

    def drop_caches(self) -> None:
        """Forget every cached history, decoded version, type name and
        live set, so the next read of anything goes to the store.

        The cold state the paper experiments measure; caches refill on
        use.  Call it with no reader or mutation in flight.
        """
        self._decode_cache.clear()
        self._type_names.clear()
        self._live_sets.clear()

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
        them again.  The predicate judges every stored version and counts
        each failure on ``engine.pushdown.skipped``.
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
            passed = sum(1 for sv in history.stored if pred(sv.payload))
            skipped += len(history.stored) - passed
            if passed:
                kept.append(atom_id)
        if skipped:
            self._c_pushdown_skipped.inc(skipped)
        return kept

    # ------------------------------------------------------------------
    # Plan application with index maintenance and undo capture
    # ------------------------------------------------------------------

    def _undo_invalidating(self, atom_id: int,
                           action: UndoAction) -> UndoAction:
        """Wrap an undo so rollback also drops the atom's cached decodes."""
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
        # the cache empty for this atom and the next touch rebuilds it
        # from the store.
        prior_live = self._live_sets.pop(atom_id, None)
        replacements = plan.closures + plan.rewrites
        if replacements:
            originals = store.read_versions(
                atom_id, [seq for seq, _ in replacements])
        for seq, replacement in replacements:
            old = originals[seq]
            store.replace_version(atom_id, seq,
                                  self._encode(type_name, replacement))
            undos.append(self._undo_invalidating(
                atom_id,
                lambda s=seq, o=old: store.replace_version(atom_id, s, o)))
        # Closures only change timestamps, but rewrites carry transformed
        # values the indexes have not seen yet.
        for _seq, replacement in plan.rewrites:
            self._index_version(type_name, atom_id, replacement)
        first_append = not store.exists(atom_id)
        append_base = 0 if first_append else store.version_count(atom_id)
        for version in plan.appends:
            store.append_version(atom_id, self._encode(type_name, version))
            undos.append(self._undo_invalidating(
                atom_id, lambda: store.pop_version(atom_id)))
            self._index_version(type_name, atom_id, version)
        if first_append and plan.appends:
            type_id = self.schema.atom_type(type_name).type_id
            self.indexes.register_atom(type_id, atom_id)
            undos.append(lambda: self.indexes.unregister_atom(type_id,
                                                              atom_id))
        self.invalidate_atom_caches(atom_id)
        if prior_live is not None:
            # The plan states exactly how the live set changed, so the
            # cache is repaired in place instead of rebuilt: closures
            # leave the live set, rewrites stay only while still live
            # (stillborns leave), appends join at their new sequence.
            for seq, _closed in plan.closures:
                prior_live.pop(seq, None)
            for seq, replacement in plan.rewrites:
                if replacement.live:
                    prior_live[seq] = replacement
                else:
                    prior_live.pop(seq, None)
            for offset, version in enumerate(plan.appends):
                if version.live:
                    prior_live[append_base + offset] = version
            self._remember_live(atom_id, prior_live)

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
        exists = self.store.exists(atom_id)
        if exists and self.atom_type_name(atom_id) != type_name:
            raise TemporalUpdateError(
                f"atom {atom_id} already exists with a different type")
        existing_live = self.live_pairs(atom_id) if exists else ()
        plan = hist.insert_plan(checked, {}, window, tt,
                                existing_live=existing_live)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: Timestamp, tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Set *changes* over [valid_from, valid_to) (default: onwards)."""
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

        plan = hist.revise_pairs(self.live_pairs(atom_id), window, tt,
                                 transform)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def delete(self, atom_id: int, valid_from: Timestamp,
               tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Logically delete: truncate validity inside the window."""
        type_name = self.atom_type_name(atom_id)
        window = Interval(valid_from, valid_to)
        plan = hist.revise_pairs(self.live_pairs(atom_id), window, tt,
                                 lambda version: None)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

    def correct(self, atom_id: int, window_start: Timestamp,
                window_end: Timestamp, changes: Dict[str, Any],
                tt: Timestamp) -> List[UndoAction]:
        """Bitemporal correction: rewrite values inside a past window."""
        type_name = self.atom_type_name(atom_id)
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(changes, partial=True)
        window = Interval(window_start, window_end)

        def transform(version: Version) -> Version:
            merged = dict(version.values)
            merged.update(checked)
            return version.with_state(merged, version.refs)

        plan = hist.revise_pairs(self.live_pairs(atom_id), window, tt,
                                 transform)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, undos)
        return undos

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
        for atom_id in self.atoms_of_type(type_name):
            for stored in self.store.read_all(atom_id):
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
        for atom_id in self.atoms_of_type(type_name):
            for stored in self.store.read_all(atom_id):
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
