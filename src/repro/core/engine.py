"""The logical operation layer of the temporal engine.

:class:`StorageEngine` binds the version store, the index manager, and
the version codec into the operations the data model defines: temporal
insert, update-from, logical delete, link/unlink, and bitemporal
correction.  Each mutation

1. computes its effect as a pure :class:`~repro.core.history.HistoryPlan`,
2. applies the plan to the version store,
3. maintains the affected indexes, and
4. returns compensating undo actions for transaction rollback.

Stored payloads are self-describing (:class:`~repro.core.codec.
VersionCodec` prefixes each with its atom type id), so any record can
be decoded without consulting a separate atom-to-type map.

The engine is deliberately free of transactions and locks — the database
facade wraps every call in logging and locking.  Live transactions and
recovery/replica replay both turn a logged operation into a mutation
through one dispatch, :meth:`StorageEngine.apply`.

The engine's only per-atom state is its cache entry
(:class:`DecodedVersionCache`): the type name and a slot table, one
slot per cached stored version holding its envelope, payload and its
one decode, made by the first reader that needs it and shared by every
read after, with the canonical JSON fragment a response kept on it
(:meth:`StorageEngine.keep_fragments`) — with
two flags — every stored version has a slot (``whole``), every live
one has (``live_known``).  Every reader that sees a stored version
leaves its slot, and each slot is charged once.
A warm atom is answered without touching the store.  Every point read,
current, ``AS OF`` or pushed down, is one request ``(atom,
at, tt)`` answered by :meth:`StorageEngine.point_reads`, which selects
in one place: a current request bisects the entry's valid-time index
of its live slots, another request on a whole entry is selected
newest-first on the slots' envelopes, and the rest go to the store.
Envelopes carry both valid and transaction time, so no payload is
opened to choose.  Every interval read (history sweeps, ``DIFF``,
``lifespan``) is one :meth:`StorageEngine.all_versions_many` of a
valid x transaction time rectangle, selected on a whole entry's slots.
Each read decodes only what it picks; a pushed-down predicate is
judged on the selected payloads here, and only here.  What the cache
lacks is one store ``read_at_many`` walk, which reads just the records
it selects: a point (instant x :func:`~repro.core.history.belief`) per
cold point read, whole histories for interval reads, everything
believed now for a cold mutation's planning read.  A warm mutation
plans from the entry's live slots and learns its new sequence numbers
from ``append_version``, so it reads nothing from the store first.

Concurrency contract: the read methods (``version_at``, ``all_versions``,
``lifespan``, their ``_many`` forms, ``atoms_of_type``, the candidate
selectors) change nothing but the cache, so any number of threads may
call them concurrently *provided no mutation runs at the same time* —
the facade enforces this with its shared-read / exclusive-write latch,
which is also what keeps a version read from the store consistent until
its slot is cached.  The buffer pool and disk manager below are
internally locked; everything between them and this class is read-pure
on the read paths.  The cache carries its own lock; a cached slot never
changes except its decode, which racing readers may each set to an
equal version (one attribute store, atomic under the GIL).
"""

from __future__ import annotations

import operator
import struct
import threading
from bisect import bisect_right
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
    StoredVersion,
    VersionStore,
    iter_histories,
)
from repro.temporal import FOREVER, TMIN, Interval, TemporalElement, Timestamp

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

#: Fixed accounting overhead (slot object, dict slots, Version object
#: headers) added to each cached version's payload size, and charged
#: once more for each atom's entry itself.
DECODE_CACHE_ENTRY_OVERHEAD = 160

_start = operator.itemgetter(0)

#: A point read: (atom id, valid instant, transaction time); a
#: transaction time of ``None``, or at or past ``FOREVER``, asks for
#: current knowledge.
PointRequest = Tuple[int, Timestamp, Optional[Timestamp]]

_ALWAYS = Interval.always()


class _Slot:
    """One cached stored version and its decode."""

    __slots__ = ("stored", "version", "seq")

    def __init__(self, stored: StoredVersion,
                 version: Optional[Version] = None) -> None:
        #: The envelope plus type-prefixed payload, as the store holds it.
        self.stored = stored
        #: The full decode, once a reader has made it; it carries its
        #: canonical JSON fragment once a response has kept one.
        self.version = version
        #: The slot's seq once an entry holds it (:meth:`_AtomEntry.add`).
        self.seq: Optional[int] = None

    def set_version(self, version: Version) -> Version:
        """Make *version* the full decode, marked with the slot's seq
        (when an entry holds the slot) so a response can keep its
        fragment here."""
        if self.seq is not None:
            object.__setattr__(version, "slot_seq", self.seq)
        self.version = version
        return version


def _slot_cost(slot: _Slot) -> int:
    """The payload, one overhead and the kept fragment, if any."""
    version = slot.version
    fragment = None if version is None else version.fragment
    return (len(slot.stored.payload) + DECODE_CACHE_ENTRY_OVERHEAD
            + (0 if fragment is None else len(fragment)))


class _AtomEntry:
    """Everything the engine knows about one atom: its type name and a
    slot per cached stored version."""

    __slots__ = ("type_name", "slots", "whole", "live_known", "cost",
                 "_live_index")

    def __init__(self) -> None:
        self.type_name: Optional[str] = None
        #: seq -> slot; in seq order once the entry is whole.
        self.slots: Dict[int, _Slot] = {}
        #: Every stored version has a slot.
        self.whole = False
        #: Every live version has a slot.
        self.live_known = False
        self.cost = DECODE_CACHE_ENTRY_OVERHEAD
        #: ``(vt_start, seq)`` of the live slots, sorted; derived from
        #: the slots on first use after one joins.  Live versions are
        #: valid-time disjoint, so a start names one version.
        self._live_index: Optional[List[Tuple[Timestamp, int]]] = []

    def add(self, seq: int, slot: _Slot) -> _Slot:
        """Give *slot* seq *seq* and charge it to the entry."""
        self.slots[seq] = slot
        slot.seq = seq
        if slot.version is not None:
            slot.set_version(slot.version)
        self.cost += _slot_cost(slot)
        if slot.stored.tt_end == FOREVER:
            self._live_index = None  # derived again on next use
        return slot

    def live_at(self, at: Timestamp) -> Optional[int]:
        """The seq of the live slot whose valid time contains *at*."""
        index = self._live_index
        if index is None:
            index = self._live_index = sorted(
                (slot.stored.vt_start, seq)
                for seq, slot in self.slots.items()
                if slot.stored.tt_end == FOREVER)
        position = bisect_right(index, at, key=_start) - 1
        if position < 0:
            return None
        seq = index[position][1]
        return seq if at < self.slots[seq].stored.vt_end else None

    def select_newest_first(self, at: Timestamp,
                            belief: Interval) -> Optional[int]:
        """The seq of the newest slot whose envelope overlaps the point
        *at* x *belief*, on a whole entry: the store's own walk."""
        slots = self.slots
        for seq in range(len(slots) - 1, -1, -1):
            stored = slots[seq].stored
            if (stored.vt_start <= at < stored.vt_end
                    and stored.tt_start < belief.end
                    and belief.start < stored.tt_end):
                return seq
        return None


class DecodedVersionCache:
    """Byte-bounded LRU of what the engine knows about each atom.

    Entries are per atom, so one lock, one LRU order, one byte budget
    and one ``pop`` cover everything.  An entry is a **slot table**:
    ``seq -> slot``, where a slot holds one :class:`StoredVersion`
    (envelope plus type-prefixed payload) and its full decode, made
    once by the first reader that needs it and shared by every later
    read — a time slice of any projection, a pushed-down slice, a
    history sweep alike.  The entry also holds the atom's type name and
    two flags:

    * ``whole`` — every stored version has a slot.  Full-history reads
      set it (:meth:`fill` with ``whole``), so a warm one selects and
      decodes without the store;
    * ``live_known`` — every live version has a slot.  The write path's
      planning read sets it, each forward mutation keeps it, and
      ``whole`` implies it.

    Every reader that sees a stored version leaves its slot: a store hit
    of a point read leaves the one slot it selected, so neither a
    current slice nor an ``AS OF`` point read ever pays for a whole
    history.  Point reads select in one place (:meth:`select`): a
    current request bisects the entry's valid-time index of its live
    slots — derived from the slots, not filled separately — and a miss
    is final when the entry is ``live_known``; any other request is
    selected newest-first on the slots of a ``whole`` entry; the rest go
    to the store.  That is safe by the invalidation rule below: a
    forward mutation keeps only live slots it repaired, and undo,
    vacuum and eviction drop the whole entry, so a cached slot with open
    transaction time is live *now*; and live versions are valid-time
    disjoint, so at most one contains the instant.

    Each slot is charged once, its *encoded payload size* plus a fixed
    overhead, whether or not it holds its decode — the encoded size is
    a faithful, already-known proxy for the decoded footprint — plus the
    length of the fragment kept on its full decode, if any, and each
    entry one overhead for itself.  An entry never grows past the whole
    budget: a fill that would take it there is served uncached (a
    history too large for the budget is read from the store every
    time).  Occupancy is the ``engine.decode_cache.bytes`` gauge.

    Invalidation has one rule.  A sequence number is stable for the
    lifetime of an atom but its *content* changes under
    ``replace_version``/``restamp``/``pop_version``, so:

    * a forward mutation claims the entry (:meth:`invalidate_atom`)
      before the store is touched, so an exception leaves none behind,
      and installs (:meth:`fill`) the type name and the live slots it
      repaired from its plan — atoms never change type while they
      exist;
    * undo, vacuum, eviction and ``clear`` drop the whole entry.  Only
      an undone insert removes an atom, and undo drops its entry.

    A slot never changes except its decode, which racing readers may
    each set to an equal version (one attribute store, atomic under the
    GIL), so readers decode outside the lock.

    A response's version fragments are kept (:meth:`keep_fragments`)
    only on the full decode of a slot the atom's entry holds, checked
    under the lock by the slot's seq, which the decode carries, and by
    identity; each is charged to the entry once, on top of the slot's
    cost, and leaves with the decode — so every rule above that drops
    a slot drops its fragment, and a fragment never outlives the
    content it encodes.

    Thread-safe: concurrent queries hit it under the shared-read latch.
    """

    def __init__(self, capacity_bytes: int, metrics) -> None:
        self._capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._atoms: "OrderedDict[int, _AtomEntry]" = OrderedDict()
        self._bytes = 0
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

    def select(self, requests: List[PointRequest]
               ) -> Tuple[Dict[PointRequest, Optional[Tuple[int, _Slot]]],
                          List[PointRequest]]:
        """The point requests the entries answer, each with its selected
        ``(seq, slot)`` or ``None`` for no state, and the rest."""
        answered: Dict[PointRequest, Optional[Tuple[int, _Slot]]] = {}
        rest: List[PointRequest] = []
        with self._lock:
            atoms = self._atoms
            for request in requests:
                atom_id, at, tt = request
                entry = atoms.get(atom_id)
                if entry is None:
                    rest.append(request)
                    continue
                belief = hist.belief(tt)
                if belief is hist.CURRENT:
                    seq = entry.live_at(at)
                    if seq is None and not entry.live_known:
                        rest.append(request)
                        continue
                elif entry.whole:
                    seq = entry.select_newest_first(at, belief)
                else:
                    rest.append(request)
                    continue
                atoms.move_to_end(atom_id)
                answered[request] = (None if seq is None
                                     else (seq, entry.slots[seq]))
        return answered, rest

    def histories(self, atom_ids: List[int]) -> Dict[int, List[_Slot]]:
        """The slots, in seq order, of the whole entries among
        *atom_ids*; an atom without one counts a history miss."""
        found: Dict[int, List[_Slot]] = {}
        with self._lock:
            atoms = self._atoms
            for atom_id in atom_ids:
                entry = atoms.get(atom_id)
                if entry is not None and entry.whole:
                    atoms.move_to_end(atom_id)
                    found[atom_id] = list(entry.slots.values())
            if found:
                self._c_history_hits.inc(len(found))
            if len(found) < len(atom_ids):
                self._c_history_misses.inc(len(atom_ids) - len(found))
        return found

    def live_slots(self, atom_id: int) -> Optional[Dict[int, _Slot]]:
        """The live slots of a ``live_known`` entry by seq, else None."""
        with self._lock:
            entry = self._atoms.get(atom_id)
            if entry is None or not entry.live_known:
                return None
            self._atoms.move_to_end(atom_id)
            return {seq: slot for seq, slot in entry.slots.items()
                    if slot.stored.tt_end == FOREVER}

    def type_name(self, atom_id: int) -> Optional[str]:
        with self._lock:
            entry = self._atoms.get(atom_id)
            if entry is None:
                return None
            self._atoms.move_to_end(atom_id)
            return entry.type_name

    def fill(self, atom_id: int, type_name: Optional[str],
             slots: Iterable[Tuple[int, _Slot]],
             whole: bool = False, live: bool = False) -> Dict[int, _Slot]:
        """Give the atom's entry (created if absent) its type name and
        each ``(seq, slot)`` whose seq it lacks, keeping the slots it
        has, and mark it ``whole`` (every stored version given) or
        ``live_known`` (every live one).  Returns the entry's slots for
        the given seqs, in the order given.  When the entry would
        outgrow the budget, nothing changes: the given slots come back
        uncached."""
        pairs = list(slots)
        with self._lock:
            entry = self._atoms.get(atom_id)
            held = {} if entry is None else entry.slots
            cost = sum(_slot_cost(slot) for seq, slot in pairs
                       if seq not in held)
            if (DECODE_CACHE_ENTRY_OVERHEAD if entry is None
                    else entry.cost) + cost > self._capacity_bytes:
                return {seq: held.get(seq) or slot for seq, slot in pairs}
            entry = self._entry(atom_id)
            entry.type_name = type_name or entry.type_name
            found = {seq: held.get(seq) or entry.add(seq, slot)
                     for seq, slot in pairs}
            self._bytes += cost
            if whole:
                entry.slots = found  # in seq order from now on
                entry.whole = True
            entry.live_known = entry.live_known or live or whole
            self._evict()
        return found

    def keep_fragments(self, made: List[Tuple[int, Version, bytes]]
                       ) -> None:
        """Keep each ``(atom, version, fragment)`` on its version when
        that version is the full decode of a slot the atom's entry holds
        and has none yet, charging the fragment's length to the entry;
        any other version's fragment is left to its response."""
        charged = 0
        with self._lock:
            atoms = self._atoms
            for atom_id, version, fragment in made:
                entry = atoms.get(atom_id)
                seq = version.slot_seq
                if (entry is None or seq is None
                        or version.fragment is not None):
                    continue
                slot = entry.slots.get(seq)
                if (slot is None or slot.version is not version
                        or entry.cost + len(fragment) > self._capacity_bytes):
                    continue
                object.__setattr__(version, "fragment", fragment)
                entry.cost += len(fragment)
                charged += len(fragment)
            if charged:
                self._bytes += charged
                self._evict()

    def _entry(self, atom_id: int) -> _AtomEntry:
        """The atom's entry, created if absent, as most recently used.
        Caller holds ``_lock``."""
        entry = self._atoms.get(atom_id)
        if entry is None:
            entry = self._atoms[atom_id] = _AtomEntry()
            self._bytes += entry.cost
        else:
            self._atoms.move_to_end(atom_id)
        return entry

    def _evict(self) -> None:
        """Drop least recently used atoms until the budget holds.
        Caller holds ``_lock``."""
        while self._bytes > self._capacity_bytes and self._atoms:
            _, old = self._atoms.popitem(last=False)
            self._bytes -= old.cost
            self._c_evictions.inc()
        self._g_bytes.set(self._bytes)

    def invalidate_atom(self, atom_id: int) -> Optional[_AtomEntry]:
        """Drop the atom's entry and return it: a mutation claims it so,
        before the store is touched, and :meth:`fill` installs the
        repair."""
        with self._lock:
            self._c_invalidations.inc()
            entry = self._atoms.pop(atom_id, None)
            if entry is not None:
                self._bytes -= entry.cost
            self._g_bytes.set(self._bytes)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._atoms.clear()
            self._bytes = 0
            self._g_bytes.set(0)

    def __len__(self) -> int:
        """Number of slots held."""
        with self._lock:
            return sum(len(entry.slots) for entry in self._atoms.values())


class StorageEngine:
    """Logical operations over one version store."""

    def __init__(self, schema: Schema, store: VersionStore,
                 indexes: IndexManager,
                 decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES) -> None:
        self.schema = schema
        self.store = store
        self.indexes = indexes
        self.codec = VersionCodec(schema)
        self.metrics = indexes.metrics
        self._c_version_reads = self.metrics.counter("engine.version_reads")
        self._c_versions_scanned = self.metrics.counter(
            "engine.versions_scanned")
        self._c_mutations = self.metrics.counter("engine.mutations")
        self._c_pushdown_skipped = self.metrics.counter(
            "engine.pushdown.skipped")
        self._decode_cache = DecodedVersionCache(decode_cache_bytes,
                                                 self.metrics)
        self._c_decode_hits = self.metrics.counter("engine.decode_cache.hits")
        self._c_decode_misses = self.metrics.counter(
            "engine.decode_cache.misses")
        self._c_fragment_hits = self.metrics.counter(
            "engine.fragment_cache.hits")
        self._c_fragment_misses = self.metrics.counter(
            "engine.fragment_cache.misses")
        self._c_live_hits = self.metrics.counter("engine.live_set.hits")
        self._c_live_misses = self.metrics.counter("engine.live_set.misses")
        # Monotone replay watermark: recovery/replication skip logged
        # operations at or below this LSN, making re-replay of an
        # overlapping committed range a no-op (see txn.recovery).
        self.applied_replay_lsn = 0

    # ------------------------------------------------------------------
    # VersionReader protocol (used by the molecule builder)
    # ------------------------------------------------------------------

    def _decodes(self, slots: List[_Slot]) -> List[Version]:
        """The decode of each of *slots*, made once and kept on the slot."""
        versions: List[Version] = []
        append = versions.append
        misses = 0
        for slot in slots:
            version = slot.version
            if version is None:
                version = slot.set_version(self.codec.decode(slot.stored)[1])
                misses += 1
            append(version)
        if misses:
            self._c_decode_misses.inc(misses)
        if misses < len(versions):
            self._c_decode_hits.inc(len(versions) - misses)
        return versions

    def keep_fragments(self, made: List[Tuple[int, Version, bytes]],
                       hits: int) -> None:
        """Account one response's atom fragments: *made* lists the
        ``(atom, version, fragment)`` it encoded, *hits* the atom
        occurrences it spliced from a fragment already made.

        A made fragment stays on its version when that version is the
        full decode of a cached slot (:meth:`DecodedVersionCache.
        keep_fragments`), so the next response splices it; it is
        charged to the slot's entry and leaves with the decode.
        Uncached versions' fragments are not kept.
        """
        if hits:
            self._c_fragment_hits.inc(hits)
        if made:
            self._c_fragment_misses.inc(len(made))
            self._decode_cache.keep_fragments(made)

    def invalidate_atom_caches(self, atom_id: int) -> None:
        """Forget everything cached about *atom_id*: its slots, decodes
        and type name.

        Called by undo and by maintenance tools that rewrite the store
        directly (vacuum); a forward mutation keeps the type name and
        repairs the live slots instead (:meth:`_apply_plan`).
        """
        self._decode_cache.invalidate_atom(atom_id)

    def atom_type_name(self, atom_id: int) -> str:
        type_name = self._decode_cache.type_name(atom_id)
        if type_name is None:
            # Unknown atoms raise here: only atoms the store holds ever
            # get an entry with a type name.
            _, stored = self.store.read_current(atom_id)
            type_name = self.codec.type_name(stored.payload)
            self._decode_cache.fill(atom_id, type_name, ())
        return type_name

    def version_at(self, atom_id: int, at: Timestamp,
                   tt: Optional[Timestamp] = None) -> Optional[Version]:
        """The version valid at *at* as believed at *tt* (None = now)."""
        return self.version_at_many([atom_id], at, tt)[atom_id]

    def version_at_many(self, atom_ids: Iterable[int], at: Timestamp,
                        tt: Optional[Timestamp] = None,
                        pred: Optional[Callable[[bytes], bool]] = None
                        ) -> Dict[int, Optional[Version]]:
        """Batched :meth:`version_at`: one result per distinct atom id,
        ``None`` for unknown atoms; the :meth:`point_reads` of every atom
        at one instant."""
        requests = [(atom_id, at, tt) for atom_id in dict.fromkeys(atom_ids)]
        found = self.point_reads(requests, pred)
        return {request[0]: found[request] for request in requests}

    def point_reads(self, requests: Iterable[PointRequest],
                    pred: Optional[Callable[[bytes], bool]] = None
                    ) -> Dict[PointRequest, Optional[Version]]:
        """For each distinct ``(atom, at, tt)`` request, the version
        valid at *at* as believed at *tt* (``None`` = now): one result
        per request, ``None`` for unknown atoms and for no state.

        Each answer is *selected* before anything is decoded, in one
        place: the atom's cache entry answers what it can
        (:meth:`DecodedVersionCache.select` — a current request from its
        live slots, any request from its slots when it holds the whole
        history), and the rest take one batched ``store.read_at_many``
        of their points, which reads only as far back as each answer and
        leaves the one slot it selected.  The belief is
        :func:`~repro.core.history.belief` of *tt*: the live versions for
        ``None`` and any *tt* at or past ``FOREVER``, otherwise those
        whose transaction time contains *tt*.
        The first hit newest-first is the only one: versions believed at
        one transaction time are valid-time disjoint (the invariant
        :func:`~repro.core.history.check_history` checks), so the answer
        equals :func:`repro.core.history.version_at` over the full
        decode.

        *pred* comes from :meth:`compile_pushdown`: it is evaluated on
        each selected payload, cached or read, so a request whose
        version fails it comes back ``None`` without being decoded
        (counted on ``engine.pushdown.skipped``).  Each survivor is its
        slot's one full decode, made by the first read that needs it
        and shared by every read after, whatever the query selects.
        """
        pending = list(dict.fromkeys(requests))
        if not pending:
            return {}
        self._c_version_reads.inc(len({request[0] for request in pending}))
        selected, rest = self._decode_cache.select(pending)
        if rest:
            selected.update(self._read_points(rest))
        result: Dict[PointRequest, Optional[Version]] = {}
        survivors: List[PointRequest] = []
        slots: List[_Slot] = []
        skipped = 0
        for request, hit in selected.items():
            if hit is not None and pred is not None and not pred(
                    hit[1].stored.payload):
                skipped += 1
                hit = None
            if hit is None:
                result[request] = None
            else:
                survivors.append(request)
                slots.append(hit[1])
        result.update(zip(survivors, self._decodes(slots)))
        if skipped:
            self._c_pushdown_skipped.inc(skipped)
        self._c_versions_scanned.inc(len(slots))
        return result

    def _read_points(self, requests: List[PointRequest]
                     ) -> Dict[PointRequest, Optional[Tuple[int, _Slot]]]:
        """*requests* answered by one store ``read_at_many`` of their
        points, each instant x :func:`~repro.core.history.belief` (an
        instant outside the chronon domain holds no version); each
        selected version leaves a slot in its atom's entry."""
        asks = {request: (request[0], Interval.instant(request[1]),
                          hist.belief(request[2]))
                for request in requests if TMIN <= request[1] < FOREVER}
        found = self.store.read_at_many(asks.values())
        hits = {request: found[ask][-1] for request, ask in asks.items()
                if found.get(ask)}
        by_atom: Dict[int, Dict[int, StoredVersion]] = {}
        for request, (seq, stored) in hits.items():
            by_atom.setdefault(request[0], {})[seq] = stored
        slots = {atom_id: self._decode_cache.fill(
                     atom_id, self.codec.type_name(
                         next(iter(stored.values())).payload),
                     [(seq, _Slot(sv)) for seq, sv in stored.items()])
                 for atom_id, stored in by_atom.items()}
        return {request: None if request not in hits
                else (hits[request][0], slots[request[0]][hits[request][0]])
                for request in requests}

    def all_versions(self, atom_id: int, vt: Interval = Interval.always(),
                     tt: Interval = Interval.always()) -> List[Version]:
        """The atom's :meth:`all_versions_many`, by default its full
        recorded history."""
        versions = self.all_versions_many([atom_id], vt, tt).get(atom_id)
        if versions is None:
            raise UnknownAtomError(f"no atom {atom_id}")
        return versions

    def live_pairs(self, atom_id: int) -> List[Tuple[int, Version]]:
        """The atom's live versions as (seq, version), in seq order."""
        return self._pairs(self._live_slots(atom_id))

    def _pairs(self, live: Dict[int, _Slot]) -> List[Tuple[int, Version]]:
        """The ``(seq, version)`` decodes of the slots *live*."""
        return list(zip(live, self._decodes(list(live.values()))))

    def _live_slots(self, atom_id: int) -> Dict[int, _Slot]:
        """The atom's live slots by seq, in seq order.

        Served from the atom's entry when it knows them all; one store
        read of the rectangle believed now otherwise (raising
        :class:`UnknownAtomError` for an unknown atom), whose versions
        join the entry as its live slots.
        This is the planning read for every mutation — closed versions
        are immutable, so revision never needs them — and each mutation
        repairs the live slots from its plan, so update cost stays
        O(live) however long the closed history grows.  The slots hold
        the stored versions a rewrite's undo restores, whether or not
        the cache kept them.  A cold read also names the atom's type, so
        mutations call it before :meth:`atom_type_name` and a cold
        atom's type costs no extra read.
        """
        live = self._decode_cache.live_slots(atom_id)
        if live is not None:
            self._c_live_hits.inc()
        else:
            found = self.store.read_at_many(
                [(atom_id, _ALWAYS, hist.belief())])
            if not found:
                raise UnknownAtomError(f"atom {atom_id} not in store")
            (stored,) = found.values()
            self._c_live_misses.inc()
            self._c_versions_scanned.inc(len(stored))
            live = self._decode_cache.fill(
                atom_id,
                self.codec.type_name(stored[0][1].payload) if stored
                else None,
                [(seq, _Slot(sv)) for seq, sv in stored], live=True)
        return dict(sorted(live.items()))

    def _stored_histories(self, ids: List[int]) -> Dict[int, List[_Slot]]:
        """The slots of the full stored histories of the known atoms
        among *ids*, in input order: whole entries as they are, the rest
        through one batched store read whose results fill their entries.
        Unknown atoms are omitted."""
        found = self._decode_cache.histories(ids)
        if len(found) == len(ids):
            return found
        misses = [atom_id for atom_id in ids if atom_id not in found]
        for (atom_id, _, _), stored in self.store.read_at_many(
                (atom_id, _ALWAYS, _ALWAYS) for atom_id in misses).items():
            found[atom_id] = list(self._decode_cache.fill(
                atom_id, self.codec.type_name(stored[0][1].payload),
                [(seq, _Slot(sv)) for seq, sv in stored],
                whole=True).values())
        return {atom_id: found[atom_id] for atom_id in ids
                if atom_id in found}

    def all_versions_many(self, atom_ids: Iterable[int],
                          vt: Interval = Interval.always(),
                          tt: Interval = Interval.always()
                          ) -> Dict[int, List[Version]]:
        """The versions of each known atom whose envelope overlaps the
        rectangle *vt* x *tt*, in seq order (the defaults give the whole
        history); unknown atoms are *omitted* rather than raising.

        The engine's one interval read.  The slots come from whole cache
        entries or one batched ``read_all_many`` (which fills them), the
        versions are *selected* on their envelopes, and only those are
        decoded.
        """
        result: Dict[int, List[Version]] = {}
        histories = self._stored_histories(list(dict.fromkeys(atom_ids)))
        for atom_id, slots in histories.items():
            picked = [slot for slot in slots
                      if slot.stored.vt_start < vt.end
                      and vt.start < slot.stored.vt_end
                      and slot.stored.tt_start < tt.end
                      and tt.start < slot.stored.tt_end]
            result[atom_id] = self._decodes(picked)
            self._c_versions_scanned.inc(len(picked))
        return result

    def atom_exists(self, atom_id: int) -> bool:
        return self.store.exists(atom_id)

    def atoms_of_type(self, type_name: str) -> Iterator[int]:
        type_id = self.schema.atom_type(type_name).type_id
        return self.indexes.atoms_of_type(type_id)

    def lifespan(self, atom_id: int,
                 tt: Optional[Timestamp] = None) -> TemporalElement:
        """Where the atom exists, as believed at *tt* (None = now),
        decoding only the versions believed then."""
        return TemporalElement(version.vt for version in self.all_versions(
            atom_id, tt=hist.belief(tt)))

    def drop_caches(self) -> None:
        """Forget every cached slot, decode and type name, so the next
        read of anything goes to the store.

        The cold state the paper experiments measure; caches refill on
        use.  Call it with no reader or mutation in flight.
        """
        self._decode_cache.clear()

    # ------------------------------------------------------------------
    # Predicate pushdown (compiled from planner specs)
    # ------------------------------------------------------------------

    def compile_pushdown(self, spec) -> Optional[Callable[[bytes], bool]]:
        """Compile a planner ``PushdownSpec`` against this schema: a
        callable over raw type-prefixed payloads, or ``None`` when the
        spec has no comparisons.

        The predicate is a **necessary condition** for the version to
        survive the query's WHERE (the evaluator still re-filters),
        tuned to say "keep" on anything it cannot cheaply judge:
        foreign type ids and undecodable payloads all pass.
        """
        if not spec.comparisons:
            return None
        return self._compile_payload_predicate(spec.type_name,
                                               spec.comparisons)

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
        self.schema.atom_type(type_name)  # an unknown type raises here
        attrs = tuple(dict.fromkeys(attr for attr, _, _ in comparisons))
        checks = tuple((attr, _PUSHDOWN_OPS[op], literal)
                       for attr, op, literal in comparisons)
        peek = self.codec.peek

        def pred(payload: bytes) -> bool:
            try:
                values = peek(type_name, payload, attrs)
            except (SerializationError, struct.error,
                    KeyError, IndexError):
                return True  # undecodable: let the full path decide
            if values is None:
                return True  # not the pushdown type: never judged here
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

        The histories are read through the cache (and fill it), so the
        sweep that follows for the surviving roots reads none of them
        again.  Each history is judged newest-first and only until
        a version passes, so ``engine.pushdown.skipped`` counts the
        failures actually evaluated: all of a pruned root's versions,
        and for a kept root those newer than its newest passing one.
        """
        ids = list(dict.fromkeys(atom_ids))
        histories = self._stored_histories(ids)
        kept: List[int] = []
        skipped = 0
        for atom_id in ids:
            slots = histories.get(atom_id)
            if slots is None:
                kept.append(atom_id)
                continue
            for slot in reversed(slots):
                if pred(slot.stored.payload):
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
                    plan: hist.HistoryPlan, planned: Dict[int, _Slot],
                    undos: List[UndoAction]) -> None:
        """Apply *plan*, planned from the live slots *planned*, whose
        stored versions are the pre-images its rewrites' undos
        restore."""
        self._c_mutations.inc()
        store = self.store
        # The entry is claimed until the plan lands: any exception leaves
        # none and the next touch rebuilds it from the store.  The plan
        # says exactly how the live slots change: a closed version
        # (closures, stillborn rewrites) leaves them, a live rewrite or
        # append joins them at its seq with the record just encoded, and
        # the untouched ones stay as they are.
        claimed = self._decode_cache.invalidate_atom(atom_id)
        live = {} if claimed is None else {
            seq: slot for seq, slot in claimed.slots.items()
            if slot.stored.tt_end == FOREVER}

        def repair(seq: int, version: Version, stored: StoredVersion) -> None:
            if version.live:
                live[seq] = _Slot(stored, version)
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
            live.pop(seq, None)
        for seq, replacement in plan.rewrites:
            old = planned[seq].stored
            stored = self.codec.encode(type_name, replacement)
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
            stored = self.codec.encode(type_name, version)
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
        if claimed is not None:
            self._decode_cache.fill(atom_id, type_name, sorted(live.items()),
                                    live=claimed.live_known)

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
        self._apply_plan(atom_id, type_name, plan, {}, undos)
        return undos

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: Timestamp, tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Set *changes* over [valid_from, valid_to) (default: onwards)."""
        return self._revise(atom_id, valid_from, valid_to, tt, changes,
                            require_changes=True)

    def delete(self, atom_id: int, valid_from: Timestamp,
               tt: Timestamp,
               valid_to: Timestamp = FOREVER) -> List[UndoAction]:
        """Logically delete: truncate validity inside the window."""
        return self._revise(atom_id, valid_from, valid_to, tt, None)

    def correct(self, atom_id: int, window_start: Timestamp,
                window_end: Timestamp, changes: Dict[str, Any],
                tt: Timestamp) -> List[UndoAction]:
        """Bitemporal correction: rewrite values inside a past window.
        Empty *changes* are accepted, so a logged empty correction
        replays."""
        return self._revise(atom_id, window_start, window_end, tt, changes)

    def _revise(self, atom_id: int, start: Timestamp, end: Timestamp,
                tt: Timestamp, changes: Optional[Dict[str, Any]],
                require_changes: bool = False) -> List[UndoAction]:
        """Revise the atom's state over [start, end): merge *changes*
        into it, or delete it when *changes* is None."""
        live = self._live_slots(atom_id)
        type_name = self.atom_type_name(atom_id)
        checked: Optional[Dict[str, Any]] = None
        if changes is not None:
            checked = self.schema.atom_type(type_name).validate_values(
                changes, partial=True)
            if require_changes and not checked:
                raise TemporalUpdateError("update with no changes")

        def transform(version: Version) -> Optional[Version]:
            if checked is None:
                return None
            return version.with_state({**version.values, **checked},
                                      version.refs)

        plan = hist.revise_pairs(self._pairs(live), Interval(start, end), tt,
                                 transform)
        undos: List[UndoAction] = []
        self._apply_plan(atom_id, type_name, plan, live, undos)
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
                  ) -> Tuple[Tuple[str, hist.HistoryPlan, Dict[int, _Slot]],
                             bool]:
        """Plan adding/removing *partner* in the atom's reference set.

        Pure: nothing is applied.  Returns ((type name, plan, the live
        slots it was planned from), changed).
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
        live = self._live_slots(atom_id)
        plan = hist.revise_pairs(self._pairs(live), window, tt, transform)
        return (type_name, plan, live), changed

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
        src, _ = self._ref_plan(source_id, ref_key(link_name, OUT),
                                target_id, True, window, tt)
        dst, _ = self._ref_plan(target_id, ref_key(link_name, IN), source_id,
                                True, window, tt)
        undos: List[UndoAction] = []
        self._apply_plan(source_id, *src, undos)
        self._apply_plan(target_id, *dst, undos)
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
        src, src_changed = self._ref_plan(
            source_id, ref_key(link_name, OUT), target_id, False, window, tt)
        dst, dst_changed = self._ref_plan(
            target_id, ref_key(link_name, IN), source_id, False, window, tt)
        if not (src_changed or dst_changed):
            raise TemporalUpdateError(
                f"{link_name}: atoms {source_id} and {target_id} are not "
                f"linked inside {window}")
        undos: List[UndoAction] = []
        self._apply_plan(source_id, *src, undos)
        self._apply_plan(target_id, *dst, undos)
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
            for _seq, stored in history:
                _, version = self.codec.decode(stored)
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
            for _seq, stored in history:
                self.indexes.add_vt_entry(name, stored.vt_start, atom_id)
        return name

    # ------------------------------------------------------------------
    # Index-assisted candidate selection (used by the planner)
    # ------------------------------------------------------------------

    def has_attribute_index(self, type_name: str,
                            attribute_name: str) -> bool:
        """Whether the catalog holds an index on ``type.attr``: what the
        planner asks, without probing it."""
        return self.indexes.has_index(attribute_index_name(type_name,
                                                           attribute_name))

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
