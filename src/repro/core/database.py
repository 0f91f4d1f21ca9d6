"""The public facade: :class:`TemporalDatabase`.

A database lives in one directory::

    <path>/pages.db        the page file
    <path>/catalog.json    the persistent catalog (schema, segments, ...)
    <path>/wal.log         the write-ahead log
    <path>/*.ckpt          checkpoint copies of page file and catalog

Typical use::

    schema = Schema(...)
    db = TemporalDatabase.create("/tmp/cad", schema,
                                 DatabaseConfig(strategy=VersionStrategy.SEPARATED))
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "wheel"}, valid_from=0)
        hub = txn.insert("Component", {"weight": 2.5}, valid_from=0)
        txn.link("contains", part, hub, valid_from=0)
    result = db.query("SELECT ALL FROM Part.contains.Component VALID AT 5")
    db.close()

Durability discipline: operations are logged before being applied
(write-ahead), and **by default the log is fsynced before** ``commit()``
**returns** — concurrent commits share one fsync through the WAL's
group commit, so the cost is amortized across committers.  Setting
``DatabaseConfig(durability="none")`` opts out for benchmarks and bulk
loads: commits are then acknowledged without even flushing the log, and
a crash may lose them.  Checkpoints snapshot the page file and catalog
as one atomic manifest generation; after a crash,
:meth:`TemporalDatabase.open` restores the last checkpoint and replays
committed operations — see :mod:`repro.txn.recovery` and
``docs/durability.md``.

Concurrency discipline: the facade holds a shared-read /
exclusive-write latch (:class:`repro.txn.locks.ReadWriteLock`) around
the in-memory engine.  Any number of threads may run time-slice,
history, and MQL queries in parallel; each mutation, undo, checkpoint,
and DDL call briefly takes the exclusive side.  Transaction-level
conflicts are still ordered by atom-granular two-phase locking.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.access.indexes import IndexManager
from repro.core.builder import MoleculeBuilder
from repro.core.engine import DEFAULT_DECODE_CACHE_BYTES, StorageEngine
from repro.core.molecule import Molecule, MoleculeType
from repro.core.schema import Schema
from repro.core.version import Version
from repro.errors import CatalogError, StorageError, TransactionStateError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.buffer import BufferManager, ReplacementPolicy
from repro.storage.catalog import Catalog
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.disk import DiskManager
from repro.storage.strategies import (
    StorageStats,
    VersionStrategy,
    open_version_store,
)
from repro.temporal import FOREVER, Interval, Timestamp, TransactionClock
from repro.txn.locks import LockManager, LockMode, ReadWriteLock
from repro.txn.manager import Transaction, TransactionManager
from repro.txn.recovery import (
    publish_checkpoint,
    replay_operations,
    restore_checkpoint,
)
from repro.txn.wal import WriteAheadLog

_PAGES_FILE = "pages.db"
_CATALOG_FILE = "catalog.json"
_WAL_FILE = "wal.log"

#: Catalog extras key holding the durable WAL cursors (replicas and CDC
#: subscribers): ``{name: [wal_epoch, kind, acked_lsn]}``.
WAL_CURSORS_KEY = "wal_cursors"


#: Valid values of :attr:`DatabaseConfig.durability`.
DURABILITY_MODES = ("sync", "none")


@dataclass
class DatabaseConfig:
    """Tunable knobs of a database instance.

    ``strategy``, ``page_size`` are fixed at creation; the others may
    differ between opens.

    ``durability`` selects the commit contract:

    * ``"sync"`` (default) — ``commit()`` returns only after its COMMIT
      record is fsynced; concurrent commits share one fsync via group
      commit (disable the sharing with ``group_commit=False`` to get a
      per-commit fsync).
    * ``"none"`` — commits are acknowledged without forcing (or even
      flushing) the log; a crash may silently lose them.  Benchmarks
      and recoverable bulk loads only.

    ``sync_commits`` is the deprecated boolean spelling of the same
    knob; when given it overrides ``durability``.
    """

    strategy: VersionStrategy = VersionStrategy.SEPARATED
    page_size: int = DEFAULT_PAGE_SIZE
    buffer_pages: int = 256
    replacement: ReplacementPolicy = ReplacementPolicy.LRU
    durability: str = "sync"
    group_commit: bool = True
    lock_timeout: float = 10.0
    decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES
    sync_commits: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.sync_commits is not None:
            self.durability = "sync" if self.sync_commits else "none"
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {self.durability!r}")

    @property
    def fsync_on_commit(self) -> bool:
        return self.durability == "sync"


class TransactionContext:
    """User-facing transaction: temporal DML plus reads.

    Mutations acquire exclusive atom locks (strict two-phase), log the
    operation, then apply it; :meth:`commit` forces the log.  Use as a
    context manager — exceptions abort, normal exit commits.
    """

    def __init__(self, db: "TemporalDatabase", txn: Transaction) -> None:
        self._db = db
        self._txn = txn

    @property
    def txn_id(self) -> int:
        return self._txn.txn_id

    @property
    def transaction_time(self) -> Timestamp:
        return self._txn.tt

    # -- mutations -----------------------------------------------------------

    def insert(self, type_name: str, values: Dict[str, Any],
               valid_from: Timestamp, valid_to: Timestamp = FOREVER,
               atom_id: Optional[int] = None) -> int:
        """Create a new atom (or assert new validity for an existing one).

        Passing an existing ``atom_id`` re-opens validity for that atom —
        the new window must not overlap its current validity.  Returns
        the atom identifier.
        """
        if atom_id is None:
            atom_id = self._db._allocate_atom_id()
        self._run({"op": "insert", "type": type_name, "atom_id": atom_id,
                   "values": values, "vf": valid_from, "vt": valid_to,
                   "tt": self._txn.tt},
                  lock_atoms=(atom_id,))
        return atom_id

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: Timestamp,
               valid_to: Timestamp = FOREVER) -> None:
        """Apply attribute changes over [valid_from, valid_to)."""
        self._run({"op": "update", "atom_id": atom_id, "changes": changes,
                   "vf": valid_from, "vt": valid_to, "tt": self._txn.tt},
                  lock_atoms=(atom_id,))

    def delete(self, atom_id: int, valid_from: Timestamp,
               valid_to: Timestamp = FOREVER) -> None:
        """Logically delete the atom over [valid_from, valid_to)."""
        self._run({"op": "delete", "atom_id": atom_id, "vf": valid_from,
                   "vt": valid_to, "tt": self._txn.tt},
                  lock_atoms=(atom_id,))

    def correct(self, atom_id: int, window_start: Timestamp,
                window_end: Timestamp, changes: Dict[str, Any]) -> None:
        """Bitemporal correction of a past validity window."""
        self._run({"op": "correct", "atom_id": atom_id,
                   "ws": window_start, "we": window_end,
                   "changes": changes, "tt": self._txn.tt},
                  lock_atoms=(atom_id,))

    def link(self, link_name: str, source_id: int, target_id: int,
             valid_from: Timestamp, valid_to: Timestamp = FOREVER) -> None:
        """Connect two atoms over the window (symmetric)."""
        self._run({"op": "link", "link": link_name, "src": source_id,
                   "dst": target_id, "vf": valid_from, "vt": valid_to,
                   "tt": self._txn.tt},
                  lock_atoms=(source_id, target_id))

    def unlink(self, link_name: str, source_id: int, target_id: int,
               valid_from: Timestamp,
               valid_to: Timestamp = FOREVER) -> None:
        """Disconnect two atoms over the window (symmetric)."""
        self._run({"op": "unlink", "link": link_name, "src": source_id,
                   "dst": target_id, "vf": valid_from, "vt": valid_to,
                   "tt": self._txn.tt},
                  lock_atoms=(source_id, target_id))

    def _run(self, payload: Dict[str, Any],
             lock_atoms: Tuple[int, ...]) -> None:
        self._txn.require_active()
        db = self._db
        for atom_id in sorted(set(lock_atoms)):
            db._locks.acquire(self._txn.txn_id, ("atom", atom_id),
                              LockMode.EXCLUSIVE)
        db._txn_manager.log_operation(self._txn, payload)
        with db._state_latch.write():
            undos = _apply_with_undo(db.engine, payload)
        for undo in undos:
            self._txn.add_undo(undo)

    # -- reads (see the atom's state as of now, own writes included) -----------

    def version_at(self, atom_id: int, at: Timestamp) -> Optional[Version]:
        with self._db._state_latch.read():
            return self._db.engine.version_at(atom_id, at)

    def history(self, atom_id: int) -> List[Version]:
        with self._db._state_latch.read():
            return self._db.engine.all_versions(atom_id)

    def query(self, text: str):
        """Run an MQL query inside this transaction's view."""
        return self._db.query(text)

    # -- lifecycle ---------------------------------------------------------------

    def commit(self) -> None:
        self._db._flush_indexes()
        self._txn.commit()

    def abort(self) -> None:
        # Index entries are filters, never authorities: flushing the
        # aborted transaction's buffered entries matches the unbatched
        # behaviour (entries were applied eagerly and never undone).
        self._db._flush_indexes()
        self._txn.abort()

    @property
    def is_active(self) -> bool:
        return self._txn.is_active


def _apply_with_undo(engine: StorageEngine,
                     payload: Dict[str, Any]) -> List[Any]:
    """Apply one logged operation and return its undo actions."""
    op = payload["op"]
    tt = payload["tt"]
    if op == "insert":
        return engine.insert(payload["type"], payload["values"],
                             payload["vf"], payload["vt"], tt,
                             payload["atom_id"])
    if op == "update":
        return engine.update(payload["atom_id"], payload["changes"],
                             payload["vf"], tt, payload["vt"])
    if op == "delete":
        return engine.delete(payload["atom_id"], payload["vf"], tt,
                             payload["vt"])
    if op == "correct":
        return engine.correct(payload["atom_id"], payload["ws"],
                              payload["we"], payload["changes"], tt)
    if op == "link":
        return engine.link(payload["link"], payload["src"], payload["dst"],
                           payload["vf"], tt, payload["vt"])
    if op == "unlink":
        return engine.unlink(payload["link"], payload["src"],
                             payload["dst"], payload["vf"], tt,
                             payload["vt"])
    raise TransactionStateError(f"unknown operation {op!r}")


class TemporalDatabase:
    """One temporal complex-object database in a directory."""

    def __init__(self, path: str, schema: Schema, catalog: Catalog,
                 config: DatabaseConfig, *, _fresh: bool) -> None:
        self.path = path
        self.schema = schema
        self.config = config
        self._catalog = catalog
        self._closed = False
        #: Serializes close() against itself: double- and concurrent
        #: close are no-ops after the first one wins.
        self._close_mutex = threading.Lock()
        #: Shared-read / exclusive-write latch over the in-memory engine:
        #: reader threads run queries in parallel, each mutation and
        #: checkpoint briefly excludes them.
        self._state_latch = ReadWriteLock()
        #: Summary of the last crash recovery, or None (set by open()).
        self.last_recovery: Optional[Dict[str, int]] = None
        #: Replication replay watermark.  Zero on a primary; on a replica
        #: the applier keeps it at the last quiescent primary LSN whose
        #: effects are applied, and checkpoint() records *it* as
        #: ``applied_lsn`` instead of the local WAL head — the local log
        #: may hold received-but-unapplied records of open transactions,
        #: which must be replayed (not skipped) after a restart.
        self.replication_applied_lsn = (
            int(catalog.applied_lsn)
            if catalog.extras.get("replica_of") else 0)

        #: One registry per database; every layer below routes its counters
        #: here, and the tracer snapshots it around traced spans.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.metrics)

        self._disk = DiskManager(os.path.join(path, _PAGES_FILE),
                                 page_size=config.page_size,
                                 metrics=self.metrics)
        self.buffer = BufferManager(self._disk, capacity=config.buffer_pages,
                                    policy=config.replacement)
        store_state = catalog.extras.get("store_state") or None
        self.store = open_version_store(config.strategy, self.buffer,
                                        store_state)
        index_state = catalog.extras.get("index_state") or None
        self.indexes = IndexManager(self.buffer, index_state)
        self.engine = StorageEngine(schema, self.store, self.indexes,
                                    decode_cache_bytes=config.decode_cache_bytes)
        self.builder = MoleculeBuilder(self.engine)
        # Compiled-query cache (parse + analysis per normalized text);
        # local import because repro.mql imports the engine above us.
        from repro.mql.planner import PlanCache
        self._plan_cache = PlanCache(metrics=self.metrics)

        self._clock = TransactionClock(catalog.clock)
        self._next_atom_id = catalog.next_atom_id
        self._id_mutex = threading.Lock()
        self._wal = WriteAheadLog(os.path.join(path, _WAL_FILE),
                                  sync_on_commit=config.fsync_on_commit,
                                  metrics=self.metrics,
                                  group_commit=config.group_commit)
        self._locks = LockManager(timeout=config.lock_timeout)
        self._txn_manager = TransactionManager(self._wal, self._locks,
                                               self._clock,
                                               write_guard=self._state_latch)
        # Re-arm the durable WAL cursors, so every process that opens
        # the database keeps the log a registered consumer still needs;
        # cursors of another WAL epoch name a dead log's LSNs.
        for name, (epoch, kind, acked) in (
                catalog.extras.get(WAL_CURSORS_KEY) or {}).items():
            if int(epoch) == self.wal_epoch:
                self._wal.subscribe(name, kind, int(acked))
        self._store_cursors()
        if _fresh:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Creation and opening
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path: str, schema: Schema,
               config: Optional[DatabaseConfig] = None) -> "TemporalDatabase":
        """Create a new database directory; fails if one already exists."""
        config = config or DatabaseConfig()
        os.makedirs(path, exist_ok=True)
        catalog = Catalog(os.path.join(path, _CATALOG_FILE))
        if catalog.exists():
            raise CatalogError(f"database already exists at {path}")
        catalog.schema = schema.to_dict()
        catalog.strategy = config.strategy.value
        catalog.page_size = config.page_size
        return cls(path, schema, catalog, config, _fresh=True)

    @classmethod
    def open(cls, path: str,
             config: Optional[DatabaseConfig] = None) -> "TemporalDatabase":
        """Open an existing database, running crash recovery if needed."""
        catalog = Catalog(os.path.join(path, _CATALOG_FILE))
        catalog.load()
        schema = Schema.from_dict(catalog.schema or {})
        stored_strategy = VersionStrategy(catalog.strategy)
        config = config or DatabaseConfig()
        config.strategy = stored_strategy
        config.page_size = catalog.page_size or config.page_size

        clean = bool(catalog.extras.get("clean_shutdown"))
        wal_path = os.path.join(path, _WAL_FILE)
        needs_replay = not clean and os.path.exists(wal_path)
        if needs_replay:
            # The page image may contain effects of unfinished work: fall
            # back to the checkpoint and replay the committed tail.  Both
            # files come from one manifest generation — never a mix.
            # Except the WAL cursors: registrations and releases are
            # saved to the live catalog, so its copy is the newest.
            cursors = catalog.extras.get(WAL_CURSORS_KEY)
            restore_checkpoint(path, [os.path.join(path, _PAGES_FILE),
                                      os.path.join(path, _CATALOG_FILE)])
            catalog.load()
            if cursors is not None:
                catalog.extras[WAL_CURSORS_KEY] = cursors
            schema = Schema.from_dict(catalog.schema or {})
        db = cls(path, schema, catalog, config, _fresh=False)
        if needs_replay:
            # A replica's local log may end with records of transactions
            # whose COMMITs are still on the primary: replay only up to
            # the last quiescent point, the applier fetches the rest.
            is_replica = bool(catalog.extras.get("replica_of"))
            summary = replay_operations(db.engine, db._wal,
                                        catalog.applied_lsn,
                                        quiescent_only=is_replica)
            db._clock.advance_to(summary["max_tt"] + 1)
            with db._id_mutex:
                db._next_atom_id = max(db._next_atom_id,
                                       summary["max_atom_id"] + 1)
            if is_replica:
                db.replication_applied_lsn = max(
                    db.replication_applied_lsn, summary["quiescent_lsn"])
            db.checkpoint()
            db.last_recovery = summary
        db._mark_dirty()
        return db

    def _mark_dirty(self) -> None:
        """Record that the database is in use (not cleanly shut down)."""
        self._catalog.extras["clean_shutdown"] = False
        self._catalog.save()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> TransactionContext:
        """Start an explicit transaction."""
        self._require_open()
        return TransactionContext(self, self._txn_manager.begin())

    @contextmanager
    def transaction(self) -> Iterator[TransactionContext]:
        """Scoped transaction: commit on success, abort on exception."""
        context = self.begin()
        try:
            yield context
        except BaseException:
            if context.is_active:
                context.abort()
            raise
        if context.is_active:
            context.commit()

    def _allocate_atom_id(self) -> int:
        with self._id_mutex:
            atom_id = self._next_atom_id
            self._next_atom_id += 1
            return atom_id

    # ------------------------------------------------------------------
    # Reads and queries
    # ------------------------------------------------------------------

    def version_at(self, atom_id: int, at: Timestamp,
                   tt: Optional[Timestamp] = None) -> Optional[Version]:
        """The atom's version valid at *at*, as believed at *tt*."""
        with self._read_view():
            return self.engine.version_at(atom_id, at, tt)

    def history(self, atom_id: int) -> List[Version]:
        """The atom's full recorded bitemporal history."""
        with self._read_view():
            return self.engine.all_versions(atom_id)

    def lifespan(self, atom_id: int, tt: Optional[Timestamp] = None):
        """The temporal element over which the atom exists, as believed
        at transaction time *tt* (default: current knowledge)."""
        with self._read_view():
            return self.engine.lifespan(atom_id, tt)

    def molecule_at(self, root_id: int, molecule_type: "str | MoleculeType",
                    at: Timestamp,
                    tt: Optional[Timestamp] = None) -> Optional[Molecule]:
        """Build the molecule rooted at *root_id* valid at instant *at*.

        Holds the shared side of the state latch for the whole build, so
        the returned molecule is a consistent snapshot — a concurrent
        writer cannot interleave between the atom fetches.
        """
        mtype = self._resolve_molecule_type(molecule_type)
        with self._read_view():
            return self.builder.build_at(root_id, mtype, at, tt)

    def molecule_history(self, root_id: int,
                         molecule_type: "str | MoleculeType",
                         window: Interval,
                         tt: Optional[Timestamp] = None
                         ) -> List[Tuple[Interval, Molecule]]:
        """The molecule's coalesced states over *window*."""
        mtype = self._resolve_molecule_type(molecule_type)
        with self._read_view():
            return self.builder.build_history(root_id, mtype, window, tt)

    def molecules_at(self, root_ids: List[int],
                     molecule_type: "str | MoleculeType",
                     at: Timestamp, tt: Optional[Timestamp] = None,
                     parallelism: int = 1) -> List[Molecule]:
        """Build molecules for many roots in one set-oriented pass.

        Duplicate root ids are built once; results come back in input
        order, with roots invalid at the instant dropped.  With
        ``parallelism > 1`` the roots are fanned across a thread pool —
        the whole call holds the shared-read latch, so every worker sees
        the same consistent snapshot, and the result is deterministic
        and identical to the single-threaded mode.
        """
        mtype = self._resolve_molecule_type(molecule_type)
        with self._read_view():
            return self.builder.build_many(root_ids, mtype, at, tt,
                                           parallelism=parallelism)

    def _resolve_molecule_type(
            self, molecule_type: "str | MoleculeType") -> MoleculeType:
        if isinstance(molecule_type, MoleculeType):
            return molecule_type
        return MoleculeType.parse(molecule_type, self.schema)

    def query(self, text: str, params: Optional[Dict[str, Any]] = None):
        """Execute a temporal MQL query; returns a
        :class:`repro.mql.result.QueryResult`.

        ``params`` binds ``$name`` placeholders in the WHERE clause::

            db.query("SELECT ALL FROM Part WHERE Part.name = $n "
                     "VALID AT 5", params={"n": "wheel"})
        """
        from repro.mql import execute_query  # local import: avoids a cycle
        with self._read_view():
            return execute_query(self, text, params)

    def query_stream(self, text: str,
                     params: Optional[Dict[str, Any]] = None,
                     chunk_entries: int = 128):
        """Execute MQL lazily, yielding entries in bounded chunks.

        Returns a :class:`repro.mql.stream.StreamingResult` whose
        ``chunks()`` iterator produces lists of at most *chunk_entries*
        result entries; peak memory is one chunk (plus one root batch),
        not the whole result.  Each chunk is built under the shared
        read latch, which is released between chunks — see the
        consistency contract in :mod:`repro.mql.stream`.
        """
        from repro.mql import execute_query_stream  # local: avoids a cycle
        self._require_open()
        return execute_query_stream(self, text, params,
                                    chunk_entries=chunk_entries)

    def explain(self, text: str, params: Optional[Dict[str, Any]] = None):
        """Execute *text* with per-operator profiling forced on.

        Equivalent to prefixing the query with ``EXPLAIN ANALYZE``; the
        returned result carries a :class:`repro.obs.QueryProfile` in its
        ``profile`` attribute.
        """
        from repro.mql import execute_query  # local import: avoids a cycle
        with self._read_view():
            return execute_query(self, text, params, profile=True)

    def atoms_of_type(self, type_name: str) -> List[int]:
        with self._read_view():
            return list(self.engine.atoms_of_type(type_name))

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_attribute_index(self, type_name: str,
                               attribute_name: str) -> str:
        """Create an attribute index (checkpointed immediately)."""
        self._require_open()
        with self._state_latch.write():
            name = self.engine.create_attribute_index(type_name,
                                                      attribute_name)
        self._plan_cache.clear()
        self.checkpoint()
        return name

    def create_vt_index(self, type_name: str) -> str:
        """Create a valid-time change index (checkpointed immediately)."""
        self._require_open()
        with self._state_latch.write():
            name = self.engine.create_vt_index(type_name)
        self._plan_cache.clear()
        self.checkpoint()
        return name

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush everything and snapshot the page file and catalog.

        The snapshot is published as one atomic manifest generation
        (:func:`repro.txn.recovery.publish_checkpoint`): a crash at any
        point during the checkpoint leaves the previous generation — a
        matching page-file/catalog pair — intact.  After a checkpoint,
        recovery only replays log records newer than it
        (``applied_lsn``).
        """
        self._require_open()
        with self._state_latch.write():
            # Drain buffered index entries first: the flush dirties
            # pages, which must be on disk before the manifest is cut.
            self.indexes.flush_pending()
            self.buffer.flush_all()
            self._disk.sync()
            catalog = self._catalog
            catalog.extras["store_state"] = self.store.persist_state()
            catalog.extras["index_state"] = self.indexes.persist_state()
            self._store_cursors()
            catalog.next_atom_id = self._next_atom_id
            catalog.clock = self._clock.now()
            if catalog.extras.get("replica_of"):
                # Replica: the image contains exactly the applied prefix,
                # not everything received into the local log.
                catalog.applied_lsn = max(catalog.applied_lsn,
                                          self.replication_applied_lsn)
            else:
                catalog.applied_lsn = max(catalog.applied_lsn,
                                          self._wal.next_lsn - 1)
            catalog.save()
            self._publish_checkpoint()

    @property
    def wal_epoch(self) -> int:
        """The WAL epoch: bumped whenever a clean shutdown restarts the
        LSN space, so consumers resuming by LSN detect number reuse."""
        return int(self._catalog.extras.get("wal_epoch", 0))

    def ack_cursor(self, name: str, kind: str, acked_lsn: int) -> None:
        """Register or advance the durable WAL cursor *name* of *kind*
        (``"replica"`` or ``"cdc"``).  A new name is persisted before
        this returns; ack advances ride the next checkpoint (a stale
        persisted ack only retains more log, never less)."""
        if self._wal.subscribe(name, kind, acked_lsn):
            self._save_cursors()

    def release_cursor(self, name: str) -> None:
        """Drop the WAL cursor *name* and its retention hold, durably."""
        if self._wal.release(name):
            self._save_cursors()

    def _store_cursors(self) -> None:
        self._catalog.extras[WAL_CURSORS_KEY] = {
            name: [self.wal_epoch, entry["kind"], int(entry["acked"])]
            for name, entry in self._wal.subscribers().items()}

    def _save_cursors(self) -> None:
        """Save the registry to the live catalog (kept by crash recovery),
        ordered against checkpoints by the exclusive latch."""
        with self._state_latch.write():
            self._store_cursors()
            self._catalog.save()

    def _publish_checkpoint(self) -> None:
        publish_checkpoint(self.path,
                           [os.path.join(self.path, _PAGES_FILE),
                            os.path.join(self.path, _CATALOG_FILE)])

    def close(self) -> None:
        """Checkpoint, truncate the log, and mark a clean shutdown.

        Idempotent and safe to call concurrently with in-flight reads:
        the first caller wins (later and concurrent calls return once it
        finished), and the closed flag flips while holding the exclusive
        side of the state latch — every read running under the shared
        side completes against open files, and reads arriving afterwards
        fail fast with :class:`StorageError` instead of hitting a closed
        file handle.
        """
        with self._close_mutex:
            if self._closed:
                return
            if self._txn_manager.active_transactions():
                raise TransactionStateError(
                    "cannot close with active transactions")
            self.checkpoint()
            # truncate() refuses while a registered cursor still needs
            # the log; the records are kept and the LSN space survives
            # the restart, so the replica can resume where it left off.
            # On a replica, applied_lsn must keep naming the primary's
            # LSN space, so the reset only happens on an unreplicated
            # primary whose log actually emptied.
            truncated = self._wal.truncate()
            if truncated and not self._catalog.extras.get("replica_of"):
                if self._wal.next_lsn > 1:
                    # The LSN space restarts at 1 on the next open; bump
                    # the epoch so a replica resuming from an old LSN
                    # detects the reset instead of silently applying
                    # different records under reused numbers.
                    self._catalog.extras["wal_epoch"] = self.wal_epoch + 1
                self._catalog.applied_lsn = 0
            self._catalog.extras["clean_shutdown"] = True
            self._catalog.save()
            # Republish so the checkpointed catalog also carries the reset
            # applied_lsn — a crash after close() must replay the (empty,
            # restarted) log from LSN 0, not from the pre-truncate LSN.
            self._publish_checkpoint()
            # Drain in-flight readers before invalidating the handles:
            # they hold the shared side, so taking the exclusive side is
            # a barrier, and the flag flips before any new reader can
            # pass the re-check inside _read_view().
            with self._state_latch.write():
                self._closed = True
            self._wal.close()
            self._disk.close()

    def _flush_indexes(self) -> None:
        """Batch-apply index entries buffered by the ending transaction."""
        with self._state_latch.write():
            self.indexes.flush_pending()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("database is closed")

    @contextmanager
    def _read_view(self) -> Iterator[None]:
        """Shared-read latch plus a closed re-check under the latch.

        The early check gives a crisp error without latch traffic; the
        re-check closes the race where close() flips the flag between a
        reader's check and its latch acquisition.
        """
        self._require_open()
        with self._state_latch.read():
            self._require_open()
            yield

    def __enter__(self) -> "TemporalDatabase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection (feeds the benchmark harness)
    # ------------------------------------------------------------------

    def storage_stats(self) -> StorageStats:
        return self.store.stats()

    def io_stats(self) -> Dict[str, Any]:
        """Physical and buffer I/O counters plus log volume.

        .. deprecated:: retained as a thin view over the metrics
           registry (``db.metrics``); prefer :meth:`metrics_snapshot`
           for the full per-layer breakdown.
        """
        metrics = self.metrics
        return {
            "disk_reads": metrics.value("disk.reads"),
            "disk_writes": metrics.value("disk.writes"),
            "buffer_hits": metrics.value("buffer.hits"),
            "buffer_misses": metrics.value("buffer.misses"),
            "buffer_evictions": metrics.value("buffer.evictions"),
            "wal_bytes": self._wal.size_bytes(),
            "file_bytes": self._disk.data_bytes_on_disk(),
        }

    def reset_io_stats(self) -> None:
        """Zero the disk and buffer counters.

        .. deprecated:: equivalent to ``db.metrics.reset("disk.")`` plus
           ``db.metrics.reset("buffer.")``; kept for the benchmark
           harness and older callers.
        """
        self.metrics.reset("disk.")
        self.metrics.reset("buffer.")

    def metrics_snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every metric the kernel has recorded."""
        return self.metrics.snapshot()
