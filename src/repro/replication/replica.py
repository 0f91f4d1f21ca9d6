"""Replica-side log shipping: fetch, persist, replay, expose watermarks.

One :class:`ReplicaApplier` drives a read-only replica database.  Its
loop long-polls ``WAL_STREAM`` batches from the primary, appends each
record verbatim into the replica's *own* WAL (the LSN spaces stay
aligned, so a crashed replica recovers through the ordinary
``TemporalDatabase.open`` path), and replays **quiescent-bounded**
slices — ranges whose endpoints no transaction's records straddle —
through the standard :func:`~repro.txn.recovery.replay_operations`.
Quiescent endpoints are what make the engine's monotone
``applied_replay_lsn`` idempotence guard sound: within such a slice
every committed transaction is complete, so re-replaying an overlapping
range after a reconnect applies nothing twice.

Watermarks:

* ``applied_lsn`` — last quiescent primary LSN whose effects are
  applied; everything at or below it is queryable.
* ``replayed_tt`` — the transaction-time watermark: ``AS OF T`` queries
  with ``T <= replayed_tt`` answer exactly as the primary did when it
  stood at ``applied_lsn``.  (Like the primary itself, a long-running
  transaction with an older assigned time can later make data visible
  "in the past" — retroactive visibility is a property of the
  bitemporal model, not of replication.)
* durable watermark — ``catalog.applied_lsn``, advanced by periodic
  checkpoints; this is what the replica *acks* to the primary, because
  it is the point a crashed replica actually resumes from.  Acking the
  volatile watermark could let the primary truncate records a restarted
  replica still needs.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, Optional, Set

from repro.errors import (
    ConnectionClosedError,
    ProtocolError,
    RecoveryError,
    RemoteError,
    ReplicationError,
    WALError,
)
from repro.txn.recovery import replay_operations
from repro.txn.wal import LogRecord, LogRecordType

#: Reconnect backoff bounds (seconds).
_BACKOFF_BASE = 0.2
_BACKOFF_CAP = 5.0

#: Backoff after a fatal stream error (e.g. the primary truncated our
#: resume point) — retried slowly so an operator sees it in STATS
#: without the loop hammering the primary.
_FATAL_RETRY = 10.0

#: Cap on the in-memory pending-record buffer (records received but not
#: yet applied, kept decoded so replay never re-reads the log file).  A
#: pathologically long-open primary transaction could grow it without
#: bound; past the cap the applier falls back to file-based replay.
_MAX_PENDING_RECORDS = 65536


class ReplicaApplier:
    """Continuously replays a primary's WAL into a local database."""

    def __init__(self, db: Any, primary_host: str, primary_port: int,
                 replica_id: Optional[str] = None,
                 batch_records: int = 512,
                 wait_ms: int = 250,
                 checkpoint_interval: float = 5.0,
                 apply_interval: float = 0.05,
                 client_factory: Any = None) -> None:
        self.db = db
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.batch_records = batch_records
        self.wait_ms = wait_ms
        self.checkpoint_interval = checkpoint_interval
        # Replay pacing: applying every tiny batch takes the exclusive
        # latch in back-to-back holds that convoy read queries (the
        # latch is writer-preferring).  Deferring up to apply_interval
        # seconds coalesces the stream into one larger hold with clear
        # air between holds; an idle stream applies immediately, so the
        # added lag is bounded by the interval under load and ~zero at
        # the tail of a burst.
        self.apply_interval = apply_interval
        self._client_factory = client_factory
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._client: Any = None

        extras = db._catalog.extras
        if replica_id:
            self.replica_id = replica_id
        else:
            # Persist a generated identity so a restarted replica keeps
            # its subscription (and retention hold) on the primary.
            self.replica_id = (extras.get("replica_id")
                               or f"replica-{uuid.uuid4().hex[:8]}")
        extras["replica_id"] = self.replica_id
        extras["replica_of"] = f"{primary_host}:{primary_port}"
        # The expected primary WAL epoch: seeded from the bootstrap
        # copy's own catalog (the copy *is* the primary's state), then
        # pinned.  A mismatch on the stream means the primary's LSN
        # space restarted — resuming would apply different records
        # under reused numbers, so the applier faults instead.
        if "primary_epoch" not in extras:
            extras["primary_epoch"] = int(extras.get("wal_epoch", 0))
            # The bootstrap copy inherited the primary's durable WAL
            # cursors; they name the primary's consumers, not ours.
            for name in db._wal.subscribers():
                db.release_cursor(name)
        self._expected_epoch = int(extras["primary_epoch"])
        # Checkpointed, not just saved: crash recovery restores the
        # checkpointed catalog, and must not lose this identity.
        db.checkpoint()

        # Resume points.  catalog.applied_lsn is the durable watermark;
        # replication_applied_lsn was seeded from it when the replica
        # marker was already present at open().  The local WAL may hold
        # records beyond it (received before a crash, not yet applied).
        self.applied_lsn = max(int(db.replication_applied_lsn),
                               int(db._catalog.applied_lsn),
                               int(db.engine.applied_replay_lsn))
        db.replication_applied_lsn = self.applied_lsn
        self.received_lsn = max(self.applied_lsn, db._wal.next_lsn - 1)
        self.replayed_tt = db._clock.now() - 1
        self.connected = False
        self.caught_up = False
        self.reconnects = 0
        self.last_error: Optional[str] = None
        self._last_caught_up = time.monotonic()
        self._last_checkpoint = time.monotonic()
        self._last_apply = 0.0
        self._deferred_quiescent = 0
        self._checkpointed_lsn = int(db._catalog.applied_lsn)

        # Decoded records covering (applied_lsn, received_lsn], kept
        # strictly contiguous from applied_lsn + 1 so replay can run
        # from memory instead of re-reading the log file under the
        # exclusive latch.  Emptied (file fallback) whenever contiguity
        # cannot be proven — e.g. right after a restart.
        self._pending: list[LogRecord] = []
        # Open-transaction set over (applied_lsn, received_lsn]; rebuilt
        # from the local log so the first quiescent point after a
        # restart is computed correctly.
        self._open_txns: Set[int] = set()
        self._startup_quiescent = self.applied_lsn
        for record in db._wal.read_all(after_lsn=self.applied_lsn):
            self._track(record.type.value, record.txn_id)
            if not self._open_txns:
                self._startup_quiescent = record.lsn

        metrics = db.metrics
        self._g_applied = metrics.gauge("replication.replayed_lsn")
        self._g_received = metrics.gauge("replication.received_lsn")
        self._g_tt = metrics.gauge("replication.replayed_tt")
        self._g_lag = metrics.gauge("replication.lag_seconds")
        self._c_batches = metrics.counter("replication.batches")
        self._c_records = metrics.counter("replication.records_received")
        self._c_reconnects = metrics.counter("replication.reconnects")
        self._g_applied.set(self.applied_lsn)
        self._g_received.set(self.received_lsn)
        self._g_tt.set(self.replayed_tt)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run,
                                        name="replica-applier",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._close_client()

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        if self._startup_quiescent > self.applied_lsn:
            # Records already in the local log (received before the last
            # shutdown) that form a complete slice: apply them before
            # asking the primary for more.
            self._apply_upto(self._startup_quiescent)
        backoff = _BACKOFF_BASE
        while not self._stop.is_set():
            try:
                if self._client is None:
                    self._client = self._connect()
                    self.connected = True
                    self.last_error = None
                    backoff = _BACKOFF_BASE
                body = self._client.wal_stream(
                    from_lsn=self.received_lsn + 1,
                    max_records=self.batch_records,
                    wait_ms=self.wait_ms,
                    replica=self.replica_id,
                    ack_lsn=int(self.db._catalog.applied_lsn))
                self._ingest(body)
                self._maybe_checkpoint()
            except (ConnectionClosedError, ProtocolError, OSError) as exc:
                self._on_disconnect(exc)
                if self._stop.wait(backoff):
                    break
                backoff = min(_BACKOFF_CAP, backoff * 2)
            except RemoteError as exc:
                if exc.transient:
                    self._on_disconnect(exc)
                    if self._stop.wait(backoff):
                        break
                    backoff = min(_BACKOFF_CAP, backoff * 2)
                    continue
                # Non-transient server answer: most likely our resume
                # point was truncated (fresh bootstrap needed).  Keep
                # the loop alive but slow, so STATS shows the fault.
                self._on_disconnect(exc)
                if self._stop.wait(_FATAL_RETRY):
                    break
            except (ReplicationError, WALError, RecoveryError) as exc:
                self._on_disconnect(exc)
                if self._stop.wait(_FATAL_RETRY):
                    break
        self.connected = False

    def _connect(self) -> Any:
        if self._client_factory is not None:
            return self._client_factory()
        from repro.server.client import DatabaseClient
        return DatabaseClient(self.primary_host, self.primary_port,
                              max_retries=0)

    def _close_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except (OSError, ProtocolError, ConnectionClosedError):
                pass

    def _on_disconnect(self, exc: Exception) -> None:
        self.connected = False
        self.caught_up = False
        self.last_error = f"{type(exc).__name__}: {exc}"
        self.reconnects += 1
        self._c_reconnects.inc()
        self._close_client()

    # -- ingestion -----------------------------------------------------------

    def _track(self, type_value: int, txn_id: int) -> None:
        if type_value == LogRecordType.BEGIN.value:
            self._open_txns.add(txn_id)
        elif type_value in (LogRecordType.COMMIT.value,
                            LogRecordType.ABORT.value):
            self._open_txns.discard(txn_id)

    def _ingest(self, body: Dict[str, Any]) -> None:
        epoch = body.get("epoch", self._expected_epoch)
        if int(epoch) != self._expected_epoch:
            raise ReplicationError(
                f"primary WAL epoch changed ({self._expected_epoch} -> "
                f"{epoch}): the log was reset and LSNs are reused; "
                f"re-bootstrap this replica from a fresh copy")
        records = body.get("records") or []
        quiescent = None
        wal = self.db._wal
        for lsn, type_value, txn_id, payload in records:
            lsn = int(lsn)
            type_value = int(type_value)
            txn_id = int(txn_id)
            wal.append_shipped(lsn, type_value, txn_id, payload)
            self._buffer_record(lsn, type_value, txn_id, payload)
            self._track(type_value, txn_id)
            self.received_lsn = max(self.received_lsn, lsn)
            if not self._open_txns:
                quiescent = lsn
        if records:
            wal.flush(sync=False)
            self._c_batches.inc()
            self._c_records.inc(len(records))
            self._g_received.set(self.received_lsn)
        if quiescent is not None:
            self._deferred_quiescent = max(self._deferred_quiescent,
                                           quiescent)
        if self._deferred_quiescent > self.applied_lsn:
            now = time.monotonic()
            if (not records
                    or now - self._last_apply >= self.apply_interval
                    or len(self._pending) >= self.batch_records):
                self._apply_upto(self._deferred_quiescent)
                self._last_apply = now
        head = int(body.get("head", self.received_lsn))
        self.caught_up = (self.received_lsn >= head
                          and self.applied_lsn == self.received_lsn)
        now = time.monotonic()
        if self.caught_up:
            self._last_caught_up = now
            self._g_lag.set(0.0)
        else:
            self._g_lag.set(round(now - self._last_caught_up, 3))

    def _buffer_record(self, lsn: int, type_value: int, txn_id: int,
                       payload: Dict[str, Any]) -> None:
        """Keep the decoded record for in-memory replay, preserving the
        invariant that ``_pending`` is contiguous from applied_lsn + 1."""
        if lsn <= self.applied_lsn:
            return
        if self._pending:
            if lsn <= self._pending[-1].lsn:
                return  # duplicate from an overlapping re-request
            if (lsn != self._pending[-1].lsn + 1
                    or len(self._pending) >= _MAX_PENDING_RECORDS):
                self._pending.clear()  # gap or cap: fall back to file
        if self._pending or lsn == self.applied_lsn + 1:
            self._pending.append(LogRecord(lsn, LogRecordType(type_value),
                                           txn_id, payload))

    def _apply_upto(self, quiescent: int) -> None:
        db = self.db
        records = None
        if (self._pending
                and self._pending[0].lsn == self.applied_lsn + 1
                and self._pending[-1].lsn >= quiescent):
            records = self._pending
        with db._state_latch.write():
            summary = replay_operations(db.engine, db._wal,
                                        self.applied_lsn,
                                        upto_lsn=quiescent,
                                        records=records)
            db._clock.advance_to(summary["max_tt"] + 1)
            with db._id_mutex:
                db._next_atom_id = max(db._next_atom_id,
                                       summary["max_atom_id"] + 1)
            # A replica never commits local transactions, so nothing
            # else drains the index managers' write-behind buffers;
            # without this flush every query-side probe merges an
            # ever-growing pending set.
            db.indexes.flush_pending()
        self.applied_lsn = quiescent
        db.replication_applied_lsn = quiescent
        self._pending = [record for record in self._pending
                         if record.lsn > quiescent]
        if summary["max_tt"] >= 0:
            self.replayed_tt = max(self.replayed_tt, summary["max_tt"])
        self._g_applied.set(self.applied_lsn)
        self._g_tt.set(self.replayed_tt)

    def _maybe_checkpoint(self) -> None:
        """Advance the durable watermark (and ack) every
        ``checkpoint_interval`` seconds of applied progress."""
        now = time.monotonic()
        if now - self._last_checkpoint < self.checkpoint_interval:
            return
        if self.applied_lsn <= self._checkpointed_lsn:
            self._last_checkpoint = now
            return
        self.db.checkpoint()
        self._checkpointed_lsn = int(self.db._catalog.applied_lsn)
        # Only drop the local log when nothing received is unapplied:
        # truncation discards the file, and re-requesting the tail would
        # collide with the in-memory LSN cursor.
        if self.received_lsn == self.applied_lsn:
            self.db._wal.truncate()
        self._last_checkpoint = now

    # -- observability -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Replication block for HELLO/PING/STATS on the replica."""
        lag = (0.0 if self.caught_up
               else round(time.monotonic() - self._last_caught_up, 3))
        return {
            "role": "replica",
            "primary": f"{self.primary_host}:{self.primary_port}",
            "replica_id": self.replica_id,
            "replayed_lsn": self.applied_lsn,
            "received_lsn": self.received_lsn,
            "durable_lsn": int(self.db._catalog.applied_lsn),
            "replayed_tt": self.replayed_tt,
            "lag_seconds": lag,
            "connected": self.connected,
            "caught_up": self.caught_up,
            "reconnects": self.reconnects,
            "last_error": self.last_error,
        }
