"""Write-ahead log: append-only logical operation log with group commit.

The engine follows a *logical redo* discipline: every operation of a
transaction is logged as a self-contained, deterministic description
(operation name, atom ids, values, timestamps), and the log is forced at
commit.  Recovery replays the committed operations newer than the last
checkpoint against the checkpointed database image — see
:mod:`repro.txn.recovery`.

Commit forcing uses **group commit**: a committing thread calls
:meth:`WriteAheadLog.sync_to` with the LSN of its COMMIT record; the
first such thread becomes the *leader*, flushes and ``fsync``\\ s the
file once, and every thread whose LSN that single fsync covered returns
without issuing its own.  Under N concurrent committers the fsync cost
is amortized across the batch (``wal.group_commits`` counts fsync
rounds, ``wal.commit_batch_size`` records how many commits each round
made durable, and ``wal.fsyncs`` therefore stays well below
``txn.commits``).

When the log is opened with ``sync_on_commit=False`` (the facade's
``durability="none"``), :meth:`sync_to` is a no-op: records may sit in
the process's user-space buffer, and even a plain process kill can lose
acknowledged commits.  That mode exists for benchmarks and bulk loads
only.

Record wire format::

    [lsn:8][type:1][txn_id:8][payload_len:4][crc32:4][payload: JSON bytes]

The CRC covers the header fields and the payload, so a torn write at the
tail (the only corruption a crash can produce on an append-only file) is
detected and the log is cut there.  Payloads are canonical JSON
(:func:`repro.canonical.encode_payload`; older logs spell non-ASCII text
as ``\\u`` escapes, which read back equal) for debuggability; the volume
overhead is measured, not hidden (R-F5 reports log bytes per update).
"""

from __future__ import annotations

import enum
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.canonical import encode_payload
from repro.errors import WALError
from repro.obs import MetricsRegistry

_HEADER = struct.Struct("<BQII")  # type, txn_id, payload_len, crc
_LSN = struct.Struct("<Q")

#: Sparse LSN->byte-offset marks: one every this many appended bytes.
#: Readers binary-search the marks and seek instead of scanning from
#: byte zero — the difference between O(batch) and O(log) per
#: replication poll and per replica replay slice.
_MARK_INTERVAL_BYTES = 16 * 1024


class LogRecordType(enum.Enum):
    BEGIN = 1
    OPERATION = 2
    COMMIT = 3
    ABORT = 4
    CHECKPOINT = 5


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One decoded log record."""

    lsn: int
    type: LogRecordType
    txn_id: int
    payload: Dict[str, Any]


def _scan_raw(handle: Any, offset: int
              ) -> Iterator[tuple[int, int, int, int, bytes]]:
    """Yield ``(offset, lsn, type_value, txn_id, body)`` for each valid
    record from *offset*; stop at a torn or corrupt tail."""
    while True:
        prefix = handle.read(_LSN.size + _HEADER.size)
        if len(prefix) < _LSN.size + _HEADER.size:
            return
        (lsn,) = _LSN.unpack_from(prefix, 0)
        type_value, txn_id, length, crc = _HEADER.unpack_from(
            prefix, _LSN.size)
        body = handle.read(length)
        if len(body) < length:
            return  # torn tail
        check_header = _HEADER.pack(type_value, txn_id, length, 0)
        if zlib.crc32(_LSN.pack(lsn) + check_header + body) != crc:
            return  # torn or corrupt tail
        yield offset, lsn, type_value, txn_id, body
        offset += _LSN.size + _HEADER.size + length


class WriteAheadLog:
    """Append-only log file with LSN addressing and CRC validation.

    LSNs are 1-based sequence numbers (not byte offsets), monotonically
    increasing across the log's lifetime.
    """

    def __init__(self, path: str | os.PathLike[str],
                 sync_on_commit: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 group_commit: bool = True,
                 group_window: float = 0.003) -> None:
        self._path = os.fspath(path)
        self._sync_on_commit = sync_on_commit
        self._group_commit = group_commit
        self._group_window = group_window
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_appends = self.metrics.counter("wal.appends")
        self._c_bytes = self.metrics.counter("wal.bytes")
        self._c_fsyncs = self.metrics.counter("wal.fsyncs")
        self._c_group_commits = self.metrics.counter("wal.group_commits")
        self._h_batch_size = self.metrics.histogram("wal.commit_batch_size")
        self._g_retained = self.metrics.gauge("wal.retention_held_bytes")
        # WAL cursor registry: name -> {"kind": "replica" | "cdc",
        # "acked": lsn, "last_seen": monotonic}, guarded by _subs_lock.
        # Both kinds hold retention alike.  The database persists the
        # registry in its catalog and re-arms it here on open.
        self._subs_lock = threading.Lock()
        self._cursors: Dict[str, Dict[str, Any]] = {}
        # Group-commit state: guarded by _commit_cv's lock, never by _lock.
        self._commit_cv = threading.Condition(threading.Lock())
        self._durable_lsn = 0
        self._sync_leader_active = False
        # Set when a commit fsync fails.  The kernel may have dropped the
        # dirty pages it could not write, so a retried fsync can succeed
        # without the records ever reaching the disk: the log is
        # unusable until the database is reopened (and recovery rereads
        # what actually survived).
        self._fsync_failure: Optional[OSError] = None
        self._pending_syncs: List[int] = []
        # True when the last group showed concurrent commit load; gates
        # the leader's straggler window so solo committers never wait.
        self._group_had_company = False
        self._file = open(self._path, "ab+")
        # Sparse seek index over the append-only file: ascending
        # (lsn, byte offset) marks, guarded by _lock.  _tail_offset is
        # the offset one past the last valid record — maintained at
        # append time, re-derived by the open() scan.
        self._marks: List[tuple[int, int]] = []
        self._tail_offset = 0
        self._bytes_since_mark = 0
        self._c_seek_hits = self.metrics.counter("wal.read_seek_hits")
        self._next_lsn = self._recover_next_lsn()
        # Records recovered from the file are readable now; one fsync
        # pins them to stable storage, so the durable floor can start at
        # the head (a restarted primary must report the surviving
        # records shippable immediately, not after the next commit).
        if self._next_lsn > 1 and self._sync_on_commit:
            os.fsync(self._file.fileno())
        self._durable_lsn = self._next_lsn - 1

    def _recover_next_lsn(self) -> int:
        """Scan the existing file once: find the next LSN, build the
        seek marks, and cut any torn tail so append offsets stay exact
        (the file is opened with ``O_APPEND`` — new records land at the
        physical end, which must be the end of the last valid record)."""
        last = 0
        self._file.flush()
        with open(self._path, "rb") as handle:
            for offset, lsn, _type, _txn, body in _scan_raw(handle, 0):
                self._note_offset(lsn,
                                  _LSN.size + _HEADER.size + len(body))
                last = lsn
        size = os.fstat(self._file.fileno()).st_size
        if size > self._tail_offset:
            self._file.truncate(self._tail_offset)
            self._file.flush()
        return last + 1

    def _note_offset(self, lsn: int, record_bytes: int) -> None:
        """Record a sparse (lsn, offset) mark; caller holds ``_lock``
        (or is the single-threaded open scan)."""
        if not self._marks or self._bytes_since_mark >= _MARK_INTERVAL_BYTES:
            self._marks.append((lsn, self._tail_offset))
            self._bytes_since_mark = 0
        self._tail_offset += record_bytes
        self._bytes_since_mark += record_bytes

    def _seek_hint(self, target_lsn: int) -> int:
        """Byte offset of the rightmost mark at or below *target_lsn*;
        0 when no mark qualifies.  Caller holds ``_lock``."""
        lo, hi, best = 0, len(self._marks) - 1, 0
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._marks[mid][0] <= target_lsn:
                best = self._marks[mid][1]
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    @property
    def path(self) -> str:
        return self._path

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def size_bytes(self) -> int:
        self._file.flush()
        return os.path.getsize(self._path)

    # -- writing ------------------------------------------------------------

    def append(self, record_type: LogRecordType, txn_id: int,
               payload: Optional[Dict[str, Any]] = None) -> int:
        """Append one record; returns its LSN.  Does not force."""
        body = encode_payload(payload or {})
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._write_record(lsn, record_type.value, txn_id, body)
            return lsn

    def _write_record(self, lsn: int, type_value: int, txn_id: int,
                      body: bytes) -> None:
        """Frame one record (LSN, header, CRC over both and the body),
        mark its offset and write it.  Caller holds ``_lock``."""
        header = _HEADER.pack(type_value, txn_id, len(body), 0)
        crc = zlib.crc32(_LSN.pack(lsn) + header + body)
        header = _HEADER.pack(type_value, txn_id, len(body), crc)
        record = _LSN.pack(lsn) + header + body
        self._note_offset(lsn, len(record))
        self._file.write(record)
        self._c_appends.inc()
        self._c_bytes.inc(len(record))

    def append_shipped(self, lsn: int, type_value: int, txn_id: int,
                       payload: Dict[str, Any]) -> bool:
        """Append a record shipped from a primary, preserving its LSN.

        Replicas write the primary's records verbatim into their own log
        so the two LSN spaces stay aligned and the standard recovery path
        works unchanged after a replica crash.  Returns ``True`` when the
        record was appended, ``False`` when it was already present (a
        reconnecting replica may re-request an overlapping range).  A
        non-contiguous LSN on a non-empty log is a stream gap — the
        replica missed records the primary has already truncated — and
        raises :class:`~repro.errors.WALError`.
        """
        LogRecordType(type_value)  # validate before writing
        body = encode_payload(payload)
        with self._lock:
            if lsn != self._next_lsn:
                self._file.flush()
                empty = os.fstat(self._file.fileno()).st_size == 0
                if empty:
                    # Fresh or freshly-truncated log: adopt the stream
                    # position (the checkpoint image covers everything
                    # before it).
                    self._next_lsn = lsn
                elif lsn < self._next_lsn:
                    return False  # duplicate from an overlapping re-request
                else:
                    raise WALError(
                        f"replication stream gap: expected lsn "
                        f"{self._next_lsn}, got {lsn}")
            self._next_lsn = lsn + 1
            self._write_record(lsn, type_value, txn_id, body)
        # A shipped record is shippable onward immediately — no fsync
        # barrier.  The durability rationale behind shippable_lsn does
        # not apply here: this log is a verbatim LSN-aligned copy of the
        # upstream's, so a crash that cuts the tail is healed by
        # re-fetching the *same bytes*; the LSNs can never be reassigned
        # to different records.  That makes cascading chains (primary ->
        # replica -> replica) work without per-record syncs.
        with self._commit_cv:
            self._durable_lsn = max(self._durable_lsn, lsn)
            self._commit_cv.notify_all()
        return True

    def flush(self, sync: Optional[bool] = None) -> None:
        """Flush buffered records to the OS; optionally force to disk.

        ``sync`` overrides the log's configured ``sync_on_commit``
        default: ``flush(sync=True)`` always fsyncs, ``flush(sync=False)``
        never does, and ``flush()`` follows the configuration.
        """
        force = self._sync_on_commit if sync is None else sync
        with self._lock:
            self._file.flush()
            if force:
                os.fsync(self._file.fileno())
                self._c_fsyncs.inc()

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known to have reached stable storage via
        :meth:`sync_to` (0 before the first group commit)."""
        with self._commit_cv:
            return self._durable_lsn

    def sync_to(self, lsn: int) -> None:
        """Make every record up to *lsn* durable (the commit force point).

        With ``sync_on_commit=False`` this is a no-op — the facade's
        ``durability="none"`` contract is that acknowledged commits may
        be lost.  Otherwise the calling thread either joins an
        in-flight group commit (waiting until a leader's fsync covers
        its LSN) or becomes the leader itself and fsyncs once for every
        queued committer.  With ``group_commit=False`` each caller
        fsyncs individually (the per-commit-fsync baseline benchmarks
        compare against).
        """
        if not self._sync_on_commit:
            return
        if not self._group_commit:
            with self._commit_cv:
                self._raise_if_poisoned()
            try:
                self.flush(sync=True)
            except OSError as exc:
                raise self._poison(exc) from exc
            with self._commit_cv:
                self._durable_lsn = max(self._durable_lsn, lsn)
            return
        with self._commit_cv:
            self._raise_if_poisoned()
            if lsn <= self._durable_lsn:
                return
            self._pending_syncs.append(lsn)
            while True:
                self._raise_if_poisoned()
                if lsn <= self._durable_lsn:
                    return
                if not self._sync_leader_active:
                    self._sync_leader_active = True
                    break
                self._commit_cv.wait()
        # Leader path: one flush+fsync covers every record appended so
        # far, including commits that queued while we were elected.  The
        # fsync deliberately runs *outside* the append lock: the flush
        # fixed which bytes the fsync makes durable, and keeping appends
        # unblocked during the device flush is what lets the next batch
        # form while this one syncs.
        synced = False
        try:
            # Straggler window (PostgreSQL's commit_delay idea): when the
            # previous round had company, concurrent committers are mid
            # flight right now — a short wait lets them append their
            # COMMIT records and ride this fsync instead of paying their
            # own.  Solo committers skip it entirely.
            if self._group_window > 0:
                with self._commit_cv:
                    company = (self._group_had_company
                               or len(self._pending_syncs) > 1)
                if company:
                    time.sleep(self._group_window)
            with self._lock:
                target = self._next_lsn - 1
                self._file.flush()
                fd = self._file.fileno()
            os.fsync(fd)
            self._c_fsyncs.inc()
            synced = True
        except OSError as exc:
            # Poison before the finally wakes anyone: every waiter, this
            # leader included, must fail rather than be told its commit
            # is durable.
            raise self._poison(exc) from exc
        finally:
            with self._commit_cv:
                if synced:
                    served = [p for p in self._pending_syncs if p <= target]
                    self._pending_syncs = [p for p in self._pending_syncs
                                           if p > target]
                    self._durable_lsn = max(self._durable_lsn, target)
                    self._c_group_commits.inc()
                    self._h_batch_size.observe(len(served))
                    self._group_had_company = (len(served) > 1
                                               or bool(self._pending_syncs))
                self._sync_leader_active = False
                self._commit_cv.notify_all()

    def _poison(self, exc: OSError) -> WALError:
        with self._commit_cv:
            self._fsync_failure = exc
        return WALError(f"WAL fsync failed: {exc}")

    def _raise_if_poisoned(self) -> None:
        """Caller holds ``_commit_cv``."""
        if self._fsync_failure is not None:
            raise WALError(
                "WAL is unusable after a failed fsync; reopen the database "
                f"(cause: {self._fsync_failure})")

    @property
    def shippable_lsn(self) -> int:
        """Highest LSN safe to ship to a replica.

        With ``sync_on_commit=True`` only durable records ship: a crash
        can cut the non-durable tail and reassign those LSNs to different
        records, which would silently diverge any replica that applied
        the originals.  With ``durability="none"`` the primary has no
        durability floor to honor, so everything appended ships.
        """
        if self._sync_on_commit:
            return self.durable_lsn
        with self._lock:
            return self._next_lsn - 1

    def wait_for_shippable(self, lsn: int, timeout: float) -> int:
        """Block until :attr:`shippable_lsn` reaches *lsn* or *timeout*
        elapses; returns the current shippable head either way.

        Group-commit fsyncs notify ``_commit_cv``, so the common case
        wakes promptly; the poll interval only bounds the wait under
        ``durability="none"`` where nothing notifies.
        """
        deadline = time.monotonic() + timeout
        head = self.shippable_lsn
        while head < lsn:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._commit_cv:
                self._commit_cv.wait(min(remaining, 0.05))
            head = self.shippable_lsn
        return head

    # -- WAL cursors ---------------------------------------------------------

    def subscribe(self, name: str, kind: str, acked_lsn: int = 0) -> bool:
        """Register (or refresh) the named cursor of *kind* (``"replica"``
        or ``"cdc"``) and advance its acked LSN (monotone); returns
        whether the name is new.  While the acked LSN trails the head,
        :meth:`truncate` refuses — the retention guard that keeps a
        lagging consumer's resume point readable.
        """
        with self._subs_lock:
            entry = self._cursors.get(name)
            created = entry is None
            if created:
                entry = self._cursors[name] = {
                    "kind": kind, "acked": 0, "last_seen": 0.0}
            elif entry["kind"] != kind:
                raise WALError(f"cursor {name!r} is registered as a "
                               f"{entry['kind']} cursor, not {kind}")
            entry["acked"] = max(entry["acked"], acked_lsn)
            entry["last_seen"] = time.monotonic()
        self._update_retention_gauge()
        return created

    def ack(self, name: str, lsn: int) -> None:
        """Advance a registered cursor's acked LSN (monotone)."""
        self.subscribe(name, self._cursors[name]["kind"], lsn)

    def release(self, name: str) -> bool:
        """Drop a cursor, releasing its retention hold; returns whether
        it was registered."""
        with self._subs_lock:
            released = self._cursors.pop(name, None) is not None
        self._update_retention_gauge()
        return released

    def subscribers(self, kind: Optional[str] = None
                    ) -> Dict[str, Dict[str, Any]]:
        """Snapshot of the cursor registry, optionally of one kind."""
        with self._subs_lock:
            return {name: dict(entry)
                    for name, entry in self._cursors.items()
                    if kind is None or entry["kind"] == kind}

    def min_acked_lsn(self) -> Optional[int]:
        """The slowest cursor's acked LSN across both kinds (replicas
        and CDC consumers), or ``None`` without cursors."""
        with self._subs_lock:
            acks = [int(entry["acked"]) for entry in self._cursors.values()]
        return min(acks) if acks else None

    def held_bytes(self, acked_lsn: int) -> int:
        """Approximate log bytes a subscriber acked at *acked_lsn* pins.

        Computed from the sparse seek marks: tail offset minus the mark
        at or below the subscriber's resume point (``acked + 1``), so the
        figure can overstate by up to one mark interval (16 KiB) — good
        enough for the monitoring surfaces it feeds.
        """
        with self._lock:
            if acked_lsn >= self._next_lsn - 1:
                return 0
            return max(0, self._tail_offset - self._seek_hint(acked_lsn + 1))

    def _update_retention_gauge(self) -> None:
        floor = self.min_acked_lsn()
        held = (floor is not None and floor < self._next_lsn - 1)
        self._g_retained.set(self.size_bytes() if held else 0)

    # -- reading --------------------------------------------------------------

    def read_all(self, after_lsn: int = 0) -> Iterator[LogRecord]:
        """Yield valid records with ``lsn > after_lsn``; stop at a torn tail.

        A record that fails its CRC or is truncated ends the iteration —
        by the write-ahead discipline everything after it is garbage from
        an interrupted append.
        """
        with self._lock:
            self._file.flush()
            # Seek to the mark at or below the first wanted LSN instead
            # of scanning from byte zero.  Marks are exact record
            # boundaries recorded at append time; a concurrent truncate
            # makes the hint point past the end, which reads as a torn
            # tail and ends the iteration (same as the pre-existing
            # scan-during-truncate race).
            start = self._seek_hint(after_lsn + 1)
        if start:
            self._c_seek_hits.inc()
        with open(self._path, "rb") as handle:
            handle.seek(start)
            for _offset, lsn, type_value, txn_id, body in _scan_raw(
                    handle, start):
                if lsn <= after_lsn:
                    continue
                try:
                    record_type = LogRecordType(type_value)
                    payload = json.loads(body)
                except (ValueError, json.JSONDecodeError) as exc:
                    raise WALError(
                        f"undecodable log record at lsn {lsn}") from exc
                yield LogRecord(lsn, record_type, txn_id, payload)

    def read_records_from(self, from_lsn: int,
                          upto_lsn: Optional[int] = None
                          ) -> Iterator[LogRecord]:
        """Yield records with ``from_lsn <= lsn <= upto_lsn`` in order.

        The replication read path.  Raises :class:`WALError` when the
        log no longer contains *from_lsn* (truncated past the request):
        the caller must bootstrap the replica from a fresh checkpoint
        copy instead of resuming.  That includes a log emptied by
        :meth:`truncate` while *from_lsn* is at or below *upto_lsn* —
        the caller's flushed head, so a concurrent append never reads
        as a truncation.  Like :meth:`read_all`, the scan takes the
        append lock only to flush, so shipping never blocks writers.
        """
        if from_lsn < 1:
            raise WALError(f"from_lsn must be >= 1, got {from_lsn}")
        first = True
        for record in self.read_all(after_lsn=from_lsn - 1):
            if first and record.lsn > from_lsn:
                raise WALError(
                    f"records before lsn {record.lsn} have been "
                    f"truncated; cannot resume from lsn {from_lsn}")
            first = False
            if upto_lsn is not None and record.lsn > upto_lsn:
                return
            yield record
        if first and upto_lsn is not None and from_lsn <= upto_lsn:
            raise WALError(
                f"records up to lsn {upto_lsn} have been truncated; "
                f"cannot resume from lsn {from_lsn}")

    # -- maintenance ------------------------------------------------------------

    def truncate(self) -> bool:
        """Discard the log (after a checkpoint made it redundant).

        Returns ``False`` without touching the file when a registered
        cursor's acked LSN still trails the head — truncating would
        destroy its resume point.  The ``wal.retention_held_bytes``
        gauge shows the bytes the slowest cursor is pinning.
        """
        floor = self.min_acked_lsn()
        if floor is not None and floor < self._next_lsn - 1:
            self._update_retention_gauge()
            return False
        with self._lock:
            self._file.seek(0)
            self._file.truncate()
            self._file.flush()
            os.fsync(self._file.fileno())
            self._c_fsyncs.inc()
            truncated_at = self._next_lsn - 1
            self._marks.clear()
            self._tail_offset = 0
            self._bytes_since_mark = 0
        with self._commit_cv:
            # An empty log is trivially durable up to its last LSN.
            self._durable_lsn = max(self._durable_lsn, truncated_at)
        self._update_retention_gauge()
        return True

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
