"""Transaction lifecycle: begin, operate, commit or abort.

The engine applies operations to storage immediately (through the buffer
pool) and registers a compensating *undo action* per operation with the
transaction.  Commit appends the COMMIT record and forces the log up to
it via the WAL's group commit (:meth:`~repro.txn.wal.WriteAheadLog.sync_to`)
— when many transactions commit concurrently they share one ``fsync``.
Abort runs the undo actions in reverse.  Because the on-disk image may
contain effects of uncommitted or unfinished transactions after a crash,
crash recovery never trusts the image directly — it restores the last
checkpoint and replays committed operations from the log
(:mod:`repro.txn.recovery`).

Undo actions mutate engine state, so when the database facade supplies
its shared-read/exclusive-write latch (``write_guard``), abort holds the
exclusive side while compensating — concurrent readers never observe a
half-rolled-back transaction.

Transaction time is assigned at ``begin`` from the logical clock and
recorded in the BEGIN log record so replay stamps identical times.
"""

from __future__ import annotations

import enum
import threading
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.errors import TransactionStateError
from repro.temporal import TransactionClock
from repro.txn.locks import LockManager, ReadWriteLock
from repro.txn.wal import LogRecordType, WriteAheadLog

UndoAction = Callable[[], None]


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"
    #: The commit's fsync failed after its COMMIT record was appended.
    #: The record may be in the log file, where recovery counts it, so
    #: the transaction is neither durable nor undoable: it ends as is.
    IN_DOUBT = "in doubt"


class Transaction:
    """One unit of work; created by :class:`TransactionManager.begin`."""

    def __init__(self, txn_id: int, tt: int,
                 manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self.tt = tt
        self._manager = manager
        self._state = TxnState.ACTIVE
        self._undo: List[UndoAction] = []
        self.operations_logged = 0

    @property
    def state(self) -> TxnState:
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state is TxnState.ACTIVE

    def require_active(self) -> None:
        if self._state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self._state.value}")

    def add_undo(self, action: UndoAction) -> None:
        """Register a compensating action, run in reverse order on abort."""
        self.require_active()
        self._undo.append(action)

    # Lifecycle is driven through the manager so logging, locking, and
    # state stay consistent.

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)


class TransactionManager:
    """Creates transactions and drives their commit/abort protocol."""

    def __init__(self, wal: WriteAheadLog, locks: LockManager,
                 clock: TransactionClock,
                 write_guard: Optional[ReadWriteLock] = None) -> None:
        self._wal = wal
        self.locks = locks
        self._clock = clock
        self._write_guard = write_guard
        self._mutex = threading.Lock()
        self._next_txn_id = 1
        self._active: Dict[int, Transaction] = {}
        self.metrics = wal.metrics
        self._c_begins = self.metrics.counter("txn.begins")
        self._c_commits = self.metrics.counter("txn.commits")
        self._c_aborts = self.metrics.counter("txn.aborts")
        self._c_operations = self.metrics.counter("txn.operations")

    # -- lifecycle ------------------------------------------------------------

    def begin(self) -> Transaction:
        with self._mutex:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
        tt = self._clock.tick()
        self._c_begins.inc()
        txn = Transaction(txn_id, tt, self)
        self._wal.append(LogRecordType.BEGIN, txn_id, {"tt": tt})
        with self._mutex:
            self._active[txn_id] = txn
        return txn

    def log_operation(self, txn: Transaction,
                      payload: Dict[str, Any]) -> int:
        """Log one operation of *txn* once the engine has applied it,
        so only accepted operations reach the log.  Recovery replays
        the log onto the last checkpoint and never reads the page file,
        so an operation applied but not yet logged is lost with a crash
        exactly like one not applied."""
        txn.require_active()
        lsn = self._wal.append(LogRecordType.OPERATION, txn.txn_id, payload)
        txn.operations_logged += 1
        self._c_operations.inc()
        return lsn

    def commit(self, txn: Transaction) -> None:
        """Force-log the commit (group commit), then release the locks.

        When :meth:`commit` returns under the default durability mode,
        the COMMIT record has been fsynced — possibly by another
        committing thread's fsync that covered this transaction's LSN.
        When the force fails the transaction ends :attr:`TxnState.
        IN_DOUBT` and the error propagates: no undo runs and no ABORT
        record follows, since recovery would redo a COMMIT that reached
        the file whatever came after it.
        """
        txn.require_active()
        commit_lsn = self._wal.append(LogRecordType.COMMIT, txn.txn_id)
        try:
            self._wal.sync_to(commit_lsn)
        except BaseException:
            self._end(txn, TxnState.IN_DOUBT)
            raise
        self._c_commits.inc()
        self._end(txn, TxnState.COMMITTED)

    def abort(self, txn: Transaction) -> None:
        """Undo applied operations in reverse, log the abort, release."""
        txn.require_active()
        guard: ContextManager[Any] = (self._write_guard.write()
                                      if self._write_guard is not None
                                      else nullcontext())
        with guard:
            for action in reversed(txn._undo):
                action()
        self._wal.append(LogRecordType.ABORT, txn.txn_id)
        self._wal.flush(sync=False)
        self._c_aborts.inc()
        self._end(txn, TxnState.ABORTED)

    def _end(self, txn: Transaction, state: TxnState) -> None:
        """Give *txn* its final *state* and release what it holds."""
        txn._state = state
        self.locks.release_all(txn.txn_id)
        with self._mutex:
            self._active.pop(txn.txn_id, None)

    # -- introspection ------------------------------------------------------------

    def active_transactions(self) -> List[int]:
        with self._mutex:
            return sorted(self._active)

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal
