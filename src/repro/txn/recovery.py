"""Crash recovery: checkpoint restore plus committed-operation replay.

The engine applies operations to buffered pages immediately, and the
buffer pool may write pages of uncommitted transactions to disk (a
*steal* policy), so after a crash the page file is not trustworthy.
Recovery therefore never reads it:

1. the page file and catalog are restored from the last checkpoint;
2. the write-ahead log is scanned once to find committed transactions
   newer than the checkpoint (``applied_lsn``);
3. their OPERATION records are replayed, in LSN order, through the same
   engine methods that executed them originally — operations are logged
   with every input (including assigned atom ids and transaction times),
   so replay is deterministic.

Two-phase locking ordered conflicting operations at run time, so LSN
order is a valid serialization order.

A checkpoint consists of *several* files (the page file and the
catalog) that must be restored **as a pair**: the catalog's
``applied_lsn`` says which log prefix the page image already contains,
so mixing a new page copy with an old catalog copy (or vice versa)
would double-apply or skip operations.  Checkpoints are therefore
published atomically through a generation **manifest**: every file is
first staged as ``<file>.ckpt.<generation>`` and fsynced, then a small
JSON manifest naming the complete generation is atomically renamed
into place (``ckpt.manifest``).  A crash at any point mid-checkpoint
leaves the manifest pointing at the previous, complete generation.
``create`` publishes the first generation, so every database that can
need replay has a manifest; restoring without one is an error.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from repro.errors import RecoveryError
from repro.txn.wal import LogRecord, LogRecordType, WriteAheadLog

if TYPE_CHECKING:  # the engine package imports this one at runtime
    from repro.core.engine import StorageEngine

#: File-name suffix of checkpoint copies.
CHECKPOINT_SUFFIX = ".ckpt"

#: Name of the checkpoint manifest inside a database directory.
MANIFEST_FILE = "ckpt.manifest"


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_directory(directory: str) -> None:
    """Force directory metadata (renames, new files) to disk."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """The current checkpoint manifest, or ``None`` (fresh dir)."""
    path = os.path.join(directory, MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"unreadable checkpoint manifest {path}") from exc
    if not isinstance(manifest, dict) or "files" not in manifest:
        raise RecoveryError(f"malformed checkpoint manifest {path}")
    return manifest


def publish_checkpoint(directory: str, paths: List[str]) -> int:
    """Atomically publish a checkpoint generation covering *paths*.

    Every file is staged as ``<file>.ckpt.<gen>`` and fsynced before the
    manifest rename makes the generation current — a crash anywhere in
    between leaves the previous generation intact.  Returns the new
    generation number.
    """
    manifest = read_manifest(directory)
    generation = int(manifest["generation"]) + 1 if manifest else 1
    files: Dict[str, str] = {}
    for path in paths:
        base = os.path.basename(path)
        staged = os.path.join(directory,
                              f"{base}{CHECKPOINT_SUFFIX}.{generation}")
        temp = staged + ".tmp"
        shutil.copyfile(path, temp)
        _fsync_file(temp)
        os.replace(temp, staged)
        files[base] = os.path.basename(staged)
    manifest_tmp = os.path.join(directory, MANIFEST_FILE + ".tmp")
    with open(manifest_tmp, "w", encoding="utf-8") as handle:
        json.dump({"generation": generation, "files": files}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(manifest_tmp, os.path.join(directory, MANIFEST_FILE))
    _fsync_directory(directory)
    _cleanup_stale_generations(directory, generation)
    return generation


def _cleanup_stale_generations(directory: str, current: int) -> None:
    """Delete checkpoint files of superseded generations (best effort)."""
    marker = CHECKPOINT_SUFFIX + "."
    for name in os.listdir(directory):
        head, sep, tail = name.rpartition(marker)
        if not sep or not head:
            continue
        generation_text = tail[:-4] if tail.endswith(".tmp") else tail
        if generation_text.isdigit() and int(generation_text) != current:
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass


def restore_checkpoint(directory: str, paths: List[str]) -> None:
    """Overwrite *paths* with their copies from the current checkpoint
    generation.

    Raises :class:`RecoveryError` before touching any file when the
    directory has no manifest, or the manifest lacks one of *paths*.
    """
    manifest = read_manifest(directory)
    if manifest is None:
        raise RecoveryError(
            f"cannot restore: no checkpoint manifest "
            f"{os.path.join(directory, MANIFEST_FILE)}")
    files = manifest["files"]
    sources = []
    for path in paths:
        base = os.path.basename(path)
        source_name = files.get(base)
        if source_name is None:
            raise RecoveryError(
                f"checkpoint manifest has no copy of {base}")
        source = os.path.join(directory, source_name)
        if not os.path.exists(source):
            raise RecoveryError(f"missing checkpoint file {source}")
        sources.append(source)
    for source, path in zip(sources, paths):
        shutil.copyfile(source, path)


def _scan_commit_state(wal: WriteAheadLog, after_lsn: int,
                       upto_lsn: Optional[int],
                       records: Optional[List[LogRecord]] = None
                       ) -> tuple[Set[int], int, int]:
    """One log pass: committed txn ids, last quiescent LSN, last LSN.

    A LSN is *quiescent* when no transaction's records straddle it —
    every BEGIN seen so far has its COMMIT/ABORT at or before it.
    Replication replays only ranges with quiescent endpoints, which is
    what makes the monotone ``applied_replay_lsn`` idempotence guard
    sound: within such a range every committed transaction is complete.

    When *records* is given it is used instead of re-reading the log
    file — appliers pass the batch they just received, so the scan is
    pure in-memory work.
    """
    committed: Set[int] = set()
    open_txns: Set[int] = set()
    quiescent = after_lsn
    last = after_lsn
    source = wal.read_all(after_lsn) if records is None else records
    for record in source:
        if record.lsn <= after_lsn:
            continue
        if upto_lsn is not None and record.lsn > upto_lsn:
            break
        if record.type is LogRecordType.BEGIN:
            open_txns.add(record.txn_id)
        elif record.type is LogRecordType.COMMIT:
            open_txns.discard(record.txn_id)
            committed.add(record.txn_id)
        elif record.type is LogRecordType.ABORT:
            open_txns.discard(record.txn_id)
        last = record.lsn
        if not open_txns:
            quiescent = record.lsn
    return committed, quiescent, last


def replay_operations(engine: "StorageEngine", wal: WriteAheadLog,
                      after_lsn: int,
                      upto_lsn: Optional[int] = None,
                      quiescent_only: bool = False,
                      records: Optional[List[LogRecord]] = None
                      ) -> Dict[str, int]:
    """Replay committed operations newer than *after_lsn*.

    *upto_lsn* bounds the replay (inclusive) — replication appliers
    replay the log in quiescent-bounded slices as records arrive.
    *quiescent_only* further clamps the bound to the last quiescent LSN
    in range: a replica recovering from a crash must not replay past
    the point where transactions are still open in its local log,
    because their COMMIT records may yet arrive from the primary.

    *records*, when given, must be the decoded records covering
    ``(after_lsn, upto_lsn]`` in LSN order (extra records outside the
    range are ignored).  Appliers pass the batch they just streamed so
    replay never re-reads or re-decodes the log file — the file pass
    both here and in the commit-state scan is what made per-batch
    replay O(log) instead of O(batch), and it happens while holding
    the database's exclusive latch.

    Replay is idempotent across calls: the engine carries a monotone
    ``applied_replay_lsn`` watermark and operations at or below it are
    skipped, so a replica that reconnects and re-requests an
    overlapping committed range applies nothing twice.

    Returns summary counters: operations replayed, transactions
    recovered, the highest transaction time seen, the highest atom id
    assigned (the caller advances the clock and the id allocator past
    these), and the quiescent LSN the replay stopped honoring.
    """
    metrics = engine.metrics
    c_replayed = metrics.counter("recovery.records_replayed")
    c_transactions = metrics.counter("recovery.transactions")
    committed, quiescent, _ = _scan_commit_state(wal, after_lsn, upto_lsn,
                                                 records)
    bound = upto_lsn
    if quiescent_only:
        # A txn committed beyond the quiescent bound cannot have an
        # OPERATION at or below it (it would have been open at the
        # bound), so the superset of committed ids stays correct.
        bound = quiescent if bound is None else min(bound, quiescent)
    c_transactions.inc(len(committed))
    guard = engine.applied_replay_lsn
    replayed = 0
    max_tt = -1
    max_atom_id = 0
    source = wal.read_all(after_lsn) if records is None else records
    for record in source:
        if record.lsn <= after_lsn:
            continue
        if bound is not None and record.lsn > bound:
            break
        if record.type is LogRecordType.BEGIN:
            max_tt = max(max_tt, int(record.payload.get("tt", -1)))
            continue
        if record.type is not LogRecordType.OPERATION:
            continue
        if record.txn_id not in committed:
            continue
        if record.lsn <= guard:
            continue  # already applied by an earlier replay
        payload = record.payload
        try:
            engine.apply(payload)
        except Exception as exc:  # noqa: BLE001 - wrap any replay failure
            raise RecoveryError(
                f"replay of {payload.get('op')!r} failed: {exc}") from exc
        max_atom_id = max(max_atom_id, _atom_id_of(payload))
        max_tt = max(max_tt, int(payload.get("tt", -1)))
        engine.applied_replay_lsn = record.lsn
        replayed += 1
        c_replayed.inc()
    return {"operations": replayed, "transactions": len(committed),
            "max_tt": max_tt, "max_atom_id": max_atom_id,
            "quiescent_lsn": quiescent}


def _atom_id_of(payload: Dict[str, Any]) -> int:
    """The highest atom id a logged operation touched."""
    if payload["op"] in ("link", "unlink"):
        return max(int(payload["src"]), int(payload["dst"]))
    return int(payload["atom_id"])
