"""R-F5 — Log volume and recovery time vs. update count.

Loads N update transactions after the last checkpoint, simulates a
crash, and measures (a) the write-ahead log volume those updates
produced and (b) the time to recover (checkpoint restore + committed
replay).  Both should scale linearly in the number of logged
operations — the property that makes checkpoint frequency a pure
throughput/restart-time trade.
"""

import shutil

import pytest

from benchmarks._util import emit, header
from repro import DatabaseConfig, TemporalDatabase
from repro.workloads import apply_to_database, cad_schema, generate_bom
from repro.workloads.generator import WorkloadSpec

UPDATE_COUNTS = [100, 400, 1600]


def _build_crashed_dir(base, updates):
    """A database directory as a crash would leave it, with *updates*
    committed operations in the log after the checkpoint."""
    path = str(base / f"crash{updates}")
    versions = max(2, updates // 20 + 2)  # enough churn ops to draw from
    spec = WorkloadSpec(parts=10, fanout=1, suppliers=2,
                        versions_per_atom=versions, seed=3)
    db = TemporalDatabase.create(path, cad_schema(),
                                 DatabaseConfig(buffer_pages=256))
    ops, _ = generate_bom(spec)
    setup = [op for op in ops if op[-1] == 0]   # initial build at time 0
    churn = [op for op in ops if op[-1] > 0][:updates]
    ids = apply_to_database(db, setup)
    db.checkpoint()
    wal_at_checkpoint = db.metrics.value("wal.bytes")
    txn = db.begin()
    in_txn = 0
    for _, handle, changes, at in churn:
        if in_txn >= 50:
            txn.commit()
            txn = db.begin()
            in_txn = 0
        txn.update(ids[handle], changes, valid_from=at)
        in_txn += 1
    txn.commit()
    wal_bytes = db.metrics.value("wal.bytes") - wal_at_checkpoint
    operations = len(churn)
    db._wal._file.flush()
    db._disk._file.flush()
    # Crash: drop the object without close().
    del db
    return path, wal_bytes, operations


def test_f5_report_header(benchmark, capsys):
    header(capsys, "R-F5", "log volume and recovery time vs. update count")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("updates", UPDATE_COUNTS)
def test_f5_recovery(benchmark, capsys, tmp_path, updates):
    path, wal_bytes, operations = _build_crashed_dir(tmp_path, updates)
    pristine = path + ".pristine"
    shutil.copytree(path, pristine)

    def restore_crashed_state():
        shutil.rmtree(path)
        shutil.copytree(pristine, path)
        return (), {}

    def recover():
        db = TemporalDatabase.open(path)
        summary = db.last_recovery
        db.close()
        return summary

    summary = benchmark.pedantic(recover, setup=restore_crashed_state,
                                 rounds=3, iterations=1)
    assert summary is not None and summary["operations"] == operations
    emit(capsys,
         f"R-F5 | updates={operations:>5} | log_bytes={wal_bytes:>8} | "
         f"bytes_per_update={wal_bytes / max(1, operations):6.1f} | "
         f"replayed={summary['operations']}")

