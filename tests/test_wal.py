"""Tests for the write-ahead log."""

import errno
import json
import threading

import pytest

from repro import TemporalDatabase
from repro.canonical import encode_payload
from repro.errors import WALError
from repro.txn import wal as wal_module
from repro.txn.wal import LogRecordType, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "wal.log", sync_on_commit=False)
    yield log
    log.close()


class TestAppendRead:
    def test_lsns_increase_from_one(self, wal):
        assert wal.append(LogRecordType.BEGIN, 1, {"tt": 0}) == 1
        assert wal.append(LogRecordType.COMMIT, 1) == 2

    def test_read_all_round_trip(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 5})
        wal.append(LogRecordType.OPERATION, 1, {"op": "insert", "x": [1, 2]})
        wal.append(LogRecordType.COMMIT, 1)
        records = list(wal.read_all())
        assert [r.type for r in records] == [LogRecordType.BEGIN,
                                             LogRecordType.OPERATION,
                                             LogRecordType.COMMIT]
        assert records[1].payload == {"op": "insert", "x": [1, 2]}
        assert all(r.txn_id == 1 for r in records)

    def test_read_after_lsn(self, wal):
        for i in range(5):
            wal.append(LogRecordType.OPERATION, 1, {"i": i})
        tail = list(wal.read_all(after_lsn=3))
        assert [r.payload["i"] for r in tail] == [3, 4]

    def test_unicode_payload(self, wal):
        wal.append(LogRecordType.OPERATION, 1, {"name": "déjà-vu ★"})
        (record,) = wal.read_all()
        assert record.payload["name"] == "déjà-vu ★"

    def test_escaped_and_utf8_spellings_replay_equal(self, tmp_path):
        """Record bodies are canonical JSON, non-ASCII text as UTF-8; a
        log written when bodies spelled it as ``\\u`` escapes replays
        to equal payloads."""
        payload = {"op": "update", "values": {"name": "déjà-vu ★"}}
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync_on_commit=False) as log:
            escaped = json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode("ascii")
            with log._lock:
                log._write_record(1, LogRecordType.OPERATION.value, 1,
                                  escaped)
            log.flush(sync=False)
        with WriteAheadLog(path, sync_on_commit=False) as log:
            assert log.append(LogRecordType.OPERATION, 1, payload) == 2
            log.flush(sync=False)
            old, new = log.read_all()
        raw = path.read_bytes()
        assert escaped in raw
        assert encode_payload(payload) in raw
        assert old.payload == new.payload == payload

    def test_empty_log(self, wal):
        assert list(wal.read_all()) == []
        assert wal.next_lsn == 1


class TestDurability:
    def test_lsn_continues_after_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
            wal.flush(sync=False)
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            assert wal.next_lsn == 2
            assert wal.append(LogRecordType.COMMIT, 1) == 2

    def test_torn_tail_is_cut(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
            wal.append(LogRecordType.OPERATION, 1, {"op": "x"})
            wal.flush(sync=False)
        # Simulate a crash mid-append: truncate into the last record.
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            records = list(wal.read_all())
            assert [r.type for r in records] == [LogRecordType.BEGIN]

    def test_corrupt_tail_is_cut(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
            wal.append(LogRecordType.COMMIT, 1)
            wal.flush(sync=False)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a bit in the last record's payload
        path.write_bytes(bytes(raw))
        with WriteAheadLog(path, sync_on_commit=False) as wal:
            records = list(wal.read_all())
            assert [r.type for r in records] == [LogRecordType.BEGIN]

    def test_truncate(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        wal.truncate()
        assert list(wal.read_all()) == []
        assert wal.size_bytes() == 0

    def test_size_bytes_grows(self, wal):
        before = wal.size_bytes()
        wal.append(LogRecordType.OPERATION, 1, {"op": "payload"})
        assert wal.size_bytes() > before


class TestFlushOverrides:
    """``flush(sync=...)`` has three behaviours; each is observable via
    the ``wal.fsyncs`` counter."""

    def test_default_follows_nosync_config(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        before = wal.metrics.value("wal.fsyncs")
        wal.flush()  # sync=None: follow sync_on_commit=False
        assert wal.metrics.value("wal.fsyncs") == before

    def test_default_follows_sync_config(self, tmp_path):
        log = WriteAheadLog(tmp_path / "sync.log", sync_on_commit=True)
        try:
            log.append(LogRecordType.BEGIN, 1, {"tt": 0})
            before = log.metrics.value("wal.fsyncs")
            log.flush()  # sync=None: follow sync_on_commit=True
            assert log.metrics.value("wal.fsyncs") == before + 1
        finally:
            log.close()

    def test_sync_true_overrides_nosync_config(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        before = wal.metrics.value("wal.fsyncs")
        wal.flush(sync=True)
        assert wal.metrics.value("wal.fsyncs") == before + 1

    def test_sync_false_overrides_sync_config(self, tmp_path):
        log = WriteAheadLog(tmp_path / "sync.log", sync_on_commit=True)
        try:
            log.append(LogRecordType.BEGIN, 1, {"tt": 0})
            before = log.metrics.value("wal.fsyncs")
            log.flush(sync=False)
            assert log.metrics.value("wal.fsyncs") == before
        finally:
            log.close()


class TestSyncTo:
    def test_noop_without_sync_on_commit(self, wal):
        lsn = wal.append(LogRecordType.COMMIT, 1)
        wal.sync_to(lsn)
        assert wal.durable_lsn == 0
        assert wal.metrics.value("wal.fsyncs") == 0

    def test_single_committer_fsyncs_once(self, tmp_path):
        log = WriteAheadLog(tmp_path / "gc.log", sync_on_commit=True)
        try:
            log.append(LogRecordType.BEGIN, 1, {"tt": 0})
            lsn = log.append(LogRecordType.COMMIT, 1)
            before = log.metrics.value("wal.fsyncs")
            log.sync_to(lsn)
            assert log.durable_lsn == lsn
            assert log.metrics.value("wal.fsyncs") == before + 1
            assert log.metrics.value("wal.group_commits") == 1
            # Syncing an already-durable LSN is free.
            log.sync_to(lsn)
            assert log.metrics.value("wal.fsyncs") == before + 1
        finally:
            log.close()

    def test_leader_covers_later_appends(self, tmp_path):
        """The leader's fsync covers everything appended before it runs."""
        log = WriteAheadLog(tmp_path / "gc.log", sync_on_commit=True)
        try:
            first = log.append(LogRecordType.COMMIT, 1)
            later = log.append(LogRecordType.COMMIT, 2)
            log.sync_to(first)
            assert log.durable_lsn >= later  # one fsync, both durable
            before = log.metrics.value("wal.fsyncs")
            log.sync_to(later)  # already covered: no second fsync
            assert log.metrics.value("wal.fsyncs") == before
        finally:
            log.close()

    def test_per_commit_fsync_mode(self, tmp_path):
        log = WriteAheadLog(tmp_path / "pc.log", sync_on_commit=True,
                            group_commit=False)
        try:
            before = log.metrics.value("wal.fsyncs")
            for txn in range(3):
                lsn = log.append(LogRecordType.COMMIT, txn + 1)
                log.sync_to(lsn)
            assert log.metrics.value("wal.fsyncs") == before + 3
            assert log.durable_lsn == log.next_lsn - 1
            assert log.metrics.value("wal.group_commits") == 0
        finally:
            log.close()

    def test_truncate_marks_log_durable(self, wal):
        lsn = wal.append(LogRecordType.COMMIT, 1)
        wal.truncate()
        assert wal.durable_lsn == lsn


def _eio(fd):
    raise OSError(errno.EIO, "Input/output error")


class TestFsyncFailure:
    """A failed commit fsync poisons the log: nothing it covered is
    reported durable, and no later commit succeeds until reopen."""

    @pytest.mark.parametrize("group_commit", [True, False])
    def test_failed_fsync_is_never_reported_durable(self, tmp_path,
                                                    monkeypatch,
                                                    group_commit):
        log = WriteAheadLog(tmp_path / "eio.log", sync_on_commit=True,
                            group_commit=group_commit)
        try:
            lsn = log.append(LogRecordType.COMMIT, 1)
            with monkeypatch.context() as patch:
                patch.setattr(wal_module.os, "fsync", _eio)
                with pytest.raises(WALError, match="fsync failed"):
                    log.sync_to(lsn)
            assert log.durable_lsn == 0
            assert log.shippable_lsn == 0
            # The device works again, but the kernel may have dropped the
            # pages it failed to write: a retry must not report success.
            with pytest.raises(WALError, match="reopen"):
                log.sync_to(lsn)
            later = log.append(LogRecordType.COMMIT, 2)
            with pytest.raises(WALError, match="reopen"):
                log.sync_to(later)
            assert log.durable_lsn == 0
        finally:
            log.close()

    def test_waiting_followers_fail_with_the_leader(self, tmp_path,
                                                    monkeypatch):
        log = WriteAheadLog(tmp_path / "eio.log", sync_on_commit=True,
                            group_window=0)
        in_fsync = threading.Event()
        release = threading.Event()

        def slow_eio(fd):
            in_fsync.set()
            assert release.wait(10)
            raise OSError(errno.EIO, "Input/output error")

        outcomes = {}

        def commit(name, lsn):
            try:
                log.sync_to(lsn)
                outcomes[name] = "durable"
            except WALError:
                outcomes[name] = "failed"

        try:
            monkeypatch.setattr(wal_module.os, "fsync", slow_eio)
            leader = threading.Thread(
                target=commit,
                args=("leader", log.append(LogRecordType.COMMIT, 1)))
            leader.start()
            assert in_fsync.wait(10)
            followers = [threading.Thread(
                target=commit,
                args=(f"follower{i}", log.append(LogRecordType.COMMIT,
                                                 i + 2)))
                for i in range(3)]
            for thread in followers:
                thread.start()
            release.set()
            for thread in [leader, *followers]:
                thread.join(10)
                assert not thread.is_alive()
            assert outcomes == {"leader": "failed", "follower0": "failed",
                                "follower1": "failed", "follower2": "failed"}
            assert log.durable_lsn == 0
        finally:
            release.set()
            monkeypatch.undo()
            log.close()

    def test_database_refuses_commits_until_reopened(self, tmp_path,
                                                     monkeypatch, cad_schema):
        path = str(tmp_path / "eiodb")
        db = TemporalDatabase.create(path, cad_schema)
        with db.transaction() as txn:
            kept = txn.insert("Part", {"name": "kept"}, valid_from=0)
        with monkeypatch.context() as patch:
            patch.setattr(wal_module.os, "fsync", _eio)
            with pytest.raises(WALError):
                with db.transaction() as txn:
                    txn.insert("Part", {"name": "lost"}, valid_from=0)
        with pytest.raises(WALError, match="reopen"):
            with db.transaction() as txn:
                txn.insert("Part", {"name": "refused"}, valid_from=0)
        # The failed transactions' outcome is unknown until recovery
        # reads what reached the disk: abandon the instance like a
        # crashed process and reopen.
        db._wal._file.flush()
        db._disk._file.flush()
        reopened = TemporalDatabase.open(path)
        try:
            assert reopened.version_at(kept, 0).values["name"] == "kept"
            with reopened.transaction() as txn:
                txn.insert("Part", {"name": "after"}, valid_from=0)
        finally:
            reopened.close()


class TestReplicationSurface:
    """The WAL API the replication plane is built on: shippable heads,
    verbatim shipped appends, bounded range reads, and the retention
    guard."""

    def test_shippable_tracks_head_without_sync(self, wal):
        assert wal.shippable_lsn == 0
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        wal.append(LogRecordType.COMMIT, 1)
        assert wal.shippable_lsn == 2  # no durability floor to honor

    def test_shippable_is_durable_head_with_sync(self, tmp_path):
        with WriteAheadLog(tmp_path / "s.log", sync_on_commit=True) as log:
            log.append(LogRecordType.BEGIN, 1, {"tt": 0})
            lsn = log.append(LogRecordType.COMMIT, 1)
            assert log.shippable_lsn == 0  # appended but not yet forced
            log.sync_to(lsn)
            assert log.shippable_lsn == lsn

    def test_recovered_records_are_shippable_immediately(self, tmp_path):
        path = tmp_path / "r.log"
        with WriteAheadLog(path, sync_on_commit=True) as log:
            lsn = log.append(LogRecordType.COMMIT, 1)
            log.sync_to(lsn)
        with WriteAheadLog(path, sync_on_commit=True) as log:
            assert log.shippable_lsn == lsn

    def test_wait_for_shippable_wakes_on_commit(self, wal):
        import threading
        import time

        def commit_later():
            time.sleep(0.05)
            wal.append(LogRecordType.COMMIT, 1)

        thread = threading.Thread(target=commit_later)
        thread.start()
        head = wal.wait_for_shippable(1, timeout=5.0)
        thread.join()
        assert head >= 1

    def test_wait_for_shippable_times_out(self, wal):
        assert wal.wait_for_shippable(10, timeout=0.05) == 0

    def test_append_shipped_round_trip(self, tmp_path, wal):
        wal.append(LogRecordType.BEGIN, 7, {"tt": 3})
        wal.append(LogRecordType.COMMIT, 7)
        replica = WriteAheadLog(tmp_path / "replica.log",
                                sync_on_commit=False)
        try:
            for record in wal.read_all():
                assert replica.append_shipped(record.lsn,
                                              record.type.value,
                                              record.txn_id,
                                              record.payload)
            assert ([(r.lsn, r.type, r.txn_id, r.payload)
                     for r in replica.read_all()]
                    == [(r.lsn, r.type, r.txn_id, r.payload)
                        for r in wal.read_all()])
        finally:
            replica.close()

    def test_append_shipped_duplicate_is_ignored(self, wal):
        assert wal.append_shipped(1, LogRecordType.BEGIN.value, 1, {})
        assert wal.append_shipped(2, LogRecordType.COMMIT.value, 1, {})
        # A reconnecting replica may replay an overlapping range.
        assert wal.append_shipped(1, LogRecordType.BEGIN.value, 1, {}) \
            is False
        assert wal.next_lsn == 3
        assert len(list(wal.read_all())) == 2

    def test_append_shipped_gap_raises(self, wal):
        wal.append_shipped(1, LogRecordType.BEGIN.value, 1, {})
        with pytest.raises(WALError, match="stream gap"):
            wal.append_shipped(5, LogRecordType.COMMIT.value, 1, {})

    def test_append_shipped_adopts_position_on_empty_log(self, wal):
        # A freshly-truncated replica log resumes mid-stream: the first
        # shipped record defines the position.
        assert wal.append_shipped(41, LogRecordType.BEGIN.value, 9, {})
        assert wal.next_lsn == 42
        (record,) = wal.read_all()
        assert record.lsn == 41

    def test_read_records_from_bounds(self, wal):
        for i in range(5):
            wal.append(LogRecordType.OPERATION, 1, {"i": i})
        records = list(wal.read_records_from(2, upto_lsn=4))
        assert [r.lsn for r in records] == [2, 3, 4]

    def test_read_records_from_truncated_start_raises(self, wal):
        wal.append_shipped(10, LogRecordType.BEGIN.value, 1, {})
        with pytest.raises(WALError, match="truncated"):
            list(wal.read_records_from(5))

    def test_read_records_from_emptied_log_raises(self, wal):
        for i in range(3):
            wal.append(LogRecordType.OPERATION, 1, {"i": i})
        assert wal.truncate()
        # The records up to the caller's head are gone: a resume point
        # inside them must fail loudly, not read as "nothing new yet".
        with pytest.raises(WALError, match="truncated"):
            list(wal.read_records_from(2, upto_lsn=3))
        # Past the head there is simply nothing to ship yet.
        assert list(wal.read_records_from(4, upto_lsn=3)) == []

    def test_retention_guard_refuses_truncate(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        wal.append(LogRecordType.COMMIT, 1)
        wal.subscribe("r1", "replica", acked_lsn=1)
        assert wal.truncate() is False
        assert wal.metrics.gauge("wal.retention_held_bytes").value > 0
        assert wal.size_bytes() > 0  # the log survived

    def test_ack_to_head_releases_the_guard(self, wal):
        wal.append(LogRecordType.BEGIN, 1, {"tt": 0})
        head = wal.append(LogRecordType.COMMIT, 1)
        wal.subscribe("r1", "replica", acked_lsn=0)
        assert wal.truncate() is False
        wal.ack("r1", head)
        assert wal.truncate() is True
        assert wal.metrics.gauge("wal.retention_held_bytes").value == 0
        assert wal.size_bytes() == 0

    def test_release_drops_the_hold(self, wal):
        wal.append(LogRecordType.COMMIT, 1)
        wal.subscribe("r1", "replica", acked_lsn=0)
        assert wal.truncate() is False
        wal.release("r1")
        assert wal.truncate() is True

    def test_min_acked_is_slowest_subscriber(self, wal):
        assert wal.min_acked_lsn() is None
        wal.subscribe("fast", "replica", acked_lsn=9)
        wal.subscribe("slow", "cdc", acked_lsn=2)
        assert wal.min_acked_lsn() == 2
        assert set(wal.subscribers()) == {"fast", "slow"}
        assert set(wal.subscribers("cdc")) == {"slow"}

    def test_one_namespace_across_kinds(self, wal):
        assert wal.subscribe("r1", "replica") is True
        assert wal.subscribe("r1", "replica", acked_lsn=3) is False
        with pytest.raises(WALError, match="replica cursor"):
            wal.subscribe("r1", "cdc")
        assert wal.release("r1") is True
        assert wal.release("r1") is False

    def test_acks_are_monotone(self, wal):
        wal.subscribe("r1", "replica", acked_lsn=5)
        wal.ack("r1", 3)  # a stale ack never regresses the floor
        assert wal.min_acked_lsn() == 5
