"""The write path's live-version machinery.

Mutation planning only ever reads transaction-time-open versions: the
stores' rectangle read believed now (``read_live``), and the
engine's per-atom cache entry, which holds a slot for every live version
and which ``_apply_plan`` repairs from its plan.
These tests pin the store contracts, prove the cache never drifts from
store truth under mixed operations (including undo and eviction), and
guard the headline properties: update cost no longer scans the closed
history, and a warm mutation asks the store nothing before it writes.
"""

import random

import pytest

from repro.core.engine import DECODE_CACHE_ENTRY_OVERHEAD, DecodedVersionCache
from repro.errors import UnknownAtomError
from repro.temporal import FOREVER, Interval
from repro.temporal.timestamp import MAX_CHRONON


@pytest.fixture
def engine(db):
    return db.engine


def insert(engine, atom_id, vf=0, vt=FOREVER, tt=0, **values):
    values = values or {"name": f"atom-{atom_id}"}
    return engine.insert("Part", values, vf, vt, tt, atom_id)


def request_kinds(requests):
    """The kind of each store read request: ``"point"`` (both sides
    instants), ``"live"`` (every valid time, believed now) or
    ``"rectangle"``."""
    now = Interval.instant(MAX_CHRONON)
    return ["point" if vt.end - vt.start == 1 == tt.end - tt.start
            else "live" if (vt, tt) == (Interval.always(), now)
            else "rectangle" for _, vt, tt in requests]


def store_live(engine, atom_id):
    """Live (seq, version) pairs read straight off the store."""
    return [(seq, v) for seq, v in enumerate(engine.all_versions(atom_id))
            if v.live]


class TestStoreContract:
    """The rectangle read and ``read_live`` agree with the envelope
    filter of the whole history on every strategy."""

    def _seed(self, engine):
        insert(engine, 1, tt=0)
        engine.update(1, {"cost": 1.0}, 10, tt=1)
        engine.update(1, {"cost": 2.0}, 20, tt=2)
        engine.delete(1, 5, tt=3, valid_to=8)
        engine.correct(1, 12, 15, {"cost": 9.0}, tt=4)

    def test_read_live_matches_filtered_read_all(self, engine):
        self._seed(engine)
        store = engine.store
        expected = [(seq, sv) for seq, sv in store.read_all_many([1])[1]
                    if sv.live]
        assert store.read_live(1) == expected

    def test_rectangle_read_matches_filtered_read_all(self, engine):
        self._seed(engine)
        store = engine.store
        full = store.read_all_many([1])[1]
        for vt, tt in ((Interval(12, 15), Interval.always()),
                       (Interval.always(), Interval.instant(2)),
                       (Interval.instant(6), Interval(1, 3)),
                       (Interval(0, 10), Interval.instant(MAX_CHRONON))):
            expected = [(seq, sv) for seq, sv in full
                        if sv.vt_start < vt.end and vt.start < sv.vt_end
                        and sv.tt_start < tt.end and tt.start < sv.tt_end]
            assert 0 < len(expected) < len(full)
            assert store.read_all_many([1, 9], vt, tt) == {1: expected}

    def test_read_live_excludes_fully_deleted(self, engine):
        insert(engine, 1, tt=0)
        engine.delete(1, 0, tt=1)
        assert engine.store.read_live(1) == []
        assert engine.store.read_all_many(
            [9], tt=Interval.instant(MAX_CHRONON)) == {}
        with pytest.raises(UnknownAtomError):
            engine.live_pairs(9)


def _mixed_ops_match_store(engine, between=lambda: None):
    """Random updates, deletes, corrections and undone updates of one
    atom; after each, the planning read equals the store's live set.
    *between* runs after every operation."""
    rng = random.Random(7)
    insert(engine, 1, tt=0)
    tt = 1
    for _ in range(60):
        op = rng.randrange(4)
        start = rng.randrange(0, 90)
        try:
            if op == 0:
                engine.update(1, {"cost": float(tt)}, start, tt)
            elif op == 1:
                engine.delete(1, start, tt, valid_to=start + 5)
            elif op == 2:
                engine.correct(1, start, start + 10,
                               {"cost": float(-tt)}, tt)
            else:
                undos = engine.update(1, {"cost": 0.5}, start, tt)
                for undo in reversed(undos):
                    undo()
        except Exception:  # revision may legitimately find no overlap
            pass
        tt += 1
        between()
        assert engine.live_pairs(1) == store_live(engine, 1)


class TestLiveSetCache:
    def test_live_pairs_matches_store_after_each_op(self, engine):
        _mixed_ops_match_store(engine)

    def test_live_pairs_matches_store_under_eviction(self, engine):
        # Room for about one small entry (its overhead plus a slot per
        # live version): touching a second atom between operations evicts
        # atom 1, so planning must rebuild its live slots from read_live
        # again and again.
        engine._decode_cache = DecodedVersionCache(
            4 * DECODE_CACHE_ENTRY_OVERHEAD, engine.metrics)
        engine.insert("Component", {"cname": "other"}, 0, FOREVER, 0, 2)
        misses = engine.metrics.counter("engine.live_set.misses")
        evictions = engine.metrics.counter("engine.decode_cache.evictions")
        before = misses.value, evictions.value
        _mixed_ops_match_store(engine, between=lambda: engine.live_pairs(2))
        assert misses.value - before[0] >= 30
        assert evictions.value > before[1]

    def test_cache_survives_valid_time_splits(self, engine):
        # A mid-window update splits validity into three live pieces;
        # the repaired cache must hold all of them at the right seqs.
        insert(engine, 1, tt=0)
        engine.update(1, {"cost": 1.0}, 10, tt=1, valid_to=20)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert len(engine.live_pairs(1)) == 3
        engine.update(1, {"cost": 2.0}, 14, tt=2, valid_to=16)
        assert engine.live_pairs(1) == store_live(engine, 1)

    def test_undo_invalidates_cache(self, engine):
        insert(engine, 1, tt=0)
        engine.live_pairs(1)
        undos = engine.update(1, {"cost": 3.0}, 10, tt=1)
        for undo in reversed(undos):
            undo()
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert [v.values.get("cost") for _, v in engine.live_pairs(1)] \
            == [None]

    @pytest.mark.parametrize("budget", [None, 0])
    def test_undone_rewrites_restore_their_pre_images(self, engine, budget):
        # A revision inside the tick that wrote a version rewrites it in
        # place; undo restores the stored version the planning read
        # held, also when the cache (budget 0) kept none of its slots.
        if budget is not None:
            engine._decode_cache = DecodedVersionCache(budget, engine.metrics)
        insert(engine, 1, tt=0)
        engine.update(1, {"cost": 1.0}, 10, tt=1)
        before = engine.store.read_all_many([1])[1]
        undos = engine.update(1, {"cost": 2.0}, 10, tt=1)
        undos += engine.correct(1, 12, 15, {"cost": 3.0}, tt=1)
        rewritten = engine.store.read_all_many([1])[1]
        assert rewritten[:len(before)] != before
        for undo in reversed(undos):
            undo()
        assert engine.store.read_all_many([1])[1] == before
        assert engine.live_pairs(1) == store_live(engine, 1)

    def test_links_maintain_both_sides(self, engine):
        insert(engine, 1, tt=0)
        engine.insert("Component", {"cname": "c"}, 0, FOREVER, 0, 2)
        engine.live_pairs(1), engine.live_pairs(2)
        engine.link("contains", 1, 2, 5, tt=1)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)
        engine.unlink("contains", 1, 2, 5, tt=2)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)

    def test_updates_do_not_scan_closed_history(self, engine):
        insert(engine, 1, tt=0)
        for n in range(40):
            engine.update(1, {"cost": float(n)}, 0, tt=n + 1)
        scanned = engine.metrics.counter("engine.versions_scanned")
        before = scanned.value
        for n in range(10):
            engine.update(1, {"cost": float(100 + n)}, 0, tt=50 + n)
        # One live version per update; a full-history planner would
        # scan 40+ versions each time.
        assert scanned.value - before <= 10

    @staticmethod
    def _count_probes(engine, monkeypatch):
        """Every store read the engine makes: ``read_current`` and
        ``exists`` by name, each ``read_at_many`` call by the kinds of
        its requests."""
        calls = []
        store = engine.store
        for name in ("read_current", "exists"):
            def counted(*args, _name=name, _method=getattr(store, name)):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(store, name, counted)

        def walk(requests, _method=store.read_at_many):
            requests = list(requests)
            calls.append(request_kinds(requests))
            return _method(requests)
        monkeypatch.setattr(store, "read_at_many", walk)
        return calls

    def test_cold_update_reads_only_the_live_set(self, engine, monkeypatch):
        # The planning read's decodes name the type: no read_current.
        insert(engine, 1, tt=0)
        engine.drop_caches()
        calls = self._count_probes(engine, monkeypatch)
        engine.update(1, {"cost": 1.0}, 10, tt=1)
        assert calls == [["live"]]

    def test_cold_link_reads_only_the_live_sets(self, engine, monkeypatch):
        # Planning reads come first and name both types: no read_current.
        insert(engine, 1, tt=0)
        engine.insert("Component", {"cname": "c"}, 0, FOREVER, 0, 2)
        engine.drop_caches()
        calls = self._count_probes(engine, monkeypatch)
        engine.link("contains", 1, 2, 5, tt=1)
        assert calls == [["live"], ["live"]]
        monkeypatch.undo()
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)

    def test_cold_updates_keep_their_planning_slots(self, engine,
                                                    monkeypatch):
        # The cold planning read leaves a slot per live version and the
        # mutation keeps them, repaired: the entry then holds exactly the
        # live versions, and the next update plans without the store.
        for atom_id in range(1, 51):
            insert(engine, atom_id, tt=0)
        engine.drop_caches()
        for atom_id in range(1, 51):
            engine.update(atom_id, {"cost": 1.0}, 10, tt=1)
        cache = engine._decode_cache
        for atom_id in (1, 50):
            entry = cache._atoms[atom_id]
            assert entry.live_known
            assert {seq: slot.version for seq, slot in entry.slots.items()
                    } == dict(store_live(engine, atom_id))
        calls = self._count_probes(engine, monkeypatch)
        for atom_id in range(1, 51):
            engine.update(atom_id, {"cost": 2.0}, 20, tt=2)
        assert calls == []
        monkeypatch.undo()
        for atom_id in (1, 50):
            assert engine.live_pairs(atom_id) == store_live(engine, atom_id)

    def test_warm_mutations_ask_the_store_nothing(self, engine,
                                                  monkeypatch):
        # One update each warms both atoms' entries (live set and type
        # name); from then on every mutation plans from the entry and
        # learns its new seqs from append_version.
        insert(engine, 1, tt=0)
        engine.insert("Component", {"cname": "c"}, 0, FOREVER, 0, 2)
        engine.update(1, {"cost": 1.0}, 10, tt=1)
        engine.update(2, {"weight": 1.0}, 10, tt=1)
        calls = self._count_probes(engine, monkeypatch)
        engine.update(1, {"cost": 2.0}, 20, tt=2)
        engine.correct(1, 12, 15, {"cost": 9.0}, tt=3)
        engine.link("contains", 1, 2, 30, tt=4)
        engine.delete(1, 40, tt=5)
        assert calls == []
        monkeypatch.undo()
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)

    def test_reopen_after_cached_updates(self, tmp_path, cad_schema,
                                         strategy):
        from repro import DatabaseConfig, TemporalDatabase
        path = str(tmp_path / "reopen")
        db = TemporalDatabase.create(
            path, cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=64))
        engine = db.engine
        insert(engine, 1, tt=0)
        for n in range(5):
            engine.update(1, {"cost": float(n)}, 0, tt=n + 1)
        expected = store_live(engine, 1)
        db.checkpoint()
        db.close()
        db = TemporalDatabase.open(path)
        assert db.engine.live_pairs(1) == expected
        db.close()


class TestWalSeekIndex:
    def test_read_all_after_lsn_with_seek_marks(self, tmp_path):
        from repro.txn.wal import LogRecordType, WriteAheadLog
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        body = {"pad": "x" * 512}
        lsns = [wal.append(LogRecordType.OPERATION, 1, dict(body))
                for _ in range(200)]
        for after in (0, lsns[0], lsns[57], lsns[-2], lsns[-1]):
            got = [r.lsn for r in wal.read_all(after)]
            assert got == [lsn for lsn in lsns if lsn > after]
        wal.close()

    def test_marks_cleared_on_truncate(self, tmp_path):
        from repro.txn.wal import LogRecordType, WriteAheadLog
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        for _ in range(50):
            wal.append(LogRecordType.OPERATION, 1, {"pad": "y" * 512})
        wal.truncate()
        lsn = wal.append(LogRecordType.OPERATION, 2, {"op": "after"})
        assert [r.lsn for r in wal.read_all(0)] == [lsn]
        wal.close()


def test_replica_apply_flushes_pending_indexes(tmp_path, cad_schema):
    """Replay on a replica drains the index write-behind buffers.

    No local transaction ever commits on a replica, so without the
    applier-side flush the pending sets grow for the life of the
    process and every index probe pays a linear merge over them.
    """
    from tests.test_replication import Cluster, wait_until

    cluster = Cluster(tmp_path, cad_schema, replicas=1)
    try:
        with cluster.pdb.transaction() as txn:
            atom = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with cluster.pdb.transaction() as txn:
            txn.update(atom, {"cost": 2.0}, valid_from=5)
        cluster.wait_caught_up()
        rdb = cluster.rdbs[0]
        wait_until(lambda: not rdb.indexes._pending_attr
                   and not rdb.indexes._pending_vt,
                   message="pending index buffers to drain")
        assert rdb.engine.version_at(atom, 10).values["cost"] == 2.0
    finally:
        cluster.close()
