"""The engine's per-atom read cache: correctness across every
invalidation path.

The engine caches, per atom, the stored history (filled by full-history
reads) and decoded versions keyed by ``(seq, cols)``, plus atom type
names by atom id.  A stale entry would silently serve old state, so
every route that rewrites stored bytes — update/correct/delete,
link/unlink, transaction rollback (undo), recovery replay, replica
apply and vacuum — must drop the atom's entries.  These tests drive
each route and check warm reads against ground truth and against a
cold engine (``drop_caches``), alongside the cache's own metrics.
"""

from __future__ import annotations

import random

import pytest

from repro import DatabaseConfig, TemporalDatabase
from repro.core.engine import (
    DECODE_CACHE_ENTRY_OVERHEAD,
    DecodedVersionCache,
)
from repro.errors import ReproError, UnknownAtomError
from repro.temporal import FOREVER
from repro.tools.vacuum import vacuum_superseded


def _insert_part(db, name="wheel", cost=1.0, valid_from=0):
    with db.transaction() as txn:
        return txn.insert("Part", {"name": name, "cost": cost},
                          valid_from=valid_from)


def _cache_counters(db):
    metrics = db.metrics
    return {
        "hits": metrics.value("engine.decode_cache.hits"),
        "misses": metrics.value("engine.decode_cache.misses"),
        "invalidations": metrics.value("engine.decode_cache.invalidations"),
    }


class TestCacheServesAndCounts:
    def test_repeated_reads_hit_the_cache(self, db):
        part = _insert_part(db)
        before = _cache_counters(db)
        first = db.version_at(part, 5)
        between = _cache_counters(db)
        second = db.version_at(part, 5)
        after = _cache_counters(db)
        assert first.values == second.values
        assert between["misses"] > before["misses"]
        assert after["hits"] > between["hits"]

    def test_mutations_count_invalidations(self, db):
        part = _insert_part(db)
        db.version_at(part, 5)
        before = _cache_counters(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 9.0}, valid_from=0)
        after = _cache_counters(db)
        assert after["invalidations"] > before["invalidations"]


class TestMutationInvalidation:
    def test_update_is_visible_through_the_cache(self, db):
        part = _insert_part(db, cost=1.0)
        assert db.version_at(part, 5).values["cost"] == 1.0
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.5}, valid_from=0)
        assert db.version_at(part, 5).values["cost"] == 2.5

    def test_correct_is_visible_through_the_cache(self, db):
        part = _insert_part(db, cost=1.0)
        assert db.version_at(part, 5).values["cost"] == 1.0
        with db.transaction() as txn:
            txn.correct(part, 0, FOREVER, {"cost": 3.0})
        assert db.version_at(part, 5).values["cost"] == 3.0

    def test_delete_is_visible_through_the_cache(self, db):
        part = _insert_part(db)
        assert db.version_at(part, 5) is not None
        with db.transaction() as txn:
            txn.delete(part, valid_from=0)
        assert db.version_at(part, 5) is None

    def test_history_reads_track_mutations(self, db):
        part = _insert_part(db, cost=1.0)
        assert len(db.history(part)) == 1
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        history = db.history(part)
        assert len(history) > 1
        # Re-read through the now-warm cache: identical content.
        again = db.history(part)
        assert [v.values for v in history] == [v.values for v in again]


class TestRollbackInvalidation:
    def test_abort_undoes_update_without_stale_reads(self, db):
        part = _insert_part(db, cost=1.0)
        assert db.version_at(part, 5).values["cost"] == 1.0
        txn = db.begin()
        txn.update(part, {"cost": 99.0}, valid_from=0)
        # Inside the transaction the new value is cached...
        assert txn.version_at(part, 5).values["cost"] == 99.0
        txn.abort()
        # ...and the undo must have dropped it again.
        assert db.version_at(part, 5).values["cost"] == 1.0

    def test_abort_undoes_insert(self, db):
        txn = db.begin()
        part = txn.insert("Part", {"name": "ghost"}, valid_from=0)
        assert txn.version_at(part, 5) is not None
        txn.abort()
        assert db.version_at(part, 5) is None
        with pytest.raises(UnknownAtomError):
            db.engine.atom_type_name(part)

    def test_abort_undoes_link(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
        db.version_at(part, 5)  # warm the cache
        txn = db.begin()
        txn.link("contains", part, comp, valid_from=0)
        txn.abort()
        version = db.version_at(part, 5)
        assert not version.refs


class TestRecoveryInvalidation:
    def test_replayed_state_reads_correctly(self, tmp_path, cad_schema,
                                            strategy):
        db = TemporalDatabase.create(
            str(tmp_path / "crashdb"), cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=32))
        part = _insert_part(db, cost=1.0)
        db.checkpoint()
        db.version_at(part, 5)  # warm caches before the post-checkpoint work
        with db.transaction() as txn:
            txn.update(part, {"cost": 7.0}, valid_from=0)
        assert db.version_at(part, 5).values["cost"] == 7.0
        # Crash: abandon without close; reopen replays through the engine.
        db._wal._file.flush()
        db._disk._file.flush()
        recovered = TemporalDatabase.open(str(tmp_path / "crashdb"))
        assert recovered.last_recovery is not None
        assert recovered.version_at(part, 5).values["cost"] == 7.0
        assert recovered.version_at(part, 5).values["cost"] == 7.0
        recovered.close()


class TestVacuumInvalidation:
    def test_vacuum_rewrite_does_not_leave_stale_decodes(self, db):
        part = _insert_part(db, cost=1.0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 3.0}, valid_from=0)
        # Warm the cache with the full pre-vacuum history.
        before = db.history(part)
        assert db.version_at(part, 5).values["cost"] == 3.0
        cutoff = db._clock.now()
        report = vacuum_superseded(db, cutoff)
        assert report.versions_removed > 0
        # Sequence numbers shifted under the rewrite: reads must reflect
        # the compacted store, not the cached pre-vacuum decodes.
        after = db.history(part)
        assert len(after) == len(before) - report.versions_removed
        assert db.version_at(part, 5).values["cost"] == 3.0


class TestTypeNameMap:
    def test_unknown_atom_still_raises(self, db):
        with pytest.raises(UnknownAtomError):
            db.engine.atom_type_name(424242)

    def test_repeat_lookups_avoid_record_reads(self, db):
        part = _insert_part(db)
        db.engine.atom_type_name(part)  # populate the map
        reads_before = db.metrics.total("heap.record_reads")
        for _ in range(5):
            assert db.engine.atom_type_name(part) == "Part"
        assert db.metrics.total("heap.record_reads") == reads_before


class TestEviction:
    def test_tiny_cache_stays_correct(self, db):
        # A budget of two entries' worth of bytes: every read churns the
        # LRU, and correctness must not depend on residency.
        budget = 2 * (DECODE_CACHE_ENTRY_OVERHEAD + 80)
        db.engine._decode_cache = DecodedVersionCache(budget, db.metrics)
        parts = [_insert_part(db, name=f"p{i}", cost=float(i))
                 for i in range(6)]
        for index, part in enumerate(parts):
            assert db.version_at(part, 5).values["cost"] == float(index)
        for index, part in reversed(list(enumerate(parts))):
            assert db.version_at(part, 5).values["cost"] == float(index)
        assert db.engine._decode_cache.bytes_used <= budget

    def test_lru_byte_budget_is_enforced(self):
        from repro.obs import MetricsRegistry
        per_entry = DECODE_CACHE_ENTRY_OVERHEAD + 100
        cache = DecodedVersionCache(3 * per_entry, MetricsRegistry())
        for atom_id in range(5):
            cache.put(atom_id, 0, "Part", object(), nbytes=100)
        assert len(cache) == 3
        assert cache.bytes_used == 3 * per_entry
        assert cache.get(0, 0) is None      # evicted
        assert cache.get(4, 0) is not None  # newest survives

    def test_oversized_entry_is_not_cached(self):
        from repro.obs import MetricsRegistry
        cache = DecodedVersionCache(1024, MetricsRegistry())
        cache.put(1, 0, "Part", object(), nbytes=4096)
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_wide_values_charge_more_than_narrow_ones(self, db):
        cache = db.engine._decode_cache
        _insert_part(db, name="x")
        narrow = cache.bytes_used
        assert narrow == 0  # writes do not populate the cache
        part = _insert_part(db, name="y")
        db.version_at(part, 5)
        after_narrow = cache.bytes_used
        wide = _insert_part(db, name="z" * 500)
        db.version_at(wide, 5)
        after_wide = cache.bytes_used
        assert after_wide - after_narrow > after_narrow


class TestByteAccounting:
    def test_gauge_tracks_occupancy(self, db):
        part = _insert_part(db)
        assert db.metrics._gauges  # gauge registered at engine build
        db.version_at(part, 5)
        used = db.engine._decode_cache.bytes_used
        assert used > 0
        gauge = db.metrics.gauge("engine.decode_cache.bytes")
        assert gauge.value == used

    def test_invalidation_returns_bytes(self, db):
        part = _insert_part(db)
        db.version_at(part, 5)
        assert db.engine._decode_cache.bytes_used > 0
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        # The atom's cached decodes were dropped with their bytes.
        gauge = db.metrics.gauge("engine.decode_cache.bytes")
        assert gauge.value == db.engine._decode_cache.bytes_used

    def test_clear_zeroes_bytes_and_gauge(self, db):
        part = _insert_part(db)
        db.version_at(part, 5)
        db.engine._decode_cache.clear()
        assert db.engine._decode_cache.bytes_used == 0
        assert db.metrics.gauge("engine.decode_cache.bytes").value == 0

    def test_config_knob_reaches_the_engine(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(
            str(tmp_path / "knobdb"), cad_schema,
            DatabaseConfig(decode_cache_bytes=4096))
        try:
            assert db.engine._decode_cache.capacity_bytes == 4096
        finally:
            db.close()


# -- per-atom history entries -----------------------------------------------


def _history_counters(db):
    return (db.metrics.value("engine.history_cache.hits"),
            db.metrics.value("engine.history_cache.misses"))


def _snapshot(db, atom_ids, instants=(0, 3, 5, 10, 25, 60)):
    """Everything the read API answers about *atom_ids*, for comparing a
    warm engine against a cold one."""
    state = {}
    for atom_id in atom_ids:
        try:
            history = [(v.vt, v.tt, v.values, v.refs)
                       for v in db.history(atom_id)]
        except UnknownAtomError:
            history = None
        slices = [(at, tt, None if v is None else (v.vt, v.values, v.refs))
                  for at in instants for tt in (None, 1, 2, 4)
                  for v in [db.version_at(atom_id, at, tt)]]
        state[atom_id] = (history, slices)
    return state


def _assert_warm_equals_cold(db, atom_ids):
    warm = _snapshot(db, atom_ids)
    db.engine.drop_caches()
    assert warm == _snapshot(db, atom_ids)


def _cached_history(db, atom_id):
    return db.engine._decode_cache.histories([atom_id]).get(atom_id)


def _warm(db, *atom_ids):
    for atom_id in atom_ids:
        db.history(atom_id)
        assert _cached_history(db, atom_id) is not None


class TestHistoryEntries:
    def test_full_history_read_fills_and_then_hits(self, db):
        part = _insert_part(db)
        hits, misses = _history_counters(db)
        db.history(part)
        assert _history_counters(db) == (hits, misses + 1)
        reads = db.metrics.total("heap.record_reads")
        pins = db.buffer.stats.hits + db.buffer.stats.misses
        db.history(part)
        assert _history_counters(db) == (hits + 1, misses + 1)
        assert db.metrics.total("heap.record_reads") == reads
        assert db.buffer.stats.hits + db.buffer.stats.misses == pins

    def test_point_slices_never_fill(self, db):
        part = _insert_part(db)
        for at in (0, 5, 50):
            db.version_at(part, at)
        assert _cached_history(db, part) is None

    def test_as_of_reads_fill(self, db):
        part = _insert_part(db)
        db.version_at(part, 5, tt=db._clock.now())
        assert _cached_history(db, part) is not None

    def test_warm_current_slice_skips_the_store(self, db):
        part = _insert_part(db, cost=1.0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        _warm(db, part)
        reads = db.metrics.total("heap.record_reads")
        assert db.version_at(part, 5).values["cost"] == 1.0
        assert db.version_at(part, 15).values["cost"] == 2.0
        assert db.metrics.total("heap.record_reads") == reads

    def test_prune_roots_fills(self, db):
        parts = [_insert_part(db, name=f"p{i}") for i in range(3)]
        pred, _ = db.engine.compile_pushdown(_spec("Part", "name", "EQ",
                                                   "p1"))
        assert db.engine.prune_roots(parts, pred) == [parts[1]]
        for part in parts:
            assert _cached_history(db, part) is not None

    def test_unknown_atoms_keep_their_contract(self, db):
        with pytest.raises(UnknownAtomError):
            db.history(424242)
        assert db.version_at(424242, 5) is None
        assert db.version_at(424242, 5, tt=1) is None
        assert db.engine.all_versions_many([424242]) == {}

    def test_counters_reach_the_exposition(self, db):
        from repro.obs.exposition import render_prometheus
        part = _insert_part(db)
        db.history(part)
        db.history(part)
        text = render_prometheus(db.metrics)
        assert "engine_history_cache_hits" in text
        assert "engine_history_cache_misses" in text
        names = {counter.name for counter in db.metrics.counters()}
        assert {"engine.history_cache.hits",
                "engine.history_cache.misses"} <= names

    def test_drop_caches_forgets_everything(self, db):
        part = _insert_part(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 3.0}, valid_from=2)
        _warm(db, part)
        db.engine.atom_type_name(part)
        engine = db.engine
        assert engine._decode_cache.bytes_used > 0
        assert engine._live_sets and engine._type_names
        engine.drop_caches()
        assert engine._decode_cache.bytes_used == 0
        assert len(engine._decode_cache) == 0
        assert _cached_history(db, part) is None
        assert not engine._live_sets and not engine._type_names


def _spec(type_name, attr, op, literal):
    from repro.mql.planner import PushdownSpec
    return PushdownSpec(type_name, ((attr, op, literal),), None)


class TestHistoryInvalidation:
    """Every route that changes stored bytes drops the atom's history
    entry: warm reads after it equal reads from a cold engine."""

    def _parts(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        _warm(db, part, comp)
        return part, comp

    def test_update(self, db):
        part, comp = self._parts(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 9.0}, valid_from=5)
        assert _cached_history(db, part) is None
        assert db.version_at(part, 7).values["cost"] == 9.0
        _assert_warm_equals_cold(db, [part, comp])

    def test_correct(self, db):
        part, comp = self._parts(db)
        with db.transaction() as txn:
            txn.correct(part, 0, 4, {"cost": 0.5})
        assert db.version_at(part, 2).values["cost"] == 0.5
        _assert_warm_equals_cold(db, [part, comp])

    def test_delete(self, db):
        part, comp = self._parts(db)
        with db.transaction() as txn:
            txn.delete(part, valid_from=20)
        assert db.version_at(part, 25) is None
        _assert_warm_equals_cold(db, [part, comp])

    def test_link_and_unlink(self, db):
        part, comp = self._parts(db)
        with db.transaction() as txn:
            txn.link("contains", part, comp, valid_from=3)
        assert db.version_at(part, 5).refs
        assert db.version_at(comp, 5).refs
        _assert_warm_equals_cold(db, [part, comp])
        _warm(db, part, comp)
        with db.transaction() as txn:
            txn.unlink("contains", part, comp, valid_from=8)
        assert not db.version_at(part, 9).refs
        assert not db.version_at(comp, 9).refs
        _assert_warm_equals_cold(db, [part, comp])

    def test_transaction_abort(self, db):
        part, comp = self._parts(db)
        before = _snapshot(db, [part, comp])
        txn = db.begin()
        txn.update(part, {"cost": 99.0}, valid_from=0)
        txn.link("contains", part, comp, valid_from=0)
        # Refill the entries with the transaction's own writes...
        assert txn.history(part)[-1].values["cost"] == 99.0
        _warm(db, part, comp)
        txn.abort()
        # ...and the undo must have dropped them again.
        assert _snapshot(db, [part, comp]) == before
        _assert_warm_equals_cold(db, [part, comp])

    def test_vacuum(self, db):
        part, comp = self._parts(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 3.0}, valid_from=0)
        _warm(db, part, comp)
        report = vacuum_superseded(db, db._clock.now())
        assert report.versions_removed > 0
        assert _cached_history(db, part) is None
        _assert_warm_equals_cold(db, [part, comp])

    def test_recovery_replay(self, tmp_path, cad_schema, strategy):
        path = str(tmp_path / "replaydb")
        db = TemporalDatabase.create(
            path, cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=32))
        part, comp = self._parts(db)
        db.checkpoint()
        with db.transaction() as txn:
            txn.update(part, {"cost": 7.0}, valid_from=0)
        db._wal._file.flush()
        db._disk._file.flush()
        recovered = TemporalDatabase.open(path)
        try:
            assert recovered.last_recovery is not None
            assert recovered.version_at(part, 5).values["cost"] == 7.0
            _assert_warm_equals_cold(recovered, [part, comp])
            # Replay on a warm engine: the same operations re-applied
            # through the engine drop the entries they touch.
            _warm(recovered, part, comp)
            with recovered.transaction() as txn:
                txn.update(part, {"cost": 8.0}, valid_from=0)
            assert recovered.version_at(part, 5).values["cost"] == 8.0
            _assert_warm_equals_cold(recovered, [part, comp])
        finally:
            recovered.close()

    def test_replica_apply(self, tmp_path, cad_schema, strategy):
        import shutil

        from repro.replication.replica import ReplicaApplier

        config = DatabaseConfig(strategy=strategy, buffer_pages=32)
        primary_path = str(tmp_path / "primary")
        replica_path = str(tmp_path / "replica")
        TemporalDatabase.create(primary_path, cad_schema, config).close()
        shutil.copytree(primary_path, replica_path)
        primary = TemporalDatabase.open(primary_path)
        replica = TemporalDatabase.open(replica_path)
        applier = ReplicaApplier(replica, "127.0.0.1", 1,
                                 replica_id="r0", apply_interval=0)
        shipped = 0

        def ship():
            nonlocal shipped
            records = [[r.lsn, r.type.value, r.txn_id, r.payload]
                       for r in primary._wal.read_all(shipped)]
            shipped = records[-1][0]
            applier._ingest({"records": records, "head": shipped})
            assert applier.applied_lsn == shipped

        try:
            part, comp = self._parts(primary)
            ship()
            _warm(replica, part, comp)
            with primary.transaction() as txn:
                txn.update(part, {"cost": 4.0}, valid_from=0)
                txn.link("contains", part, comp, valid_from=0)
            ship()
            assert replica.version_at(part, 5).values["cost"] == 4.0
            assert replica.version_at(comp, 5).refs
            assert (_snapshot(replica, [part, comp])
                    == _snapshot(primary, [part, comp]))
            _assert_warm_equals_cold(replica, [part, comp])
        finally:
            replica.close()
            primary.close()


class TestHistoryBudget:
    def test_tiny_budget_evicts_and_stays_correct(self, db):
        parts = []
        for index in range(6):
            part = _insert_part(db, name=f"p{index}", cost=float(index))
            with db.transaction() as txn:
                txn.update(part, {"cost": index + 0.5}, valid_from=10)
            parts.append(part)
        # Room for about one atom's history plus its decodes.
        budget = 8 * (DECODE_CACHE_ENTRY_OVERHEAD + 40)
        db.engine._decode_cache = DecodedVersionCache(budget, db.metrics)
        evictions = db.metrics.value("engine.decode_cache.evictions")
        for _ in range(2):
            for index, part in enumerate(parts):
                history = db.history(part)
                assert history[-1].values["cost"] == index + 0.5
                assert db.version_at(part, 5).values["cost"] == index
        assert db.engine._decode_cache.bytes_used <= budget
        assert db.metrics.value("engine.decode_cache.evictions") > evictions
        _assert_warm_equals_cold(db, parts)

    def test_oversized_history_is_served_uncached(self, db):
        part = _insert_part(db, name="w" * 300)
        for step in range(1, 6):
            with db.transaction() as txn:
                txn.update(part, {"cost": float(step)}, valid_from=step)
        stored = db.engine.store.read_all(part)
        history_cost = (sum(len(sv.payload) for sv in stored)
                        + DECODE_CACHE_ENTRY_OVERHEAD * len(stored))
        # Every single version and the stored history alone fit, but not
        # the history together with its decodes.
        budget = 2 * history_cost - 1
        db.engine._decode_cache = DecodedVersionCache(budget, db.metrics)
        first = db.history(part)
        assert _cached_history(db, part) is None
        assert db.engine._decode_cache.bytes_used <= history_cost
        reads = db.metrics.total("heap.record_reads")
        assert [v.values for v in db.history(part)] == [
            v.values for v in first]
        assert db.metrics.total("heap.record_reads") > reads

    def test_history_and_decodes_share_one_budget(self):
        from repro.obs import MetricsRegistry
        from repro.core.engine import StoredHistory
        from repro.storage.strategies import StoredVersion

        per_version = DECODE_CACHE_ENTRY_OVERHEAD + 100
        cache = DecodedVersionCache(5 * per_version, MetricsRegistry())
        stored = [StoredVersion(0, 10, True, b"x" * 100),
                  StoredVersion(10, 20, True, b"y" * 100)]
        cache.put_history(1, StoredHistory(stored))
        cache.put(1, 0, "Part", object(), nbytes=100)
        cache.put(1, 1, "Part", object(), nbytes=100)
        assert cache.bytes_used == 4 * per_version
        cache.put_history(2, StoredHistory(stored))  # evicts atom 1 whole
        assert cache.histories([1]) == {}
        assert cache.get(1, 0) is None
        assert cache.histories([2])[2].stored == tuple(stored)
        cache.invalidate_atom(2)
        assert cache.bytes_used == 0


class TestPushdownCountsMatch:
    """The predicate skips the same versions on cached histories as the
    store-side filter does on a cold read."""

    def _stocked(self, db):
        parts = []
        with db.transaction() as txn:
            for index in range(6):
                parts.append(txn.insert(
                    "Part", {"name": f"p{index % 3}", "cost": float(index)},
                    valid_from=0))
        with db.transaction() as txn:
            for part in parts[::2]:
                txn.update(part, {"name": "p1"}, valid_from=4)
        return parts

    @pytest.mark.parametrize("text", [
        "SELECT ALL FROM Part WHERE Part.name = 'p1' VALID AT 2",
        "SELECT ALL FROM Part WHERE Part.name = 'p1' VALID AT 6",
        "SELECT ALL FROM Part WHERE Part.name = 'p1' VALID DURING [0, 9)",
    ])
    def test_cached_and_store_paths_skip_alike(self, db, text):
        from repro.server.protocol import encode_payload, result_to_payload

        parts = self._stocked(db)

        def run():
            before = db.metrics.value("engine.pushdown.skipped")
            result = encode_payload(result_to_payload(db.query(text)))
            return result, db.metrics.value("engine.pushdown.skipped") - before

        db.engine.drop_caches()
        cold = run()
        db.engine.drop_caches()
        _warm(db, *parts)
        warm = run()
        assert warm == cold
        assert cold[1] > 0


# -- randomized differential: warm engine vs cold engine --------------------


_DIFF_QUERIES = (
    "SELECT ALL FROM {mt} VALID AT {at}",
    "SELECT ALL FROM {mt} VALID AT {at} AS OF {tt}",
    "SELECT ALL FROM {mt} VALID HISTORY",
    "SELECT ALL FROM {mt} VALID DURING [{at}, {end})",
    "SELECT ALL FROM Part WHERE Part.cost > {cost} VALID DURING [{at}, {end})",
    "SELECT ALL FROM Part WHERE Part.cost > {cost} VALID AT {at}",
    "DIFF {mt} BETWEEN {tt} AND {tt2}",
)


def _mutate(db, rng, parts, comps):
    with db.transaction() as txn:
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["update", "update", "correct", "link",
                               "unlink", "delete", "insert"])
            at = rng.randrange(0, 30)
            try:
                if kind == "update":
                    txn.update(rng.choice(parts),
                               {"cost": float(rng.randrange(100))},
                               valid_from=at)
                elif kind == "correct":
                    txn.correct(rng.choice(parts), at, at + rng.randint(1, 6),
                                {"cost": float(rng.randrange(100))})
                elif kind == "link":
                    txn.link("contains", rng.choice(parts),
                             rng.choice(comps), valid_from=at)
                elif kind == "unlink":
                    txn.unlink("contains", rng.choice(parts),
                               rng.choice(comps), valid_from=at)
                elif kind == "delete":
                    txn.delete(rng.choice(comps), valid_from=20 + at)
                else:
                    parts.append(txn.insert(
                        "Part", {"name": f"n{len(parts)}", "cost": 1.0},
                        valid_from=at))
            except ReproError:
                pass  # an invalid random step (nothing to unlink, ...)


@pytest.mark.parametrize("seed", [1, 2])
def test_warm_answers_equal_cold_answers(db, seed):
    from repro.server.protocol import encode_payload, result_to_payload

    rng = random.Random(seed)
    with db.transaction() as txn:
        parts = [txn.insert("Part", {"name": f"p{i}", "cost": float(i)},
                            valid_from=0) for i in range(5)]
        comps = [txn.insert("Component", {"cname": f"c{i}"}, valid_from=0)
                 for i in range(5)]
        for index, part in enumerate(parts):
            txn.link("contains", part, comps[index], valid_from=0)
    checked = 0
    for _round in range(12):
        _mutate(db, rng, parts, comps)
        now = db._clock.now()
        texts = []
        for template in _DIFF_QUERIES:
            at = rng.randrange(0, 40)
            tt = rng.randrange(0, now)
            texts.append(template.format(
                mt="Part.contains.Component", at=at,
                end=at + rng.randint(1, 15), tt=tt,
                tt2=rng.randint(tt + 1, now), cost=rng.randrange(60)))
        rng.shuffle(texts)
        # Warm: whatever earlier rounds and earlier queries cached.
        warm = [encode_payload(result_to_payload(db.query(text)))
                for text in texts]
        for text, answer in zip(texts, warm):
            db.engine.drop_caches()
            assert encode_payload(result_to_payload(db.query(text))) \
                == answer, text
            checked += 1
        # Leave the engine warm again for the next round's mutations.
        for text in texts:
            db.query(text)
    assert checked == 12 * len(_DIFF_QUERIES)


def test_concurrent_readers_keep_entries_and_budget_consistent(db):
    """More reader threads than cores churn a small cache (fills,
    evictions, full-decode races) with a short switch interval; every
    answer must match the cold one and the byte accounting must add up."""
    import sys
    import threading

    parts = []
    for index in range(8):
        part = _insert_part(db, name=f"p{index}", cost=float(index))
        for step in range(1, 4):
            with db.transaction() as txn:
                txn.update(part, {"cost": index + step / 10}, valid_from=step)
        parts.append(part)
    engine = db.engine
    expected_histories = engine.all_versions_many(parts)
    expected_slices = {at: engine.version_at_many(parts, at)
                       for at in range(5)}
    # About three atoms' histories and decodes fit.
    engine._decode_cache = DecodedVersionCache(
        3 * 8 * (DECODE_CACHE_ENTRY_OVERHEAD + 40), db.metrics)
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                ids = rng.sample(parts, 3)
                with db._state_latch.read():
                    if rng.random() < 0.5:
                        got = engine.all_versions_many(ids)
                        want = {i: expected_histories[i] for i in ids}
                    else:
                        at = rng.randrange(5)
                        got = engine.version_at_many(ids, at)
                        want = {i: expected_slices[at][i] for i in ids}
                if got != want:
                    errors.append((seed, ids))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    cache = engine._decode_cache
    assert cache.bytes_used == sum(entry.cost
                                   for entry in cache._atoms.values())
    assert cache.bytes_used <= cache.capacity_bytes
