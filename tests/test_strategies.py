"""Tests for the three version-storage strategies.

Every test in :class:`TestContract` runs against all strategies through
the ``store`` fixture — the contract is strategy-independent; the
dedicated classes below pin down the per-strategy cost signatures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, UnknownAtomError
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.strategies import (
    StoredVersion,
    VersionStrategy,
    open_version_store,
)
from repro.temporal import FOREVER, TMIN, Interval
from repro.temporal.timestamp import MAX_CHRONON


@pytest.fixture
def store(buffer, strategy):
    return open_version_store(strategy, buffer)


def sv(start, end, live=True, payload=b""):
    """A version valid over ``[start, end)``, believed from 0 on when
    *live*, else over ``[0, 1)``."""
    return StoredVersion(start, end, 0, FOREVER if live else 1,
                         payload or f"v[{start},{end})".encode())


def history(store, atom_id):
    return [version for _, version in store.read_all_many([atom_id])[atom_id]]


#: The belief in current knowledge: only an open transaction time
#: meets the last chronon.
NOW = Interval.instant(MAX_CHRONON)


def point(atom_id, at, tt=NOW):
    """A point request: *atom_id* at *at* as believed during *tt*."""
    return atom_id, Interval.instant(at), tt


def current(atom_ids, at):
    """Current-knowledge point reads of *atom_ids* at *at*."""
    return [point(atom_id, at) for atom_id in atom_ids]


def hit_at(store, atom_id, at):
    """The ``(seq, version)`` a current read at *at* selects, or None."""
    (selected,) = store.read_at_many(current([atom_id], at)).values()
    return selected[0] if selected else None


class TestContract:
    def test_missing_atom(self, store):
        assert not store.exists(9)
        assert store.read_all_many([9]) == {}
        assert store.read_at_many(current([9], 0)) == {}
        with pytest.raises(UnknownAtomError):
            store.read_current(9)

    def test_single_version(self, store):
        assert store.append_version(1, sv(0, 100)) == 0
        assert store.exists(1)
        assert len(history(store, 1)) == 1
        assert store.read_current(1) == (0, sv(0, 100))

    def test_append_order_preserved(self, store):
        for i in range(10):
            assert store.append_version(1, sv(i * 10, (i + 1) * 10)) == i
        versions = history(store, 1)
        assert [v.vt_start for v in versions] == [i * 10 for i in range(10)]

    def test_read_at_hits_the_right_version(self, store):
        for i in range(10):
            store.append_version(1, sv(i * 10, (i + 1) * 10))
        assert hit_at(store, 1, 55) == (5, sv(50, 60))
        assert hit_at(store, 1, 0) == (0, sv(0, 10))
        assert hit_at(store, 1, 99) == (9, sv(90, 100))

    def test_read_at_miss(self, store):
        store.append_version(1, sv(0, 10))
        assert hit_at(store, 1, 50) is None

    def test_read_at_skips_dead_versions(self, store):
        store.append_version(1, sv(0, 100, live=False))
        store.append_version(1, sv(0, 100, live=True, payload=b"alive"))
        assert hit_at(store, 1, 5) == (1, sv(0, 100, payload=b"alive"))

    def test_replace_version(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        store.replace_version(1, 0, sv(0, 10, live=False, payload=b"closed"))
        versions = history(store, 1)
        assert versions[0] == sv(0, 10, live=False, payload=b"closed")
        assert versions[1] == sv(10, 20)

    def test_replace_with_larger_payload(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        big = b"B" * 3000
        store.replace_version(1, 0, sv(0, 10, payload=big))
        assert history(store, 1)[0].payload == big

    def test_replace_newest(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        store.replace_version(1, 1, sv(10, 20, payload=b"new"))
        assert store.read_current(1) == (1, sv(10, 20, payload=b"new"))

    def test_replace_bad_seq(self, store):
        store.append_version(1, sv(0, 10))
        with pytest.raises(StorageError):
            store.replace_version(1, 5, sv(0, 10))

    def test_pop_version(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        store.pop_version(1)
        assert len(history(store, 1)) == 1
        assert store.read_current(1) == (0, sv(0, 10))

    def test_pop_last_removes_atom(self, store):
        store.append_version(1, sv(0, 10))
        store.pop_version(1)
        assert not store.exists(1)

    def test_pop_then_append_again(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        store.pop_version(1)
        assert store.append_version(1, sv(10, 30)) == 1
        assert history(store, 1) == [sv(0, 10), sv(10, 30)]

    def test_delete_atom(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(1, sv(10, 20))
        store.delete_atom(1)
        assert not store.exists(1)

    def test_many_atoms_are_independent(self, store):
        for atom_id in range(1, 30):
            for i in range(atom_id % 5 + 1):
                store.append_version(atom_id, sv(i, i + 1))
        for atom_id in range(1, 30):
            assert len(history(store, atom_id)) == atom_id % 5 + 1
        assert sorted(store.atom_ids()) == list(range(1, 30))

    def test_scan_all(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(2, sv(5, 15))
        store.append_version(2, sv(15, 25))
        assert store.read_all_many(store.atom_ids()) == {
            1: [(0, sv(0, 10))], 2: [(0, sv(5, 15)), (1, sv(15, 25))]}

    def test_batched_reads_accept_an_iterator(self, store):
        store.append_version(1, sv(0, 10))
        store.append_version(2, sv(5, 15))
        assert store.read_at_many(iter(current([1, 2, 9, 1], 7))) == {
            point(1, 7): [(0, sv(0, 10))], point(2, 7): [(0, sv(5, 15))]}
        assert store.read_all_many(iter([2, 9])) == {2: [(0, sv(5, 15))]}

    def test_large_payloads_span_pages(self, store):
        big = bytes(range(256)) * 64  # 16 KiB
        store.append_version(1, sv(0, 10, payload=big))
        store.append_version(1, sv(10, 20, payload=big * 2))
        versions = history(store, 1)
        assert versions[0].payload == big
        assert versions[1].payload == big * 2

    def test_long_history(self, store):
        for i in range(200):
            store.append_version(1, sv(i, i + 1))
        assert store.append_version(1, sv(200, 201)) == 200
        assert hit_at(store, 1, 137) == (137, sv(137, 138))

    def test_stats_reflect_growth(self, store):
        empty_pages = store.stats().total_pages
        for atom_id in range(1, 40):
            store.append_version(atom_id, sv(0, 10, payload=b"x" * 500))
        grown = store.stats()
        assert grown.total_pages > empty_pages
        assert grown.total_bytes == grown.total_pages * grown.page_size

    def test_persist_and_reopen(self, tmp_path, strategy):
        disk = DiskManager(tmp_path / "s.db")
        pool = BufferManager(disk, capacity=32)
        store = open_version_store(strategy, pool)
        for atom_id in (1, 2, 3):
            for i in range(4):
                store.append_version(atom_id, sv(i * 5, (i + 1) * 5))
        state = store.persist_state()
        pool.flush_all()
        reopened = open_version_store(strategy, pool, state)
        for atom_id in (1, 2, 3):
            assert len(history(reopened, atom_id)) == 4
            assert hit_at(reopened, atom_id, 7) == (1, sv(5, 10))
        disk.close()


class TestChainedSignature:
    """The chained store's walk cost grows with temporal distance."""

    def test_chain_walk_reads_proportional_to_distance(self, tmp_path):
        disk = DiskManager(tmp_path / "c.db")
        pool = BufferManager(disk, capacity=256)
        store = open_version_store(VersionStrategy.CHAINED, pool)
        for i in range(64):
            store.append_version(1, sv(i, i + 1, payload=b"p" * 200))
        pool.stats.reset()
        hit_at(store, 1, 63)  # newest: directory + 1 record
        near = pool.stats.hits + pool.stats.misses
        pool.stats.reset()
        hit_at(store, 1, 0)  # oldest: walks the whole chain
        far = pool.stats.hits + pool.stats.misses
        assert far > near * 4
        disk.close()


class TestSeparatedSignature:
    """The separated store answers current reads from the directory."""

    def test_current_read_is_flat_in_history_length(self, tmp_path):
        disk = DiskManager(tmp_path / "s.db")
        pool = BufferManager(disk, capacity=256)
        store = open_version_store(VersionStrategy.SEPARATED, pool)
        for i in range(64):
            store.append_version(1, sv(i, i + 1, payload=b"p" * 200))
        pool.stats.reset()
        hit_at(store, 1, 63)
        current_cost = pool.stats.hits + pool.stats.misses
        pool.stats.reset()
        hit_at(store, 1, 0)
        past_cost = pool.stats.hits + pool.stats.misses
        # Past access adds the version directory probe but does not walk.
        assert past_cost <= current_cost + 4
        disk.close()


_SEGMENTS = {VersionStrategy.CLUSTERED: ("clustered",),
             VersionStrategy.CHAINED: ("chained",),
             VersionStrategy.SEPARATED: ("current", "vdir", "history")}


def segment_reads(db, read):
    """``read(store)`` and the heap records it read per segment."""
    store = db.engine.store
    segments = _SEGMENTS[store.strategy]
    before = {name: db.metrics.value("heap.record_reads", segment=name)
              for name in segments}
    answer = read(store)
    return answer, {name: db.metrics.value("heap.record_reads", segment=name)
                    - before[name] for name in segments}


def deep_part(db):
    """A part with 41 versions, every one valid at 5: each update from
    0 closes the live version's transaction time and appends its
    successor."""
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "p", "cost": 0.0}, valid_from=0)
    for step in range(1, 41):
        with db.transaction() as txn:
            txn.update(part, {"cost": float(step)}, valid_from=0)
    versions = db.engine.all_versions(part)
    assert len(versions) == 41
    assert all(version.vt.contains(5) for version in versions)
    return part, versions


class TestPointReadSegments:
    """CI gate: a point read, current or ``AS OF``, reads per heap
    segment only the records its newest-first walk must pass: the
    envelope's transaction time keeps it off every record whose valid
    time holds the instant but which is not believed at the request's
    transaction time."""

    def read(self, db, at, tt=None):
        """One cold read of the part at *at* as believed at *tt*: its
        hit and the heap records it read per segment."""
        request = point(self.part, at,
                        NOW if tt is None else Interval.instant(tt))
        return segment_reads(db, lambda store: (
            store.read_at_many([request])[request] or [None])[0])

    def test_current_reads_skip_closed_records(self, db):
        with db.transaction() as txn:
            self.part = txn.insert("Part", {"name": "p", "cost": 0.0},
                                   valid_from=0)
        for step in range(1, 9):  # live [0,10) ... [70,80), [80,inf)
            with db.transaction() as txn:
                txn.update(self.part, {"cost": float(step)},
                           valid_from=10 * step)
        strategy = db.engine.store.strategy
        count = len(history(db.engine.store, self.part))

        # The newest version holds the instant: one record.
        hit, reads = self.read(db, 85)
        assert hit[0] == count - 1 and hit[1].live
        assert reads == {VersionStrategy.CLUSTERED: {"clustered": 1},
                         VersionStrategy.CHAINED: {"chained": 1},
                         VersionStrategy.SEPARATED: {
                             "current": 1, "vdir": 0, "history": 0},
                         }[strategy]

        # A correction closes [30,40) and appends its fragments.
        with db.transaction() as txn:
            txn.correct(self.part, 32, 36, {"cost": -1.0})
        count = len(history(db.engine.store, self.part))
        hit, reads = self.read(db, 34)
        assert hit[1].live and hit[1].vt_start <= 34 < hit[1].vt_end
        if strategy is VersionStrategy.CHAINED:
            assert reads == {"chained": count - hit[0]}  # stops at the hit
        elif strategy is VersionStrategy.SEPARATED:
            # The newest record holding 34 is the hit: one version
            # record, the vdir only if the hit is a history version.
            assert reads["current"] + reads["history"] == 1
            assert reads["vdir"] == reads["history"]
        else:
            assert reads == {"clustered": 1}

        # A windowed delete leaves 55 to closed versions alone: a
        # current read reads none of them.
        with db.transaction() as txn:
            txn.delete(self.part, valid_from=52, valid_to=58)
        count = len(history(db.engine.store, self.part))
        closed = [sv for sv in history(db.engine.store, self.part)
                  if sv.vt_start <= 55 < sv.vt_end]
        assert len(closed) >= 2 and not any(sv.live for sv in closed)
        hit, reads = self.read(db, 55)
        assert hit is None
        assert reads == {VersionStrategy.CLUSTERED: {"clustered": 1},
                         VersionStrategy.CHAINED: {"chained": count},
                         VersionStrategy.SEPARATED: {
                             "current": 0, "vdir": 1, "history": 0},
                         }[strategy]


    def test_as_of_reads_open_only_the_selected_record(self, db):
        self.part, versions = deep_part(db)
        strategy = db.engine.store.strategy
        hit, reads = self.read(db, 5, versions[2].tt.start)
        assert hit[0] == 2
        assert reads == {VersionStrategy.CLUSTERED: {"clustered": 1},
                         VersionStrategy.CHAINED: {"chained": 39},
                         VersionStrategy.SEPARATED: {
                             "current": 0, "vdir": 1, "history": 1},
                         }[strategy]


class TestRangeReadSegments:
    """CI gate: a rectangle read reads per heap segment the records
    holding the envelopes it passes and only the payload records it
    selects: CLUSTERED its one record, CHAINED the whole chain,
    SEPARATED the vdir, the selected history records and the current
    record only when its stamp is selected."""

    def read(self, db, part, tt):
        """One cold read of the part's versions believed during *tt*:
        their seqs and the heap records it read per segment."""
        return segment_reads(db, lambda store: [
            seq for seq, _ in store.read_all_many([part], tt=tt)[part]])

    def test_narrow_beliefs_read_only_the_selected_records(self, db):
        part, versions = deep_part(db)
        strategy = db.engine.store.strategy
        seqs, reads = self.read(db, part,
                                Interval.instant(versions[2].tt.start))
        assert seqs == [2]
        assert reads == {VersionStrategy.CLUSTERED: {"clustered": 1},
                         VersionStrategy.CHAINED: {"chained": 41},
                         VersionStrategy.SEPARATED: {
                             "current": 0, "vdir": 1, "history": 1},
                         }[strategy]
        seqs, reads = self.read(
            db, part, Interval(versions[38].tt.start, FOREVER))
        assert seqs == [38, 39, 40]
        assert reads == {VersionStrategy.CLUSTERED: {"clustered": 1},
                         VersionStrategy.CHAINED: {"chained": 41},
                         VersionStrategy.SEPARATED: {
                             "current": 1, "vdir": 1, "history": 2},
                         }[strategy]


class TestSeparatedSplices:
    """SEPARATED edits its version directory by splicing fixed-size
    entries; every read must agree with CLUSTERED (which re-encodes the
    whole history) across the boundary where the vdir starts to span."""

    # 4 KiB pages hold 156 narrow vdir entries unspanned; 160 versions
    # give 159.
    VERSIONS = 160

    @staticmethod
    def version(index, live=True, size=40):
        return sv(index * 10, index * 10 + 10, live,
                  bytes([index % 251]) * size)

    @staticmethod
    def assert_same(separated, clustered, atom_ids):
        for vt, tt in ((Interval.always(), Interval.always()),
                       (Interval.always(), Interval.instant(MAX_CHRONON)),
                       (Interval(800, 1600), Interval.always()),
                       (Interval.instant(5), Interval.instant(0))):
            assert (separated.read_all_many(atom_ids, vt, tt)
                    == clustered.read_all_many(atom_ids, vt, tt))
        # Point and rectangle requests mixed in one walk.
        requests = [request for at in (0, 5, 805, 1595, 10_000)
                    for request in current(atom_ids, at)] + [
            (atom_id, Interval(800, 1600), tt) for atom_id in atom_ids
            for tt in (NOW, Interval.always())]
        assert (separated.read_at_many(requests)
                == clustered.read_at_many(requests))

    def test_spanned_vdir_splices_match_clustered(self, tmp_path):
        disk = DiskManager(tmp_path / "splice.db")
        pool = BufferManager(disk, capacity=256)
        assert pool.page_size == 4096
        separated = open_version_store(VersionStrategy.SEPARATED, pool)
        clustered = open_version_store(VersionStrategy.CLUSTERED, pool)
        atoms = [1, 2]
        for index in range(self.VERSIONS):
            for atom_id in atoms:
                version = self.version(index, live=index % 7 != 3)
                separated.append_version(atom_id, version)
                clustered.append_version(atom_id, version)
            if index in (0, 1, 155, 156, 157, self.VERSIONS - 1):
                self.assert_same(separated, clustered, atoms)
        # The history entries no longer fit one page: the vdir spans.
        _cur, vdir_rid, _count, _env = separated._dir_entry(1)
        assert len(separated._vdir.read(vdir_rid)) > separated._vdir.max_unspanned()
        for seq in (0, 80, self.VERSIONS - 2):
            edited = self.version(seq + 1000, live=seq != 80, size=70)
            separated.replace_version(1, seq, edited)
            clustered.replace_version(1, seq, edited)
            self.assert_same(separated, clustered, atoms)
        # Roll back across the span boundary (159 -> 139 history entries).
        for _ in range(20):
            separated.pop_version(1)
            clustered.pop_version(1)
            self.assert_same(separated, clustered, atoms)
        _cur, vdir_rid, count, _env = separated._dir_entry(1)
        assert count == self.VERSIONS - 20
        assert len(separated._vdir.read(vdir_rid)) <= separated._vdir.max_unspanned()
        # A chronon past 32 bits re-encodes the vdir wide, and it spans
        # again.
        wide = StoredVersion(2**40, 2**41, 0, FOREVER, b"w" * 70)
        separated.replace_version(1, 40, wide)
        clustered.replace_version(1, 40, wide)
        self.assert_same(separated, clustered, atoms)
        _cur, vdir_rid, _count, _env = separated._dir_entry(1)
        vdir = separated._vdir.read(vdir_rid)
        assert vdir[0] == 1 and len(vdir) > separated._vdir.max_unspanned()
        disk.close()

    def test_current_record_keeps_its_rid_across_appends(self, tmp_path):
        disk = DiskManager(tmp_path / "rid.db")
        pool = BufferManager(disk, capacity=64)
        store = open_version_store(VersionStrategy.SEPARATED, pool)
        # Fill the current segment's first page, so the atom under test
        # lands on a later one; then free room on the first page, where a
        # delete-and-reinsert would move the current record.
        for atom_id in range(1, 41):
            store.append_version(atom_id, self.version(0, size=200))
        current_rid = store._dir_entry(40)[0]
        assert current_rid.page_id != store._dir_entry(1)[0].page_id
        store.delete_atom(1)
        for index in range(1, 40):
            store.append_version(40, self.version(index, size=200 + index))
            assert store._dir_entry(40)[0] == current_rid
        assert store.read_current(40) == (39, self.version(39, size=239))
        disk.close()


class TestClusteredSignature:
    """The clustered store rewrites the whole record per append."""

    def test_append_cost_grows_with_history(self, tmp_path):
        disk = DiskManager(tmp_path / "cl.db")
        pool = BufferManager(disk, capacity=256)
        store = open_version_store(VersionStrategy.CLUSTERED, pool)
        payload = b"p" * 400
        for i in range(40):
            store.append_version(1, sv(i, i + 1, payload=payload))
        pool.disk.stats.reset()
        store.append_version(1, sv(41, 42, payload=payload))
        writes_long = pool.disk.stats.writes + pool.stats.hits
        store2 = open_version_store(VersionStrategy.CLUSTERED, pool)
        store2.append_version(2, sv(0, 1, payload=payload))
        pool.disk.stats.reset()
        pool.stats.reset()
        store2.append_version(2, sv(1, 2, payload=payload))
        writes_short = pool.disk.stats.writes + pool.stats.hits
        assert writes_long > writes_short
        disk.close()


#: Chronons around both stored widths: the sentinels, the 32-bit
#: extremes (finite values there must not read back as sentinels), and
#: values only 64 bits hold.
_CHRONONS = [TMIN, -2**31, -2**31 + 1, -3, 0, 5, 9, 2**31 - 2, 2**31 - 1,
             2**31, 2**40, FOREVER]


def _interval(pair):
    start, end = sorted(pair)
    return start, end


_stamp_pairs = st.lists(st.sampled_from(_CHRONONS), min_size=2, max_size=2,
                        unique=True).map(_interval).filter(
    lambda pair: pair[0] != FOREVER and pair[1] != TMIN)

#: One side of a rectangle read: the whole time line, the belief in
#: current knowledge, an instant, or any interval over the chronons.
_sides = st.one_of(
    st.just(Interval.always()), st.just(Interval.instant(MAX_CHRONON)),
    st.sampled_from(_CHRONONS[:-1]).map(Interval.instant),
    _stamp_pairs.map(lambda pair: Interval(*pair)))


def _overlaps(version, vt, tt):
    """The model's envelope filter: *version* meets *vt* x *tt*."""
    return (version.vt_start < vt.end and vt.start < version.vt_end
            and version.tt_start < tt.end and tt.start < version.tt_end)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["append", "append", "replace",
                                           "restamp", "pop"]),
                          st.integers(1, 4),
                          st.integers(0, 30),
                          _stamp_pairs, _stamp_pairs,
                          st.binary(max_size=50)),
                max_size=40),
       st.sampled_from(list(VersionStrategy)),
       st.lists(st.tuples(_sides, _sides), max_size=4))
def test_random_operations_match_model(tmp_path_factory, operations,
                                       strategy, rectangles):
    """Every strategy behaves like a dict of version lists, whatever
    width its stamps are stored at, and reads the same after reopening
    from its persisted state: a rectangle request returns the versions
    the model's envelope filter keeps, a point request the newest of
    them.  ``read_all_many`` is the same walk, so a drawn rectangle
    whose two sides are both instants is a point request there too."""
    directory = tmp_path_factory.mktemp("storeprop")
    disk = DiskManager(directory / "s.db")
    pool = BufferManager(disk, capacity=16)
    store = open_version_store(strategy, pool)
    model = {}
    for kind, atom_id, seq_hint, vt, tt, payload in operations:
        version = StoredVersion(*vt, *tt, payload)
        if kind == "append":
            store.append_version(atom_id, version)
            model.setdefault(atom_id, []).append(version)
        elif kind in ("replace", "restamp") and model.get(atom_id):
            seq = seq_hint % len(model[atom_id])
            if kind == "restamp":
                version = StoredVersion(*vt, *tt, model[atom_id][seq].payload)
                store.restamp(atom_id, seq, (*vt, *tt))
            else:
                store.replace_version(atom_id, seq, version)
            model[atom_id][seq] = version
        elif kind == "pop" and model.get(atom_id):
            store.pop_version(atom_id)
            model[atom_id].pop()
            if not model[atom_id]:
                del model[atom_id]
    reopened = open_version_store(strategy, pool, store.persist_state())
    rectangles = [(Interval.always(), Interval.always()),
                  (Interval.always(), NOW), *rectangles]
    # Point and rectangle requests mixed in one walk, atom 5 unknown.
    requests = [(atom_id, vt, tt) for atom_id in range(1, 6)
                for vt, tt in rectangles] + [
        point(atom_id, at, tt) for atom_id in range(1, 6)
        for at in _CHRONONS[1:-1]
        for tt in (NOW, Interval.instant(0), Interval.instant(2**31 - 1))]
    expected = {}
    for request in requests:
        atom_id, vt, tt = request
        if atom_id in model:
            selected = [(seq, version)
                        for seq, version in enumerate(model[atom_id])
                        if _overlaps(version, vt, tt)]
            # A point request selects only the newest overlapping one.
            expected[request] = (selected[-1:] if vt.end - vt.start == 1
                                 == tt.end - tt.start else selected)
    for each in (store, reopened):
        assert sorted(each.atom_ids()) == sorted(model)
        assert each.read_at_many(requests) == expected
        for vt, tt in rectangles:
            assert each.read_all_many(range(1, 6), vt, tt) == {
                atom_id: expected[(atom_id, vt, tt)] for atom_id in model}
        for atom_id, versions in model.items():
            assert each.read_current(atom_id) == (len(versions) - 1,
                                                  versions[-1])
    disk.close()
