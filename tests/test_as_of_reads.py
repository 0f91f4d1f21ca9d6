"""Point reads, current and ``AS OF``, that decode only the version
they select.

:meth:`StorageEngine.point_reads` picks each answer newest-first from
the stored envelopes, which carry valid and transaction time, and
decodes just that version.  The differential tests hold it equal to the full-history
reference, :func:`repro.core.history.version_at` over ``all_versions``,
on every strategy, over histories with corrections, deletes and link
changes, for unknown and vacuumed atoms, and in each cache state the
engine can be in: cold, a cached stored history only, and a cached full
decode.  A pushed-down predicate applies to every request, ``AS OF``
ones included.

Below the engine, every strategy answers those reads with
:meth:`VersionStore.read_at_many`, a newest-first walk that stops at
each request's first hit.  Its differential tests hold it equal to the
same newest-first filter over a model of what was written, with
current and ``AS OF`` requests mixed in one call, on random store
histories and on real ones (corrections, windowed deletes, a
same-transaction update / delete / re-insert, chains long enough to
span pages, unknown and vacuumed atoms).

The cost gate holds the point of it: a ``SUBSCRIBE`` poll of N events
decodes at most 2N versions, and reads the same number of heap records,
whatever the chains' lengths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AtomType,
    Attribute,
    DatabaseConfig,
    DataType,
    ReproError,
    Schema,
    TemporalDatabase,
)
from repro.cdc.source import ChangeStreamSource
from repro.core import history as hist
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.strategies import (
    StoredVersion,
    VersionStrategy,
    open_version_store,
)
from repro.temporal import FOREVER, Interval
from repro.tools import vacuum_superseded


def mixed_history(db, seed=11):
    """A randomized history over Parts and Components: updates from
    assorted instants, past-window corrections (fragmented validity),
    windowed and open deletes, links and unlinks.  Returns the atom ids
    plus one atom that is deleted outright (vacuum removes it)."""
    rng = random.Random(seed)
    with db.transaction() as txn:
        parts = [txn.insert("Part", {"name": f"p{i}", "cost": float(i)},
                            valid_from=rng.randrange(0, 5))
                 for i in range(4)]
        comps = [txn.insert("Component", {"cname": f"c{i}"},
                            valid_from=0)
                 for i in range(3)]
        doomed = txn.insert("Part", {"name": "doomed"}, valid_from=0)
    with db.transaction() as txn:
        txn.delete(doomed, valid_from=0)
    for _ in range(60):
        roll = rng.random()
        try:
            with db.transaction() as txn:
                part = rng.choice(parts)
                if roll < 0.35:
                    txn.update(part, {"cost": float(rng.randrange(100))},
                               valid_from=rng.randrange(0, 40))
                elif roll < 0.55:
                    start = rng.randrange(0, 30)
                    txn.correct(part, start, start + rng.randrange(1, 15),
                                {"cost": float(rng.randrange(100))})
                elif roll < 0.65:
                    start = rng.randrange(10, 40)
                    txn.delete(part, valid_from=start,
                               valid_to=start + rng.randrange(1, 10))
                elif roll < 0.85:
                    txn.link("contains", part, rng.choice(comps),
                             valid_from=rng.randrange(0, 30))
                else:
                    txn.unlink("contains", part, rng.choice(comps),
                               valid_from=rng.randrange(0, 30))
        except ReproError:
            pass  # no validity there, double link, unlink of nothing
    return parts + comps + [doomed]


def requests_for(db, atoms):
    """Every atom (plus one never created) at instants on and around
    each stored boundary, as believed now and at every transaction
    time, ``FOREVER`` included."""
    unknown = max(atoms) + 1000
    instants = {0, 7, 23, FOREVER - 1}
    for atom_id in atoms:
        if db.engine.atom_exists(atom_id):
            for version in db.engine.all_versions(atom_id):
                instants.update((version.vt.start, version.vt.end - 1))
    believed = [None, *range(0, db._clock.now() + 2), FOREVER]
    return [(atom_id, at, tt) for atom_id in atoms + [unknown]
            for at in sorted(instants) for tt in believed]


def reference(db, requests):
    """``history.version_at`` over each atom's full decode."""
    histories = db.engine.all_versions_many({a for a, _, _ in requests})
    return {(a, at, tt): (hist.version_at(histories[a], at, tt)
                          if a in histories else None)
            for a, at, tt in requests}


def assert_same(found, expected):
    assert found.keys() == expected.keys()
    wrong = [request for request, version in expected.items()
             if found[request] != version]
    assert not wrong, wrong[:5]


def check_all_cache_states(db, atoms):
    engine = db.engine
    requests = requests_for(db, atoms)
    expected = reference(db, requests)

    engine.drop_caches()  # cold: every answer comes from the store
    assert_same(engine.point_reads(requests), expected)
    assert not engine._decode_cache.histories(atoms)  # and caches none
    # Warm on the slots the cold reads selected, never a whole history.
    assert_same(engine.point_reads(requests), expected)

    engine.drop_caches()  # whole slot tables, not every slot decoded
    engine.all_versions_many(atoms, Interval(0, FOREVER), hist.belief())
    histories = engine._decode_cache.histories(atoms)
    assert histories and any(slot.version is None
                             for slots in histories.values()
                             for slot in slots)
    assert_same(engine.point_reads(requests), expected)

    engine.drop_caches()  # every slot decoded
    engine.all_versions_many(atoms)
    assert all(slot.version is not None
               for slots in engine._decode_cache.histories(atoms).values()
               for slot in slots)
    assert_same(engine.point_reads(requests), expected)

    # The single-instant wrapper answers the same, cold and warm.
    ids = atoms + [max(atoms) + 1000]
    for at, tt in ((7, 5), (FOREVER - 1, db._clock.now()), (7, None)):
        for _ in range(2):
            assert engine.version_at_many(ids, at, tt) == {
                a: expected[(a, at, tt)] for a in ids}
        engine.drop_caches()


class TestAsOfDifferential:
    def test_mixed_history_all_cache_states(self, db):
        atoms = mixed_history(db)
        assert any(len(db.engine.all_versions(a)) > 10 for a in atoms)
        check_all_cache_states(db, atoms)

    def test_vacuumed_atoms(self, db):
        atoms = mixed_history(db, seed=5)
        cutoff = db._clock.now() // 2
        report = vacuum_superseded(db, cutoff)
        assert report.versions_removed
        doomed = atoms[-1]
        assert not db.engine.atom_exists(doomed)
        check_all_cache_states(db, atoms)
        assert db.engine.point_reads(
            [(doomed, 0, 1), (doomed, 0, None)]) == {
                (doomed, 0, 1): None, (doomed, 0, None): None}

    def test_empty_request_list(self, db):
        assert db.engine.point_reads([]) == {}


def as_points(requests):
    """Engine point requests ``(atom, at, tt)`` as the store reads them:
    each instant x its belief."""
    return [(atom_id, Interval.instant(at), hist.belief(tt))
            for atom_id, at, tt in requests]


def record_writes(store):
    """A model of *store*'s histories, ``{atom: [StoredVersion]}`` in seq
    order, kept by wrapping the store's mutators: a reference built from
    what was written, independent of the read walk under test."""
    model = {}

    def append_version(atom_id, sv, _append=store.append_version):
        seq = _append(atom_id, sv)
        model.setdefault(atom_id, []).append(sv)
        assert seq == len(model[atom_id]) - 1
        return seq

    def replace_version(atom_id, seq, sv, _replace=store.replace_version):
        _replace(atom_id, seq, sv)
        model[atom_id][seq] = sv

    def restamp(atom_id, seq, stamp, _restamp=store.restamp):
        _restamp(atom_id, seq, stamp)
        model[atom_id][seq] = StoredVersion(*stamp,
                                            model[atom_id][seq].payload)

    def pop_version(atom_id, _pop=store.pop_version):
        versions = model[atom_id]
        _pop(atom_id)  # popping the last version deletes the atom
        versions.pop()
        if not versions:
            model.pop(atom_id, None)

    def delete_atom(atom_id, _delete=store.delete_atom):
        _delete(atom_id)
        del model[atom_id]

    store.append_version, store.replace_version = (append_version,
                                                   replace_version)
    store.restamp, store.pop_version = restamp, pop_version
    store.delete_atom = delete_atom
    return model


def newest_first(model, requests):
    """The point-read reference: each request on an atom of *model*
    (see :func:`record_writes`) selects the newest version of the atom's
    written history whose envelope overlaps its point."""
    return {request: [(seq, sv) for seq, sv in enumerate(model[atom_id])
                      if sv.vt_start < vt.end and vt.start < sv.vt_end
                      and sv.tt_start < tt.end and tt.start < sv.tt_end][-1:]
            for request in requests
            for atom_id, vt, tt in [request] if atom_id in model}


#: A stored version; a transaction time without length is still open.
_version = st.builds(
    lambda vt_start, vt_len, tt_start, tt_len, payload: StoredVersion(
        vt_start, vt_start + vt_len, tt_start,
        FOREVER if tt_len is None else tt_start + tt_len, payload),
    st.integers(0, 20), st.integers(1, 12), st.integers(0, 20),
    st.none() | st.integers(0, 12), st.binary(max_size=40))


class TestStorePointRead:
    """``read_at_many`` == the newest-first filter of the written model,
    on all three strategies, with current and ``AS OF`` requests mixed
    in one call."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["append", "append",
                                               "append", "replace",
                                               "pop", "delete"]),
                              st.integers(1, 4), st.integers(0, 200),
                              _version),
                    max_size=60),
           st.lists(st.tuples(st.integers(1, 6), st.integers(0, 32),
                              st.none() | st.integers(0, 32)),
                    max_size=30),
           st.sampled_from(list(VersionStrategy)),
           st.booleans())
    def test_random_histories(self, tmp_path_factory, operations, requests,
                              strategy, deep):
        disk = DiskManager(tmp_path_factory.mktemp("asof") / "s.db")
        store = open_version_store(strategy, BufferManager(disk,
                                                           capacity=16))
        model = record_writes(store)
        if deep:  # 160 versions: the vdir and clustered record span
            for step in range(160):
                store.append_version(1, StoredVersion(
                    step % 30, step % 30 + 3, step % 25,
                    step % 25 + 4 if step % 3 == 0 else FOREVER, bytes(24)))
        counts = {}
        for kind, atom_id, seq_hint, version in operations:
            count = counts.get(atom_id, 0)
            if kind == "append":
                counts[atom_id] = store.append_version(atom_id, version) + 1
            elif kind == "replace" and count:
                store.replace_version(atom_id, seq_hint % count, version)
            elif kind == "pop" and count:
                store.pop_version(atom_id)
                counts[atom_id] = count - 1
            elif kind == "delete" and count:
                store.delete_atom(atom_id)
                counts[atom_id] = 0
        # Repeats and several requests per atom share one walk; atoms 5
        # and 6 never exist.
        requests = as_points(requests + requests[:3])
        assert store.read_at_many(requests) == newest_first(model, requests)
        assert store.read_at_many([]) == {}
        disk.close()


class TestEnginePointRead:
    """The same differential over histories the engine wrote."""

    @pytest.fixture(autouse=True)
    def record(self, db):
        self.written = record_writes(db.engine.store)

    def check(self, db, atoms):
        store = db.engine.store
        requests = as_points(requests_for(db, atoms))
        assert store.read_at_many(requests) == newest_first(self.written,
                                                            requests)

    def test_corrections_and_windowed_deletes(self, db):
        self.check(db, mixed_history(db, seed=3))

    def test_vacuumed_atoms(self, db):
        atoms = mixed_history(db, seed=8)
        assert vacuum_superseded(db, db._clock.now() // 2).versions_removed
        self.check(db, atoms)

    def test_superseded_in_one_transaction(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
            txn.delete(part, valid_from=0)
            txn.insert("Part", {"name": "q", "cost": 3.0}, valid_from=0,
                       atom_id=part)
        with db.transaction() as txn:
            txn.update(part, {"cost": 4.0}, valid_from=5)
        self.check(db, [part])

    def test_chains_spanning_pages(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p" * 40, "cost": 0.0},
                              valid_from=0)
        for step in range(160):
            with db.transaction() as txn:
                txn.update(part, {"cost": float(step)}, valid_from=step % 7)
        assert len(db.engine.all_versions(part)) > 150
        self.check(db, [part])


class TestPointReadPushdown:
    """A pushed-down predicate applies to every point read: an
    ``AS OF`` request whose selected version fails the
    predicate comes back ``None``, undecoded and counted."""

    def test_as_of_request_honours_pushdown(self, db):
        from repro.mql.planner import PushdownSpec
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        first_tt = db.version_at(part, 2).tt.start
        with db.transaction() as txn:
            txn.update(part, {"cost": 5.0}, valid_from=0)
        pred = db.engine.compile_pushdown(PushdownSpec(
            "Part", (("cost", "GT", 3.0),)))
        skipped = db.metrics.counter("engine.pushdown.skipped")
        for warm in (False, True):
            db.engine.drop_caches()
            if warm:  # the cached-envelope path
                db.engine.all_versions_many([part], Interval(0, FOREVER),
                                            hist.belief())
            before = skipped.value
            with db._read_view():
                failing = db.engine.version_at_many(
                    [part], 2, tt=first_tt, pred=pred)
                passing = db.engine.version_at_many(
                    [part], 2, tt=db._clock.now(), pred=pred)
            assert failing == {part: None}
            assert skipped.value == before + 1
            assert passing[part].values["cost"] == 5.0


def _chain_db(path, strategy, chain):
    """Four Parts, each a chain of *chain* stored versions (an update
    from instant 0 closes one version and appends one)."""
    schema = Schema("chains")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT)]))
    db = TemporalDatabase.create(path, schema,
                                 DatabaseConfig(strategy=strategy,
                                                durability="none"))
    with db.transaction() as txn:
        parts = [txn.insert("Part", {"name": f"p{i}", "cost": 0.0},
                            valid_from=0) for i in range(4)]
    for step in range(chain - 1):
        with db.transaction() as txn:
            for part in parts:
                txn.update(part, {"cost": step + 1.0}, valid_from=0)
    assert all(len(db.history(part)) == chain for part in parts)
    return db, parts


POLL_EVENTS = 16


class TestCdcDecodeCost:
    """CI gate: a poll's decodes and record reads track its events, not
    chain length."""

    def test_poll_decodes_at_most_two_versions_per_event(self, tmp_path,
                                                         strategy):
        decodes = {}
        record_reads = {}
        for chain in (10, 100, 400):
            db, parts = _chain_db(str(tmp_path / f"db{chain}"), strategy,
                                  chain)
            source = ChangeStreamSource(db)
            start = source.handle({"subscriber": "gate"})["next_from"]
            for step in range(POLL_EVENTS // 2):
                with db.transaction() as txn:  # 2-update commits
                    txn.update(parts[step % 4], {"cost": -1.0 - step},
                               valid_from=0)
                    txn.update(parts[(step + 1) % 4],
                               {"cost": -100.0 - step}, valid_from=0)
            db.engine.drop_caches()
            misses = db.metrics.counter("engine.decode_cache.misses")
            before = misses.value
            reads = db.metrics.total("heap.record_reads")
            body = source.handle({"subscriber": "gate", "from_lsn": start})
            decodes[chain] = misses.value - before
            record_reads[chain] = (db.metrics.total("heap.record_reads")
                                   - reads)
            assert len(body["events"]) == POLL_EVENTS
            assert all(event["kind"] == "attribute_changed"
                       for event in body["events"])
            db.close()
        assert all(count <= 2 * POLL_EVENTS for count in decodes.values()), (
            decodes)
        assert len(set(decodes.values())) == 1, decodes  # flat in length
        assert len(set(record_reads.values())) == 1, record_reads

