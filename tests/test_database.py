"""Tests for the database facade: transactions, DML, persistence.

The ``db`` fixture parametrizes every test over all three storage
strategies.
"""

import time

import pytest

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.errors import (
    CardinalityError,
    CatalogError,
    StorageError,
    TemporalUpdateError,
    TransactionStateError,
    TypeMismatchError,
    UnknownAtomError,
)
from repro.temporal import FOREVER, Interval


class TestTransactions:
    def test_context_manager_commits(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        assert db.version_at(part, 0) is not None

    def test_exception_aborts(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "keep"}, valid_from=0)
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.update(part, {"name": "changed"}, valid_from=5)
                txn.insert("Part", {"name": "doomed"}, valid_from=0)
                raise RuntimeError("boom")
        assert db.version_at(part, 10).values["name"] == "keep"
        assert len(db.atoms_of_type("Part")) == 1

    def test_explicit_begin_commit(self, db):
        txn = db.begin()
        part = txn.insert("Part", {"name": "x"}, valid_from=0)
        txn.commit()
        assert db.version_at(part, 0) is not None

    def test_explicit_abort_undoes_everything(self, db):
        txn = db.begin()
        part = txn.insert("Part", {"name": "x"}, valid_from=0)
        hub = txn.insert("Component", {"cname": "hub"}, valid_from=0)
        txn.link("contains", part, hub, valid_from=0)
        txn.update(part, {"name": "y"}, valid_from=5)
        txn.abort()
        assert db.atoms_of_type("Part") == []
        assert db.atoms_of_type("Component") == []

    def test_operations_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.insert("Part", {"name": "x"}, valid_from=0)

    def test_transaction_time_visible(self, db):
        txn = db.begin()
        assert txn.transaction_time >= 0
        txn.commit()

    def test_failed_op_inside_txn_leaves_txn_usable(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            with pytest.raises(TypeMismatchError):
                txn.update(part, {"cost": "expensive"}, valid_from=5)
            txn.update(part, {"cost": 9.5}, valid_from=5)
        assert db.version_at(part, 6).values["cost"] == 9.5


class TestTemporalDML:
    def test_insert_with_bounded_validity(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0,
                              valid_to=10)
        assert db.version_at(part, 9) is not None
        assert db.version_at(part, 10) is None

    def test_update_from(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        assert db.version_at(part, 9).values["cost"] == 1.0
        assert db.version_at(part, 10).values["cost"] == 2.0
        assert db.version_at(part, 9).values["name"] == "x"  # carried over

    def test_update_window(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 5.0}, valid_from=10, valid_to=20)
        assert db.version_at(part, 15).values["cost"] == 5.0
        assert db.version_at(part, 25).values["cost"] == 1.0

    def test_update_outside_validity_rejected(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0,
                              valid_to=5)
        with pytest.raises(TemporalUpdateError):
            with db.transaction() as txn:
                txn.update(part, {"name": "y"}, valid_from=10)

    def test_delete_then_reinsert_validity(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            txn.delete(part, valid_from=10)
        assert db.version_at(part, 10) is None
        # Re-open validity of the very same atom after the gap.
        with db.transaction() as txn:
            txn.insert("Part", {"name": "x2"}, valid_from=20, atom_id=part)
        assert db.version_at(part, 15) is None
        assert db.version_at(part, 25).values["name"] == "x2"

    def test_double_insert_overlap_rejected(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        with pytest.raises(TemporalUpdateError):
            with db.transaction() as txn:
                txn.update(part, {"name": "y"}, valid_from=5)
                txn.delete(part, valid_from=0)
                txn.update(part, {"name": "z"}, valid_from=1)

    def test_correction_preserves_old_belief(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x", "cost": 10.0},
                              valid_from=0)
        tt_before = db._clock.now()
        with db.transaction() as txn:
            txn.correct(part, 0, 5, {"cost": 99.0})
        assert db.version_at(part, 3).values["cost"] == 99.0
        assert db.version_at(part, 7).values["cost"] == 10.0
        assert db.version_at(part, 3, tt=tt_before - 1).values["cost"] == 10.0


class TestLinks:
    def test_link_symmetry(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "hub"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
        assert db.version_at(part, 1).targets("contains") == {hub}
        assert db.version_at(hub, 1).targets("contains", "in") == {part}

    def test_link_window(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=5, valid_to=10)
        assert db.version_at(part, 4).targets("contains") == frozenset()
        assert db.version_at(part, 7).targets("contains") == {hub}
        assert db.version_at(part, 12).targets("contains") == frozenset()

    def test_unlink(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
        with db.transaction() as txn:
            txn.unlink("contains", part, hub, valid_from=10)
        assert db.version_at(part, 9).targets("contains") == {hub}
        assert db.version_at(part, 10).targets("contains") == frozenset()
        assert db.version_at(hub, 10).targets("contains", "in") == frozenset()

    def test_unlink_nonexistent_rejected(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
        with pytest.raises(TemporalUpdateError):
            with db.transaction() as txn:
                txn.unlink("contains", part, hub, valid_from=0)

    def test_wrong_direction_rejected(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            with pytest.raises(Exception):
                txn.link("contains", hub, part, valid_from=0)
            txn.abort()

    def test_one_to_many_cardinality_enforced(self, tmp_path):
        from repro import AtomType, Attribute, Cardinality, DataType, LinkType, Schema
        schema = Schema("c")
        schema.add_atom_type(AtomType("Part", [
            Attribute("name", DataType.STRING)]))
        schema.add_atom_type(AtomType("Doc", [
            Attribute("title", DataType.STRING)]))
        schema.add_link_type(LinkType("documented_by", "Part", "Doc",
                                      Cardinality.ONE_TO_MANY))
        db = TemporalDatabase.create(str(tmp_path / "card"), schema)
        with db.transaction() as txn:
            p1 = txn.insert("Part", {"name": "a"}, valid_from=0)
            p2 = txn.insert("Part", {"name": "b"}, valid_from=0)
            doc = txn.insert("Doc", {"title": "d"}, valid_from=0)
            txn.link("documented_by", p1, doc, valid_from=0)
        # The same document may not belong to a second part.
        with pytest.raises(CardinalityError):
            with db.transaction() as txn:
                txn.link("documented_by", p2, doc, valid_from=5)
        db.close()


class TestPersistence:
    def test_reopen_round_trip(self, tmp_path, cad_schema, strategy):
        path = str(tmp_path / "p")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x", "cost": 5.0},
                              valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
            txn.update(part, {"cost": 6.0}, valid_from=10)
        db.close()
        reopened = TemporalDatabase.open(path)
        assert reopened.config.strategy == strategy
        assert reopened.version_at(part, 5).values["cost"] == 5.0
        assert reopened.version_at(part, 15).values["cost"] == 6.0
        assert reopened.version_at(part, 5).targets("contains") == {hub}
        molecule = reopened.molecule_at(part, "Part.contains.Component", 5)
        assert molecule.atom_count() == 2
        reopened.close()

    def test_new_atoms_after_reopen_get_fresh_ids(self, tmp_path,
                                                  cad_schema, strategy):
        path = str(tmp_path / "p")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        with db.transaction() as txn:
            first = txn.insert("Part", {"name": "x"}, valid_from=0)
        db.close()
        reopened = TemporalDatabase.open(path)
        with reopened.transaction() as txn:
            second = txn.insert("Part", {"name": "y"}, valid_from=0)
        assert second > first
        reopened.close()

    def test_transaction_times_continue_after_reopen(self, tmp_path,
                                                     cad_schema, strategy):
        path = str(tmp_path / "p")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            first_tt = txn.transaction_time
        db.close()
        reopened = TemporalDatabase.open(path)
        with reopened.transaction() as txn:
            txn.update(part, {"name": "y"}, valid_from=5)
            assert txn.transaction_time > first_tt
        reopened.close()

    def test_create_over_existing_rejected(self, tmp_path, cad_schema):
        path = str(tmp_path / "p")
        TemporalDatabase.create(path, cad_schema).close()
        with pytest.raises(CatalogError):
            TemporalDatabase.create(path, cad_schema)

    def test_closed_database_rejects_operations(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(str(tmp_path / "p"), cad_schema)
        db.close()
        with pytest.raises(StorageError):
            db.begin()
        db.close()  # idempotent

    def test_close_with_active_txn_rejected(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(str(tmp_path / "p"), cad_schema)
        txn = db.begin()
        with pytest.raises(TransactionStateError):
            db.close()
        txn.abort()
        db.close()

    def test_concurrent_double_close_is_safe(self, tmp_path, cad_schema):
        import threading

        db = TemporalDatabase.create(str(tmp_path / "p"), cad_schema)
        with db.transaction() as txn:
            txn.insert("Part", {"name": "x"}, valid_from=0)
        errors = []

        def closer():
            try:
                db.close()
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert db._closed

    def test_close_concurrent_with_reads_never_hits_closed_files(
            self, tmp_path, cad_schema):
        """Readers racing close() either finish or get StorageError —
        never a ValueError from a closed file handle."""
        import threading

        db = TemporalDatabase.create(
            str(tmp_path / "p"), cad_schema,
            DatabaseConfig(buffer_pages=4))  # force real page reads
        with db.transaction() as txn:
            parts = [txn.insert("Part", {"name": f"p{i}"}, valid_from=0)
                     for i in range(50)]
        unexpected = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    for part in parts:
                        db.version_at(part, 5)
                except StorageError:
                    return  # the documented post-close behaviour
                except Exception as exc:  # pragma: no cover
                    unexpected.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        db.close()
        stop.set()
        for thread in threads:
            thread.join()
        assert not unexpected


class TestReads:
    def test_history_returns_bitemporal_record(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"name": "y"}, valid_from=10)
        versions = db.history(part)
        assert len(versions) == 3  # closed original + two pieces
        live = [v for v in versions if v.live]
        assert len(live) == 2

    def test_unknown_atom_rejected(self, db):
        with pytest.raises(UnknownAtomError):
            db.history(12345)
        assert db.version_at(12345, 0) is None

    def test_storage_stats(self, db, strategy):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "x"}, valid_from=0)
        stats = db.storage_stats()
        assert stats.strategy == strategy.value
        assert stats.total_pages > 0


class TestLifespan:
    def test_lifespan_with_gap(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0,
                              valid_to=10)
            txn.insert("Part", {"name": "x"}, valid_from=20,
                       atom_id=part)
        spans = db.lifespan(part)
        assert [str(span) for span in spans] == ["[0, 10)", "[20, FOREVER)"]

    def test_lifespan_as_of(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        tt_before = db._clock.now() - 1
        with db.transaction() as txn:
            txn.delete(part, valid_from=50)
        now_spans = db.lifespan(part)
        old_spans = db.lifespan(part, tt=tt_before)
        assert [str(s) for s in now_spans] == ["[0, 50)"]
        assert [str(s) for s in old_spans] == ["[0, FOREVER)"]
