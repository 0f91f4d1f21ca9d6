"""Tests for the verification and vacuum tools."""

import pytest

from repro.errors import TransactionStateError
from repro.tools import vacuum_superseded, verify_database
from repro.workloads import apply_to_database, cad_schema, generate_bom, small_spec


class TestVerify:
    def test_clean_database_passes(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
            txn.update(part, {"cost": 1.0}, valid_from=10)
        report = verify_database(db)
        assert report.ok, report.problems
        assert report.atoms_checked == 2
        assert report.versions_checked >= 3
        assert "OK" in report.summary()

    def test_empty_database_passes(self, db):
        report = verify_database(db)
        assert report.ok
        assert report.atoms_checked == 0

    def test_workload_database_passes(self, tmp_path, strategy):
        from repro import DatabaseConfig, TemporalDatabase
        db = TemporalDatabase.create(str(tmp_path / "wl"), cad_schema(),
                                     DatabaseConfig(strategy=strategy))
        ops, _ = generate_bom(small_spec())
        apply_to_database(db, ops)
        report = verify_database(db)
        assert report.ok, report.problems[:5]
        db.close()

    def test_detects_type_index_mismatch(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        type_id = db.schema.atom_type("Part").type_id
        db.indexes.unregister_atom(type_id, part)  # sabotage
        report = verify_database(db)
        assert not report.ok
        assert any("missing from the type index" in problem
                   for problem in report.problems)

    def test_detects_phantom_index_entry(self, db):
        type_id = db.schema.atom_type("Part").type_id
        db.indexes.register_atom(type_id, 999)  # sabotage
        report = verify_database(db)
        assert not report.ok
        assert any("not stored" in problem for problem in report.problems)

    def test_detects_asymmetric_reference(self, db):
        from repro.storage.strategies import StoredVersion
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
        # Sabotage: strip the component's back reference at store level.
        seq, stored = db.store.read_current(hub)
        _, version = db.engine._decode(stored)
        bare = version.with_state(version.values, {})
        db.store.replace_version(hub, seq, db.engine._encode("Component",
                                                             bare))
        report = verify_database(db)
        assert not report.ok
        assert any("asymmetric link" in problem
                   for problem in report.problems)


class TestVacuum:
    def test_vacuum_removes_superseded(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a", "cost": 1.0},
                              valid_from=0)
        for round_number in range(5):
            with db.transaction() as txn:
                txn.update(part, {"cost": float(round_number)},
                           valid_from=10 + round_number)
        before = len(db.history(part))
        cutoff = db._clock.now()
        report = vacuum_superseded(db, cutoff)
        assert report.versions_removed > 0
        after = db.history(part)
        assert len(after) < before
        assert all(version.live for version in after)
        # Current-belief queries are unaffected:
        assert db.version_at(part, 5).values["cost"] == 1.0
        assert db.version_at(part, 14).values["cost"] == 4.0

    def test_vacuum_cutoff_bounds_lost_knowledge(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a", "cost": 1.0},
                              valid_from=0)
        insert_tt = db._clock.now() - 1
        with db.transaction() as txn:
            txn.correct(part, 0, 5, {"cost": 2.0})
        # Cutoff below the correction: the superseded belief survives.
        vacuum_superseded(db, insert_tt)
        assert db.version_at(part, 2, tt=insert_tt).values["cost"] == 1.0
        # Cutoff at the correction: the old belief is gone; AS OF before
        # the correction can no longer be answered, current belief can.
        vacuum_superseded(db, insert_tt + 1)
        assert db.version_at(part, 2, tt=insert_tt) is None
        assert db.version_at(part, 2).values["cost"] == 2.0

    def test_vacuum_drops_fully_dead_atoms(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "gone"}, valid_from=0)
        with db.transaction() as txn:
            txn.delete(part, valid_from=0)
        report = vacuum_superseded(db, db._clock.now())
        assert not db.engine.atom_exists(part) or all(
            v.live for v in db.history(part))
        assert db.atoms_of_type("Part") in ([], [part])
        verify_report = verify_database(db)
        assert verify_report.ok, verify_report.problems

    def test_vacuum_requires_quiescence(self, db):
        txn = db.begin()
        with pytest.raises(TransactionStateError):
            vacuum_superseded(db, 100)
        txn.abort()

    def test_vacuum_refuses_while_cursors_are_registered(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        db.ack_cursor("replica-9", "replica", 0)
        db.ack_cursor("audit", "cdc", 0)
        before = db.history(part)
        with pytest.raises(TransactionStateError,
                           match="audit, replica-9"):
            vacuum_superseded(db, db._clock.now())
        assert db.history(part) == before
        db.release_cursor("audit")
        db.release_cursor("replica-9")
        assert vacuum_superseded(db, db._clock.now()).versions_removed > 0

    def test_offline_vacuum_sees_persisted_cursors(self, tmp_path,
                                                   cad_schema):
        from repro import TemporalDatabase
        path = str(tmp_path / "vac")
        db = TemporalDatabase.create(path, cad_schema)
        with db.transaction() as txn:
            txn.insert("Part", {"name": "a"}, valid_from=0)
        db.ack_cursor("audit", "cdc", 0)
        db.close()
        reopened = TemporalDatabase.open(path)
        with pytest.raises(TransactionStateError, match="audit"):
            vacuum_superseded(reopened, reopened._clock.now())
        reopened.close()

    def test_vacuum_is_idempotent(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a"}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=5)
        cutoff = db._clock.now()
        first = vacuum_superseded(db, cutoff)
        second = vacuum_superseded(db, cutoff)
        assert first.versions_removed > 0
        assert second.versions_removed == 0

    def test_database_reopens_after_vacuum(self, tmp_path, cad_schema):
        from repro import TemporalDatabase
        path = str(tmp_path / "vac")
        db = TemporalDatabase.create(path, cad_schema)
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        vacuum_superseded(db, db._clock.now())
        db.close()
        reopened = TemporalDatabase.open(path)
        assert reopened.version_at(part, 15).values["cost"] == 2.0
        assert verify_database(reopened).ok
        reopened.close()


class TestStatistics:
    def test_statistics_aggregate(self, db):
        from repro.tools import database_statistics
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "a"}, valid_from=0)
            txn.insert("Component", {"cname": "c"}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 1.0}, valid_from=10)
        stats = database_statistics(db)
        assert stats.total_atoms == 2
        assert stats.by_type["Part"].atoms == 1
        assert stats.by_type["Part"].versions == 3  # closed + 2 pieces
        assert stats.by_type["Part"].live_versions == 2
        assert stats.by_type["Part"].max_history == 3
        assert stats.by_type["Component"].mean_history == 1.0
        assert stats.total_pages > 0
        assert "type" in stats.index_names
        summary = stats.summary()
        assert "Part: 1 atoms" in summary

    def test_statistics_empty(self, db):
        from repro.tools import database_statistics
        stats = database_statistics(db)
        assert stats.total_atoms == 0
        assert stats.total_versions == 0

    def test_cli_stats(self, tmp_path, cad_schema, capsys):
        from repro import TemporalDatabase
        from repro.__main__ import main
        path = str(tmp_path / "statsdb")
        db = TemporalDatabase.create(path, cad_schema)
        with db.transaction() as txn:
            txn.insert("Part", {"name": "x"}, valid_from=0)
        db.close()
        assert main(["stats", path]) == 0
        assert "1 atoms" in capsys.readouterr().out
