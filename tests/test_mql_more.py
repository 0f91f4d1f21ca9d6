"""Further MQL coverage: clause combinations and planner correctness
under lossy index keys."""

import pytest

from repro.temporal import FOREVER


class TestLossyStringIndex:
    def test_shared_prefix_candidates_are_rechecked(self, db):
        """Strings sharing a 16-byte index prefix must not leak into each
        other's equality results."""
        long_a = "component-" + "x" * 20 + "-alpha"
        long_b = "component-" + "x" * 20 + "-beta"
        with db.transaction() as txn:
            a = txn.insert("Part", {"name": long_a}, valid_from=0)
            b = txn.insert("Part", {"name": long_b}, valid_from=0)
        db.create_attribute_index("Part", "name")
        result = db.query(
            f"SELECT ALL FROM Part WHERE Part.name = '{long_a}' VALID AT 1")
        assert "index(" in result.plan
        assert result.root_ids() == [a]

    def test_exact_short_strings_unaffected(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "bolt"}, valid_from=0)
            txn.insert("Part", {"name": "bolt2"}, valid_from=0)
        db.create_attribute_index("Part", "name")
        result = db.query(
            "SELECT ALL FROM Part WHERE Part.name = 'bolt' VALID AT 1")
        assert len(result) == 1


class TestClauseCombinations:
    @pytest.fixture
    def loaded(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x", "cost": 1.0},
                              valid_from=0)
        tt_initial = db._clock.now() - 1
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        return db, part, tt_initial

    def test_during_with_as_of(self, loaded):
        db, part, tt_initial = loaded
        now_view = db.query(
            "SELECT Part.cost FROM Part VALID DURING [0, 20)")
        old_view = db.query(
            f"SELECT Part.cost FROM Part VALID DURING [0, 20) "
            f"AS OF {tt_initial}")
        assert [e.row["Part.cost"] for e in now_view] == [1.0, 2.0]
        assert [e.row["Part.cost"] for e in old_view] == [1.0]
        assert str(old_view[0].valid) == "[0, 20)"

    def test_history_with_as_of(self, loaded):
        db, part, tt_initial = loaded
        old_view = db.query(
            f"SELECT ALL FROM Part VALID HISTORY AS OF {tt_initial}")
        (entry,) = old_view.entries
        assert entry.valid.start == 0

    def test_times_outside_the_chronon_domain(self, loaded):
        """A belief at or past ``FOREVER`` is current knowledge, in MQL
        (an interval query as a slice) and in the Python API alike, warm
        or cold; and a DIFF bound at ``FOREVER`` reads to the last
        chronon."""
        db, part, tt_initial = loaded
        for valid in ("VALID AT 5", "VALID HISTORY", "VALID DURING [0, 20)"):
            forever = db.query(f"SELECT ALL FROM Part {valid} AS OF FOREVER")
            now = db.query(f"SELECT ALL FROM Part {valid}")
            assert [e.row for e in forever.entries] == [
                e.row for e in now.entries] != []
        db.engine.drop_caches()
        for _ in ("cold", "warm"):
            for at in (5, 15):
                assert db.version_at(part, at, tt=FOREVER) == db.version_at(
                    part, at) is not None
            assert db.lifespan(part, tt=2**70) == db.lifespan(part)
            assert not db.lifespan(part).is_empty
        now = db._clock.now()
        assert [e.row for e in db.query(
            f"DIFF Part BETWEEN {tt_initial} AND FOREVER").entries] == [
            e.row for e in db.query(
                f"DIFF Part BETWEEN {tt_initial} AND {now}").entries] != []

    def test_query_inside_transaction_sees_own_writes(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "fresh"}, valid_from=0)
            result = txn.query("SELECT ALL FROM Part VALID AT 1")
            assert len(result) == 1

    def test_empty_database_queries(self, db):
        assert len(db.query("SELECT ALL FROM Part VALID AT 0")) == 0
        assert len(db.query("SELECT ALL FROM Part VALID HISTORY")) == 0

    def test_select_same_path_twice(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "x", "cost": 3.0}, valid_from=0)
        result = db.query(
            "SELECT Part.cost, Part.cost FROM Part VALID AT 1")
        assert result.rows() == [{"Part.cost": 3.0}]

    def test_branch_molecule_query(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            hub = txn.insert("Component", {"cname": "h"}, valid_from=0)
            sup = txn.insert("Supplier", {"sname": "s", "rating": 4},
                             valid_from=0)
            txn.link("contains", part, hub, valid_from=0)
            txn.link("supplied_by", hub, sup, valid_from=0)
        result = db.query(
            "SELECT Component.cname, Supplier.sname "
            "FROM Component(.contains.Part)(.supplied_by.Supplier) "
            "WHERE Supplier.rating >= 4 VALID AT 1")
        (row,) = result.rows()
        assert row["Component.cname"] == "h"
        assert row["Supplier.sname"] == ["s"]

    def test_result_entry_metadata(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=5)
        result = db.query("SELECT ALL FROM Part VALID AT 7")
        (entry,) = result.entries
        assert entry.root_id == part
        assert entry.valid.contains(7)
        assert repr(result).startswith("QueryResult(")
