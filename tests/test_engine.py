"""Tests for the storage engine's logical operation layer.

These drive the engine directly (no transactions) to pin down undo
behaviour, index maintenance, and the type-prefixed record format.
"""

import pytest

from repro.errors import (
    TemporalUpdateError,
    TypeMismatchError,
    UnknownAtomError,
    UnknownTypeError,
)
from repro.temporal import FOREVER, Interval


@pytest.fixture
def engine(db):
    return db.engine


def insert(engine, atom_id, type_name="Part", values=None, vf=0,
           vt=FOREVER, tt=0):
    values = values if values is not None else {"name": f"atom-{atom_id}"}
    return engine.insert(type_name, values, vf, vt, tt, atom_id)


class TestInsert:
    def test_insert_and_read(self, engine):
        insert(engine, 1, values={"name": "x", "cost": 2.5})
        version = engine.version_at(1, 5)
        assert version.values["cost"] == 2.5
        assert engine.atom_type_name(1) == "Part"

    def test_insert_validates_values(self, engine):
        with pytest.raises(TypeMismatchError):
            insert(engine, 1, values={"name": 42})

    def test_insert_unknown_type(self, engine):
        with pytest.raises(UnknownTypeError):
            insert(engine, 1, type_name="Mystery")

    def test_insert_registers_type_index(self, engine):
        insert(engine, 1)
        insert(engine, 2, type_name="Component", values={"cname": "c"})
        assert list(engine.atoms_of_type("Part")) == [1]
        assert list(engine.atoms_of_type("Component")) == [2]

    def test_reinsert_different_type_rejected(self, engine):
        insert(engine, 1, vf=0, vt=10)
        with pytest.raises(TemporalUpdateError):
            insert(engine, 1, type_name="Component",
                   values={"cname": "c"}, vf=20)

    def test_undo_insert_removes_atom(self, engine):
        undos = insert(engine, 1)
        for undo in reversed(undos):
            undo()
        assert not engine.atom_exists(1)
        assert list(engine.atoms_of_type("Part")) == []


class TestUpdateUndo:
    def test_undo_update_restores_exact_bytes(self, engine):
        insert(engine, 1, values={"name": "x", "cost": 1.0}, tt=0)
        before = engine.all_versions(1)
        undos = engine.update(1, {"cost": 2.0}, 10, tt=1)
        assert engine.version_at(1, 15).values["cost"] == 2.0
        for undo in reversed(undos):
            undo()
        assert engine.all_versions(1) == before

    def test_undo_delete(self, engine):
        insert(engine, 1, tt=0)
        before = engine.all_versions(1)
        undos = engine.delete(1, 10, tt=1)
        for undo in reversed(undos):
            undo()
        assert engine.all_versions(1) == before

    def test_undo_link_restores_both_sides(self, engine):
        insert(engine, 1, tt=0)
        insert(engine, 2, type_name="Component", values={"cname": "c"},
               tt=0)
        part_before = engine.all_versions(1)
        comp_before = engine.all_versions(2)
        undos = engine.link("contains", 1, 2, 5, tt=1)
        for undo in reversed(undos):
            undo()
        assert engine.all_versions(1) == part_before
        assert engine.all_versions(2) == comp_before


class TestIndexMaintenance:
    def test_backfill_on_creation(self, engine):
        insert(engine, 1, values={"name": "x", "cost": 1.0}, tt=0)
        engine.update(1, {"cost": 2.0}, 10, tt=1)
        engine.create_attribute_index("Part", "cost")
        assert sorted(engine.candidates_for_equality("Part", "cost",
                                                     1.0)) == [1]
        assert sorted(engine.candidates_for_equality("Part", "cost",
                                                     2.0)) == [1]

    def test_new_versions_indexed(self, engine):
        engine.create_attribute_index("Part", "cost")
        insert(engine, 1, values={"name": "x", "cost": 5.0}, tt=0)
        engine.update(1, {"cost": 7.0}, 10, tt=1)
        assert engine.candidates_for_equality("Part", "cost", 7.0) == [1]

    def test_no_index_returns_none(self, engine):
        assert engine.candidates_for_equality("Part", "cost", 1.0) is None

    def test_vt_index_tracks_changes(self, engine):
        engine.create_vt_index("Part")
        insert(engine, 1, vf=0, tt=0)
        insert(engine, 2, vf=100, tt=0)
        engine.update(1, {"cost": 1.0}, 50, tt=1)
        assert sorted(engine.atoms_changed_during("Part", 0, 10)) == [1]
        assert sorted(engine.atoms_changed_during("Part", 0, 101)) == [1, 2]
        assert sorted(engine.atoms_changed_during("Part", 40, 60)) == [1]

    def test_vt_index_backfill(self, engine):
        insert(engine, 1, vf=0, tt=0)
        engine.update(1, {"cost": 1.0}, 30, tt=1)
        engine.create_vt_index("Part")
        assert engine.atoms_changed_during("Part", 25, 35) == [1]


class TestReads:
    def test_unknown_atom(self, engine):
        with pytest.raises(UnknownAtomError):
            engine.all_versions(77)
        with pytest.raises(UnknownAtomError):
            engine.live_pairs(77)
        assert engine.version_at(77, 0) is None

    def test_lifespan(self, engine):
        insert(engine, 1, vf=0, vt=10, tt=0)
        insert(engine, 1, vf=20, vt=30, tt=1)
        spans = engine.lifespan(1)
        assert list(spans) == [Interval(0, 10), Interval(20, 30)]

    def test_as_of_reads(self, engine):
        insert(engine, 1, values={"name": "a"}, tt=0)
        engine.update(1, {"name": "b"}, 0, tt=5)
        assert engine.version_at(1, 2, tt=3).values["name"] == "a"
        assert engine.version_at(1, 2, tt=6).values["name"] == "b"


class TestLinkValidation:
    def test_link_type_endpoints_enforced(self, engine):
        insert(engine, 1, tt=0)
        insert(engine, 2, type_name="Supplier", values={"sname": "s"},
               tt=0)
        with pytest.raises(UnknownTypeError):
            engine.link("contains", 1, 2, 0, tt=1)

    def test_link_requires_overlapping_validity(self, engine):
        insert(engine, 1, vf=0, vt=10, tt=0)
        insert(engine, 2, type_name="Component", values={"cname": "c"},
               vf=0, tt=0)
        with pytest.raises(TemporalUpdateError):
            engine.link("contains", 1, 2, 20, tt=1)

    def test_link_applies_to_each_partners_validity(self, engine):
        insert(engine, 1, vf=0, tt=0)  # part: [0, forever)
        insert(engine, 2, type_name="Component", values={"cname": "c"},
               vf=10, tt=0)  # component: [10, forever)
        engine.link("contains", 1, 2, 0, tt=1)
        # The part lists the component from 0 on (its own validity) ...
        assert engine.version_at(1, 5).targets("contains") == {2}
        # ... while the component's back reference exists from 10 on.
        assert engine.version_at(2, 15).targets("contains", "in") == {1}


class TestSelfLinks:
    def test_self_link_rejected(self, tmp_path):
        from repro import (AtomType, Attribute, DataType, DatabaseConfig,
                           LinkType, Schema, TemporalDatabase)
        from repro.errors import CardinalityError
        schema = Schema("s")
        schema.add_atom_type(AtomType("Part", [
            Attribute("name", DataType.STRING)]))
        schema.add_link_type(LinkType("part_of", "Part", "Part"))
        db = TemporalDatabase.create(str(tmp_path / "self"), schema)
        with db.transaction() as txn:
            a = txn.insert("Part", {"name": "a"}, valid_from=0)
            b = txn.insert("Part", {"name": "b"}, valid_from=0)
            # Self-referencing link TYPE is fine between distinct atoms...
            txn.link("part_of", a, b, valid_from=0)
        assert db.version_at(a, 1).targets("part_of") == {b}
        assert db.version_at(b, 1).targets("part_of", "in") == {a}
        # ... but an atom cannot be its own partner.
        with pytest.raises(CardinalityError):
            with db.transaction() as txn:
                txn.link("part_of", a, a, valid_from=0)
        db.close()
