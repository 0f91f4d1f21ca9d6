"""Tests for the index manager."""

import pytest

from repro.access.indexes import IndexManager, attribute_index_name, vt_index_name
from repro.access.keys import encode_int, encode_string
from repro.errors import AccessError


@pytest.fixture
def indexes(buffer):
    return IndexManager(buffer)


class TestTypeIndex:
    def test_register_and_enumerate(self, indexes):
        for atom_id in (5, 2, 9):
            indexes.register_atom(1, atom_id)
        indexes.register_atom(2, 100)
        assert list(indexes.atoms_of_type(1)) == [2, 5, 9]
        assert list(indexes.atoms_of_type(2)) == [100]
        assert list(indexes.atoms_of_type(3)) == []

    def test_unregister(self, indexes):
        indexes.register_atom(1, 5)
        indexes.register_atom(1, 6)
        indexes.unregister_atom(1, 5)
        assert list(indexes.atoms_of_type(1)) == [6]

    def test_types_do_not_bleed(self, indexes):
        indexes.register_atom(1, 7)
        indexes.register_atom(2, 8)
        assert list(indexes.atoms_of_type(1)) == [7]


class TestAttributeIndex:
    def test_create_and_lookup(self, indexes):
        name = indexes.create_attribute_index("Part", "cost", 8)
        assert name == attribute_index_name("Part", "cost")
        assert indexes.has_index(name)
        indexes.add_attribute_entry(name, encode_int(10), 1)
        indexes.add_attribute_entry(name, encode_int(10), 2)
        indexes.add_attribute_entry(name, encode_int(20), 3)
        assert indexes.candidate_atoms_eq(name, encode_int(10)) == [1, 2]
        assert indexes.candidate_atoms_eq(name, encode_int(99)) == []

    def test_duplicate_create_rejected(self, indexes):
        indexes.create_attribute_index("Part", "cost", 8)
        with pytest.raises(AccessError):
            indexes.create_attribute_index("Part", "cost", 8)

    def test_entries_idempotent_per_pair(self, indexes):
        name = indexes.create_attribute_index("Part", "cost", 8)
        for _ in range(5):
            indexes.add_attribute_entry(name, encode_int(10), 1)
        assert indexes.candidate_atoms_eq(name, encode_int(10)) == [1]

    def test_string_keys(self, indexes):
        name = indexes.create_attribute_index("Part", "name", 16)
        indexes.add_attribute_entry(name, encode_string("wheel"), 1)
        indexes.add_attribute_entry(name, encode_string("frame"), 2)
        assert indexes.candidate_atoms_eq(name, encode_string("wheel")) == [1]

    def test_unknown_index_rejected(self, indexes):
        with pytest.raises(AccessError):
            indexes.candidate_atoms_eq("attr:No.idx", encode_int(1))


class TestValidTimeIndex:
    def test_changed_during(self, indexes):
        name = indexes.create_vt_index("Part")
        assert name == vt_index_name("Part")
        indexes.add_vt_entry(name, 100, 1)
        indexes.add_vt_entry(name, 150, 2)
        indexes.add_vt_entry(name, 250, 1)
        assert indexes.atoms_changed_during(name, 100, 200) == [1, 2]
        assert indexes.atoms_changed_during(name, 200, 300) == [1]
        assert indexes.atoms_changed_during(name, 300, 400) == []

    def test_boundaries_half_open(self, indexes):
        name = indexes.create_vt_index("Part")
        indexes.add_vt_entry(name, 100, 1)
        assert indexes.atoms_changed_during(name, 100, 101) == [1]
        assert indexes.atoms_changed_during(name, 99, 100) == []


class TestPersistence:
    def test_state_round_trip(self, buffer):
        manager = IndexManager(buffer)
        manager.register_atom(1, 42)
        name = manager.create_attribute_index("Part", "cost", 8)
        manager.add_attribute_entry(name, encode_int(5), 42)
        state = manager.persist_state()
        reopened = IndexManager(buffer, state)
        assert list(reopened.atoms_of_type(1)) == [42]
        assert reopened.candidate_atoms_eq(name, encode_int(5)) == [42]
        assert sorted(reopened.index_names()) == sorted(manager.index_names())

    def test_check_all(self, indexes):
        for i in range(200):
            indexes.register_atom(i % 3, i)
        indexes.check_all()
