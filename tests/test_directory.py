"""Tests for the atom directory (direct-mapped array of fixed-width entries)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.directory import AtomDirectory
from repro.storage.disk import DiskManager

#: The CLUSTERED/CHAINED directory value width; SEPARATED's is 41.
WIDTH = 14
SPARSE_ID = 10**9


def value(tag: int, width: int = WIDTH) -> bytes:
    return tag.to_bytes(width, "little")


def pins(pool: BufferManager) -> int:
    return pool.stats.hits + pool.stats.misses


@pytest.fixture
def directory(buffer):
    return AtomDirectory(buffer, "dir", WIDTH)


class TestBasics:
    def test_get_missing(self, directory):
        assert directory.get(42) is None
        assert 42 not in directory
        assert directory.pages() == []

    def test_put_get(self, directory):
        directory.put(1, value(1))
        assert directory.get(1) == value(1)
        assert 1 in directory

    def test_overwrite(self, directory):
        directory.put(1, value(1))
        directory.put(1, value(2))
        assert directory.get(1) == value(2)
        assert len(directory) == 1

    def test_overwrite_with_longer_payload(self, directory):
        """Entries are fixed-width: a payload of any other width is
        refused and leaves the stored entry as it was."""
        directory.put(1, value(1))
        for wrong in (value(2, WIDTH + 1), value(2, WIDTH - 1), b""):
            with pytest.raises(StorageError):
                directory.put(1, wrong)
        assert directory.get(1) == value(1)

    def test_delete(self, directory):
        directory.put(1, value(1))
        assert directory.delete(1)
        assert directory.get(1) is None
        assert not directory.delete(1)
        assert not directory.delete(SPARSE_ID)  # page never allocated

    def test_negative_keys(self, directory):
        """Atom ids are never negative: a negative id is refused on
        write and simply absent on read."""
        with pytest.raises(StorageError):
            directory.put(-5, value(5))
        assert directory.get(-5) is None
        assert -5 not in directory
        assert not directory.delete(-5)
        assert directory.pages() == []

    def test_len(self, directory):
        for key in range(10):
            directory.put(key, value(key))
        assert len(directory) == 10
        directory.delete(3)
        assert len(directory) == 9


class TestCost:
    def test_one_pin_per_lookup(self, buffer, directory):
        for key in (1, 5000, SPARSE_ID):
            directory.put(key, value(key))
        for key in (1, 5000, SPARSE_ID, 2, SPARSE_ID + 1):
            before = pins(buffer)
            directory.get(key)
            assert pins(buffer) - before == 1

    def test_lookup_in_unallocated_page_pins_nothing(self, buffer, directory):
        directory.put(1, value(1))
        before = pins(buffer)
        assert directory.get(SPARSE_ID) is None
        assert directory.get_many([SPARSE_ID, SPARSE_ID + 1]) == {
            SPARSE_ID: None, SPARSE_ID + 1: None}
        assert pins(buffer) == before

    def test_get_many_pins_each_page_once(self, buffer, directory):
        per_page = buffer.page_size // (1 + WIDTH)
        wanted = [1, 2, 3, per_page + 1, per_page + 2, SPARSE_ID]
        for key in wanted:
            directory.put(key, value(key))
        before = pins(buffer)
        found = directory.get_many(wanted + [4, 2])
        assert pins(buffer) - before == 3
        assert found == {**{key: value(key) for key in wanted}, 4: None}

    def test_sparse_id_costs_one_page(self, directory):
        directory.put(0, value(0))
        directory.put(SPARSE_ID, value(1))
        assert len(directory.pages()) == 2


class TestScale:
    def test_many_entries_span_pages(self, buffer, directory):
        per_page = buffer.page_size // (1 + WIDTH)
        for key in range(1000):
            directory.put(key, value(key * 7))
        for key in range(1000):
            assert directory.get(key) == value(key * 7)
        assert len(directory.pages()) == -(-1000 // per_page)

    def test_items_complete(self, directory):
        expected = {key: value(key % 250) for key in range(0, 600, 3)}
        expected[SPARSE_ID] = value(9)
        for key, payload in reversed(list(expected.items())):
            directory.put(key, payload)
        assert list(directory.items()) == sorted(expected.items())
        assert list(directory.keys()) == sorted(expected)

    def test_update_after_overflow(self, buffer, directory):
        """Entries past the first page update like any other."""
        per_page = buffer.page_size // (1 + WIDTH)
        for key in range(per_page + 30):
            directory.put(key, value(1))
        for key in (150, per_page + 10):
            directory.put(key, value(2))
            assert directory.get(key) == value(2)
        assert len(directory) == per_page + 30


class TestPersistence:
    def test_reopen_from_page_table(self, tmp_path):
        disk = DiskManager(tmp_path / "d.db")
        pool = BufferManager(disk, capacity=4)
        directory = AtomDirectory(pool, "dir", WIDTH)
        expected = {key: value(key) for key in range(0, 2000, 7)}
        expected[SPARSE_ID] = value(1)
        for key, payload in expected.items():
            directory.put(key, payload)
        directory.delete(700)
        del expected[700]
        table = directory.page_table
        pool.flush_all()
        disk.close()

        disk = DiskManager(tmp_path / "d.db")
        reopened = AtomDirectory(BufferManager(disk, capacity=4), "dir",
                                 WIDTH, page_table=table)
        for key, payload in expected.items():
            assert reopened.get(key) == payload
        assert reopened.get(700) is None
        assert dict(reopened.items()) == expected
        assert len(reopened) == len(expected)
        assert sorted(reopened.pages()) == sorted(directory.pages())
        disk.close()


_KEYS = st.one_of(st.integers(min_value=0, max_value=600),
                  st.integers(min_value=SPARSE_ID - 3,
                              max_value=SPARSE_ID + 3))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([WIDTH, 41]),
       st.lists(st.tuples(st.sampled_from(["put", "delete"]), _KEYS,
                          st.binary(min_size=41, max_size=41)),
                max_size=80))
def test_random_operations_match_dict(tmp_path_factory, width, operations):
    directory_path = tmp_path_factory.mktemp("dirprop")
    disk = DiskManager(directory_path / "d.db")
    pool = BufferManager(disk, capacity=4)
    directory = AtomDirectory(pool, "prop", width)
    model = {}
    for kind, key, payload in operations:
        if kind == "put":
            directory.put(key, payload[:width])
            model[key] = payload[:width]
        else:
            assert directory.delete(key) == (key in model)
            model.pop(key, None)
    assert dict(directory.items()) == model
    assert len(directory) == len(model)
    pool.flush_all()
    reopened = AtomDirectory(BufferManager(disk, capacity=4), "prop", width,
                             page_table=directory.page_table)
    assert reopened.get_many(list(model) + [1, SPARSE_ID]) == {
        1: None, SPARSE_ID: None, **model}
    disk.close()
