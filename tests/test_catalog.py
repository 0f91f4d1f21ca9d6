"""Tests for the persistent catalog."""

import json
import os

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import _FORMAT_VERSION, Catalog


@pytest.fixture
def catalog(tmp_path):
    return Catalog(tmp_path / "catalog.json")


class TestPersistence:
    def test_save_load_round_trip(self, catalog, tmp_path):
        catalog.schema = {"name": "s", "atom_types": []}
        catalog.strategy = "separated"
        catalog.segments = {"current": [1, 2, 3]}
        catalog.index_roots = {"type": 9}
        catalog.next_atom_id = 42
        catalog.clock = 17
        catalog.applied_lsn = 5
        catalog.page_size = 4096
        catalog.extras = {"clean_shutdown": True, "nested": {"x": [1]}}
        catalog.save()

        other = Catalog(tmp_path / "catalog.json")
        other.load()
        assert other.schema == catalog.schema
        assert other.strategy == "separated"
        assert other.segments == {"current": [1, 2, 3]}
        assert other.index_roots == {"type": 9}
        assert other.next_atom_id == 42
        assert other.clock == 17
        assert other.applied_lsn == 5
        assert other.page_size == 4096
        assert other.extras["nested"] == {"x": [1]}

    def test_exists(self, catalog):
        assert not catalog.exists()
        catalog.save()
        assert catalog.exists()

    def test_load_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.load()

    def test_load_corrupt_raises(self, catalog, tmp_path):
        (tmp_path / "catalog.json").write_text("{ not json")
        with pytest.raises(CatalogError):
            catalog.load()

    def test_load_wrong_version_raises(self, catalog, tmp_path):
        (tmp_path / "catalog.json").write_text(
            json.dumps({"format_version": 0}))
        with pytest.raises(CatalogError):
            catalog.load()

    def test_atomic_save_leaves_no_temp_files(self, catalog, tmp_path):
        catalog.save()
        catalog.save()
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_save_overwrites_atomically(self, catalog, tmp_path):
        catalog.next_atom_id = 1
        catalog.save()
        catalog.next_atom_id = 99
        catalog.save()
        other = Catalog(tmp_path / "catalog.json")
        other.load()
        assert other.next_atom_id == 99

    def test_defaults_when_fields_absent(self, tmp_path):
        (tmp_path / "catalog.json").write_text(
            json.dumps({"format_version": _FORMAT_VERSION}))
        catalog = Catalog(tmp_path / "catalog.json")
        catalog.load()
        assert catalog.next_atom_id == 1
        assert catalog.segments == {}
        assert catalog.extras == {}
