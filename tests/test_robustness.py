"""Robustness tests: corruption, odd configurations, contention, unicode."""

import json
import threading

import pytest

from repro import (
    DatabaseConfig,
    ReplacementPolicy,
    TemporalDatabase,
    VersionStrategy,
)
from repro.errors import (
    CatalogError,
    LockTimeoutError,
    ReproError,
    SerializationConflictError,
)


class TestCatalogCorruption:
    def test_truncated_catalog_rejected(self, tmp_path, cad_schema):
        path = str(tmp_path / "db")
        TemporalDatabase.create(path, cad_schema).close()
        catalog_path = tmp_path / "db" / "catalog.json"
        catalog_path.write_text(catalog_path.read_text()[:40])
        with pytest.raises(CatalogError):
            TemporalDatabase.open(path)

    def test_missing_catalog_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CatalogError):
            TemporalDatabase.open(str(tmp_path / "empty"))

    def test_wrong_format_version_rejected(self, tmp_path, cad_schema):
        path = str(tmp_path / "db")
        TemporalDatabase.create(path, cad_schema).close()
        catalog_path = tmp_path / "db" / "catalog.json"
        document = json.loads(catalog_path.read_text())
        # 1 is the format before the direct-mapped atom directory: its
        # directory pages are hash buckets the current code cannot read.
        # 2 keeps transaction time in the payload, not the envelope.
        for version in (1, 2, 999):
            document["format_version"] = version
            catalog_path.write_text(json.dumps(document))
            with pytest.raises(CatalogError,
                               match=rf"catalog format {version} unsupported"
                               r" \(expected 3\); migrate with 'repro dump'"):
                TemporalDatabase.open(path)


class TestConfigurations:
    @pytest.mark.parametrize("page_size", [512, 1024, 16384])
    def test_page_sizes_work_end_to_end(self, tmp_path, cad_schema,
                                        page_size):
        path = str(tmp_path / f"ps{page_size}")
        db = TemporalDatabase.create(
            path, cad_schema, DatabaseConfig(page_size=page_size))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x" * 200, "cost": 1.0},
                              valid_from=0)
        for round_number in range(20):
            with db.transaction() as txn:
                txn.update(part, {"cost": float(round_number)},
                           valid_from=round_number + 1)
        db.close()
        reopened = TemporalDatabase.open(path)
        assert reopened.version_at(part, 10).values["cost"] == 9.0
        reopened.close()

    def test_tiny_buffer_pool_still_correct(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(
            str(tmp_path / "tiny"), cad_schema,
            DatabaseConfig(buffer_pages=4,
                           replacement=ReplacementPolicy.CLOCK))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            for index in range(12):
                # ~1 KB names: the twelve records span more heap pages
                # than the pool has frames.
                comp = txn.insert("Component",
                                  {"cname": f"c{index}" + "x" * 1000},
                                  valid_from=0)
                txn.link("contains", part, comp, valid_from=0)
        molecule = db.molecule_at(part, "Part.contains.Component", 1)
        assert molecule.atom_count() == 13
        assert db.buffer.stats.evictions > 0  # the pool actually thrashed
        db.close()

    def test_strategy_fixed_at_creation(self, tmp_path, cad_schema):
        path = str(tmp_path / "fixed")
        TemporalDatabase.create(
            path, cad_schema,
            DatabaseConfig(strategy=VersionStrategy.CHAINED)).close()
        # Opening with another strategy in the config is overridden by
        # the catalog — physical layout cannot change on open.
        reopened = TemporalDatabase.open(
            path, DatabaseConfig(strategy=VersionStrategy.CLUSTERED))
        assert reopened.config.strategy is VersionStrategy.CHAINED
        reopened.close()


class TestUnicode:
    def test_unicode_values_survive_storage_and_mql(self, db):
        name = "Rad-Ø « 車輪 » 🚲"
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": name}, valid_from=0)
        assert db.version_at(part, 1).values["name"] == name
        result = db.query(
            f"SELECT ALL FROM Part WHERE Part.name = '{name}' VALID AT 1")
        assert result.root_ids() == [part]

    def test_unicode_with_index(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "łøžká"}, valid_from=0)
        db.create_attribute_index("Part", "name")
        result = db.query(
            "SELECT ALL FROM Part WHERE Part.name = 'łøžká' VALID AT 1")
        assert result.root_ids() == [part]

    def test_lone_surrogate_is_refused_before_logging(self, db):
        operations = db.metrics.value("txn.operations")
        with pytest.raises(ReproError):
            with db.transaction() as txn:
                txn.insert("Part", {"name": "x\ud800"}, valid_from=0)
        assert db.metrics.value("txn.operations") == operations
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "x"}, valid_from=0)
        assert db.version_at(part, 1).values["name"] == "x"


class TestContention:
    def test_conflicting_writers_serialize(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(str(tmp_path / "conflict"),
                                     cad_schema,
                                     DatabaseConfig(lock_timeout=5.0))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "hot", "cost": 0.0},
                              valid_from=0)
        errors = []
        retries = []

        def bump(round_offset):
            try:
                for index in range(10):
                    at = 1 + round_offset * 100 + index
                    while True:  # retry on serialization conflicts
                        try:
                            with db.transaction() as txn:
                                txn.update(part, {"cost": float(at)},
                                           valid_from=at)
                            break
                        except SerializationConflictError:
                            retries.append(at)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=bump, args=(offset,))
                   for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        live = [v for v in db.history(part) if v.live]
        # 30 updates + the original insert produce 31 live states.
        assert len(live) == 31
        from repro.core import history as hist
        hist.check_history(db.history(part))
        db.close()

    def test_lock_timeout_surfaces(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(str(tmp_path / "timeout"),
                                     cad_schema,
                                     DatabaseConfig(lock_timeout=0.1))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
        holder = db.begin()
        holder.update(part, {"cost": 1.0}, valid_from=1)
        blocked = db.begin()
        with pytest.raises(LockTimeoutError):
            blocked.update(part, {"cost": 2.0}, valid_from=2)
        blocked.abort()
        holder.commit()
        assert db.version_at(part, 5).values["cost"] == 1.0
        db.close()


class TestLargeValues:
    def test_large_string_attribute_spans_pages(self, db):
        essay = "temporal " * 2000  # ~18 KB, far over one page
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": essay}, valid_from=0)
        assert db.version_at(part, 1).values["name"] == essay
        with db.transaction() as txn:
            txn.update(part, {"cost": 1.0}, valid_from=5)
        assert db.version_at(part, 6).values["name"] == essay

    def test_many_links_on_one_atom(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "hub"}, valid_from=0)
            for index in range(150):
                comp = txn.insert("Component", {"cname": f"c{index}"},
                                  valid_from=0)
                txn.link("contains", part, comp, valid_from=0)
        version = db.version_at(part, 1)
        assert len(version.targets("contains")) == 150
        molecule = db.molecule_at(part, "Part.contains.Component", 1)
        assert molecule.atom_count() == 151
