"""Tests for dump/load (export, backup, and strategy migration)."""

import json

import pytest

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.errors import ReproError
from repro.tools import dump_database, dump_json, load_database, verify_database
from repro.workloads import apply_to_database, cad_schema, generate_bom, small_spec


@pytest.fixture
def populated(tmp_path):
    db = TemporalDatabase.create(str(tmp_path / "source"), cad_schema(),
                                 DatabaseConfig(
                                     strategy=VersionStrategy.CLUSTERED))
    ops, groups = generate_bom(small_spec())
    ids = apply_to_database(db, ops)
    with db.transaction() as txn:
        txn.correct(ids[groups["Part"][0]], 0, 1, {"cost": 123.0})
    db.create_attribute_index("Part", "name")
    return db, ids, groups


class TestDump:
    def test_dump_shape(self, populated):
        db, ids, groups = populated
        document = dump_database(db)
        assert document["format"] == 1
        assert len(document["atoms"]) == len(ids)
        assert "attr:Part.name" in document["indexes"]
        assert document["next_atom_id"] > max(ids.values())

    def test_dump_is_json_serializable(self, populated):
        db, _, _ = populated
        text = dump_json(db)
        round_tripped = json.loads(text)
        assert round_tripped["schema"]["name"] == "cad"

    def test_dump_includes_superseded_versions(self, populated):
        db, ids, groups = populated
        document = dump_database(db)
        part_doc = next(atom for atom in document["atoms"]
                        if atom["id"] == ids[groups["Part"][0]])
        livenesses = {raw["tt"][1] == 2**62 for raw in part_doc["versions"]}
        assert livenesses == {True, False}  # both live and superseded


class TestLoadAndMigrate:
    @pytest.mark.parametrize("target", list(VersionStrategy),
                             ids=[s.value for s in VersionStrategy])
    def test_migration_preserves_everything(self, populated, tmp_path,
                                            target):
        source, ids, groups = populated
        document = dump_database(source)
        loaded = load_database(str(tmp_path / f"target-{target.value}"),
                               document, DatabaseConfig(strategy=target))
        assert loaded.config.strategy == target
        # Bitemporal record identical per atom:
        for atom_id in ids.values():
            assert source.history(atom_id) == loaded.history(atom_id)
        # Queries agree (including the index-backed plan):
        for db in (source, loaded):
            result = db.query(
                "SELECT ALL FROM Part WHERE Part.name = 'part-0' "
                "VALID AT 1")
            assert "index(" in result.plan
            assert len(result) == 1
        # AS OF semantics preserved:
        part = ids[groups["Part"][0]]
        assert (source.version_at(part, 0, tt=0).values
                == loaded.version_at(part, 0, tt=0).values)
        assert verify_database(loaded).ok
        loaded.close()

    def test_loaded_database_accepts_new_work(self, populated, tmp_path):
        source, ids, _ = populated
        loaded = load_database(str(tmp_path / "target"),
                               dump_database(source))
        with loaded.transaction() as txn:
            fresh = txn.insert("Part", {"name": "new"}, valid_from=0)
        assert fresh > max(ids.values())  # id high-water mark respected
        # Transaction times continue past the dump's clock:
        assert loaded.version_at(fresh, 1).tt.start >= source._clock.now()
        loaded.close()

    def test_loaded_database_reopens(self, populated, tmp_path):
        source, ids, groups = populated
        path = str(tmp_path / "target")
        loaded = load_database(path, dump_database(source))
        loaded.close()
        reopened = TemporalDatabase.open(path)
        part = ids[groups["Part"][0]]
        assert reopened.version_at(part, 1) is not None
        reopened.close()

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            load_database(str(tmp_path / "bad"), {"format": 99})

    @pytest.mark.parametrize("bad_id", [0, -3, "x"])
    def test_invalid_atom_id_rejected_before_writing(self, populated,
                                                     tmp_path, bad_id):
        source, ids, groups = populated
        document = dump_database(source)
        victim = document["atoms"][-1]
        victim["id"] = bad_id
        target = tmp_path / "target"
        with pytest.raises(ReproError, match=repr(bad_id)):
            load_database(str(target), document)
        assert not target.exists()

    def test_stale_next_atom_id_never_reuses_a_loaded_id(self, populated,
                                                         tmp_path):
        source, ids, groups = populated
        document = dump_database(source)
        document["next_atom_id"] = 1
        loaded = load_database(str(tmp_path / "target"), document)
        with loaded.transaction() as txn:
            new = txn.insert("Part", {"name": "fresh"}, valid_from=0)
        assert new > max(atom["id"] for atom in document["atoms"])
        loaded.close()


class TestCli:
    def test_dump_then_load_via_cli(self, populated, tmp_path, capsys):
        from repro.__main__ import main
        source, ids, groups = populated
        part_count = len(source.atoms_of_type("Part"))
        source_path = source.path
        source.close()
        dump_file = str(tmp_path / "dump.json")
        assert main(["dump", source_path, "-o", dump_file]) == 0
        assert main(["load", str(tmp_path / "clone"), dump_file,
                     "--strategy", "separated"]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "separated" in out
        clone = TemporalDatabase.open(str(tmp_path / "clone"))
        assert len(clone.atoms_of_type("Part")) == part_count
        clone.close()
