"""Dump and load: portable JSON export of a database's full content.

The dump carries everything logical — schema, every atom's complete
bitemporal version record (including superseded versions), the atom-id
and clock high-water marks, and the set of secondary indexes.  Loading
reconstructs the database under any version-storage strategy, which
makes dump/load the migration path between physical layouts (and an
offline backup format that is independent of page layout details).  The
same pair migrates a database across a page-format change: dump it with
the release that wrote it, load the dump with the new one.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.database import DatabaseConfig, TemporalDatabase
from repro.core.schema import Schema
from repro.core.version import Version
from repro.errors import ReproError
from repro.temporal import Interval

_FORMAT = 1


def dump_database(db: TemporalDatabase) -> Dict[str, Any]:
    """Serialize the database's logical content to a JSON-able document."""
    atoms = []
    engine = db.engine
    for atom_id in sorted(engine.store.atom_ids()):
        type_name = engine.atom_type_name(atom_id)
        versions = []
        for version in engine.all_versions(atom_id):
            versions.append({
                "vt": [version.vt.start, version.vt.end],
                "tt": [version.tt.start, version.tt.end],
                "values": dict(version.values),
                "refs": {key: sorted(partners)
                         for key, partners in version.refs.items()
                         if partners},
            })
        atoms.append({"id": atom_id, "type": type_name,
                      "versions": versions})
    indexes = [name for name in db.indexes.index_names() if name != "type"]
    return {
        "format": _FORMAT,
        "schema": db.schema.to_dict(),
        "next_atom_id": db._next_atom_id,
        "clock": db._clock.now(),
        "indexes": indexes,
        "atoms": atoms,
    }


def dump_json(db: TemporalDatabase, indent: int = 1) -> str:
    """The dump as a JSON string."""
    return json.dumps(dump_database(db), indent=indent, sort_keys=True)


def load_database(path: str, document: Dict[str, Any],
                  config: DatabaseConfig | None = None) -> TemporalDatabase:
    """Create a new database at *path* from a dump document.

    The target strategy comes from *config* — loading is how content
    migrates between physical layouts.
    """
    if document.get("format") != _FORMAT:
        raise ReproError(
            f"unsupported dump format {document.get('format')!r}")
    atom_ids = [_atom_id(atom) for atom in document["atoms"]]
    schema = Schema.from_dict(document["schema"])
    db = TemporalDatabase.create(path, schema, config)
    engine = db.engine
    for atom_id, atom in zip(atom_ids, document["atoms"]):
        type_name = atom["type"]
        type_id = schema.atom_type(type_name).type_id
        for raw in atom["versions"]:
            version = Version(
                Interval(*raw["vt"]), Interval(*raw["tt"]),
                dict(raw["values"]),
                {key: frozenset(int(p) for p in partners)
                 for key, partners in raw.get("refs", {}).items()})
            engine.store.append_version(
                atom_id, engine.codec.encode(type_name, version))
        engine.indexes.register_atom(type_id, atom_id)
    with db._id_mutex:
        # Never below a loaded id: a stale high-water mark would hand a
        # loaded atom's id to the next insert.
        db._next_atom_id = max(db._next_atom_id, max(atom_ids, default=0) + 1,
                               int(document.get("next_atom_id", 1)))
    db._clock.advance_to(int(document.get("clock", 0)))
    for index_name in document.get("indexes", ()):
        _recreate_index(db, index_name)
    db.checkpoint()
    return db


def _atom_id(atom: Dict[str, Any]) -> int:
    """The dumped atom's id; ids below 1 are never allocated."""
    try:
        atom_id = int(atom["id"])
    except (KeyError, TypeError, ValueError):
        atom_id = 0
    if atom_id < 1:
        raise ReproError(
            f"dumped atom {atom.get('id')!r} of type {atom.get('type')!r} "
            f"has no valid id (ids start at 1)")
    return atom_id


def _recreate_index(db: TemporalDatabase, index_name: str) -> None:
    if index_name.startswith("attr:"):
        qualified = index_name[len("attr:"):]
        type_name, _, attribute = qualified.partition(".")
        db.engine.create_attribute_index(type_name, attribute)
    elif index_name.startswith("vt:"):
        db.engine.create_vt_index(index_name[len("vt:"):])
    else:
        raise ReproError(f"cannot recreate unknown index {index_name!r}")
