"""repro — a temporal complex-object database engine.

A from-scratch Python realization of the temporal MAD (Molecule-Atom
Data) model in the spirit of Käfer & Schöning, *Realizing a Temporal
Complex-Object Data Model*, SIGMOD 1992: bitemporal atom version
histories, dynamically derived molecules, a temporal molecule query
language, and — the paper's core question — selectable physical
version-storage strategies over a page-based storage kernel.

Quick start::

    from repro import (AtomType, Attribute, Cardinality, DataType,
                       DatabaseConfig, LinkType, Schema, TemporalDatabase)

    schema = Schema("cad")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT)]))
    schema.add_atom_type(AtomType("Component", [
        Attribute("weight", DataType.FLOAT)]))
    schema.add_link_type(LinkType("contains", "Part", "Component"))

    db = TemporalDatabase.create("/tmp/cad_db", schema)
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "wheel", "cost": 10.0},
                          valid_from=0)
        hub = txn.insert("Component", {"weight": 2.5}, valid_from=0)
        txn.link("contains", part, hub, valid_from=0)
        txn.update(part, {"cost": 12.5}, valid_from=10)

    result = db.query(
        "SELECT Part.name, Part.cost FROM Part.contains.Component "
        "VALID AT 5")
    db.close()
"""

from repro.core.database import DatabaseConfig, TemporalDatabase
from repro.core.datatypes import DataType
from repro.core.molecule import Molecule, MoleculeEdge, MoleculeType
from repro.core.schema import AtomType, Attribute, Cardinality, LinkType, Schema
from repro.core.version import Version
from repro.errors import ReproError
from repro.storage.buffer import ReplacementPolicy
from repro.storage.strategies import VersionStrategy
from repro.temporal import FOREVER, TMIN, Interval, TemporalElement

__version__ = "1.0.0"

__all__ = [
    "DatabaseConfig",
    "TemporalDatabase",
    "DataType",
    "Molecule",
    "MoleculeEdge",
    "MoleculeType",
    "AtomType",
    "Attribute",
    "Cardinality",
    "LinkType",
    "Schema",
    "Version",
    "ReproError",
    "ReplacementPolicy",
    "VersionStrategy",
    "FOREVER",
    "TMIN",
    "Interval",
    "TemporalElement",
    "__version__",
]
