"""Database integrity verification.

Checks, per atom and across atoms:

1. **Bitemporal invariant** — no transaction-time instant believes two
   overlapping valid-time states (:func:`repro.core.history.check_history`).
2. **Type registration** — every stored atom appears in the type index
   under its record's type, and vice versa.
3. **Reference symmetry** — whenever a live version of atom *a* lists
   *b* under ``L.out`` for some valid period, atom *b* lists *a* under
   ``L.in`` for that period intersected with *b*'s own lifespan (a
   reference may validly point at an atom outside its lifespan — the
   builder drops such partners — but while both exist, symmetry must
   hold exactly).
4. **Index structure** — B+-tree ordering/fence/balance checks of the
   type index and every secondary index.

The atom directory has no invariant of its own to check (an entry sits
at the slot its id names); it is exercised by walking it: every atom it
lists must have a readable type and history (check 1).

The verifier is read-only and runs over a quiescent database.  It
drops the engine's caches first, so it checks what is stored, not what
an earlier read cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core import history as hist
from repro.core.database import TemporalDatabase
from repro.core.version import Version, split_ref_key
from repro.errors import ReproError, TemporalUpdateError
from repro.temporal import TemporalElement


@dataclass
class VerificationReport:
    """Outcome of a verification run."""

    atoms_checked: int = 0
    versions_checked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        self.problems.append(problem)

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (f"verified {self.atoms_checked} atoms / "
                f"{self.versions_checked} versions: {state}")


def _ref_element(versions: List[Version], key: str,
                 partner: int) -> TemporalElement:
    """Valid-time element over which the live versions carry *partner*."""
    spans = [version.vt for version in versions
             if version.live and partner in version.refs.get(key,
                                                             frozenset())]
    return TemporalElement(spans)


def verify_database(db: TemporalDatabase) -> VerificationReport:
    """Run every integrity check; returns a report (never raises for
    data problems — structural corruption in an index still raises)."""
    report = VerificationReport()
    engine = db.engine
    engine.drop_caches()
    atoms_by_type: Dict[str, Set[int]] = {
        atom_type.name: set() for atom_type in db.schema.atom_types}

    histories: Dict[int, List[Version]] = {}
    types: Dict[int, str] = {}
    for atom_id in engine.store.atom_ids():
        report.atoms_checked += 1
        try:
            type_name = engine.atom_type_name(atom_id)
            versions = engine.all_versions(atom_id)
        except ReproError as exc:
            report.add(f"atom {atom_id}: unreadable ({exc})")
            continue
        histories[atom_id] = versions
        types[atom_id] = type_name
        atoms_by_type[type_name].add(atom_id)
        report.versions_checked += len(versions)
        try:
            hist.check_history(versions)
        except TemporalUpdateError as exc:
            report.add(f"atom {atom_id}: bitemporal invariant: {exc}")

    # -- type index agreement ------------------------------------------------
    for atom_type in db.schema.atom_types:
        indexed = set(engine.indexes.atoms_of_type(atom_type.type_id))
        stored = atoms_by_type[atom_type.name]
        for atom_id in sorted(indexed - stored):
            report.add(f"type index lists {atom_type.name} atom {atom_id} "
                       f"that is not stored (or has another type)")
        for atom_id in sorted(stored - indexed):
            report.add(f"stored {atom_type.name} atom {atom_id} missing "
                       f"from the type index")

    # -- reference symmetry ---------------------------------------------------
    for atom_id, versions in histories.items():
        lifespans = {}
        for version in versions:
            if not version.live:
                continue
            for key, partners in version.refs.items():
                link_name, direction = split_ref_key(key)
                inverse = f"{link_name}.{'in' if direction == 'out' else 'out'}"
                for partner in partners:
                    if partner not in histories:
                        report.add(
                            f"atom {atom_id}: {key} references missing "
                            f"atom {partner}")
                        continue
                    mine = _ref_element(versions, key, partner)
                    theirs = _ref_element(histories[partner], inverse,
                                          atom_id)
                    if partner not in lifespans:
                        lifespans[partner] = hist.lifespan(
                            histories[partner])
                    expected = mine.intersect(lifespans[partner])
                    missing = expected.difference(theirs)
                    if not missing.is_empty:
                        report.add(
                            f"asymmetric link {link_name}: atom {atom_id} "
                            f"-> {partner} over {list(missing)} has no "
                            f"back reference")

    # -- index structures ---------------------------------------------------------
    engine.indexes.check_all()

    return report
