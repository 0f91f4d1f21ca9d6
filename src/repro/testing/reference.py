"""The in-memory reference oracle for differential testing.

The oracle keeps every atom's history as a plain Python list of
:class:`~repro.core.version.Version` objects and applies the same
:class:`~repro.core.history.HistoryPlan` deltas the engine maps onto its
version store.  It implements the builder's
:class:`~repro.core.builder.VersionReader` protocol, so time slices are
expanded by the engine's own level-at-a-time builder over oracle data.
Interval queries do *not* share the builder's sweep: the oracle answers
them with :func:`rescanning_history`, the definition of a molecule's
history (a slice at the window start and at every later valid-time
boundary of the atoms it consulted), so a wrong sweep shows up as a
differential mismatch.

Because the plan computation is shared, the oracle does *not* retest the
history algebra; what differential tests validate is everything below
it: codecs, version stores, directories, indexes, buffering, and
recovery.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core import history as hist
from repro.core.builder import MoleculeBuilder, VersionReader
from repro.core.molecule import Molecule, MoleculeType
from repro.core.schema import Schema
from repro.core.version import IN, OUT, Version, ref_key
from repro.errors import TemporalUpdateError, UnknownAtomError
from repro.obs import MetricsRegistry
from repro.temporal import FOREVER, Interval, Timestamp


class ReferenceDatabase:
    """Dictionary-backed implementation of the temporal data model."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._histories: Dict[int, List[Version]] = {}
        self._types: Dict[int, str] = {}
        self._next_atom_id = 1
        self._clock = 0
        self.builder = MoleculeBuilder(self)

    # -- clock ----------------------------------------------------------------

    def tick(self) -> Timestamp:
        """One transaction time per mutation call (auto-commit model)."""
        tt = self._clock
        self._clock += 1
        return tt

    @property
    def now(self) -> Timestamp:
        return self._clock

    # -- VersionReader protocol ---------------------------------------------------

    def atom_type_name(self, atom_id: int) -> str:
        try:
            return self._types[atom_id]
        except KeyError:
            raise UnknownAtomError(f"no atom {atom_id}") from None

    def version_at(self, atom_id: int, at: Timestamp,
                   tt: Optional[Timestamp] = None) -> Optional[Version]:
        versions = self._histories.get(atom_id)
        if not versions:
            return None
        return hist.version_at(versions, at, tt)

    def version_at_many(self, atom_ids, at: Timestamp,
                        tt: Optional[Timestamp] = None
                        ) -> Dict[int, Optional[Version]]:
        """Batched ``version_at`` (engine-compatible, trivially looped)."""
        return {atom_id: self.version_at(atom_id, at, tt)
                for atom_id in dict.fromkeys(atom_ids)}

    def all_versions(self, atom_id: int) -> List[Version]:
        if atom_id not in self._histories:
            raise UnknownAtomError(f"no atom {atom_id}")
        return list(self._histories[atom_id])

    def all_versions_many(self, atom_ids, vt: Interval = Interval.always(),
                          tt: Interval = Interval.always()
                          ) -> Dict[int, List[Version]]:
        """Versions overlapping the rectangle *vt* x *tt*, in sequence
        order, per known atom; unknown atoms are omitted."""
        return {atom_id: [version for version in self._histories[atom_id]
                          if version.vt.overlaps(vt)
                          and version.tt.overlaps(tt)]
                for atom_id in dict.fromkeys(atom_ids)
                if atom_id in self._histories}

    def atom_exists(self, atom_id: int) -> bool:
        return atom_id in self._histories

    def atoms_of_type(self, type_name: str) -> List[int]:
        return sorted(atom_id for atom_id, tn in self._types.items()
                      if tn == type_name)

    # -- plan application -----------------------------------------------------------

    def _apply(self, atom_id: int, plan: hist.HistoryPlan) -> None:
        versions = self._histories.setdefault(atom_id, [])
        for seq, replacement in plan.closures + plan.rewrites:
            versions[seq] = replacement
        versions.extend(plan.appends)
        hist.check_history(versions)  # the oracle self-checks every step

    # -- mutations ----------------------------------------------------------------------

    def insert(self, type_name: str, values: Dict[str, Any],
               valid_from: Timestamp, valid_to: Timestamp = FOREVER,
               tt: Optional[Timestamp] = None,
               atom_id: Optional[int] = None) -> int:
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(values)
        if atom_id is None:
            atom_id = self._next_atom_id
            self._next_atom_id += 1
        else:
            self._next_atom_id = max(self._next_atom_id, atom_id + 1)
        if atom_id in self._types and self._types[atom_id] != type_name:
            raise TemporalUpdateError(
                f"atom {atom_id} already exists with a different type")
        plan = hist.insert_plan(checked, {}, Interval(valid_from, valid_to),
                                self.tick() if tt is None else tt,
                                self._histories.get(atom_id, ()))
        self._types[atom_id] = type_name
        self._apply(atom_id, plan)
        return atom_id

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: Timestamp, valid_to: Timestamp = FOREVER,
               tt: Optional[Timestamp] = None) -> None:
        type_name = self.atom_type_name(atom_id)
        checked = self.schema.atom_type(type_name).validate_values(
            changes, partial=True)

        def transform(version: Version) -> Version:
            merged = dict(version.values)
            merged.update(checked)
            return version.with_state(merged, version.refs)

        plan = hist.revise(self.all_versions(atom_id),
                           Interval(valid_from, valid_to),
                           self.tick() if tt is None else tt, transform)
        self._apply(atom_id, plan)

    def delete(self, atom_id: int, valid_from: Timestamp,
               valid_to: Timestamp = FOREVER,
               tt: Optional[Timestamp] = None) -> None:
        self.atom_type_name(atom_id)
        plan = hist.revise(self.all_versions(atom_id),
                           Interval(valid_from, valid_to),
                           self.tick() if tt is None else tt,
                           lambda version: None)
        self._apply(atom_id, plan)

    def correct(self, atom_id: int, window_start: Timestamp,
                window_end: Timestamp, changes: Dict[str, Any],
                tt: Optional[Timestamp] = None) -> None:
        type_name = self.atom_type_name(atom_id)
        checked = self.schema.atom_type(type_name).validate_values(
            changes, partial=True)

        def transform(version: Version) -> Version:
            merged = dict(version.values)
            merged.update(checked)
            return version.with_state(merged, version.refs)

        plan = hist.revise(self.all_versions(atom_id),
                           Interval(window_start, window_end),
                           self.tick() if tt is None else tt, transform)
        self._apply(atom_id, plan)

    def _ref_plan(self, atom_id: int, key: str, partner: int, add: bool,
                  window: Interval, tt: Timestamp
                  ) -> tuple:
        """Plan the reference change without applying (mirrors the engine
        so differential tests compare error paths AND partial-failure
        behaviour).  Returns (plan, changed)."""
        changed = False

        def transform(version: Version) -> Version:
            nonlocal changed
            refs = {k: set(v) for k, v in version.refs.items()}
            members = refs.setdefault(key, set())
            if add and partner not in members:
                members.add(partner)
                changed = True
            elif not add and partner in members:
                members.discard(partner)
                changed = True
            return version.with_state(
                version.values,
                {k: frozenset(v) for k, v in refs.items() if v})

        plan = hist.revise(self.all_versions(atom_id), window, tt, transform)
        return plan, changed

    def link(self, link_name: str, source_id: int, target_id: int,
             valid_from: Timestamp, valid_to: Timestamp = FOREVER,
             tt: Optional[Timestamp] = None) -> None:
        self.schema.link_type(link_name)
        if source_id == target_id:
            from repro.errors import CardinalityError
            raise CardinalityError(
                f"{link_name}: atom {source_id} cannot be linked to itself")
        window = Interval(valid_from, valid_to)
        tt = self.tick() if tt is None else tt
        src_plan, _ = self._ref_plan(source_id, ref_key(link_name, OUT),
                                     target_id, True, window, tt)
        dst_plan, _ = self._ref_plan(target_id, ref_key(link_name, IN),
                                     source_id, True, window, tt)
        self._apply(source_id, src_plan)
        self._apply(target_id, dst_plan)

    def unlink(self, link_name: str, source_id: int, target_id: int,
               valid_from: Timestamp, valid_to: Timestamp = FOREVER,
               tt: Optional[Timestamp] = None) -> None:
        self.schema.link_type(link_name)
        window = Interval(valid_from, valid_to)
        tt = self.tick() if tt is None else tt
        src_plan, removed_out = self._ref_plan(
            source_id, ref_key(link_name, OUT), target_id, False, window, tt)
        dst_plan, removed_in = self._ref_plan(
            target_id, ref_key(link_name, IN), source_id, False, window, tt)
        if not (removed_out or removed_in):
            raise TemporalUpdateError(
                f"{link_name}: atoms {source_id} and {target_id} are not "
                f"linked inside {window}")
        self._apply(source_id, src_plan)
        self._apply(target_id, dst_plan)

    # -- queries -------------------------------------------------------------------------

    def molecule_at(self, root_id: int, mtype: "str | MoleculeType",
                    at: Timestamp,
                    tt: Optional[Timestamp] = None) -> Optional[Molecule]:
        if isinstance(mtype, str):
            mtype = MoleculeType.parse(mtype, self.schema)
        return self.builder.build_at(root_id, mtype, at, tt)

    def molecule_history(self, root_id: int, mtype: "str | MoleculeType",
                         window: Interval,
                         tt: Optional[Timestamp] = None
                         ) -> List[Tuple[Interval, Molecule]]:
        if isinstance(mtype, str):
            mtype = MoleculeType.parse(mtype, self.schema)
        return rescanning_history(self, root_id, mtype, window, tt)


class _ConsultedReader:
    """A reader that records every atom a slice asks for."""

    def __init__(self, reader: VersionReader) -> None:
        self._reader = reader
        self.consulted: Set[int] = set()

    def atom_type_name(self, atom_id: int) -> str:
        return self._reader.atom_type_name(atom_id)

    def version_at_many(self, atom_ids: Iterable[int], at: Timestamp,
                        tt: Optional[Timestamp] = None
                        ) -> Dict[int, Optional[Version]]:
        ids = list(atom_ids)
        self.consulted.update(ids)
        return self._reader.version_at_many(ids, at, tt)

    def all_versions_many(self, atom_ids: Iterable[int],
                          vt: Interval = Interval.always(),
                          tt: Interval = Interval.always()
                          ) -> Dict[int, List[Version]]:
        return self._reader.all_versions_many(atom_ids, vt, tt)


def rescanning_history(reader: VersionReader, root_id: int,
                       mtype: MoleculeType, window: Interval,
                       tt: Optional[Timestamp] = None
                       ) -> List[Tuple[Interval, Molecule]]:
    """A molecule's coalesced states over *window*, by definition.

    Builds the time slice at the window start, then again at the
    earliest valid-time boundary after it of any atom that slice
    consulted (the root and every referenced atom, valid or not),
    re-reading those atoms' histories for every boundary search; a
    slice equal in composition to the one before it extends that state.
    Unknown atoms raise :class:`UnknownAtomError`.  This is what
    :meth:`MoleculeBuilder.build_history` must answer, by a slower road
    that shares none of its timelines.
    """
    consulting = _ConsultedReader(reader)
    builder = MoleculeBuilder(consulting, MetricsRegistry())
    states: List[Tuple[Interval, Molecule]] = []
    at = window.start
    while at < window.end:
        consulting.consulted = set()
        molecule = builder.build_at(root_id, mtype, at, tt)
        histories = reader.all_versions_many(
            consulting.consulted, Interval.always(), hist.belief(tt))
        next_at = FOREVER
        for atom_id in consulting.consulted:
            if atom_id not in histories:
                raise UnknownAtomError(f"no atom {atom_id}")
            for version in histories[atom_id]:
                for point in (version.vt.start, version.vt.end):
                    if at < point < next_at:
                        next_at = point
        if molecule is not None:
            span = Interval(at, min(next_at, window.end))
            if (states and states[-1][0].meets(span)
                    and states[-1][1].same_composition_as(molecule)):
                states[-1] = (Interval(states[-1][0].start, span.end),
                              states[-1][1])
            else:
                states.append((span, molecule))
        at = next_at
    return states
