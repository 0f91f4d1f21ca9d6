"""Molecule construction: deriving complex objects from atom versions.

The builder is the temporal heart of query processing.  Given a molecule
type and a *time-slice* instant, it fetches the root atom's version valid
at that instant, then follows reference sets edge by edge, fetching each
partner's version at the same instant; atoms with no valid version at the
instant silently drop out (a reference may point at an atom born later or
already ended — the reference is part of the parent's state, the partner's
existence is its own).

Expansion is *level-at-a-time*: instead of probing the reader once per
child, each BFS depth level gathers every child id discovered across the
whole frontier (all roots of a batch included) and resolves them in one
call.  A time slice resolves through one set-oriented ``version_at_many``
per level, which the storage layer answers with grouped page accesses.

Interval (``VALID DURING`` / ``VALID HISTORY``) queries run one sweep
over the atoms' histories.  Each atom the expansion reaches is read once,
through one batched ``all_versions_many`` per level that meets new
atoms, which returns just its versions that overlap the window and are
believed at the query's transaction time; sorted by valid start, they
become an in-memory timeline (the versions with their start and end
points).  Every slice of the window is then expanded by the same
level-at-a-time code, resolving each level by bisecting the timelines
instead of calling the reader; the same bisects yield the earliest
valid-time boundary after the instant among the atoms the slice
consulted, which is where the next slice starts.  Adjacent slices with
equal composition are coalesced.  So a sweep's reader calls depend on
the molecule's depth, not on how many boundaries the window holds.

The builder reads through the :class:`VersionReader` protocol so the same
construction logic serves the on-disk engine and the in-memory oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (Callable, Dict, Iterable, List, Optional, Protocol,
                    Tuple)

from repro.core.history import belief
from repro.core.molecule import Molecule, MoleculeAtom, MoleculeType
from repro.core.version import Version
from repro.errors import EvaluationError, UnknownAtomError
from repro.obs import MetricsRegistry
from repro.temporal import FOREVER, Interval, Timestamp


class VersionReader(Protocol):
    """What the builder needs from an engine: set-oriented version access.

    :class:`~repro.core.engine.StorageEngine` additionally accepts the
    ``pred`` keyword of its predicate pushdown; the builder passes it
    only when a caller compiled one against the engine.
    """

    def atom_type_name(self, atom_id: int) -> str:
        """The atom's type name (atoms never change type)."""

    def version_at_many(self, atom_ids: Iterable[int], at: Timestamp,
                        tt: Optional[Timestamp] = None
                        ) -> Dict[int, Optional[Version]]:
        """The version of each distinct atom valid at *at* as believed
        at *tt* (None = now); unknown atoms map to ``None``."""

    def all_versions_many(self, atom_ids: Iterable[int],
                          vt: Interval = Interval.always(),
                          tt: Interval = Interval.always()
                          ) -> Dict[int, List[Version]]:
        """The versions of each known atom whose valid and transaction
        times overlap *vt* and *tt* (:func:`~repro.core.history.belief`
        for one belief), in sequence order; unknown atoms are omitted.
        The defaults give the whole recorded history."""


#: Resolves one expansion level: atom ids -> the version each has in the
#: slice being built (``None`` when it has none).
Fetch = Callable[[List[int]], Dict[int, Optional[Version]]]

# One pending child expansion: the parent's children list to append to,
# the edge taken, the child id, the edge budget left *at the parent*, the
# parent's depth, the parent's budget map, the path down to (and
# including) the parent, and the index of the tree being grown.
_Request = Tuple[List[MoleculeAtom], "object", int, int, int, dict,
                 frozenset, int]


class _Timeline:
    """One atom's versions believed at one transaction time that overlap
    the sweep's window, sorted by valid start.  They are valid-time
    disjoint (the history invariant), so one bisect over their starts
    finds both the version valid at an instant and the atom's next
    boundary after it; a boundary outside the window ends the sweep
    whether it is known or not."""

    __slots__ = ("starts", "ends", "versions")

    def __init__(self, versions: List[Version]) -> None:
        self.versions = versions = sorted(
            versions, key=lambda version: version.vt.start)
        self.starts = [version.vt.start for version in versions]
        self.ends = [version.vt.end for version in versions]

    def at(self, at: Timestamp) -> Tuple[Optional[Version], Timestamp]:
        """The version valid at *at* (or ``None``) and the earliest start
        or end point after *at* (``FOREVER`` when there is none)."""
        index = bisect_right(self.starts, at) - 1
        if index >= 0 and at < self.ends[index]:
            return self.versions[index], self.ends[index]
        index += 1
        return (None, self.starts[index] if index < len(self.starts)
                else FOREVER)


class _Sweep:
    """The timelines of one ``build_history`` call, resolving the slice
    at :attr:`at` and tracking its next boundary."""

    __slots__ = ("_reader", "_window", "_belief", "_timelines", "at",
                 "boundary")

    def __init__(self, reader: VersionReader, window: Interval,
                 tt: Optional[Timestamp]) -> None:
        self._reader = reader
        self._window = window
        self._belief = belief(tt)
        self._timelines: Dict[int, _Timeline] = {}
        self.at: Timestamp = 0
        #: Earliest boundary after :attr:`at` among the atoms resolved
        #: since :meth:`start` — the atoms the slice consulted.
        self.boundary: Timestamp = FOREVER

    def start(self, at: Timestamp) -> None:
        self.at = at
        self.boundary = FOREVER

    def resolve(self, atom_ids: List[int]) -> Dict[int, Optional[Version]]:
        """A :data:`Fetch` over the timelines; atoms met for the first
        time are read in one ``all_versions_many``, and an atom the
        reader does not know raises :class:`UnknownAtomError`."""
        timelines = self._timelines
        missing = [atom_id for atom_id in dict.fromkeys(atom_ids)
                   if atom_id not in timelines]
        if missing:
            histories = self._reader.all_versions_many(
                missing, self._window, self._belief)
            for atom_id in missing:
                versions = histories.get(atom_id)
                if versions is None:
                    raise UnknownAtomError(f"no atom {atom_id}")
                timelines[atom_id] = _Timeline(versions)
        found: Dict[int, Optional[Version]] = {}
        at, boundary = self.at, self.boundary
        for atom_id in atom_ids:
            found[atom_id], next_at = timelines[atom_id].at(at)
            if next_at < boundary:
                boundary = next_at
        self.boundary = boundary
        return found


class MoleculeBuilder:
    """Builds molecule instances from a version reader."""

    def __init__(self, reader: VersionReader,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._reader = reader
        if metrics is None:
            metrics = getattr(reader, "metrics", None) or MetricsRegistry()
        self.metrics = metrics
        self._c_molecules = metrics.counter("builder.molecules")
        self._c_atoms = metrics.counter("builder.atoms_expanded")
        self._c_slices = metrics.counter("builder.slices")
        self._c_boundary_scans = metrics.counter("builder.boundary_scans")
        self._h_batch = metrics.histogram("builder.batch_size")

    # -- set-oriented fetch ----------------------------------------------------

    def _fetch_many(self, atom_ids: Iterable[int], at: Timestamp,
                    tt: Optional[Timestamp],
                    pred=None) -> Dict[int, Optional[Version]]:
        """One version fetch for a whole frontier level.

        The pushdown predicate is forwarded only when set, so readers
        implementing the bare protocol see the plain call shape.
        """
        ids = list(dict.fromkeys(atom_ids))
        if not ids:
            return {}
        self._h_batch.observe(len(ids))
        if pred is None:
            return self._reader.version_at_many(ids, at, tt)
        return self._reader.version_at_many(ids, at, tt, pred=pred)

    # -- time-slice construction ---------------------------------------------

    def build_at(self, root_id: int, mtype: MoleculeType, at: Timestamp,
                 tt: Optional[Timestamp] = None) -> Optional[Molecule]:
        """The molecule rooted at *root_id*, valid at instant *at*.

        Returns ``None`` when the root atom itself has no valid version at
        the instant.
        """
        molecules = self.build_many([root_id], mtype, at, tt)
        return molecules[0] if molecules else None

    def build_many(self, root_ids: Iterable[int], mtype: MoleculeType,
                   at: Timestamp, tt: Optional[Timestamp] = None,
                   root_pred=None) -> List[Molecule]:
        """Molecules for every root id that is valid at the instant.

        Duplicate root ids are built once (first occurrence wins the
        position).  All roots are grown level-at-a-time sharing one
        version batch per level.  The caller must hold the facade's read
        latch (or otherwise guarantee no concurrent mutation) for the
        duration of the call.

        *root_pred* (a compiled payload predicate) applies to the root
        fetch only — a root whose version at the instant fails it builds
        no molecule, exactly as the evaluator's WHERE would have dropped
        it.
        """
        ids = list(dict.fromkeys(root_ids))
        if not ids:
            return []

        def fetch(atom_ids: List[int]) -> Dict[int, Optional[Version]]:
            return self._fetch_many(atom_ids, at, tt)

        def fetch_roots(atom_ids: List[int]
                        ) -> Dict[int, Optional[Version]]:
            return self._fetch_many(atom_ids, at, tt, pred=root_pred)

        built = self._build_forest(ids, mtype, fetch, fetch_roots)
        return [molecule for molecule in built if molecule is not None]

    def _build_forest(self, root_ids: List[int], mtype: MoleculeType,
                      fetch: Fetch, fetch_roots: Optional[Fetch] = None
                      ) -> List[Optional[Molecule]]:
        """Level-at-a-time construction of one molecule per root id.

        Every depth level across *all* trees is resolved by one *fetch*
        call (*fetch_roots*, when given, resolves the roots).  Returns
        the molecule, or ``None`` for a root with no version, per root in
        input order.
        """
        self._c_slices.inc(len(root_ids))
        roots: List[Optional[MoleculeAtom]] = [None] * len(root_ids)
        root_versions = (fetch_roots or fetch)(root_ids)
        depth_bound = mtype.max_path_length()
        # Frontier of materialized-but-unexpanded atoms.
        frontier: List[Tuple[int, MoleculeAtom, int, dict, frozenset]] = []
        for index, root_id in enumerate(root_ids):
            version = root_versions.get(root_id)
            if version is None:
                continue
            roots[index] = MoleculeAtom(root_id, mtype.root, version)
            budgets = {edge: edge.max_depth for edge in mtype.edges}
            frontier.append((index, roots[index], 0, budgets, frozenset()))
        while frontier:
            requests: List[_Request] = []
            for index, atom, depth, budgets, path in frontier:
                if depth > depth_bound:
                    raise EvaluationError(
                        "molecule expansion exceeded its type's depth bound "
                        "(cyclic molecule type?)")
                self._c_atoms.inc()
                path = path | {atom.atom_id}
                for edge in mtype.edges_from(atom.type_name):
                    children: List[MoleculeAtom] = []
                    atom.children[edge] = children
                    remaining = budgets.get(edge, edge.max_depth)
                    if remaining <= 0:
                        continue
                    partner_ids = atom.version.refs.get(
                        edge.parent_ref_key, frozenset())
                    for child_id in sorted(partner_ids):
                        if child_id in path:
                            continue  # a data cycle: never revisit on a path
                        requests.append((children, edge, child_id, remaining,
                                         depth, budgets, path, index))
            if not requests:
                break
            versions = fetch([request[2] for request in requests])
            frontier = []
            for (children, edge, child_id, remaining, depth, budgets,
                 path, index) in requests:
                version = versions.get(child_id)
                if version is None:
                    continue  # referenced but not valid at this instant
                child_budgets = dict(budgets)
                child_budgets[edge] = remaining - 1
                child = MoleculeAtom(child_id, edge.child, version)
                children.append(child)
                frontier.append((index, child, depth + 1, child_budgets,
                                 path))
        results: List[Optional[Molecule]] = []
        for root_atom in roots:
            if root_atom is None:
                results.append(None)
            else:
                self._c_molecules.inc()
                results.append(Molecule(mtype, root_atom))
        return results

    # -- interval construction -----------------------------------------------------

    def build_history(self, root_id: int, mtype: MoleculeType,
                      window: Interval,
                      tt: Optional[Timestamp] = None
                      ) -> List[Tuple[Interval, Molecule]]:
        """The molecule's states over *window*, coalesced.

        Each returned interval is a maximal span inside the window during
        which the molecule's composition (atoms, values, references) is
        constant; spans where the root is not valid produce no entry.
        Raises :class:`UnknownAtomError` when the root, or an atom a
        slice references, is unknown to the reader.
        """
        sweep = _Sweep(self._reader, window, tt)
        states: List[Tuple[Interval, Molecule]] = []
        at = window.start
        while at < window.end:
            self._c_boundary_scans.inc()
            sweep.start(at)
            (molecule,) = self._build_forest([root_id], mtype,
                                             sweep.resolve)
            next_at = sweep.boundary
            if molecule is not None:
                span = Interval(at, min(next_at, window.end))
                if (states
                        and states[-1][0].meets(span)
                        and states[-1][1].same_composition_as(molecule)):
                    states[-1] = (Interval(states[-1][0].start, span.end),
                                  states[-1][1])
                else:
                    states.append((span, molecule))
            at = next_at
        return states
