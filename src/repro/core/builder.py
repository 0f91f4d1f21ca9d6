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
whole frontier (all roots of a batch included) and issues one set-oriented
``version_at_many`` call, which the storage layer answers with grouped
page accesses.

For interval (``VALID DURING``) queries the builder runs an event sweep:
build the slice at the window start, find the earliest valid-time boundary
of any involved or referenced atom after the current instant, and rebuild
there; adjacent slices with identical composition are coalesced.  A
per-call memo keeps each consulted atom's boundary points so the sweep
reads and decodes every history once, not once per slice.

The builder reads through the :class:`VersionReader` protocol so the same
construction logic serves the on-disk engine and the in-memory oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple

from repro.core import history as hist
from repro.core.molecule import Molecule, MoleculeAtom, MoleculeType
from repro.core.version import Version
from repro.errors import EvaluationError, UnknownAtomError
from repro.obs import MetricsRegistry
from repro.temporal import FOREVER, Interval, Timestamp


class VersionReader(Protocol):
    """What the builder needs from an engine: set-oriented version access.

    :class:`~repro.core.engine.StorageEngine` additionally accepts the
    ``pred`` / ``projection`` keywords of its pushdown; the builder
    passes them only when a caller compiled them against the engine.
    """

    def atom_type_name(self, atom_id: int) -> str:
        """The atom's type name (atoms never change type)."""

    def version_at_many(self, atom_ids: Iterable[int], at: Timestamp,
                        tt: Optional[Timestamp] = None
                        ) -> Dict[int, Optional[Version]]:
        """The version of each distinct atom valid at *at* as believed
        at *tt* (None = now); unknown atoms map to ``None``."""

    def all_versions_many(self, atom_ids: Iterable[int]
                          ) -> Dict[int, List[Version]]:
        """The full recorded history of each known atom, in sequence
        order; unknown atoms are omitted."""


# One pending child expansion: the parent's children list to append to,
# the edge taken, the child id, the edge budget left *at the parent*, the
# parent's depth, the parent's budget map, the path down to (and
# including) the parent, and the index of the tree being grown.
_Request = Tuple[List[MoleculeAtom], "object", int, int, int, dict,
                 frozenset, int]


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
                    pred=None, projection=None
                    ) -> Dict[int, Optional[Version]]:
        """One version fetch for a whole frontier level.

        The pushdown arguments are forwarded only when set, so readers
        implementing the bare protocol see the plain call shape.
        """
        ids = list(dict.fromkeys(atom_ids))
        if not ids:
            return {}
        self._h_batch.observe(len(ids))
        if pred is None and projection is None:
            return self._reader.version_at_many(ids, at, tt)
        return self._reader.version_at_many(ids, at, tt, pred=pred,
                                            projection=projection)

    # -- time-slice construction ---------------------------------------------

    def build_at(self, root_id: int, mtype: MoleculeType, at: Timestamp,
                 tt: Optional[Timestamp] = None) -> Optional[Molecule]:
        """The molecule rooted at *root_id*, valid at instant *at*.

        Returns ``None`` when the root atom itself has no valid version at
        the instant.
        """
        molecule, _ = self._build_collect(root_id, mtype, at, tt)
        return molecule

    def build_many(self, root_ids: Iterable[int], mtype: MoleculeType,
                   at: Timestamp, tt: Optional[Timestamp] = None,
                   root_pred=None, projection=None) -> List[Molecule]:
        """Molecules for every root id that is valid at the instant.

        Duplicate root ids are built once (first occurrence wins the
        position).  All roots are grown level-at-a-time sharing one
        version batch per level.  The caller must hold the facade's read
        latch (or otherwise guarantee no concurrent mutation) for the
        duration of the call.

        *root_pred* (a compiled payload predicate) applies to the root
        fetch only — a root whose version at the instant fails it builds
        no molecule, exactly as the evaluator's WHERE would have dropped
        it.  *projection* applies to every level: fetched versions carry
        only the attributes the query reads.
        """
        ids = list(dict.fromkeys(root_ids))
        if not ids:
            return []
        built = self._build_forest(ids, mtype, at, tt, root_pred, projection)
        return [molecule for molecule, _ in built if molecule is not None]

    def _build_collect(self, root_id: int, mtype: MoleculeType,
                       at: Timestamp, tt: Optional[Timestamp]
                       ) -> Tuple[Optional[Molecule], Set[int]]:
        """Build a slice and collect every atom id consulted (including
        referenced atoms that were invalid at the instant)."""
        return self._build_forest([root_id], mtype, at, tt)[0]

    def _build_forest(self, root_ids: List[int], mtype: MoleculeType,
                      at: Timestamp, tt: Optional[Timestamp],
                      root_pred=None, projection=None
                      ) -> List[Tuple[Optional[Molecule], Set[int]]]:
        """Level-at-a-time construction of one molecule per root id.

        Every depth level across *all* trees is resolved by a single
        batched fetch.  Returns ``(molecule or None, consulted ids)`` per
        root, in input order.
        """
        self._c_slices.inc(len(root_ids))
        consulted: List[Set[int]] = [{root_id} for root_id in root_ids]
        roots: List[Optional[MoleculeAtom]] = [None] * len(root_ids)
        root_versions = self._fetch_many(root_ids, at, tt,
                                         pred=root_pred,
                                         projection=projection)
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
                        consulted[index].add(child_id)
                        if child_id in path:
                            continue  # a data cycle: never revisit on a path
                        requests.append((children, edge, child_id, remaining,
                                         depth, budgets, path, index))
            if not requests:
                break
            versions = self._fetch_many(
                (request[2] for request in requests), at, tt,
                projection=projection)
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
        results: List[Tuple[Optional[Molecule], Set[int]]] = []
        for index, root_atom in enumerate(roots):
            if root_atom is None:
                results.append((None, consulted[index]))
            else:
                self._c_molecules.inc()
                results.append((Molecule(mtype, root_atom), consulted[index]))
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
        """
        states: List[Tuple[Interval, Molecule]] = []
        at = window.start
        memo: Dict[int, List[Timestamp]] = {}
        while at < window.end:
            molecule, consulted = self._build_collect(root_id, mtype, at, tt)
            next_at = self._next_boundary(consulted, at, tt, memo)
            span_end = min(next_at, window.end)
            if molecule is not None:
                span = Interval(at, span_end)
                if (states
                        and states[-1][0].meets(span)
                        and states[-1][1].same_composition_as(molecule)):
                    states[-1] = (Interval(states[-1][0].start, span.end),
                                  states[-1][1])
                else:
                    states.append((span, molecule))
            if next_at >= window.end:
                break
            at = next_at
        return states

    def _boundary_points(self, versions: List[Version],
                         tt: Optional[Timestamp]) -> List[Timestamp]:
        """Sorted distinct valid-time boundaries of the live versions."""
        points: Set[Timestamp] = set()
        for _, version in hist.live_versions(versions, tt):
            points.add(version.vt.start)
            points.add(version.vt.end)
        return sorted(points)

    def _next_boundary(self, atom_ids: Set[int], after: Timestamp,
                       tt: Optional[Timestamp],
                       memo: Dict[int, List[Timestamp]]) -> Timestamp:
        """Earliest valid-time boundary after *after* among the atoms.

        The *memo* (one dict per ``build_history`` call) keeps each
        atom's boundary points, so the sweep reads and decodes every
        history once: atoms not yet in it are read through one batched
        ``all_versions_many``.
        """
        self._c_boundary_scans.inc()
        missing = [atom_id for atom_id in atom_ids if atom_id not in memo]
        if missing:
            histories = self._reader.all_versions_many(missing)
            for atom_id in missing:
                versions = histories.get(atom_id)
                if versions is None:
                    raise UnknownAtomError(f"no atom {atom_id}")
                memo[atom_id] = self._boundary_points(versions, tt)
        boundary = FOREVER
        for atom_id in atom_ids:
            points = memo[atom_id]
            position = bisect_right(points, after)
            if position < len(points) and points[position] < boundary:
                boundary = points[position]
        return boundary
