"""Level-at-a-time molecule construction versus the legacy recursion.

The builder was rewritten from per-atom recursive descent to a
breadth-first expansion that issues one batched version fetch per depth
level.  The refactor must be invisible: cycle handling, per-edge depth
budgets, sorted child order, and depth-bound errors all carry over.
``legacy_build_at`` below re-implements the original recursion verbatim
as an in-test oracle so any semantic drift shows up as a composition
mismatch.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest

from repro import (
    AtomType,
    Attribute,
    DatabaseConfig,
    DataType,
    LinkType,
    Schema,
    TemporalDatabase,
)
from repro.core import history as hist
from repro.core.builder import MoleculeBuilder
from repro.core.molecule import Molecule, MoleculeAtom, MoleculeType
from repro.temporal import FOREVER, Interval
from repro.testing import ReferenceDatabase
from repro.workloads import (
    apply_to_database,
    cad_schema,
    generate_bom,
    small_spec,
)


# -- the legacy recursive builder, verbatim, as an oracle -------------------


def legacy_build_at(reader, root_id, mtype, at, tt=None):
    """The pre-batching recursive construction, preserved for comparison."""
    root_version = reader.version_at(root_id, at, tt)
    if root_version is None:
        return None
    budgets = {edge: edge.max_depth for edge in mtype.edges}
    root_atom = _legacy_expand(reader, root_id, mtype.root, root_version,
                               mtype, at, tt, depth=0, budgets=budgets,
                               path=frozenset())
    return Molecule(mtype, root_atom)


def _legacy_expand(reader, atom_id, type_name, version, mtype, at, tt,
                   depth, budgets, path):
    assert depth <= mtype.max_path_length()
    path = path | {atom_id}
    atom = MoleculeAtom(atom_id, type_name, version)
    for edge in mtype.edges_from(type_name):
        children: List[MoleculeAtom] = []
        remaining = budgets.get(edge, edge.max_depth)
        if remaining <= 0:
            atom.children[edge] = children
            continue
        partner_ids = version.refs.get(edge.parent_ref_key, frozenset())
        for child_id in sorted(partner_ids):
            if child_id in path:
                continue
            child_version = reader.version_at(child_id, at, tt)
            if child_version is None:
                continue
            child_budgets = dict(budgets)
            child_budgets[edge] = remaining - 1
            children.append(_legacy_expand(reader, child_id, edge.child,
                                           child_version, mtype, at, tt,
                                           depth + 1, child_budgets, path))
        atom.children[edge] = children
    return atom


def preorder(molecule: Molecule):
    """The (atom_id, type_name) walk, child order included."""
    return [(atom.atom_id, atom.type_name) for atom in molecule.atoms()]


class _UnbatchedReader:
    """A reader whose batch methods loop over the engine's per-atom
    reads: the atom-at-a-time access pattern behind the same protocol."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def atom_type_name(self, atom_id: int) -> str:
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        return {atom_id: self._engine.version_at(atom_id, at, tt)
                for atom_id in dict.fromkeys(atom_ids)}

    def all_versions_many(self, atom_ids):
        return {atom_id: self._engine.all_versions(atom_id)
                for atom_id in dict.fromkeys(atom_ids)}


class _HistoryCountingReader:
    """The engine, counting how often each atom's history is requested."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.history_reads: Counter = Counter()

    def atom_type_name(self, atom_id: int) -> str:
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        return self._engine.version_at_many(atom_ids, at, tt)

    def all_versions_many(self, atom_ids):
        ids = list(dict.fromkeys(atom_ids))
        self.history_reads.update(ids)
        return self._engine.all_versions_many(ids)


# -- fixtures ---------------------------------------------------------------


@pytest.fixture
def bom_schema() -> Schema:
    schema = Schema("bom")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
    ]))
    schema.add_link_type(LinkType("part_of", "Part", "Part"))
    return schema


@pytest.fixture
def workload_db(tmp_path, strategy):
    """A BOM workload database plus the ids of its Part roots."""
    ops, groups = generate_bom(small_spec(seed=42))
    db = TemporalDatabase.create(
        str(tmp_path / "batchdb"), cad_schema(),
        DatabaseConfig(strategy=strategy, buffer_pages=48))
    ids = apply_to_database(db, ops)
    yield db, [ids[handle] for handle in groups["Part"]]
    db.close()


# -- BFS vs legacy recursion ------------------------------------------------


class TestLegacyEquivalence:
    def test_workload_molecules_match_legacy(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse(
            "Part.contains.Component.supplied_by.Supplier", db.schema)
        for at in (0, 1, 3, 7):
            for root in roots:
                new = db.builder.build_at(root, mtype, at)
                old = legacy_build_at(db.engine, root, mtype, at)
                assert (new is None) == (old is None), (root, at)
                if new is not None:
                    assert new.same_composition_as(old)
                    assert preorder(new) == preorder(old)

    def test_recursive_type_with_data_cycle(self, tmp_path, strategy,
                                            bom_schema):
        db = TemporalDatabase.create(
            str(tmp_path / "cycledb"), bom_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=32))
        with db.transaction() as txn:
            a = txn.insert("Part", {"name": "a"}, valid_from=0)
            b = txn.insert("Part", {"name": "b"}, valid_from=0)
            c = txn.insert("Part", {"name": "c"}, valid_from=0)
            txn.link("part_of", a, b, valid_from=0)
            txn.link("part_of", b, c, valid_from=0)
            txn.link("part_of", c, a, valid_from=0)  # a → b → c → a
        mtype = MoleculeType.parse("Part.part_of[3].Part", bom_schema)
        for root in (a, b, c):
            new = db.builder.build_at(root, mtype, 5)
            old = legacy_build_at(db.engine, root, mtype, 5)
            assert new.same_composition_as(old)
            assert preorder(new) == preorder(old)
        db.close()

    def test_depth_budget_is_per_path(self, tmp_path, strategy, bom_schema):
        # A chain longer than the bound: expansion stops at the budget.
        db = TemporalDatabase.create(
            str(tmp_path / "chaindb"), bom_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=32))
        with db.transaction() as txn:
            parts = [txn.insert("Part", {"name": f"p{i}"}, valid_from=0)
                     for i in range(6)]
            for parent, child in zip(parts, parts[1:]):
                txn.link("part_of", parent, child, valid_from=0)
        mtype = MoleculeType.parse("Part.part_of[2].Part", bom_schema)
        new = db.builder.build_at(parts[0], mtype, 5)
        old = legacy_build_at(db.engine, parts[0], mtype, 5)
        assert new.atom_count() == 3  # root + two levels, budget exhausted
        assert preorder(new) == preorder(old)
        db.close()

    def test_fallback_reader_builds_identically(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        fallback = MoleculeBuilder(_UnbatchedReader(db.engine), db.metrics)
        for root in roots:
            batched = db.builder.build_at(root, mtype, 3)
            unbatched = fallback.build_at(root, mtype, 3)
            assert (batched is None) == (unbatched is None)
            if batched is not None:
                assert preorder(batched) == preorder(unbatched)

    def test_reference_reader_uses_batch_protocol(self, workload_db):
        db, _ = workload_db
        ref = ReferenceDatabase(cad_schema())
        # The oracle implements the batch protocol the builder reads
        # through, same as the engine.
        builder = MoleculeBuilder(ref)
        with db.transaction():
            pass  # no-op; just ensures db fixture stays in scope
        assert builder.build_at(999, MoleculeType("Part"), 0) is None


# -- build_many: dedupe, ordering --------------------------------------------


class TestBuildMany:
    def test_duplicate_roots_build_once(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        p1, p2 = roots[0], roots[1]
        before = db.metrics.value("builder.molecules")
        molecules = db.builder.build_many([p1, p2, p1], mtype, 3)
        built = db.metrics.value("builder.molecules") - before
        expected = [m for m in (db.builder.build_at(p1, mtype, 3),
                                db.builder.build_at(p2, mtype, 3))
                    if m is not None]
        assert [m.root.atom_id for m in molecules] == [
            m.root.atom_id for m in expected]
        assert built == len(expected)  # the duplicate was not rebuilt

    def test_first_occurrence_order_wins(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        wanted = [root for root in roots
                  if db.builder.build_at(root, mtype, 3) is not None]
        if len(wanted) < 2:
            pytest.skip("workload left fewer than two live parts")
        shuffled = [wanted[1], wanted[0], wanted[1], wanted[0]]
        molecules = db.builder.build_many(shuffled, mtype, 3)
        assert [m.root.atom_id for m in molecules] == [wanted[1], wanted[0]]

    def test_batch_size_histogram_observes(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        db.builder.build_many(roots, mtype, 3)
        snapshot = db.metrics.snapshot()
        batched = [h for h in snapshot["histograms"]
                   if h["name"] == "builder.batch_size"]
        assert batched and batched[0]["count"] > 0


# -- build_history memoization ----------------------------------------------


def rescanning_history(db, root_id, mtype, window):
    """``build_history`` without the boundary memo, as an in-test oracle:
    every boundary search re-reads each consulted atom's history."""
    states = []
    at = window.start
    while at < window.end:
        molecule, consulted = db.builder._build_collect(root_id, mtype, at,
                                                        None)
        next_at = FOREVER
        for atom_id in consulted:
            for _, version in hist.live_versions(
                    db.engine.all_versions(atom_id), None):
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


class TestHistoryMemo:
    def test_memo_on_and_off_agree(self, workload_db):
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        window = Interval(0, 10)
        for root in roots:
            mine = db.builder.build_history(root, mtype, window)
            theirs = rescanning_history(db, root, mtype, window)
            assert [str(span) for span, _ in mine] == [
                str(span) for span, _ in theirs]
            for (_, m), (_, t) in zip(mine, theirs):
                assert m.same_composition_as(t)

    def test_memo_cuts_version_scans(self, workload_db):
        """One ``build_history`` call reads each consulted atom's history
        at most once, however many slices its sweep builds."""
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        window = Interval(0, 10)
        swept = 0
        for root in roots:
            reader = _HistoryCountingReader(db.engine)
            states = MoleculeBuilder(reader, db.metrics).build_history(
                root, mtype, window)
            expected = db.builder.build_history(root, mtype, window)
            assert [str(span) for span, _ in states] == [
                str(span) for span, _ in expected]
            if reader.history_reads:
                assert max(reader.history_reads.values()) == 1, root
                swept += 1
        assert swept
