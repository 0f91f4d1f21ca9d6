"""Level-at-a-time molecule construction versus the legacy recursion,
and the history sweep versus the definition of a molecule's history.

The builder was rewritten from per-atom recursive descent to a
breadth-first expansion that issues one batched version fetch per depth
level.  The refactor must be invisible: cycle handling, per-edge depth
budgets, sorted child order, and depth-bound errors all carry over.
``legacy_build_at`` below re-implements the original recursion verbatim
as an in-test oracle so any semantic drift shows up as a composition
mismatch.  ``build_history`` resolves every slice from in-memory
timelines; :func:`repro.testing.rescanning_history` rebuilds each slice
through point reads and re-reads histories per boundary, and the two
must agree on every strategy, including ``AS OF``, shared components,
recursion with a data cycle, and boundaries that change nothing.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AtomType,
    Attribute,
    DatabaseConfig,
    DataType,
    LinkType,
    Schema,
    TemporalDatabase,
)
from repro.core.builder import MoleculeBuilder
from repro.core.molecule import Molecule, MoleculeAtom, MoleculeType
from repro.errors import ReproError, UnknownAtomError
from repro.temporal import FOREVER, Interval
from repro.testing import ReferenceDatabase, rescanning_history
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
    """A time-slice reader whose batch method loops over the engine's
    per-atom reads: the atom-at-a-time access pattern behind the same
    protocol."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def atom_type_name(self, atom_id: int) -> str:
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        return {atom_id: self._engine.version_at(atom_id, at, tt)
                for atom_id in dict.fromkeys(atom_ids)}


class _HistoryCountingReader:
    """The engine, counting how often each atom's history is requested
    and how many point reads are made."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.history_reads: Counter = Counter()
        self.point_reads = 0

    def atom_type_name(self, atom_id: int) -> str:
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        self.point_reads += 1
        return self._engine.version_at_many(atom_ids, at, tt)

    def all_versions_many(self, atom_ids, vt, tt):
        ids = list(dict.fromkeys(atom_ids))
        self.history_reads.update(ids)
        return self._engine.all_versions_many(ids, vt, tt)


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




# -- build_history: the sweep against the definition -------------------------


class TestHistoryMemo:
    def test_memo_on_and_off_agree(self, workload_db):
        """The sweep answers what the definitional loop answers."""
        db, roots = workload_db
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        window = Interval(0, 10)
        for root in roots:
            mine = db.builder.build_history(root, mtype, window)
            theirs = rescanning_history(db.engine, root, mtype, window)
            assert [str(span) for span, _ in mine] == [
                str(span) for span, _ in theirs]
            for (_, m), (_, t) in zip(mine, theirs):
                assert m.same_composition_as(t)

    def test_memo_cuts_version_scans(self, workload_db):
        """One ``build_history`` call reads each consulted atom's history
        at most once, however many slices its sweep builds, and makes no
        point read at all."""
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
            assert reader.point_reads == 0
            if reader.history_reads:
                assert max(reader.history_reads.values()) == 1, root
                swept += 1
        assert swept


def sweep_schema() -> Schema:
    """Parts, components and suppliers with a diamond-capable link set
    and a recursive part-of link."""
    schema = Schema("sweep")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT),
    ]))
    schema.add_atom_type(AtomType("Component", [
        Attribute("weight", DataType.FLOAT),
    ]))
    schema.add_atom_type(AtomType("Supplier", [
        Attribute("rating", DataType.FLOAT),
    ]))
    for name, (source, target) in SWEEP_LINKS.items():
        schema.add_link_type(LinkType(name, source, target))
    return schema


SWEEP_LINKS = {
    "contains": ("Part", "Component"),
    "supplied_by": ("Component", "Supplier"),
    "sourced_from": ("Part", "Supplier"),
    "part_of": ("Part", "Part"),
}

#: A DAG (a supplier reachable over two paths), the plain two-level
#: type, and a depth-bounded recursive type over a part-of cycle.
SWEEP_TYPES = (
    "Part(.contains.Component.supplied_by.Supplier)(.sourced_from.Supplier)",
    "Part.contains.Component",
    "Part.part_of[2].Part",
)

#: Atom slots of a sweep database: three parts, three components and
#: two suppliers, each with the attribute its updates change.
SWEEP_ATOMS = (("Part", "cost"),) * 3 + (("Component", "weight"),) * 3 + (
    ("Supplier", "rating"),) * 2


def sweep_db(path, strategy):
    """A sweep database: every atom valid from 0, two parts sharing a
    component, a supplier reachable from part 0 over two paths, and a
    part-of cycle 0 -> 1 -> 2 -> 0.  Returns (db, atom ids, tts)."""
    db = TemporalDatabase.create(
        str(path), sweep_schema(),
        DatabaseConfig(strategy=strategy, buffer_pages=32))
    with db.transaction() as txn:
        ids = []
        for slot, (type_name, _) in enumerate(SWEEP_ATOMS):
            values = {"name": f"p{slot}"} if type_name == "Part" else {}
            ids.append(txn.insert(type_name, values, valid_from=0))
        for link, a, b in (("contains", 0, 3), ("contains", 0, 4),
                           ("contains", 1, 4), ("contains", 1, 5),
                           ("supplied_by", 3, 6), ("supplied_by", 4, 7),
                           ("sourced_from", 0, 6), ("part_of", 0, 1),
                           ("part_of", 1, 2), ("part_of", 2, 0)):
            txn.link(link, ids[a], ids[b], valid_from=0)
    return db, ids, [txn.transaction_time]


def assert_sweep_is_definition(db, root, mtype, window, tt=None):
    mine = db.builder.build_history(root, mtype, window, tt)
    theirs = rescanning_history(db.engine, root, mtype, window, tt)
    assert [(span, molecule.to_dict()) for span, molecule in mine] == [
        (span, molecule.to_dict()) for span, molecule in theirs], (
            root, str(mtype), window, tt)
    return mine


@st.composite
def sweep_programs(draw):
    """Random updates, deletes, corrections and (un)links, each over a
    random valid-time window, one transaction each."""
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        start = draw(st.integers(0, 30))
        end = draw(st.one_of(st.just(FOREVER), st.integers(start + 1, 40)))
        steps.append((
            draw(st.sampled_from(["update", "delete", "correct", "link",
                                  "unlink"])),
            draw(st.integers(0, len(SWEEP_ATOMS) - 1)),
            draw(st.integers(0, len(SWEEP_ATOMS) - 1)),
            draw(st.sampled_from(sorted(SWEEP_LINKS))),
            float(draw(st.integers(0, 2))),
            start, end))
    return steps


def run_sweep_program(db, ids, tts, steps):
    """Apply *steps*; a step the model refuses is skipped."""
    for kind, a, b, link, value, start, end in steps:
        try:
            with db.transaction() as txn:
                attr = SWEEP_ATOMS[a][1]
                if kind == "update":
                    txn.update(ids[a], {attr: value}, valid_from=start)
                elif kind == "delete":
                    txn.delete(ids[a], valid_from=start, valid_to=end)
                elif kind == "correct":
                    txn.correct(ids[a], start, end, {attr: value})
                else:
                    source, target = SWEEP_LINKS[link]
                    src = [i for i, (t, _) in enumerate(SWEEP_ATOMS)
                           if t == source]
                    dst = [i for i, (t, _) in enumerate(SWEEP_ATOMS)
                           if t == target]
                    getattr(txn, kind)(link, ids[src[a % len(src)]],
                                       ids[dst[b % len(dst)]],
                                       valid_from=start, valid_to=end)
                tts.append(txn.transaction_time)
        except ReproError:
            continue


class TestSweepMatchesDefinition:
    """``build_history``'s one sweep against the definitional loop
    (:func:`repro.testing.rescanning_history`), on every strategy."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=sweep_programs(), picks=st.lists(
        st.integers(0, 10 ** 6), min_size=4, max_size=4))
    def test_random_histories(self, tmp_path_factory, strategy, steps,
                              picks):
        db, ids, tts = sweep_db(tmp_path_factory.mktemp("sweep") / "db",
                                strategy)
        try:
            run_sweep_program(db, ids, tts, steps)
            a = picks[0] % 35
            windows = (Interval(0, FOREVER), Interval(a, a + 1 + picks[1] % 12))
            as_of = (None, tts[picks[2] % len(tts)],
                     tts[picks[3] % len(tts)] + 1)
            for text in SWEEP_TYPES:
                mtype = MoleculeType.parse(text, db.schema)
                for root in ids[:3]:
                    for window in windows:
                        for tt in as_of:
                            assert_sweep_is_definition(db, root, mtype,
                                                       window, tt)
        finally:
            db.close()

    def test_unchanged_values_coalesce(self, tmp_path, strategy):
        # Linking component 3 to a supplier at 5 splits its version
        # there, but Part.contains.Component never follows that link:
        # the boundary is visited and the two slices coalesce.
        db, ids, _ = sweep_db(tmp_path / "db", strategy)
        with db.transaction() as txn:
            txn.link("supplied_by", ids[3], ids[7], valid_from=5)
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        before = db.metrics.value("builder.boundary_scans")
        states = assert_sweep_is_definition(db, ids[0], mtype,
                                            Interval(0, 10))
        assert db.metrics.value("builder.boundary_scans") - before == 2
        assert [span for span, _ in states] == [Interval(0, 10)]
        db.close()

    def test_child_invalid_under_unchanged_parent(self, tmp_path,
                                                  strategy):
        # Component 3 is deleted over [3, 6) while part 0's refs keep
        # naming it: the boundaries come from the child's history alone.
        db, ids, _ = sweep_db(tmp_path / "db", strategy)
        with db.transaction() as txn:
            txn.delete(ids[3], valid_from=3, valid_to=6)
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        states = assert_sweep_is_definition(db, ids[0], mtype,
                                            Interval(0, 10))
        assert [span for span, _ in states] == [
            Interval(0, 3), Interval(3, 6), Interval(6, 10)]
        assert [molecule.atom_count() for _, molecule in states] == [
            3, 2, 3]
        assert len(db.engine.all_versions(ids[0])) == 1
        db.close()

    def test_unknown_root_raises(self, tmp_path, strategy):
        db, _, _ = sweep_db(tmp_path / "db", strategy)
        mtype = MoleculeType.parse("Part.contains.Component", db.schema)
        with pytest.raises(UnknownAtomError):
            db.builder.build_history(999, mtype, Interval(0, 10))
        with pytest.raises(UnknownAtomError):
            rescanning_history(db.engine, 999, mtype, Interval(0, 10))
        db.close()


class TestSweepDecodesOnlyWhatItKeeps:
    """A cold sweep decodes just the versions believed at its
    transaction time that overlap its window, not every stored one: the
    chains below hold 79 stored versions per atom, 40 of them live."""

    CHAIN = 40

    @pytest.fixture
    def deep_db(self, tmp_path, strategy):
        db = TemporalDatabase.create(str(tmp_path / "deep"), cad_schema(),
                                     DatabaseConfig(strategy=strategy))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 0.0},
                              valid_from=0)
            comps = [txn.insert("Component", {"cname": f"c{i}"},
                                valid_from=0) for i in range(3)]
            for comp in comps:
                txn.link("contains", part, comp, valid_from=0)
        for at in range(1, self.CHAIN):
            with db.transaction() as txn:
                txn.update(part, {"cost": float(at)}, valid_from=at)
                for comp in comps:
                    txn.update(comp, {"weight": float(at)}, valid_from=at)
        yield db, [part] + comps
        db.close()

    def _decodes(self, db, text):
        """The cold query's result and the versions it decoded per atom:
        every decode stays on its cached slot, so the slots count them."""
        engine = db.engine
        engine.drop_caches()
        misses = db.metrics.value("engine.decode_cache.misses")
        result = db.query(text)
        decoded = Counter()
        for atom_id, entry in engine._decode_cache._atoms.items():
            for slot in entry.slots.values():
                decoded[atom_id] += slot.version is not None
        decoded += Counter()  # drop atoms with no decode
        assert sum(decoded.values()) == (
            db.metrics.value("engine.decode_cache.misses") - misses)
        return result, decoded

    def test_valid_history(self, deep_db):
        db, atoms = deep_db
        assert len(db.engine.all_versions(atoms[1])) == 2 * self.CHAIN - 1
        text = "SELECT ALL FROM Part.contains.Component VALID HISTORY"
        result, decoded = self._decodes(db, text)
        assert set(decoded) == set(atoms)
        assert max(decoded.values()) <= self.CHAIN
        assert len(result.entries) == self.CHAIN

    def test_valid_during(self, deep_db):
        db, atoms = deep_db
        text = ("SELECT ALL FROM Part.contains.Component "
                "VALID DURING [20, 28)")
        result, decoded = self._decodes(db, text)
        assert set(decoded) == set(atoms)
        assert max(decoded.values()) <= 10
        assert len(result.entries) == 8

    def test_as_of(self, deep_db):
        # AS OF a past transaction time selects on peeked tt pairs.
        db, atoms = deep_db
        tt = db.engine.all_versions(atoms[0])[10].tt.start
        text = ("SELECT ALL FROM Part.contains.Component "
                f"VALID DURING [0, 8) AS OF {tt}")
        result, decoded = self._decodes(db, text)
        assert max(decoded.values()) <= 10
        expected = db.builder.build_history(
            atoms[0], MoleculeType.parse("Part.contains.Component",
                                         db.schema), Interval(0, 8), tt)
        assert len(result.entries) == len(expected)
