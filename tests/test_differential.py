"""Differential tests: the engine versus the in-memory oracle.

The oracle executes the same pure history algebra on plain Python data;
whatever the engine stores and retrieves through pages, codecs,
directories, and indexes must agree with it exactly.  Random operation
sequences come from hypothesis; structured ones from the BOM workload.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.errors import ReproError
from repro.temporal import FOREVER, Interval
from repro.testing import ReferenceDatabase
from repro.workloads import (
    apply_to_database,
    apply_to_reference,
    cad_schema,
    generate_bom,
    small_spec,
)


def assert_same_view(db, ref, db_ids, ref_ids, probes, mtype):
    """Compare slices and histories for every atom at several instants."""
    for handle in db_ids:
        db_atom, ref_atom = db_ids[handle], ref_ids[handle]
        for at in probes:
            mine = db.engine.version_at(db_atom, at)
            theirs = ref.version_at(ref_atom, at)
            assert (mine is None) == (theirs is None), (handle, at)
            if mine is not None:
                assert dict(mine.values) == dict(theirs.values), (handle, at)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 1992])
    def test_bom_workload_matches_oracle(self, tmp_path, strategy, seed):
        spec = small_spec(seed=seed)
        ops, groups = generate_bom(spec)
        ref = ReferenceDatabase(cad_schema())
        ref_ids = apply_to_reference(ref, ops)
        db = TemporalDatabase.create(
            str(tmp_path / f"dbdiff{seed}"), cad_schema(),
            DatabaseConfig(strategy=strategy, buffer_pages=48))
        db_ids = apply_to_database(db, ops)
        probes = (0, 1, 2, spec.versions_per_atom, FOREVER - 1)
        assert_same_view(db, ref, db_ids, ref_ids, probes, None)
        # Molecules for every part at every probe instant:
        for handle in groups["Part"]:
            for at in probes:
                mine = db.molecule_at(db_ids[handle],
                                      "Part.contains.Component", at)
                theirs = ref.molecule_at(ref_ids[handle],
                                         "Part.contains.Component", at)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine.atom_count() == theirs.atom_count()
        # Histories for a few parts:
        for handle in groups["Part"][:3]:
            mine = db.molecule_history(db_ids[handle], "Part",
                                       Interval(0, 10))
            theirs = ref.molecule_history(ref_ids[handle], "Part",
                                          Interval(0, 10))
            assert [str(span) for span, _ in mine] == [
                str(span) for span, _ in theirs]
            for (_, m), (_, t) in zip(mine, theirs):
                assert m.same_composition_as(t)
        db.close()

    def test_batched_build_many_matches_oracle(self, tmp_path, strategy):
        """The set-oriented read path (batched fetch and decode cache)
        returns exactly what per-root oracle construction does, in root
        order."""
        spec = small_spec(seed=7)
        ops, groups = generate_bom(spec)
        ref = ReferenceDatabase(cad_schema())
        ref_ids = apply_to_reference(ref, ops)
        db = TemporalDatabase.create(
            str(tmp_path / "dbbatch"), cad_schema(),
            DatabaseConfig(strategy=strategy, buffer_pages=48))
        db_ids = apply_to_database(db, ops)
        roots = [db_ids[handle] for handle in groups["Part"]]
        back = {db_ids[handle]: ref_ids[handle]
                for handle in groups["Part"]}
        for at in (0, 1, 2, spec.versions_per_atom):
            mine = db.molecules_at(roots, "Part.contains.Component", at)
            theirs = [ref.molecule_at(back[root],
                                      "Part.contains.Component", at)
                      for root in roots]
            theirs = [m for m in theirs if m is not None]
            assert len(mine) == len(theirs), at
            for m, t in zip(mine, theirs):
                assert m.atom_count() == t.atom_count()
                assert sorted(a.type_name for a in m.atoms()) == sorted(
                    a.type_name for a in t.atoms())
        db.close()


@st.composite
def op_batches(draw):
    """A short random program over two parts and two components."""
    batch = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["insert_part", "insert_comp", "update", "delete", "link",
             "unlink", "correct"]))
        start = draw(st.integers(0, 40))
        end = draw(st.integers(start + 1, 60))
        value = draw(st.integers(0, 99))
        target = draw(st.integers(0, 3))
        batch.append((kind, start, end, value, target))
    return batch


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=op_batches(),
       strategy=st.sampled_from(list(VersionStrategy)))
def test_random_programs_match_oracle(tmp_path_factory, batch, strategy):
    schema = cad_schema()
    ref = ReferenceDatabase(schema)
    path = tmp_path_factory.mktemp("randdiff")
    db = TemporalDatabase.create(str(path / "db"), schema,
                                 DatabaseConfig(strategy=strategy,
                                                buffer_pages=32))
    parts, comps = [], []

    def run(apply_ref, apply_db):
        """Apply one logical op to both; both must agree on outcome."""
        ref_error = db_error = None
        try:
            apply_ref()
        except ReproError as exc:
            ref_error = type(exc)
        try:
            with db.transaction() as txn:
                apply_db(txn)
        except ReproError as exc:
            db_error = type(exc)
        assert (ref_error is None) == (db_error is None), (ref_error,
                                                           db_error)

    for kind, start, end, value, target in batch:
        if kind == "insert_part":
            name = f"part-{value}"
            ref_id = [None]

            def ins_ref():
                ref_id[0] = ref.insert("Part", {"name": name},
                                       valid_from=start, valid_to=end)

            db_id = [None]

            def ins_db(txn):
                db_id[0] = txn.insert("Part", {"name": name},
                                      valid_from=start, valid_to=end)

            run(ins_ref, ins_db)
            if ref_id[0] is not None and db_id[0] is not None:
                parts.append((db_id[0], ref_id[0]))
        elif kind == "insert_comp":
            ref_id, db_id = [None], [None]

            def insc_ref():
                ref_id[0] = ref.insert("Component",
                                       {"cname": f"c{value}"},
                                       valid_from=start)

            def insc_db(txn):
                db_id[0] = txn.insert("Component", {"cname": f"c{value}"},
                                      valid_from=start)

            run(insc_ref, insc_db)
            if ref_id[0] is not None:
                comps.append((db_id[0], ref_id[0]))
        elif kind == "update" and parts:
            db_atom, ref_atom = parts[target % len(parts)]
            run(lambda: ref.update(ref_atom, {"cost": float(value)},
                                   valid_from=start),
                lambda txn: txn.update(db_atom, {"cost": float(value)},
                                       valid_from=start))
        elif kind == "delete" and parts:
            db_atom, ref_atom = parts[target % len(parts)]
            run(lambda: ref.delete(ref_atom, valid_from=start,
                                   valid_to=end),
                lambda txn: txn.delete(db_atom, valid_from=start,
                                       valid_to=end))
        elif kind == "correct" and parts:
            db_atom, ref_atom = parts[target % len(parts)]
            run(lambda: ref.correct(ref_atom, start, end,
                                    {"cost": float(value)}),
                lambda txn: txn.correct(db_atom, start, end,
                                        {"cost": float(value)}))
        elif kind == "link" and parts and comps:
            db_p, ref_p = parts[target % len(parts)]
            db_c, ref_c = comps[value % len(comps)]
            run(lambda: ref.link("contains", ref_p, ref_c,
                                 valid_from=start, valid_to=end),
                lambda txn: txn.link("contains", db_p, db_c,
                                     valid_from=start, valid_to=end))
        elif kind == "unlink" and parts and comps:
            db_p, ref_p = parts[target % len(parts)]
            db_c, ref_c = comps[value % len(comps)]
            run(lambda: ref.unlink("contains", ref_p, ref_c,
                                   valid_from=start, valid_to=end),
                lambda txn: txn.unlink("contains", db_p, db_c,
                                       valid_from=start, valid_to=end))

    # Final comparison over a grid of instants.
    for db_atom, ref_atom in parts + comps:
        for at in (0, 10, 25, 45, 70):
            mine = db.engine.version_at(db_atom, at)
            theirs = ref.version_at(ref_atom, at)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert dict(mine.values) == dict(theirs.values)
                assert len(mine.refs) == len(theirs.refs)
    db.close()


@pytest.mark.parametrize("window", [(0, 3), (1, 4), (0, 50)],
                         ids=["early", "mid", "wide"])
def test_molecule_histories_match_oracle(tmp_path, strategy, window):
    """Interval queries agree between the engine and the oracle for every
    part, across windows and strategies."""
    spec = small_spec(seed=99)
    ops, groups = generate_bom(spec)
    ref = ReferenceDatabase(cad_schema())
    ref_ids = apply_to_reference(ref, ops)
    db = TemporalDatabase.create(str(tmp_path / "histdiff"), cad_schema(),
                                 DatabaseConfig(strategy=strategy))
    db_ids = apply_to_database(db, ops)
    span = Interval(*window)
    for handle in groups["Part"]:
        mine = db.molecule_history(db_ids[handle],
                                   "Part.contains.Component", span)
        theirs = ref.molecule_history(ref_ids[handle],
                                      "Part.contains.Component", span)
        assert [str(interval) for interval, _ in mine] == [
            str(interval) for interval, _ in theirs], handle
        for (_, molecule), (_, expected) in zip(mine, theirs):
            assert molecule.same_composition_as(expected), handle
    db.close()
