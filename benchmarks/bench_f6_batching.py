"""R-F6 — The set-oriented read path: batching and the history sweep.

Three questions, one per section:

1. **Page touches per molecule** — building through the batched
   ``version_at_many`` path must touch fewer buffer pages than the
   atom-at-a-time baseline (a reader whose batch method loops over the
   engine's per-atom ``version_at``), for every storage strategy.  This
   is the CI gate: batching that stops paying off fails the run.
2. **History reconstruction** — ``build_history``'s sweep must read
   each consulted atom's history at most once per call, however many
   slices it builds (an absolute count gate).
3. **Reader calls per history** — the sweep resolves every slice from
   in-memory timelines, so its reader calls (``version_at_many`` plus
   ``all_versions_many``) must be the same for a window of 8 boundaries
   and one of 40, on every strategy (a count gate).

Decode caches are cleared before each measured run so page touches
reflect the read path itself, not residue from a previous measurement.
"""

from collections import Counter

import pytest

from benchmarks._util import (
    ALL_STRATEGIES,
    build_db,
    emit,
    header,
    pins,
    reset_counters,
)
from repro import MoleculeType
from repro.core.builder import MoleculeBuilder
from repro.workloads import fanout_spec


class _UnbatchedReader:
    """The atom-at-a-time path: one engine read per atom."""

    def __init__(self, engine):
        self._engine = engine

    def atom_type_name(self, atom_id):
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        return {atom_id: self._engine.version_at(atom_id, at, tt)
                for atom_id in dict.fromkeys(atom_ids)}


class _HistoryCountingReader:
    """The engine, counting how often each atom's history is requested
    and how many batched calls of each kind are made."""

    def __init__(self, engine):
        self._engine = engine
        self.history_reads = Counter()
        self.calls = Counter()

    def atom_type_name(self, atom_id):
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        self.calls["version_at_many"] += 1
        return self._engine.version_at_many(atom_ids, at, tt)

    def all_versions_many(self, atom_ids, vt, tt):
        self.calls["all_versions_many"] += 1
        ids = list(dict.fromkeys(atom_ids))
        self.history_reads.update(ids)
        return self._engine.all_versions_many(ids, vt, tt)


def test_f6_report_header(benchmark, capsys):
    header(capsys, "R-F6",
           "batched fetch vs atom-at-a-time, history sweep")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        path = tmp_path_factory.mktemp("f6") / f"db-{strategy.value}"
        built[strategy] = build_db(str(path), fanout_spec(fanout=16),
                                   strategy, buffer_pages=1024)
    yield built
    for db, _, _ in built.values():
        db.close()


# -- 1: page touches, batched vs unbatched ----------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_page_touches(benchmark, capsys, databases, strategy):
    db, ids, groups = databases[strategy]
    mtype = MoleculeType.parse(
        "Part.contains.Component.supplied_by.Supplier", db.schema)
    part = ids[groups["Part"][0]]
    unbatched_builder = MoleculeBuilder(_UnbatchedReader(db.engine),
                                        db.metrics)

    def batched():
        db.engine.drop_caches()
        return db.builder.build_at(part, mtype, 1)

    def unbatched():
        db.engine.drop_caches()
        return unbatched_builder.build_at(part, mtype, 1)

    molecule = benchmark(batched)
    size = molecule.atom_count()

    reset_counters(db)
    db.builder.build_at(part, mtype, 1)
    batched_pins = pins(db)

    reset_counters(db)
    reference = unbatched_builder.build_at(part, mtype, 1)
    unbatched_pins = pins(db)

    assert molecule.same_composition_as(reference)
    emit(capsys,
         f"R-F6 | {strategy.value:>9} | atoms={size:>3} | "
         f"batched_pins={batched_pins:>4} "
         f"({batched_pins / size:.2f}/atom) | "
         f"unbatched_pins={unbatched_pins:>4} "
         f"({unbatched_pins / size:.2f}/atom)")
    # The CI gate: batching must reduce page touches per molecule.
    assert batched_pins < unbatched_pins, (
        f"{strategy.value}: batched read path touched {batched_pins} pages "
        f"vs {unbatched_pins} unbatched — batching stopped paying off")


# -- 2: build_history reads each history once --------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_history_memo(benchmark, capsys, databases, strategy):
    """The sweep reads every consulted atom's history once per call."""
    from repro.temporal import Interval

    db, ids, groups = databases[strategy]
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)
    part = ids[groups["Part"][0]]
    window = Interval(0, 8)

    def memoized():
        return db.builder.build_history(part, mtype, window)

    states = benchmark(memoized)

    before = db.metrics.value("engine.versions_scanned")
    memoized()
    memo_scans = db.metrics.value("engine.versions_scanned") - before

    counting = _HistoryCountingReader(db.engine)
    counted = MoleculeBuilder(counting, db.metrics).build_history(
        part, mtype, window)
    assert [str(span) for span, _ in counted] == [
        str(span) for span, _ in states]
    reads = counting.history_reads
    emit(capsys,
         f"R-F6 | {strategy.value:>9} | history states={len(states):>2} | "
         f"versions_scanned memo={memo_scans:>5} | "
         f"history reads={sum(reads.values()):>3} "
         f"atoms={len(reads):>3}")
    # The CI gate: one sweep reads each consulted atom's history once.
    assert reads and max(reads.values()) == 1, (
        f"{strategy.value}: build_history re-read histories "
        f"{sorted(atom for atom, n in reads.items() if n > 1)}")


# -- 3: reader calls do not grow with boundaries -------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_history_calls_flat(benchmark, capsys, tmp_path, strategy):
    """Reader calls per ``build_history`` are equal for windows of 8 and
    40 boundaries: a part with two components, each supplied by one
    supplier, whose components change weight at every instant 1..44."""
    from repro import DatabaseConfig, TemporalDatabase
    from repro.temporal import Interval
    from repro.workloads import cad_schema

    db = TemporalDatabase.create(str(tmp_path / "calls"), cad_schema(),
                                 DatabaseConfig(strategy=strategy))
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "p"}, valid_from=0)
        components = []
        for i in range(2):
            component = txn.insert("Component", {"cname": f"c{i}"},
                                   valid_from=0)
            supplier = txn.insert("Supplier", {"sname": f"s{i}"},
                                  valid_from=0)
            txn.link("contains", part, component, valid_from=0)
            txn.link("supplied_by", component, supplier, valid_from=0)
            components.append(component)
    for at in range(1, 45):
        with db.transaction() as txn:
            txn.update(components[at % 2], {"weight": float(at)},
                       valid_from=at)
    mtype = MoleculeType.parse(
        "Part.contains.Component.supplied_by.Supplier", db.schema)

    def sweep(boundaries):
        reader = _HistoryCountingReader(db.engine)
        before = db.metrics.value("builder.boundary_scans")
        states = MoleculeBuilder(reader, db.metrics).build_history(
            part, mtype, Interval(0, boundaries))
        scans = db.metrics.value("builder.boundary_scans") - before
        assert scans == boundaries and len(states) == boundaries
        return reader.calls

    benchmark(lambda: sweep(40))
    rows = {}
    for boundaries in (8, 40):
        db.engine.drop_caches()
        rows[boundaries] = sweep(boundaries)
        emit(capsys,
             f"R-F6 | {strategy.value:>9} | history boundaries="
             f"{boundaries:>2} | version_at_many="
             f"{rows[boundaries]['version_at_many']:>2} "
             f"all_versions_many="
             f"{rows[boundaries]['all_versions_many']:>2}")
    db.close()
    # The CI gate: a sweep's reader calls do not grow with boundaries.
    assert sum(rows[8].values()) == sum(rows[40].values()), (
        f"{strategy.value}: reader calls per build_history grew from "
        f"{dict(rows[8])} at 8 boundaries to {dict(rows[40])} at 40")
