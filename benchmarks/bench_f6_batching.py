"""R-F6 — The set-oriented read path: batching and the history memo.

Two questions, one per section:

1. **Page touches per molecule** — building through the batched
   ``version_at_many`` path must touch fewer buffer pages than the
   atom-at-a-time baseline (a reader whose batch methods loop over the
   engine's per-atom ``version_at`` / ``all_versions``), for every
   storage strategy.  This is the CI gate: batching that stops paying
   off fails the run.
2. **History reconstruction** — ``build_history``'s per-call boundary
   memo must read each consulted atom's history at most once per call,
   however many slices the sweep builds (an absolute count gate).

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

    def all_versions_many(self, atom_ids):
        return {atom_id: self._engine.all_versions(atom_id)
                for atom_id in dict.fromkeys(atom_ids)}


class _HistoryCountingReader:
    """The engine, counting how often each atom's history is requested."""

    def __init__(self, engine):
        self._engine = engine
        self.history_reads = Counter()

    def atom_type_name(self, atom_id):
        return self._engine.atom_type_name(atom_id)

    def version_at_many(self, atom_ids, at, tt=None):
        return self._engine.version_at_many(atom_ids, at, tt)

    def all_versions_many(self, atom_ids):
        ids = list(dict.fromkeys(atom_ids))
        self.history_reads.update(ids)
        return self._engine.all_versions_many(ids)


def test_f6_report_header(benchmark, capsys):
    header(capsys, "R-F6",
           "batched fetch vs atom-at-a-time, history memo")
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


# -- 2: build_history boundary memo -----------------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_history_memo(benchmark, capsys, databases, strategy):
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
