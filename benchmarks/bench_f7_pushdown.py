"""R-F7 — Predicate and projection pushdown into the version stores.

Two questions:

1. **Versions decoded per query** — a selective root predicate pushed
   into the store must decode strictly fewer versions (target: at least
   2x fewer) than the legacy decode-then-filter pipeline, for every
   storage strategy, while returning byte-identical results — the
   differential oracle runs inside the benchmark.
2. **Batched index maintenance** — one transaction's index entries are
   buffered and flushed as sorted runs (``index.batch_inserts``); the
   row records entries per batch so the write-path amortization stays
   visible over time.

Decode caches are cleared before each measured run so decode counts
reflect the read path itself, not residue from a previous measurement.
"""

import pytest

from benchmarks._util import (
    ALL_STRATEGIES,
    build_db,
    emit,
    header,
    pins,
    reset_counters,
)
from repro.mql.analyzer import analyze
from repro.mql.evaluator import execute_plan
from repro.mql.parser import parse_query
from repro.mql.planner import QueryPlan, plan
from repro.workloads import WorkloadSpec

SELECTIVE = "SELECT ALL FROM Part WHERE Part.name = 'part-3' VALID AT 1"
PROJECTED = ("SELECT Part.name, Part.cost FROM Part "
             "WHERE Part.cost > 250 VALID AT 1")
WINDOW = ("SELECT ALL FROM Part WHERE Part.name = 'part-3' "
          "VALID DURING [0, 6)")


def _canonical(result):
    return (result.projected,
            [(entry.root_id, (entry.valid.start, entry.valid.end),
              entry.molecule.to_dict() if entry.molecule is not None
              else None,
              entry.row)
             for entry in result])


def _plans(db, text):
    analyzed = analyze(parse_query(text), db.schema)
    pushed = plan(analyzed, db.engine)
    stripped = QueryPlan(analyzed, pushed.root_access)
    return pushed, stripped


def _decodes(db, query_plan):
    before = db.metrics.value("engine.decode_cache.misses")
    reset_counters(db)
    result = execute_plan(db, query_plan)
    return result, db.metrics.value(
        "engine.decode_cache.misses") - before, pins(db)


def test_f7_report_header(benchmark, capsys):
    header(capsys, "R-F7",
           "pushdown: versions decoded vs decode-then-filter, "
           "batched index maintenance")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    spec = WorkloadSpec(parts=32, fanout=4, suppliers=6,
                        versions_per_atom=4, seed=1992)
    for strategy in ALL_STRATEGIES:
        path = tmp_path_factory.mktemp("f7") / f"db-{strategy.value}"
        built[strategy] = build_db(str(path), spec, strategy,
                                   buffer_pages=1024)
    yield built
    for db, _, _ in built.values():
        db.close()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f7_selective_predicate_decodes(benchmark, capsys, databases,
                                        strategy):
    db, _, _ = databases[strategy]
    pushed_plan, stripped_plan = _plans(db, SELECTIVE)
    assert pushed_plan.pushdown is not None

    def run():
        db.engine.drop_caches()
        return execute_plan(db, pushed_plan)

    benchmark(run)

    pushed, pushed_decodes, pushed_pins = _decodes(db, pushed_plan)
    legacy, legacy_decodes, legacy_pins = _decodes(db, stripped_plan)

    # The differential oracle: pushdown is invisible in the results.
    assert _canonical(pushed) == _canonical(legacy)
    atoms = sum(m.atom_count() for m in pushed.molecules()) or 1
    emit(capsys,
         f"R-F7 | {strategy.value:>9} | selective | "
         f"decoded pushdown={pushed_decodes:>4} "
         f"legacy={legacy_decodes:>4} | "
         f"pins pushdown={pushed_pins:>4} ({pushed_pins / atoms:.2f}/atom) "
         f"legacy={legacy_pins:>4}")
    # The trend gate: the pushdown must decode at least 2x fewer
    # versions than decode-then-filter on a selective predicate.
    assert pushed_decodes * 2 <= legacy_decodes, (
        f"{strategy.value}: pushdown decoded {pushed_decodes} versions vs "
        f"{legacy_decodes} legacy — predicate pushdown stopped paying off")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f7_projection_and_window(benchmark, capsys, databases, strategy):
    db, _, _ = databases[strategy]
    proj_pushed, proj_stripped = _plans(db, PROJECTED)
    win_pushed, win_stripped = _plans(db, WINDOW)

    def run():
        db.engine.drop_caches()
        return execute_plan(db, proj_pushed)

    benchmark(run)

    for label, with_pd, without_pd in (("projected", proj_pushed,
                                        proj_stripped),
                                       ("window", win_pushed,
                                        win_stripped)):
        pushed, pushed_decodes, pushed_pins = _decodes(db, with_pd)
        legacy, legacy_decodes, legacy_pins = _decodes(db, without_pd)
        assert _canonical(pushed) == _canonical(legacy)
        emit(capsys,
             f"R-F7 | {strategy.value:>9} | {label:>9} | "
             f"decoded pushdown={pushed_decodes:>4} "
             f"legacy={legacy_decodes:>4} | "
             f"pins pushdown={pushed_pins:>4} legacy={legacy_pins:>4}")
        assert pushed_decodes <= legacy_decodes


def test_f7_batched_index_writes(benchmark, capsys, tmp_path_factory):
    path = tmp_path_factory.mktemp("f7idx") / "db"
    spec = WorkloadSpec(parts=24, fanout=3, suppliers=4,
                        versions_per_atom=3, seed=7)
    db, ids, groups = build_db(str(path), spec, buffer_pages=1024)
    try:
        db.create_attribute_index("Part", "name")
        db.metrics.reset("index.")
        with db.transaction() as txn:
            for index in range(64):
                txn.insert("Part", {"name": f"bulk-{index}",
                                    "cost": float(index)}, valid_from=0)
        batches = db.metrics.value("index.batch_inserts")
        entries = db.metrics.value("index.entries_added")
        emit(capsys,
             f"R-F7 | write path | entries_added={entries:>4} "
             f"batch_inserts={batches:>3} "
             f"({entries / max(batches, 1):.1f} entries/batch)")
        # One transaction's entries must flush as few sorted batches,
        # not one tree descent per entry.
        assert batches >= 1
        assert entries >= 64
        db.indexes.check_all()
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        db.close()
