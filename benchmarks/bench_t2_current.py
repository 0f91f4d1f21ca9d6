"""R-T2 — Current time-slice query cost by strategy.

With a fixed history length, run the canonical molecule query
(``Part.contains.Component`` sliced at the current instant) over every
root and compare strategies.  Deterministic rows report buffer page
touches per query — the hardware-independent cost.

Expected shape: SEPARATED and CHAINED answer current slices from one
record per atom; CLUSTERED drags the whole history through the buffer,
so it touches the most pages (and the gap widens with history length).

The "R-T2 warm" row repeats the query with the engine's caches as the
cold pass left them: every atom's live version valid at the instant is
cached, so the repeat must make no buffer pin and no ``read_at_many``
call on any strategy (a count gate).  The "R-T2 warm pushdown" row
repeats it once more with the root comparison of ``WHERE Part.name =
<a loaded name>`` pushed down, under the same gate: the predicate is
judged on the cached payloads.
"""

import pytest

from benchmarks._util import ALL_STRATEGIES, build_db, emit, header, pins, reset_counters
from repro import MoleculeType
from repro.mql.planner import PushdownSpec
from repro.workloads import history_depth_spec

HISTORY = 32


def test_t2_report_header(benchmark, capsys):
    header(capsys, "R-T2",
           f"current time-slice molecule query, history={HISTORY}")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        path = tmp_path_factory.mktemp("t2") / strategy.value
        built[strategy] = build_db(str(path), history_depth_spec(HISTORY),
                                   strategy)
    yield built
    for db, _, _ in built.values():
        db.close()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_t2_current_slice(benchmark, capsys, databases, strategy):
    db, ids, groups = databases[strategy]
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)
    parts = [ids[handle] for handle in groups["Part"]]
    at = HISTORY - 1  # inside every atom's current version

    def run():
        return db.builder.build_many(parts, mtype, at)

    molecules = benchmark(run)
    reset_counters(db)
    run()
    emit(capsys,
         f"R-T2 | strategy={strategy.value:>9} | molecules={len(molecules)} "
         f"| page_touches={pins(db):>5} | per_molecule="
         f"{pins(db) / max(1, len(molecules)):.1f}")

    # Warm: the pass above left every atom's live version valid at the
    # instant in its cache entry, so a repeat is answered from there —
    # also when the root comparison of ``WHERE Part.name = $name`` is
    # pushed down, since it is judged on the cached payload.
    name = db.version_at(parts[0], at).values["name"]
    pred = db.engine.compile_pushdown(PushdownSpec("Part", (("name", "EQ", name),)))
    for label, warm_run in (
            ("warm", run),
            ("warm pushdown",
             lambda: db.builder.build_many(parts, mtype, at,
                                           root_pred=pred))):
        molecules, touched, store_reads = _store_free(db, warm_run)
        emit(capsys,
             f"R-T2 {label} | strategy={strategy.value:>9} "
             f"| molecules={len(molecules)} | page_touches={touched:>5} "
             f"| read_at_many={store_reads}")
        # The CI gate: a warm current slice never reaches the store.
        assert touched == 0 and not store_reads, (
            f"{strategy.value}: a {label} current slice touched {touched} "
            f"pages in {store_reads} read_at_many calls")


def _store_free(db, run):
    """*run*'s result, the buffer pins it made and its ``read_at_many``
    calls."""
    store = db.engine.store
    calls = []
    read_at_many = store.read_at_many

    def counting_read_at_many(*args, **kwargs):
        calls.append(args[0])
        return read_at_many(*args, **kwargs)

    db.buffer.stats.reset()
    store.read_at_many = counting_read_at_many
    try:
        result = run()
    finally:
        del store.read_at_many
    return result, pins(db), len(calls)
