"""R-F3 — Full-history query cost vs. history length.

Reading an atom's complete version history (the ``VALID HISTORY``
building block) across history lengths 4..128.

Expected shape: CLUSTERED wins — the history is one contiguous
(possibly spanned) record; CHAINED pays one record per version along
the chain; SEPARATED pays the version directory plus every history page
holding a version (records sharing a page are read under one pin, so it
benefits from append-order locality).

Every count is taken on a cold engine (``reset_counters`` drops the
engine's caches), and ``test_f3_cold_history_cost_grows`` gates on it:
a cached history would cost the same few page touches at every length.

The warm-encode row serves one part's ``VALID HISTORY`` response twice
through the server's response writer and counts the version fragments
it makes (``engine.fragment_cache.misses``):
``test_f3_warm_response_encode`` gates on the cold pass making exactly
one per distinct version in the response and the warm pass none.
"""

import pytest

from benchmarks._util import ALL_STRATEGIES, build_db, emit, header, pins, reset_counters
from repro import VersionStrategy
from repro.server.protocol import encode_result
from repro.workloads import history_depth_spec

HISTORIES = [4, 16, 64, 128]


def test_f3_report_header(benchmark, capsys):
    header(capsys, "R-F3", "full-history read cost vs. history length")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        for history in HISTORIES:
            path = (tmp_path_factory.mktemp("f3")
                    / f"{strategy.value}{history}")
            built[(strategy, history)] = build_db(
                str(path), history_depth_spec(history, parts=4), strategy,
                buffer_pages=1024)
    yield built
    for db, _, _ in built.values():
        db.close()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
@pytest.mark.parametrize("history", HISTORIES)
def test_f3_full_history(benchmark, capsys, databases, strategy, history):
    db, ids, groups = databases[(strategy, history)]
    part = ids[groups["Part"][0]]

    def run():
        return db.history(part)

    versions = benchmark(run)
    reset_counters(db)
    run()
    emit(capsys,
         f"R-F3 | strategy={strategy.value:>9} history={history:>3} | "
         f"versions_read={len(versions):>4} page_touches={pins(db):>5}")



@pytest.mark.parametrize("strategy",
                         [VersionStrategy.SEPARATED, VersionStrategy.CHAINED],
                         ids=["separated", "chained"])
def test_f3_cold_history_cost_grows(databases, strategy):
    """The CI gate: per-version mappings pay more page touches for longer
    histories.  Flat counts mean the experiment measured a cache, not
    the store."""
    touches = []
    for history in HISTORIES:
        db, ids, groups = databases[(strategy, history)]
        part = ids[groups["Part"][0]]
        db.history(part)  # warm every cache the read path has
        reset_counters(db)
        db.history(part)
        touches.append(pins(db))
    assert touches == sorted(set(touches)), (
        f"{strategy.value}: full-history page touches {touches} do not "
        f"grow with history length {HISTORIES}")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f3_warm_response_encode(capsys, databases, strategy):
    """The CI gate: a served ``VALID HISTORY`` makes each distinct
    version's fragment once, cold, and serving it again makes none."""
    history = HISTORIES[-1]
    db, _, _ = databases[(strategy, history)]
    text = ("SELECT ALL FROM Part.contains.Component "
            "WHERE Part.name = 'part-0' VALID HISTORY")
    made = db.metrics.counter("engine.fragment_cache.misses")
    hits = db.metrics.counter("engine.fragment_cache.hits")
    reset_counters(db)
    passes = []
    for _ in range(2):
        result = db.query(text)
        before = (made.value, hits.value)
        encode_result(result, db.engine.keep_fragments)
        passes.append((made.value - before[0], hits.value - before[1]))
    distinct = len({id(atom.version) for entry in result
                    for atom in entry.molecule.atoms()})
    (cold, cold_hits), (warm, warm_hits) = passes
    emit(capsys,
         f"R-F3 warm-encode | strategy={strategy.value:>9} "
         f"history={history:>3} | entries={len(result):>4} "
         f"distinct_versions={distinct:>4} cold_fragments={cold:>4} "
         f"cold_hits={cold_hits:>4} warm_fragments={warm:>4} "
         f"warm_hits={warm_hits:>4}")
    assert cold == distinct
    assert warm == 0
    assert warm_hits == cold + cold_hits
